"""Per-layer tracing installed from outside the library.

Each public function of an ``ordalg`` module is replaced, in every
``ordalg`` namespace that binds it, by a wrapper that records a span:
name, start, end and parent.  Binding every namespace means nested calls
are seen too: ``as_lattice`` is bound in ``poset``, ``pseudocomplement``,
``cli`` and the package.  Tiny hot functions and methods are counted but
not spanned, so that tracing does not swamp the work it measures.  Spans
stay in memory until the run writes them out; ``restore`` puts every
original back.
"""

import functools
import gzip
import json
import sys
import time
import types
from collections import Counter

from metrics import totals_by_name

# The dispatcher routes carriers wider than this to the pure twin.
KERNEL_WIDTH = 64

KERNEL_FUNCTIONS = (
    "closure", "lattice_tables", "poset_star_table", "rrl_scan",
    "divisibility_scan", "enum_orders", "subset_l_table", "canon_subset_scan",
)

# Called once per table cell or per subset pair: counted, never spanned.
COUNT_ONLY = frozenset({
    "poset.lower_set", "poset.upper_set",
    "pseudocomplement.relative_pc_poset", "pseudocomplement.sectional_pc_poset",
    "pseudocomplement.sectional_pc_lattice", "pseudocomplement.relative_pc",
})

# (module, class, method, counter name)
COUNTED_METHODS = (
    ("operators", "CanonicalProduct", "m", "operators.product_evals"),
    ("congruence", "Congruence", "join", "congruence.joins"),
    ("congruence", "Congruence", "meet", "congruence.meets"),
)

SPANNED = {
    "poset": ("as_lattice", "make_poset"),
    "pseudocomplement": ("classify", "synthesize_sectional", "star_table_poset",
                         "relative_table_poset", "is_meet_semidistributive"),
    "residuation": ("check_residuation", "check_divisibility", "derived_laws",
                    "identity_basis_check"),
    "operators": ("canonical_operators", "check_operator_axioms", "operator_derived_laws"),
    "congruence": ("all_congruences", "principal_congruence", "check_permutable",
                   "check_congruence_distributive", "check_weakly_regular"),
    "fileformat": ("parse", "render"),
}


def _per_layer_names():
    names = []
    for fn in KERNEL_FUNCTIONS:
        names += [f"kernels.{fn}.calls", f"kernels.{fn}.ms"]
    names += ["kernels.routed_py.calls", "kernels.rescan_flags", "kernels.share"]
    names += ["poset.as_lattice.calls", "poset.as_lattice.self_ms",
              "poset.make_poset.self_ms", "poset.lower_set.calls"]
    for layer in ("pseudocomplement", "residuation", "operators", "congruence"):
        for fn in SPANNED[layer]:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_ms"]
        if layer == "operators":
            names.append("operators.product_evals")
    names += ["congruence.joins", "congruence.meets", "congruence.join_yield"]
    names += ["constructions.enumerate_structures.calls",
              "constructions.enumerate_structures.self_ms",
              "constructions.labelled", "constructions.classes",
              "constructions.class_yield", "constructions.direct_product.self_ms"]
    for fn in SPANNED["fileformat"]:
        names += [f"fileformat.{fn}.calls", f"fileformat.{fn}.self_ms"]
    names += ["cli.interp_ms", "cli.import_ms", "cli.main.self_ms", "trace.overhead"]
    return tuple(names)


PER_LAYER = _per_layer_names()


def unit_of(name):
    if name.endswith("ms"):
        return "ms"
    if name in ("kernels.share", "congruence.join_yield", "constructions.class_yield",
                "trace.overhead"):
        return "ratio"
    return "count"


def layer_of(module_name):
    last = module_name.rsplit(".", 1)[-1]
    return "kernels" if last == "_kernels" else last


def library_modules():
    """The package and its direct submodules; the kernel twins are excluded."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None
        and (name == "ordalg" or (name.startswith("ordalg.") and name.count(".") == 1))
    ]


def public_functions(modules):
    """{span name: function} for every public function a layer module defines.

    The CLI's public surface is ``main``; its per-command handlers are not
    spanned, so ``cli.main`` self time holds argument parsing and output.
    """
    out = {}
    for mod in modules:
        if mod.__name__ == "ordalg":
            continue
        layer = layer_of(mod.__name__)
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__):
                continue
            if layer == "cli" and name != "main":
                continue
            out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Spans and counters for one traced phase; install, run, restore."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._open = Counter()
        self._patches = []

    def _after(self, name):
        """Counter update from a spanned call's result, if the call has one."""
        counts = self.counts

        def rescan_if(flag):
            if flag:
                counts["kernels.rescan_flags"] += 1

        hooks = {
            # a nonzero axiom scan or a failed divisibility scan sends
            # the caller into a Python witness rescan
            "kernels.rrl_scan": lambda res: rescan_if(res),
            "kernels.divisibility_scan": lambda res: rescan_if(not res),
            "kernels.enum_orders": lambda res: counts.update(
                {"constructions.labelled": len(res)}),
            "constructions.enumerate_structures": lambda res: counts.update(
                {"constructions.classes": len(res)}),
            "congruence.all_congruences": lambda res: counts.update(
                {"congruence.found": len(res)}),
        }
        return hooks.get(name)

    def _spanning(self, name, fn):
        spans, stack, is_open = self.spans, self._stack, self._open
        after = self._after(name)
        kernel = name.startswith("kernels.")
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernel and args and args[0] > KERNEL_WIDTH:
                counts["kernels.routed_py.calls"] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            is_open[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                is_open[name] -= 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counting(self, name, fn):
        counts, is_open = self.counts, self._open
        inside_all = name == "congruence.joins"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if inside_all and is_open["congruence.all_congruences"]:
                counts["congruence.joins_in_all"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every public function and the counted methods."""
        modules = library_modules()
        replace = {}
        for name, fn in public_functions(modules).items():
            if name in COUNT_ONLY:
                replace[id(fn)] = (fn, self._counting(name + ".calls", fn))
            else:
                replace[id(fn)] = (fn, self._spanning(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth, counter in COUNTED_METHODS:
            cls = getattr(sys.modules[f"ordalg.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._counting(counter, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        body = {
            "names": names,
            "spans": [[index[n], round(s, 9), round(e, 9), p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(body, handle, separators=(",", ":"))

    def layer_metrics(self, traced_s, untraced_s, probes):
        """Every per-layer metric; ``probes`` holds cli.interp_ms and cli.import_ms."""
        totals = totals_by_name(self.spans)
        counts = self.counts

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def total_ms(name):
            return totals.get(name, (0, 0.0, 0.0))[1] * 1000.0

        def self_ms(name):
            return totals.get(name, (0, 0.0, 0.0))[2] * 1000.0

        def ratio(num, den):
            return num / den if den else 0.0

        kernel_ms = sum(total_ms(f"kernels.{fn}") for fn in KERNEL_FUNCTIONS)
        values = {
            "kernels.routed_py.calls": counts["kernels.routed_py.calls"],
            "kernels.rescan_flags": counts["kernels.rescan_flags"],
            "kernels.share": ratio(kernel_ms, traced_s * 1000.0),
            "poset.lower_set.calls": counts["poset.lower_set.calls"],
            "operators.product_evals": counts["operators.product_evals"],
            "congruence.joins": counts["congruence.joins"],
            "congruence.meets": counts["congruence.meets"],
            "congruence.join_yield": ratio(counts["congruence.found"],
                                           counts["congruence.joins_in_all"]),
            "constructions.labelled": counts["constructions.labelled"],
            "constructions.classes": counts["constructions.classes"],
            "constructions.class_yield": ratio(counts["constructions.classes"],
                                               counts["constructions.labelled"]),
            "trace.overhead": ratio(traced_s, untraced_s) - 1.0,
        }
        values.update(probes)
        for name in PER_LAYER:
            if name in values:
                continue
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls(base)
            elif kind == "ms":
                values[name] = total_ms(base)
            elif kind == "self_ms":
                values[name] = self_ms(base)
            else:
                raise KeyError(name)
        return {name: values[name] for name in PER_LAYER}
