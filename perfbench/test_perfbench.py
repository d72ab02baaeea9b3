"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import ordalg  # noqa: E402
import pytest  # noqa: E402
import workloads as W  # noqa: E402
from metrics import nearest_rank, self_times, totals_by_name  # noqa: E402
from structs import decode_key, order_key, permute_poset, random_perm  # noqa: E402
from tracer import PER_LAYER, Tracer, library_modules, unit_of  # noqa: E402

END_TO_END = ("setup_s", "items_per_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb")


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("mid", 1.0, 7.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("leaf", 4.0, 6.0, 1),
        ("mid", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 2.0, 1.0]
    totals = totals_by_name(spans)
    assert totals["mid"] == [2, 7.0, 4.0]
    assert totals["leaf"] == [2, 3.0, 3.0]


def test_nearest_rank_keeps_ten_samples_beyond_p90_at_100():
    samples = list(range(100, 0, -1))
    p90 = nearest_rank(samples, 90)
    assert p90 == 90
    assert sum(1 for s in samples if s > p90) == 10
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank([7.0], 90) == 7.0
    # four wide items: the median is the second, p90 the slowest
    assert nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert nearest_rank([4.0, 1.0, 3.0, 2.0], 90) == 4.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_cli_mix_puts_percentiles_inside_item_groups():
    # per pass: 20 fast commands and 3 on bool3, on each relabeled copy
    copies = W.CLI_COPIES
    assert len(W.CLI_COMMANDS) == 23
    lat = [1.0] * 20 * copies + [2.0] * 3 * copies
    assert len(lat) >= 100
    assert nearest_rank(lat, 50) == 1.0
    rank = -(-9 * len(lat) // 10)
    assert 20 * copies + 1 < rank < 23 * copies
    assert len(lat) - rank >= 10


def test_order_key_is_invariant_and_separates_classes():
    members = [p for n in range(1, 7) for p in ordalg.enumerate_structures(n, "all-posets").members]
    rng = random.Random(3)
    keys = set()
    for p in members:
        key = order_key(p.up)
        assert order_key(permute_poset(ordalg, p, random_perm(rng, p.n)).up) == key
        keys.add(key)
    assert len(keys) == len(members)
    for key in keys:
        assert order_key(decode_key(key)) == key


def test_sweep_inputs_are_the_catalogs():
    sweep = W.Sweep()
    units = sweep.build(random.Random(0))
    assert len(units) == 706
    assert all(passed for _, passed in sweep.audit())
    top = dict(list(sweep.expected["top"].items())[1:])
    sweep.expected = dict(sweep.expected, top=top)
    assert [label for label, passed in sweep.audit() if not passed] == ["posets-with-top n=1"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_relabeling_keeps_every_expected_flag(seed):
    expected = W.load_expected()
    rng = random.Random(seed)
    sweep = W.Sweep()
    sweep.expected = expected["sweep"]
    for kind, catalog, sizes in (("lattice", "lattices", range(1, 8)),
                                 ("top", "posets-with-top", range(1, 6))):
        for n in sizes:
            for p in ordalg.enumerate_structures(n, catalog).members:
                q = permute_poset(ordalg, p, random_perm(rng, n))
                unit = W.Unit(kind, "", q, q)
                assert sweep.check(unit, sweep.run(unit)), (kind, p.up)
    cong = W.Congruences()
    cong.expected = expected["congruence"]
    for p in ordalg.enumerate_structures(5, "lattices").members:
        q = permute_poset(ordalg, p, random_perm(rng, p.n))
        unit = W.Unit("plain", "", W.lattice_algebra(q), q)
        assert cong.check(unit, cong.run(unit)), p.up


def test_wrong_answers_fail_the_check():
    sweep = W.Sweep()
    sweep.expected = W.load_expected()["sweep"]
    p = ordalg.fixture("pentagon").poset
    unit = W.Unit("lattice", "", p, p)
    flags, witnesses = sweep.run(unit)
    assert sweep.check(unit, (flags, witnesses))
    flipped = list(flags)
    flipped[1] = not flipped[1]
    assert not sweep.check(unit, (flipped, witnesses))
    catalog = W.Catalog()
    short = ordalg.enumerate_structures(5, "lattices")
    assert catalog.check(W.Unit("lattices", "", 5), short)
    assert not catalog.check(W.Unit("lattices", "", 6), short)


def _bindings():
    out = {}
    for mod in library_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for mod_name, cls_name in (("ordalg.operators", "CanonicalProduct"),
                               ("ordalg.congruence", "Congruence")):
        cls = getattr(sys.modules[mod_name], cls_name)
        for name, value in vars(cls).items():
            out[(cls_name, name)] = value
    return out


def test_tracer_restores_every_binding():
    import ordalg.pseudocomplement as pc

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules["ordalg._kernels"].closure is not before[("ordalg._kernels", "closure")]
        assert pc.as_lattice is not before[("ordalg.pseudocomplement", "as_lattice")]
        assert ordalg.as_lattice is pc.as_lattice
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_nested_calls_get_parent_spans_and_counts():
    p = ordalg.fixture("pentagon").poset
    tracer = Tracer()
    tracer.install()
    try:
        W.wide_run(p)
        W.Catalog().run(W.Unit("lattices", "", 5))
    finally:
        tracer.restore()
    names = [s[0] for s in tracer.spans]
    classify = names.index("pseudocomplement.classify")
    children = {s[0] for s in tracer.spans if s[3] == classify}
    assert {"pseudocomplement.star_table_poset", "pseudocomplement.relative_table_poset",
            "pseudocomplement.is_meet_semidistributive"} <= children
    assert tracer.counts["operators.product_evals"] > 0
    assert tracer.counts["constructions.classes"] == 5
    layers = tracer.layer_metrics(1.0, 1.0, {"cli.interp_ms": 1.0, "cli.import_ms": 1.0})
    assert list(layers) == list(PER_LAYER)
    assert layers["pseudocomplement.classify.calls"] == 1
    assert layers["constructions.class_yield"] == 5 / layers["constructions.labelled"]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)


@pytest.mark.skipif(not ordalg.HAVE_C, reason="compiled twin not built")
def test_kernel_twins_agree():
    import twins

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("ORDALG_BACKEND", None)
    assert twins.disagreements(ordalg, ROOT, env) == []


def test_timed_summary_uses_each_calls_best_pass():
    import worker

    res = {"times": [[0.010, 0.030], [0.004, 0.002]], "items": [1, 2]}
    out = worker.summarize(res)
    # best times 10 ms (one item) and 2 ms (two items of 1 ms): three samples
    assert out["samples"] == 3
    assert out["items_per_s"] == pytest.approx(3 / 0.012)
    assert out["p50_ms"] == pytest.approx(1.0)
    assert out["p90_ms"] == pytest.approx(10.0)


def test_timed_pass_count_depends_on_seconds_only():
    sweep = W.Sweep()
    assert sweep.timed_passes(30) == round(30 / W.Sweep.pass_s)
    assert W.Wide().timed_passes(1) == 2
