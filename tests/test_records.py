"""The record types: a light import and frozen value semantics; and which
modules import the kernel twins."""

import ast
import copy
import inspect
import pathlib
import pickle
import subprocess
import sys

import pytest

import ordalg
from ordalg import (
    AxiomReport,
    BinOp,
    Catalog,
    ClassificationReport,
    Congruence,
    FiniteAlgebra,
    Fixture,
    LatticeOps,
    NotALattice,
    OperatorPoset,
    ResiduationCandidate,
    StructureFile,
    Verdict,
    all_congruences,
    as_lattice,
    canonical_operators,
    check_divisibility,
    check_operator_axioms,
    check_residuation,
    classify,
    enumerate_structures,
    fixture,
    from_sectional,
    identity_basis_check,
    is_meet_semidistributive,
    parse,
    star_table_poset,
    synthesize_sectional,
)
from ordalg.pseudocomplement import FailureWitness
from ordalg.residuation import IdentityBasisReport
from test_fileformat import PENTAGON_TEXT


def test_importing_ordalg_loads_no_introspection_modules():
    # typing is left out: site imports it before ordalg on some installs
    code = ("import sys, ordalg, ordalg.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _imports(path):
    """(names, nested) of each import in a module, ``import_module`` calls
    included: the dotted parts of the module and of each name it imports,
    and whether it is an import statement inside a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if node is not fn}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module":
            names = [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
        else:
            continue
        nested_statement = id(node) in nested and not isinstance(node, ast.Call)
        yield {part for name in names for part in name.split(".")}, nested_statement


def test_only_the_dispatcher_imports_a_kernel_twin():
    """Only _kernels/__init__.py imports either twin, the pure one through
    its one lazy import_module call; no kernel module has an import
    statement inside a function, and _common imports nothing, so the
    kernel modules import no cycle."""
    root = pathlib.Path(ordalg.__file__).parent
    twins = {"_core_py", "_core_c"}
    importers = {path.relative_to(root).as_posix() for path in root.rglob("*.py")
                 for names, _ in _imports(path) if names & twins}
    assert importers == {"_kernels/__init__.py"}
    kernels = root / "_kernels"
    assert [path.name for path in sorted(kernels.glob("*.py"))
            for _, nested in _imports(path) if nested] == []
    assert list(_imports(kernels / "_common.py")) == []


def _pentagon_candidate():
    lat = as_lattice(fixture("pentagon").poset)
    return from_sectional(lat, synthesize_sectional(lat))


def _pentagon_algebra():
    lat = as_lattice(fixture("pentagon").poset)
    return FiniteAlgebra.build(lat.poset, {"join": BinOp(5, lat.join), "meet": BinOp(5, lat.meet)},
                               {"one": lat.top})


# each record type, an example, its fields in order, the fields that ==,
# hash and repr leave out, and its constructor's parameters
RECORDS = [
    (Verdict, lambda: Verdict(False, (1, 2), "x"), ("holds", "witness", "detail"), (),
     ("holds", "witness=()", "detail=''")),
    (BinOp, lambda: BinOp(2, ((0, None), (1, 1))), ("n", "table", "is_total"), ("is_total",),
     ("n", "table")),
    (NotALattice, lambda: as_lattice(fixture("bowtie").poset),
     ("kind", "pair", "frontier", "poset"), ("poset",),
     ("kind", "pair", "frontier", "poset=None")),
    (LatticeOps, lambda: as_lattice(fixture("pentagon").poset),
     ("poset", "join", "meet", "top", "bottom"), (), ("poset", "join", "meet")),
    (FailureWitness, lambda: FailureWitness((1, 2), 3, 4), ("pair", "candidate", "meet_value"),
     (), ("pair", "candidate", "meet_value")),
    (ClassificationReport, lambda: classify(fixture("bowtie").poset),
     ("is_lattice", "has_top", "has_bottom", "is_modular", "is_distributive",
      "is_meet_semidistributive", "is_sectionally_pc", "is_relatively_pc", "witnesses"), (),
     ("is_lattice", "has_top", "has_bottom", "is_modular", "is_distributive",
      "is_meet_semidistributive", "is_sectionally_pc", "is_relatively_pc", "witnesses")),
    (ResiduationCandidate, _pentagon_candidate, ("lattice", "mult", "imp"), (),
     ("lattice", "mult", "imp")),
    (AxiomReport, lambda: check_residuation(_pentagon_candidate()), ("subject", "verdicts"),
     ("subject",), ("subject", "verdicts=()")),
    (IdentityBasisReport, lambda: identity_basis_check(_pentagon_candidate()),
     ("subject", "conditions", "groupoid", "residuation"), ("subject",),
     ("subject", "conditions=()", "groupoid=Verdict(holds=True, witness=(), detail='')",
      "residuation=None")),
    (OperatorPoset, lambda: canonical_operators(fixture("pentagon").poset,
                                                star_table_poset(fixture("pentagon").poset)),
     ("poset", "prod", "resid"), (), ("poset", "prod", "resid")),
    (FiniteAlgebra, _pentagon_algebra, ("poset", "ops", "constants"), (),
     ("poset", "ops", "constants=()")),
    (Congruence, lambda: all_congruences(_pentagon_algebra())[1], ("labels",), (), ("labels",)),
    (Fixture, lambda: fixture("pentagon"), ("name", "poset", "star", "mult", "imp"), (),
     ("name", "poset", "star=None", "mult=None", "imp=None")),
    (Catalog, lambda: enumerate_structures(4, "lattices"), ("kind", "size", "deduped", "members"),
     (), ("kind", "size", "deduped", "members")),
    (StructureFile, lambda: parse(PENTAGON_TEXT),
     ("elements", "covers", "ops", "constants", "op_headers"), ("op_headers",),
     ("elements", "covers=()", "ops=()", "constants=()", "op_headers=()")),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def _hash(record):
    try:
        return hash(record)
    except TypeError:
        return None


@pytest.mark.parametrize(("cls", "make", "fields", "hidden"), [r[:4] for r in RECORDS],
                         ids=IDS)
def test_records_compare_hash_and_print_their_shown_fields_and_are_frozen(cls, make, fields,
                                                                         hidden):
    record = make()
    assert type(record) is cls
    values = [getattr(record, f) for f in fields]
    shown = [f for f in fields if f not in hidden]
    listed = ", ".join(f"{f}={getattr(record, f)!r}" for f in shown)
    assert repr(record) == f"{cls.__name__}({listed})"
    for name in fields:
        twin = copy.copy(record)
        assert twin == record and _hash(twin) == _hash(record) and repr(twin) == repr(record)
        object.__setattr__(twin, name, object())
        if name in hidden:
            assert twin == record and _hash(twin) == _hash(record) and repr(twin) == repr(record)
        else:
            assert twin != record and repr(twin) != repr(record)
            assert None in (_hash(twin), _hash(record)) or _hash(twin) != _hash(record)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(getattr(record, f) is value for f, value in zip(fields, values))
    assert record != tuple(getattr(record, f) for f in shown)
    if cls is not OperatorPoset:  # its product and residual compare by identity
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(("cls", "make", "params"), [(r[0], r[1], r[4]) for r in RECORDS],
                         ids=IDS)
def test_record_constructors_keep_their_signatures(cls, make, params):
    signature = inspect.signature(cls)
    assert str(signature) == f"({', '.join(params)})"
    # every parameter is a field, so the example's fields rebuild it
    record = make()
    names = list(signature.parameters)
    args = [getattr(record, name) for name in names]
    assert cls(*args) == record
    assert cls(**dict(zip(names, args))) == record
    required = sum("=" not in p for p in params)
    with pytest.raises(TypeError):
        cls(*args[:required - 1])
    with pytest.raises(TypeError):
        cls(*args, unknown=None)


def test_lookups_by_an_unknown_name_raise_key_error():
    with pytest.raises(KeyError, match="imp"):
        _pentagon_algebra().op("imp")
    with pytest.raises(KeyError, match="no-such-law"):
        check_residuation(_pentagon_candidate()).verdict("no-such-law")


def test_copies_of_a_scanned_subject_scan_again():
    # a kept law scan is keyed by the laws of the process that made it, so
    # a copy, deep copy or unpickled record leaves it out and scans again
    p = fixture("pentagon").poset
    for subject, check in ((as_lattice(p), is_meet_semidistributive),
                           (_pentagon_candidate(), check_divisibility),
                           (canonical_operators(p, star_table_poset(p)),
                            lambda op: check_operator_axioms(op).verdicts)):
        want = check(subject)
        for twin in (copy.copy(subject), copy.deepcopy(subject),
                     pickle.loads(pickle.dumps(subject))):
            assert "found" not in vars(twin)
            assert check(twin) == want


def test_witness_reprs_keep_their_text():
    # sweep's witness digest reads these reprs
    assert repr(FailureWitness((1, 2), 3, 4)) == \
        "FailureWitness(pair=(1, 2), candidate=3, meet_value=4)"
    assert repr(NotALattice("join", (1, 2), (3, 4))) == \
        "NotALattice(kind='join', pair=(1, 2), frontier=(3, 4))"
    assert repr(Verdict(False, (1, 2), "x")) == "Verdict(holds=False, witness=(1, 2), detail='x')"
    assert repr(Verdict.of(None)) == "Verdict(holds=True, witness=(), detail='')"
