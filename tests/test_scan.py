"""The scan engine against a reference loop over the scalar terms.

Each axiom's terms are written once.  The engine runs them as numpy
gathers over id tables that it fills from the carrier's batch ops
``<op>_rows``, gathers in the checked tables on a finite carrier; the
reference below runs them through the scalar ops of the carrier's tuple
twin (see ``reference.twin``), one ``itertools.product`` instance at a time.
These tests pin the two to each other, instance by instance and check by
check (pass/fail, violation count and witnesses, full, sampled, and with a
small CHUNK that defers every larger scan), on valid carriers, on products
and on planted faults, and pin every batch op to its twin's scalar op: on
random rows of the symbolic carriers, and on every operand tuple of the
finite ones.
"""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ellstates import _scan
from ellstates._scan import INT64_MAX, PREDICATES, integers, scan_axioms, stride_select, tables
from ellstates.corpus import (
    boolean_algebra,
    chang_algebra,
    cone_hoop,
    godel_hoop,
    hyperstate_family,
    ibp0_corpus,
    lmonoid_corpus,
    lukasiewicz_hoop,
    rotated_hoop,
    semihoop_corpus,
    trunc_monoid,
)
from ellstates.ibp0 import (IBP0_AXIOMS, SAMPLED_NOTE, ProductAlgebra, SymbolicPerfectAlgebra, boolean_skeleton,
                           radical, validate_ibp0)
from ellstates.lmonoid import LMONOID_AXIOMS, SymbolicCancellativeMonoid, TableAlgebra
from ellstates.reports import MAX_WITNESSES, verdict
from ellstates.semihoop import SEMIHOOP_AXIOMS, Componentwise, ProductHoop, SymbolicConeHoop
from ellstates.states import join_hyperstate
from reference import (SCALAR_OPS, UntruncatedCone, broken_monoid, planted_fault, planted_hoop_fault,
                       spy_scalar_ops, twin)

WINDOW = 3


def reference_scan(A, axioms, elems, caps) -> list[tuple]:
    """Per axiom, on A's twin: name, passed, violation count and the first witnesses."""
    A, out = twin(A), []
    for axiom in axioms:
        base = [elems[i] for i in stride_select(range(len(elems)), caps.get(axiom.arity, len(elems)))]
        failing = []
        for inst in product(base, repeat=axiom.arity):
            lhs, rhs = axiom.terms(A, *inst)
            if lhs != rhs:
                failing.append((inst, lhs, rhs))
        witnesses = [
            {
                "witness": {name: A.token(v) for name, v in zip("xyz", inst)},
                "lhs": lhs if isinstance(lhs, bool) else A.token(lhs),
                "rhs": rhs if isinstance(rhs, bool) else A.token(rhs),
            }
            for inst, lhs, rhs in failing[:MAX_WITNESSES]
        ]
        out.append((axiom.name, not failing, len(failing), witnesses))
    return out


ALGEBRAS = {
    "boolean-4": lambda: boolean_algebra(2),
    "rot-godel-4": lambda: rotated_hoop(godel_hoop(4)),
    "chang-1": lambda: chang_algebra(1),
    "chang-2": lambda: chang_algebra(2),
    "boolean-4*chang-1": lambda: ProductAlgebra([boolean_algebra(2), chang_algebra(1)]),
    "planted-fault": planted_fault,
}

# name: (builder, axioms, the window of the built carrier)
CASES = {name: (build, IBP0_AXIOMS, lambda A: A.carrier(WINDOW)) for name, build in ALGEBRAS.items()}
# A rank-3 rotation and a product of rotations, on windows that keep the
# reference's full triple loop affordable.
CASES.update({
    "chang-3": (lambda: chang_algebra(3), IBP0_AXIOMS, lambda A: A.carrier(1)),
    "chang-1*chang-2": (lambda: ProductAlgebra([chang_algebra(1), chang_algebra(2)]), IBP0_AXIOMS,
                        lambda A: A.carrier(1)),
})
CASES.update({
    f"semihoop-{name}": (build, SEMIHOOP_AXIOMS, lambda H: H.carrier(WINDOW))
    for name, build in {
        "godel-4": lambda: godel_hoop(4),
        "lukasiewicz-5": lambda: lukasiewicz_hoop(5),
        "cone-2": lambda: cone_hoop(2),
        "cone-1*godel-3": lambda: ProductHoop([cone_hoop(1), godel_hoop(3)]),
        "planted-fault": planted_hoop_fault,
        "planted-cone-fault": lambda: UntruncatedCone(rank=2),
    }.items()
})
CASES.update({
    f"lmonoid-{name}": (build, LMONOID_AXIOMS, lambda M: list(M.elements()))
    for name, build in {"trunc-4": lambda: trunc_monoid(4), "broken": broken_monoid}.items()
})
CASES["lmonoid-cancellative-2"] = (lambda: SymbolicCancellativeMonoid(rank=2), LMONOID_AXIOMS,
                                   lambda M: M.carrier(WINDOW))


@pytest.mark.parametrize("axiom", IBP0_AXIOMS, ids=lambda ax: ax.name)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_batch_and_scalar_terms_agree_instance_by_instance(name, axiom):
    A = ALGEBRAS[name]()
    ops = tables(A)
    instances = list(product(A.carrier(WINDOW), repeat=axiom.arity))
    columns = [ops.encode([inst[k] for inst in instances]) for k in range(axiom.arity)]
    batch_sides, T = axiom.terms(ops, *columns), twin(A)
    scalar_sides = list(zip(*(axiom.terms(T, *inst) for inst in instances)))
    for batch, scalar in zip(batch_sides, scalar_sides):
        if isinstance(scalar[0], bool):
            assert list(np.broadcast_to(batch, len(instances))) == list(scalar)
        else:
            assert np.all(np.broadcast_to(batch == ops.encode(list(scalar)), len(instances)))


# A CHUNK of 16 defers every scan past 16 instances: its terms run as nodes,
# over blocks of one or a few heads, with row gathers on a full axis, and an
# axis longer than CHUNK, as a window past 65536 elements would be, defers
# even the laws in one variable.
@pytest.mark.parametrize(("caps", "chunk"), [({}, None), ({2: 7, 3: 5}, None), ({}, 16), ({2: 7, 3: 5}, 16)],
                         ids=["full", "sampled", "full-chunk-16", "sampled-chunk-16"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_scan_equals_scalar_scan(name, caps, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(_scan, "CHUNK", chunk)
    build, axioms, window = CASES[name]
    A = build()
    elems = window(A)
    checks = scan_axioms(A, axioms, elems, caps, "m", SAMPLED_NOTE)
    got = [(c.axiom, c.passed, c.violations, c.witnesses) for c in checks]
    assert got == reference_scan(A, axioms, elems, caps)


@pytest.mark.parametrize("name", ["planted-fault", "semihoop-planted-fault", "semihoop-planted-cone-fault",
                                  "lmonoid-broken"])
def test_planted_faults_fail_a_required_check(name):
    # Keeps the scan comparisons above from passing on clean inputs only.
    build, axioms, window = CASES[name]
    A = build()
    assert any(c.required and not c.passed for c in scan_axioms(A, axioms, window(A), {}, "m", ""))


def test_the_planted_cone_fault_fills_through_the_batch_ops(monkeypatch):
    # CASES compares its witnesses with its twin's; here its tables are
    # filled by the batch residuum, and a scalar op only renders witnesses.
    H = UntruncatedCone(rank=2)
    calls = spy_scalar_ops(monkeypatch)
    checks = scan_axioms(H, SEMIHOOP_AXIOMS, H.carrier(WINDOW), {}, "m", "")
    assert any(c.required and c.witnesses for c in checks) and calls == []


def test_chang_2_set_up_makes_no_scalar_op_call(monkeypatch):
    # Variety gate, radical and first join read every op through the id
    # tables, filled by the batch ops.  chang-2 passes, so no witness is
    # rendered either.
    A = chang_algebra(2)
    calls = spy_scalar_ops(monkeypatch)
    assert validate_ibp0(A).ok and radical(A).report.ok
    assert calls == []
    family = hyperstate_family(A, 8)
    calls.clear()
    assert join_hyperstate(A, *family[0], 8)[1].ok
    assert calls == []


def test_finite_set_up_makes_no_scalar_op_call(monkeypatch):
    # The rotation's tables, its variety gate and its radical, whose hoop is
    # tabulated too, are gathers in the checked tables.  rot-godel-4 passes,
    # so no witness is rendered either.
    calls = spy_scalar_ops(monkeypatch)
    A = rotated_hoop(godel_hoop(4))
    assert validate_ibp0(A).ok and radical(A).report.ok
    assert calls == []
    # The spy sees the scalar ops of both tabulated algebras.
    A.times(0, 1)
    radical(A).hoop.meet(0, 1)
    assert calls == [("FiniteMTL", "times"), ("FiniteSemihoop", "meet")]


def test_a_product_is_scanned_through_its_factors_tables(monkeypatch):
    # A product has batch ops, but its scans never call them: it is
    # tabulated factor by factor, never over product ids, whose tables would
    # grow as the product of its factors'.
    products, fills, fill = [], [], _scan._Tables._fill

    def rows(self, op, *xs):
        products.append((type(self).__name__, op))
        return component_rows(self, op, *xs)

    def spy(self, name, keys):
        fills.append(type(self._A).__name__)
        return fill(self, name, keys)

    component_rows = Componentwise._rows
    monkeypatch.setattr(Componentwise, "_rows", rows)
    monkeypatch.setattr(_scan._Tables, "_fill", spy)
    A = ProductAlgebra([chang_algebra(1), chang_algebra(2)])
    assert validate_ibp0(A).ok and boolean_skeleton(A).report.ok and radical(A).report.ok
    assert products == []
    assert fills and set(fills) == {"SymbolicPerfectAlgebra", "SymbolicConeHoop"}
    # The spy sees a product's own batch ops where they are called.
    A.times(A.top, A.bot)
    assert products == [("ProductAlgebra", "times")]


def test_the_cli_scan_imports_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 15 ms of every CLI process.  chang-2's
    # triple laws pass CHUNK, so its scan defers them and fills their tables
    # at the distinct operand values.
    src = str(Path(_scan.__file__).resolve().parents[1])
    for rank in (1, 2):
        path = tmp_path / f"chang-{rank}.json"
        path.write_text(json.dumps({"kind": "rotation", "rank": rank}))
        code = ("import sys; from ellstates.cli import main; "
                f"status = main(['validate', '--ibp0', {str(path)!r}]); print(status, 'numpy.ma' in sys.modules)")
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                               env=dict(os.environ, PYTHONPATH=src))
        assert child.stdout.split()[-2:] == ["0", "False"], rank


# Per op, the keys that the chang-2 variety gate's terms reach: what a scan
# filling its tables one head block at a time fills.
CHANG_2_KEYS = {"meet": 26244, "join": 26660, "times": 93692, "impl": 26244, "leq": 93636, "neg": 162, "oplus": 218}


def test_the_chang_2_gate_fills_each_table_in_few_calls(monkeypatch):
    # A deferred term fills its table up front, CHUNK keys per call, at the
    # keys it reaches, and each block of heads only gathers.
    calls, keys, fill = [], {}, _scan._Tables._fill

    def spy(self, name, at):
        calls.append(name)
        keys[name] = keys.get(name, 0) + len(at[0])
        return fill(self, name, at)

    monkeypatch.setattr(_scan._Tables, "_fill", spy)
    assert validate_ibp0(chang_algebra(2)).ok
    assert len(calls) <= 30 and all(n <= CHANG_2_KEYS[name] for name, n in keys.items())


# Coordinates inside a window of 2, past it, and past half of int64, where
# a sum of two leaves int64 and the rows take Python ints.
COORDINATE = st.one_of(st.integers(0, 2), st.integers(3, 40), st.integers(2**62, 2**62 + 3), st.just(2**64))
HOOP_OPS = ("times", "impl", "meet", "join", "leq")
ALGEBRA_OPS = ("times", "impl", "meet", "join", "neg", "oplus", "leq")


def cone(rank: int):
    return st.tuples(*[COORDINATE] * rank)


def signed(rank: int):
    return st.tuples(st.sampled_from(["neg", "pos"]), cone(rank))


def rotation(rank: int) -> SymbolicPerfectAlgebra:
    return SymbolicPerfectAlgebra(SymbolicConeHoop(rank))


# kind: (builder of a carrier of the given cone rank, its elements, its ops).
# In a product, a cone coordinate past int64 makes its whole row Python ints,
# which the finite factors beside it must not gather with.
CARRIERS = {
    "monoid": (SymbolicCancellativeMonoid, cone, ("add", "meet", "join", "leq")),
    "hoop": (SymbolicConeHoop, cone, HOOP_OPS),
    "rotation": (rotation, signed, ALGEBRA_OPS),
    "hoop*godel-3": (lambda rank: ProductHoop([SymbolicConeHoop(rank), godel_hoop(3)]),
                     lambda rank: st.tuples(cone(rank), st.integers(0, 2)), ("add",) + HOOP_OPS),
    "rotation*boolean-4": (lambda rank: ProductAlgebra([rotation(rank), boolean_algebra(2)]),
                           lambda rank: st.tuples(signed(rank), st.integers(0, 3)), ALGEBRA_OPS),
    "godel-2*(hoop*godel-3)": (
        lambda rank: ProductHoop([godel_hoop(2), ProductHoop([SymbolicConeHoop(rank), godel_hoop(3)])]),
        lambda rank: st.tuples(st.integers(0, 1), st.tuples(cone(rank), st.integers(0, 2))), ("add",) + HOOP_OPS),
}


def batch_op(A, name: str, args) -> list:
    """A's batch op ``<name>_rows`` on the rows of the element lists ``args``,
    read back as elements or truth values."""
    rows = getattr(A, f"{name}_rows")(*(integers([A.row(x) for x in a]) for a in args))
    return rows.tolist() if name in PREDICATES else [A.element(r) for r in rows.tolist()]


def leaf_tables(A, o, elems: list) -> list[tuple]:
    """(carrier, its id tables, elems) for a carrier that is no product, and
    for a product those of its factors, each given its entry of every element."""
    if not hasattr(A, "factors"):
        return [(A, o, elems)]
    return [leaf for k, (f, fo) in enumerate(zip(A.factors, o._factors))
            for leaf in leaf_tables(f, fo, [x[k] for x in elems])]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(CARRIERS)), rank=st.integers(1, 3), data=st.data())
def test_batch_ops_equal_the_scalar_ops_on_random_rows(kind, rank, data):
    build, elements, names = CARRIERS[kind]
    A, element = build(rank), elements(rank)
    xs = data.draw(st.lists(element, min_size=1, max_size=6))
    ys = data.draw(st.lists(element, min_size=len(xs), max_size=len(xs)))
    o, T = tables(A), twin(A)
    o.encode(A.carrier(2))
    for name in names:
        args = (xs,) if name == "neg" else (xs, ys)
        want = [getattr(T, name)(*t) for t in zip(*args)]
        # Through the tables, whose box the drawn rows extend ...
        got = getattr(o, name)(*(o.encode(a) for a in args))
        assert (got.tolist() if name == "leq" else o.decode(got)) == want
        # ... through the scalar op, one row per operand ...
        assert [getattr(A, name)(*t) for t in zip(*args)] == want
        # ... and the batch op on the rows themselves.
        assert batch_op(A, name, args) == want
    # The coordinates are typed by _scan.width, in each factor's tables alone:
    # Python ints once two of them can sum past int64, as any drawn past half
    # of it can.
    for F, fo, entries in leaf_tables(A, o, xs + ys):
        wide = max(abs(c) for r in fo._coords.tolist() for c in r)
        assert (fo._coords.dtype == object) == (2 * wide > INT64_MAX)
        assert fo._coords.dtype == object or all(2 * c <= INT64_MAX for x in entries for c in F.row(x))


FINITE_CARRIERS = {
    **{f"algebra-{n}": A for n, A in ibp0_corpus().items() if isinstance(A, TableAlgebra)},
    **{f"hoop-{n}": H for n, H in semihoop_corpus().items()},
    **{f"lmonoid-{n}": M for n, M in lmonoid_corpus().items()},
    "rotation-godel-3": SymbolicPerfectAlgebra(godel_hoop(3)),
    "godel-2*godel-3": ProductHoop([godel_hoop(2), godel_hoop(3)]),
    "boolean-4*rot-godel-3": ProductAlgebra([boolean_algebra(2), rotated_hoop(godel_hoop(3))]),
    "planted-fault": planted_fault(),
    "planted-hoop-fault": planted_hoop_fault(),
    "broken-monoid": broken_monoid(),
}


@pytest.mark.parametrize("name", sorted(FINITE_CARRIERS))
def test_batch_ops_equal_the_scalar_ops_on_every_finite_tuple(name):
    # Every batch op against its twin's scalar op, and the twin has the
    # same ops as the carrier.
    A = FINITE_CARRIERS[name]
    T, elems = twin(A), A.carrier(0)
    assert [op for op in SCALAR_OPS if hasattr(A, op)] == [op for op in SCALAR_OPS if hasattr(T, op)]
    for op in (op for op in SCALAR_OPS if hasattr(A, op)):
        args = list(zip(*product(elems, repeat=1 if op == "neg" else 2)))
        assert batch_op(A, op, args) == list(map(getattr(T, op), *args)), op


def test_planted_fault_lists_the_first_witnesses_in_product_order():
    A = planted_fault()
    elems = A.carrier(WINDOW)
    checks = {c.axiom: c for c in scan_axioms(A, IBP0_AXIOMS, elems, {}, "m", SAMPLED_NOTE)}
    check = checks["times-associative"]
    assert check.violations > MAX_WITNESSES
    T = twin(A)
    failing = [
        inst for inst in product(elems, repeat=3)
        if T.times(T.times(inst[0], inst[1]), inst[2]) != T.times(inst[0], T.times(inst[1], inst[2]))
    ]
    assert check.violations == len(failing)
    shown = [tuple(int(w["witness"][v]) for v in "xyz") for w in check.witnesses]
    assert shown == failing[:MAX_WITNESSES]



def test_nested_product_reads_each_factor_constant_once():
    reads = []

    class CountingCone(SymbolicConeHoop):
        @property
        def top(self):
            reads.append(self)
            return super().top

    depth = 12
    H = CountingCone(rank=1)
    for _ in range(depth):
        H = ProductHoop([H])
    reads.clear()
    tables(H).top
    assert len(reads) <= depth


MASKS = arrays(bool, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=24))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(MASKS, st.sampled_from(["", "a note"]))
@example(np.zeros(0, dtype=bool), "")
@example(np.zeros(5, dtype=bool), "")
@example(np.eye(1, 9, 4, dtype=bool)[0], "a note")
@example(np.ones(MAX_WITNESSES + 3, dtype=bool), "")
@example(np.eye(4, 5, 1, dtype=bool), "a note")
def test_a_masked_verdict_is_the_verdict_of_every_witness(bad, note):
    # A passing mask takes the one-reduction path, a failing one renders its
    # first witnesses: either way the check is the one verdict builds.
    witness = lambda k: {"witness": {"k": k}}
    want = verdict("law", [witness(k) for k in np.flatnonzero(bad).tolist()], mode="m", note=note)
    assert _scan.masked_verdict("law", bad, witness, "m", note) == want
    # So is scan_laws' check of a law whose sides differ exactly where bad is
    # set, against a function side or a number; a passing law renders nothing.
    flat = bad.ravel()
    hits = np.flatnonzero(flat).tolist()
    ctx = _scan.element_columns(SimpleNamespace(token=str), list(range(flat.size)), range(flat.size))
    ctx.note = note

    def render(n) -> str:
        assert hits, "a passing law rendered a witness"
        return str(n)

    v = SimpleNamespace(V=flat.astype(np.int64), one=1, render=render)
    zeros = lambda c, v, read: np.zeros(len(c.x), dtype=np.int64)
    laws = [_scan.ValueLaw("sides", ("x",), zeros, over="all"), _scan.ValueLaw("value", ("x",), 0, over="all")]
    assert _scan.scan_laws(SimpleNamespace(all=ctx), laws, v, "m") == [
        verdict("sides", [{"witness": {"x": str(k)}, "lhs": "1", "rhs": "0"} for k in hits], mode="m", note=note),
        verdict("value", [{"witness": {"x": str(k)}, "value": "1"} for k in hits], mode="m", note=note),
    ]
