"""The scan engine against a reference loop over the scalar terms.

Each axiom's terms are written once.  The engine runs them as numpy
gathers over id tables that it fills from the carrier's scalar ops; the
reference below runs them through the scalar ops themselves, one
``itertools.product`` instance at a time.  These tests pin the two to each
other, instance by instance and check by check (pass/fail, violation count
and witnesses, full and sampled), on valid carriers, on products and on
planted table faults.
"""

from itertools import product

import numpy as np
import pytest

from ellstates._scan import scan_axioms, stride_select, tables
from ellstates.corpus import (
    boolean_algebra,
    chang_algebra,
    cone_hoop,
    godel_hoop,
    lukasiewicz_hoop,
    rotated_hoop,
    trunc_monoid,
)
from ellstates.ibp0 import IBP0_AXIOMS, SAMPLED_NOTE, FiniteMTL, ProductAlgebra
from ellstates.lmonoid import LMONOID_AXIOMS, FiniteLMonoid
from ellstates.reports import MAX_WITNESSES
from ellstates.semihoop import SEMIHOOP_AXIOMS, FiniteSemihoop, ProductHoop, SymbolicConeHoop

WINDOW = 3


def reference_scan(A, axioms, elems, caps) -> list[tuple]:
    """Per axiom: name, passed, violation count and the first witnesses."""
    out = []
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


def planted_fault() -> FiniteMTL:
    A = rotated_hoop(godel_hoop(4))
    times = [list(r) for r in A.times_table]
    times[3][6] = times[6][3] = 7  # neg(3)·pos(2) is no longer neg(3)
    return FiniteMTL(times, A.impl_table, A.meet_table, A.join_table, bot=A.bot, top=A.top)


def planted_hoop_fault() -> FiniteSemihoop:
    H = godel_hoop(4)
    times = [list(r) for r in H.times_table]
    times[1][2] = times[2][1] = 0  # 1·2 is no longer min(1, 2)
    return FiniteSemihoop(times, H.impl_table, H.meet_table, top=H.top)


def broken_monoid() -> FiniteLMonoid:
    add = [[(x * y + 1) % 6 for y in range(6)] for x in range(6)]
    meet = [[min(x, y) for y in range(6)] for x in range(6)]
    join = [[max(x, y) for y in range(6)] for x in range(6)]
    return FiniteLMonoid(add, meet, join, unit=0)


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
CASES.update({
    f"semihoop-{name}": (build, SEMIHOOP_AXIOMS, lambda H: H.carrier(WINDOW))
    for name, build in {
        "godel-4": lambda: godel_hoop(4),
        "lukasiewicz-5": lambda: lukasiewicz_hoop(5),
        "cone-2": lambda: cone_hoop(2),
        "cone-1*godel-3": lambda: ProductHoop([cone_hoop(1), godel_hoop(3)]),
        "planted-fault": planted_hoop_fault,
    }.items()
})
CASES.update({
    f"lmonoid-{name}": (build, LMONOID_AXIOMS, lambda M: list(M.elements()))
    for name, build in {"trunc-4": lambda: trunc_monoid(4), "broken": broken_monoid}.items()
})


@pytest.mark.parametrize("axiom", IBP0_AXIOMS, ids=lambda ax: ax.name)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_batch_and_scalar_terms_agree_instance_by_instance(name, axiom):
    A = ALGEBRAS[name]()
    ops = tables(A)
    instances = list(product(A.carrier(WINDOW), repeat=axiom.arity))
    columns = [ops.encode([inst[k] for inst in instances]) for k in range(axiom.arity)]
    batch_sides = axiom.terms(ops, *columns)
    scalar_sides = list(zip(*(axiom.terms(A, *inst) for inst in instances)))
    for batch, scalar in zip(batch_sides, scalar_sides):
        if isinstance(scalar[0], bool):
            assert list(np.broadcast_to(batch, len(instances))) == list(scalar)
        else:
            assert np.all(np.broadcast_to(batch == ops.encode(list(scalar)), len(instances)))


@pytest.mark.parametrize("caps", [{}, {2: 7, 3: 5}], ids=["full", "sampled"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_scan_equals_scalar_scan(name, caps):
    build, axioms, window = CASES[name]
    A = build()
    elems = window(A)
    checks = scan_axioms(A, axioms, elems, caps, "m", SAMPLED_NOTE)
    got = [(c.axiom, c.passed, c.violations, c.witnesses) for c in checks]
    assert got == reference_scan(A, axioms, elems, caps)


@pytest.mark.parametrize("name", ["planted-fault", "semihoop-planted-fault", "lmonoid-broken"])
def test_planted_faults_fail_a_required_check(name):
    # Keeps the scan comparisons above from passing on clean inputs only.
    build, axioms, window = CASES[name]
    A = build()
    assert any(c.required and not c.passed for c in scan_axioms(A, axioms, window(A), {}, "m", ""))


def test_planted_fault_lists_the_first_witnesses_in_product_order():
    A = planted_fault()
    elems = A.carrier(WINDOW)
    checks = {c.axiom: c for c in scan_axioms(A, IBP0_AXIOMS, elems, {}, "m", SAMPLED_NOTE)}
    check = checks["times-associative"]
    assert check.violations > MAX_WITNESSES
    failing = [
        inst for inst in product(elems, repeat=3)
        if A.times(A.times(inst[0], inst[1]), inst[2]) != A.times(inst[0], A.times(inst[1], inst[2]))
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
