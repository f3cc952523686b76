"""The scan engine: batch and scalar evaluation of one axiom declaration agree.

Each axiom's terms are written once and run either through a carrier's
numpy ``b_*`` ops or through its scalar ops.  These tests pin the two
paths to each other instance by instance, on valid algebras and on a
planted table fault, so that neither can drift.
"""

from itertools import product

import numpy as np
import pytest

from ellstates._scan import _BatchOps, scan_axioms
from ellstates.corpus import boolean_algebra, chang_algebra, godel_hoop, rotated_hoop
from ellstates.ibp0 import IBP0_AXIOMS, SAMPLED_NOTE, FiniteMTL, ProductAlgebra
from ellstates.reports import MAX_WITNESSES

WINDOW = 3


class ScalarOnly:
    """The same carrier with its batch ops hidden, so the engine goes scalar."""

    def __init__(self, A):
        self._A = A

    def __getattr__(self, name):
        if name.startswith("b_"):
            raise AttributeError(name)
        return getattr(self._A, name)


def planted_fault() -> FiniteMTL:
    A = rotated_hoop(godel_hoop(4))
    times = [list(r) for r in A.times_table]
    times[3][6] = times[6][3] = 7  # neg(3)·pos(2) is no longer neg(3)
    return FiniteMTL(times, A.impl_table, A.meet_table, A.join_table, bot=A.bot, top=A.top)


ALGEBRAS = {
    "boolean-4": lambda: boolean_algebra(2),
    "rot-godel-4": lambda: rotated_hoop(godel_hoop(4)),
    "chang-1": lambda: chang_algebra(1),
    "chang-2": lambda: chang_algebra(2),
    "boolean-4*chang-1": lambda: ProductAlgebra([boolean_algebra(2), chang_algebra(1)]),
    "planted-fault": planted_fault,
}


@pytest.fixture(scope="module", params=sorted(ALGEBRAS))
def algebra(request):
    return ALGEBRAS[request.param]()


@pytest.mark.parametrize("axiom", IBP0_AXIOMS, ids=lambda ax: ax.name)
def test_batch_and_scalar_terms_agree_instance_by_instance(algebra, axiom):
    A = algebra
    instances = list(product(A.carrier(WINDOW), repeat=axiom.arity))
    columns = [A.b_encode([inst[k] for inst in instances]) for k in range(axiom.arity)]
    batch_sides = axiom.terms(_BatchOps(A, len(instances)), *columns)
    scalar_sides = list(zip(*(axiom.terms(A, *inst) for inst in instances)))
    for batch, scalar in zip(batch_sides, scalar_sides):
        if isinstance(scalar[0], bool):
            assert list(np.broadcast_to(batch, len(instances))) == list(scalar)
        else:
            assert np.all(A.b_eq(batch, A.b_encode(list(scalar))))


@pytest.mark.parametrize("caps", [{}, {2: 7, 3: 5}], ids=["full", "sampled"])
def test_batch_scan_equals_scalar_scan(algebra, caps):
    elems = algebra.carrier(WINDOW)
    batch = scan_axioms(algebra, IBP0_AXIOMS, elems, caps, "m", SAMPLED_NOTE)
    scalar = scan_axioms(ScalarOnly(algebra), IBP0_AXIOMS, elems, caps, "m", SAMPLED_NOTE)
    assert [c.to_json() for c in batch] == [c.to_json() for c in scalar]


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
