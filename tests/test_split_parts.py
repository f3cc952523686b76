"""The split identity's algebra-only parts, kept once per algebra.

``FormulaHyperstate`` reads each element's skeleton part and the two hoop
elements of its radical part from one map per (A, window), and
``ProbabilityMeasure.value`` sums weights at atom indices kept once per
skeleton.  The reference below is the plain evaluation: a fresh
``decompose_element`` and an ``A.leq`` test per atom on every call.  The two
must give the same (std, inf) at every element read, for the pairs of the
generated family (one large family strided), with every pair of a family
sharing one algebra object.
A failure must never be stored: a decomposition that raises raises on every
read, and ``state_to_kgroup_state`` raises on a bad state however many good
ones it has seen on the same hoop.
"""

from fractions import Fraction as F

import pytest

from ellstates import ibp0, states
from ellstates._scan import stride_select
from ellstates.corpus import (
    chang_algebra,
    cone_hoop,
    hyperstate_family,
    hyperstate_product_corpus,
    ibp0_corpus,
    lukasiewicz_hoop,
    measure_family,
)
from ellstates.hypernum import _rat
from ellstates.ibp0 import boolean_skeleton, radical
from ellstates.reports import InternalConsistencyError, MalformedInputError
from ellstates.semihoop import ConeState, TableState, state_to_kgroup_state, zero_state
from ellstates.states import FormulaHyperstate

WINDOW = 8
# This module's own algebra objects, so that the first FormulaHyperstate on
# each finds its split map empty.
SUBJECTS = {**ibp0_corpus(), **hyperstate_product_corpus()}
# chang-1*chang-2 has 832 pairs over 872 elements; at about 0.14 ms per
# reference value the whole family would take two minutes, so its pairs are
# strided.  Every other family is read in full.
PAIR_CAP = {"chang-1*chang-2": 8}


def ref_raw_value(A, p, w, window, a):
    """The split identity evaluated from scratch."""
    d = ibp0.decompose_element(A, a)
    to_hoop = radical(A, window).to_hoop
    lo, hi = to_hoop(A.join(A.neg(d.b), d.c)), to_hoop(A.join(d.b, d.c))
    std = sum((weight for atom, weight in zip(p.skeleton.atoms, p.weights) if A.leq(atom, d.b)), F(0))
    return std, _rat(w.value(lo)) - _rat(w.value(hi))


@pytest.mark.parametrize("name", list(SUBJECTS))
def test_formula_agrees_with_a_fresh_evaluation(name, monkeypatch):
    A = SUBJECTS[name]
    rad = radical(A, WINDOW)
    window = A.carrier(WINDOW)
    # Radical elements reach past a product's capped window.
    elements = list(dict.fromkeys(window + [rad.from_hoop(h) for h in rad.hoop.carrier(WINDOW)]))
    if name == "chang-1*chang-2":
        assert len(elements) > len(window)

    calls = []

    def counted(A, a):
        calls.append(a)
        return ibp0.decompose_element(A, a)

    monkeypatch.setattr(states, "decompose_element", counted)
    family = hyperstate_family(A, WINDOW)
    pairs = stride_select(family, PAIR_CAP.get(name, len(family)))
    for p, w in pairs:
        s = FormulaHyperstate(A, p, w, WINDOW)
        for a in elements:
            assert s.raw_value(a) == ref_raw_value(A, p, w, WINDOW, a), A.token(a)
    # Every pair after the first read the decompositions the first stored.
    assert sorted(map(A.token, calls)) == sorted(map(A.token, elements))


def test_measure_values_agree_on_the_skeleton_and_refuse_the_rest():
    # A skeleton element sums its stored atoms, as the order would; any other
    # element has no value.
    A = SUBJECTS["boolean-4*chang-1"]
    sk = boolean_skeleton(A, WINDOW)
    for p in measure_family(sk):
        for a in A.carrier(WINDOW):
            if a in sk.below:
                assert p.value(a) == sum((wt for atom, wt in zip(sk.atoms, p.weights) if A.leq(atom, a)), F(0))
            else:
                with pytest.raises(MalformedInputError, match="not a skeleton element"):
                    p.value(a)


def test_a_failed_decomposition_is_never_stored(monkeypatch):
    A = chang_algebra(1)
    carrier = A.carrier(WINDOW)
    victim = carrier[len(carrier) // 2]

    def planted(B, a):
        if a == victim:
            raise InternalConsistencyError(f"planted failure at {B.token(a)}")
        return ibp0.decompose_element(B, a)

    monkeypatch.setattr(states, "decompose_element", planted)
    p = measure_family(boolean_skeleton(A, WINDOW))[0]
    s = FormulaHyperstate(A, p, ConeState([1]), WINDOW)
    others = [a for a in carrier if a != victim]
    for a in others:
        s.raw_value(a)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="planted failure"):
            s.raw_value(victim)
    t = FormulaHyperstate(A, p, ConeState([2]), WINDOW)
    with pytest.raises(InternalConsistencyError, match="planted failure"):
        t.raw_value(victim)
    assert t.raw_value(others[0]) == ref_raw_value(A, p, ConeState([2]), WINDOW, others[0])
    # Once the decomposition succeeds, the victim is served like any element.
    monkeypatch.setattr(states, "decompose_element", ibp0.decompose_element)
    assert t.raw_value(victim) == ref_raw_value(A, p, ConeState([2]), WINDOW, victim)


def sigma_raise(H, w, window):
    with pytest.raises(InternalConsistencyError) as exc:
        state_to_kgroup_state(H, w, window)
    return str(exc.value)


@pytest.mark.parametrize("case", ["cone", "finite"])
def test_the_sigma_frame_keeps_every_raise(case):
    if case == "cone":
        H, window, good, bad = cone_hoop(2), 6, ConeState([1, F(2, 3)]), ConeState([1, -2])
    else:
        H, window = lukasiewicz_hoop(5), WINDOW
        good = zero_state(H)
        bad = TableState({x: F(1, 7) if x == 1 else F(0) for x in H.carrier(window)})
    before = sigma_raise(H, bad, window)
    sigma = state_to_kgroup_state(H, good, window)
    assert sigma.state is good
    assert sigma_raise(H, bad, window) == before
    assert state_to_kgroup_state(H, good, window).K is sigma.K
