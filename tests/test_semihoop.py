"""Semihoop validation, states, and the envelope-state correspondence."""

from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellstates._scan import exact_table, stride_select
from ellstates.corpus import (
    chang_algebra,
    cone_hoop,
    godel_hoop,
    hyperstate_product_corpus,
    lukasiewicz_hoop,
    semihoop_corpus,
)
from ellstates.ibp0 import boolean_skeleton, radical
from ellstates.reports import InternalConsistencyError, MalformedInputError, PreconditionError
from ellstates.semihoop import (
    ConeState,
    FiniteSemihoop,
    ProductHoop,
    ProductState,
    SymbolicConeHoop,
    TableState,
    enumerate_states_finite,
    kgroup_state_to_state,
    pseudo_join,
    sign_convention_diagnostic,
    state_properties,
    state_to_kgroup_state,
    state_weights,
    symbolic_rank,
    validate_semihoop,
    validate_state,
    weighted_state,
    zero_state,
)
from ellstates.states import ProbabilityMeasure, join_hyperstate
from reference import planted_hoop_fault, witness_classes


class TestValidateSemihoop:
    def test_godel_chain_classification(self):
        report = validate_semihoop(godel_hoop(3))
        assert report.ok
        assert report.flags == {
            "prelinear": True,
            "divisible": True,
            "basic": True,
            "cancellative": False,
        }
        failed = report.check("cancellativity")
        assert not failed.passed and not failed.required
        assert failed.witnesses  # e.g. x = bottom
        assert all(c.mode == "exhaustive" for c in report.checks)

    def test_lukasiewicz_chain_classification(self):
        report = validate_semihoop(lukasiewicz_hoop(4))
        assert report.ok
        assert report.flags["basic"] and not report.flags["cancellative"]

    def test_cone_hoop_window_verified(self):
        report = validate_semihoop(cone_hoop(1), window=8)
        assert report.ok
        assert report.flags == {
            "prelinear": True,
            "divisible": True,
            "basic": True,
            "cancellative": True,
        }
        assert all(c.mode == "window-verified (N=8)" for c in report.checks)

    def test_rank2_cone_samples_the_window(self):
        report = validate_semihoop(cone_hoop(2), window=8)
        assert report.ok and report.flags["cancellative"]
        assert "sampled" in report.check("times-associative").note

    def test_planted_residuum_mismatch(self):
        H = godel_hoop(3)
        impl = H.impl_table.tolist()
        impl[0][2] = 1  # 0 <= 2 but 0 -> 2 is no longer the top
        broken = FiniteSemihoop(H.times_table.tolist(), impl, H.meet_table.tolist(), top=2)
        report = validate_semihoop(broken)
        assert not report.ok
        check = report.check("order-reflection")
        assert not check.passed
        assert {"witness": {"x": "0", "y": "2"}, "lhs": False, "rhs": True} in check.witnesses

    def test_corpus_is_valid_and_prelinear(self):
        for name, H in semihoop_corpus().items():
            report = validate_semihoop(H)
            assert report.ok, name
            assert report.flags["prelinear"], name

    def test_negative_rationals_fragment(self):
        report = validate_semihoop(cone_hoop(1), window=8)
        assert report.ok
        assert report.flags["cancellative"]


class TestPseudoJoin:
    def test_idempotent(self):
        H = godel_hoop(4)
        for x in H.elements():
            assert pseudo_join(H, x, x) == x

    def test_godel_pseudo_join_is_max(self):
        H = godel_hoop(3)
        for x, y in product(H.elements(), repeat=2):
            assert pseudo_join(H, x, y) == max(x, y)
        assert validate_semihoop(H).check("pseudo-join-associative").passed

    def test_cone_pseudo_join_is_componentwise_min(self):
        H = cone_hoop(2)
        for x, y in product(H.carrier(4), repeat=2):
            assert pseudo_join(H, x, y) == tuple(min(a, b) for a, b in zip(x, y))
        assert validate_semihoop(H).check("pseudo-join-associative").passed

    @pytest.mark.parametrize("name", [*sorted(semihoop_corpus()), "cone-1", "cone-2", "cone-3", "godel-2*cone-1"])
    def test_join_is_the_pseudo_join(self, name):
        # Every semihoop is its own ell-monoid reduct: its join is the pseudo-join.
        hoops = {**semihoop_corpus(), **{f"cone-{k}": cone_hoop(k) for k in (1, 2, 3)},
                 "godel-2*cone-1": ProductHoop([godel_hoop(2), cone_hoop(1)])}
        H = hoops[name]
        for x, y in product(H.carrier(4), repeat=2):
            assert H.join(x, y) == pseudo_join(H, x, y), (x, y)


class TestValidateState:
    def test_zero_state_is_valid_everywhere(self):
        for H in (godel_hoop(3), lukasiewicz_hoop(5), cone_hoop(2)):
            assert validate_state(H, zero_state(H)).ok

    def test_cone_weights_give_valid_state(self):
        H = cone_hoop(2)
        w = ConeState([1, 2])
        report = validate_state(H, w, window=6)
        assert report.ok
        assert w.value((3, 1)) == Fraction(-5)

    def test_positive_value_fails_codomain(self):
        H = godel_hoop(2)
        report = validate_state(H, TableState({0: Fraction(1), 1: Fraction(0)}))
        assert not report.check("codomain-nonpositive").passed

    def test_partial_state_is_structural_error(self):
        H = godel_hoop(3)
        with pytest.raises(MalformedInputError, match="no value"):
            validate_state(H, TableState({0: 0, 1: 0}))

    def test_negative_weight_component_fails_on_the_generator(self):
        H = cone_hoop(2)
        report = validate_state(H, ConeState([-1, 2]), window=4)
        assert not report.ok
        assert {"witness": {"x": "(1,0)"}, "value": "1"} in report.check("codomain-nonpositive").witnesses
        v3 = report.check("v3-monotone")
        assert not v3.passed
        assert any(w["witness"]["x"] == "(1,0)" for w in v3.witnesses)

    def test_product_state_sums_factors(self):
        P = ProductHoop([godel_hoop(2), cone_hoop(1)])
        w = ProductState([TableState({0: 0, 1: 0}), ConeState([Fraction(1, 2)])])
        assert validate_state(P, w, window=5).ok
        assert w.value((0, (3,))) == Fraction(-3, 2)


class TestStateProperties:
    def test_zero_state_on_godel_chain(self):
        H = godel_hoop(3)
        report = state_properties(H, zero_state(H))
        for axiom in ("valuation", "bosbach", "monotone-derived"):
            assert report.check(axiom).passed

    def test_cone_state_identities_exact(self):
        H = cone_hoop(2)
        report = state_properties(H, ConeState([1, 2]), window=6)
        assert report.ok

    def test_explicit_pair_sweep(self):
        H = cone_hoop(3)
        w = ConeState([Fraction(1, 3), 0, Fraction(7, 2)])
        pairs = [((1, 2, 3), (4, 0, 1)), ((9, 9, 9), (0, 1, 0))]
        assert {x for pair in pairs for x in pair} <= set(H.carrier(9))
        report = state_properties(H, w, window=9)
        assert report.ok
        assert [c.axiom for c in report.checks] == ["valuation", "bosbach", "monotone-derived"]


class TestEnumerateStates:
    def test_every_corpus_semihoop_has_only_the_zero_state(self):
        hoops = {**semihoop_corpus(), "godel-2*godel-3": ProductHoop([godel_hoop(2), godel_hoop(3)])}
        for name, H in hoops.items():
            states = enumerate_states_finite(H)
            assert len(states) == 1, name
            assert all(states[0].value(x) == 0 for x in H.carrier(8)), name

    def test_rejects_infinite_carrier(self):
        with pytest.raises(MalformedInputError):
            enumerate_states_finite(cone_hoop(1))


class TestEnvelopeCorrespondence:
    @pytest.mark.parametrize("H, w", [(godel_hoop(3), TableState({0: 0, 1: 0, 2: 0})), (cone_hoop(2), ConeState([1, 2]))],
                             ids=["godel-3", "cone-2"])
    def test_envelope_is_built_on_the_hoop_itself(self, H, w):
        assert state_to_kgroup_state(H, w).K.base is H

    def test_zero_state_induces_zero_sigma(self):
        H = godel_hoop(3)
        sigma = state_to_kgroup_state(H, zero_state(H))
        for members in witness_classes(H):
            rep = members[0]
            assert sigma.value(sigma.h(rep[0])) == 0

    def test_a_broken_hoop_has_no_envelope_state(self):
        H = planted_hoop_fault()
        with pytest.raises(PreconditionError, match="not a lattice-ordered monoid"):
            state_to_kgroup_state(H, zero_state(H))

    def test_cone_sigma_is_linear_in_canonical_form(self):
        H = cone_hoop(1)
        c = Fraction(3, 2)
        sigma = state_to_kgroup_state(H, ConeState([c]), window=8)
        for n in range(-8, 9):
            e = sigma.K.element((n,))
            assert sigma.value(e) == -c * n
        for m in range(9):
            assert sigma.value(sigma.h((m,))) == -c * m

    def test_additivity_on_class_pairs(self):
        H = cone_hoop(2)
        sigma = state_to_kgroup_state(H, ConeState([2, Fraction(1, 3)]), window=6)
        K = sigma.K
        forms = [(-3, 5), (0, 0), (4, -1), (7, 2), (-2, -2)]
        for c1, c2 in product(forms, repeat=2):
            e1, e2 = K.element(c1), K.element(c2)
            assert sigma.value(K.add(e1, e2)) == sigma.value(e1) + sigma.value(e2)

    def test_positivity_for_the_envelope_order(self):
        H = cone_hoop(2)
        sigma = state_to_kgroup_state(H, ConeState([2, Fraction(1, 3)]), window=6)
        K = sigma.K
        zero = K.zero()
        for c in product(range(-3, 4), repeat=2):
            e = K.element(c)
            if K.leq(zero, e):
                assert sigma.value(e) >= 0

    def test_invalid_state_breaks_well_definedness(self):
        H = godel_hoop(3)
        bogus = TableState({0: Fraction(-1), 1: Fraction(0), 2: Fraction(0)})
        with pytest.raises(InternalConsistencyError):
            state_to_kgroup_state(H, bogus)

    def test_roundtrip_recovers_weights_exactly(self):
        H = cone_hoop(2)
        w = ConeState([2, 3])
        sigma = state_to_kgroup_state(H, w, window=6)
        assert state_weights(sigma.state) == [Fraction(2), Fraction(3)]
        back, report = kgroup_state_to_state(H, sigma, window=6)
        assert report.ok
        assert back == w

    def test_weight_tuple_form(self):
        H = cone_hoop(3)
        w, report = kgroup_state_to_state(H, [1, 0, Fraction(1, 2)], window=5)
        assert report.ok
        assert w.value((1, 0, 0)) == Fraction(-1)
        assert w.value((0, 5, 0)) == 0
        assert w.value((1, 1, 1)) == Fraction(-3, 2)

    def test_zero_weights_give_zero_state(self):
        H = cone_hoop(2)
        w, report = kgroup_state_to_state(H, (0, 0))
        assert report.ok
        assert all(w.value(m) == 0 for m in H.carrier(4))

    def test_non_positive_sigma_fails_v3_with_witness(self):
        H = cone_hoop(2)
        w, report = kgroup_state_to_state(H, (-1, 2), window=4)
        assert not report.ok
        assert not report.check("v3-monotone").passed

    def test_finite_roundtrip_through_sigma(self):
        H = godel_hoop(3)
        sigma = state_to_kgroup_state(H, zero_state(H))
        back, report = kgroup_state_to_state(H, sigma)
        assert report.ok
        assert all(v == 0 for v in back.values.values())

    def test_sign_convention_diagnostic(self):
        H = cone_hoop(1)
        diag = sign_convention_diagnostic(H, ConeState([1]), (3,))
        assert diag == {"element": "(3)", "w": "-3", "adopted": "-3", "mirrored": "3"}


def reference_rank(H) -> int:
    """The weight layout walked through the hoop's type tree: one weight per
    cone axis, in factor order, and none for a finite factor."""
    if isinstance(H, SymbolicConeHoop):
        return H.rank
    if isinstance(H, ProductHoop):
        return sum(reference_rank(f) for f in H.factors)
    return 0


@pytest.mark.parametrize(
    "H",
    [*semihoop_corpus().values(), cone_hoop(1), cone_hoop(2), cone_hoop(3),
     ProductHoop([godel_hoop(2), ProductHoop([cone_hoop(1), cone_hoop(2)])])],
    ids=[*semihoop_corpus(), "cone-1", "cone-2", "cone-3", "godel-2*(cone-1*cone-2)"],
)
def test_symbolic_rank_counts_the_weight_generators(H):
    assert symbolic_rank(H) == reference_rank(H)


class TestNegativeRealsExample:
    """The codomain structure is itself a semihoop and inclusions are states."""

    def test_identity_is_a_state(self):
        H = cone_hoop(1)
        assert validate_state(H, ConeState([Fraction(1, 3)]), window=9).ok

    def test_scaled_inclusion_is_a_state(self):
        H = cone_hoop(1)
        assert validate_state(H, ConeState([1]), window=8).ok


@settings(deadline=None, max_examples=40)
@given(
    lam=st.lists(
        st.fractions(min_value=0, max_value=5, max_denominator=12),
        min_size=1,
        max_size=3,
    )
)
def test_nonnegative_weights_always_validate(lam):
    H = cone_hoop(len(lam))
    w = ConeState(lam)
    assert validate_state(H, w, window=4).ok
    sigma = state_to_kgroup_state(H, w, window=4)
    back, report = kgroup_state_to_state(H, sigma, window=4)
    assert report.ok and back == w


# ---------------------------------------------------------------------------
# Reading a state over a list of elements: w.table against w.value


def assert_table_reads_the_values(w, elems, terms=2):
    """w.table(elems, terms) is exact_table of w.value at each element, as
    one column: the same numerators, denominator and dtype."""
    col, den = w.table(elems, terms)
    want, want_den = exact_table([(w.value(x),) for x in elems], terms)
    assert (col.shape, col.dtype, den) == ((len(elems),), want.dtype, want_den)
    assert col.tolist() == want.reshape(-1).tolist()
    return col


WEIGHTS = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-(2**65), 2**65).map(Fraction),
    st.integers(1, 2**65).map(lambda d: Fraction(1, d)),
)
COORDS = st.one_of(st.integers(0, 8), st.integers(0, 2**66))


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.lists(WEIGHTS, min_size=r, max_size=r), st.lists(st.tuples(*[COORDS] * r), max_size=6))),
    st.sampled_from([2, 4]))
@example(([Fraction(0)], [(2**63,)]), 2)  # zero weights on a coordinate past int64
def test_cone_tables_read_the_values(drawn, terms):
    lam, elems = drawn
    w = ConeState(lam)
    assert_table_reads_the_values(w, elems, terms)
    assert_table_reads_the_values(w, cone_hoop(len(lam)).carrier(3), terms)


def test_cone_weights_past_int64_take_the_object_path():
    w = ConeState([10**30, Fraction(1, 3)])
    assert assert_table_reads_the_values(w, cone_hoop(2).carrier(8)).dtype == object
    assert assert_table_reads_the_values(ConeState([1, Fraction(1, 3)]), cone_hoop(2).carrier(8)).dtype == np.int64


@cache
def product_radical():
    return radical(hyperstate_product_corpus()["chang-1*chang-2"], 8).hoop


# The two examples reach 2^62: int64 for two terms, Python ints for four.
@settings(deadline=None, max_examples=20)
@given(st.lists(WEIGHTS, min_size=3, max_size=3), st.sampled_from([2, 4]))
@example([2**59, 0, 0], 2)
@example([2**59, 0, 0], 4)
def test_product_tables_read_the_values(lam, terms):
    H = product_radical()
    assert symbolic_rank(H) == 3
    w = weighted_state(H, lam)
    assert isinstance(w, ProductState)
    assert_table_reads_the_values(w, stride_select(H.carrier(8), 64), terms)


@settings(deadline=None, max_examples=40)
@given(st.lists(WEIGHTS, min_size=6, max_size=6), st.sampled_from([2, 4]))
def test_table_state_tables_read_the_values(values, terms):
    H = lukasiewicz_hoop(5)
    w = TableState(dict(enumerate(values)))
    assert_table_reads_the_values(w, H.carrier(8), terms)


def test_table_reads_refuse_what_value_refuses():
    for w, elems, message in (
        (ConeState([1, 2]), [(1,)], "weight tuple has rank 2, element has rank 1"),
        (ConeState([1, 2]), [(1, 2), (3,)], "weight tuple has rank 2, element has rank 1"),
        (ConeState([1]), [(1, 2), (3, 4)], "weight tuple has rank 1, element has rank 2"),
        (ProductState([ConeState([1]), zero_state(lukasiewicz_hoop(3))]), [((1,), 0, 1)], "product state has 2 parts"),
        (TableState({0: 0, 1: -1}), [0, 1, 2], "state has no value for element 2"),
    ):
        with pytest.raises(MalformedInputError, match=message):
            w.table(elems)


@pytest.mark.parametrize("rank", [1, 2])
def test_a_product_state_refuses_a_cone_radical_on_every_read(rank):
    # A cone's elements are tuples of ints, not of factor elements: a rank-1
    # cone's have one entry for two parts, and a rank-2 cone's two ints that
    # no cone part reads.  Each read path refuses them, none crashes.
    A = chang_algebra(rank)
    H, w = radical(A).hoop, ProductState([ConeState([1]), ConeState([2])])
    p = ProbabilityMeasure(boolean_skeleton(A), [1] + [0] * (len(boolean_skeleton(A).atoms) - 1))
    message = "product state has 2 parts, element has 1" if rank == 1 else "reads tuples, not 0"
    for read in (lambda: join_hyperstate(A, p, w), lambda: validate_state(H, w), lambda: state_to_kgroup_state(H, w),
                 lambda: w.value(H.carrier(1)[0]), lambda: w.table(H.carrier(1))):
        with pytest.raises(MalformedInputError, match=message):
            read()


def test_a_cone_state_refuses_tuples_of_other_elements():
    # A 2-tuple ((a,), b) of a cone and a Gödel chain has a cone state's rank
    # 2, but its entries are not integers: value and validate_state refuse it.
    H = ProductHoop([cone_hoop(1), godel_hoop(2)])
    w = ConeState([1, 2])
    for read in (lambda: w.value(((1,), 1)), lambda: validate_state(H, w, 2), lambda: w.table([(1, 2), ((1,), 1)])):
        with pytest.raises(MalformedInputError, match="reads tuples of integers, not"):
            read()
    assert w.value((1, 2)) == -5 and w.table([(1, 2), (0, 3)])[0].tolist() == [-5, -6]


def test_empty_tables_are_integer_columns():
    for w in (ConeState([1, Fraction(1, 3)]), ConeState([10**30]), TableState({}),
              ProductState([ConeState([1]), zero_state(lukasiewicz_hoop(3))])):
        col, den = w.table([])
        assert col.shape == (0,) and col.dtype == np.int64 and den >= 1
