"""Semihoop validation, states, and the envelope-state correspondence."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstates.corpus import (
    cone_hoop,
    godel_hoop,
    lukasiewicz_hoop,
    semihoop_corpus,
)
from ellstates.lmonoid import k_add, k_leq
from ellstates.reports import InternalConsistencyError, MalformedInputError
from ellstates.semihoop import (
    ConeState,
    FiniteSemihoop,
    ProductHoop,
    ProductState,
    TableState,
    enumerate_states_finite,
    kgroup_state_to_state,
    pseudo_join,
    sign_convention_diagnostic,
    state_properties,
    state_to_kgroup_state,
    validate_semihoop,
    validate_state,
    zero_state,
)


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
        impl = [list(r) for r in H.impl_table]
        impl[0][2] = 1  # 0 <= 2 but 0 -> 2 is no longer the top
        broken = FiniteSemihoop([list(r) for r in H.times_table], impl, [list(r) for r in H.meet_table], top=2)
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
        report = state_properties(H, w, pairs=pairs, flags={"prelinear": True, "basic": True, "divisible": True})
        assert report.ok


class TestEnumerateStates:
    def test_every_corpus_semihoop_has_only_the_zero_state(self):
        for name, H in semihoop_corpus().items():
            states = enumerate_states_finite(H)
            assert len(states) == 1, name
            assert all(v == 0 for v in states[0].values.values()), name

    def test_rejects_infinite_carrier(self):
        with pytest.raises(MalformedInputError):
            enumerate_states_finite(cone_hoop(1))


class TestEnvelopeCorrespondence:
    def test_zero_state_induces_zero_sigma(self):
        H = godel_hoop(3)
        sigma = state_to_kgroup_state(H, zero_state(H))
        for members in sigma.K.class_members:
            rep = members[0]
            assert sigma.value(sigma.h(rep[0])) == 0

    def test_cone_sigma_is_linear_in_canonical_form(self):
        H = cone_hoop(1)
        c = Fraction(3, 2)
        sigma = state_to_kgroup_state(H, ConeState([c]), window=8)
        for n in range(-8, 9):
            e = sigma.K.from_canonical((n,))
            assert sigma.value(e) == -c * n
        for m in range(9):
            assert sigma.value(sigma.h((m,))) == -c * m

    def test_additivity_on_class_pairs(self):
        H = cone_hoop(2)
        sigma = state_to_kgroup_state(H, ConeState([2, Fraction(1, 3)]), window=6)
        K = sigma.K
        forms = [(-3, 5), (0, 0), (4, -1), (7, 2), (-2, -2)]
        for c1, c2 in product(forms, repeat=2):
            e1, e2 = K.from_canonical(c1), K.from_canonical(c2)
            assert sigma.value(k_add(K, e1, e2)) == sigma.value(e1) + sigma.value(e2)

    def test_positivity_for_the_envelope_order(self):
        H = cone_hoop(2)
        sigma = state_to_kgroup_state(H, ConeState([2, Fraction(1, 3)]), window=6)
        K = sigma.K
        zero = K.zero()
        for c in product(range(-3, 4), repeat=2):
            e = K.from_canonical(c)
            if k_leq(K, zero, e):
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
        assert sigma.weights == (Fraction(2), Fraction(3))
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
