"""Probability measures, hyperstates, and the split/join correspondence."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstates import states
from ellstates.corpus import (
    boolean_algebra,
    chang_algebra,
    godel_hoop,
    hyperstate_family,
    hyperstate_product_corpus,
    ibp0_corpus,
    lukasiewicz_mtl,
    measure_family,
    rotated_hoop,
    state_family,
)
from ellstates.hypernum import dual
from ellstates._scan import tables
from ellstates.ibp0 import ProductAlgebra, boolean_skeleton, decompose, radical, require_ibp0, validate_ibp0
from ellstates.lmonoid import KElement
from ellstates.reports import (
    InternalConsistencyError,
    MalformedInputError,
    PreconditionError,
    ValidationReport,
)
from ellstates.semihoop import ConeState, ProductState, SymbolicConeHoop, TableState
from ellstates.states import (
    FormulaHyperstate,
    ProbabilityMeasure,
    TableHyperstate,
    cancellative_form,
    hyperstate_properties,
    join_hyperstate,
    split_hyperstate,
    validate_hyperstate,
    validate_probability,
)
from reference import relabelled


# Shared instances so the memoized validation and structure passes pay off
# across the randomized examples.
_CHANG = {1: chang_algebra(1), 2: chang_algebra(2)}


def skeleton_table(A, p):
    """The table hyperstate a ↦ p(skeleton part of a); the only kind of
    hyperstate a finite algebra admits."""
    o, elems = tables(A), A.carrier(8)
    b, _ = decompose(A, elems, o)
    return TableHyperstate({a: dual(p.value(x)) for a, x in zip(elems, o.decode(b))})


class TestProbabilityMeasure:
    def test_uniform_on_two_atoms(self):
        B = boolean_algebra(2)
        sk = boolean_skeleton(B)
        p = ProbabilityMeasure(sk, [F(1, 2), F(1, 2)])
        assert validate_probability(sk, p).ok
        assert p.value(sk.atoms[0]) == F(1, 2)

    def test_unbalanced_weights(self):
        B = boolean_algebra(2)
        sk = boolean_skeleton(B)
        p = ProbabilityMeasure(sk, [F(1, 3), F(2, 3)])
        assert validate_probability(sk, p).ok
        assert p.value(3) == 1
        assert p.value(1) == F(1, 3)
        assert p.value(0) == 0

    def test_deficient_mass_is_witnessed(self):
        sk = boolean_skeleton(boolean_algebra(2))
        p = ProbabilityMeasure(sk, [F(1, 2), F(1, 3)])
        report = validate_probability(sk, p)
        assert not report.ok
        norm = report.check("normalization")
        assert norm.witnesses == [{"witness": {"x": "3"}, "lhs": "5/6", "rhs": "1"}]

    def test_negative_weight_fails_range(self):
        sk = boolean_skeleton(boolean_algebra(2))
        p = ProbabilityMeasure(sk, [F(3, 2), F(-1, 2)])
        report = validate_probability(sk, p)
        assert not report.check("range").passed

    def test_negative_weight_is_counted_once(self):
        # An atom's weight is p of the atom: one bad value, one violation,
        # not an atom witness beside the element's.
        sk = boolean_skeleton(boolean_algebra(2))
        check = validate_probability(sk, ProbabilityMeasure(sk, [F(-1, 3), F(4, 3)])).check("range")
        assert check.violations == 2
        assert [w["witness"] for w in check.witnesses] == [{"x": "1"}, {"x": "2"}]

    def test_mapping_form_defaults_missing_atoms_to_zero(self):
        sk = boolean_skeleton(boolean_algebra(3))
        p = ProbabilityMeasure(sk, {2: 1})
        assert p.weights == (0, 0, 1)
        assert validate_probability(sk, p).ok

    def test_bad_shapes_raise(self):
        sk = boolean_skeleton(boolean_algebra(2))
        with pytest.raises(MalformedInputError):
            ProbabilityMeasure(sk, [F(1)])
        with pytest.raises(MalformedInputError):
            ProbabilityMeasure(sk, {5: 1})

    def test_foreign_skeleton_rejected(self):
        p = ProbabilityMeasure(boolean_skeleton(boolean_algebra(2)), [1, 0])
        with pytest.raises(MalformedInputError):
            validate_probability(boolean_skeleton(boolean_algebra(3)), p)


class TestValidateHyperstate:
    def test_measure_composed_with_skeleton_part(self):
        # On a Boolean algebra the skeleton part of a is a itself, so the
        # map is just p, and pair additivity reduces to p's additivity.
        B = boolean_algebra(2)
        p = ProbabilityMeasure(boolean_skeleton(B), [F(1, 3), F(2, 3)])
        report = validate_hyperstate(B, skeleton_table(B, p))
        assert report.ok
        assert all(c.mode == "exhaustive" for c in report.checks)

    def test_chang_point_values(self):
        C = chang_algebra(1)
        p = ProbabilityMeasure(boolean_skeleton(C), [F(1)])
        s, report = join_hyperstate(C, p, ConeState([F(2)]))
        assert report.ok
        assert all(c.mode == "window-verified (N=8)" for c in report.checks)
        assert str(s.value(("pos", (3,)))) == "1+e-6"
        assert str(s.value(("neg", (3,)))) == "0+e6"
        assert str(s.value(("pos", (0,)))) == "1+e0"
        assert str(s.value(("neg", (0,)))) == "0+e0"

    def test_constant_zero_fails_boundary(self):
        B = boolean_algebra(1)
        z = TableHyperstate({a: dual(0) for a in B.carrier(8)})
        report = validate_hyperstate(B, z)
        assert not report.ok
        check = report.check("boundary-values")
        assert check.witnesses == [
            {"witness": {"x": "1"}, "lhs": "0+e0", "rhs": "1+e0"}
        ]

    def test_partial_table_is_structural(self):
        B = boolean_algebra(2)
        s = TableHyperstate({0: dual(0), 3: dual(1)})
        with pytest.raises(MalformedInputError, match="no value for element"):
            validate_hyperstate(B, s)

    def test_string_values_accepted(self):
        B = boolean_algebra(1)
        s = TableHyperstate({0: "0+e0", 1: "1+e0"})
        assert validate_hyperstate(B, s).ok

    def test_infinitesimal_on_skeleton_is_caught(self):
        C = chang_algebra(1)
        values = {}
        for a in C.carrier(8):
            sign, (n,) = a
            values[a] = dual(1, -n) if sign == "pos" else dual(0, n)
        values[("neg", (0,))] = dual(0, F(1, 2))  # the bottom, complemented
        report = validate_hyperstate(C, TableHyperstate(values))
        assert not report.check("skeleton-standard").passed
        assert not report.check("boundary-values").passed


class TestFormulaHyperstate:
    def test_product_mixed_values(self):
        P = ProductAlgebra([boolean_algebra(2), chang_algebra(1)])
        sk = boolean_skeleton(P)
        p = ProbabilityMeasure(sk, [F(1, 3), F(1, 3), F(1, 3)])
        w = ProductState([TableState({0: 0}), ConeState([F(1)])])
        s, report = join_hyperstate(P, p, w)
        assert report.ok
        assert str(s.value((0, ("pos", (3,))))) == "1/3+e-3"
        assert str(s.value((2, ("neg", (5,))))) == "1/3+e5"
        assert str(s.value(P.top)) == "1+e0"

    def test_point_mass_on_boolean_atom_escapes(self):
        # Mass on a purely Boolean atom gives p = 0 on the skeleton part of
        # (0, pos-n) while the radical state still sees a strict drop, which
        # no interval value can express at standard part 0.  The join must
        # report this rather than produce a map.
        P = ProductAlgebra([boolean_algebra(2), chang_algebra(1)])
        sk = boolean_skeleton(P)
        assert sk.atoms[1] == (1, ("neg", (0,)))
        p = ProbabilityMeasure(sk, {1: 1})
        w = ProductState([TableState({0: 0}), ConeState([F(1)])])
        s, report = join_hyperstate(P, p, w)
        assert not report.ok
        codomain = report.check("codomain")
        assert not codomain.passed
        assert codomain.witnesses[0] == {
            "witness": {"x": "(0|pos(1))"},
            "value": "0+e-1",
        }
        with pytest.raises(MalformedInputError) as exc:
            s.value((0, ("pos", (1,))))
        assert str(exc.value) == "formula value escapes the interval at (0|pos(1)): 0+e-1"

    def test_foreign_measure_rejected(self):
        C = chang_algebra(1)
        other = ProbabilityMeasure(boolean_skeleton(chang_algebra(1)), [F(1)])
        with pytest.raises(MalformedInputError, match="different algebra"):
            FormulaHyperstate(C, other, ConeState([F(1)]))

    def test_zero_state_reduces_to_the_measure(self):
        C = chang_algebra(1)
        p = ProbabilityMeasure(boolean_skeleton(C), [F(1)])
        s, report = join_hyperstate(C, p, ConeState([F(0)]))
        assert report.ok
        for a in C.carrier(8):
            std, inf = s.raw_value(a)
            assert inf == 0 and std in (0, 1)


class TestSplit:
    def test_chang_split_recovers_parameters(self):
        C = chang_algebra(1)
        p = ProbabilityMeasure(boolean_skeleton(C), [F(1)])
        w = ConeState([F(2)])
        s, _ = join_hyperstate(C, p, w)
        split = split_hyperstate(C, s)
        assert split.p == p
        assert split.w == w
        assert split.scanned == len(C.carrier(8))

    def test_finite_algebras_have_standard_hyperstates(self):
        # The radical of a finite algebra only carries the zero state, so
        # every value is purely standard and the split returns w = 0.
        for name, A in ibp0_corpus().items():
            if not A.is_finite:
                continue
            sk = boolean_skeleton(A)
            weights = [F(1, len(sk.atoms))] * len(sk.atoms)
            s, report = join_hyperstate(A, ProbabilityMeasure(sk, weights), state_family(radical(A).hoop)[0])
            assert report.ok, name
            split = split_hyperstate(A, s)
            assert all(s.raw_value(a)[1] == 0 for a in A.carrier(8)), name
            assert all(v == 0 for v in split.w.values.values()), name

    def test_finite_radical_split_takes_the_zero_state(self):
        # Moving ε-weight onto a radical element r and its negation keeps the
        # split identity true for the table of ε-parts along the radical, but
        # that table is not a state: a finite radical has only the zero one.
        A = rotated_hoop(godel_hoop(3))
        rad = radical(A)
        values = dict(skeleton_table(A, ProbabilityMeasure(boolean_skeleton(A), [F(1)])).items())
        r = next(x for x in rad.elements if x != A.top)
        values[r], values[A.neg(r)] = dual(1, -1), dual(0, 1)
        with pytest.raises(InternalConsistencyError, match="split identity"):
            split_hyperstate(A, TableHyperstate(values))

    def test_product_roundtrip_both_directions(self):
        P = ProductAlgebra([boolean_algebra(2), chang_algebra(1)])
        sk = boolean_skeleton(P)
        p = ProbabilityMeasure(sk, [F(1, 2), F(1, 4), F(1, 4)])
        w = ProductState([TableState({0: 0}), ConeState([F(1, 2)])])
        s, report = join_hyperstate(P, p, w)
        assert report.ok
        split = split_hyperstate(P, s)
        assert split.p == p and split.w == w
        rejoined, report2 = join_hyperstate(P, split.p, split.w)
        assert report2.ok
        assert all(s.raw_value(a) == rejoined.raw_value(a) for a in P.carrier(8))

    def test_non_additive_table_raises(self):
        B = boolean_algebra(2)
        s = TableHyperstate({0: dual(0), 1: dual(F(1, 2)), 2: dual(F(1, 3)), 3: dual(1)})
        # A split that raised is not kept: the next call raises again.
        for _ in range(2):
            with pytest.raises(InternalConsistencyError, match="split identity fails at 3"):
                split_hyperstate(B, s)

    def test_split_reads_every_window_element(self):
        # A table off a valid hyperstate at the last window element only.
        P = ProductAlgebra([boolean_algebra(2), chang_algebra(1)])
        p = ProbabilityMeasure(boolean_skeleton(P), [F(1, 2), F(1, 4), F(1, 4)])
        s, report = join_hyperstate(P, p, ProductState([TableState({0: 0}), ConeState([F(1, 2)])]))
        assert report.ok
        values = {a: s.value(a) for a in P.carrier(8)}
        assert split_hyperstate(P, TableHyperstate(values)).scanned == len(values)
        last = P.carrier(8)[-1]
        values[last] = dual(values[last].std, values[last].inf + 1)
        with pytest.raises(InternalConsistencyError, match=r"split identity fails at \(3\|pos\(8\)\): s = 1\+e-3"):
            split_hyperstate(P, TableHyperstate(values))

    def test_infinitesimal_atom_raises(self):
        B = boolean_algebra(2)
        s = TableHyperstate({0: dual(0), 1: dual(F(1, 2), 1), 2: dual(F(1, 2)), 3: dual(1)})
        with pytest.raises(InternalConsistencyError, match="carries infinitesimal part"):
            split_hyperstate(B, s)

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.lists(
            st.fractions(min_value=0, max_value=3, max_denominator=4),
            min_size=1,
            max_size=2,
        )
    )
    def test_every_nonnegative_weighting_splits_back(self, lam):
        C = _CHANG[len(lam)]
        p = ProbabilityMeasure(boolean_skeleton(C, window=4), [F(1)])
        s, report = join_hyperstate(C, p, ConeState(lam), window=4)
        assert report.ok
        split = split_hyperstate(C, s, window=4)
        assert split.w == ConeState(lam)


class TestProperties:
    def test_chang_suite_passes(self):
        C = chang_algebra(1)
        p = ProbabilityMeasure(boolean_skeleton(C), [F(1)])
        s, _ = join_hyperstate(C, p, ConeState([F(2)]))
        report = hyperstate_properties(C, s)
        assert report.ok
        for axiom in (
            "negation-law",
            "monotone",
            "orthogonal-additivity",
            "complementary-multiplicativity",
            "valuation",
            "skeleton-restriction",
            "radical-standard-part",
            "coradical-standard-part",
            "measure-normalization",
            "induced-v2-additive",
        ):
            assert report.check(axiom).passed, axiom

    def test_boolean_suite_is_exhaustive(self):
        B = boolean_algebra(3)
        p = ProbabilityMeasure(boolean_skeleton(B), [F(1, 6), F(1, 3), F(1, 2)])
        report = hyperstate_properties(B, skeleton_table(B, p))
        assert report.ok
        assert report.check("complementary-multiplicativity").mode == "exhaustive"

    def test_induced_state_recovers_weights(self):
        # The infinitesimal parts along the radical reproduce w itself.
        C = chang_algebra(1)
        p = ProbabilityMeasure(boolean_skeleton(C), [F(1)])
        s, _ = join_hyperstate(C, p, ConeState([F(3, 2)]))
        rad = radical(C)
        for n in range(9):
            assert s.raw_value(rad.from_hoop((n,)))[1] == F(-3, 2) * n

    def test_rejects_non_hyperstate(self):
        P = ProductAlgebra([boolean_algebra(2), chang_algebra(1)])
        sk = boolean_skeleton(P)
        p = ProbabilityMeasure(sk, {1: 1})
        w = ProductState([TableState({0: 0}), ConeState([F(1)])])
        s, report = join_hyperstate(P, p, w)
        assert not report.ok
        with pytest.raises(PreconditionError, match="not a hyperstate"):
            hyperstate_properties(P, s)


class TestCancellativeForm:
    def test_reuses_the_split_kept_on_the_hyperstate(self, monkeypatch):
        C = chang_algebra(1)
        s, _ = join_hyperstate(C, ProbabilityMeasure(boolean_skeleton(C), [F(1)]), ConeState([F(2)]))
        split = split_hyperstate(C, s)
        built = []

        class Counting(FormulaHyperstate):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(states, "FormulaHyperstate", Counting)
        p, _ = cancellative_form(C, s)
        assert built == [] and p is split.p

    def test_chang_rank_one(self):
        C = chang_algebra(1)
        p = ProbabilityMeasure(boolean_skeleton(C), [F(1)])
        s, _ = join_hyperstate(C, p, ConeState([F(2)]))
        p2, sigma = cancellative_form(C, s)
        assert p2 == p
        for n in range(9):
            assert sigma.value(sigma.K.element((n,))) == -2 * n
            assert sigma.value(KElement((n,), (0,))) == -2 * n

    def test_chang_rank_two_spot_values(self):
        C = chang_algebra(2)
        p = ProbabilityMeasure(boolean_skeleton(C), [F(1)])
        s, _ = join_hyperstate(C, p, ConeState([F(1), F(2)]))
        _, sigma = cancellative_form(C, s)
        assert sigma.value(sigma.K.element((1, 3))) == -7
        assert sigma.value(sigma.K.element((-2, 1))) == 0

    def test_zero_state_gives_zero_functional(self):
        C = chang_algebra(1)
        p = ProbabilityMeasure(boolean_skeleton(C), [F(1)])
        s, _ = join_hyperstate(C, p, ConeState([F(0)]))
        _, sigma = cancellative_form(C, s)
        assert sigma.value(sigma.K.element((5,))) == 0

    def test_non_cancellative_radical_refused(self):
        A = rotated_hoop(godel_hoop(3))
        sk = boolean_skeleton(A)
        s, report = join_hyperstate(A, ProbabilityMeasure(sk, [F(1)]), state_family(radical(A).hoop)[0])
        assert report.ok
        with pytest.raises(PreconditionError, match="not cancellative"):
            cancellative_form(A, s)


@pytest.mark.parametrize("construction", [split_hyperstate, cancellative_form], ids=lambda f: f.__name__)
def test_outside_the_variety_raises_the_variety_precondition(construction):
    A = lukasiewicz_mtl(3)
    with pytest.raises(PreconditionError) as gate:
        require_ibp0(A)
    with pytest.raises(PreconditionError) as got:
        construction(A, TableHyperstate({}))
    assert str(got.value) == str(gate.value)


class TestFamilies:
    def test_measure_family_sizes(self):
        assert len(measure_family(boolean_skeleton(boolean_algebra(1)))) == 1
        assert len(measure_family(boolean_skeleton(boolean_algebra(2)))) == 13
        assert len(measure_family(boolean_skeleton(boolean_algebra(3)))) == 55
        assert len(measure_family(boolean_skeleton(chang_algebra(1)))) == 1

    def test_measure_family_is_deterministic(self):
        sk = boolean_skeleton(boolean_algebra(2))
        a = [m.weights for m in measure_family(sk)]
        b = [m.weights for m in measure_family(sk)]
        assert a == b
        assert a[0] == (F(0), F(1))

    def test_state_family_sizes(self):
        assert len(state_family(SymbolicConeHoop(rank=1))) == 4
        assert len(state_family(SymbolicConeHoop(rank=2))) == 16
        finite = state_family(godel_hoop(3))
        assert len(finite) == 1
        assert all(v == 0 for v in finite[0].values.values())

    def test_hyperstate_family_sizes(self):
        assert len(hyperstate_family(boolean_algebra(3))) == 55
        assert len(hyperstate_family(chang_algebra(2))) == 16
        P = ProductAlgebra([boolean_algebra(2), chang_algebra(1)])
        assert len(hyperstate_family(P)) == 220

    def test_product_family_sweep(self):
        # Not every (p, w) pair joins into a hyperstate here.  Valid members
        # must split back exactly; invalid ones must carry live radical
        # weight, and the failure is always one of codomain.
        A = hyperstate_product_corpus()["boolean-4*chang-1"]
        fam = hyperstate_family(A)
        assert len(fam) == 220
        for p, w in fam[::11]:
            s, report = join_hyperstate(A, p, w)
            if report.ok:
                split = split_hyperstate(A, s)
                assert split.p == p and split.w == w
            else:
                assert w.parts[1].lam != (F(0),)
                assert not report.check("codomain").passed

    def test_point_mass_verdict_depends_on_direction(self):
        # Mass on the atom under the radical absorbs the infinitesimal drop;
        # mass on a purely Boolean atom leaves nowhere for it to go.
        A = hyperstate_product_corpus()["boolean-4*chang-1"]
        sk = boolean_skeleton(A)
        chang_top = ("pos", (0,))
        radical_atom = next(i for i, a in enumerate(sk.atoms) if a[1] == chang_top)
        boolean_atom = next(i for i, a in enumerate(sk.atoms) if a[1] != chang_top)
        w = ProductState([TableState({0: 0}), ConeState([F(2)])])
        s, report = join_hyperstate(A, ProbabilityMeasure(sk, {radical_atom: 1}), w)
        assert report.ok
        split = split_hyperstate(A, s)
        assert split.w == w
        _, report = join_hyperstate(A, ProbabilityMeasure(sk, {boolean_atom: 1}), w)
        assert not report.ok


def counts(report) -> list:
    """A report's check names, results and violation counts."""
    return [(c.axiom, c.passed, c.violations) for c in report.checks]


FINITE = {name: A for name, A in ibp0_corpus().items() if A.is_finite}


@pytest.mark.parametrize("name", sorted(FINITE))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_relabelling_keeps_every_hyperstate_verdict(name, data):
    # On π(A), the relabelled (π(p), π(w)) joins to a hyperstate that
    # validates, has its properties and splits as the one of (p, w) on A
    # does, and its split gives back π(p) and π(w).
    A = FINITE[name]
    perm = data.draw(st.permutations(range(A.size)))
    B = relabelled(A, perm)
    inverse = {y: x for x, y in enumerate(perm)}
    skA, skB, radA, radB = boolean_skeleton(A), boolean_skeleton(B), radical(A), radical(B)
    assert sorted(perm[a] for a in skA.atoms) == skB.atoms
    for p, w in hyperstate_family(A):
        q = ProbabilityMeasure(skB, [p.weights[skA.atoms.index(inverse[b])] for b in skB.atoms])
        v = TableState({radB.to_hoop(perm[radA.from_hoop(h)]): w.value(h) for h in radA.hoop.carrier(8)})
        (s, report), (t, relabelled_report) = join_hyperstate(A, p, w), join_hyperstate(B, q, v)
        assert counts(relabelled_report) == counts(report)
        assert counts(hyperstate_properties(B, t)) == counts(hyperstate_properties(A, s))
        split, relabelled_split = split_hyperstate(A, s), split_hyperstate(B, t)
        assert (split.p, split.w.values) == (p, {h: w.value(h) for h in radA.hoop.carrier(8)})
        assert (relabelled_split.p, relabelled_split.w.values) == (q, v.values)
        assert relabelled_split.scanned == split.scanned


def test_a_passing_op_renders_no_witness_and_reads_the_variety_verdict_once(monkeypatch):
    # On a fresh boolean-8, the ibp0 report's ok is read at most once however
    # many ops run; once a first op has built the frame and the radical's
    # pairs, a passing join, split and property run call no np.flatnonzero.
    A = boolean_algebra(8)
    reads, ok = [], ValidationReport.ok
    monkeypatch.setattr(ValidationReport, "ok", property(lambda r: reads.append(r) or ok.fget(r)))
    family = hyperstate_family(A)
    s, report = join_hyperstate(A, *family[0])
    assert report.ok and split_hyperstate(A, s).p == family[0][0] and hyperstate_properties(A, s).ok
    found = []
    monkeypatch.setattr(np, "flatnonzero", lambda *args: found.append(args) or np.nonzero(np.ravel(args[0]))[0])
    for p, w in family[1:4]:
        s, report = join_hyperstate(A, p, w)
        assert report.ok and split_hyperstate(A, s).p == p and hyperstate_properties(A, s).ok
    assert found == []
    assert sum(r is validate_ibp0(A) for r in reads) <= 1
