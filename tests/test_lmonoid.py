"""Envelope construction and ell-monoid validation.

Finite expectations (class counts, witnesses, injectivity) were worked out
by hand on carriers small enough to check on paper and are frozen here.
"""

from itertools import product

import pytest

from ellstates.corpus import ibp0_corpus, lmonoid_corpus, semihoop_corpus
from ellstates.ibp0 import FiniteMTL
from ellstates.lmonoid import (
    FiniteLMonoid,
    KElement,
    TableAlgebra,
    SymbolicCancellativeMonoid,
    envelope_summary,
    eq_witness,
    h_is_injective,
    image_bound,
    is_cancellative,
    k_add,
    k_envelope,
    k_equal,
    k_join,
    k_leq,
    k_meet,
    k_negate,
    validate_lmonoid,
)
from ellstates.reports import MAX_WITNESSES, MalformedInputError
from ellstates.semihoop import FiniteSemihoop, SymbolicConeHoop


def trunc_monoid(n: int) -> FiniteLMonoid:
    """{0..n-1} with truncated addition; meet/join are min/max."""
    add = [[min(x + y, n - 1) for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    join = [[max(x, y) for y in range(n)] for x in range(n)]
    return FiniteLMonoid(add, meet, join, unit=0)


def idempotent_pair() -> FiniteLMonoid:
    # {0, 1} with x + y = max: the one-generator idempotent case.
    return FiniteLMonoid([[0, 1], [1, 1]], [[0, 0], [0, 1]], [[0, 1], [1, 1]], unit=0)


def grid_join_monoid() -> FiniteLMonoid:
    """{0,1}^2 with componentwise max as the addition."""
    cells = [(a, b) for a in range(2) for b in range(2)]
    idx = {c: i for i, c in enumerate(cells)}
    mx = [[idx[(max(x[0], y[0]), max(x[1], y[1]))] for y in cells] for x in cells]
    mn = [[idx[(min(x[0], y[0]), min(x[1], y[1]))] for y in cells] for x in cells]
    return FiniteLMonoid(mx, mn, mx, unit=0)


def godel3_reduct() -> FiniteLMonoid:
    """Chain 0 < 1 < 2 with min as the addition and the top as unit."""
    n = 3
    add = [[min(x, y) for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    join = [[max(x, y) for y in range(n)] for x in range(n)]
    return FiniteLMonoid(add, meet, join, unit=2)


class TestValidation:
    def test_truncated_chain_is_valid(self):
        report = validate_lmonoid(trunc_monoid(4))
        assert report.ok
        assert all(c.mode == "exhaustive" for c in report.checks)

    def test_corrupted_associativity_lists_every_instance(self):
        add = [[min(x + y, 2) for y in range(3)] for x in range(3)]
        add[2][2] = 0
        meet = [[min(x, y) for y in range(3)] for x in range(3)]
        join = [[max(x, y) for y in range(3)] for x in range(3)]
        report = validate_lmonoid(FiniteLMonoid(add, meet, join, unit=0))
        assert not report.ok
        check = report.check("add-associative")
        assert not check.passed
        # (1+1)+2 = 2+2 = 0 but 1+(1+2) = 1+2 = 2
        assert {"witness": {"x": "1", "y": "1", "z": "2"}, "lhs": "0", "rhs": "2"} in check.witnesses
        assert check.violations == len(check.witnesses)

    def test_corrupted_unit_row(self):
        add = [[min(x + y, 2) for y in range(3)] for x in range(3)]
        add[1][0] = 2
        add[0][1] = 2
        meet = [[min(x, y) for y in range(3)] for x in range(3)]
        join = [[max(x, y) for y in range(3)] for x in range(3)]
        report = validate_lmonoid(FiniteLMonoid(add, meet, join, unit=0))
        check = report.check("add-unit")
        assert not check.passed
        assert check.witnesses[0]["witness"] == {"x": "1"}

    def test_broken_table_caps_witnesses_but_counts_every_violation(self):
        add = [[(x * y + 1) % 6 for y in range(6)] for x in range(6)]
        meet = [[min(x, y) for y in range(6)] for x in range(6)]
        join = [[max(x, y) for y in range(6)] for x in range(6)]
        check = validate_lmonoid(FiniteLMonoid(add, meet, join, unit=0)).check("add-associative")
        assert check.violations == 180
        assert len(check.witnesses) <= MAX_WITNESSES

    def test_malformed_table_names_the_cell(self):
        with pytest.raises(MalformedInputError, match=r"add\[0\]\[1\] = 5"):
            FiniteLMonoid([[0, 5], [1, 1]], [[0, 0], [0, 1]], [[0, 1], [1, 1]], unit=0)

    def test_other_corpus_monoids_are_valid(self):
        for M in (idempotent_pair(), grid_join_monoid(), godel3_reduct(), trunc_monoid(3)):
            assert validate_lmonoid(M).ok


class TestFiniteEnvelope:
    def test_truncated_chain_collapses(self):
        # The absorbing top makes every pair equivalent (z = top works).
        M = trunc_monoid(4)
        K, h = k_envelope(M)
        assert envelope_summary(K) == {
            "mode": "finite-quotient",
            "classes": 1,
            "trivial": True,
            "h_injective": False,
            "cancellative": False,
        }

    def test_idempotent_pair_identifies_image_with_zero(self):
        M = idempotent_pair()
        K, h = k_envelope(M)
        assert k_equal(K, KElement(1, 0), KElement(0, 0))
        assert eq_witness(M, (1, 0), (0, 0)) == 1
        assert not h_is_injective(K)
        assert envelope_summary(K)["trivial"]

    def test_grid_and_chain_reducts_collapse(self):
        for M in (grid_join_monoid(), godel3_reduct()):
            K, _ = k_envelope(M)
            assert envelope_summary(K)["classes"] == 1

    def test_singleton_is_cancellative_with_injective_embedding(self):
        M = trunc_monoid(1)
        K, _ = k_envelope(M)
        summary = envelope_summary(K)
        assert summary["cancellative"] and summary["h_injective"]

    def test_injectivity_matches_cancellativity_on_corpus(self):
        for M in (trunc_monoid(1), trunc_monoid(3), trunc_monoid(4), idempotent_pair(), grid_join_monoid(), godel3_reduct()):
            K, _ = k_envelope(M)
            assert h_is_injective(K) == is_cancellative(M)

    def test_operations_respect_representatives(self):
        # Replacing either argument by an equivalent pair must not change
        # the class of the result, the order, or equality verdicts.
        M = trunc_monoid(3)
        K, _ = k_envelope(M)
        pairs = K.pairs
        for p, q in product(pairs[:5], pairs):
            e1, e2 = KElement(*p), KElement(*q)
            for alt in K.class_members[K.class_of(e1)]:
                a1 = KElement(*alt)
                assert k_equal(K, e1, a1)
                assert k_leq(K, e1, e2) == k_leq(K, a1, e2)
                assert k_equal(K, k_join(K, e1, e2), k_join(K, a1, e2))
                assert k_equal(K, k_meet(K, e1, e2), k_meet(K, a1, e2))

    def test_class_of_rejects_foreign_pairs(self):
        K, _ = k_envelope(trunc_monoid(3))
        with pytest.raises(MalformedInputError):
            K.class_of(KElement(0, 9))
        with pytest.raises(MalformedInputError):
            K.canonical(KElement(0, 0))


class TestSymbolicEnvelope:
    def setup_method(self):
        self.M = SymbolicCancellativeMonoid(rank=1)
        self.K, self.h = k_envelope(self.M)

    def test_equality_by_canonical_form(self):
        assert k_equal(self.K, KElement((3,), (1,)), KElement((4,), (2,)))
        assert not k_equal(self.K, KElement((3,), (1,)), KElement((4,), (1,)))

    def test_order_and_bounds(self):
        assert k_leq(self.K, KElement((1,), (0,)), KElement((3,), (0,)))
        two = KElement((2,), (0,))
        five = KElement((5,), (0,))
        assert self.K.canonical(k_join(self.K, two, five)) == (5,)
        assert self.K.canonical(k_meet(self.K, two, five)) == (2,)

    def test_group_structure(self):
        e = KElement((4,), (1,))
        assert self.K.canonical(k_add(self.K, e, k_negate(self.K, e))) == (0,)
        assert k_equal(self.K, k_add(self.K, e, self.K.zero()), e)
        assert self.K.from_canonical((-3,)) == KElement((0,), (3,))

    def test_h_injective_and_summary(self):
        assert h_is_injective(self.K)
        assert envelope_summary(self.K) == {
            "mode": "symbolic",
            "classes": "free abelian of rank 1",
            "trivial": False,
            "h_injective": True,
            "cancellative": True,
        }

    def test_summary_of_a_cone_hoop_envelope(self):
        K, _ = k_envelope(SymbolicConeHoop(rank=2))
        assert envelope_summary(K) == {
            "mode": "symbolic",
            "classes": "free abelian of rank 2",
            "trivial": False,
            "h_injective": True,
            "cancellative": True,
        }

    @pytest.mark.parametrize("hoop_order", [False, True])
    def test_h_is_a_lattice_and_monoid_homomorphism(self, hoop_order):
        M = (SymbolicConeHoop if hoop_order else SymbolicCancellativeMonoid)(rank=2)
        K, h = k_envelope(M)
        for x, y in product(M.carrier(2), repeat=2):
            assert k_equal(K, h(M.add(x, y)), k_add(K, h(x), h(y)))
            assert k_equal(K, h(M.meet(x, y)), k_meet(K, h(x), h(y)))
            assert k_equal(K, h(M.join(x, y)), k_join(K, h(x), h(y)))
            assert k_leq(K, h(x), h(y)) == M.leq(x, y)

    def test_addition_distributes_over_meet_and_join(self):
        M = SymbolicCancellativeMonoid(rank=2)
        K, _ = k_envelope(M)
        cs = [(-2, 1), (0, 0), (1, -1), (3, 2), (-1, -3)]
        for a, b, c in product(cs, repeat=3):
            e1, e2, e3 = (K.from_canonical(v) for v in (a, b, c))
            lhs = k_add(K, e1, k_meet(K, e2, e3))
            rhs = k_meet(K, k_add(K, e1, e2), k_add(K, e1, e3))
            assert k_equal(K, lhs, rhs)
            lhs = k_add(K, e1, k_join(K, e2, e3))
            rhs = k_join(K, k_add(K, e1, e2), k_add(K, e1, e3))
            assert k_equal(K, lhs, rhs)


class TestImageBound:
    """The bound h(a /\\ b) <= [a, b] is orientation-sensitive.

    With the natural order on N the difference [1, 4] sits at -3, below the
    image of the pointwise meet, so the naive reading fails.  In the
    reversed (hoop reduct) orientation the same formula is a genuine lower
    bound.  Both behaviours are pinned down.
    """

    def test_natural_orientation_counterexample(self):
        M = SymbolicCancellativeMonoid(rank=1)
        K, h = k_envelope(M)
        e = KElement((1,), (4,))
        bound = image_bound(K, h, e)
        assert K.canonical(bound) == (1,)
        assert not k_leq(K, bound, e)

    def test_reversed_orientation_bound_holds(self):
        M = SymbolicConeHoop(rank=1)
        K, h = k_envelope(M)
        e = KElement((1,), (4,))
        bound = image_bound(K, h, e)
        assert K.canonical(bound) == (4,)
        assert k_leq(K, bound, e)

    def test_reversed_orientation_bound_holds_on_window(self):
        M = SymbolicConeHoop(rank=2)
        K, h = k_envelope(M)
        for a, b in product(M.carrier(3), repeat=2):
            e = KElement(a, b)
            assert k_leq(K, image_bound(K, h, e), e)

    def test_finite_bound_holds_on_collapsed_envelopes(self):
        for M in (trunc_monoid(3), idempotent_pair(), godel3_reduct()):
            K, h = k_envelope(M)
            for a, b in product(M.elements(), repeat=2):
                e = KElement(a, b)
                assert k_leq(K, image_bound(K, h, e), e)


FINITE_KINDS = (FiniteLMonoid, FiniteSemihoop, FiniteMTL, TableAlgebra)


def finite_corpus():
    corpora = {"lmonoid": lmonoid_corpus(), "hoop": semihoop_corpus(), "algebra": ibp0_corpus()}
    return {f"{k}-{n}": A for k, c in corpora.items() for n, A in c.items() if isinstance(A, TableAlgebra)}


class TestTableOps:
    @pytest.mark.parametrize("name", sorted(finite_corpus()))
    def test_each_table_op_looks_up_its_table(self, name):
        A = finite_corpus()[name]
        for op in A.TABLES:
            table = getattr(A, f"{op}_table")
            assert all(getattr(A, op)(x, y) == table[x][y] for x, y in product(A.elements(), repeat=2)), op

    def test_no_kind_restates_a_table_lookup(self):
        assert {type(A) for A in finite_corpus().values()} == set(FINITE_KINDS[:3])
        assert [op for K in FINITE_KINDS for op in ("times", "impl", "join", "add", "meet") if op in vars(K)] == []
