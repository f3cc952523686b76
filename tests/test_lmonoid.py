"""Envelope construction and ell-monoid validation.

A finite ell-monoid's envelope is one class, by the proof in ``KGroup``.
The finite tests hold it against the witness search in ``reference``, run
on every corpus lattice monoid, semihoop and finite radical and on the
truncated chains up to 12 elements, and against relabelled copies.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstates.corpus import (
    chain_min_monoid,
    grid_join_monoid,
    ibp0_corpus,
    idempotent_pair_monoid,
    lmonoid_corpus,
    semihoop_corpus,
    trunc_monoid,
)
from ellstates._scan import integers
from ellstates.ibp0 import FiniteMTL
from ellstates.lmonoid import (
    FiniteLMonoid,
    KElement,
    KGroup,
    TableAlgebra,
    SymbolicCancellativeMonoid,
    check_table,
    envelope_summary,
    h_is_injective,
    image_bound,
    is_cancellative,
    k_add,
    k_envelope,
    k_equal,
    k_leq,
    validate_lmonoid,
)
from ellstates.reports import MAX_WITNESSES, MalformedInputError, PreconditionError
from ellstates.semihoop import FiniteSemihoop, SymbolicConeHoop, validate_semihoop
from reference import (
    broken_monoid,
    cycle_join,
    eq_witness,
    finite_bases,
    h_is_injective_by_search,
    is_cancellative_by_search,
    leq_witness,
    planted_hoop_fault,
    relabelled,
    twin,
    witness_classes,
)

BASES = finite_bases()


def first_fault(name: str, table: list, n: int) -> str | None:
    """The error naming the first bad row or cell of an n x n table, one cell at a time."""
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            return f"{name} row {i}: expected an array of {n} entries, got {row!r}"
        if len(row) != n:
            return f"{name} row {i}: expected {n} entries, got {len(row)}"
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                return f"{name}[{i}][{j}] = {v!r} is not an index in 0..{n - 1}"
    return None


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

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 4), data=st.data())
    def test_bulk_table_check_names_the_first_fault(self, n, data):
        # Against a cell-by-cell check in row-major order: the same error, or
        # the same table, for planted bad cells, bools, non-ints and bad rows.
        table = [[data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
        bad = st.sampled_from([-1, n, 2**70, True, False, 1.0, "0", None])
        for _ in range(data.draw(st.integers(0, 3))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            table[i][j] = data.draw(bad)
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, n - 1))
            table[i] = data.draw(st.sampled_from([table[i][:-1], table[i] + [0], tuple(table[i]), 0]))
        want = first_fault("add", table, n)
        if want is None:
            assert check_table("add", table, n).tolist() == [list(row) for row in table]
        else:
            with pytest.raises(MalformedInputError) as raised:
                check_table("add", table, n)
            assert str(raised.value) == want

    def test_other_corpus_monoids_are_valid(self):
        for M in (idempotent_pair_monoid(), grid_join_monoid(), chain_min_monoid(3), trunc_monoid(3)):
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
        M = idempotent_pair_monoid()
        K, h = k_envelope(M)
        assert K.row(KElement(1, 0)) == K.row(KElement(0, 0))
        assert eq_witness(M, (1, 0), (0, 0)) == 1
        assert not h_is_injective(K)
        assert envelope_summary(K)["trivial"]

    def test_grid_and_chain_reducts_collapse(self):
        for M in (grid_join_monoid(), chain_min_monoid(3)):
            K, _ = k_envelope(M)
            assert envelope_summary(K)["classes"] == len(witness_classes(M)) == 1

    def test_singleton_is_cancellative_with_injective_embedding(self):
        M = trunc_monoid(1)
        K, _ = k_envelope(M)
        summary = envelope_summary(K)
        assert summary["cancellative"] and summary["h_injective"]

    def test_injectivity_matches_cancellativity_on_corpus(self):
        monoids = (trunc_monoid(1), trunc_monoid(3), trunc_monoid(4), idempotent_pair_monoid(), grid_join_monoid(),
                   chain_min_monoid(3))
        for M in monoids:
            K, _ = k_envelope(M)
            assert h_is_injective(K) == h_is_injective_by_search(M)
            assert is_cancellative(M) == is_cancellative_by_search(M) == h_is_injective(K)

    def test_operations_respect_representatives(self):
        # Replacing either argument by an equivalent pair must not change
        # the class of the result, the order, or equality verdicts, each
        # read off the witness search.
        M = trunc_monoid(3)
        K, _ = k_envelope(M)
        class_of = {p: members for members in witness_classes(M) for p in members}
        pairs = list(product(M.elements(), repeat=2))
        for p, q in product(pairs[:5], pairs):
            e1, e2 = KElement(*p), KElement(*q)
            for alt in class_of[p]:
                a1 = KElement(*alt)
                assert K.row(e1) == K.row(a1)
                assert K.leq(e1, e2) == K.leq(a1, e2) == (leq_witness(M, alt, q) is not None)
                for op in (K.join, K.meet):
                    r1, r2 = op(e1, e2), op(a1, e2)
                    assert eq_witness(M, (r1.pos, r1.neg), (r2.pos, r2.neg)) is not None

    def test_canonical_forms_are_symbolic_only(self):
        K, _ = k_envelope(trunc_monoid(3))
        assert K.representatives() == [KElement(0, 0)]
        with pytest.raises(MalformedInputError):
            K.canonical(KElement(0, 0))
        with pytest.raises(MalformedInputError):
            k_envelope(SymbolicCancellativeMonoid(rank=1))[0].representatives()


class TestOneClassProof:
    """The proof in KGroup, computed from data on every finite base."""

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_the_reference_relates_every_pair(self, name):
        M = BASES[name]
        assert validate_lmonoid(M).ok
        pairs = list(product(M.elements(), repeat=2))
        assert witness_classes(M) == [pairs]
        assert all(leq_witness(M, p, (0, 0)) is not None and leq_witness(M, (0, 0), p) is not None for p in pairs)
        K, _ = k_envelope(M)
        assert envelope_summary(K) == {
            "mode": "finite-quotient",
            "classes": 1,
            "trivial": True,
            "h_injective": h_is_injective_by_search(M),
            "cancellative": is_cancellative_by_search(M),
        }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_each_cycle_join_absorbs_its_element(self, name):
        M = BASES[name]
        for x in M.elements():
            t = cycle_join(M, x)
            assert M.add(x, t) == t, x

    @pytest.mark.parametrize("name", sorted(name for name, M in BASES.items() if isinstance(M, FiniteSemihoop)))
    def test_a_hoop_is_cancellative_only_when_trivial(self, name):
        H = BASES[name]
        assert validate_semihoop(H).flags["cancellative"] == (H.size == 1)


class TestPrecondition:
    def test_a_broken_monoid_has_no_envelope(self):
        M = broken_monoid()
        with pytest.raises(PreconditionError, match="not a lattice-ordered monoid: .*add-associative"):
            k_envelope(M)
        with pytest.raises(PreconditionError):
            is_cancellative(M)

    def test_validation_runs_once_per_monoid(self):
        M = trunc_monoid(4)
        assert validate_lmonoid(M) is validate_lmonoid(M)


def verdicts(A) -> list:
    """Check names, results and violation counts of A's ell-monoid scan, and
    its semihoop scan and flags if A is a semihoop; then, if A passes the
    ell-monoid laws, its envelope summary."""
    reports = [validate_lmonoid(A)] + ([validate_semihoop(A)] if isinstance(A, FiniteSemihoop) else [])
    out = [(c.axiom, c.passed, c.violations, c.mode) for r in reports for c in r.checks]
    out += [r.flags for r in reports]
    if reports[0].ok:
        out.append(envelope_summary(k_envelope(A)[0]))
    return out


RELABELLED = {**{f"lmonoid-{n}": M for n, M in lmonoid_corpus().items()},
              **{f"hoop-{n}": H for n, H in semihoop_corpus().items()},
              "lmonoid-broken": broken_monoid(), "hoop-planted-fault": planted_hoop_fault()}


@pytest.mark.parametrize("name", sorted(RELABELLED))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_relabelling_keeps_every_verdict(name, data):
    A = RELABELLED[name]
    perm = data.draw(st.permutations(range(A.size)))
    assert verdicts(relabelled(A, perm)) == verdicts(A)


class TestSymbolicEnvelope:
    def setup_method(self):
        self.M = SymbolicCancellativeMonoid(rank=1)
        self.K, self.h = k_envelope(self.M)

    def test_equality_by_canonical_form(self):
        assert self.K.row(KElement((3,), (1,))) == self.K.row(KElement((4,), (2,)))
        assert self.K.row(KElement((3,), (1,))) != self.K.row(KElement((4,), (1,)))

    def test_order_and_bounds(self):
        assert self.K.leq(KElement((1,), (0,)), KElement((3,), (0,)))
        two = KElement((2,), (0,))
        five = KElement((5,), (0,))
        assert self.K.canonical(self.K.join(two, five)) == (5,)
        assert self.K.canonical(self.K.meet(two, five)) == (2,)

    def test_group_structure(self):
        e = KElement((4,), (1,))
        assert self.K.canonical(self.K.add(e, self.K.neg(e))) == (0,)
        assert self.K.row(self.K.add(e, self.K.zero())) == self.K.row(e)
        assert self.K.element((-3,)) == KElement((0,), (3,))

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
            assert K.row(h(M.add(x, y))) == K.row(K.add(h(x), h(y)))
            assert K.row(h(M.meet(x, y))) == K.row(K.meet(h(x), h(y)))
            assert K.row(h(M.join(x, y))) == K.row(K.join(h(x), h(y)))
            assert K.leq(h(x), h(y)) == M.leq(x, y)

    def test_addition_distributes_over_meet_and_join(self):
        M = SymbolicCancellativeMonoid(rank=2)
        K, _ = k_envelope(M)
        cs = [(-2, 1), (0, 0), (1, -1), (3, 2), (-1, -3)]
        for a, b, c in product(cs, repeat=3):
            e1, e2, e3 = (K.element(v) for v in (a, b, c))
            lhs = K.add(e1, K.meet(e2, e3))
            rhs = K.meet(K.add(e1, e2), K.add(e1, e3))
            assert K.row(lhs) == K.row(rhs)
            lhs = K.add(e1, K.join(e2, e3))
            rhs = K.join(K.add(e1, e2), K.add(e1, e3))
            assert K.row(lhs) == K.row(rhs)


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
        assert not K.leq(bound, e)

    def test_reversed_orientation_bound_holds(self):
        M = SymbolicConeHoop(rank=1)
        K, h = k_envelope(M)
        e = KElement((1,), (4,))
        bound = image_bound(K, h, e)
        assert K.canonical(bound) == (4,)
        assert K.leq(bound, e)

    def test_reversed_orientation_bound_holds_on_window(self):
        M = SymbolicConeHoop(rank=2)
        K, h = k_envelope(M)
        for a, b in product(M.carrier(3), repeat=2):
            e = KElement(a, b)
            assert K.leq(image_bound(K, h, e), e)

    def test_finite_bound_holds_on_collapsed_envelopes(self):
        for M in (trunc_monoid(3), idempotent_pair_monoid(), chain_min_monoid(3)):
            K, h = k_envelope(M)
            for a, b in product(M.elements(), repeat=2):
                e = KElement(a, b)
                bound = image_bound(K, h, e)
                assert K.leq(bound, e)
                assert leq_witness(M, (bound.pos, bound.neg), (a, b)) is not None


ENVELOPE_BASES = {"finite": trunc_monoid(4), "natural-cone": SymbolicCancellativeMonoid(rank=2),
                  "cone-hoop": SymbolicConeHoop(rank=2)}


def pairs_over(M) -> st.SearchStrategy:
    """Pairs [a, b] over M: its elements if it is finite, else tuples with
    coordinates past int64."""
    entry = st.sampled_from(list(M.elements())) if M.is_finite else st.tuples(*[st.integers(0, 2**70)] * M.rank)
    return st.builds(KElement, entry, entry)


@pytest.mark.parametrize("name", sorted(ENVELOPE_BASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_envelope_ops_match_the_witness_formulas(name, data):
    # K's batch ops on canonical rows, and the scalar ops derived from them,
    # against the twin's witness formulas on pairs; equality and order are
    # the witness search, so a finite base's K must be one class.
    M = ENVELOPE_BASES[name]
    K = KGroup(M)
    T = twin(K)
    xs = data.draw(st.lists(pairs_over(M), min_size=1, max_size=6))
    ys = data.draw(st.lists(pairs_over(M), min_size=len(xs), max_size=len(xs)))
    X, Y = (integers([K.row(e) for e in es]) for es in (xs, ys))
    for op in ("add", "meet", "join"):
        rows = getattr(K, f"{op}_rows")(X, Y).tolist()
        for x, y, r in zip(xs, ys, rows):
            want = getattr(T, op)(x, y)
            assert T.equal(K.element(r), want) and T.equal(getattr(K, op)(x, y), want), op
    assert K.leq_rows(X, Y).tolist() == [K.leq(x, y) for x, y in zip(xs, ys)] == [T.leq(x, y) for x, y in zip(xs, ys)]
    for x, r in zip(xs, K.neg_rows(X).tolist()):
        assert T.equal(K.element(r), T.neg(x)) and T.equal(K.neg(x), T.neg(x))
    for x, y in zip(xs, ys):
        shifted = T.add(x, KElement(y.pos, y.pos))
        assert K.row(x) == K.row(shifted) and T.equal(x, shifted)
        assert (K.row(x) == K.row(y)) == T.equal(x, y)


def test_the_kept_wrappers_are_k_methods():
    K = KGroup(SymbolicConeHoop(rank=2))
    e, f = KElement((3, 0), (1, 2)), KElement((1, 1), (0, 5))
    assert k_add(K, e, f) == K.add(e, f) == K.element((3, -6))
    assert k_leq(K, e, f) == K.leq(e, f) and k_leq(K, f, e) == K.leq(f, e)
    assert k_equal(K, e, K.add(e, K.zero())) and not k_equal(K, e, f)


FINITE_KINDS = (FiniteLMonoid, FiniteSemihoop, FiniteMTL, TableAlgebra)


def finite_corpus():
    corpora = {"lmonoid": lmonoid_corpus(), "hoop": semihoop_corpus(), "algebra": ibp0_corpus()}
    return {f"{k}-{n}": A for k, c in corpora.items() for n, A in c.items() if isinstance(A, TableAlgebra)}


class TestTableOps:
    @pytest.mark.parametrize("name", sorted(finite_corpus()))
    def test_each_table_op_looks_up_its_table(self, name):
        A = finite_corpus()[name]
        for op in A.TABLES:
            table = getattr(A, f"{op}_table").tolist()
            assert all(getattr(A, op)(x, y) == table[x][y] for x, y in product(A.elements(), repeat=2)), op

    def test_no_kind_restates_a_table_lookup(self):
        assert {type(A) for A in finite_corpus().values()} == set(FINITE_KINDS[:3])
        assert [op for K in FINITE_KINDS for op in ("times", "impl", "join", "add", "meet") if op in vars(K)] == []
