"""Variety validation, skeleton/radical anatomy, rotation and products.

The small finite oracles (skeleton contents, decomposition pairs, rotation
tables) were computed by hand and are asserted literally.  Verdicts are also
held to two relations that do not depend on how the ops are written: a
relabelled copy of a finite algebra gets the same verdicts, and a finite
semihoop's rotation gets the same ones in its symbolic and tabulated forms.
"""

import hashlib
import json
import re
from itertools import product as iterproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstates import ibp0
from ellstates._scan import tables
from ellstates.cli import algebra_to_json
from ellstates.corpus import (
    boolean_algebra,
    chang_algebra,
    godel_hoop,
    ibp0_corpus,
    lukasiewicz_mtl,
    pairwise_products,
    rotated_hoop,
    semihoop_corpus,
)
from ellstates.ibp0 import (
    IBP0_AXIOMS,
    FiniteMTL,
    ProductAlgebra,
    SymbolicPerfectAlgebra,
    boolean_skeleton,
    coradical,
    decompose,
    decompose_element,
    product,
    radical,
    rotate,
    validate_ibp0,
    validate_mtl,
)
from ellstates.reports import MAX_WITNESSES, InternalConsistencyError, MalformedInputError, PreconditionError
from ellstates.semihoop import FiniteSemihoop, SymbolicConeHoop
from reference import planted_fault, relabelled, twin


class TestValidate:
    def test_boolean_algebras_pass(self):
        for atoms in (1, 2, 3):
            report = validate_ibp0(boolean_algebra(atoms))
            assert report.ok
            assert all(c.mode == "exhaustive" for c in report.checks)

    def test_lukasiewicz3_fails_doubling(self):
        report = validate_ibp0(lukasiewicz_mtl(3))
        assert not report.ok
        assert validate_mtl(lukasiewicz_mtl(3)).ok  # the failure is specific
        dl = report.check("doubling-law")
        assert dl.witnesses == [{"witness": {"x": "1"}, "lhs": "2", "rhs": "0"}]

    def test_symbolic_rotations_window_verified(self):
        report = validate_ibp0(chang_algebra(1), window=8)
        assert report.ok
        assert all(c.mode == "window-verified (N=8)" for c in report.checks)

    def test_rank2_rotation_passes(self):
        assert validate_ibp0(chang_algebra(2), window=8).ok

    def test_every_corpus_single_passes(self):
        for name, A in ibp0_corpus().items():
            assert validate_ibp0(A).ok, name

    def test_sample_products_pass(self):
        prods = pairwise_products()
        for name in ("boolean-4*chang-1", "chang-1*chang-2", "rot-godel-3*rot-godel-4"):
            assert validate_ibp0(prods[name]).ok, name

    def test_planted_table_corruption_is_witnessed(self):
        A = boolean_algebra(2)
        impl = A.impl_table.tolist()
        impl[1][2] = 0  # breaks residuation around those cells
        broken = FiniteMTL(
            A.times_table.tolist(),
            impl,
            A.meet_table.tolist(),
            A.join_table.tolist(),
            bot=0,
            top=3,
        )
        report = validate_ibp0(broken)
        assert not report.ok
        failing = {c.axiom for c in report.failures()}
        assert "residuation" in failing
        assert all(c.witnesses for c in report.failures())

    def test_scalar_and_batch_ops_agree(self):
        # The engine's id tables, filled on demand, give back the ops of the
        # algebra's tuple twin.
        A = chang_algebra(2)
        T, elems = twin(A), A.carrier(3)
        ops = tables(A)
        ids = ops.encode(elems)
        X, Y = ids[:, None], ids[None, :]
        for opname in ("times", "impl", "meet", "join", "oplus"):
            got = getattr(ops, opname)(X, Y)
            want = [list(ops.encode([getattr(T, opname)(x, y) for y in elems])) for x in elems]
            assert got.tolist() == want, opname
        leq = ops.leq(X, Y)
        assert leq.dtype == bool
        assert [[bool(v) for v in row] for row in leq] == [[T.leq(x, y) for y in elems] for x in elems]
        assert list(ops.neg(ids)) == list(ops.encode([T.neg(x) for x in elems]))

    def test_product_identity_pairs(self):
        # x·y = (x∧y)·(x∨y) and x⊕y = (x∧y)⊕(x∨y) across window pairs.
        for name, A in ibp0_corpus().items():
            elems = A.carrier(4)
            for x, y in iterproduct(elems[:: max(1, len(elems) // 12)], repeat=2):
                lo, hi = A.meet(x, y), A.join(x, y)
                assert A.times(x, y) == A.times(lo, hi), name
                assert A.oplus(x, y) == A.oplus(lo, hi), name


class TestSkeleton:
    def test_boolean_skeleton_is_everything(self):
        sk = boolean_skeleton(boolean_algebra(3))
        assert sk.elements == list(range(8))
        assert sk.atoms == [1, 2, 4]
        assert sk.report.ok

    def test_symbolic_skeleton_is_two_elements(self):
        sk = boolean_skeleton(chang_algebra(2))
        assert sk.elements == [("neg", (0, 0)), ("pos", (0, 0))]
        assert sk.atoms == [("pos", (0, 0))]
        assert sk.report.ok

    def test_product_skeleton_is_componentwise(self):
        P = ProductAlgebra([boolean_algebra(2), chang_algebra(1)])
        sk = boolean_skeleton(P)
        assert len(sk.elements) == 8
        assert all(z in {("neg", (0,)), ("pos", (0,))} for _, z in sk.elements)
        assert len(sk.atoms) == 3
        assert sk.report.ok


class TestRadical:
    def test_boolean_radical_is_the_top(self):
        rv = radical(boolean_algebra(2))
        assert rv.elements == [3]
        assert isinstance(rv.hoop, FiniteSemihoop) and rv.hoop.size == 1
        assert rv.report.ok
        assert coradical(boolean_algebra(2)) == [0]

    def test_chang_radical_is_the_positive_cone(self):
        rv = radical(chang_algebra(1), window=8)
        assert rv.elements == [("pos", (m,)) for m in range(9)]
        assert isinstance(rv.hoop, SymbolicConeHoop) and rv.hoop.rank == 1
        assert rv.to_hoop(("pos", (4,))) == (4,)
        assert rv.from_hoop((4,)) == ("pos", (4,))
        assert rv.report.ok and rv.report.flags["prelinear"]

    def test_rotation_radical_recovers_the_hoop(self):
        H = godel_hoop(3)
        rv = radical(rotate(H))
        assert np.array_equal(rv.hoop.times_table, H.times_table)
        assert np.array_equal(rv.hoop.impl_table, H.impl_table)
        assert np.array_equal(rv.hoop.meet_table, H.meet_table)
        assert rv.hoop.top == H.top

    def test_product_radical_is_a_product_hoop(self):
        P = ProductAlgebra([chang_algebra(1), chang_algebra(2)])
        rv = radical(P)
        assert len(rv.hoop.factors) == 2
        assert rv.to_hoop((("pos", (2,)), ("pos", (0, 1)))) == ((2,), (0, 1))
        assert rv.report.ok

    def test_guard_refuses_non_member(self):
        with pytest.raises(PreconditionError, match="doubling-law"):
            radical(lukasiewicz_mtl(3))

    def test_coradical_is_negation_image(self):
        A = chang_algebra(1)
        cor = coradical(A, window=5)
        assert cor == [("neg", (m,)) for m in range(6)]


class TestDecompose:
    def test_chang_radical_elements(self):
        A = chang_algebra(1)
        d = decompose_element(A, ("pos", (5,)))
        assert d.b == A.top and d.c == ("pos", (5,))

    def test_chang_coradical_elements(self):
        A = chang_algebra(1)
        d = decompose_element(A, ("neg", (5,)))
        assert d.b == A.bot and d.c == ("pos", (5,))

    def test_skeleton_elements_decompose_to_themselves(self):
        A = boolean_algebra(3)
        for a in A.carrier(0):
            d = decompose_element(A, a)
            assert d.b == a and d.c == A.top

    def test_identity_on_all_window_elements(self):
        for name, A in ibp0_corpus().items():
            for a in A.carrier(5):
                d = decompose_element(A, a)
                assert A.join(d.b, A.neg(d.b)) == A.top, name
                assert A.leq(A.neg(d.c), d.c) and A.neg(d.c) != d.c, name

    def test_product_elements(self):
        P = ProductAlgebra([boolean_algebra(2), chang_algebra(1)])
        a = (2, ("neg", (3,)))
        d = decompose_element(P, a)
        assert d.b == (2, ("neg", (0,)))
        assert d.c == (3, ("pos", (3,)))

    @pytest.mark.parametrize("fails, message", [
        (("complemented", "radical", "recomposed"), "b_a not complemented for a = neg(4)"),
        (("radical", "recomposed"), "c_a not in the radical for a = neg(4)"),
        (("recomposed",), "decomposition does not recompose: a = neg(4), got neg(0)"),
    ], ids=["complement", "radical", "recomposition"])
    def test_decompose_names_the_first_failure(self, fails, message, monkeypatch):
        # Planted in the term columns at neg(4), and a radical part at the
        # later neg(6): the first failing element is named, with the first
        # of its checks that fails, in the order complement, radical part,
        # recomposition.
        A = chang_algebra(1)
        elems = A.carrier(7)
        real = ibp0.decomposition_terms

        def planted(o, a):
            b, c, complemented, radical_part, recomposed = real(o, a)
            first, later = (a == o.encode([("neg", (k,))])[0] for k in (4, 6))
            if "complemented" in fails:
                complemented = complemented & ~first
            radical_part = radical_part & ~later & ~(first & ("radical" in fails))
            if "recomposed" in fails:
                recomposed = np.where(first, o.bot, recomposed)
            return b, c, complemented, radical_part, recomposed

        monkeypatch.setattr(ibp0, "decomposition_terms", planted)
        with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
            decompose(A, elems, tables(A))


class TestConstructors:
    def test_rotating_the_trivial_hoop_gives_boolean_2(self):
        A = rotate(godel_hoop(1))
        B = boolean_algebra(1)
        assert np.array_equal(A.times_table, B.times_table)
        assert np.array_equal(A.impl_table, B.impl_table)
        assert np.array_equal(A.meet_table, B.meet_table)
        assert np.array_equal(A.join_table, B.join_table)
        assert (A.bot, A.top) == (B.bot, B.top)

    def test_rotating_godel3_gives_six_elements(self):
        A = rotate(godel_hoop(3))
        assert A.size == 6
        assert validate_ibp0(A).ok

    @pytest.mark.parametrize("name", sorted(semihoop_corpus()))
    def test_tabulated_rotation_agrees_with_the_symbolic_one(self, name):
        H = semihoop_corpus()[name]
        R, T = twin(SymbolicPerfectAlgebra(H)), rotated_hoop(H)
        signed = [("neg", x) for x in range(H.size)] + [("pos", x) for x in range(H.size)]
        assert T.size == len(signed)
        assert (signed[T.bot], signed[T.top]) == (R.bot, R.top)
        for i, p in enumerate(signed):
            assert signed[T.neg(i)] == R.neg(p)
            for j, q in enumerate(signed):
                for op in ("times", "impl", "meet", "join"):
                    assert signed[getattr(T, op)(i, j)] == getattr(R, op)(p, q), (op, p, q)
                assert T.leq(i, j) == R.leq(p, q)

    @pytest.mark.parametrize("name, digest", [
        ("rot-godel-3", "467589376934c3f16fb84844397f79c072842b7c502e209a609b77d3e816aa4d"),
        ("rot-godel-4", "85be1e20bae79ee08c31720a0e5cedf927528dff75a5e80c9cf483e4689ec7d1"),
    ])
    def test_rotation_file_form_is_unchanged(self, name, digest):
        # sha256 of the canonical file form, recorded before the rotation
        # was rebuilt on the symbolic one.
        text = json.dumps(algebra_to_json(ibp0_corpus()[name]), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_rotating_a_cone_gives_the_symbolic_form(self):
        A = rotate(SymbolicConeHoop(rank=1))
        assert isinstance(A, SymbolicPerfectAlgebra)

    def test_rotation_of_broken_tables_is_rejected(self):
        H = godel_hoop(3)
        impl = H.impl_table.tolist()
        impl[0][1] = 0
        broken = FiniteSemihoop(H.times_table.tolist(), impl, H.meet_table.tolist(), top=2)
        with pytest.raises(PreconditionError, match="rotation"):
            rotate(broken)

    def test_product_requires_factors(self):
        with pytest.raises(MalformedInputError, match="at least one factor"):
            product([])

    def test_product_validates_factors(self):
        with pytest.raises(PreconditionError):
            product([boolean_algebra(1), lukasiewicz_mtl(3)])

    def test_product_of_one_is_a_wrapped_copy(self):
        P = product([boolean_algebra(1)])
        assert validate_ibp0(P).ok
        assert P.carrier(1) == [(0,), (1,)]


def verdicts(report) -> list:
    """A report's check names, results, violation counts and modes, and its flags."""
    return [(c.axiom, c.passed, c.violations, c.mode) for c in report.checks] + [report.flags]


RELABELLED = {**{n: A for n, A in ibp0_corpus().items() if A.is_finite},
              "lukasiewicz-3": lukasiewicz_mtl(3), "planted-fault": planted_fault()}
AXIOMS = {axiom.name: axiom for axiom in IBP0_AXIOMS}


@pytest.mark.parametrize("name", sorted(RELABELLED))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_relabelling_keeps_every_verdict_and_witness(name, data):
    # Each witness of π(A), renamed back by π⁻¹, fails its law in A, with
    # A's two sides renamed by π.
    A = RELABELLED[name]
    perm = data.draw(st.permutations(range(A.size)))
    report = validate_ibp0(relabelled(A, perm))
    assert verdicts(report) == verdicts(validate_ibp0(A))
    inverse = {y: x for x, y in enumerate(perm)}
    rename = lambda v: v if isinstance(v, bool) else str(perm[v])
    for check in report.checks:
        for w in check.witnesses:
            lhs, rhs = AXIOMS[check.axiom].terms(A, *(inverse[int(t)] for t in w["witness"].values()))
            assert lhs != rhs and (w["lhs"], w["rhs"]) == (rename(lhs), rename(rhs))


@pytest.mark.parametrize("name", sorted(semihoop_corpus()))
def test_both_routes_to_a_rotation_get_the_same_verdicts(name):
    H = semihoop_corpus()[name]
    R, T = SymbolicPerfectAlgebra(H), rotated_hoop(H)
    assert verdicts(validate_ibp0(R)) == verdicts(validate_ibp0(T))
    assert verdicts(radical(R).report) == verdicts(radical(T).report)


SWAPPED = {**{name: P.factors for name, P in pairwise_products().items()},
           "planted-fault*rot-godel-3": [planted_fault(), rotated_hoop(godel_hoop(3))]}


@pytest.mark.parametrize("name", sorted(SWAPPED))
def test_swapped_factors_get_the_same_verdicts(name):
    # A × B and B × A get the same verdicts.  Each witness of B × A, its
    # coordinates swapped, fails its law in A × B with its sides swapped, and
    # under MAX_WITNESSES violations the two witness lists are the same set.
    A, B = SWAPPED[name]
    AB, BA = ProductAlgebra([A, B]), ProductAlgebra([B, A])
    ab, ba = validate_ibp0(AB), validate_ibp0(BA)
    assert verdicts(ab) == verdicts(ba)
    element = {BA.token(x): x for x in BA.carrier(8)}
    swap = lambda v: v if isinstance(v, bool) else v[::-1]
    for mine, theirs in zip(ab.checks, ba.checks):
        shown = []
        for w in theirs.witnesses:
            inst = [element[t] for t in w["witness"].values()]
            sides = AXIOMS[mine.axiom].terms(AB, *map(swap, inst))
            assert sides[0] != sides[1] and sides == tuple(map(swap, AXIOMS[mine.axiom].terms(BA, *inst)))
            shown.append([AB.token(swap(x)) for x in inst])
        if mine.violations <= MAX_WITNESSES:
            assert sorted(shown) == sorted(list(w["witness"].values()) for w in mine.witnesses)
