"""The split identity's algebra-only parts, kept once per algebra.

``states`` keeps one frame per (A, window): the window, then the skeleton,
radical, coradical and induced elements outside it, with each element's
skeleton part and the two hoop elements of its radical part as positions.
A ``FormulaHyperstate``'s table is a gather over that frame, and its
``value`` and ``raw_value`` read rows of the table, with no per-element
decomposition; ``ProbabilityMeasure.value`` sums weights at atom indices
kept once per skeleton.  The reference below is the plain evaluation on
the algebra's tuple twin (see ``reference.twin``): a fresh decomposition and
a ``leq`` test per atom on every call.
The two must give the same (std, inf) at every frame element, for the pairs
of the generated family (one large family strided), with every pair of a
family sharing one algebra object.  The table of each hyperstate form must
equal the reference read into exact_table over the frame's elements, in
numerators, denominator and dtype, and the split, which compares two such
tables, must report the first differing element as the per-element loop
did.  An element outside the frame has no value in either form.
A failure must never be stored: a decomposition that raises raises on every
read, and ``state_to_kgroup_state`` raises on a bad state however many good
ones it has seen on the same hoop.
"""

import re
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from ellstates import hypernum, ibp0, states
from ellstates._scan import exact_table, stride_select
from ellstates.corpus import (
    boolean_algebra,
    chang_algebra,
    cone_hoop,
    hyperstate_family,
    hyperstate_product_corpus,
    ibp0_corpus,
    lukasiewicz_hoop,
    measure_family,
)
from ellstates.hypernum import DualRational, _rat, format_dual, interval_defect
from ellstates.ibp0 import ProductAlgebra, boolean_skeleton, coradical, radical
from ellstates.reports import InternalConsistencyError, MalformedInputError
from ellstates.semihoop import (
    ConeState,
    ProductState,
    TableState,
    state_to_kgroup_state,
    state_weights,
    weight_generators,
    weighted_state,
    zero_state,
)
from ellstates.states import (
    FormulaHyperstate,
    ProbabilityMeasure,
    TableHyperstate,
    cancellative_form,
    hyperstate_properties,
    join_hyperstate,
    split_hyperstate,
    validate_hyperstate,
)
from reference import twin

WINDOW = 8
# This module's own algebra objects, so that the first FormulaHyperstate on
# each builds its frame.
SUBJECTS = {**ibp0_corpus(), **hyperstate_product_corpus()}
# chang-1*chang-2 has 832 pairs over 972 frame elements; at about 0.14 ms per
# reference value the whole family would take two minutes, so its pairs are
# strided.  Every other family is read in full.
PAIR_CAP = {"chang-1*chang-2": 8}


def ref_raw_value(A, p, w, window, a):
    """The split identity evaluated from scratch on A's twin: b = ¬((¬a²)²)
    and c = a ∨ ¬a, complemented, radical and recomposing to a."""
    T = twin(A)
    a_sq = T.times(a, a)
    b, c = T.neg(T.times(T.neg(a_sq), T.neg(a_sq))), T.join(a, T.neg(a))
    assert T.join(b, T.neg(b)) == T.top and T.leq(T.neg(c), c) and T.neg(c) != c
    assert T.meet(T.join(b, T.neg(c)), T.join(T.neg(b), c)) == a
    to_hoop = radical(A, window).to_hoop
    lo, hi = to_hoop(T.join(T.neg(b), c)), to_hoop(T.join(b, c))
    std = sum((weight for atom, weight in zip(p.skeleton.atoms, p.weights) if T.leq(atom, b)), F(0))
    return std, _rat(w.value(lo)) - _rat(w.value(hi))


def frame_elements(A, window=WINDOW) -> list:
    """The window, then each skeleton, radical, coradical and induced element
    outside it, once each, read from ibp0 directly."""
    rad = radical(A, window)
    parts = (boolean_skeleton(A, window).elements, rad.elements, coradical(A, window),
             [rad.from_hoop(h) for h in rad.hoop.carrier(window)])
    return list(dict.fromkeys(A.carrier(window) + [a for part in parts for a in part]))


@pytest.mark.parametrize("name", list(SUBJECTS))
def test_formula_agrees_with_a_fresh_evaluation(name, monkeypatch):
    A = SUBJECTS[name]
    window = A.carrier(WINDOW)
    # Radical elements reach past a product's capped window.
    elements = frame_elements(A)
    if name == "chang-1*chang-2":
        assert len(elements) > len(window)

    calls = []

    def counted(A, elems, o):
        calls.append(list(elems))
        return ibp0.decompose(A, elems, o)

    monkeypatch.setattr(states, "decompose", counted)
    family = hyperstate_family(A, WINDOW)
    pairs = stride_select(family, PAIR_CAP.get(name, len(family)))
    for p, w in pairs:
        s = FormulaHyperstate(A, p, w, WINDOW)
        for a in elements:
            assert s.raw_value(a) == ref_raw_value(A, p, w, WINDOW, a), A.token(a)
    # No per-element decomposition: every value is a row of the frame's
    # table, and the frame, unless an earlier test built it, decomposes its
    # elements in one call.
    assert calls in ([], [elements])
    assert states._frame(A, WINDOW).elements == elements


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


def plant_recomposition_failure(monkeypatch, victim, to) -> None:
    """Plant a failure in the decomposition terms, which the frame and
    decompose_element share through ``ibp0.decompose``: the victim's column
    entry recomposes to ``to``.  ``monkeypatch.undo()`` takes it out."""
    real = ibp0.decomposition_terms

    def planted(o, a):
        *parts, recomposed = real(o, a)
        return (*parts, np.where(a == o.encode([victim])[0], o.encode([to])[0], recomposed))

    monkeypatch.setattr(ibp0, "decomposition_terms", planted)


def test_a_failed_decomposition_is_never_stored(monkeypatch):
    # The frame decomposes all its elements at once, so a failure at one
    # raises on every read of any element, by every instance on the algebra;
    # once the decomposition succeeds, every element is served.
    A = chang_algebra(1)
    carrier = A.carrier(WINDOW)
    victim = carrier[len(carrier) // 2 + 1]  # pos(1): the plant recomposes it to top
    plant_recomposition_failure(monkeypatch, victim, A.top)
    p = measure_family(boolean_skeleton(A, WINDOW))[0]
    s, t = (FormulaHyperstate(A, p, ConeState([lam]), WINDOW) for lam in (1, 2))
    failure = re.escape(f"does not recompose: a = {A.token(victim)}, got {A.token(A.top)}")
    for u in (s, t):
        for read in (u.raw_value, u.value):
            for a in (victim, carrier[0], victim):
                with pytest.raises(InternalConsistencyError, match=failure):
                    read(a)
    monkeypatch.undo()
    for a in carrier:
        assert t.raw_value(a) == ref_raw_value(A, p, ConeState([2]), WINDOW, a)


def test_both_forms_refuse_an_element_outside_the_frame():
    # Values exist on the frame's elements only: past it, the formula and
    # the table form raise the same error.
    A = chang_algebra(1)
    p, w = measure_family(boolean_skeleton(A, WINDOW))[0], ConeState([2])
    s = FormulaHyperstate(A, p, w, WINDOW)
    elements = frame_elements(A)
    t = TableHyperstate({a: s.value(a) for a in elements})
    outside = ("pos", (9,))
    assert outside not in elements
    for u in (s, t):
        assert [u.raw_value(a) for a in elements] == [ref_raw_value(A, p, w, WINDOW, a) for a in elements]
        for read in (u.value, u.raw_value):
            with pytest.raises(MalformedInputError) as refused:
                read(outside)
            assert str(refused.value) == f"hyperstate has no value for element {outside!r}"


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


# ---------------------------------------------------------------------------
# The window table against the reference


def form(table: tuple) -> tuple:
    """A table's numerators, denominator and dtype."""
    rows, den = table
    return rows.tolist(), den, rows.dtype


def assert_tables_agree(A, p, w, window=WINDOW) -> FormulaHyperstate:
    """Both forms' tables equal the reference over the frame's elements read
    into exact_table: the same numerators, denominator and dtype."""
    elements = frame_elements(A, window)
    ref = [ref_raw_value(A, p, w, window, a) for a in elements]
    expected = form(exact_table(ref))
    s = FormulaHyperstate(A, p, w, window)
    assert form(s.table(A, window)) == expected
    table = TableHyperstate({a: DualRational(*r) for a, r in zip(elements, ref) if not interval_defect(*r)})
    if len(table.items()) == len(elements):
        assert form(table.table(A, window)) == expected
    return s


@pytest.mark.parametrize("name", list(SUBJECTS))
def test_window_tables_agree_with_a_fresh_evaluation(name):
    A = SUBJECTS[name]
    family = hyperstate_family(A, WINDOW)
    for p, w in stride_select(family, 4):
        assert_tables_agree(A, p, w)


def capped_boolean_square():
    """B16 x B16: the window holds 142 of its 256 elements, all complemented,
    so the skeleton leaves the window."""
    A = ProductAlgebra([boolean_algebra(4)] * 2)
    sk = boolean_skeleton(A, WINDOW)
    assert len(sk.elements) == 256 > len(A.carrier(WINDOW))
    return A, sk


def test_capped_finite_product_reads_outside_the_window():
    A, sk = capped_boolean_square()
    w = zero_state(radical(A, WINDOW).hoop)
    for p in (ProbabilityMeasure(sk, {"0": 1}), ProbabilityMeasure(sk, [F(1, 8)] * 8)):
        s = assert_tables_agree(A, p, w)
        assert validate_hyperstate(A, s, WINDOW).ok and hyperstate_properties(A, s, WINDOW).ok
        split = split_hyperstate(A, s, WINDOW)
        assert split.p == p and split.scanned == len(A.carrier(WINDOW))


def test_weights_past_int64_take_the_object_path():
    A = chang_algebra(2)
    p = measure_family(boolean_skeleton(A, WINDOW))[0]
    w = ConeState([10**30, F(1, 3)])
    s = assert_tables_agree(A, p, w)
    assert s.table(A, WINDOW)[0].dtype == object
    assert join_hyperstate(A, p, w, WINDOW)[1].ok
    split = split_hyperstate(A, s, WINDOW)
    assert (split.p, split.w) == (p, w)
    t = TableHyperstate({a: s.value(a) for a in A.carrier(WINDOW)})
    assert t.table(A, WINDOW)[0].dtype == object
    assert split_hyperstate(A, t, WINDOW).w == w


@pytest.mark.parametrize("lam", [[F(1, 3), 2], [10**30, F(1, 7)]], ids=["small", "past-int64"])
def test_a_table_hyperstate_table_is_its_values_over_their_lcm(lam):
    # Read from each value's integers, the table is exact_table of the values.
    A = chang_algebra(2)
    p = measure_family(boolean_skeleton(A, WINDOW))[-1]
    s = FormulaHyperstate(A, p, ConeState(lam), WINDOW)
    carrier = A.carrier(WINDOW)
    values = {a: s.value(a) for a in carrier}
    # Shifted values with other denominators, so the lcm is not any one's.
    for k, a in enumerate(carrier[::17]):
        v = values[a]
        values[a] = DualRational(v.std, v.inf + (F(1, 5 + k) if v.std == 0 else F(-1, 5 + k)))
    expected = form(exact_table([(values[a].std, values[a].inf) for a in carrier]))
    assert form(TableHyperstate(values).table(A, WINDOW)) == expected
    assert expected[2] == (object if lam[0] == 10**30 else np.int64)
    missing = carrier[40]
    del values[missing]
    t = TableHyperstate(values)
    with pytest.raises(MalformedInputError) as raised:
        t.table(A, WINDOW)
    with pytest.raises(MalformedInputError) as direct:
        t.value(missing)
    assert str(raised.value) == str(direct.value) == f"hyperstate has no value for element {missing!r}"


def reference_split_error(A, s, window=WINDOW) -> str:
    """The message of the per-element split loop, or "" when it passes."""
    sk, rad = boolean_skeleton(A, window), radical(A, window)
    p = ProbabilityMeasure(sk, [s.raw_value(atom)[0] for atom in sk.atoms])
    w = weighted_state(rad.hoop, [-s.raw_value(rad.from_hoop(g))[1] for g in weight_generators(rad.hoop)])
    for a in A.carrier(window):
        got, want = s.raw_value(a), ref_raw_value(A, p, w, window, a)
        if got != want:
            return f"split identity fails at {A.token(a)}: s = {format_dual(got)}, split gives {format_dual(want)}"
    return ""


@pytest.mark.parametrize("lam", [[F(3, 2)], [10**30]], ids=["small", "past-int64"])
def test_a_split_that_fails_names_the_first_differing_element(lam):
    A = chang_algebra(1)
    p = measure_family(boolean_skeleton(A, WINDOW))[0]
    s = FormulaHyperstate(A, p, ConeState(lam), WINDOW)
    carrier = A.carrier(WINDOW)
    values = {a: s.value(a) for a in carrier}
    # Two elements off, neither an atom nor a weight generator: the earlier
    # in window order is the one reported.
    for a in (A.neg(("pos", (5,))), ("pos", (3,))):
        v = values[a]
        values[a] = DualRational(v.std, v.inf + (F(1, 3) if v.std == 0 else F(-1, 3)))
    t = TableHyperstate(values)
    # The shifted values need another denominator, so the split compares
    # cross products, on object tables past int64.
    (got, den), (formula, formula_den) = t.table(A, WINDOW), s.table(A, WINDOW)
    assert den != formula_den and (got.dtype == formula.dtype == object) == (lam == [10**30])
    want = reference_split_error(A, t)
    assert want.startswith("split identity fails at ")
    for _ in range(2):
        with pytest.raises(InternalConsistencyError) as exc:
            split_hyperstate(A, t, WINDOW)
        assert str(exc.value) == want


def test_a_failed_decomposition_raises_on_every_table_read(monkeypatch):
    # The frame runs the decomposition as term columns over the id tables, so
    # the failure is planted in the terms, which decompose_element shares.
    A = chang_algebra(1)
    plant_recomposition_failure(monkeypatch, A.carrier(WINDOW)[3], A.top)
    p = measure_family(boolean_skeleton(A, WINDOW))[0]
    s = FormulaHyperstate(A, p, ConeState([1]), WINDOW)
    for read in (lambda: s.table(A, WINDOW), lambda: join_hyperstate(A, p, ConeState([1]), WINDOW),
                 lambda: validate_hyperstate(A, s, WINDOW), lambda: hyperstate_properties(A, s, WINDOW),
                 lambda: split_hyperstate(A, s, WINDOW)):
        for _ in range(2):
            with pytest.raises(InternalConsistencyError, match=r"does not recompose: a = neg\(3\), got pos\(0\)"):
                read()
    monkeypatch.undo()
    assert validate_hyperstate(A, s, WINDOW).ok


def test_the_frame_raises_when_only_the_columns_fail(monkeypatch):
    # There is one decomposition, on columns: a failure planted at the top
    # column entry alone makes the frame and decompose_element raise the
    # same error at the planted element.
    A = chang_algebra(1)
    plant_recomposition_failure(monkeypatch, A.top, A.bot)
    failure = re.escape(f"decomposition does not recompose: a = {A.token(A.top)}, got {A.token(A.bot)}")
    for decompose in (lambda: ibp0.decompose_element(A, A.top), lambda: states._frame(A, WINDOW)):
        with pytest.raises(InternalConsistencyError, match=failure):
            decompose()


def guarded_pairs(name: str) -> tuple:
    """An algebra, the pair of its warm join, and the pairs read after it:
    chang-2 and chang-1*chang-2 with a family pair and one whose weights
    take the tables past int64, and B16 x B16 with a second measure."""
    if name == "B16xB16":
        A, sk = capped_boolean_square()
        w = zero_state(radical(A, WINDOW).hoop)
        return A, (ProbabilityMeasure(sk, {"0": 1}), w), [(ProbabilityMeasure(sk, [F(1, 8)] * 8), w)]
    A = chang_algebra(2) if name == "chang-2" else SUBJECTS[name]
    family = hyperstate_family(A, WINDOW)
    p, w = family[-1]
    hoop = radical(A, WINDOW).hoop
    wide = [F(1, 2**61 - 1), F(1, 2**31 - 1), F(1, 3)][:len(state_weights(w))]
    return A, family[0], [(p, w), (p, weighted_state(hoop, wide))]


@pytest.mark.parametrize("name", ["chang-2", "chang-1*chang-2", "B16xB16"])
def test_join_split_properties_read_the_frame_not_each_element(name, monkeypatch):
    # After one warm join, a new (p, w) reads no decomposition and no
    # per-element value of w: w is read as one column by each of the two
    # formulas (the join's and the split's) and by the envelope state; the
    # properties, the induced state among them, and s.value and s.raw_value
    # at every frame element read only the table.  A fall-back to
    # per-element evaluation would decompose elements, or read w.value at
    # each hoop element, or build the induced state as a TableState.
    # s.value builds each value from its row, with no interval check of its
    # own and no Fraction pair.  Weights past int64 take the same path, in
    # Python ints.  The warm join builds the frame, the induced state's
    # positions among it, so no law maps a hoop element through from_hoop,
    # and no law stacks (std, inf) rows.  The products read skeleton,
    # radical, coradical and induced elements outside the window.
    A, warm, pairs = guarded_pairs(name)
    join_hyperstate(A, *warm, WINDOW)
    elements = frame_elements(A)
    if name == "chang-2":
        hoop = len(radical(A, WINDOW).hoop.carrier(WINDOW))
        assert (len(A.carrier(WINDOW)), hoop, len(elements)) == (162, 81, 162)
    else:
        assert len(elements) > len(A.carrier(WINDOW))

    calls, reads, laws = Counter(), Counter(), Counter()

    def counted(owner, name, into=calls):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            into[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counted(states, "decompose")
    for state in (ConeState, ProductState, TableState):
        counted(state, "value")
    counted(TableState, "__init__")
    counted(hypernum, "_defect", reads)
    counted(states, "interval_defect", reads)
    counted(states._Values, "raw", reads)
    counted(radical(A, WINDOW), "from_hoop", laws)
    counted(np, "stack", laws)
    for p, w in pairs:
        s, report = join_hyperstate(A, p, w, WINDOW)
        assert report.ok and calls == {}
        assert validate_hyperstate(A, s, WINDOW).ok and calls == {}
        split_hyperstate(A, s, WINDOW)
        # B16 x B16's radical has two finite factors, so its split's w is the
        # zero state, one TableState per factor.
        assert calls == ({"__init__": 2} if name == "B16xB16" else {})
        calls.clear()
        laws.clear()
        assert hyperstate_properties(A, s, WINDOW).ok and calls == {}
        assert laws == {}
        if name == "chang-2":
            cancellative_form(A, s, WINDOW)
            assert calls == {}
        reads.clear()
        for a in elements:
            s.value(a)
        assert calls == {} and reads == {}
        for a in elements:
            s.raw_value(a)
        assert calls == {}
    assert s.table(A, WINDOW)[0].dtype == (np.int64 if name == "B16xB16" else object)
