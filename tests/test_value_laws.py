"""The state and hyperstate value laws against a reference Fraction loop.

``validate_hyperstate``, ``hyperstate_properties``, ``validate_state``,
``state_properties``, ``validate_probability`` and ``state_to_kgroup_state``
read each map once into integer numerator tables and evaluate their laws as
numpy gathers.  The reference below keeps the plain loop: one ``Fraction``
comparison per pair, over the pairs the laws scan, in ``itertools.product``
order, with every op evaluated on the carrier's tuple twin (see
``reference.twin``).  The two must agree check for check (name, verdict,
violation count, witnesses, note, mode) on every generated hyperstate of
the single corpus algebras, on planted failures, and on values whose
numerators do not fit int64; ``state_properties`` also on the semihoop
corpus, on cones and on the radical hoops of the product corpus, and on
windows that its op results leave.
"""

import math
from collections import Counter
from fractions import Fraction as F
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellstates import lmonoid, semihoop, states
from ellstates._scan import (INT64_MAX, exact_table, integers, lowest, packed, sampled_note, scan_mode, stride_select,
                              unpacked)
from ellstates.corpus import (
    chang_algebra,
    cone_hoop,
    hyperstate_family,
    hyperstate_product_corpus,
    ibp0_corpus,
    lukasiewicz_hoop,
    measure_family,
    semihoop_corpus,
)
from ellstates.hypernum import DualRational, format_dual, interval_defect, mv_otimes
from ellstates.ibp0 import boolean_skeleton, coradical, radical, require_ibp0
from ellstates.lmonoid import KElement, k_envelope
from ellstates.reports import InternalConsistencyError, PreconditionError, ValidationReport, verdict
from ellstates.semihoop import (
    PAIR_BASE_CAP,
    SAMPLED_NOTE,
    SIGMA_BASE_CAP,
    ConeState,
    KGroupState,
    TableState,
    state_properties,
    state_to_kgroup_state,
    symbolic_rank,
    validate_semihoop,
    validate_state,
    weighted_state,
    zero_state,
)
from ellstates.states import (
    HYPER_PAIR_CAP,
    FormulaHyperstate,
    ProbabilityMeasure,
    TableHyperstate,
    hyperstate_properties,
    join_hyperstate,
    validate_hyperstate,
    validate_probability,
)
from reference import leq_witness, spy_scalar_ops, twin, witness_classes

WINDOW = 8
SINGLES = ibp0_corpus()

# ---------------------------------------------------------------------------
# The reference: one Fraction comparison per instance


@cache
def ref_pair_rows(A, window):
    """(i, j, times, oplus, meet, join, leq, orthogonal, complementary), with
    carrier positions and None where a result leaves the window."""
    carrier, A = A.carrier(window), twin(A)
    index = {a: i for i, a in enumerate(carrier)}
    base = stride_select(carrier, HYPER_PAIR_CAP)
    rows = []
    for x, y in product(base, repeat=2):
        times, oplus = A.times(x, y), A.oplus(x, y)
        rows.append((index[x], index[y], index.get(times), index.get(oplus), index.get(A.meet(x, y)),
                     index.get(A.join(x, y)), A.leq(x, y), times == A.bot, oplus == A.top))
    return carrier, index, rows, sampled_note(SAMPLED_NOTE, base, carrier)


def ref_note(note, skipped):
    bits = [note] if note else []
    if skipped:
        bits.append(f"{skipped} pairs left the window")
    return "; ".join(bits)


def pair(A, carrier, i, j, lhs, rhs):
    return {"witness": {"x": A.token(carrier[i]), "y": A.token(carrier[j])}, "lhs": lhs, "rhs": rhs}


def plus(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ref_validate_hyperstate(A, s, window=WINDOW):
    require_ibp0(A, window)
    report = ValidationReport(subject="hyperstate")
    mode = scan_mode(A, window)
    carrier, _, rows, note = ref_pair_rows(A, window)
    raws = [s.raw_value(a) for a in carrier]
    bad = [{"witness": {"x": A.token(a)}, "value": format_dual(r)} for a, r in zip(carrier, raws)
           if interval_defect(*r)]
    report.add(verdict("codomain", bad, mode=mode))
    bad = []
    for element, expected in ((A.top, F(1)), (A.bot, F(0))):
        got = s.raw_value(element)
        if got != (expected, F(0)):
            bad.append({"witness": {"x": A.token(element)}, "lhs": format_dual(got),
                        "rhs": format_dual((expected, F(0)))})
    report.add(verdict("boundary-values", bad, mode=mode))
    bad, skipped = [], 0
    for i, j, kt, ko, _, _, _, _, _ in rows:
        if kt is None or ko is None:
            skipped += 1
            continue
        lhs, rhs = plus(raws[ko], raws[kt]), plus(raws[i], raws[j])
        if lhs != rhs:
            bad.append(pair(A, carrier, i, j, format_dual(lhs), format_dual(rhs)))
    report.add(verdict("pair-additivity", bad, mode=mode, note=ref_note(note, skipped)))
    sk = boolean_skeleton(A, window)
    bad = [{"witness": {"x": A.token(b)}, "value": format_dual(s.raw_value(b))} for b in sk.elements
           if s.raw_value(b)[1] != 0]
    report.add(verdict("skeleton-standard", bad, mode=mode))
    return report


def ref_hyperstate_properties(A, s, window=WINDOW):
    require_ibp0(A, window)
    report = ValidationReport(subject="hyperstate-properties")
    mode = scan_mode(A, window)
    carrier, index, rows, note = ref_pair_rows(A, window)
    raws = [s.raw_value(a) for a in carrier]
    try:
        duals = [DualRational(r, i) for r, i in raws]
    except ValueError as exc:
        raise PreconditionError(f"not a hyperstate on this window: {exc}") from exc

    bad, skipped, T = [], 0, twin(A)
    for a, (std, inf) in zip(carrier, raws):
        k = index.get(T.neg(a))
        if k is None:
            skipped += 1
        elif raws[k] != (1 - std, -inf):
            bad.append({"witness": {"x": A.token(a)}, "lhs": format_dual(raws[k]),
                        "rhs": format_dual((1 - std, -inf))})
    report.add(verdict("negation-law", bad, mode=mode,
                       note=f"{skipped} negations left the window" if skipped else ""))

    bad = [pair(A, carrier, i, j, format_dual(raws[i]), format_dual(raws[j]))
           for i, j, _, _, _, _, leq, _, _ in rows if leq and raws[i] > raws[j]]
    report.add(verdict("monotone", bad, mode=mode, note=note))

    bad, skipped = [], 0
    for i, j, _, ko, _, _, _, orthogonal, _ in rows:
        if not orthogonal:
            continue
        if ko is None:
            skipped += 1
        elif raws[ko] != plus(raws[i], raws[j]):
            bad.append(pair(A, carrier, i, j, format_dual(raws[ko]), format_dual(plus(raws[i], raws[j]))))
    report.add(verdict("orthogonal-additivity", bad, mode=mode, note=ref_note(note, skipped)))

    bad, skipped = [], 0
    for i, j, kt, _, _, _, _, _, complementary in rows:
        if not complementary:
            continue
        if kt is None:
            skipped += 1
            continue
        want = mv_otimes(duals[i], duals[j])
        if duals[kt] != want:
            bad.append(pair(A, carrier, i, j, str(duals[kt]), str(want)))
    report.add(verdict("complementary-multiplicativity", bad, mode=mode, note=ref_note(note, skipped)))

    bad, skipped = [], 0
    for i, j, _, _, km, kj, _, _, _ in rows:
        if km is None or kj is None:
            skipped += 1
            continue
        lhs, rhs = plus(raws[km], raws[kj]), plus(raws[i], raws[j])
        if lhs != rhs:
            bad.append(pair(A, carrier, i, j, format_dual(lhs), format_dual(rhs)))
    report.add(verdict("valuation", bad, mode=mode, note=ref_note(note, skipped)))

    sk = boolean_skeleton(A, window)
    restriction = RefMeasure(sk, [s.raw_value(atom)[0] for atom in sk.atoms])
    report.merge(ref_validate_probability(sk, restriction), prefix="measure-")
    bad = [{"witness": {"x": A.token(b)}, "lhs": format_dual(s.raw_value(b)),
            "rhs": format_dual((restriction.value(b), F(0)))}
           for b in sk.elements if s.raw_value(b) != (restriction.value(b), F(0))]
    report.add(verdict("skeleton-restriction", bad, mode=mode))
    rad = radical(A, window)
    bad = [{"witness": {"x": A.token(x)}, "value": format_dual(s.raw_value(x))}
           for x in rad.elements if s.raw_value(x)[0] != 1]
    report.add(verdict("radical-standard-part", bad, mode=mode))
    bad = [{"witness": {"x": A.token(x)}, "value": format_dual(s.raw_value(x))}
           for x in coradical(A, window) if s.raw_value(x)[0] != 0]
    report.add(verdict("coradical-standard-part", bad, mode=mode))
    induced = TableState({h: s.raw_value(rad.from_hoop(h))[1] for h in rad.hoop.carrier(window)})
    report.merge(ref_validate_state(rad.hoop, induced, window), prefix="induced-")
    return report


class RefMeasure:
    """A probability measure as its atoms' Fraction weights, read as
    ProbabilityMeasure reads them; p(b) sums the weights of the atoms that the
    order puts below b."""

    def __init__(self, skeleton, weights):
        self.skeleton, atoms = skeleton, skeleton.atoms
        if isinstance(weights, dict):
            self.weights = tuple(F(weights.get(i, weights.get(str(i), 0))) for i in range(len(atoms)))
        else:
            self.weights = tuple(map(F, weights))

    def value(self, b):
        A = self.skeleton.algebra
        return sum((w for a, w in zip(self.skeleton.atoms, self.weights) if A.leq(a, b)), F(0))


def ref_validate_probability(B, p):
    A = twin(B.algebra)
    report = ValidationReport(subject="probability")
    vals = {b: p.value(b) for b in B.elements}
    bad = [{"witness": {"x": A.token(b)}, "value": str(v)} for b, v in vals.items() if not 0 <= v <= 1]
    report.add(verdict("range", bad))
    total = sum(p.weights, F(0))
    bad = []
    if total != 1 or vals[A.top] != 1:
        bad = [{"witness": {"x": A.token(A.top)}, "lhs": str(total), "rhs": "1"}]
    report.add(verdict("normalization", bad))
    bad = []
    for b1, b2 in product(B.elements, repeat=2):
        if A.meet(b1, b2) == A.bot and vals[A.join(b1, b2)] != vals[b1] + vals[b2]:
            bad.append({"witness": {"x": A.token(b1), "y": A.token(b2)},
                        "lhs": str(vals[A.join(b1, b2)]), "rhs": str(vals[b1] + vals[b2])})
    report.add(verdict("additivity", bad))
    return report


def ref_validate_state(H, w, window=WINDOW):
    report = ValidationReport(subject="state")
    elems, H = H.carrier(window), twin(H)
    mode = scan_mode(H, window)
    values = {x: F(w.value(x)) for x in elems}
    bad = [{"witness": {"x": H.token(x)}, "value": str(v)} for x, v in values.items() if v > 0]
    report.add(verdict("codomain-nonpositive", bad, mode=mode))
    top_val = values[H.top]
    bad = [] if top_val == 0 else [{"witness": {"x": H.token(H.top)}, "value": str(top_val)}]
    report.add(verdict("v1-unit", bad, mode=mode))
    base = stride_select(elems, PAIR_BASE_CAP)
    note = sampled_note(SAMPLED_NOTE, base, elems)
    bad = []
    for x, y in product(base, repeat=2):
        xy = H.times(x, y)
        if xy in values and values[xy] != values[x] + values[y]:
            bad.append({"witness": {"x": H.token(x), "y": H.token(y)},
                        "lhs": str(values[xy]), "rhs": str(values[x] + values[y])})
    report.add(verdict("v2-additive", bad, mode=mode, note=note))
    bad = [{"witness": {"x": H.token(x), "y": H.token(y)}, "lhs": str(values[x]), "rhs": str(values[y])}
           for x, y in product(base, repeat=2) if H.leq(x, y) and values[x] > values[y]]
    report.add(verdict("v3-monotone", bad, mode=mode, note=note))
    return report


def ref_state_properties(H, w, window=WINDOW):
    flags = validate_semihoop(H, window).flags
    report = ValidationReport(subject="state-properties", flags=dict(flags))
    H = twin(H)
    mode = scan_mode(H, window)
    elems = H.carrier(window)
    base = stride_select(elems, PAIR_BASE_CAP)
    note = sampled_note(SAMPLED_NOTE, base, elems)
    pairs = list(product(base, repeat=2))

    @cache
    def wv(x):
        return F(w.value(x))

    if flags.get("prelinear"):
        bad = []
        for x, y in pairs:
            lhs = wv(H.meet(x, y)) + wv(H.join(x, y))
            rhs = wv(x) + wv(y)
            if lhs != rhs:
                bad.append({"witness": {"x": H.token(x), "y": H.token(y)}, "lhs": str(lhs), "rhs": str(rhs)})
        report.add(verdict("valuation", bad, mode=mode, note=note))
    if flags.get("basic"):
        bad = []
        for x, y in pairs:
            lhs = wv(x) + wv(H.impl(x, y))
            rhs = wv(y) + wv(H.impl(y, x))
            if lhs != rhs:
                bad.append({"witness": {"x": H.token(x), "y": H.token(y)}, "lhs": str(lhs), "rhs": str(rhs)})
        report.add(verdict("bosbach", bad, mode=mode, note=note))
    if flags.get("divisible"):
        bad = []
        for x, y in pairs:
            if H.leq(x, y) and wv(x) > wv(y):
                bad.append({"witness": {"x": H.token(x), "y": H.token(y)}, "lhs": str(wv(x)), "rhs": str(wv(y))})
        report.add(verdict("monotone-derived", bad, mode=mode, note=note))
    return report


def ref_k_leq(T, e1, e2) -> bool:
    """[x1, y1] <= [x2, y2] in a cone's envelope: x1 + y2 <= y1 + x2, on the twin T."""
    return T.leq(T.add(e1.pos, e2.neg), T.add(e1.neg, e2.pos))


def ref_state_to_kgroup_state(H, w, window=WINDOW):
    K, T = k_envelope(H)[0], twin(H)
    h = lambda x: KElement(T.add(x, x), x)
    sigma = KGroupState(K=K, h=h, state=w)
    if K.mode == "finite-quotient":
        for members in witness_classes(H):
            vals = {KElement(*p): sigma.value(KElement(*p)) for p in members}
            if len(set(vals.values())) > 1:
                raise InternalConsistencyError(f"σ̂ not constant on a class: {vals}")
    elems = H.carrier(window)
    for x in elems:
        if sigma.value(h(x)) != F(w.value(x)):
            raise InternalConsistencyError(f"σ̂(h(x)) != w(x) at x = {H.token(x)}")
    base = stride_select(elems, SIGMA_BASE_CAP)
    candidates = [KElement(a, b) for a, b in product(base, repeat=2)]
    zero = K.zero()

    def positive(e):
        if K.mode == "symbolic":
            return ref_k_leq(T, zero, e)
        return leq_witness(H, (zero.pos, zero.neg), (e.pos, e.neg)) is not None

    for e in candidates:
        if positive(e) and sigma.value(e) < 0:
            raise InternalConsistencyError(f"σ̂ negative on a positive element [{H.token(e.pos)},{H.token(e.neg)}]")
    for e1, e2 in zip(candidates, reversed(candidates)):
        if sigma.value(KElement(T.add(e1.pos, e2.pos), T.add(e1.neg, e2.neg))) != sigma.value(e1) + sigma.value(e2):
            raise InternalConsistencyError("σ̂ not additive")
    return sigma


# ---------------------------------------------------------------------------
# Agreement


def rows(report):
    return [(c.axiom, c.passed, c.violations, c.witnesses, c.note, c.mode, c.required) for c in report.checks]


def outcome(check, *args):
    """The report rows, or the type and message of what the call raised."""
    try:
        return rows(check(*args))
    except (PreconditionError, InternalConsistencyError) as exc:
        return (type(exc), str(exc))


def assert_hyperstate_agrees(A, s):
    assert outcome(validate_hyperstate, A, s, WINDOW) == outcome(ref_validate_hyperstate, A, s)
    assert outcome(hyperstate_properties, A, s, WINDOW) == outcome(ref_hyperstate_properties, A, s)


def assert_state_agrees(H, w, window=WINDOW):
    assert rows(validate_state(H, w, window)) == rows(ref_validate_state(H, w, window))


def assert_properties_agree(H, w, window=WINDOW):
    """The two reports agree, and how many of their checks failed."""
    new, ref = state_properties(H, w, window), ref_state_properties(H, w, window)
    assert (rows(new), new.flags) == (rows(ref), ref.flags)
    return len(new.failures())


def assert_sigma_agrees(H, w, window=WINDOW):
    def run(f):
        try:
            f(H, w, window)
            return None
        except InternalConsistencyError as exc:
            return str(exc)

    assert run(state_to_kgroup_state) == run(ref_state_to_kgroup_state)


@pytest.fixture
def dtypes(monkeypatch):
    """The dtype of every table that exact_table reads for semihoop, and of
    every integer column states reads its measures into, in the test; a
    table put in form by lowest does not pass through either."""
    seen = []

    def spied(real):
        def spy(rows, terms=2):
            out = real(rows, terms)
            seen.append((out[0] if isinstance(out, tuple) else out).dtype)
            return out

        return spy

    monkeypatch.setattr(states, "integers", spied(integers))
    monkeypatch.setattr(semihoop, "exact_table", spied(exact_table))
    return seen


@pytest.mark.parametrize("name", list(SINGLES))
def test_generated_family_agrees(name, dtypes):
    A = SINGLES[name]
    family = hyperstate_family(A, WINDOW)
    for p, w in family:
        s, _ = join_hyperstate(A, p, w, WINDOW)
        assert_hyperstate_agrees(A, s)
    assert dtypes and all(d == np.int64 for d in dtypes)


class RawValues:
    """A bare raw-value map, which may leave the interval."""

    def __init__(self, raw):
        self.raw = raw

    def raw_value(self, a):
        return self.raw[a]

    def table(self, A, window):
        """The table of any raw-value map: its values at the frame's elements
        read into exact_table."""
        return exact_table([self.raw_value(a) for a in states._frame(A, window).elements])


def perturbed(A, s, every: int) -> TableHyperstate:
    """s as a table, with every ``every``-th value moved inside the interval."""
    shift = F(1, 3)
    table = {}
    for k, a in enumerate(A.carrier(WINDOW)):
        std, inf = s.raw_value(a)
        if k % every == 0:
            std, inf = (std, inf - shift) if std == 1 else (std / 2, inf + shift)
        table[a] = DualRational(std, inf)
    return TableHyperstate(table)


@pytest.mark.parametrize("name", ["chang-1", "chang-2", "boolean-8", "rot-godel-4"])
def test_perturbed_tables_agree(name):
    A = SINGLES[name]
    family = hyperstate_family(A, WINDOW)
    p, w = family[len(family) // 2]
    s, report = join_hyperstate(A, p, w, WINDOW)
    assert report.ok
    for every in (1, 5, 7):
        t = perturbed(A, s, every)
        assert not validate_hyperstate(A, t, WINDOW).ok
        assert_hyperstate_agrees(A, t)
    # A value outside the interval fails the codomain and is refused by the
    # property suite, with the same message on both sides.
    raw = {a: s.raw_value(a) for a in A.carrier(WINDOW)}
    outside = dict(raw)
    outside[A.carrier(WINDOW)[-2]] = (F(3, 2), F(0))
    t = RawValues(outside)
    assert not validate_hyperstate(A, t, WINDOW).check("codomain").passed
    assert_hyperstate_agrees(A, t)


@pytest.mark.parametrize("rank, lam", [(1, [-1]), (1, [F(-1, 2)]), (2, [1, -2]), (2, [F(-1, 3), F(5, 2)])])
def test_wrong_sign_cone_states_agree(rank, lam):
    A = chang_algebra(rank)
    rad = radical(A, WINDOW)
    w = ConeState(lam)
    assert not validate_state(rad.hoop, w, WINDOW).ok
    assert_state_agrees(rad.hoop, w)
    assert_sigma_agrees(rad.hoop, w)
    p = measure_family(boolean_skeleton(A, WINDOW))[0]
    assert_hyperstate_agrees(A, FormulaHyperstate(A, p, w, WINDOW))


def test_shifted_table_states_agree():
    for H, w, window in ((lukasiewicz_hoop(5), None, WINDOW), (cone_hoop(2), ConeState([1, F(2, 3)]), 5)):
        elems = H.carrier(window)
        values = {x: w.value(x) if w else F(0) for x in elems}
        for victim in (elems[1], elems[len(elems) // 2], H.top):
            shifted = dict(values)
            shifted[victim] += F(1, 7)
            w = TableState(shifted)
            assert not validate_state(H, w, window).ok
            assert_state_agrees(H, w, window)
            if H.is_finite:
                assert_sigma_agrees(H, w, window)


def shifted(H, w, window, victim):
    """w as a table over the window, moved by 1/7 at ``victim``."""
    values = {x: F(w.value(x)) for x in H.carrier(window)}
    values[victim] += F(1, 7)
    return TableState(values)


def test_state_properties_agree_on_the_semihoop_corpus():
    failed = 0
    for H in semihoop_corpus().values():
        elems = H.carrier(WINDOW)
        for w in (zero_state(H), shifted(H, zero_state(H), WINDOW, elems[len(elems) // 2])):
            failed += assert_properties_agree(H, w)
    assert failed


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("window", [3, 8])
def test_state_properties_agree_on_cones(rank, window):
    H = cone_hoop(rank)
    valid = ConeState([F(k + 1, 2) for k in range(rank)])
    wrong = ConeState([-1] + [F(1, 3)] * (rank - 1))
    assert assert_properties_agree(H, valid, window) == 0
    assert assert_properties_agree(H, wrong, window) > 0


@pytest.mark.parametrize("name", list(hyperstate_product_corpus()))
def test_state_properties_agree_on_product_radicals(name):
    H = radical(hyperstate_product_corpus()[name], WINDOW).hoop
    rank = symbolic_rank(H)
    if rank:
        states = [weighted_state(H, [F(k + 1, 3) for k in range(rank)]),
                  weighted_state(H, [F(-1, 2)] + [F(2)] * (rank - 1))]
    else:
        states = [zero_state(H), shifted(H, zero_state(H), WINDOW, H.carrier(WINDOW)[1])]
    assert assert_properties_agree(H, states[0]) == 0
    assert assert_properties_agree(H, states[1]) > 0


def test_one_pair_context_per_hoop_and_window(monkeypatch):
    # validate_state, state_properties and a hyperstate's induced-* laws all
    # read the one pair context of the radical hoop's window.
    A = chang_algebra(1)
    H, built = radical(A, WINDOW).hoop, []
    real = semihoop.pair_columns
    monkeypatch.setattr(semihoop, "pair_columns", lambda B, elems, *args: built.append((B, len(elems)))
                        or real(B, elems, *args))
    p, w = hyperstate_family(A, WINDOW)[-1]
    s, report = join_hyperstate(A, p, w, WINDOW)
    assert report.ok and validate_state(H, w, WINDOW).ok and state_properties(H, w, WINDOW).ok
    assert hyperstate_properties(A, s, WINDOW).ok
    assert built == [(H, len(H.carrier(WINDOW)))]


def test_state_properties_say_what_their_pairs_sampled():
    # 169 window elements: both reports scan the same 128-strided pairs, and say so.
    H, w = cone_hoop(2), ConeState([1, F(1, 2)])
    note = validate_state(H, w, 12).check("v2-additive").note
    assert note == "axis sampled 128 of 169 window elements"
    assert [c.note for c in state_properties(H, w, 12).checks] == [note] * 3


class Gapped(semihoop.FiniteSemihoop):
    """A finite hoop whose window leaves out some of its elements."""

    def __init__(self, H, window):
        super().__init__(H.times_table.tolist(), H.impl_table.tolist(), H.meet_table.tolist(), H.top)
        self.window = window

    def carrier(self, window):
        return self.window


def test_results_outside_the_window_are_never_compared():
    # In Lukasiewicz-5 seen as {0, 1, 4}, 1 → 0 = 3 leaves the window; in
    # godel-2x3 seen as {0, 1, 3, 5}, 1 ∨ 3 = 4 does, and seen as {1, 3, 4, 5},
    # 1 ∧ 3 = 0.  Read at position -1, each would be w(top) = 0 and fail its law.
    godel = semihoop_corpus()["godel-2x3"]
    for H, window, law in ((lukasiewicz_hoop(5), [0, 1, 4], "bosbach"), (godel, [0, 1, 3, 5], "valuation"),
                           (godel, [1, 3, 4, 5], "valuation")):
        G = Gapped(H, window)
        w = TableState({x: F(x - H.top, H.top) for x in range(H.size)})
        assert state_properties(G, w).check(law).passed


def test_valid_states_agree_through_sigma():
    for rank, lam in ((1, [F(3, 2)]), (2, [2, F(1, 3)]), (3, [1, 0, F(1, 2)])):
        assert_sigma_agrees(cone_hoop(rank), ConeState(lam), 6)


def test_the_sigma_frame_of_a_symbolic_radical_reads_tables(monkeypatch):
    # On a fresh chang-2 radical the frame's sums and its positive mask are
    # columns of tables(H): no k_leq and no scalar op call builds them.
    H = radical(chang_algebra(2), WINDOW).hoop
    calls = spy_scalar_ops(monkeypatch)
    # semihoop does not import k_leq, so a call would go through lmonoid's.
    assert not hasattr(semihoop, "k_leq")
    monkeypatch.setattr(lmonoid, "k_leq", lambda *args: calls.append(("lmonoid", "k_leq")))
    f = semihoop._sigma_frame(H, WINDOW)
    assert calls == []
    monkeypatch.undo()
    K, T = f.K, twin(H)
    assert f.positive.tolist() == [ref_k_leq(T, K.zero(), KElement(a, b)) for a, b in product(f.base, repeat=2)]
    assert 0 < f.positive.sum() < len(f.positive)
    assert [f.reads[i] for i in f.at["doubles"]] == [T.add(x, x) for x in f.elems]
    for w in (ConeState([1, F(1, 3)]), ConeState(BIG), ConeState([-1, 1])):
        assert_sigma_agrees(H, w)


def test_measures_agree():
    for name in ("boolean-4", "boolean-8", "chang-2"):
        sk = boolean_skeleton(SINGLES[name], WINDOW)
        k = len(sk.atoms)
        for weights in ([F(1, k)] * k, [F(-1, 3)] + [F(4, 3 * max(k - 1, 1))] * (k - 1), [F(1, 2)] * k):
            p = ProbabilityMeasure(sk, weights)
            assert rows(validate_probability(sk, p)) == rows(ref_validate_probability(sk, p))


def move_one_value(monkeypatch, victim):
    """p(victim) moved up by 1/den after the atom sums, in ProbabilityMeasure
    and in RefMeasure alike: a measure is summed from its atoms, so this is
    the one way its additivity can fail."""
    column, value = ProbabilityMeasure.column, RefMeasure.value

    def moved_column(self, elements):
        V, den = column(self, elements)
        return V + np.array([b == victim for b in elements], dtype=bool), den

    def moved_value(self, b):
        return value(self, b) + (F(1, math.lcm(*(w.denominator for w in self.weights))) if b == victim else 0)

    monkeypatch.setattr(ProbabilityMeasure, "column", moved_column)
    monkeypatch.setattr(RefMeasure, "value", moved_value)


def test_a_moved_measure_value_fails_additivity_as_the_reference_does(monkeypatch):
    sk = boolean_skeleton(SINGLES["boolean-8"], WINDOW)
    move_one_value(monkeypatch, sk.atoms[0])
    p = ProbabilityMeasure(sk, [F(1, 3)] * len(sk.atoms))
    report = validate_probability(sk, p)
    assert [c.axiom for c in report.failures()] == ["additivity"]
    assert rows(report) == rows(ref_validate_probability(sk, RefMeasure(sk, p.weights)))


def test_a_moved_restriction_value_fails_measure_additivity_as_the_reference_does(monkeypatch):
    A = SINGLES["boolean-8"]
    s, report = join_hyperstate(A, *hyperstate_family(A, WINDOW)[0], WINDOW)
    assert report.ok
    move_one_value(monkeypatch, boolean_skeleton(A, WINDOW).atoms[-1])
    measure_rows = lambda r: [row for row in rows(r) if row[0].startswith("measure-")]
    ours = hyperstate_properties(A, s, WINDOW)
    assert not ours.check("measure-additivity").passed
    assert measure_rows(ours) == measure_rows(ref_hyperstate_properties(A, s))


def test_a_standard_part_at_a_coradical_element_agrees():
    A = SINGLES["chang-1"]
    s, report = join_hyperstate(A, *hyperstate_family(A, WINDOW)[0], WINDOW)
    assert report.ok
    table = {a: s.value(a) for a in states._frame(A, WINDOW).elements}
    victims = coradical(A, WINDOW)[1:3]
    for victim in victims:
        table[victim] = DualRational(F(1, 2), F(0))
    t = TableHyperstate(table)
    check = hyperstate_properties(A, t, WINDOW).check("coradical-standard-part")
    assert [w["witness"]["x"] for w in check.witnesses] == [A.token(x) for x in victims]
    assert_hyperstate_agrees(A, t)


def test_each_law_reads_its_context_once_per_algebra_and_window(monkeypatch):
    # Two property suites on one (A, window) with different s evaluate each
    # law's scope once: what a law compares is kept on its context, so a
    # suite costs per law only its sides, one comparison, one & and one any().
    A, calls = SINGLES["chang-1"], Counter()

    def spied(law):
        scope = law.scope or (lambda c: np.ones(len(c.x), dtype=bool))
        return law._replace(scope=lambda c: calls.update([law.name]) or scope(c))

    lists = [(states, "PROPERTY_LAWS"), (states, "PART_LAWS"), (states, "MEASURE_LAWS"), (semihoop, "STATE_LAWS")]
    for module, name in lists:
        monkeypatch.setattr(module, name, [spied(law) for law in getattr(module, name)])
    for p, w in hyperstate_family(A, WINDOW)[:2]:
        s, report = join_hyperstate(A, p, w, WINDOW)
        assert report.ok and hyperstate_properties(A, s, WINDOW).ok
    assert calls == Counter(law.name for module, name in lists for law in getattr(module, name))
    assert set(calls.values()) == {1}


MEASURE_WEIGHTS = st.one_of(
    st.sampled_from([F(0), F(1), F(-1, 3), F(3, 2), F(2**64 + 1, 3), F(-(2**70), 2**65 + 1)]),
    st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**66)),
    st.builds(F, st.integers(-2, 9), st.integers(1, 6)),
)


@st.composite
def measure_draws(draw):
    """A skeleton of boolean-2, -4 or -8 and weights for its atoms, as a list
    or as a map from atom index (an int or its string) to weight.  Some draws
    are measures, nonnegative and summing to 1, over a denominator past 2^63
    or not; the others have any sign and sum."""
    sk = boolean_skeleton(SINGLES[draw(st.sampled_from(["boolean-2", "boolean-4", "boolean-8"]))], WINDOW)
    k = len(sk.atoms)
    if draw(st.integers(0, 2)) == 0:
        parts = draw(st.lists(st.integers(0, 2**66), min_size=k, max_size=k).filter(any))
        weights = [F(n, sum(parts)) for n in parts]
    else:
        weights = draw(st.lists(MEASURE_WEIGHTS, min_size=k, max_size=k))
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(range(k)), unique=True))
        weights = {draw(st.sampled_from([i, str(i)])): weights[i] for i in keys}
    return sk, weights


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(measure_draws(), measure_draws(), st.integers(1, 2**64))
def test_the_integer_measure_agrees_with_fraction_weights(first, second, scale):
    (sk, weights), (sk2, weights2) = first, second
    p, ref = ProbabilityMeasure(sk, weights), RefMeasure(sk, weights)
    assert p.weights == ref.weights and all(type(w) is F for w in p.weights)
    assert p == ProbabilityMeasure(sk, list(ref.weights))
    assert [p.value(b) for b in sk.elements] == [ref.value(b) for b in sk.elements]
    col, den = p.column(sk.elements)
    assert den == math.lcm(*(w.denominator for w in ref.weights))
    assert [F(n, den) for n in col.tolist()] == [ref.value(b) for b in sk.elements]
    assert repr(p) == f"ProbabilityMeasure({', '.join(map(str, ref.weights))})"
    q = ProbabilityMeasure(sk2, weights2)
    assert (p == q) == (ref.weights == RefMeasure(sk2, weights2).weights and sk.atoms == sk2.atoms)
    assert ProbabilityMeasure.over(sk, [n * scale for n in p.nums], p.den * scale) == p
    assert rows(validate_probability(sk, p)) == rows(ref_validate_probability(sk, ref))


# ---------------------------------------------------------------------------
# Exactness past int64

BIG = [F(1, 2**61 - 1), F(1, 2**31 - 1)]


def test_denominators_past_int64_take_object_tables(dtypes):
    A = chang_algebra(2)
    rad = radical(A, WINDOW)
    w = ConeState(BIG)
    p = measure_family(boolean_skeleton(A, WINDOW))[0]
    s, report = join_hyperstate(A, p, w, WINDOW)
    assert report.ok
    assert_hyperstate_agrees(A, s)
    assert_state_agrees(rad.hoop, w)
    assert_sigma_agrees(rad.hoop, w)
    # Every table holding values of w is an object table: w's own column,
    # read for two terms and for four, s's window table and the validators'.
    hoop = rad.hoop.carrier(WINDOW)
    assert w.table(hoop)[0].dtype == object and w.table(hoop, terms=4)[0].dtype == object
    assert s.table(A, WINDOW)[0].dtype == object
    assert states._values(A, s, WINDOW).rows.dtype == object
    # A planted failure is still seen exactly: 2^-92 off at one element.
    raw = {a: s.raw_value(a) for a in A.carrier(WINDOW)}
    victim = A.carrier(WINDOW)[-3]
    raw[victim] = (raw[victim][0], raw[victim][1] - F(1, (2**61 - 1) * (2**31 - 1)))
    t = RawValues(raw)
    assert not validate_hyperstate(A, t, WINDOW).ok
    assert_hyperstate_agrees(A, t)
    assert all(d.kind != "f" for d in dtypes)


def test_sums_past_int64_take_object_tables(dtypes):
    # Each value fits int64, but 3·2^61 + 3·2^61 does not: in int64 it
    # wraps to -2^62, the value at x·x = 1, and the violation would vanish.
    H = lukasiewicz_hoop(4)
    assert H.times(2, 2) == 1
    w = TableState({0: 0, 1: -(2**62), 2: 3 * 2**61, 3: 0})
    report = validate_state(H, w)
    assert report.check("v2-additive").violations > 0
    assert_state_agrees(H, w)
    assert dtypes == [object, object]
    # Just inside the bound every sum of two values fits, and int64 is used.
    w = TableState({0: 0, 1: -(2**62 - 1), 2: 2**62 - 1, 3: 0})
    assert_state_agrees(H, w)
    assert dtypes[-1] == np.int64
    assert all(d.kind != "f" for d in dtypes)


def test_exact_table_bound():
    half = INT64_MAX // 2
    assert exact_table([(half,)])[0].dtype == np.int64
    assert exact_table([(-half,)])[0].dtype == np.int64
    assert exact_table([(half + 1,)])[0].dtype == object
    assert exact_table([(INT64_MAX // 4,)], terms=4)[0].dtype == np.int64
    assert exact_table([(INT64_MAX // 4 + 1,)], terms=4)[0].dtype == object
    # The common denominator counts as an entry.
    assert exact_table([(F(1, half + 1),)])[0].dtype == object
    table, den = exact_table([(F(1, 2), F(-1, 3)), (2, F(5, 6))])
    assert den == 6
    assert table.tolist() == [[3, -2], [12, 5]]


# Entries of either width, -2^63 among them, and denominators past int64.
ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-(2**63), INT64_MAX), st.just(-(2**63)),
                    st.integers(-(2**70), 2**70))
DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 2**70))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 2).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.lists(ENTRIES, min_size=k, max_size=k),
                                                                            max_size=6))),
       DENOMINATORS, st.booleans(), st.sampled_from([2, 4]))
# An empty column, and an all-zero one, over the denominator of Fraction(1, 2^63):
# the gcd is the denominator itself, past int64.
@example((1, []), 2**63, False, 2)
@example((1, [[0], [0]]), 2**63, False, 2)
def test_lowest_is_exact_tables_form(drawn, den, as_object, terms):
    # lowest gives exact_table's numerators, denominator and dtype, from a
    # 1-D or 2-D array of either width.
    k, rows = drawn
    fits = all(-(2**63) <= n <= INT64_MAX for row in rows for n in row)
    nums = np.array(rows, dtype=np.int64 if fits and not as_object else object).reshape(len(rows), k)
    want, want_den = exact_table([[F(n, den) for n in row] for row in rows], terms)
    for given_nums in [nums, nums[:, 0]] if k == 1 else [nums]:
        got, got_den = lowest(given_nums, den, terms)
        assert (got.shape, got.dtype, got_den) == (given_nums.shape, want.dtype, want_den)
        assert got.reshape(-1).tolist() == want.reshape(-1).tolist()


# Numerator rows as exact tables hold them: inf past int64, all inf 0 (B = 0),
# and std below 0 or above den, as in maps that fail the codomain check.
PARTS = st.one_of(st.integers(-3, 12), st.integers(-(2**70), 2**70), st.just(-(2**63)))
ROWS = st.lists(st.tuples(PARTS, st.one_of(st.just(0), PARTS)), min_size=1, max_size=6)


@settings(deadline=None, max_examples=300)
@given(ROWS, DENOMINATORS, st.booleans(), st.booleans())
# Sums of two rows whose inf parts differ by 4B: (0, 2) and (1, -2) over B = 1.
@example([(0, 1), (1, -1), (0, -1)], 1, False, False)
@example([(0, 0), (3, 0)], 2, False, True)
def test_packed_keys_compare_and_add_as_rows(rows, den, as_object, zero_inf):
    # Every key, sum of two keys, the key of 1 and 0 compares with every
    # other exactly as the rows do lexicographically; the clamp
    # max(x + y - 1, 0) is the lexicographic one; every such key decodes.
    if zero_inf:
        rows = [(std, 0) for std, _ in rows]
    fits = all(-(2**63) <= n <= INT64_MAX for row in rows for n in row)
    keys, K = packed(np.array(rows, dtype=np.int64 if fits and not as_object else object), den)
    bound = max(den, *(abs(std) for std, _ in rows)) * K + max(abs(inf) for _, inf in rows)
    assert (keys.dtype == object) == (3 * bound > INT64_MAX)
    one = den * K
    x, y = (a.ravel() for a in np.indices((len(rows), len(rows))))
    # Sums as the laws take them: numpy additions of gathered keys.
    sums, clamped = keys.take(x) + keys.take(y), np.maximum(keys.take(x) + keys.take(y) - one, 0)
    plus = [(rows[i][0] + rows[j][0], rows[i][1] + rows[j][1]) for i, j in zip(x.tolist(), y.tolist())]
    terms = list(zip([*keys.tolist(), *sums.tolist(), one, 0], [*rows, *plus, (den, 0), (0, 0)]))
    for key, row in terms:
        assert unpacked(key, K) == row
        for other_key, other_row in terms:
            assert (key < other_key, key == other_key) == (row < other_row, row == other_row)
    for got, (std, inf) in zip(clamped.tolist(), plus):
        assert unpacked(got, K) == max((std - den, inf), (0, 0))
