"""Probability measures on Boolean skeletons and interval-valued states.

A hyperstate sends algebra elements into the lexicographic unit interval of
:mod:`.hypernum`: the bounds go to 0 and 1, s(x⊕y) + s(x·y) = s(x) + s(y)
with plain componentwise sums (never the truncated ⊕ of the interval), and
complemented elements take purely standard values.  Writing a = (b ∨ ¬c) ∧
(¬b ∨ c) for the skeleton part b and radical part c of a, every hyperstate
decomposes as

    s(a) = p(b) + ε·(w(¬b ∨ c) − w(b ∨ c))

with p a probability measure on the skeleton and w a semihoop state of the
radical.  The converse direction is not a theorem: join_hyperstate builds
the map from a (p, w) pair and always re-validates, so a pair that fails to
produce a hyperstate yields a failing report, never a silent wrong object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iterproduct
from typing import Any, Mapping

from ._scan import memo, sampled_note, scan_mode, stride_select
from .hypernum import DualRational, _rat, format_dual, interval_defect, mv_otimes, parse_dual
from .ibp0 import (
    Skeleton,
    boolean_skeleton,
    coradical,
    decompose_element,
    radical,
    require_ibp0,
)
from .reports import (
    InternalConsistencyError,
    MalformedInputError,
    PreconditionError,
    ValidationReport,
    verdict,
)
from .semihoop import (
    SAMPLED_NOTE,
    TableState,
    state_to_kgroup_state,
    validate_state,
    weight_generators,
    weighted_state,
)

# Pair scans over hyperstate values reuse each value many times, so the axis
# cap can sit below the semihoop one without losing much coverage.
HYPER_PAIR_CAP = 96


class ProbabilityMeasure:
    """Atom weights over a Boolean skeleton; p(b) sums the atoms below b."""

    def __init__(self, skeleton: Skeleton, weights):
        self.skeleton = skeleton
        atoms = skeleton.atoms
        if isinstance(weights, Mapping):
            vec = [Fraction(0)] * len(atoms)
            for key, value in weights.items():
                i = int(key)
                if not 0 <= i < len(atoms):
                    raise MalformedInputError(
                        f"weight for atom {i} but the skeleton has {len(atoms)} atoms"
                    )
                vec[i] = _rat(value)
        else:
            vec = [_rat(v) for v in weights]
            if len(vec) != len(atoms):
                raise MalformedInputError(f"{len(vec)} weights for {len(atoms)} atoms")
        self.weights = tuple(vec)

    def value(self, b) -> Fraction:
        A = self.skeleton.algebra
        total = Fraction(0)
        for atom, weight in zip(self.skeleton.atoms, self.weights):
            if A.leq(atom, b):
                total += weight
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProbabilityMeasure)
            and self.weights == other.weights
            and self.skeleton.atoms == other.skeleton.atoms
        )

    def __repr__(self) -> str:
        return f"ProbabilityMeasure({', '.join(str(w) for w in self.weights)})"


def validate_probability(B: Skeleton, p: ProbabilityMeasure) -> ValidationReport:
    """Normalization, additivity on disjoint pairs, and range, exhaustively.

    Skeletons are finite even when the ambient algebra is not, so every
    check here is exhaustive.
    """
    if B.algebra is None:
        raise MalformedInputError("skeleton carries no ambient algebra")
    if p.skeleton.atoms != B.atoms:
        raise MalformedInputError("measure was built over a different skeleton")
    A = B.algebra
    report = ValidationReport(subject="probability")
    vals = {b: p.value(b) for b in B.elements}

    bad = [
        {"witness": {"atom": A.token(a)}, "value": str(w)}
        for a, w in zip(B.atoms, p.weights)
        if w < 0
    ]
    bad += [
        {"witness": {"x": A.token(b)}, "value": str(v)}
        for b, v in vals.items()
        if not 0 <= v <= 1
    ]
    report.add(verdict("range", bad))

    total = sum(p.weights, Fraction(0))
    bad = []
    if total != 1 or vals[A.top] != 1:
        bad = [{"witness": {"x": A.token(A.top)}, "lhs": str(total), "rhs": "1"}]
    report.add(verdict("normalization", bad))

    bad = []
    for b1, b2 in iterproduct(B.elements, repeat=2):
        if A.meet(b1, b2) != A.bot:
            continue
        lhs = vals[A.join(b1, b2)]
        rhs = vals[b1] + vals[b2]
        if lhs != rhs:
            bad.append(
                {
                    "witness": {"x": A.token(b1), "y": A.token(b2)},
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }
            )
    report.add(verdict("additivity", bad))
    return report


# ---------------------------------------------------------------------------
# The two hyperstate representations


class TableHyperstate:
    """Explicit element → value table; the form every finite algebra uses."""

    def __init__(self, values: Mapping[Any, DualRational | str]):
        self._table = {
            k: v if isinstance(v, DualRational) else parse_dual(v)
            for k, v in values.items()
        }

    def value(self, a) -> DualRational:
        try:
            return self._table[a]
        except KeyError:
            raise MalformedInputError(f"hyperstate has no value for element {a!r}") from None

    def raw_value(self, a) -> tuple[Fraction, Fraction]:
        v = self.value(a)
        return (v.std, v.inf)

    def items(self):
        return self._table.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, TableHyperstate) and self._table == other._table


class FormulaHyperstate:
    """A (measure, radical state) pair evaluated through the split identity.

    Evaluation is total on the whole algebra, not just a window, because the
    decomposition maps and both components are.  Values are memoized; the
    validation scans below revisit the same elements thousands of times.
    """

    def __init__(self, A, p: ProbabilityMeasure, w, window: int = 8):
        if p.skeleton.algebra is not A:
            raise MalformedInputError("measure was built over a different algebra")
        self.algebra = A
        self.measure = p
        self.state = w
        self._rad = radical(A, window)
        self._memo: dict[Any, tuple[Fraction, Fraction]] = {}

    def raw_value(self, a) -> tuple[Fraction, Fraction]:
        got = self._memo.get(a)
        if got is None:
            A = self.algebra
            d = decompose_element(A, a)
            to_hoop = self._rad.to_hoop
            lo = to_hoop(A.join(A.neg(d.b), d.c))
            hi = to_hoop(A.join(d.b, d.c))
            got = (
                self.measure.value(d.b),
                _rat(self.state.value(lo)) - _rat(self.state.value(hi)),
            )
            self._memo[a] = got
        return got

    def value(self, a) -> DualRational:
        std, inf = self.raw_value(a)
        if interval_defect(std, inf):
            raise MalformedInputError(
                f"formula value escapes the interval at {self.algebra.token(a)}: "
                f"{format_dual((std, inf))}"
            )
        return DualRational(std, inf)


# ---------------------------------------------------------------------------
# Validation and the property suite

# Rows are (i, j, times, oplus, meet, join, leq, orthogonal, complementary)
# with element positions in the carrier, or None where an operation lands
# outside it (symbolic products can leave any finite window).


def _pair_context(A, window: int) -> dict[str, Any]:
    return memo(A, ("hyper-pairs", window), lambda: _build_pair_context(A, window))


def _build_pair_context(A, window: int) -> dict[str, Any]:
    carrier = A.carrier(window)
    index = {a: i for i, a in enumerate(carrier)}
    base = stride_select(carrier, HYPER_PAIR_CAP)
    rows = []
    for x in base:
        for y in base:
            times = A.times(x, y)
            oplus = A.oplus(x, y)
            rows.append(
                (
                    index[x],
                    index[y],
                    index.get(times),
                    index.get(oplus),
                    index.get(A.meet(x, y)),
                    index.get(A.join(x, y)),
                    A.leq(x, y),
                    times == A.bot,
                    oplus == A.top,
                )
            )
    note = sampled_note(SAMPLED_NOTE, base, carrier)
    return {"carrier": carrier, "index": index, "rows": rows, "note": note}


def _scan_note(ctx: dict[str, Any], skipped: int) -> str:
    bits = [ctx["note"]] if ctx["note"] else []
    if skipped:
        bits.append(f"{skipped} pairs left the window")
    return "; ".join(bits)


def validate_hyperstate(A, s, window: int = 8) -> ValidationReport:
    """Boundary values, pair additivity, and standard-valued skeleton.

    A map that is not total on the window carrier raises; a value outside
    the lexicographic interval is a failed check, because for the formula
    form that is a fact about the (p, w) pair, not about the input file.
    """
    require_ibp0(A, window)
    report = ValidationReport(subject="hyperstate")
    mode = scan_mode(A, window)
    ctx = _pair_context(A, window)
    carrier = ctx["carrier"]
    raws = [s.raw_value(a) for a in carrier]

    bad = [
        {"witness": {"x": A.token(a)}, "value": format_dual(r)}
        for a, r in zip(carrier, raws)
        if interval_defect(*r)
    ]
    report.add(verdict("codomain", bad, mode=mode))

    bad = []
    for element, expected in ((A.top, Fraction(1)), (A.bot, Fraction(0))):
        got = s.raw_value(element)
        if got != (expected, Fraction(0)):
            bad.append(
                {
                    "witness": {"x": A.token(element)},
                    "lhs": format_dual(got),
                    "rhs": format_dual((expected, Fraction(0))),
                }
            )
    report.add(verdict("boundary-values", bad, mode=mode))

    bad = []
    skipped = 0
    for i, j, kt, ko, _, _, _, _, _ in ctx["rows"]:
        if kt is None or ko is None:
            skipped += 1
            continue
        lhs = (raws[ko][0] + raws[kt][0], raws[ko][1] + raws[kt][1])
        rhs = (raws[i][0] + raws[j][0], raws[i][1] + raws[j][1])
        if lhs != rhs:
            bad.append(
                {
                    "witness": {"x": A.token(carrier[i]), "y": A.token(carrier[j])},
                    "lhs": format_dual(lhs),
                    "rhs": format_dual(rhs),
                }
            )
    note = _scan_note(ctx, skipped)
    report.add(verdict("pair-additivity", bad, mode=mode, note=note))

    sk = boolean_skeleton(A, window)
    bad = [
        {"witness": {"x": A.token(b)}, "value": format_dual(s.raw_value(b))}
        for b in sk.elements
        if s.raw_value(b)[1] != 0
    ]
    report.add(verdict("skeleton-standard", bad, mode=mode))
    return report


def hyperstate_properties(A, s, window: int = 8) -> ValidationReport:
    """The derived-property suite for an already validated hyperstate.

    Covers the negation law, monotonicity, additivity on orthogonal pairs,
    the truncated product on complementary pairs, the valuation law, the
    probability restriction, standard parts on radical and coradical, and
    the induced semihoop state.
    """
    require_ibp0(A, window)
    report = ValidationReport(subject="hyperstate-properties")
    mode = scan_mode(A, window)
    ctx = _pair_context(A, window)
    carrier = ctx["carrier"]
    index = ctx["index"]
    raws = [s.raw_value(a) for a in carrier]
    try:
        duals = [DualRational(r, i) for r, i in raws]
    except ValueError as exc:
        raise PreconditionError(f"not a hyperstate on this window: {exc}") from exc

    bad = []
    skipped = 0
    for a, (std, inf) in zip(carrier, raws):
        k = index.get(A.neg(a))
        if k is None:
            skipped += 1
            continue
        if raws[k] != (1 - std, -inf):
            bad.append(
                {
                    "witness": {"x": A.token(a)},
                    "lhs": format_dual(raws[k]),
                    "rhs": format_dual((1 - std, -inf)),
                }
            )
    note = f"{skipped} negations left the window" if skipped else ""
    report.add(verdict("negation-law", bad, mode=mode, note=note))

    bad = []
    for i, j, _, _, _, _, leq, _, _ in ctx["rows"]:
        if leq and raws[i] > raws[j]:
            bad.append(
                {
                    "witness": {"x": A.token(carrier[i]), "y": A.token(carrier[j])},
                    "lhs": format_dual(raws[i]),
                    "rhs": format_dual(raws[j]),
                }
            )
    report.add(verdict("monotone", bad, mode=mode, note=ctx["note"]))

    bad = []
    skipped = 0
    for i, j, _, ko, _, _, _, orthogonal, _ in ctx["rows"]:
        if not orthogonal:
            continue
        if ko is None:
            skipped += 1
            continue
        rhs = (raws[i][0] + raws[j][0], raws[i][1] + raws[j][1])
        if raws[ko] != rhs:
            bad.append(
                {
                    "witness": {"x": A.token(carrier[i]), "y": A.token(carrier[j])},
                    "lhs": format_dual(raws[ko]),
                    "rhs": format_dual(rhs),
                }
            )
    note = _scan_note(ctx, skipped)
    report.add(verdict("orthogonal-additivity", bad, mode=mode, note=note))

    bad = []
    skipped = 0
    for i, j, kt, _, _, _, _, _, complementary in ctx["rows"]:
        if not complementary:
            continue
        if kt is None:
            skipped += 1
            continue
        want = mv_otimes(duals[i], duals[j])
        if duals[kt] != want:
            bad.append(
                {
                    "witness": {"x": A.token(carrier[i]), "y": A.token(carrier[j])},
                    "lhs": str(duals[kt]),
                    "rhs": str(want),
                }
            )
    note = _scan_note(ctx, skipped)
    report.add(verdict("complementary-multiplicativity", bad, mode=mode, note=note))

    bad = []
    skipped = 0
    for i, j, _, _, km, kj, _, _, _ in ctx["rows"]:
        if km is None or kj is None:
            skipped += 1
            continue
        lhs = (raws[km][0] + raws[kj][0], raws[km][1] + raws[kj][1])
        rhs = (raws[i][0] + raws[j][0], raws[i][1] + raws[j][1])
        if lhs != rhs:
            bad.append(
                {
                    "witness": {"x": A.token(carrier[i]), "y": A.token(carrier[j])},
                    "lhs": format_dual(lhs),
                    "rhs": format_dual(rhs),
                }
            )
    note = _scan_note(ctx, skipped)
    report.add(verdict("valuation", bad, mode=mode, note=note))

    sk = boolean_skeleton(A, window)
    restriction = ProbabilityMeasure(sk, [s.raw_value(atom)[0] for atom in sk.atoms])
    report.merge(validate_probability(sk, restriction), prefix="measure-")
    bad = [
        {
            "witness": {"x": A.token(b)},
            "lhs": format_dual(s.raw_value(b)),
            "rhs": format_dual((restriction.value(b), Fraction(0))),
        }
        for b in sk.elements
        if s.raw_value(b) != (restriction.value(b), Fraction(0))
    ]
    report.add(verdict("skeleton-restriction", bad, mode=mode))

    rad = radical(A, window)
    bad = [
        {"witness": {"x": A.token(x)}, "value": format_dual(s.raw_value(x))}
        for x in rad.elements
        if s.raw_value(x)[0] != 1
    ]
    report.add(verdict("radical-standard-part", bad, mode=mode))
    bad = [
        {"witness": {"x": A.token(x)}, "value": format_dual(s.raw_value(x))}
        for x in coradical(A, window)
        if s.raw_value(x)[0] != 0
    ]
    report.add(verdict("coradical-standard-part", bad, mode=mode))

    induced = TableState(
        {h: s.raw_value(rad.from_hoop(h))[1] for h in rad.hoop.carrier(window)}
    )
    report.merge(validate_state(rad.hoop, induced, window), prefix="induced-")
    return report


# ---------------------------------------------------------------------------
# Split and join


@dataclass
class SplitResult:
    """Measure, radical state, and the per-element identity residuals
    (rendered pairs; all exactly "0+e0" or the split would have raised)."""

    p: ProbabilityMeasure
    w: Any
    residuals: dict[str, str]


def split_hyperstate(A, s, window: int = 8) -> SplitResult:
    """Read p off the skeleton atoms and the weights of w off the radical's
    weight generators, then verify that s agrees with the split identity,
    evaluated by FormulaHyperstate, at every window element.  A finite
    radical axis takes the zero state, its only state.

    A violation raises: for a map that passed validation this identity is
    forced, so a nonzero residual means the input lied about its structure
    or there is a bug on this side.
    """
    require_ibp0(A, window)
    sk = boolean_skeleton(A, window)
    rad = radical(A, window)

    weights = []
    for atom in sk.atoms:
        std, inf = s.raw_value(atom)
        if inf != 0:
            raise InternalConsistencyError(
                f"skeleton atom {A.token(atom)} carries infinitesimal part {inf}"
            )
        weights.append(std)
    p = ProbabilityMeasure(sk, weights)

    lam = [-s.raw_value(rad.from_hoop(g))[1] for g in weight_generators(rad.hoop)]
    w = weighted_state(rad.hoop, lam, window)
    formula = FormulaHyperstate(A, p, w, window)

    residuals: dict[str, str] = {}
    for a in A.carrier(window):
        got = s.raw_value(a)
        want = formula.raw_value(a)
        if got != want:
            raise InternalConsistencyError(
                f"split identity fails at {A.token(a)}: "
                f"s = {format_dual(got)}, split gives {format_dual(want)}"
            )
        residuals[A.token(a)] = format_dual((got[0] - want[0], got[1] - want[1]))
    return SplitResult(p=p, w=w, residuals=residuals)


def join_hyperstate(A, p: ProbabilityMeasure, w, window: int = 8):
    """Evaluate the split identity as a constructor and re-validate.

    Whether every (p, w) pair yields a hyperstate is open; the report is the
    empirical verdict for this algebra and window, and a failing one means
    the returned map is not a hyperstate there.
    """
    require_ibp0(A, window)
    s = FormulaHyperstate(A, p, w, window)
    return s, validate_hyperstate(A, s, window)


def cancellative_form(A, s, window: int = 8):
    """Express the infinitesimal layer through the envelope group.

    Requires a cancellative radical.  Returns (p, σ) with σ the envelope
    state induced from the split's w.  σ([¬b ∨ c, b ∨ c]) is w(¬b ∨ c) −
    w(b ∨ c) by definition, so the split identity gives the infinitesimal
    part of s.
    """
    require_ibp0(A, window)
    rad = radical(A, window)
    if not rad.report.flags.get("cancellative"):
        raise PreconditionError(
            "the radical is not cancellative, so it has no envelope-group form"
        )
    split = split_hyperstate(A, s, window)
    return split.p, state_to_kgroup_state(rad.hoop, split.w, window)
