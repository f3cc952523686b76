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
from functools import cache
from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np

from ._scan import exact_table, masked_verdict, memo, pair_columns, pair_verdict, scan_mode
from .hypernum import DualRational, _rat, format_dual, interval_defect, parse_dual
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
    """Atom weights over a Boolean skeleton; p(b) sums the atoms below b.

    The atoms below each skeleton element are kept once per skeleton
    (``Skeleton.below``), so a value is a sum of weights with no order test.
    """

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
        sk = self.skeleton
        below = sk.below.get(b)
        if below is None:
            below = [i for i, atom in enumerate(sk.atoms) if sk.algebra.leq(atom, b)]
        return sum((self.weights[i] for i in below), Fraction(0))

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

    # Every pair of the finite skeleton, whose joins stay in it.
    ctx = B.pairs
    table, den = exact_table([(v,) for v in vals.values()])
    V = table[:, 0]
    lhs, rhs = V[ctx.join], V[ctx.x] + V[ctx.y]
    bad = (ctx.meet == ctx.index[A.bot]) & (lhs != rhs)
    report.add(pair_verdict(A, ctx, "additivity", bad, lhs, rhs, lambda n: str(Fraction(int(n), den)), "exhaustive"))
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
    decomposition maps and both components are.  What depends on the algebra
    alone is kept once per (A, window) and shared by every pair: each
    element's triple (b_a, h(¬b_a ∨ c_a), h(b_a ∨ c_a)), with h the map into
    the radical's hoop, stored the first time any instance reads the
    element.  An element whose decomposition raises is never stored, so it
    raises on every read.  Each instance evaluates p once per skeleton
    element and w once per hoop element it reads, and memoizes its values,
    since the validators, the split and the CLI each read the whole window;
    a validator reads it once into an integer table, (std, inf) numerators
    over one common denominator, and checks every law on that table.
    """

    def __init__(self, A, p: ProbabilityMeasure, w, window: int = 8):
        if p.skeleton.algebra is not A:
            raise MalformedInputError("measure was built over a different algebra")
        self.algebra = A
        self.measure = p
        self.state = w
        self._rad = radical(A, window)
        self._parts: dict[Any, tuple] = memo(A, ("split-parts", window), dict)
        self._p = cache(p.value)
        self._w = cache(lambda h: _rat(w.value(h)))
        self._memo: dict[Any, tuple[Fraction, Fraction]] = {}

    def raw_value(self, a) -> tuple[Fraction, Fraction]:
        got = self._memo.get(a)
        if got is None:
            parts = self._parts.get(a)
            if parts is None:
                A, to_hoop = self.algebra, self._rad.to_hoop
                d = decompose_element(A, a)
                parts = self._parts[a] = (d.b, to_hoop(A.join(A.neg(d.b), d.c)), to_hoop(A.join(d.b, d.c)))
            b, lo, hi = parts
            got = self._memo[a] = (self._p(b), self._w(lo) - self._w(hi))
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

def _pair_context(A, window: int) -> SimpleNamespace:
    """The pairs the pair laws scan, with the positions of x·y, x ⊕ y, x ∧ y
    and x ∨ y and the truth of x ≤ y (see pair_columns), once per window."""
    return memo(A, ("hyper-pairs", window), lambda: pair_columns(
        A, A.carrier(window), HYPER_PAIR_CAP, SAMPLED_NOTE, ("times", "oplus", "meet", "join", "leq")))


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b on (std, inf) numerator rows."""
    return (a[:, 0] < b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] < b[:, 1]))


def _differ(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return (lhs != rhs).any(axis=1)


class _Values:
    """s over the window: one (std, inf) row of integer numerators per
    element, over the common denominator ``den``."""

    def __init__(self, s, elems):
        self.rows, self.den = exact_table([s.raw_value(a) for a in elems])

    def dual(self, row) -> str:
        return format_dual((Fraction(int(row[0]), self.den), Fraction(int(row[1]), self.den)))

    def defects(self) -> np.ndarray:
        """Where a value lies outside the interval (see interval_defect)."""
        std, inf = self.rows[:, 0], self.rows[:, 1]
        return (std < 0) | (std > self.den) | ((std == 0) & (inf < 0)) | ((std == self.den) & (inf > 0))


def _part_law(A, s, axiom: str, elements, part: int, want, mode: str):
    """The check that part ``part`` of s (0 standard, 1 infinitesimal) is
    ``want`` at each of ``elements``."""
    raws = [s.raw_value(x) for x in elements]
    return masked_verdict(
        axiom, np.array([r[part] != want for r in raws], dtype=bool),
        lambda k: {"witness": {"x": A.token(elements[k])}, "value": format_dual(raws[k])}, mode,
    )


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
    elems = ctx.elems
    v = _Values(s, elems)
    V = v.rows

    report.add(masked_verdict(
        "codomain", v.defects(), lambda k: {"witness": {"x": A.token(elems[k])}, "value": v.dual(V[k])}, mode
    ))

    ends = ((A.top, (Fraction(1), Fraction(0))), (A.bot, (Fraction(0), Fraction(0))))
    bad = [{"witness": {"x": A.token(e)}, "lhs": format_dual(s.raw_value(e)), "rhs": format_dual(want)}
           for e, want in ends if s.raw_value(e) != want]
    report.add(verdict("boundary-values", bad, mode=mode))

    inside = (ctx.times >= 0) & (ctx.oplus >= 0)
    lhs, rhs = V[ctx.oplus] + V[ctx.times], V[ctx.x] + V[ctx.y]
    bad = inside & _differ(lhs, rhs)
    report.add(pair_verdict(A, ctx, "pair-additivity", bad, lhs, rhs, v.dual, mode, ~inside))

    report.add(_part_law(A, s, "skeleton-standard", boolean_skeleton(A, window).elements, 1, 0, mode))
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
    elems = ctx.elems
    v = _Values(s, elems)
    V, den = v.rows, v.den
    outside = np.flatnonzero(v.defects())
    if len(outside):
        defect = interval_defect(*s.raw_value(elems[outside[0]]))
        raise PreconditionError(f"not a hyperstate on this window: {defect}")

    # Every value lies in the interval now, so each expression below stays
    # within twice the denominator, inside exact_table's int64 bound.
    neg = np.array([ctx.index.get(A.neg(a), -1) for a in elems], dtype=np.intp)
    got, want = V[neg], np.stack([den - V[:, 0], -V[:, 1]], axis=1)
    skipped = np.count_nonzero(neg < 0)
    report.add(masked_verdict(
        "negation-law", (neg >= 0) & _differ(got, want),
        lambda k: {"witness": {"x": A.token(elems[k])}, "lhs": v.dual(got[k]), "rhs": v.dual(want[k])},
        mode, f"{skipped} negations left the window" if skipped else "",
    ))

    Vx, Vy = V[ctx.x], V[ctx.y]
    report.add(pair_verdict(A, ctx, "monotone", ctx.leq & _lex_less(Vy, Vx), Vx, Vy, v.dual, mode))

    orthogonal, inside = ctx.times == ctx.index[A.bot], ctx.oplus >= 0
    got, rhs = V[ctx.oplus], Vx + Vy
    bad = orthogonal & inside & _differ(got, rhs)
    report.add(pair_verdict(A, ctx, "orthogonal-additivity", bad, got, rhs, v.dual, mode, orthogonal & ~inside))

    # x ⊙ y in the interval: (x + y − 1) ∨ 0, lexicographically.
    complementary, inside = ctx.oplus == ctx.index[A.top], ctx.times >= 0
    want = np.stack([Vx[:, 0] + Vy[:, 0] - den, Vx[:, 1] + Vy[:, 1]], axis=1)
    want[_lex_less(want, np.zeros_like(want))] = 0
    got = V[ctx.times]
    bad = complementary & inside & _differ(got, want)
    skipped = complementary & ~inside
    report.add(pair_verdict(A, ctx, "complementary-multiplicativity", bad, got, want, v.dual, mode, skipped))

    inside = (ctx.meet >= 0) & (ctx.join >= 0)
    lhs, rhs = V[ctx.meet] + V[ctx.join], Vx + Vy
    bad = inside & _differ(lhs, rhs)
    report.add(pair_verdict(A, ctx, "valuation", bad, lhs, rhs, v.dual, mode, ~inside))

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
    report.add(_part_law(A, s, "radical-standard-part", rad.elements, 0, 1, mode))
    report.add(_part_law(A, s, "coradical-standard-part", coradical(A, window), 0, 0, mode))

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
    w = weighted_state(rad.hoop, lam)
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
