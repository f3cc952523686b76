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

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np

from ._scan import (distinct, integers, lowest, masked_verdict, memo, over_lcm, packed, pair_columns,
                    pair_verdict, scan_mode, tables, unpacked)
from .hypernum import DualRational, _rat, canonical, format_dual, format_exact, interval_defect, parse_dual
from .ibp0 import (
    Skeleton,
    boolean_skeleton,
    coradical,
    decompose,
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
    HoopRows,
    state_laws,
    state_to_kgroup_state,
    weight_generators,
    weighted_state,
)

# Pair scans over hyperstate values reuse each value many times, so the axis
# cap can sit below the semihoop one without losing much coverage.
HYPER_PAIR_CAP = 96


class ProbabilityMeasure:
    """Atom weights over a Boolean skeleton; p(b), for b in it, sums the atoms below b.

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
        below = self.skeleton.below.get(b)
        if below is None:
            raise MalformedInputError(f"{self.skeleton.algebra.token(b)} is not a skeleton element")
        return sum((self.weights[i] for i in below), Fraction(0))

    def column(self, elements) -> tuple[np.ndarray, int]:
        """p at the skeleton elements ``elements``, as integer numerators
        over the lcm of the weights' denominators."""
        den = lcm(*(w.denominator for w in self.weights))
        nums = [w.numerator * (den // w.denominator) for w in self.weights]
        return integers([sum(nums[i] for i in self.skeleton.below[b]) for b in elements]), den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProbabilityMeasure)
            and self.weights == other.weights
            and self.skeleton.atoms == other.skeleton.atoms
        )

    def __repr__(self) -> str:
        return f"ProbabilityMeasure({', '.join(format_exact(w) for w in self.weights)})"


def validate_probability(B: Skeleton, p: ProbabilityMeasure) -> ValidationReport:
    """Normalization, additivity on disjoint pairs, and range, exhaustively.

    Skeletons are finite even when the ambient algebra is not, so every
    check here is exhaustive.
    """
    if p.skeleton.atoms != B.atoms:
        raise MalformedInputError("measure was built over a different skeleton")
    A = B.algebra
    report = ValidationReport(subject="probability")
    # p on every skeleton element, as integer numerators over den.
    V, den = p.column(B.elements)
    exact = lambda n: format_exact(Fraction(int(n), den))

    bad = [
        {"witness": {"atom": A.token(a)}, "value": format_exact(w)}
        for a, w in zip(B.atoms, p.weights)
        if w < 0
    ]
    bad += [
        {"witness": {"x": A.token(b)}, "value": exact(n)}
        for b, n in zip(B.elements, V.tolist())
        if not 0 <= n <= den
    ]
    report.add(verdict("range", bad))

    # Every pair of the finite skeleton, whose joins stay in it.
    ctx = B.pairs
    total = sum(p.weights, Fraction(0))
    bad = []
    if total != 1 or V[ctx.index[A.top]] != den:
        bad = [{"witness": {"x": A.token(A.top)}, "lhs": format_exact(total), "rhs": "1"}]
    report.add(verdict("normalization", bad))

    lhs, rhs = V[ctx.join], V[ctx.x] + V[ctx.y]
    bad = (ctx.meet == ctx.index[A.bot]) & (lhs != rhs)
    report.add(pair_verdict(A, ctx, "additivity", bad, lhs, rhs, exact, "exhaustive"))
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

    def table(self, A, window: int) -> tuple[np.ndarray, int]:
        """One (std, inf) row per element of the frame (see _frame), as
        exact_table gives it: each value's integers (a, b, d) over the lcm of
        the d."""
        keys = [self.value(a)._key for a in _frame(A, window).elements]
        den = lcm(*(d for _, _, d in keys))
        return lowest(integers([(a * (den // d), b * (den // d)) for a, b, d in keys]), den)

    def items(self):
        return self._table.items()


class FormulaHyperstate:
    """A (measure, radical state) pair evaluated through the split identity,
    which holds for it by construction (see split_hyperstate).

    Its values are those of the frame's elements (see _frame): the window,
    then the skeleton, radical, coradical and induced elements outside it.
    The table is a gather over the frame's split triples: p is read as one
    column on its skeleton parts and w as one integer column on the rows of
    its hoop elements (see HoopRows), and s's rows (P[b], W[lo] − W[hi])
    over their common denominator are put in exact_table's form.  ``value``
    and ``raw_value`` read a's row of that table, kept on s (see _values);
    an element outside the frame has no value, as for a table hyperstate.
    """

    def __init__(self, A, p: ProbabilityMeasure, w, window: int = 8):
        if p.skeleton.algebra is not A:
            raise MalformedInputError("measure was built over a different algebra")
        self.algebra = A
        self.measure = p
        self.state = w
        self._window = window

    @cached_property
    def _own(self) -> _Values:
        """s on its own (algebra, window), read once per hyperstate."""
        return _values(self.algebra, self, self._window)

    def raw_value(self, a) -> tuple[Fraction, Fraction]:
        return self._own.raw(a)

    def value(self, a) -> DualRational:
        v = self._own
        k = v.position(a)
        # Each row's interval was checked with the whole table's.
        if v.defects[k]:
            raise MalformedInputError(
                f"formula value escapes the interval at {self.algebra.token(a)}: {format_dual(v.raw(a))}"
            )
        return canonical(*v.cells[k], v.den)

    def table(self, A, window: int) -> tuple[np.ndarray, int]:
        """The frame's table, gathered from p's and w's columns over their lcm."""
        f = _frame(A, window)
        (P, W), den = over_lcm([self.measure.column(f.skeleton), self.state.table(f.hoop)])
        return lowest(np.stack([P.take(f.b), W.take(f.lo) - W.take(f.hi)], axis=1), den)


# ---------------------------------------------------------------------------
# Validation and the property suite

# The elements each part law reads; "induced" is the radical's image of its
# hoop's window.
_PARTS = {
    "skeleton": lambda A, window: boolean_skeleton(A, window).elements,
    "radical": lambda A, window: radical(A, window).elements,
    "coradical": coradical,
    "induced": lambda A, window: list(map(radical(A, window).from_hoop, radical(A, window).hoop.carrier(window))),
}


def _frame(A, window: int) -> SimpleNamespace:
    """What the hyperstate laws read of A, once per (A, window), off one id
    table set.  The window's pairs, with the positions of x·y, x ⊕ y, x ∧ y
    and x ∨ y, the truth of x ≤ y, and each element's negation, -1 outside
    the window (see pair_columns; ``elems`` is the window).  ``elements``:
    the window, then each element of _PARTS outside it, in that order and
    once; ``index`` their positions; ``parts`` and ``at`` the elements of
    each part and their positions, never -1.  And the elements' split
    triples as positions: ``b`` into ``skeleton`` and ``lo``, ``hi`` into
    ``hoop``, which hold the distinct skeleton parts and hoop elements.  The
    decomposition runs as term columns (see decompose), which raise at the
    first element where it fails."""
    def build() -> SimpleNamespace:
        o, carrier = tables(A), A.carrier(window)
        f = pair_columns(A, carrier, HYPER_PAIR_CAP, SAMPLED_NOTE, ("times", "oplus", "meet", "join", "leq", "neg"), o)
        f.parts = {name: part(A, window) for name, part in _PARTS.items()}
        f.elements = list(dict.fromkeys(chain(carrier, *f.parts.values())))
        f.index = {a: k for k, a in enumerate(f.elements)}
        f.at = {name: np.array([f.index[a] for a in part], dtype=np.intp) for name, part in f.parts.items()}
        b, c = decompose(A, f.elements, o)
        rad = radical(A, window)
        ([f.b], f.skeleton), ((f.lo, f.hi), hoop) = distinct(o, b), distinct(o, o.join(o.neg(b), c), o.join(b, c))
        f.hoop = HoopRows(rad.hoop, [rad.to_hoop(x) for x in hoop])
        return f

    return memo(A, ("frame", window), build)


class _Values:
    """s on the frame (see _frame): ``s.table``, one (std, inf) row of
    integer numerators per frame element over one denominator ``den``, the
    window's rows first; ``keys``, each row packed into one exact integer
    (see packed), on which the laws compare sums, ``one`` the key of 1; and
    ``defects``, where a value lies outside the interval.  Every law reads
    rows of this one table, and so do a formula's ``value`` and
    ``raw_value``; the validators and the split keep it on s per (A,
    window)."""

    def __init__(self, s, A, window: int):
        self.A, self.frame = A, _frame(A, window)
        self.rows, self.den = s.table(A, window)
        self.keys, self.K = packed(self.rows, self.den)
        self.one = self.den * self.K
        # The rows as Python ints, for value and the laws that read a few elements each.
        self.cells = self.rows.tolist()
        self.defects = (self.keys < 0) | (self.keys > self.one)

    def dual(self, key) -> str:
        std, inf = unpacked(key, self.K)
        return format_dual((Fraction(std, self.den), Fraction(inf, self.den)))

    def position(self, a) -> int:
        k = self.frame.index.get(a)
        if k is None:
            raise MalformedInputError(f"hyperstate has no value for element {a!r}")
        return k

    def raw(self, a) -> tuple[Fraction, Fraction]:
        """s(a) as (std, inf), from its row."""
        std, inf = self.cells[self.position(a)]
        return Fraction(std, self.den), Fraction(inf, self.den)

    def column(self, name: str, part: int) -> np.ndarray:
        """Part ``part`` (0 standard, 1 infinitesimal) of s at the elements
        ``name`` of _PARTS, one column of the rows over ``den``."""
        return self.rows[:, part].take(self.frame.at[name])


def _values(A, s, window: int) -> _Values:
    return memo(s, ("values", A, window), lambda: _Values(s, A, window))


def _part_law(v: _Values, axiom: str, name: str, part: int, want, mode: str):
    """The check that part ``part`` of s is ``want`` at each of the elements ``name``."""
    elements = v.frame.parts[name]
    return masked_verdict(
        axiom, v.column(name, part) != want * v.den,
        lambda k: {"witness": {"x": v.A.token(elements[k])}, "value": format_dual(v.raw(elements[k]))}, mode,
    )


def validate_hyperstate(A, s, window: int = 8) -> ValidationReport:
    """Boundary values, pair additivity, and standard-valued skeleton.

    A map that is not total on the frame (see _frame: the window, then any
    skeleton, radical, coradical or induced element outside it) raises when
    its table is read; a value outside the lexicographic interval is a
    failed check, because for the formula form that is a fact about the
    (p, w) pair, not about the input file.
    """
    require_ibp0(A, window)
    report = ValidationReport(subject="hyperstate")
    mode = scan_mode(A, window)
    v = _values(A, s, window)
    ctx, V = v.frame, v.keys

    report.add(masked_verdict(
        "codomain", v.defects[:len(ctx.elems)],
        lambda k: {"witness": {"x": A.token(ctx.elems[k])}, "value": v.dual(V[k])}, mode
    ))

    ends = ((A.top, v.one), (A.bot, 0))
    bad = [{"witness": {"x": A.token(e)}, "lhs": v.dual(got), "rhs": v.dual(want)}
           for e, want in ends if (got := V[ctx.index[e]]) != want]
    report.add(verdict("boundary-values", bad, mode=mode))

    inside = (ctx.times >= 0) & (ctx.oplus >= 0)
    lhs, rhs = V.take(ctx.oplus) + V.take(ctx.times), V.take(ctx.x) + V.take(ctx.y)
    report.add(pair_verdict(A, ctx, "pair-additivity", inside & (lhs != rhs), lhs, rhs, v.dual, mode, ~inside))

    report.add(_part_law(v, "skeleton-standard", "skeleton", 1, 0, mode))
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
    v = _values(A, s, window)
    ctx, V, one = v.frame, v.keys, v.one
    n = len(ctx.elems)  # the window's rows come first
    if v.defects[:n].any():
        defect = interval_defect(*v.raw(ctx.elems[v.defects[:n].argmax()]))
        raise PreconditionError(f"not a hyperstate on this window: {defect}")

    # Each side below is a key or a sum of two, compared exactly (see packed).
    got, want = V.take(ctx.neg), one - V[:n]
    skipped = np.count_nonzero(ctx.neg < 0)
    report.add(masked_verdict(
        "negation-law", (ctx.neg >= 0) & (got != want),
        lambda k: {"witness": {"x": A.token(ctx.elems[k])}, "lhs": v.dual(got[k]), "rhs": v.dual(want[k])},
        mode, f"{skipped} negations left the window" if skipped else "",
    ))

    Vx, Vy = V.take(ctx.x), V.take(ctx.y)
    report.add(pair_verdict(A, ctx, "monotone", ctx.leq & (Vy < Vx), Vx, Vy, v.dual, mode))

    orthogonal, inside = ctx.times == ctx.index[A.bot], ctx.oplus >= 0
    got, rhs = V.take(ctx.oplus), Vx + Vy
    bad = orthogonal & inside & (got != rhs)
    report.add(pair_verdict(A, ctx, "orthogonal-additivity", bad, got, rhs, v.dual, mode, orthogonal & ~inside))

    # x ⊙ y in the interval: (x + y − 1) ∨ 0.
    complementary, inside = ctx.oplus == ctx.index[A.top], ctx.times >= 0
    want, got = np.maximum(Vx + Vy - one, 0), V.take(ctx.times)
    report.add(pair_verdict(A, ctx, "complementary-multiplicativity", complementary & inside & (got != want), got,
                            want, v.dual, mode, complementary & ~inside))

    inside = (ctx.meet >= 0) & (ctx.join >= 0)
    lhs, rhs = V.take(ctx.meet) + V.take(ctx.join), Vx + Vy
    report.add(pair_verdict(A, ctx, "valuation", inside & (lhs != rhs), lhs, rhs, v.dual, mode, ~inside))

    sk = boolean_skeleton(A, window)
    restriction = ProbabilityMeasure(sk, [v.raw(atom)[0] for atom in sk.atoms])
    report.merge(validate_probability(sk, restriction), prefix="measure-")
    (got, want), den = over_lcm([(v.column("skeleton", 0), v.den), restriction.column(sk.elements)])
    report.add(masked_verdict(
        "skeleton-restriction", (got != want) | (v.column("skeleton", 1) != 0),
        lambda k: {"witness": {"x": A.token(sk.elements[k])}, "lhs": format_dual(v.raw(sk.elements[k])),
                   "rhs": format_dual((Fraction(int(want[k]), den), Fraction(0)))}, mode,
    ))

    report.add(_part_law(v, "radical-standard-part", "radical", 0, 1, mode))
    report.add(_part_law(v, "coradical-standard-part", "coradical", 0, 0, mode))

    # The induced state is the infinitesimal part of s along the radical.
    report.merge(state_laws(radical(A, window).hoop, v.column("induced", 1), v.den, window), prefix="induced-")
    return report


# ---------------------------------------------------------------------------
# Split and join


class SplitResult:
    """Measure, radical state, and how many window elements, ``scanned``, the
    identity holds at: by construction for a formula whose pair comes back,
    else compared at each, since at the first that differs the split raises."""

    def __init__(self, p: ProbabilityMeasure, w: Any, scanned: int):
        self.p, self.w, self.scanned = p, w, scanned


def split_hyperstate(A, s, window: int = 8) -> SplitResult:
    """Read p off the skeleton atoms and the weights of w off the radical's
    weight generators.  If s is a FormulaHyperstate of p and w, it is the
    split identity's own formula, which so holds by construction.  Any other
    s, a table or a formula whose pair does not come back, is compared with
    the formula of (p, w) at every window element: the window rows of the
    two tables, in one exact comparison.  s must have a value at every frame
    element (see _frame), as for the validators.  A finite radical axis
    takes the zero state, its only state.

    A violation raises: for a map that passed validation this identity is
    forced, so a nonzero residual means the input lied about its structure
    or there is a bug on this side.  A split is kept on s once per (A,
    window) and shared, so callers must not change it; one that raised is
    not kept, and raises again on the next call.
    """
    return memo(s, ("split", A, window), lambda: _split(A, s, window))


def _split(A, s, window: int) -> SplitResult:
    sk = boolean_skeleton(A, window)
    rad = radical(A, window)
    v = _values(A, s, window)

    raws = [v.raw(atom) for atom in sk.atoms]
    for atom, (_, inf) in zip(sk.atoms, raws):
        if inf != 0:
            raise InternalConsistencyError(f"skeleton atom {A.token(atom)} carries infinitesimal part "
                                           f"{format_exact(inf)}")
    p = ProbabilityMeasure(sk, [std for std, _ in raws])

    lam = [-v.raw(rad.from_hoop(g))[1] for g in weight_generators(rad.hoop)]
    w = weighted_state(rad.hoop, lam)
    carrier = v.frame.elems
    if not (isinstance(s, FormulaHyperstate) and s.measure == p and s.state == w):
        formula = FormulaHyperstate(A, p, w, window)
        want, den = formula.table(A, window)
        (got, want), _ = over_lcm([(v.rows[:len(carrier)], v.den), (want[:len(carrier)], den)])
        bad = np.flatnonzero((got != want).any(axis=1))
        if len(bad):
            a = carrier[bad[0]]
            raise InternalConsistencyError(f"split identity fails at {A.token(a)}: s = {format_dual(v.raw(a))}, "
                                           f"split gives {format_dual(formula.raw_value(a))}")
    return SplitResult(p=p, w=w, scanned=len(carrier))


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
    part of s.  The split is the one split_hyperstate keeps on s.
    """
    rad = radical(A, window)
    if not rad.report.flags.get("cancellative"):
        raise PreconditionError(
            "the radical is not cancellative, so it has no envelope-group form"
        )
    split = split_hyperstate(A, s, window)
    return split.p, state_to_kgroup_state(rad.hoop, split.w, window)
