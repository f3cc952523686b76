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
from math import gcd, lcm
from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np

from ._scan import (Exact, ValueLaw, distinct, dot, element_columns, integers, lowest, memo, over_lcm, packed,
                    pair_columns, scan_laws, scan_mode, tables, unpacked)
from .hypernum import DualRational, _rat, _ratio, canonical, format_dual, interval_defect, parse_dual
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
)
from .semihoop import (
    MONOTONE,
    SAMPLED_NOTE,
    VALUATION,
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
    """Atom weights over a Boolean skeleton, held as integer numerators
    ``nums`` over one denominator ``den``, in lowest terms; ``weights`` is
    their read-only Fraction view.  p(b), for b in the skeleton, sums the
    numerators of the atoms below b, kept once per skeleton
    (``Skeleton.below``), so a value is an integer sum with no order test.
    """

    def __init__(self, skeleton: Skeleton, weights):
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
        den = lcm(*(w.denominator for w in vec))
        self.skeleton, self.nums, self.den = skeleton, tuple(w.numerator * (den // w.denominator) for w in vec), den

    @classmethod
    def over(cls, skeleton: Skeleton, nums, den: int) -> ProbabilityMeasure:
        """The measure whose atom weights are the Python ints ``nums`` over ``den`` > 0."""
        p, g = cls.__new__(cls), gcd(den, *nums)
        p.skeleton, p.nums, p.den = skeleton, tuple(n // g for n in nums), den // g
        return p

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def value(self, b) -> Fraction:
        below = self.skeleton.below.get(b)
        if below is None:
            raise MalformedInputError(f"{self.skeleton.algebra.token(b)} is not a skeleton element")
        return Fraction(sum(self.nums[i] for i in below), self.den)

    def column(self, elements) -> tuple[np.ndarray, int]:
        """p at the skeleton elements ``elements``, as integer numerators over ``den``."""
        nums, below = self.nums, self.skeleton.below
        return integers([sum(nums[i] for i in below[b]) for b in elements]), self.den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProbabilityMeasure)
            and (self.nums, self.den) == (other.nums, other.den)
            and self.skeleton.atoms == other.skeleton.atoms
        )

    def __repr__(self) -> str:
        return f"ProbabilityMeasure({', '.join(_ratio(n, self.den) for n in self.nums)})"


def _out_of_range(c, p, read) -> np.ndarray:
    """Where an atom's weight is negative, or p(x) leaves [0, 1] (see _measure_frame)."""
    V = read(c, ("x",))
    return (V < 0) | (c.bounded & (V > p.one))


# The laws of a measure p on its skeleton (see _measure_frame).  V is p at
# the skeleton's elements, so an atom's weight is p of the atom.
MEASURE_LAWS = [
    ValueLaw("range", _out_of_range, False, over="range"),
    ValueLaw("normalization", ("x",), lambda c, p, read: [p.one], over="top"),
    ValueLaw("additivity", ("join",), ("x", "y"), scope=lambda c: c.meet == c.index[c.A.bot]),
]


def _measure_frame(B: Skeleton) -> SimpleNamespace:
    """MEASURE_LAWS' contexts, kept on B: every pair of the finite skeleton,
    whose joins stay in it (``B.pairs``), its atoms and then its elements,
    of which only the elements are bounded above, and its top."""
    def build() -> SimpleNamespace:
        A, m = B.algebra, len(B.atoms)
        f = SimpleNamespace(pairs=B.pairs, top=element_columns(A, B.elements, [B.pairs.index[A.top]]),
                            range=element_columns(A, B.elements, [B.pairs.index[a] for a in [*B.atoms, *B.elements]]))
        f.range.bounded = np.arange(len(f.range.x)) >= m
        f.range.witness = lambda k: {"atom" if k < m else "x": A.token(B.elements[f.range.x[k]])}
        return f

    return memo(B, "measure-laws", build)


def validate_probability(B: Skeleton, p: ProbabilityMeasure) -> ValidationReport:
    """Normalization, additivity on disjoint pairs, and range, exhaustively.

    Skeletons are finite even when the ambient algebra is not, so every
    check here is exhaustive.
    """
    if p.skeleton.atoms != B.atoms:
        raise MalformedInputError("measure was built over a different skeleton")
    checks = scan_laws(_measure_frame(B), MEASURE_LAWS, Exact(*p.column(B.elements)), "exhaustive")
    return ValidationReport(subject="probability", checks=checks)


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
        (P, W), den = over_lcm([self.measure.column(f.bases), self.state.table(f.hoop)])
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
    table set: their contexts (see pair_columns, element_columns), the
    window's ``pairs`` (``pairs.elems`` is the window) with x·y, x ⊕ y, x ∧ y,
    x ∨ y, x ≤ y and ¬x, the ``window``'s elements with ¬x, its ``ends`` top
    and bot, and each part's, the ``skeleton``'s with its atoms and those
    below each element; ``elements``, the window then each part's elements
    outside it, once, at positions ``index``; and their split triples: ``b``
    into ``bases`` and ``lo``, ``hi`` into ``hoop``, the distinct skeleton
    parts and hoop elements, from term columns that raise at the first
    element whose decomposition fails (see decompose)."""
    def build() -> SimpleNamespace:
        o, carrier = tables(A), A.carrier(window)
        ops = ("times", "oplus", "meet", "join", "leq", "neg")
        f = SimpleNamespace(pairs=pair_columns(A, carrier, HYPER_PAIR_CAP, SAMPLED_NOTE, ops, o))
        f.pairs.skip = "{} pairs left the window"
        parts = {name: part(A, window) for name, part in _PARTS.items()}
        f.elements = list(dict.fromkeys(chain(carrier, *parts.values())))
        f.index = {a: k for k, a in enumerate(f.elements)}
        for name, elems in [("window", carrier), ("ends", [A.top, A.bot]), *parts.items()]:
            setattr(f, name, element_columns(A, f.elements, [f.index[a] for a in elems]))
        f.window.neg, f.window.skip = f.pairs.neg, "{} negations left the window"
        sk = boolean_skeleton(A, window)
        f.skeleton.atoms = [f.index[a] for a in sk.atoms]
        f.skeleton.below = [[int(i in sk.below[x]) for i in range(len(sk.atoms))] for x in sk.elements]
        b, c = decompose(A, f.elements, o)
        rad = radical(A, window)
        ([f.b], f.bases), ((f.lo, f.hi), hoop) = distinct(o, b), distinct(o, o.join(o.neg(b), c), o.join(b, c))
        f.hoop = HoopRows(rad.hoop, [rad.to_hoop(x) for x in hoop])
        return f

    return memo(A, ("frame", window), build)


class _Values:
    """s on the frame (see _frame): ``s.table``, one (std, inf) row of
    integer numerators per frame element over one denominator ``den``, the
    window's rows first; ``V``, each row packed into one exact integer
    (see packed), on which the laws compare sums, ``one`` the key of 1; and
    ``defects``, where a value lies outside the interval.  Every law reads
    rows of this one table, and so do a formula's ``value`` and
    ``raw_value``; the validators and the split keep it on s per (A,
    window)."""

    def __init__(self, s, A, window: int):
        self.A, self.frame = A, _frame(A, window)
        self.rows, self.den = s.table(A, window)
        self.V, self.K = packed(self.rows, self.den)
        self.one = self.den * self.K
        # The rows as Python ints, for value and the laws that read a few elements each.
        self.cells = self.rows.tolist()
        self.defects = (self.V < 0) | (self.V > self.one)

    def render(self, key) -> str:
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


def _values(A, s, window: int) -> _Values:
    return memo(s, ("values", A, window), lambda: _Values(s, A, window))


def _part(k: int, want: int = 0):
    """Part k of s (0 standard, 1 infinitesimal) at a context's elements, less ``want``."""
    return lambda c, v, read: v.rows[:, k].take(c.x) - want * v.den


def _restricted(c, v, read) -> np.ndarray:
    """At each skeleton element x, the key of (p(x), 0), where p is s's
    standard part on the atoms: the sum over the atoms below x."""
    return dot(c.below, [v.cells[k][0] * v.K for k in c.atoms])


# The laws of a hyperstate s on its frame (see _frame); each side below is a
# key of s or a sum of two, compared exactly (see packed).
HYPERSTATE_LAWS = [
    ValueLaw("codomain", lambda c, v, read: v.defects.take(c.x), False, over="window"),
    ValueLaw("boundary-values", ("x",), lambda c, v, read: [v.one, 0], over="ends"),
    ValueLaw("pair-additivity", ("oplus", "times"), ("x", "y")),
    ValueLaw("skeleton-standard", _part(1), 0, over="skeleton"),
]
PROPERTY_LAWS = [
    ValueLaw("negation-law", ("neg",), lambda c, v, read: v.one - read(c, ("x",)), over="window"),
    MONOTONE,
    ValueLaw("orthogonal-additivity", ("oplus",), ("x", "y"), scope=lambda c: c.times == c.index[c.A.bot]),
    # x ⊙ y in the interval: (x + y − 1) ∨ 0.
    ValueLaw("complementary-multiplicativity", ("times",),
             lambda c, v, read: np.maximum(read(c, ("x", "y")) - v.one, 0),
             scope=lambda c: c.oplus == c.index[c.A.top]),
    VALUATION,
]
PART_LAWS = [
    ValueLaw("skeleton-restriction", ("x",), _restricted, over="skeleton"),
    ValueLaw("radical-standard-part", _part(0, 1), 0, over="radical"),
    ValueLaw("coradical-standard-part", _part(0), 0, over="coradical"),
]


def validate_hyperstate(A, s, window: int = 8) -> ValidationReport:
    """Boundary values, pair additivity, and standard-valued skeleton.

    A map that is not total on the frame (see _frame: the window, then any
    skeleton, radical, coradical or induced element outside it) raises when
    its table is read; a value outside the lexicographic interval is a
    failed check, because for the formula form that is a fact about the
    (p, w) pair, not about the input file.
    """
    require_ibp0(A, window)
    v = _values(A, s, window)
    return ValidationReport(subject="hyperstate", checks=scan_laws(v.frame, HYPERSTATE_LAWS, v, scan_mode(A, window)))


def hyperstate_properties(A, s, window: int = 8) -> ValidationReport:
    """The derived-property suite for an already validated hyperstate.

    Covers the negation law, monotonicity, additivity on orthogonal pairs,
    the truncated product on complementary pairs, the valuation law, the
    probability restriction, standard parts on radical and coradical, and
    the induced semihoop state.
    """
    require_ibp0(A, window)
    mode = scan_mode(A, window)
    v = _values(A, s, window)
    f, n = v.frame, len(v.frame.pairs.elems)  # the window's rows come first
    if v.defects[:n].any():
        defect = interval_defect(*v.raw(f.pairs.elems[v.defects[:n].argmax()]))
        raise PreconditionError(f"not a hyperstate on this window: {defect}")

    report = ValidationReport(subject="hyperstate-properties", checks=scan_laws(f, PROPERTY_LAWS, v, mode))
    sk = boolean_skeleton(A, window)
    restriction = ProbabilityMeasure.over(sk, [v.cells[k][0] for k in f.skeleton.atoms], v.den)
    report.merge(validate_probability(sk, restriction), prefix="measure-")
    report.checks += scan_laws(f, PART_LAWS, v, mode)
    # The induced state is the infinitesimal part of s along the radical.
    report.merge(state_laws(radical(A, window).hoop, v.rows[:, 1].take(f.induced.x), v.den, window),
                 prefix="induced-")
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

    cells = [v.cells[v.position(atom)] for atom in sk.atoms]
    for atom, (_, inf) in zip(sk.atoms, cells):
        if inf:
            raise InternalConsistencyError(f"skeleton atom {A.token(atom)} carries infinitesimal part "
                                           f"{_ratio(inf, v.den)}")
    p = ProbabilityMeasure.over(sk, [std for std, _ in cells], v.den)

    lam = [-v.raw(rad.from_hoop(g))[1] for g in weight_generators(rad.hoop)]
    w = weighted_state(rad.hoop, lam)
    carrier = v.frame.pairs.elems
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
