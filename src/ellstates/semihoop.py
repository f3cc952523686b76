"""Prelinear semihoops, their states, and the envelope-group correspondence.

A semihoop (H, ·, →, ∧, 1) is a meet-semilattice with top 1, a commutative
isotone monoid on the same order, and a residuum tied to the order by
c1 ≤ c2 iff c1 → c2 = 1 together with the exchange law
(c1·c2) → c3 = c1 → (c2 → c3).  The pseudo-join

    x ∨ y = ((x → y) → y) ∧ ((y → x) → x)

is a true join exactly when it is associative, which prelinearity grants.

A state is a map w: H → ℝ⁻ with w(1) = 0, w(x·y) = w(x) + w(y), monotone.
Every law of a state reads one pair context per (H, window) (see
_state_frame), exactly: w is read as integer numerators, never floats.

Sign convention for the induced envelope-group state: with the embedding
h(x) = [x·x, x], this module uses σ̂([x, y]) = w(x) − w(y), which makes
σ̂ ∘ h = w and makes σ̂ positive for the envelope order.  The mirrored
formula w(y) − w(x) negates both facts; sign_convention_diagnostic shows
the two side by side on image elements.
"""

from __future__ import annotations

from functools import partial
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ._scan import (Axiom, Exact, ValueLaw, distinct, dot, element_columns, exact_table, integers, lowest, memo,
                    over_lcm, pair_columns, scan_axioms, scan_laws, scan_mode, stride_select, tables)
from .hypernum import format_exact
from .lmonoid import Componentwise, Cone, KElement, KGroup, TableAlgebra, k_envelope
from .reports import InternalConsistencyError, MalformedInputError, ValidationReport

# Scans over infinite carriers work on a window of elements.  Pair and
# triple axioms additionally stride-sample the window once it gets large,
# so a rank-3 cone does not cost 729^3 instances.
PAIR_BASE_CAP = 128
TRIPLE_BASE_CAP = 24
SAMPLED_NOTE = "axis sampled {m} of {n} window elements"
# The induced-state constructor re-verifies positivity and additivity on
# pairs of window elements; a modest cap keeps that affordable when callers
# sweep many states, and dedicated tests sweep wider.
SIGMA_BASE_CAP = 32


class FiniteSemihoop(TableAlgebra):
    """A semihoop on indices 0..n-1 given by times/impl/meet tables, and its own
    multiplicative ell-monoid reduct (H, ·, ∧, ∨, 1): each instance binds
    ``add_rows`` to ``times_rows``, ``join_rows`` to the pseudo-join and ``unit``
    to ``top``."""

    KIND = "semihoop"
    TABLES = ("times", "impl", "meet")
    CONSTANTS = ("top",)

    def __init__(self, times, impl, meet, top: int, size: int | None = None):
        super().__init__((times, impl, meet), (top,), size)
        self.unit, self.add_rows = self.top, self.times_rows
        self.join_rows = partial(pseudo_join, SimpleNamespace(meet=self.meet_rows, impl=self.impl_rows))


class SymbolicConeHoop(Cone):
    """The cancellative hoop on k-tuples of nonnegative integers.

    Multiplication is addition of tuples, so accumulating more makes an
    element smaller: m ≤ n iff m ≥ n componentwise, the unit (the empty
    product, the zero tuple) is the top, and the residuum is truncated
    difference.

    The cone hoop is its own multiplicative ell-monoid reduct (H, ·, ∧, ∨,
    1): ``add`` is ``times``, ``unit`` is ``top``, and ``join`` is the
    pseudo-join, the componentwise min.
    """

    KIND, FORM = "semihoop", "cone"
    top = Cone.unit
    times_rows, meet_rows, join_rows = Cone.add_rows, np.maximum, np.minimum

    def impl_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.maximum(y - x, 0)

    def leq_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x >= y).all(axis=-1)


class ProductHoop(Componentwise):
    """Direct product of semihoops."""

    KIND = "semihoop"

    def carrier(self, window: int) -> list[tuple]:
        return [tuple(t) for t in product(*(f.carrier(window) for f in self.factors))]


def pseudo_join(H, x, y):
    return H.meet(H.impl(H.impl(x, y), y), H.impl(H.impl(y, x), x))


# Terms run both on a carrier's scalar ops (witnesses, reference tests) and
# on the engine's id arrays, so they use only ops, "==" for element
# equality and "<=" for implication between truth values.  "== o.top" is
# element equality: leq(top, ·) differs from it on broken tables.
SEMIHOOP_AXIOMS = [
    # (i) meet-semilattice with the unit on top
    Axiom("meet-commutative", 2, lambda o, x, y: (o.meet(x, y), o.meet(y, x))),
    Axiom("meet-associative", 3, lambda o, x, y, z: (o.meet(o.meet(x, y), z), o.meet(x, o.meet(y, z)))),
    Axiom("meet-idempotent", 1, lambda o, x: (o.meet(x, x), x)),
    Axiom("top-upper-bound", 1, lambda o, x: (o.meet(x, o.top), x)),
    # (ii) commutative isotone monoid
    Axiom("times-commutative", 2, lambda o, x, y: (o.times(x, y), o.times(y, x))),
    Axiom("times-associative", 3, lambda o, x, y, z: (o.times(o.times(x, y), z), o.times(x, o.times(y, z)))),
    Axiom("times-unit", 1, lambda o, x: (o.times(x, o.top), x)),
    Axiom("times-isotone", 3, lambda o, x, y, z: (o.leq(x, y) <= o.leq(o.times(x, z), o.times(y, z)), True)),
    # (iii) the residuum reflects the order
    Axiom("order-reflection", 2, lambda o, x, y: (o.impl(x, y) == o.top, o.leq(x, y))),
    # (iv) exchange, and the residuation law it gives together with (iii)
    Axiom("exchange", 3, lambda o, x, y, z: (o.impl(o.times(x, y), z), o.impl(x, o.impl(y, z)))),
    Axiom("residuation", 3, lambda o, x, y, z: (o.leq(o.times(x, z), y), o.leq(z, o.impl(x, y)))),
    # Classification
    Axiom(
        "prelinearity", 3,
        lambda o, x, y, z: (o.leq(o.impl(o.impl(x, y), z), o.impl(o.impl(o.impl(y, x), z), z)), True),
        required=False,
    ),
    Axiom(
        "pseudo-join-associative", 3,
        lambda o, x, y, z: (pseudo_join(o, pseudo_join(o, x, y), z), pseudo_join(o, x, pseudo_join(o, y, z))),
        required=False,
    ),
    Axiom("divisibility", 2, lambda o, x, y: (o.times(x, o.impl(x, y)), o.times(y, o.impl(y, x))), required=False),
    Axiom("cancellativity", 2, lambda o, x, y: (o.impl(o.impl(x, o.times(x, y)), y), o.top), required=False),
]


def validate_semihoop(H, window: int = 8) -> ValidationReport:
    """Check the defining laws, then classify: prelinear, basic, cancellative.

    The classification scans are reported with pass/fail and witnesses like
    everything else but are not required for validity, so a Gödel chain
    (not cancellative) still yields an ok report.  The report is memoized
    per (H, window) and shared, so callers must not change it.
    """

    def classify() -> ValidationReport:
        caps = {2: PAIR_BASE_CAP, 3: TRIPLE_BASE_CAP}
        checks = scan_axioms(H, SEMIHOOP_AXIOMS, H.carrier(window), caps, scan_mode(H, window), SAMPLED_NOTE)
        report = ValidationReport(subject="semihoop", checks=checks)
        pre, pj, div, canc = (
            report.check(name).passed
            for name in ("prelinearity", "pseudo-join-associative", "divisibility", "cancellativity")
        )
        report.flags = {
            "prelinear": pre and pj,
            "divisible": div,
            "basic": pre and pj and div,
            "cancellative": pre and pj and div and canc,
        }
        return report

    return memo(H, ("semihoop", window), classify)


# ---------------------------------------------------------------------------
# States


class HoopRows(list):
    """Elements of the hoop ``H`` that keep their coordinate rows ``rows``,
    converted once: a frame's elements, read by a cone state's table on it."""

    def __init__(self, H, elems: Sequence):
        super().__init__(elems)
        self.H, self.rows = H, integers([H.row(x) for x in elems])


def _length(x) -> int:
    """How many entries the element x has; a cone or product state reads tuples only."""
    if not isinstance(x, tuple):
        raise MalformedInputError(f"a cone or product state reads tuples, not {x!r}")
    return len(x)


class TableState:
    """A state given pointwise, as a map element -> Fraction, read into exact_table."""

    def __init__(self, values: Mapping[Any, Fraction | int | str]):
        self.values = {k: Fraction(v) for k, v in values.items()}

    def value(self, x) -> Fraction:
        return self._read([x])[0]

    def table(self, elems: Sequence, terms: int = 2) -> tuple[np.ndarray, int]:
        col, den = exact_table([(v,) for v in self._read(elems)], terms)
        return col.reshape(-1), den

    def _read(self, elems: Sequence) -> list[Fraction]:
        try:
            return [self.values[x] for x in elems]
        except KeyError as missing:
            raise MalformedInputError(f"state has no value for element {missing.args[0]!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, TableState) and self.values == other.values


class ConeState:
    """w(m) = -<lam, m> on a cone hoop; nonnegative lam gives a valid state.

    ``lam`` is kept as given and read as integer numerators over their
    common denominator: ``value`` is one integer dot product, and ``table``
    one integer matrix product (_scan.dot), on the rows a cone hoop's
    elements keep (see HoopRows) or else on the tuples, in exact_table's form.
    """

    def __init__(self, lam: Sequence[Fraction | int | str]):
        self.lam = tuple(Fraction(v) for v in lam)
        self._den = lcm(*(l.denominator for l in self.lam))
        self._nums = tuple(l.numerator * (self._den // l.denominator) for l in self.lam)

    def _ranked(self, elems: Sequence) -> Sequence:
        rank, kept = len(self.lam), isinstance(getattr(elems, "H", None), SymbolicConeHoop)
        bad = [n for n in ([elems.H.rank] if kept else map(_length, elems)) if n != rank]
        if bad:
            raise MalformedInputError(f"weight tuple has rank {rank}, element has rank {bad[0]}")
        odd = [] if kept else [m for m in elems if not all(isinstance(c, (int, np.integer)) for c in m)]
        if odd:
            raise MalformedInputError(f"a cone state reads tuples of integers, not {odd[0]!r}")
        return elems.rows if kept else elems

    def value(self, m: tuple) -> Fraction:
        return Fraction(-sum(n * c for n, c in zip(self._nums, self._ranked([m])[0])), self._den)

    def table(self, elems: Sequence, terms: int = 2) -> tuple[np.ndarray, int]:
        return lowest(-dot(self._ranked(elems), self._nums), self._den, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConeState) and self.lam == other.lam


class ProductState:
    """Sum of per-factor states on a product hoop."""

    def __init__(self, parts: Sequence[Any]):
        self.parts = tuple(parts)

    def _sized(self, xs: tuple) -> tuple:
        if _length(xs) != len(self.parts):
            raise MalformedInputError(f"product state has {len(self.parts)} parts, element has {len(xs)}")
        return xs

    def value(self, xs: tuple) -> Fraction:
        return sum((p.value(x) for p, x in zip(self.parts, self._sized(xs))), Fraction(0))

    def table(self, elems: Sequence, terms: int = 2) -> tuple[np.ndarray, int]:
        """The parts' columns on their factors of ``elems``, summed over their lcm."""
        cols, den = over_lcm([p.table([self._sized(xs)[k] for xs in elems]) for k, p in enumerate(self.parts)])
        return lowest(sum(cols), den, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProductState) and self.parts == other.parts


def zero_state(H, window: int = 8) -> TableState:
    return TableState({x: Fraction(0) for x in H.carrier(window)})


def symbolic_rank(H) -> int:
    """The length of H's weight vectors, one per :func:`weight_generators`."""
    return len(weight_generators(H))


def weighted_state(H, lam: Sequence[Fraction]):
    """The state with weight vector ``lam``: w(g_i) = −λ_i at the
    :func:`weight_generators`, and the zero state on every finite axis."""
    rank = symbolic_rank(H)
    if len(lam) != rank:
        raise MalformedInputError(f"lambda has {len(lam)} entries for a hoop of symbolic rank {rank}")
    if isinstance(H, SymbolicConeHoop):
        return ConeState(lam)
    if isinstance(H, ProductHoop):
        parts, used = [], 0
        for f in H.factors:
            r = symbolic_rank(f)
            parts.append(weighted_state(f, lam[used : used + r]))
            used += r
        return ProductState(parts)
    return zero_state(H)


def state_weights(w) -> list[Fraction]:
    """The weight vector of a state built by :func:`weighted_state`."""
    if isinstance(w, ConeState):
        return list(w.lam)
    if isinstance(w, ProductState):
        return [v for p in w.parts for v in state_weights(p)]
    return []


def weight_generators(H) -> list:
    """The elements g_i with λ_i = −w(g_i), one per cone axis in factor order
    and none for a finite factor, whose only state is zero: the unit tuple
    of an axis, with every other factor at its top."""
    if isinstance(H, SymbolicConeHoop):
        return [tuple(int(j == i) for j in range(H.rank)) for i in range(H.rank)]
    if isinstance(H, ProductHoop):
        top = H.top
        return [top[:k] + (g,) + top[k + 1 :] for k, f in enumerate(H.factors) for g in weight_generators(f)]
    return []


# The value laws of a state (see _state_frame).  A pair whose product, meet,
# join or residuum left the window has nothing to compare, and these checks
# do not count it.  valuation and monotone are also hyperstate laws.
VALUATION = ValueLaw("valuation", ("meet", "join"), ("x", "y"))
MONOTONE = ValueLaw("monotone", ("x",), ("y",), scope=attrgetter("leq"), fails=np.greater)
STATE_LAWS = [
    ValueLaw("codomain-nonpositive", ("x",), 0, fails=np.greater, over="window"),
    ValueLaw("v1-unit", ("x",), 0, over="top"),
    ValueLaw("v2-additive", ("times",), ("x", "y")),
    MONOTONE._replace(name="v3-monotone"),
]
# Each law of state_properties, under the validate_semihoop flag it needs.
STATE_PROPERTY_LAWS = {
    "prelinear": VALUATION,
    # w(x) + w(x → y) = w(y) + w(y → x)
    "basic": ValueLaw("bosbach", ("x", "impl"), ("y", "impl_yx")),
    # v1 + v2 + nonpositive codomain already force monotonicity on a
    # divisible hoop; confirm by direct scan.
    "divisible": MONOTONE._replace(name="monotone-derived"),
}


def validate_state(H, w, window: int = 8) -> ValidationReport:
    """Check codomain, (v1), (v2), (v3) exactly over the (windowed) carrier,
    on w read once as an integer column, by state_laws.

    A state that is not total on the carrier is a structural defect, not an
    axiom failure, and raises.
    """
    return state_laws(H, *w.table(H.carrier(window)), window)


def _state_frame(H, window: int) -> SimpleNamespace:
    """The one pair context over H's window, and STATE_LAWS' others, kept per
    (H, window): the window's sampled pairs with x·y, x → y, y → x, x ∧ y,
    x ∨ y and x ≤ y, the window's elements, and its top."""
    def build() -> SimpleNamespace:
        pairs = pair_columns(H, H.carrier(window), PAIR_BASE_CAP, SAMPLED_NOTE,
                             ("times", "impl", "meet", "join", "leq"))
        # y → x is x → y at the transposed pair.
        pairs.impl_yx = pairs.impl.reshape((isqrt(len(pairs.x)),) * 2).T.ravel()
        return SimpleNamespace(pairs=pairs, window=element_columns(H, pairs.elems, range(len(pairs.elems))),
                               top=element_columns(H, pairs.elems, [pairs.index[H.top]]))

    return memo(H, ("state-laws", window), build)


def state_laws(H, V: np.ndarray, den: int, window: int = 8) -> ValidationReport:
    """validate_state's checks on a map given as its integer column ``V``
    over ``den`` at H's window elements, in carrier order."""
    checks = scan_laws(_state_frame(H, window), STATE_LAWS, Exact(V, den), scan_mode(H, window))
    return ValidationReport(subject="state", checks=checks)


def state_properties(H, w, window: int = 8) -> ValidationReport:
    """Verify the valuation identity, the Bosbach identity, and that for a
    divisible hoop monotonicity already follows from the other axioms.

    Which laws apply (validate_semihoop's flags) and validate_state's pairs,
    which they scan, are kept per (H, window); w is read once into an integer
    column, and a pair with a result outside the window is skipped.
    """
    flags = validate_semihoop(H, window).flags
    frame = _state_frame(H, window)
    laws = [law for flag, law in STATE_PROPERTY_LAWS.items() if flags[flag]]
    checks = scan_laws(frame, laws, Exact(*w.table(frame.pairs.elems)), scan_mode(H, window))
    return ValidationReport(subject="state-properties", checks=checks, flags=dict(flags))


def enumerate_states_finite(H) -> list:
    """All states of a finite semihoop, or of a finite product of them: the
    zero state alone, in :func:`weighted_state`'s form.

    Proof.  By (v2), w(x·x) = 2·w(x), so along the squaring orbit x, x², (x²)²,
    … the values are w(x), 2w(x), 4w(x), ….  A finite carrier makes the orbit
    repeat, x_i = x_j with i < j, so 2^i·w(x) = 2^j·w(x) and w(x) = 0.
    """
    if not getattr(H, "is_finite", False):
        raise MalformedInputError("state enumeration needs a finite carrier")
    return [weighted_state(H, [])]


# ---------------------------------------------------------------------------
# Correspondence with envelope-group states


class KGroupState:
    """σ̂ on the subgroup generated by the image of h, σ̂([x,y]) = w(x) − w(y)."""

    def __init__(self, K: KGroup, h: Callable[[Any], KElement], state: Any):
        self.K, self.h, self.state = K, h, state

    def value(self, e: KElement) -> Fraction:
        return Fraction(self.state.value(e.pos)) - Fraction(self.state.value(e.neg))


def _sigma_frame(H, window: int) -> SimpleNamespace:
    """What state_to_kgroup_state checks that does not depend on w: the
    envelope, the elements it ``reads``, where each list it gathers lies in
    them, and which candidate pairs [a, b] over the strided ``base``, in
    product order, are ``positive``: all of them in a finite envelope, which
    is one class (see KGroup); in a symbolic one, those with K.leq(0, [a, b]),
    that is 0 + b ≤ 0 + a, read off tables(H)."""
    if not isinstance(H, (FiniteSemihoop, SymbolicConeHoop)):
        raise MalformedInputError("envelope correspondence supports finite tables and symbolic cones")
    K, h = k_envelope(H)
    o, elems = tables(H), H.carrier(window)
    base = stride_select(elems, SIGMA_BASE_CAP)
    ids, b = o.encode(elems), o.encode(base)
    # Candidate [base[i], base[j]] is added to its mirror in reversed order,
    # [base[-1-i], base[-1-j]]; the sum is [sums[i], sums[j]].
    at, reads = distinct(o, ids, o.add(ids, ids), b, o.add(b, b[::-1]))
    positive = K.mode != "symbolic" or o.leq(o.add(o.unit, np.tile(b, len(b))), o.add(o.unit, np.repeat(b, len(b))))
    return SimpleNamespace(K=K, h=h, elems=elems, base=base, reads=HoopRows(H, reads),
                           at=dict(zip(("elems", "doubles", "base", "sums"), at)), positive=positive)


def state_to_kgroup_state(H, w, window: int = 8) -> KGroupState:
    """Induce σ̂ from a state and verify it is a state of the envelope.

    Verified on the (windowed) carrier: equal classes get equal values,
    σ̂ ∘ h = w, additivity, and positivity for the envelope order.  Any
    failure is an internal consistency error, since each is a theorem for a
    valid w.  The envelope and the checked elements, pairs and positions
    are kept once per (H, window); each call reads w once, as one integer
    column, and compares sums of its entries gathered with take.
    """
    f = memo(H, ("sigma-frame", window), lambda: _sigma_frame(H, window))
    K, at = f.K, f.at
    sigma = KGroupState(K=K, h=f.h, state=w)
    # A σ̂ sum below adds four values of w.
    W = w.table(f.reads, terms=4)[0]

    # σ̂ is constant on a finite envelope's one class, of all pairs [x, y],
    # iff w is constant.
    wx = W.take(at["elems"])
    if K.mode != "symbolic" and (wx != wx[0]).any():
        vals = {KElement(*p): sigma.value(KElement(*p)) for p in product(f.elems, repeat=2)}
        raise InternalConsistencyError(f"σ̂ not constant on a class: {vals}")
    bad = np.flatnonzero(W.take(at["doubles"]) - wx != wx)
    if len(bad):
        raise InternalConsistencyError(f"σ̂(h(x)) != w(x) at x = {H.token(f.elems[bad[0]])}")

    wb, ws = W.take(at["base"]), W.take(at["sums"])
    sig = (wb[:, None] - wb[None, :]).ravel()
    bad = np.flatnonzero(f.positive & (sig < 0))
    if len(bad):
        a, b = (f.base[i] for i in divmod(int(bad[0]), len(f.base)))
        raise InternalConsistencyError(f"σ̂ negative on a positive element [{H.token(a)},{H.token(b)}]")
    if ((ws[:, None] - ws[None, :]).ravel() != sig + sig[::-1]).any():
        raise InternalConsistencyError("σ̂ not additive")
    return sigma


def kgroup_state_to_state(H, sigma, window: int = 8):
    """Pull an envelope-group state back along h; returns (w, report).

    ``sigma`` is a KGroupState or a weight vector (see weighted_state).  A
    non-positive sigma is not an error here: the pulled-back map simply
    fails validation and the report names the witnesses.
    """
    if not isinstance(sigma, KGroupState):
        w: Any = weighted_state(H, sigma)
    elif isinstance(H, SymbolicConeHoop):
        w = weighted_state(H, [-sigma.value(sigma.h(g)) for g in weight_generators(H)])
    else:
        w = TableState({x: sigma.value(sigma.h(x)) for x in H.carrier(window)})
    return w, validate_state(H, w, window)


def sign_convention_diagnostic(H, w, x) -> dict[str, str]:
    """What each sign convention assigns to the image element h(x)."""
    wx = Fraction(w.value(x))
    wxx = Fraction(w.value(H.times(x, x)))
    return {
        "element": H.token(x),
        "w": format_exact(wx),
        "adopted": format_exact(wxx - wx),
        "mirrored": format_exact(wx - wxx),
    }
