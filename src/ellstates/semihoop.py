"""Prelinear semihoops, their states, and the envelope-group correspondence.

A semihoop (H, ·, →, ∧, 1) is a meet-semilattice with top 1, a commutative
isotone monoid on the same order, and a residuum tied to the order by
c1 ≤ c2 iff c1 → c2 = 1 together with the exchange law
(c1·c2) → c3 = c1 → (c2 → c3).  The pseudo-join

    x ∨ y = ((x → y) → y) ∧ ((y → x) → x)

is a true join exactly when it is associative, which prelinearity grants.

A state is a map w: H → ℝ⁻ with w(1) = 0, w(x·y) = w(x) + w(y), monotone.
Everything here is exact: values are Fractions, never floats.

Sign convention for the induced envelope-group state: with the embedding
h(x) = [x·x, x], this module uses σ̂([x, y]) = w(x) − w(y), which makes
σ̂ ∘ h = w and makes σ̂ positive for the envelope order.  The mirrored
formula w(y) − w(x) negates both facts; sign_convention_diagnostic shows
the two side by side on image elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from types import SimpleNamespace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ._scan import (Axiom, exact_table, masked_verdict, memo, pair_columns, pair_verdict, scan_axioms, scan_mode,
                    stride_select)
from .lmonoid import (
    Cone,
    FiniteLMonoid,
    KElement,
    KGroup,
    TableAlgebra,
    k_envelope,
    k_leq,
)
from .reports import InternalConsistencyError, MalformedInputError, ValidationReport, verdict

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
    """A semihoop on indices 0..n-1 given by times/impl/meet tables."""

    KIND = "semihoop"
    TABLES = ("times", "impl", "meet")
    CONSTANTS = ("top",)

    def __init__(self, times, impl, meet, top: int, size: int | None = None):
        super().__init__((times, impl, meet), (top,), size)

    def times(self, x: int, y: int) -> int:
        return self.times_table[x][y]

    def impl(self, x: int, y: int) -> int:
        return self.impl_table[x][y]


class SymbolicConeHoop(Cone):
    """The cancellative hoop on k-tuples of nonnegative integers.

    Multiplication is addition of tuples, so accumulating more makes an
    element smaller: m ≤ n iff m ≥ n componentwise, the unit (the empty
    product, the zero tuple) is the top, and the residuum is truncated
    difference.

    The cone hoop is its own multiplicative ell-monoid reduct (see
    :func:`monoid_reduct`): ``add`` is ``times``, ``unit`` is ``top``, and
    ``join`` is the pseudo-join, the componentwise min.
    """

    top = Cone.unit
    times = Cone.add

    def impl(self, x: tuple, y: tuple) -> tuple:
        return tuple(max(b - a, 0) for a, b in zip(x, y))

    def meet(self, x: tuple, y: tuple) -> tuple:
        return tuple(max(a, b) for a, b in zip(x, y))

    def join(self, x: tuple, y: tuple) -> tuple:
        return tuple(min(a, b) for a, b in zip(x, y))

    def leq(self, x: tuple, y: tuple) -> bool:
        return all(a >= b for a, b in zip(x, y))


class Componentwise:
    """A direct product: its elements are tuples, one entry per factor, and
    every op is taken factor by factor."""

    def __init__(self, factors: Sequence[Any]):
        if not factors:
            raise MalformedInputError("a product needs at least one factor")
        self.factors = tuple(factors)
        self.is_finite = all(f.is_finite for f in self.factors)
        self.top = tuple(f.top for f in self.factors)

    def _cw(self, op: str, *args: tuple) -> tuple:
        return tuple([getattr(f, op)(*xs) for f, xs in zip(self.factors, zip(*args))])

    def times(self, x: tuple, y: tuple) -> tuple:
        return self._cw("times", x, y)

    def impl(self, x: tuple, y: tuple) -> tuple:
        return self._cw("impl", x, y)

    def meet(self, x: tuple, y: tuple) -> tuple:
        return self._cw("meet", x, y)

    def leq(self, x: tuple, y: tuple) -> bool:
        return all(f.leq(a, b) for f, a, b in zip(self.factors, x, y))

    def token(self, x: tuple) -> str:
        return "(" + "|".join(f.token(a) for f, a in zip(self.factors, x)) + ")"


class ProductHoop(Componentwise):
    """Direct product of semihoops."""

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
    (not cancellative) still yields an ok report.
    """
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


# ---------------------------------------------------------------------------
# States


class TableState:
    """A state given pointwise, as a map element -> Fraction."""

    def __init__(self, values: Mapping[Any, Fraction | int | str]):
        self.values = {k: Fraction(v) for k, v in values.items()}

    def value(self, x) -> Fraction:
        try:
            return self.values[x]
        except KeyError:
            raise MalformedInputError(f"state has no value for element {x!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, TableState) and self.values == other.values


class ConeState:
    """w(m) = -<lam, m> on a cone hoop; nonnegative lam gives a valid state.

    ``lam`` is kept as given; values are evaluated on its integer numerators
    over their common denominator, so each value is one integer dot product
    and one Fraction.
    """

    def __init__(self, lam: Sequence[Fraction | int | str]):
        self.lam = tuple(Fraction(v) for v in lam)
        self._den = lcm(*(l.denominator for l in self.lam))
        self._nums = tuple(l.numerator * (self._den // l.denominator) for l in self.lam)

    def value(self, m: tuple) -> Fraction:
        if len(m) != len(self.lam):
            raise MalformedInputError(f"weight tuple has rank {len(self.lam)}, element has rank {len(m)}")
        return Fraction(-sum(n * c for n, c in zip(self._nums, m)), self._den)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConeState) and self.lam == other.lam


class ProductState:
    """Sum of per-factor states on a product hoop."""

    def __init__(self, parts: Sequence[Any]):
        self.parts = tuple(parts)

    def value(self, xs: tuple) -> Fraction:
        if len(xs) != len(self.parts):
            raise MalformedInputError(f"product state has {len(self.parts)} parts, element has {len(xs)}")
        return sum((p.value(x) for p, x in zip(self.parts, xs)), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, ProductState) and self.parts == other.parts


def zero_state(H, window: int = 8) -> TableState:
    return TableState({x: Fraction(0) for x in H.carrier(window)})


def symbolic_rank(H) -> int:
    """The length of H's weight vectors: a state of a hoop built from cones
    and finite factors has one weight per cone axis, in factor order, and
    none for a finite factor, whose only state is zero."""
    if isinstance(H, SymbolicConeHoop):
        return H.rank
    if isinstance(H, ProductHoop):
        return sum(symbolic_rank(f) for f in H.factors)
    return 0


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
    """The elements g_i with λ_i = −w(g_i): the unit tuple of each cone
    axis, with every other factor at its top."""
    if isinstance(H, SymbolicConeHoop):
        return [tuple(int(j == i) for j in range(H.rank)) for i in range(H.rank)]
    if isinstance(H, ProductHoop):
        top = H.top
        return [top[:k] + (g,) + top[k + 1 :] for k, f in enumerate(H.factors) for g in weight_generators(f)]
    return []


def validate_state(H, w, window: int = 8) -> ValidationReport:
    """Check codomain, (v1), (v2), (v3) exactly over the (windowed) carrier.

    A state that is not total on the carrier is a structural defect, not an
    axiom failure, and raises.
    """
    report = ValidationReport(subject="state")
    ctx = memo(H, ("state-pairs", window),
               lambda: pair_columns(H, H.carrier(window), PAIR_BASE_CAP, SAMPLED_NOTE, ("times", "leq")))
    elems = ctx.elems
    mode = scan_mode(H, window)
    # w.value raises MalformedInputError if the state is partial.
    table, den = exact_table([(w.value(x),) for x in elems])
    V = table[:, 0]

    def frac(n) -> str:
        return str(Fraction(int(n), den))

    report.add(masked_verdict(
        "codomain-nonpositive", V > 0, lambda k: {"witness": {"x": H.token(elems[k])}, "value": frac(V[k])}, mode
    ))

    top_val = V[ctx.index[H.top]]
    bad = [] if top_val == 0 else [{"witness": {"x": H.token(H.top)}, "value": frac(top_val)}]
    report.add(verdict("v1-unit", bad, mode=mode))

    # A product that left the window has nothing to compare.
    Vx, Vy, Vxy = V[ctx.x], V[ctx.y], V[ctx.times]
    bad = (ctx.times >= 0) & (Vxy != Vx + Vy)
    report.add(pair_verdict(H, ctx, "v2-additive", bad, Vxy, Vx + Vy, frac, mode))
    report.add(pair_verdict(H, ctx, "v3-monotone", ctx.leq & (Vx > Vy), Vx, Vy, frac, mode))
    return report


def state_properties(H, w, window: int = 8, flags: Mapping[str, bool] | None = None, pairs=None) -> ValidationReport:
    """Verify the valuation identity, the Bosbach identity, and that for a
    divisible hoop monotonicity already follows from the other axioms.

    ``pairs`` overrides the scanned pair set (used for randomized sweeps);
    ``flags`` skips re-running the semihoop classifier when already known.
    """
    if flags is None:
        flags = validate_semihoop(H, window).flags
    report = ValidationReport(subject="state-properties", flags=dict(flags))
    mode = scan_mode(H, window)
    if pairs is None:
        base = stride_select(H.carrier(window), PAIR_BASE_CAP)
        pairs = list(product(base, repeat=2))

    def wv(x) -> Fraction:
        return Fraction(w.value(x))

    if flags.get("prelinear"):
        bad = []
        for x, y in pairs:
            lhs = wv(H.meet(x, y)) + wv(pseudo_join(H, x, y))
            rhs = wv(x) + wv(y)
            if lhs != rhs:
                bad.append({"witness": {"x": H.token(x), "y": H.token(y)}, "lhs": str(lhs), "rhs": str(rhs)})
        report.add(verdict("valuation", bad, mode=mode))

    if flags.get("basic"):
        bad = []
        for x, y in pairs:
            lhs = wv(x) + wv(H.impl(x, y))
            rhs = wv(y) + wv(H.impl(y, x))
            if lhs != rhs:
                bad.append({"witness": {"x": H.token(x), "y": H.token(y)}, "lhs": str(lhs), "rhs": str(rhs)})
        report.add(verdict("bosbach", bad, mode=mode))

    if flags.get("divisible"):
        # v1 + v2 + nonpositive codomain already force monotonicity here;
        # confirm by direct scan.
        bad = []
        for x, y in pairs:
            if H.leq(x, y) and wv(x) > wv(y):
                bad.append({"witness": {"x": H.token(x), "y": H.token(y)}, "lhs": str(wv(x)), "rhs": str(wv(y))})
        report.add(verdict("monotone-derived", bad, mode=mode))
    return report


def enumerate_states_finite(H: FiniteSemihoop) -> list[TableState]:
    """All states of a finite semihoop, by solving (v1)+(v2) exactly.

    The linear system over the rationals already pins every coordinate to
    zero: following x, x·x, (x·x)·(x·x), ... around its eventual cycle
    multiplies w(x) by powers of two that must agree, so w(x) = 0.
    Elimination therefore has to find a null space of dimension 0, and the
    guard below is a sanity check on the elimination itself.
    """
    if not getattr(H, "is_finite", False):
        raise MalformedInputError("state enumeration needs a finite carrier")
    n = H.size
    rows = []
    unit_row = [Fraction(0)] * n
    unit_row[H.top] = Fraction(1)
    rows.append(unit_row)
    for x, y in product(range(n), repeat=2):
        row = [Fraction(0)] * n
        row[H.times(x, y)] += 1
        row[x] -= 1
        row[y] -= 1
        if any(row):
            rows.append(row)

    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1

    if rank != n:
        raise InternalConsistencyError(
            f"state space has dimension {n - rank} > 0; the input violates the semihoop laws"
        )
    return [TableState({x: Fraction(0) for x in range(n)})]


# ---------------------------------------------------------------------------
# Correspondence with envelope-group states


def monoid_reduct(H):
    """The multiplicative ell-monoid (H, ·, ∧, ∨, 1) of a prelinear semihoop;
    a cone hoop is its own."""
    if isinstance(H, SymbolicConeHoop):
        return H
    if isinstance(H, FiniteSemihoop):
        n = H.size
        join = [[pseudo_join(H, x, y) for y in range(n)] for x in range(n)]
        return FiniteLMonoid(H.times_table, H.meet_table, join, unit=H.top)
    raise MalformedInputError("envelope correspondence supports finite tables and symbolic cones")


@dataclass(frozen=True)
class KGroupState:
    """σ̂ on the subgroup generated by the image of h, σ̂([x,y]) = w(x) − w(y)."""

    K: KGroup
    h: Callable[[Any], KElement]
    state: Any

    def value(self, e: KElement) -> Fraction:
        return Fraction(self.state.value(e.pos)) - Fraction(self.state.value(e.neg))

    @property
    def weights(self) -> tuple[Fraction, ...] | None:
        return self.state.lam if isinstance(self.state, ConeState) else None


def _sigma_frame(H, window: int) -> SimpleNamespace:
    """What state_to_kgroup_state checks that does not depend on w: the
    envelope, the elements whose values it reads, and which candidate pairs
    [a, b] over the strided base are positive."""
    M = monoid_reduct(H)
    K, h = k_envelope(M)
    elems = H.carrier(window)
    base = stride_select(elems, SIGMA_BASE_CAP)
    doubles = [M.add(x, x) for x in elems]
    # Candidate [base[a], base[b]] is added to its mirror in reversed order,
    # [base[-1-a], base[-1-b]]; the sum is [sums[a], sums[b]].
    sums = [M.add(a, b) for a, b in zip(base, reversed(base))]
    at = {x: i for i, x in enumerate(dict.fromkeys([*elems, *doubles, *sums]))}
    pairs = list(product(base, repeat=2))
    zero = K.zero()
    positive = np.array([k_leq(K, zero, KElement(a, b)) for a, b in pairs], dtype=bool)
    return SimpleNamespace(K=K, h=h, elems=elems, base=base, doubles=doubles, sums=sums, at=at, pairs=pairs,
                           positive=positive)


def state_to_kgroup_state(H, w, window: int = 8) -> KGroupState:
    """Induce σ̂ from a state and verify it is a state of the envelope.

    Verified on the (windowed) carrier: equal classes get equal values,
    σ̂ ∘ h = w, additivity, and positivity for the envelope order.  Any
    failure is an internal consistency error, since each is a theorem for a
    valid w.  The envelope and the checked elements and pairs are kept once
    per (H, window); each call reads w once at each element the checks
    reach, into an integer table (see exact_table), and compares sums of it.
    """
    f = memo(H, ("sigma-frame", window), lambda: _sigma_frame(H, window))
    K, elems, at = f.K, f.elems, f.at
    sigma = KGroupState(K=K, h=f.h, state=w)
    # A σ̂ sum below adds four values of w.
    W = exact_table([(w.value(x),) for x in at], terms=4)[0][:, 0]

    def values(xs: list) -> np.ndarray:
        return W[[at[x] for x in xs]]

    if K.mode == "finite-quotient":
        for members in K.class_members:
            diffs = values([x for x, _ in members]) - values([y for _, y in members])
            if (diffs != diffs[0]).any():
                vals = {KElement(*p): sigma.value(KElement(*p)) for p in members}
                raise InternalConsistencyError(f"σ̂ not constant on a class: {vals}")

    wx = values(elems)
    bad = np.flatnonzero(values(f.doubles) - wx != wx)
    if len(bad):
        raise InternalConsistencyError(f"σ̂(h(x)) != w(x) at x = {H.token(elems[bad[0]])}")

    wb, ws = values(f.base), values(f.sums)
    sig = (wb[:, None] - wb[None, :]).ravel()
    bad = np.flatnonzero(f.positive & (sig < 0))
    if len(bad):
        a, b = f.pairs[bad[0]]
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
        "w": str(wx),
        "adopted": str(wxx - wx),
        "mirrored": str(wx - wxx),
    }
