"""MTL-algebras with involution and the doubling law, and their anatomy.

Three carrier forms:

* FiniteMTL -- explicit tables over indices 0..n-1;
* SymbolicPerfectAlgebra -- the disconnected rotation of a semihoop, whose
  elements are signed pairs ('pos', m) / ('neg', m).  pos-m sits above the
  negation fixpoint-free gap, neg-m = ¬pos-m below it.  Over a cone hoop it
  is the symbolic perfect algebra; over a finite semihoop it is tabulated
  into a FiniteMTL (:func:`rotate`);
* ProductAlgebra -- componentwise products of the others.

Validation is windowed brute force.  Operation evaluation is always exact
and unbounded (x·x may leave any window); only the quantifiers range over a
window.  Each axiom is declared once, as terms over an ops namespace
(MTL_AXIOMS, IBP0_AXIOMS), and scanned by the one engine in :mod:`._scan`,
which tabulates the carriers' scalar ops on demand.

Structure theory: the Boolean skeleton {a : a ∨ ¬a = 1}, the radical
{x : x > ¬x} with its induced prelinear semihoop, and the decomposition

    b_a = ¬((¬a²)²),  c_a = a ∨ ¬a,  a = (b_a ∨ ¬c_a) ∧ (¬b_a ∨ c_a)

which splits every element into a skeleton part and a radical part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as iterproduct
from math import prod
from typing import Any, Callable, Sequence

import numpy as np

from ._scan import Axiom, capped_cartesian, masked_verdict, memo, pair_columns, scan_axioms, scan_mode, stride_select
from .lmonoid import TableAlgebra
from .reports import (
    InternalConsistencyError,
    MalformedInputError,
    PreconditionError,
    ValidationReport,
    verdict,
)
from .semihoop import (
    Componentwise,
    FiniteSemihoop,
    ProductHoop,
    SymbolicConeHoop,
    pseudo_join,
    validate_semihoop,
)

# Scan budgets.  Single algebras keep full triple scans up to this many
# window elements (the rank-2 rotation at window 8 has 162).  Product
# windows are capped outright, and their triple axis harder, because the
# factors have already been scanned individually.
SINGLE_TRIPLE_CAP = 176
PRODUCT_ELEMENT_CAP = 144
PRODUCT_TRIPLE_CAP = 48
SAMPLED_NOTE = "each axis sampled {m} of {n} window elements"


class FiniteMTL(TableAlgebra):
    """A bounded residuated-lattice algebra on indices 0..n-1."""

    KIND = "bounded algebra"
    TABLES = ("times", "impl", "meet", "join")
    CONSTANTS = ("bot", "top")

    def __init__(self, times, impl, meet, join, bot: int, top: int, size: int | None = None):
        super().__init__((times, impl, meet, join), (bot, top), size)

    def times(self, x, y):
        return self.times_table[x][y]

    def impl(self, x, y):
        return self.impl_table[x][y]

    def join(self, x, y):
        return self.join_table[x][y]

    def neg(self, x):
        return self.impl_table[x][self.bot]

    def oplus(self, x, y):
        return self.impl_table[self.neg(x)][y]


class SymbolicPerfectAlgebra:
    """Disconnected rotation of a semihoop: two signed copies of the core.

    The positive copy keeps the hoop structure, the negative copy mirrors
    it, negation swaps them, and every product of two negatives collapses
    to 0.  Over a cone hoop (two signed copies of ℕᵏ) the skeleton is
    exactly {0, 1} and the positive copy is the radical.
    """

    def __init__(self, core):
        self.core = core
        self.is_finite = core.is_finite
        self.bot = ("neg", core.top)
        self.top = ("pos", core.top)

    @property
    def rank(self) -> int:
        return self.core.rank

    def carrier(self, window: int) -> list[tuple]:
        core = self.core.carrier(window)
        return [("neg", m) for m in core] + [("pos", m) for m in core]

    def times(self, x, y):
        sx, cx = x
        sy, cy = y
        if sx == "pos" and sy == "pos":
            return ("pos", self.core.times(cx, cy))
        if sx == "pos":
            return ("neg", self.core.impl(cx, cy))
        if sy == "pos":
            return ("neg", self.core.impl(cy, cx))
        return self.bot

    def impl(self, x, y):
        sx, cx = x
        sy, cy = y
        if sx == "pos" and sy == "pos":
            return ("pos", self.core.impl(cx, cy))
        if sx == "pos":
            return ("neg", self.core.times(cx, cy))
        if sy == "pos":
            return self.top
        return ("pos", self.core.impl(cy, cx))

    def meet(self, x, y):
        sx, cx = x
        sy, cy = y
        if sx == "pos" and sy == "pos":
            return ("pos", self.core.meet(cx, cy))
        if sx == "neg" and sy == "neg":
            return ("neg", pseudo_join(self.core, cx, cy))
        return x if sx == "neg" else y

    def join(self, x, y):
        sx, cx = x
        sy, cy = y
        if sx == "pos" and sy == "pos":
            return ("pos", pseudo_join(self.core, cx, cy))
        if sx == "neg" and sy == "neg":
            return ("neg", self.core.meet(cx, cy))
        return x if sx == "pos" else y

    def neg(self, x):
        sx, cx = x
        return ("neg" if sx == "pos" else "pos", cx)

    def oplus(self, x, y):
        return self.impl(self.neg(x), y)

    def leq(self, x, y) -> bool:
        sx, cx = x
        sy, cy = y
        if sx == sy:
            return self.core.leq(cx, cy) if sx == "pos" else self.core.leq(cy, cx)
        return sx == "neg"

    def token(self, x) -> str:
        sx, cx = x
        return sx + self.core.token(cx)


class ProductAlgebra(Componentwise):
    """Componentwise product of validated algebras."""

    def __init__(self, factors: Sequence[Any]):
        super().__init__(factors)
        self.bot = tuple(f.bot for f in self.factors)

    def carrier(self, window: int) -> list[tuple]:
        axes = [f.carrier(window) for f in self.factors]
        return capped_cartesian(axes, PRODUCT_ELEMENT_CAP, forced=(self.bot, self.top))

    def join(self, x, y):
        return self._cw("join", x, y)

    def neg(self, x):
        return self._cw("neg", x)

    def oplus(self, x, y):
        return self._cw("oplus", x, y)


# ---------------------------------------------------------------------------
# Validators

MTL_AXIOMS = [
    Axiom("meet-commutative", 2, lambda o, x, y: (o.meet(x, y), o.meet(y, x))),
    Axiom("join-commutative", 2, lambda o, x, y: (o.join(x, y), o.join(y, x))),
    Axiom("times-commutative", 2, lambda o, x, y: (o.times(x, y), o.times(y, x))),
    Axiom("absorption-meet", 2, lambda o, x, y: (o.meet(x, o.join(x, y)), x)),
    Axiom("absorption-join", 2, lambda o, x, y: (o.join(x, o.meet(x, y)), x)),
    Axiom("prelinearity", 2, lambda o, x, y: (o.join(o.impl(x, y), o.impl(y, x)), o.top)),
    Axiom("meet-idempotent", 1, lambda o, x: (o.meet(x, x), x)),
    Axiom("join-idempotent", 1, lambda o, x: (o.join(x, x), x)),
    Axiom("times-unit", 1, lambda o, x: (o.times(x, o.top), x)),
    Axiom("bot-least", 1, lambda o, x: (o.leq(o.bot, x), True)),
    Axiom("top-greatest", 1, lambda o, x: (o.leq(x, o.top), True)),
    Axiom("meet-associative", 3, lambda o, x, y, z: (o.meet(o.meet(x, y), z), o.meet(x, o.meet(y, z)))),
    Axiom("join-associative", 3, lambda o, x, y, z: (o.join(o.join(x, y), z), o.join(x, o.join(y, z)))),
    Axiom("times-associative", 3, lambda o, x, y, z: (o.times(o.times(x, y), z), o.times(x, o.times(y, z)))),
    Axiom("residuation", 3, lambda o, x, y, z: (o.leq(o.times(x, z), y), o.leq(z, o.impl(x, y)))),
]


def _doubling(o, x):
    two_x = o.oplus(x, x)
    x_sq = o.times(x, x)
    return o.times(two_x, two_x), o.oplus(x_sq, x_sq)


IBP0_AXIOMS = MTL_AXIOMS + [
    Axiom("involution", 1, lambda o, x: (o.neg(o.neg(x)), x)),
    Axiom("doubling-law", 1, _doubling),
]


def _validate(A, window: int, axioms: list[Axiom], subject: str) -> ValidationReport:
    report = ValidationReport(subject=subject)
    elems = A.carrier(window)
    mode = scan_mode(A, window)
    triple_cap = SINGLE_TRIPLE_CAP
    if isinstance(A, ProductAlgebra):
        triple_cap = PRODUCT_TRIPLE_CAP
        if len(elems) < prod(len(f.carrier(window)) for f in A.factors):
            mode = f"window-verified (N={window})"
            report.flags["window_capped"] = True
    report.checks = scan_axioms(A, axioms, elems, {3: triple_cap}, mode, SAMPLED_NOTE)
    return report


def validate_mtl(A, window: int = 8) -> ValidationReport:
    """Scan the bounded residuated-lattice axioms plus prelinearity."""
    return _validate(A, window, MTL_AXIOMS, "mtl")


def validate_ibp0(A, window: int = 8) -> ValidationReport:
    """MTL validation plus involution and the doubling law, memoized."""
    return memo(A, ("ibp0", window), lambda: _validate(A, window, IBP0_AXIOMS, "ibp0"))


def require_ibp0(A, window: int = 8) -> None:
    report = validate_ibp0(A, window)
    if not report.ok:
        first = report.failures()[0]
        detail = f"; first witness {first.witnesses[0]}" if first.witnesses else ""
        raise PreconditionError(
            f"not an algebra of the variety: {', '.join(c.axiom for c in report.failures())} failed{detail}"
        )


# ---------------------------------------------------------------------------
# Skeleton, radical, decomposition


@dataclass
class Skeleton:
    """The complemented elements, with the checks certifying they form a
    Boolean algebra under the restricted operations.

    The ambient algebra rides along because the skeleton has no tables of
    its own: its meet, join and order are the ambient ones, restricted.
    ``pairs`` holds every pair of elements with their ·, ⊕, ∧ and ∨ as
    positions in ``elements`` (see :func:`._scan.pair_columns`), and
    ``below`` maps each element to the indices of the atoms below it.
    """

    elements: list
    atoms: list
    report: ValidationReport
    pairs: Any
    below: dict
    algebra: Any = None


def boolean_skeleton(A, window: int = 8) -> Skeleton:
    require_ibp0(A, window)
    return memo(A, ("skeleton", window), lambda: _boolean_skeleton(A, window))


SKELETON_AXIOMS = [
    Axiom("times-is-meet", 2, lambda o, x, y: (o.times(x, y), o.meet(x, y))),
    Axiom("oplus-is-join", 2, lambda o, x, y: (o.oplus(x, y), o.join(x, y))),
    Axiom("complement-meet", 1, lambda o, x: (o.meet(x, o.neg(x)), o.bot)),
]


def _boolean_skeleton(A, window: int) -> Skeleton:
    if isinstance(A, ProductAlgebra):
        factor_skels = [boolean_skeleton(f, window) for f in A.factors]
        elements = [tuple(c) for c in iterproduct(*(s.elements for s in factor_skels))]
    else:
        elements = [a for a in A.carrier(window) if A.join(a, A.neg(a)) == A.top]

    report = ValidationReport(subject="skeleton")
    mode = scan_mode(A, window)
    # Every pair of the finite skeleton; a result of -1 has left it.
    pairs = pair_columns(A, elements, len(elements), "", ("times", "oplus", "meet", "join"))
    negs = np.array([pairs.index.get(A.neg(b), -1) for b in elements], dtype=np.intp)

    def pair(k: int) -> dict:
        return {"witness": {"x": A.token(elements[pairs.x[k]]), "y": A.token(elements[pairs.y[k]])}}

    report.add(masked_verdict("closure-times", pairs.times < 0, pair, mode))
    report.add(masked_verdict("closure-oplus", pairs.oplus < 0, pair, mode))
    report.add(masked_verdict("closure-neg", negs < 0, lambda k: {"witness": {"x": A.token(elements[k])}}, mode))
    report.checks += scan_axioms(A, SKELETON_AXIOMS, elements, {}, mode, "")

    nonzero = [b for b in elements if b != A.bot]
    atoms = [
        b
        for b in nonzero
        if not any(c != b and A.leq(c, b) for c in nonzero)
    ]
    below = {b: [i for i, a in enumerate(atoms) if A.leq(a, b)] for b in elements}
    joins = [reduce(A.join, [atoms[i] for i in below[b]], A.bot) for b in elements]
    report.add(masked_verdict(
        "atomic-decomposition", np.array([j != b for j, b in zip(joins, elements)], dtype=bool),
        lambda k: {"witness": {"x": A.token(elements[k])}, "lhs": A.token(joins[k]), "rhs": A.token(elements[k])},
        mode,
    ))
    return Skeleton(elements=elements, atoms=atoms, report=report, algebra=A, pairs=pairs, below=below)


def in_radical(A, x) -> bool:
    """Whether x lies in the radical: x > ¬x."""
    return A.leq(A.neg(x), x) and A.neg(x) != x


@dataclass
class RadicalView:
    """The radical carrier with its induced semihoop and translation maps."""

    elements: list
    hoop: Any
    to_hoop: Callable[[Any], Any]
    from_hoop: Callable[[Any], Any]
    report: ValidationReport


def radical(A, window: int = 8) -> RadicalView:
    """ℋ(A) = {x : x > ¬x} with the restricted ·, →, ∧ as a semihoop.

    Memoized per window: state constructions evaluate many maps against the
    same radical, and re-validating the induced hoop each time would dominate.
    """
    require_ibp0(A, window)
    return memo(A, ("radical", window), lambda: _radical(A, window))


def _radical(A, window: int) -> RadicalView:
    report = ValidationReport(subject="radical")
    mode = scan_mode(A, window)

    if isinstance(A, SymbolicPerfectAlgebra):
        elements = [("pos", m) for m in A.core.carrier(window)]
        hoop = A.core
        to_hoop = lambda a: a[1]
        from_hoop = lambda m: ("pos", m)
    elif isinstance(A, ProductAlgebra):
        views = [radical(f, window) for f in A.factors]
        hoop = ProductHoop([v.hoop for v in views])
        elements = [tuple(c) for c in capped_cartesian(
            [v.elements for v in views], PRODUCT_ELEMENT_CAP, forced=(A.top,)
        )]
        subviews = views

        def to_hoop(a):
            return tuple(v.to_hoop(x) for v, x in zip(subviews, a))

        def from_hoop(h):
            return tuple(v.from_hoop(x) for v, x in zip(subviews, h))
    else:
        elements = [a for a in A.carrier(window) if in_radical(A, a)]
        order = {a: i for i, a in enumerate(elements)}
        hoop = FiniteSemihoop.tabulated(A, elements)
        to_hoop = lambda a: order[a]
        from_hoop = lambda i: elements[i]

    # Membership sanity plus closure of the radical under the hoop signature.
    member_bad = [{"witness": {"x": A.token(a)}} for a in elements if not in_radical(A, a)]
    report.add(verdict("membership", member_bad, mode=mode))

    base = stride_select(elements, 64)
    bad = []
    for x, y in iterproduct(base, repeat=2):
        for opname in ("times", "impl", "meet"):
            r = getattr(A, opname)(x, y)
            if not in_radical(A, r):
                bad.append({"witness": {"x": A.token(x), "y": A.token(y)}, "op": opname, "result": A.token(r)})
    report.add(verdict("closure", bad, mode=mode))

    # The induced structure must be a prelinear semihoop.
    hoop_report = validate_semihoop(hoop, window)
    report.merge(hoop_report, prefix="hoop-")
    report.flags.update(hoop_report.flags)

    # The join of a complemented element and a radical element stays radical.
    skeleton = boolean_skeleton(A, window)
    bad = []
    for b in skeleton.elements:
        for c in base:
            r = A.join(b, c)
            if not in_radical(A, r):
                bad.append({"witness": {"b": A.token(b), "c": A.token(c)}, "result": A.token(r)})
    report.add(verdict("skeleton-join-closure", bad, mode=mode))

    # Translation maps must be mutually inverse on the window.
    bad = [
        {"witness": {"x": A.token(a)}}
        for a in elements
        if from_hoop(to_hoop(a)) != a
    ]
    report.add(verdict("translation-roundtrip", bad, mode=mode))

    return RadicalView(elements=elements, hoop=hoop, to_hoop=to_hoop, from_hoop=from_hoop, report=report)


def coradical(A, window: int = 8) -> list:
    """{a : ¬a ∈ ℋ(A)}, which is exactly the negation image of the radical."""
    rad = radical(A, window)
    return [A.neg(a) for a in rad.elements]


@dataclass(frozen=True)
class Decomposition:
    b: Any
    c: Any


def decompose_element(A, a) -> Decomposition:
    """Split a into its skeleton part b_a and radical part c_a.

    b_a = ¬((¬a²)²) and c_a = a ∨ ¬a; the recomposition identity
    (b_a ∨ ¬c_a) ∧ (¬b_a ∨ c_a) = a is re-checked on every call.
    """
    a_sq = A.times(a, a)
    b = A.neg(A.times(A.neg(a_sq), A.neg(a_sq)))
    c = A.join(a, A.neg(a))
    if A.join(b, A.neg(b)) != A.top:
        raise InternalConsistencyError(f"b_a not complemented for a = {A.token(a)}")
    if not in_radical(A, c):
        raise InternalConsistencyError(f"c_a not in the radical for a = {A.token(a)}")
    recomposed = A.meet(A.join(b, A.neg(c)), A.join(A.neg(b), c))
    if recomposed != a:
        raise InternalConsistencyError(
            f"decomposition does not recompose: a = {A.token(a)}, got {A.token(recomposed)}"
        )
    return Decomposition(b=b, c=c)


# ---------------------------------------------------------------------------
# Constructors


def rotated_hoop(H: FiniteSemihoop) -> FiniteMTL:
    """Rotation tables of a finite semihoop, without the validation pass of
    :func:`rotate`.

    Index layout: neg-x at x, pos-x at n + x.
    """
    R = SymbolicPerfectAlgebra(H)
    return FiniteMTL.tabulated(R, R.carrier(0))


def rotate(H, window: int = 8):
    """Disconnected rotation of a prelinear semihoop, verified on delivery.

    The proposed tables are never trusted: the construction re-runs the
    full validator and refuses, naming a witness, if anything fails.
    """
    if isinstance(H, SymbolicConeHoop):
        A: Any = SymbolicPerfectAlgebra(H)
    elif isinstance(H, FiniteSemihoop):
        A = rotated_hoop(H)
    else:
        raise MalformedInputError("rotation needs a finite semihoop or a cone hoop")
    report = validate_ibp0(A, window)
    if not report.ok:
        first = report.failures()[0]
        witness = first.witnesses[0] if first.witnesses else {}
        raise PreconditionError(f"rotation is not in the variety: {first.axiom} fails at {witness}")
    return A


def product(factors: Sequence[Any], window: int = 8) -> ProductAlgebra:
    """Componentwise product; every factor must pass the validator."""
    if not factors:
        raise MalformedInputError("a product needs at least one factor")
    for f in factors:
        require_ibp0(f, window)
    return ProductAlgebra(factors)
