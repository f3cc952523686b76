"""MTL-algebras with involution and the doubling law, and their anatomy.

Three carrier forms:

* FiniteMTL -- explicit tables over indices 0..n-1;
* SymbolicPerfectAlgebra -- the disconnected rotation of a cone hoop, whose
  elements are signed tuples ('pos', m) / ('neg', m).  pos-m sits above the
  negation fixpoint-free gap, neg-m = ¬pos-m below it;
* ProductAlgebra -- componentwise products of the other two.

Validation is windowed brute force.  Operation evaluation is always exact
and unbounded (x·x may leave any window); only the quantifiers range over a
window.  Each axiom is declared once, as terms over an ops namespace
(MTL_AXIOMS, IBP0_AXIOMS), and scanned by the one engine in :mod:`._scan`.
All three carriers define numpy ``b_*`` batch ops beside their scalar ones,
so the engine takes its batch path here: elements are encoded into index or
coordinate arrays once, pair axioms run on a full n² grid, and triple axioms
loop over one axis while the other two stay vectorized.  Witnesses are
rendered through the scalar ops.

Structure theory: the Boolean skeleton {a : a ∨ ¬a = 1}, the radical
{x : x > ¬x} with its induced prelinear semihoop, and the decomposition

    b_a = ¬((¬a²)²),  c_a = a ∨ ¬a,  a = (b_a ∨ ¬c_a) ∧ (¬b_a ∨ c_a)

which splits every element into a skeleton part and a radical part.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iterproduct
from math import prod
from typing import Any, Callable, Sequence

import numpy as np

from ._scan import Axiom, capped_cartesian, memo, scan_axioms, scan_mode, stride_select
from .reports import (
    InternalConsistencyError,
    MalformedInputError,
    PreconditionError,
    ValidationReport,
    verdict,
)
from .semihoop import (
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


class FiniteMTL:
    """A bounded residuated-lattice algebra on indices 0..n-1."""

    is_finite = True

    def __init__(self, times, impl, meet, join, bot: int, top: int, size: int | None = None):
        from .lmonoid import check_table

        n = size if size is not None else len(times)
        if n < 1:
            raise MalformedInputError("size must be at least 1")
        self.size = n
        self.times_table = check_table("times", times, n, n)
        self.impl_table = check_table("impl", impl, n, n)
        self.meet_table = check_table("meet", meet, n, n)
        self.join_table = check_table("join", join, n, n)
        for name, idx in (("bot", bot), ("top", top)):
            if not isinstance(idx, int) or not 0 <= idx < n:
                raise MalformedInputError(f"{name} = {idx!r} is not an index in 0..{n - 1}")
        self.bot = bot
        self.top = top
        self._np_times = np.array(self.times_table, dtype=np.int64)
        self._np_impl = np.array(self.impl_table, dtype=np.int64)
        self._np_meet = np.array(self.meet_table, dtype=np.int64)
        self._np_join = np.array(self.join_table, dtype=np.int64)
        self._np_neg = self._np_impl[:, bot]

    def carrier(self, window: int) -> list[int]:
        return list(range(self.size))

    def times(self, x, y):
        return self.times_table[x][y]

    def impl(self, x, y):
        return self.impl_table[x][y]

    def meet(self, x, y):
        return self.meet_table[x][y]

    def join(self, x, y):
        return self.join_table[x][y]

    def neg(self, x):
        return self.impl_table[x][self.bot]

    def oplus(self, x, y):
        return self.impl_table[self.neg(x)][y]

    def leq(self, x, y) -> bool:
        return self.meet_table[x][y] == x

    def token(self, x) -> str:
        return str(x)

    # vectorized ops: a batch is an int64 index array
    def b_encode(self, elems):
        return np.array(elems, dtype=np.int64)

    def b_take(self, batch, idx):
        return batch[idx]

    def b_const(self, x, count):
        return np.full(count, x, dtype=np.int64)

    def b_times(self, a, b):
        return self._np_times[a, b]

    def b_impl(self, a, b):
        return self._np_impl[a, b]

    def b_meet(self, a, b):
        return self._np_meet[a, b]

    def b_join(self, a, b):
        return self._np_join[a, b]

    def b_neg(self, a):
        return self._np_neg[a]

    def b_leq(self, a, b):
        return self._np_meet[a, b] == a

    def b_eq(self, a, b):
        return a == b


class SymbolicPerfectAlgebra:
    """Disconnected rotation of a cone hoop: two signed copies of ℕᵏ.

    The positive copy keeps the hoop structure, the negative copy mirrors
    it, negation swaps them, and every product of two negatives collapses
    to 0.  The skeleton is exactly {0, 1}; the positive copy is the radical.
    """

    is_finite = False

    def __init__(self, core: SymbolicConeHoop):
        if not isinstance(core, SymbolicConeHoop):
            raise MalformedInputError("the symbolic rotation is built over a cone hoop")
        self.core = core
        self.rank = core.rank
        self.bot = ("neg", core.top)
        self.top = ("pos", core.top)

    def carrier(self, window: int) -> list[tuple]:
        cone = self.core.carrier(window)
        return [("neg", m) for m in cone] + [("pos", m) for m in cone]

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
        return sx + "(" + ",".join(str(c) for c in cx) + ")"

    # vectorized ops: a batch is (sign: bool array, coords: int64 (n, rank))
    def b_encode(self, elems):
        sign = np.array([s == "pos" for s, _ in elems], dtype=bool)
        coords = np.array([c for _, c in elems], dtype=np.int64).reshape(len(elems), self.rank)
        return sign, coords

    def b_take(self, batch, idx):
        return batch[0][idx], batch[1][idx]

    def b_const(self, x, count):
        sx, cx = x
        sign = np.full(count, sx == "pos", dtype=bool)
        coords = np.tile(np.array(cx, dtype=np.int64), (count, 1))
        return sign, coords

    def b_times(self, a, b):
        sa, ca = a
        sb, cb = b
        pospos = sa & sb
        posneg = sa & ~sb
        negpos = ~sa & sb
        coords = np.where(
            pospos[:, None],
            ca + cb,
            np.where(
                posneg[:, None],
                np.maximum(cb - ca, 0),
                np.where(negpos[:, None], np.maximum(ca - cb, 0), 0),
            ),
        )
        return pospos, coords

    def b_impl(self, a, b):
        sa, ca = a
        sb, cb = b
        pospos = sa & sb
        posneg = sa & ~sb
        negneg = ~sa & ~sb
        sign = ~posneg
        coords = np.where(
            pospos[:, None],
            np.maximum(cb - ca, 0),
            np.where(
                posneg[:, None],
                ca + cb,
                np.where(negneg[:, None], np.maximum(ca - cb, 0), 0),
            ),
        )
        return sign, coords

    def b_meet(self, a, b):
        sa, ca = a
        sb, cb = b
        pospos = sa & sb
        negneg = ~sa & ~sb
        posneg = sa & ~sb
        coords = np.where(
            pospos[:, None],
            np.maximum(ca, cb),
            np.where(
                negneg[:, None],
                np.minimum(ca, cb),
                np.where(posneg[:, None], cb, ca),
            ),
        )
        return pospos, coords

    def b_join(self, a, b):
        sa, ca = a
        sb, cb = b
        pospos = sa & sb
        negneg = ~sa & ~sb
        posneg = sa & ~sb
        coords = np.where(
            pospos[:, None],
            np.minimum(ca, cb),
            np.where(
                negneg[:, None],
                np.maximum(ca, cb),
                np.where(posneg[:, None], ca, cb),
            ),
        )
        return sa | sb, coords

    def b_neg(self, a):
        sa, ca = a
        return ~sa, ca

    def b_leq(self, a, b):
        sa, ca = a
        sb, cb = b
        pospos = sa & sb
        negneg = ~sa & ~sb
        return np.where(
            pospos,
            np.all(ca >= cb, axis=1),
            np.where(negneg, np.all(cb >= ca, axis=1), ~sa & sb),
        )

    def b_eq(self, a, b):
        return (a[0] == b[0]) & np.all(a[1] == b[1], axis=1)


class ProductAlgebra:
    """Componentwise product of validated algebras."""

    def __init__(self, factors: Sequence[Any]):
        if not factors:
            raise MalformedInputError("a product needs at least one factor")
        self.factors = tuple(factors)
        self.is_finite = all(f.is_finite for f in self.factors)
        self.bot = tuple(f.bot for f in self.factors)
        self.top = tuple(f.top for f in self.factors)

    def carrier(self, window: int) -> list[tuple]:
        axes = [f.carrier(window) for f in self.factors]
        return capped_cartesian(axes, PRODUCT_ELEMENT_CAP, forced=(self.bot, self.top))

    def _cw(self, op: str, x, y):
        return tuple(getattr(f, op)(a, b) for f, a, b in zip(self.factors, x, y))

    def times(self, x, y):
        return self._cw("times", x, y)

    def impl(self, x, y):
        return self._cw("impl", x, y)

    def meet(self, x, y):
        return self._cw("meet", x, y)

    def join(self, x, y):
        return self._cw("join", x, y)

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def oplus(self, x, y):
        return self._cw("oplus", x, y)

    def leq(self, x, y) -> bool:
        return all(f.leq(a, b) for f, a, b in zip(self.factors, x, y))

    def token(self, x) -> str:
        return "(" + "|".join(f.token(a) for f, a in zip(self.factors, x)) + ")"

    # vectorized ops: a batch is a tuple of factor batches
    def b_encode(self, elems):
        return tuple(f.b_encode([e[i] for e in elems]) for i, f in enumerate(self.factors))

    def b_take(self, batch, idx):
        return tuple(f.b_take(b, idx) for f, b in zip(self.factors, batch))

    def b_const(self, x, count):
        return tuple(f.b_const(a, count) for f, a in zip(self.factors, x))

    def _b_cw(self, op: str, a, b):
        return tuple(getattr(f, op)(x, y) for f, x, y in zip(self.factors, a, b))

    def b_times(self, a, b):
        return self._b_cw("b_times", a, b)

    def b_impl(self, a, b):
        return self._b_cw("b_impl", a, b)

    def b_meet(self, a, b):
        return self._b_cw("b_meet", a, b)

    def b_join(self, a, b):
        return self._b_cw("b_join", a, b)

    def b_neg(self, a):
        return tuple(f.b_neg(x) for f, x in zip(self.factors, a))

    def b_leq(self, a, b):
        out = None
        for f, x, y in zip(self.factors, a, b):
            part = f.b_leq(x, y)
            out = part if out is None else out & part
        return out

    def b_eq(self, a, b):
        out = None
        for f, x, y in zip(self.factors, a, b):
            part = f.b_eq(x, y)
            out = part if out is None else out & part
        return out


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
    """

    elements: list
    atoms: list
    report: ValidationReport
    algebra: Any = None


def boolean_skeleton(A, window: int = 8) -> Skeleton:
    require_ibp0(A, window)
    return memo(A, ("skeleton", window), lambda: _boolean_skeleton(A, window))


def _boolean_skeleton(A, window: int) -> Skeleton:
    if isinstance(A, ProductAlgebra):
        factor_skels = [boolean_skeleton(f, window) for f in A.factors]
        elements = [tuple(c) for c in iterproduct(*(s.elements for s in factor_skels))]
    else:
        elements = [a for a in A.carrier(window) if A.join(a, A.neg(a)) == A.top]

    report = ValidationReport(subject="skeleton")
    mode = scan_mode(A, window)
    member = set(elements)

    closure_bad = {"times": [], "oplus": [], "neg": []}
    square_bad = []
    join_bad = []
    for b in elements:
        if A.neg(b) not in member:
            closure_bad["neg"].append({"witness": {"x": A.token(b)}})
    for b, c in iterproduct(elements, repeat=2):
        if A.times(b, c) not in member:
            closure_bad["times"].append({"witness": {"x": A.token(b), "y": A.token(c)}})
        if A.oplus(b, c) not in member:
            closure_bad["oplus"].append({"witness": {"x": A.token(b), "y": A.token(c)}})
        if A.times(b, c) != A.meet(b, c):
            square_bad.append({"witness": {"x": A.token(b), "y": A.token(c)},
                               "lhs": A.token(A.times(b, c)), "rhs": A.token(A.meet(b, c))})
        if A.oplus(b, c) != A.join(b, c):
            join_bad.append({"witness": {"x": A.token(b), "y": A.token(c)},
                             "lhs": A.token(A.oplus(b, c)), "rhs": A.token(A.join(b, c))})
    for op, bad in closure_bad.items():
        report.add(verdict(f"closure-{op}", bad, mode=mode))
    report.add(verdict("times-is-meet", square_bad, mode=mode))
    report.add(verdict("oplus-is-join", join_bad, mode=mode))

    bad = [
        {"witness": {"x": A.token(b)}, "lhs": A.token(A.meet(b, A.neg(b))), "rhs": A.token(A.bot)}
        for b in elements
        if A.meet(b, A.neg(b)) != A.bot
    ]
    report.add(verdict("complement-meet", bad, mode=mode))

    nonzero = [b for b in elements if b != A.bot]
    atoms = [
        b
        for b in nonzero
        if not any(c != b and A.leq(c, b) for c in nonzero)
    ]
    bad = []
    for b in elements:
        below = [a for a in atoms if A.leq(a, b)]
        acc = A.bot
        for a in below:
            acc = A.join(acc, a)
        if acc != b:
            bad.append({"witness": {"x": A.token(b)}, "lhs": A.token(acc), "rhs": A.token(b)})
    report.add(verdict("atomic-decomposition", bad, mode=mode))
    return Skeleton(elements=elements, atoms=atoms, report=report, algebra=A)


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
        hoop = SymbolicConeHoop(rank=A.rank)
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
        elements = [a for a in A.carrier(window) if A.leq(A.neg(a), a) and A.neg(a) != a]
        order = {a: i for i, a in enumerate(elements)}
        n = len(elements)
        times = [[order[A.times(x, y)] for y in elements] for x in elements]
        impl = [[order[A.impl(x, y)] for y in elements] for x in elements]
        meet = [[order[A.meet(x, y)] for y in elements] for x in elements]
        hoop = FiniteSemihoop(times, impl, meet, top=order[A.top])
        to_hoop = lambda a: order[a]
        from_hoop = lambda i: elements[i]

    # Membership sanity plus closure of the radical under the hoop signature.
    member_bad = [
        {"witness": {"x": A.token(a)}}
        for a in elements
        if not (A.leq(A.neg(a), a) and A.neg(a) != a)
    ]
    report.add(verdict("membership", member_bad, mode=mode))

    base = stride_select(elements, 64)
    bad = []
    for x, y in iterproduct(base, repeat=2):
        for opname in ("times", "impl", "meet"):
            r = getattr(A, opname)(x, y)
            if not (A.leq(A.neg(r), r) and A.neg(r) != r):
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
            if not (A.leq(A.neg(r), r) and A.neg(r) != r):
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
    if not (A.leq(A.neg(c), c) and A.neg(c) != c):
        raise InternalConsistencyError(f"c_a not in the radical for a = {A.token(a)}")
    recomposed = A.meet(A.join(b, A.neg(c)), A.join(A.neg(b), c))
    if recomposed != a:
        raise InternalConsistencyError(
            f"decomposition does not recompose: a = {A.token(a)}, got {A.token(recomposed)}"
        )
    return Decomposition(b=b, c=c)


# ---------------------------------------------------------------------------
# Constructors


def _rotation_tables(H: FiniteSemihoop):
    """Tables of the disconnected rotation of a finite semihoop.

    Index layout: neg-x at x, pos-x at n + x.
    """
    n = H.size

    def enc(sign: str, x: int) -> int:
        return x if sign == "neg" else n + x

    def times(p, q):
        (sp, x), (sq, y) = p, q
        if sp == "pos" and sq == "pos":
            return ("pos", H.times(x, y))
        if sp == "pos":
            return ("neg", H.impl(x, y))
        if sq == "pos":
            return ("neg", H.impl(y, x))
        return ("neg", H.top)

    def impl(p, q):
        (sp, x), (sq, y) = p, q
        if sp == "pos" and sq == "pos":
            return ("pos", H.impl(x, y))
        if sp == "pos":
            return ("neg", H.times(x, y))
        if sq == "pos":
            return ("pos", H.top)
        return ("pos", H.impl(y, x))

    def meet(p, q):
        (sp, x), (sq, y) = p, q
        if sp == "pos" and sq == "pos":
            return ("pos", H.meet(x, y))
        if sp == "neg" and sq == "neg":
            return ("neg", pseudo_join(H, x, y))
        return p if sp == "neg" else q

    def join(p, q):
        (sp, x), (sq, y) = p, q
        if sp == "pos" and sq == "pos":
            return ("pos", pseudo_join(H, x, y))
        if sp == "neg" and sq == "neg":
            return ("neg", H.meet(x, y))
        return p if sp == "pos" else q

    signed = [("neg", x) for x in range(n)] + [("pos", x) for x in range(n)]
    t = [[enc(*times(p, q)) for q in signed] for p in signed]
    i = [[enc(*impl(p, q)) for q in signed] for p in signed]
    m = [[enc(*meet(p, q)) for q in signed] for p in signed]
    j = [[enc(*join(p, q)) for q in signed] for p in signed]
    return t, i, m, j, enc("neg", H.top), enc("pos", H.top)


def rotate(H, window: int = 8):
    """Disconnected rotation of a prelinear semihoop, verified on delivery.

    The proposed tables are never trusted: the construction re-runs the
    full validator and refuses, naming a witness, if anything fails.
    """
    if isinstance(H, SymbolicConeHoop):
        A: Any = SymbolicPerfectAlgebra(H)
    elif isinstance(H, FiniteSemihoop):
        t, i, m, j, bot, top = _rotation_tables(H)
        A = FiniteMTL(t, i, m, j, bot=bot, top=top)
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
