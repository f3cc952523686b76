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
which tabulates the carriers' ops on demand through their batch forms.

Structure theory: the Boolean skeleton {a : a ∨ ¬a = 1}, the radical
{x : x > ¬x} with its induced prelinear semihoop, and the decomposition

    b_a = ¬((¬a²)²),  c_a = a ∨ ¬a,  a = (b_a ∨ ¬c_a) ∧ (¬b_a ∨ c_a)

which splits every element into a skeleton part and a radical part.

:mod:`.semihoop` is imported only where a hoop is built or read, by the
radical and by :func:`rotate`, so checking a table algebra never compiles it.
"""

from __future__ import annotations

import operator
from functools import cached_property, partial, partialmethod, reduce
from itertools import product as iterproduct
from typing import Any, NamedTuple, Sequence

import numpy as np

from ._scan import (Axiom, capped_cartesian, masked_verdict, memo, pair_columns, scan_axioms, scan_mode, span,
                    stride_select, tables)
from .lmonoid import Carrier, Componentwise, TableAlgebra
from .reports import (
    InternalConsistencyError,
    MalformedInputError,
    PreconditionError,
    ValidationReport,
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

    def neg_rows(self, x):
        return self.impl_rows(x, self.bot)

    def oplus_rows(self, x, y):
        return self.impl_rows(self.neg_rows(x), y)


# The rotation's binary element ops by the signs of their operands: the sign
# of the result, from whether each operand is positive, and its core for
# (pos, pos), (pos, neg), (neg, pos) and (neg, neg), as a core op on the
# operands' cores in the order given, the core's top, or one operand's core.
# The rotation's batch ops read it.
SIGNED = {
    "times": (operator.and_, (("times", "xy"), ("impl", "xy"), ("impl", "yx"), "top")),
    "impl": (lambda px, py: (px ^ True) | py, (("impl", "xy"), ("times", "xy"), "top", ("impl", "yx"))),
    "meet": (operator.and_, (("meet", "xy"), "y", "x", ("join", "xy"))),
    "join": (operator.or_, (("join", "xy"), "x", "y", ("meet", "xy"))),
}


class SymbolicPerfectAlgebra(Carrier):
    """Disconnected rotation of a semihoop: two signed copies of the core.

    The positive copy keeps the hoop structure, the negative copy mirrors
    it, negation swaps them, and every product of two negatives collapses
    to 0.  Over a cone hoop (two signed copies of ℕᵏ) the skeleton is
    exactly {0, 1} and the positive copy is the radical.

    Each op is defined once, as a batch op ``<op>_rows`` on an element's sign
    (1 for pos) followed by its core's coordinates, reading the core's batch
    ops (a gather for a finite core); see :class:`.lmonoid.Carrier`.
    """

    def __init__(self, core):
        self.core = core
        self.is_finite = core.is_finite

    KIND, FORM = "bounded algebra", "rotation"
    # Built on first use, after the CLI's size guard has refused a huge rank.
    bot = cached_property(lambda self: ("neg", self.core.top))
    top = cached_property(lambda self: ("pos", self.core.top))

    @property
    def rank(self) -> int:
        return self.core.rank

    def carrier(self, window: int) -> list[tuple]:
        core = self.core.carrier(window)
        return [("neg", m) for m in core] + [("pos", m) for m in core]

    def _branch(self, spec, cx, cy):
        """One core entry of SIGNED, on core rows."""
        if spec == "top":
            return self.core.row(self.core.top)
        if spec in ("x", "y"):
            return cx if spec == "x" else cy
        name, order = spec
        op = getattr(self.core, f"{name}_rows")
        return op(cx, cy) if order == "xy" else op(cy, cx)

    def _signed_rows(self, name: str, x, y):
        sign, branches = SIGNED[name]
        (px, cx), (py, cy) = _parts(x), _parts(y)
        pp, pn, nps, nn = (self._branch(spec, cx, cy) for spec in branches)
        core = np.where(px, np.where(py, pp, pn), np.where(py, nps, nn))
        return np.concatenate([sign(px, py).astype(np.intp), core], axis=-1)

    times_rows, impl_rows, meet_rows, join_rows = map(partial(partialmethod, _signed_rows), SIGNED)

    def neg_rows(self, x):
        px, cx = _parts(x)
        return np.concatenate([(px ^ True).astype(np.intp), cx], axis=-1)

    def oplus_rows(self, x, y):
        return self.impl_rows(self.neg_rows(x), y)

    def leq_rows(self, x, y):
        (px, cx), (py, cy), C = _parts(x), _parts(y), self.core
        px, py = px[..., 0], py[..., 0]
        return np.where(px == py, np.where(px, C.leq_rows(cx, cy), C.leq_rows(cy, cx)), ~px)

    def token(self, x) -> str:
        sx, cx = x
        return sx + self.core.token(cx)

    def row(self, x) -> tuple:
        return (int(x[0] == "pos"), *self.core.row(x[1]))

    def element(self, r: Sequence[int]) -> tuple:
        return ("pos" if r[0] else "neg", self.core.element(r[1:]))


def _parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation coordinate rows as (positive, core rows)."""
    return x[..., :1] == 1, x[..., 1:]


class ProductAlgebra(Componentwise):
    """Componentwise product of validated algebras."""

    KIND = "bounded algebra"
    bot = cached_property(lambda self: tuple(f.bot for f in self.factors))

    def carrier(self, window: int) -> list[tuple]:
        axes = [f.carrier(window) for f in self.factors]
        return capped_cartesian(axes, PRODUCT_ELEMENT_CAP, forced=(self.bot, self.top))


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
        if len(elems) < span(A, window):
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
    """Raise unless A passes validate_ibp0; the verdict is read once per (A, window)."""
    if not memo(A, ("ibp0-ok", window), lambda: validate_ibp0(A, window).ok):
        report = validate_ibp0(A, window)
        first = report.failures()[0]
        detail = f"; first witness {first.witnesses[0]}" if first.witnesses else ""
        raise PreconditionError(
            f"not an algebra of the variety: {', '.join(c.axiom for c in report.failures())} failed{detail}"
        )


# ---------------------------------------------------------------------------
# Skeleton, radical, decomposition


class Skeleton:
    """The complemented elements, with the checks certifying they form a
    Boolean algebra under the restricted operations.

    The ambient algebra rides along because the skeleton has no tables of
    its own: its meet, join and order are the ambient ones, restricted.
    ``pairs`` holds every pair of elements with their ·, ⊕, ∧ and ∨ as
    positions in ``elements`` and their order, and each element's negation
    (see :func:`._scan.pair_columns`), and ``below`` maps each element to the
    indices of the atoms below it.
    """

    def __init__(self, elements: list, atoms: list, report: ValidationReport, pairs: Any, below: dict, algebra: Any):
        self.elements, self.atoms, self.report = elements, atoms, report
        self.pairs, self.below, self.algebra = pairs, below, algebra


def boolean_skeleton(A, window: int = 8) -> Skeleton:
    require_ibp0(A, window)
    return memo(A, ("skeleton", window), lambda: _boolean_skeleton(A, window))


SKELETON_AXIOMS = [
    Axiom("times-is-meet", 2, lambda o, x, y: (o.times(x, y), o.meet(x, y))),
    Axiom("oplus-is-join", 2, lambda o, x, y: (o.oplus(x, y), o.join(x, y))),
    Axiom("complement-meet", 1, lambda o, x: (o.meet(x, o.neg(x)), o.bot)),
]


def _boolean_skeleton(A, window: int) -> Skeleton:
    o = tables(A)
    if isinstance(A, ProductAlgebra):
        factor_skels = [boolean_skeleton(f, window) for f in A.factors]
        elements = [tuple(c) for c in iterproduct(*(s.elements for s in factor_skels))]
    else:
        carrier = A.carrier(window)
        ids = o.encode(carrier)
        elements = [a for a, keep in zip(carrier, (o.join(ids, o.neg(ids)) == o.top).tolist()) if keep]

    report = ValidationReport(subject="skeleton")
    mode = scan_mode(A, window)
    # Every pair of the finite skeleton; a result of -1 has left it.
    pairs = pair_columns(A, elements, len(elements), "", ("times", "oplus", "meet", "join", "leq", "neg"), o)
    pair = lambda k: {"witness": pairs.witness(k)}
    report.add(masked_verdict("closure-times", pairs.times < 0, pair, mode))
    report.add(masked_verdict("closure-oplus", pairs.oplus < 0, pair, mode))
    report.add(masked_verdict("closure-neg", pairs.neg < 0, lambda k: {"witness": {"x": A.token(elements[k])}}, mode))
    report.checks += scan_axioms(A, SKELETON_AXIOMS, elements, {}, mode, "")

    # The order off the pair columns, and the joins of atoms through the id tables.
    n = len(elements)
    leq, nonzero = pairs.leq.reshape(n, n), np.array([b != A.bot for b in elements], dtype=bool)
    strictly = leq & ~np.eye(n, dtype=bool) & nonzero[:, None]
    at = [k for k in np.flatnonzero(nonzero).tolist() if not strictly[:, k].any()]
    atoms = [elements[k] for k in at]
    below = {b: [i for i, a in enumerate(at) if leq[a, k]] for k, b in enumerate(elements)}
    ids = o.encode(elements)
    joined = [reduce(o.join, [ids[at[i]] for i in below[b]], o.bot) == ids[k] for k, b in enumerate(elements)]
    report.add(masked_verdict(
        "atomic-decomposition", ~np.array(joined, dtype=bool),
        lambda k: {"witness": {"x": A.token(elements[k])},
                   "lhs": A.token(reduce(A.join, [atoms[i] for i in below[elements[k]]], A.bot)),
                   "rhs": A.token(elements[k])},
        mode,
    ))
    return Skeleton(elements=elements, atoms=atoms, report=report, algebra=A, pairs=pairs, below=below)


def in_radical(A, x) -> bool:
    """Whether x lies in the radical: x > ¬x, that is ¬x ≤ x and ¬x ≠ x, written with
    ``>`` ("and not") on truth values so that it also runs on the engine's id arrays."""
    return A.leq(A.neg(x), x) > (A.neg(x) == x)


class RadicalView:
    """The radical carrier with its induced semihoop and translation maps."""

    def __init__(self, elements: list, hoop: Any, to_hoop, from_hoop, report: ValidationReport):
        self.elements, self.hoop, self.to_hoop, self.from_hoop, self.report = elements, hoop, to_hoop, from_hoop, report


def radical(A, window: int = 8) -> RadicalView:
    """ℋ(A) = {x : x > ¬x} with the restricted ·, →, ∧ as a semihoop.

    Memoized per window: state constructions evaluate many maps against the
    same radical, and re-validating the induced hoop each time would dominate.
    """
    require_ibp0(A, window)
    return memo(A, ("radical", window), lambda: _radical(A, window))


def _radical(A, window: int) -> RadicalView:
    from .semihoop import FiniteSemihoop, ProductHoop, validate_semihoop

    report = ValidationReport(subject="radical")
    mode = scan_mode(A, window)
    # One ops namespace for a finite radical's elements, membership and closure:
    # it interns the results that leave the window, which closure has to see.
    o = tables(A)

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
        to_hoop = lambda a: tuple(v.to_hoop(x) for v, x in zip(views, a))
        from_hoop = lambda h: tuple(v.from_hoop(x) for v, x in zip(views, h))
    else:
        carrier = A.carrier(window)
        elements = [a for a, keep in zip(carrier, in_radical(o, o.encode(carrier)).tolist()) if keep]
        if not elements:
            raise PreconditionError("the radical is empty: no element lies above its negation")
        order = {a: i for i, a in enumerate(elements)}
        hoop = FiniteSemihoop.tabulated(A, elements)
        to_hoop = lambda a: order[a]
        from_hoop = lambda i: elements[i]

    report.add(masked_verdict("membership", ~in_radical(o, o.encode(elements)),
                              lambda k: {"witness": {"x": A.token(elements[k])}}, mode))

    base = stride_select(elements, 64)
    m, ops = len(base), ("times", "impl", "meet")
    column = o.encode(base).reshape((1, m))
    # One row per pair in itertools.product order, one column per op.
    left = ~np.stack([in_radical(o, getattr(o, op)(column.reshape((m, 1)), column)).ravel() for op in ops], axis=1)

    def closure(k: int) -> dict:
        x, y, op = base[k // 3 // m], base[k // 3 % m], ops[k % 3]
        return {"witness": {"x": A.token(x), "y": A.token(y)}, "op": op, "result": A.token(getattr(A, op)(x, y))}

    report.add(masked_verdict("closure", left.ravel(), closure, mode))

    # The induced structure must be a prelinear semihoop.
    hoop_report = validate_semihoop(hoop, window)
    report.merge(hoop_report, prefix="hoop-")
    report.flags.update(hoop_report.flags)

    # The join of a complemented element and a radical element stays radical.
    bs = boolean_skeleton(A, window).elements
    joins = o.join(o.encode(bs).reshape((len(bs), 1)), column)

    def joined(k: int) -> dict:
        b, c = bs[k // m], base[k % m]
        return {"witness": {"b": A.token(b), "c": A.token(c)}, "result": A.token(A.join(b, c))}

    report.add(masked_verdict("skeleton-join-closure", ~in_radical(o, joins).ravel(), joined, mode))

    # Translation maps must be mutually inverse on the window.
    roundtrip = np.array([from_hoop(to_hoop(a)) != a for a in elements], dtype=bool)
    report.add(masked_verdict("translation-roundtrip", roundtrip, lambda k: {"witness": {"x": A.token(elements[k])}},
                              mode))

    return RadicalView(elements=elements, hoop=hoop, to_hoop=to_hoop, from_hoop=from_hoop, report=report)


def coradical(A, window: int = 8) -> list:
    """{a : ¬a ∈ ℋ(A)}, which is exactly the negation image of the radical,
    read as one column of A's id tables."""
    o = tables(A)
    return o.decode(o.neg(o.encode(radical(A, window).elements)))


class Decomposition(NamedTuple):
    b: Any
    c: Any


def decomposition_terms(o, a) -> tuple:
    """b_a, c_a, whether b_a is complemented and c_a radical, and the
    recomposition, as terms over an ops namespace: a carrier, or its id
    tables (see :mod:`._scan`)."""
    a_sq = o.times(a, a)
    b = o.neg(o.times(o.neg(a_sq), o.neg(a_sq)))
    c = o.join(a, o.neg(a))
    return b, c, o.join(b, o.neg(b)) == o.top, in_radical(o, c), o.meet(o.join(b, o.neg(c)), o.join(o.neg(b), c))


def decompose(A, elems: Sequence, o) -> tuple:
    """b_a and c_a of every a in ``elems``, as id columns of A's id tables
    ``o``, with (b_a ∨ ¬c_a) ∧ (¬b_a ∨ c_a) = a checked at every a: at the
    first a where the decomposition fails, this raises, naming what failed."""
    a = o.encode(elems)
    b, c, complemented, radical_part, recomposed = decomposition_terms(o, a)
    bad = np.flatnonzero(~(complemented & radical_part & (recomposed == a)))
    if len(bad):
        k, x = bad[0], A.token(elems[bad[0]])
        if not complemented[k]:
            raise InternalConsistencyError(f"b_a not complemented for a = {x}")
        if not radical_part[k]:
            raise InternalConsistencyError(f"c_a not in the radical for a = {x}")
        got = A.token(o.decode(recomposed[k : k + 1])[0])
        raise InternalConsistencyError(f"decomposition does not recompose: a = {x}, got {got}")
    return b, c


def decompose_element(A, a) -> Decomposition:
    """Split a into its skeleton part b_a = ¬((¬a²)²) and radical part
    c_a = a ∨ ¬a: :func:`decompose` on [a], which re-checks the recomposition."""
    o = tables(A)
    b, c = decompose(A, [a], o)
    return Decomposition(b=o.decode(b)[0], c=o.decode(c)[0])


# ---------------------------------------------------------------------------
# Constructors


def rotated_hoop(H) -> FiniteMTL:
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
    from .semihoop import FiniteSemihoop, SymbolicConeHoop

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
    for f in factors:
        require_ibp0(f, window)
    return ProductAlgebra(factors)
