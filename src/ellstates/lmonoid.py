"""Lattice-ordered monoids and their Grothendieck lattice-group envelope.

Every carrier (finite Cayley tables, the symbolic cancellative cones N^k,
rotations and direct products) defines each op of :data:`OPS` once, as a
batch op on coordinate rows, and :class:`Carrier` derives the scalar op on
elements from it.  The envelope K(M) is the abelian lattice-group of formal
differences [x, y]: on a finite ell-monoid it has one class, by the proof in
:class:`KGroup`, and on a cone its classes are the canonical integer forms x - y.

The witness relation defining equality of pairs is

    [x, y] = [x', y']   iff   some carrier z has  z + x + y' = z + x' + y

and the order, join and meet of classes are

    [x1, y1] <= [x2, y2]  iff  some z has  z + x1 + y2 <=_M z + y1 + x2
    join = [x1 + x2, (x1 + y2) /\\ (x2 + y1)]
    meet = [(x1 + y2) /\\ (x2 + y1), y1 + y2]

The monoid embeds via h(x) = [x + x, x]; h is injective exactly when M is
cancellative.

A symbolic cone is an ell-monoid in either orientation, one subclass of
Cone each: SymbolicCancellativeMonoid has the natural one (meet = min).  A
semihoop, finite or a cone hoop unit on top, is its own reduct: add = times,
unit = top, join = the pseudo-join.  Order-sensitive facts about K(M), such as
image_bound's lower bound, hold only in M's own orientation, read off M.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ._scan import PREDICATES, Axiom, integers, locate, memo, scan_axioms, tables
from .reports import InternalConsistencyError, MalformedInputError, PreconditionError, ValidationReport

Element = Any  # int index (finite) or tuple of ints (symbolic)
# Every op a carrier may have, as a batch op ``<op>_rows``; leq is the predicate.
OPS = ("add", "times", "impl", "meet", "join", "neg", "oplus", "leq")


def _is_index(v: Any, n: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _array(where: str, value: Any, n: int) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise MalformedInputError(f"{where}: expected an array of {n} entries, got {value!r}")
    if len(value) != n:
        raise MalformedInputError(f"{where}: expected {n} entries, got {len(value)}")
    return value


def check_table(name: str, table: Any, n: int) -> np.ndarray:
    """Shape-check an n x n Cayley table into its gather array, typed to hold
    0..n-1; raises MalformedInputError naming the first bad row or cell in
    row-major order."""
    rows, kind = _array(name, table, n), np.min_scalar_type(n - 1)
    # Checked in bulk; only a bad table walks its cells to name the first fault.
    if all(isinstance(r, (list, tuple)) and len(r) == n for r in rows) and all(
        issubclass(t, int) and t is not bool for t in set(map(type, chain.from_iterable(rows)))
    ):
        with suppress(OverflowError):
            out = np.array(rows, dtype=kind)
            if not (out >= n).any():
                return out
    for i, row in enumerate(rows):
        for j, v in enumerate(_array(f"{name} row {i}", row, n)):
            if not _is_index(v, n):
                raise MalformedInputError(f"{name}[{i}][{j}] = {v!r} is not an index in 0..{n - 1}")
    raise InternalConsistencyError(f"{name}: refused in bulk, yet no cell is bad")


def _derived(name: str, A):
    """The scalar op ``name`` of A: :meth:`Carrier._scalar` on the batch op
    ``<name>_rows``, and absent, to hasattr too, where that is."""
    getattr(A, f"{name}_rows")  # raises AttributeError where it is absent
    return partial(A._scalar, name)


class Carrier:
    """A carrier defined by its batch ops: ``<op>_rows`` maps integer rows of
    shape (..., d), the coordinates ``row(x)`` read back by ``element``, to
    result rows (truth values for ``leq``).  A scalar op is its batch op on
    one row per operand, returning Python values for witnesses and JSON."""

    vars().update((op, property(partial(_derived, op))) for op in OPS)

    def _scalar(self, name: str, *xs):
        rows = integers([self.row(x) for x in xs])
        out = getattr(self, f"{name}_rows")(*rows[:, None])[0]
        return bool(out) if name in PREDICATES else self.element(out.tolist())


class TableAlgebra(Carrier):
    """A finite carrier on indices 0..n-1, declared by its tables.

    A kind declares ``KIND`` (its name in error messages), ``TABLES`` (its
    binary ops in constructor order) and ``CONSTANTS`` (its named elements,
    after the tables in the constructor).  Each op ``o`` in ``TABLES`` keeps
    its checked table once, as the gather array ``o_table``, and ``o_rows``
    gathers in it on rows ``(x,)``, so a kind writes only the batch ops it
    derives.  The order is read from the meet table.
    """

    is_finite = True
    KIND: str
    TABLES: tuple[str, ...]
    CONSTANTS: tuple[str, ...]

    def __init__(self, tables: Sequence, constants: Sequence, size: int | None):
        n = size if size is not None else len(tables[0])
        if n < 1:
            raise MalformedInputError("size must be at least 1")
        self.size = n
        for op, table in zip(self.TABLES, tables):
            gather = check_table(op, table, n)
            setattr(self, f"{op}_table", gather)
            setattr(self, f"{op}_rows", lambda x, y, t=gather: t[x, y])
        for name, v in zip(self.CONSTANTS, constants):
            if not _is_index(v, n):
                raise MalformedInputError(f"{name} = {v!r} is not an index in 0..{n - 1}")
            setattr(self, name, v)

    @classmethod
    def tabulated(cls, A, elems: Sequence):
        """The kind's tables of the ops of ``A`` over ``elems``, one gather each in
        A's id tables; they must not leave elems, and ``elems[i]`` becomes index i."""
        o, n = tables(A), len(elems)
        ids = o.encode(elems)
        fields = {op: locate(o, getattr(o, op)(ids.reshape((n, 1)), ids.reshape((1, n))), ids).tolist()
                  for op in cls.TABLES}
        fields.update((name, elems.index(getattr(A, name))) for name in cls.CONSTANTS)
        return cls(**fields, size=n)

    def elements(self) -> range:
        return range(self.size)

    def carrier(self, window: int) -> list[int]:
        return list(range(self.size))

    def leq_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (self.meet_rows(x, y) == x)[..., 0]

    def token(self, x: int) -> str:
        return str(x)

    def row(self, x: int) -> tuple[int]:
        return (x,)

    def element(self, r: Sequence[int]) -> int:
        return r[0]


class FiniteLMonoid(TableAlgebra):
    """A lattice-ordered monoid given by n x n tables over indices 0..n-1."""

    KIND = "lattice monoid"
    TABLES = ("add", "meet", "join")
    CONSTANTS = ("unit",)

    def __init__(self, add, meet, join, unit: int, size: int | None = None):
        super().__init__((add, meet, join), (unit,), size)


@dataclass(frozen=True)
class Cone(Carrier):
    """The carrier N^rank under componentwise addition, with the zero tuple
    as unit.  Each subclass puts one lattice order on it.  An element's
    coordinates are the element itself."""

    rank: int

    is_finite = False

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise MalformedInputError("rank must be at least 1")

    @property
    def unit(self) -> tuple[int, ...]:
        return (0,) * self.rank

    add_rows = np.add

    def carrier(self, window: int) -> list[tuple[int, ...]]:
        return [tuple(t) for t in product(range(window + 1), repeat=self.rank)]

    def token(self, x: tuple) -> str:
        return "(" + ",".join(str(c) for c in x) + ")"

    def row(self, x: tuple) -> tuple:
        return x

    def element(self, r: Sequence[int]) -> tuple:
        return tuple(r)


class SymbolicCancellativeMonoid(Cone):
    """The cone in the natural lattice order (meet = min).  Cancellative by
    construction."""

    meet_rows, join_rows = np.minimum, np.maximum

    def leq_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x <= y).all(axis=-1)


@dataclass(frozen=True)
class KElement:
    """A formal difference [pos, neg] over the base monoid."""

    pos: Element
    neg: Element


class KGroup:
    """The envelope K(M): one class for a finite M, canonical Z^k for a cone.

    A finite envelope has one class.  Let M be a finite ell-monoid and x in
    M.  The multiples of x repeat: (m+p)x = mx for some m, p >= 1.  Put
    t = mx \\/ ... \\/ (m+p-1)x.  Since + distributes over \\/,
    x + t = (m+1)x \\/ ... \\/ (m+p)x = t, so z = t witnesses [x, 0] = [0, 0].
    Every pair is therefore equal to, and below, every other; h is
    injective, and M cancellative (x + t = 0 + t), only when |M| = 1.  The
    proof needs the ell-monoid laws, so a finite base must pass
    :func:`validate_lmonoid`, as a finite semihoop, its own reduct, does.
    """

    def __init__(self, base):
        self.base = base
        self.mode = "finite-quotient" if base.is_finite else "symbolic"
        if base.is_finite:
            require_lmonoid(base)

    def representatives(self) -> list[KElement]:
        """The least pair in index order, for a finite envelope's one class."""
        if self.mode != "finite-quotient":
            raise MalformedInputError("representatives exist only in finite mode")
        return [KElement(0, 0)]

    def canonical(self, e: KElement) -> tuple[int, ...]:
        if self.mode != "symbolic":
            raise MalformedInputError("canonical forms exist only in symbolic mode")
        return tuple(p - n for p, n in zip(e.pos, e.neg))

    def from_canonical(self, c: Iterable[int]) -> KElement:
        c = tuple(c)
        return KElement(tuple(max(v, 0) for v in c), tuple(max(-v, 0) for v in c))

    def zero(self) -> KElement:
        return KElement(self.base.unit, self.base.unit)

    def token(self, e: KElement) -> str:
        if self.mode == "symbolic":
            return "(" + ",".join(str(v) for v in self.canonical(e)) + ")"
        return f"[{self.base.token(e.pos)},{self.base.token(e.neg)}]"


def k_envelope(M) -> tuple[KGroup, Callable[[Element], KElement]]:
    """The envelope of M together with the embedding h(x) = [x + x, x]."""
    K = KGroup(M)

    def h(x: Element) -> KElement:
        return KElement(M.add(x, x), x)

    return K, h


def k_equal(K: KGroup, e1: KElement, e2: KElement) -> bool:
    return K.mode != "symbolic" or K.canonical(e1) == K.canonical(e2)


def k_leq(K: KGroup, e1: KElement, e2: KElement) -> bool:
    M = K.base
    return K.mode != "symbolic" or M.leq(M.add(e1.pos, e2.neg), M.add(e1.neg, e2.pos))


def k_add(K: KGroup, e1: KElement, e2: KElement) -> KElement:
    M = K.base
    return KElement(M.add(e1.pos, e2.pos), M.add(e1.neg, e2.neg))


def k_negate(K: KGroup, e: KElement) -> KElement:
    return KElement(e.neg, e.pos)


def k_join(K: KGroup, e1: KElement, e2: KElement) -> KElement:
    M = K.base
    return KElement(
        M.add(e1.pos, e2.pos),
        M.meet(M.add(e1.pos, e2.neg), M.add(e2.pos, e1.neg)),
    )


def k_meet(K: KGroup, e1: KElement, e2: KElement) -> KElement:
    M = K.base
    return KElement(
        M.meet(M.add(e1.pos, e2.neg), M.add(e2.pos, e1.neg)),
        M.add(e1.neg, e2.neg),
    )


def image_bound(K: KGroup, h: Callable[[Element], KElement], e: KElement) -> KElement:
    """h(a /\\ b) for e = [a, b]: an image element below e (lower-bound lemma)."""
    return h(K.base.meet(e.pos, e.neg))


def is_cancellative(M) -> bool:
    """A cone is cancellative, and a finite ell-monoid only when |M| = 1 (see KGroup)."""
    if not M.is_finite:
        return True
    require_lmonoid(M)
    return M.size == 1


def h_is_injective(K: KGroup) -> bool:
    return K.mode == "symbolic" or K.base.size == 1


def envelope_summary(K: KGroup) -> dict[str, Any]:
    count = f"free abelian of rank {K.base.rank}" if K.mode == "symbolic" else 1
    return {
        "mode": K.mode,
        "classes": count,
        "trivial": count == 1,
        "h_injective": h_is_injective(K),
        "cancellative": is_cancellative(K.base),
    }


LMONOID_AXIOMS = [
    Axiom("add-commutative", 2, lambda o, x, y: (o.add(x, y), o.add(y, x))),
    Axiom("add-associative", 3, lambda o, x, y, z: (o.add(o.add(x, y), z), o.add(x, o.add(y, z)))),
    Axiom("add-unit", 1, lambda o, x: (o.add(x, o.unit), x)),
    Axiom("meet-commutative", 2, lambda o, x, y: (o.meet(x, y), o.meet(y, x))),
    Axiom("meet-associative", 3, lambda o, x, y, z: (o.meet(o.meet(x, y), z), o.meet(x, o.meet(y, z)))),
    Axiom("meet-idempotent", 1, lambda o, x: (o.meet(x, x), x)),
    Axiom("join-commutative", 2, lambda o, x, y: (o.join(x, y), o.join(y, x))),
    Axiom("join-associative", 3, lambda o, x, y, z: (o.join(o.join(x, y), z), o.join(x, o.join(y, z)))),
    Axiom("join-idempotent", 1, lambda o, x: (o.join(x, x), x)),
    Axiom("absorption-meet", 2, lambda o, x, y: (o.meet(x, o.join(x, y)), x)),
    Axiom("absorption-join", 2, lambda o, x, y: (o.join(x, o.meet(x, y)), x)),
    Axiom("distribution-meet", 3, lambda o, x, y, z: (o.add(x, o.meet(y, z)), o.meet(o.add(x, y), o.add(x, z)))),
    Axiom("distribution-join", 3, lambda o, x, y, z: (o.add(x, o.join(y, z)), o.join(o.add(x, y), o.add(x, z)))),
]


def validate_lmonoid(M) -> ValidationReport:
    """Scan every ell-monoid axiom instance of a finite M; every violation is
    counted.  The report is memoized on M and shared, so callers must not
    change it."""

    def scan() -> ValidationReport:
        checks = scan_axioms(M, LMONOID_AXIOMS, list(M.elements()), {}, "exhaustive", "")
        return ValidationReport(subject="lmonoid", checks=checks)

    return memo(M, "lmonoid", scan)


def require_lmonoid(M) -> None:
    """Raise PreconditionError unless the finite M passes validate_lmonoid."""
    failed = validate_lmonoid(M).failures()
    if failed:
        raise PreconditionError(f"not a lattice-ordered monoid: {', '.join(c.axiom for c in failed)} fail")
