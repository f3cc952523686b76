"""Lattice-ordered monoids and their Grothendieck lattice-group envelope.

Two carrier forms are supported: finite Cayley tables, and the symbolic
cancellative cones N^k (componentwise addition).  The envelope K(M) is the
abelian lattice-group of formal differences [x, y]; in the finite case its
classes are computed by explicit witness search over the carrier, in the
symbolic case by canonical integer forms x - y.

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

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ._scan import Axiom, scan_axioms
from .reports import MalformedInputError, ValidationReport

Element = Any  # int index (finite) or tuple of ints (symbolic)


def _is_index(v: Any, n: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _array(where: str, value: Any, n: int) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise MalformedInputError(f"{where}: expected an array of {n} entries, got {value!r}")
    if len(value) != n:
        raise MalformedInputError(f"{where}: expected {n} entries, got {len(value)}")
    return value


def check_table(name: str, table: Any, n: int) -> tuple[tuple[int, ...], ...]:
    """Shape-check an n x n Cayley table; raises MalformedInputError naming
    the row or cell."""
    out = []
    for i, row in enumerate(_array(name, table, n)):
        for j, v in enumerate(_array(f"{name} row {i}", row, n)):
            if not _is_index(v, n):
                raise MalformedInputError(f"{name}[{i}][{j}] = {v!r} is not an index in 0..{n - 1}")
        out.append(tuple(row))
    return tuple(out)


class TableAlgebra:
    """A finite carrier on indices 0..n-1, declared by its tables.

    A kind declares ``KIND`` (its name in error messages), ``TABLES`` (its
    binary ops in constructor order) and ``CONSTANTS`` (its named elements,
    after the tables in the constructor).  Each op ``o`` in ``TABLES`` keeps
    its checked table as ``o_table`` and is bound to the lookup in it, so a
    kind writes only the ops it derives.  Every kind has a meet table, which
    the order is read from.
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
            table = check_table(op, table, n)
            setattr(self, f"{op}_table", table)
            setattr(self, op, lambda x, y, t=table: t[x][y])
        for name, v in zip(self.CONSTANTS, constants):
            if not _is_index(v, n):
                raise MalformedInputError(f"{name} = {v!r} is not an index in 0..{n - 1}")
            setattr(self, name, v)

    @classmethod
    def tabulated(cls, A, elems: Sequence):
        """The kind's tables of the ops of ``A`` over ``elems``, which they must
        not leave; ``elems[i]`` becomes index i."""
        index = {x: i for i, x in enumerate(elems)}
        fields = {op: [[index[getattr(A, op)(x, y)] for y in elems] for x in elems] for op in cls.TABLES}
        fields.update((name, index[getattr(A, name)]) for name in cls.CONSTANTS)
        return cls(**fields, size=len(elems))

    def elements(self) -> range:
        return range(self.size)

    def carrier(self, window: int) -> list[int]:
        return list(range(self.size))

    def leq(self, x: int, y: int) -> bool:
        return self.meet_table[x][y] == x

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
class Cone:
    """The carrier N^rank under componentwise addition, with the zero tuple
    as unit.  Each subclass puts one lattice order on it."""

    rank: int

    is_finite = False

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise MalformedInputError("rank must be at least 1")

    @property
    def unit(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple(a + b for a, b in zip(x, y))

    # Each op's batch form (``<op>_rows``) takes integer coordinate arrays of
    # shape (..., rank), an element's coordinates being the element itself.
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

    def meet(self, x: tuple, y: tuple) -> tuple:
        return tuple(min(a, b) for a, b in zip(x, y))

    def join(self, x: tuple, y: tuple) -> tuple:
        return tuple(max(a, b) for a, b in zip(x, y))

    def leq(self, x: tuple, y: tuple) -> bool:
        return all(a <= b for a, b in zip(x, y))

    meet_rows, join_rows = np.minimum, np.maximum

    def leq_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x <= y).all(axis=-1)


@dataclass(frozen=True)
class KElement:
    """A formal difference [pos, neg] over the base monoid."""

    pos: Element
    neg: Element


class KGroup:
    """The envelope K(M), as an explicit pair quotient or as canonical Z^k."""

    def __init__(self, base):
        self.base = base
        if not base.is_finite:
            self.mode = "symbolic"
            self.pairs = None
            self.class_ids = None
            self.class_members = None
        else:
            self.mode = "finite-quotient"
            self._build_finite_quotient()

    def _build_finite_quotient(self) -> None:
        M = self.base
        pairs = [(x, y) for x in M.elements() for y in M.elements()]
        class_ids: dict[tuple, int] = {}
        members: list[list[tuple]] = []
        for p in pairs:
            for cid, group in enumerate(members):
                if eq_witness(M, p, group[0]) is not None:
                    class_ids[p] = cid
                    group.append(p)
                    break
            else:
                class_ids[p] = len(members)
                members.append([p])
        self.pairs = pairs
        self.class_ids = class_ids
        self.class_members = members

    # Representatives are lexicographically least because pairs are scanned
    # in index order and the first member of each class is kept first.
    def representatives(self) -> list[KElement]:
        return [KElement(*group[0]) for group in self.class_members]

    def class_of(self, e: KElement) -> int:
        try:
            return self.class_ids[(e.pos, e.neg)]
        except KeyError:
            raise MalformedInputError(f"pair ({e.pos}, {e.neg}) is not over this carrier") from None

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


def eq_witness(M, p: tuple, q: tuple):
    """A carrier z with z + x + y' = z + x' + y, or None."""
    x, y = p
    xp, yp = q
    for z in M.elements():
        if M.add(M.add(z, x), yp) == M.add(M.add(z, xp), y):
            return z
    return None


def leq_witness(M, p: tuple, q: tuple):
    """A carrier z with z + x1 + y2 <=_M z + y1 + x2, or None."""
    x1, y1 = p
    x2, y2 = q
    for z in M.elements():
        if M.leq(M.add(M.add(z, x1), y2), M.add(M.add(z, y1), x2)):
            return z
    return None


def k_envelope(M) -> tuple[KGroup, Callable[[Element], KElement]]:
    """The envelope of M together with the embedding h(x) = [x + x, x]."""
    K = KGroup(M)

    def h(x: Element) -> KElement:
        return KElement(M.add(x, x), x)

    return K, h


def k_equal(K: KGroup, e1: KElement, e2: KElement) -> bool:
    if K.mode == "symbolic":
        return K.canonical(e1) == K.canonical(e2)
    return eq_witness(K.base, (e1.pos, e1.neg), (e2.pos, e2.neg)) is not None


def k_leq(K: KGroup, e1: KElement, e2: KElement) -> bool:
    if K.mode == "symbolic":
        M = K.base
        return M.leq(M.add(e1.pos, e2.neg), M.add(e1.neg, e2.pos))
    return leq_witness(K.base, (e1.pos, e1.neg), (e2.pos, e2.neg)) is not None


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
    if not M.is_finite:
        return True
    for a, b, c in product(M.elements(), repeat=3):
        if M.add(a, c) == M.add(b, c) and a != b:
            return False
    return True


def h_is_injective(K: KGroup) -> bool:
    M = K.base
    if K.mode == "symbolic":
        return True
    seen = {}
    for x in M.elements():
        cid = K.class_of(KElement(M.add(x, x), x))
        if cid in seen and seen[cid] != x:
            return False
        seen[cid] = x
    return True


def envelope_summary(K: KGroup) -> dict[str, Any]:
    count = f"free abelian of rank {K.base.rank}" if K.mode == "symbolic" else len(K.class_members)
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


def validate_lmonoid(M: FiniteLMonoid) -> ValidationReport:
    """Scan every ell-monoid axiom instance; every violation is counted."""
    checks = scan_axioms(M, LMONOID_AXIOMS, list(M.elements()), {}, "exhaustive", "")
    return ValidationReport(subject="lmonoid", checks=checks)
