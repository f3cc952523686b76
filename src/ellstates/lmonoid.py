"""Lattice-ordered monoids and their Grothendieck lattice-group envelope.

Every carrier (finite Cayley tables, the symbolic cones N^k, rotations,
direct products, the envelope) defines each op of :data:`OPS` once, as a
batch op on coordinate rows, and :class:`Carrier` derives the scalar op on
elements from it.  Each but the envelope counts its own window, ``span``,
without building it.  The envelope K(M) is the abelian lattice-group of
formal differences [x, y]: on a finite ell-monoid it has one class, by the
proof in :class:`KGroup`, and on a cone its rows are the canonical forms x - y.

The witness relation defining equality of pairs is

    [x, y] = [x', y']   iff   some carrier z has  z + x + y' = z + x' + y

and the order, join and meet of classes are

    [x1, y1] <= [x2, y2]  iff  some z has  z + x1 + y2 <=_M z + y1 + x2
    join = [x1 + x2, (x1 + y2) /\\ (x2 + y1)]
    meet = [(x1 + y2) /\\ (x2 + y1), y1 + y2]

On a cone's canonical rows these are M's own add, meet, join and leq, so the
order is read off M.  The monoid embeds via h(x) = [x + x, x]; h is
injective exactly when M is cancellative.

A symbolic cone is an ell-monoid in either orientation, one subclass of
Cone each: SymbolicCancellativeMonoid has the natural one (meet = min).  A
semihoop, finite or a cone hoop unit on top, is its own reduct: add = times,
unit = top, join = the pseudo-join.  Order-sensitive facts about K(M), such as
image_bound's lower bound, hold only in M's own orientation.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cached_property, partial
from itertools import accumulate, chain, product
from math import prod
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ._scan import PREDICATES, Axiom, integers, locate, memo, narrowed, scan_axioms, tables
from .reports import InternalConsistencyError, MalformedInputError, PreconditionError, ValidationReport

Element = Any  # int index (finite) or tuple of ints (symbolic)
# Every op a carrier may have, as a batch op ``<op>_rows``; leq is the predicate.
OPS = ("add", "times", "impl", "meet", "join", "neg", "oplus", "leq")
# A scan of one algebra keeps its whole triple axis up to this many elements
# and stride-samples it past them, saying so in its note (ibp0 reads both).
SINGLE_TRIPLE_CAP = 176
SAMPLED_NOTE = "each axis sampled {m} of {n} window elements"


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


class Componentwise(Carrier):
    """A direct product: its elements are tuples, one entry per factor, and its
    row is the factors' rows side by side.  Where every factor has ``<op>_rows``,
    so does it: each factor's on its own (narrowed) columns, the results side
    by side, or for ``leq`` their conjunction."""

    def __init__(self, factors: Sequence[Any]):
        if not factors:
            raise MalformedInputError("a product needs at least one factor")
        self.factors = tuple(factors)
        self.is_finite = all(f.is_finite for f in self.factors)
        for op in OPS:
            if all(hasattr(f, f"{op}_rows") for f in self.factors):
                setattr(self, f"{op}_rows", partial(self._rows, op))

    FORM = "product"
    top = cached_property(lambda self: tuple(f.top for f in self.factors))

    @cached_property
    def _columns(self) -> list[slice]:
        """Each factor's columns, read late: a rotation builds its top after the CLI's size guard."""
        ends = list(accumulate(len(f.row(f.top)) for f in self.factors))
        return [slice(a, b) for a, b in zip([0] + ends, ends)]

    def _rows(self, op: str, *xs: np.ndarray) -> np.ndarray:
        parts = [getattr(f, f"{op}_rows")(*(narrowed(x[..., c]) for x in xs))
                 for f, c in zip(self.factors, self._columns)]
        return np.logical_and.reduce(parts) if op in PREDICATES else np.concatenate(parts, axis=-1)

    def span(self, window: int) -> int:
        """The elements of the window before a product caps it: its factors' spans multiplied."""
        return prod(f.span(window) for f in self.factors)

    def row(self, x: tuple) -> tuple:
        return tuple(chain.from_iterable(f.row(a) for f, a in zip(self.factors, x)))

    def element(self, r: Sequence[int]) -> tuple:
        return tuple(f.element(r[c]) for f, c in zip(self.factors, self._columns))

    def token(self, x: tuple) -> str:
        return "(" + "|".join(f.token(a) for f, a in zip(self.factors, x)) + ")"


class TableAlgebra(Carrier):
    """A finite carrier on indices 0..n-1, declared by its tables.

    A kind declares ``KIND`` (its family, which names it in errors), ``TABLES``
    (its binary ops in constructor order) and ``CONSTANTS`` (its named elements,
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

    def span(self, window: int) -> int:
        return self.size

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


class Cone(Carrier):
    """The carrier N^rank under componentwise addition, with the zero tuple
    as unit.  Each subclass puts one lattice order on it, and two cones are
    equal when they have the same class and rank.  An element's coordinates
    are the element itself."""

    is_finite = False

    def __init__(self, rank: int):
        if rank < 1:
            raise MalformedInputError("rank must be at least 1")
        self.rank = rank

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.rank == self.rank

    def __hash__(self) -> int:
        return hash(self.rank)

    @property
    def unit(self) -> tuple[int, ...]:
        return (0,) * self.rank

    add_rows = np.add

    def carrier(self, window: int) -> list[tuple[int, ...]]:
        return [tuple(t) for t in product(range(window + 1), repeat=self.rank)]

    # Past this rank span counts no higher, so a huge rank computes no huge power: from
    # window 1 up, 2^12 = 4096 elements are over the scans' ceiling, cli.MAX_WINDOW_ELEMENTS.
    SPAN_RANK_CAP = 12

    def span(self, window: int) -> int:
        """(window + 1)^rank, exact up to rank SPAN_RANK_CAP."""
        return (window + 1) ** min(self.rank, self.SPAN_RANK_CAP)

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


class KElement(NamedTuple):
    """A formal difference [pos, neg] over the base monoid."""

    pos: Element
    neg: Element


class KGroup(Carrier):
    """The envelope K(M), a carrier on canonical rows pos - neg.

    On a cone of rank k it is Z^k: + cancels, so on forms c = x - y each
    witness formula is M's own (c1 <= c2, c1 \\/ c2, c1 /\\ c2, c1 + c2) in
    either orientation, and K's ops are M's batch ops, with neg negation.

    A finite envelope has one class.  Let M be a finite ell-monoid and x in
    M.  The multiples of x repeat: (m+p)x = mx for some m, p >= 1.  Put
    t = mx \\/ ... \\/ (m+p-1)x.  Since + distributes over \\/,
    x + t = (m+1)x \\/ ... \\/ (m+p)x = t, so z = t witnesses [x, 0] = [0, 0].
    Every pair is therefore equal to, and below, every other; h is
    injective, and M cancellative (x + t = 0 + t), only when |M| = 1.  The
    proof needs the ell-monoid laws, so a finite base must pass
    :func:`validate_lmonoid`, as a finite semihoop, its own reduct, does.
    Its K is Z^0: rows are empty, leq always holds, and [0, 0] is ``element(())``.
    """

    # Z^0's ops, the natural order's on empty rows; a cone base binds its own.
    add_rows, meet_rows, join_rows, neg_rows = np.add, np.minimum, np.maximum, np.negative
    leq_rows = SymbolicCancellativeMonoid.leq_rows

    def __init__(self, base):
        self.base = base
        self.mode = "finite-quotient" if base.is_finite else "symbolic"
        self.width = 0 if base.is_finite else base.rank
        if base.is_finite:
            require_lmonoid(base)
        else:
            vars(self).update((f"{op}_rows", getattr(base, f"{op}_rows")) for op in ("add", "meet", "join", "leq"))

    def row(self, e: KElement) -> tuple[int, ...]:
        return tuple(e.pos[i] - e.neg[i] for i in range(self.width))

    def element(self, r: Sequence[int]) -> KElement:
        """The pair [max(r, 0), max(-r, 0)] of r's class, or [0, 0] in Z^0."""
        return KElement(tuple(max(v, 0) for v in r), tuple(max(-v, 0) for v in r)) if self.width else KElement(0, 0)

    def representatives(self) -> list[KElement]:
        """The least pair in index order, for a finite envelope's one class."""
        if self.width:
            raise MalformedInputError("representatives exist only in finite mode")
        return [self.element(())]

    def canonical(self, e: KElement) -> tuple[int, ...]:
        if not self.width:
            raise MalformedInputError("canonical forms exist only in symbolic mode")
        return self.row(e)

    def zero(self) -> KElement:
        return KElement(self.base.unit, self.base.unit)

    def token(self, e: KElement) -> str:
        if self.width:
            return "(" + ",".join(str(v) for v in self.row(e)) + ")"
        return f"[{self.base.token(e.pos)},{self.base.token(e.neg)}]"


def k_envelope(M) -> tuple[KGroup, Callable[[Element], KElement]]:
    """The envelope of M together with the embedding h(x) = [x + x, x]."""
    K = KGroup(M)

    def h(x: Element) -> KElement:
        return KElement(M.add(x, x), x)

    return K, h


def k_equal(K: KGroup, e1: KElement, e2: KElement) -> bool:
    """K.row(e1) == K.row(e2); kept, with k_leq and k_add, for perfbench's k_ops until it calls K's methods."""
    return K.row(e1) == K.row(e2)


def k_leq(K: KGroup, e1: KElement, e2: KElement) -> bool:
    return K.leq(e1, e2)


def k_add(K: KGroup, e1: KElement, e2: KElement) -> KElement:
    return K.add(e1, e2)


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
    return is_cancellative(K.base)


def envelope_summary(K: KGroup) -> dict[str, Any]:
    count = f"free abelian of rank {K.width}" if K.width else 1
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
    """Scan the ell-monoid axioms over a finite M, its triple axis strided to
    SINGLE_TRIPLE_CAP elements; every violation scanned is counted.  The
    report is memoized on M and shared, so callers must not change it."""

    def scan() -> ValidationReport:
        checks = scan_axioms(M, LMONOID_AXIOMS, list(M.elements()), {3: SINGLE_TRIPLE_CAP}, "exhaustive", SAMPLED_NOTE)
        return ValidationReport(subject="lmonoid", checks=checks)

    return memo(M, "lmonoid", scan)


def require_lmonoid(M) -> None:
    """Raise PreconditionError unless the finite M passes validate_lmonoid, whose
    triple axis is sampled past SINGLE_TRIPLE_CAP elements, as require_ibp0's is."""
    failed = validate_lmonoid(M).failures()
    if failed:
        raise PreconditionError(f"not a lattice-ordered monoid: {', '.join(c.axiom for c in failed)} fail")
