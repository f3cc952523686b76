"""Reference constructions shared by the tests: tuple twins of the carriers'
ops, planted faults, relabelled copies of a finite carrier, and the
envelope's witness relation searched over a finite carrier.

Each carrier in ``src`` defines its ops once, as batch ops on coordinate
rows, and derives its scalar ops from them.  A twin is the independent
reference those are held against: the same carrier with each op written on
elements, one case at a time, over tuples or over a finite carrier's tables
read as nested lists.  It reads everything else (constants, carrier, tokens)
off the carrier, and has exactly the scalar ops the carrier has.  A product
twin, :class:`ProductTwin`, takes each op on tuples, entry by entry, through
the factors' twins, and never reads a row.

``lmonoid`` builds a finite ell-monoid's envelope as one class, by the proof
in ``KGroup``, and a cone's on canonical rows with the cone's own batch ops;
the witness search here, run on twins, and :class:`EnvelopeTwin`, the
envelope on pairs by its witness formulas, are what both are held against.

:func:`capped_cartesian` is a capped product window by its own loop, which
``_scan.capped_cartesian`` is held against.
"""

from functools import partial, reduce
from itertools import product
from math import prod
from weakref import WeakKeyDictionary

import numpy as np

from ellstates import _scan
from ellstates.corpus import godel_hoop, ibp0_corpus, lmonoid_corpus, rotated_hoop, semihoop_corpus, trunc_monoid
from ellstates.ibp0 import FiniteMTL, ProductAlgebra, SymbolicPerfectAlgebra, radical
from ellstates.lmonoid import OPS as SCALAR_OPS
from ellstates.lmonoid import Carrier, FiniteLMonoid, KElement, KGroup, SymbolicCancellativeMonoid
from ellstates.semihoop import FiniteSemihoop, ProductHoop, SymbolicConeHoop


# ---------------------------------------------------------------------------
# Planted faults: each overrides batch ops only, and its twin the scalar ones


class UntruncatedCone(SymbolicConeHoop):
    """A cone hoop whose residuum does not truncate: y - x leaves the cone
    when x > y."""

    def impl_rows(self, x, y):
        return y - x


class LeakyRotation(SymbolicPerfectAlgebra):
    """The rank-1 rotation with some products, meets and joins moved to the
    negative copy, and pos-(6) no longer above its negation, on (sign,
    coordinate) rows."""

    def _leak(self, r, moved):
        """The rows r, those that ``moved`` marks sent to the negative copy."""
        return np.where(moved, self.neg_rows(r), r)

    def times_rows(self, x, y):
        both = (x[..., :1] == 1) & (y[..., :1] == 1)
        return self._leak(super().times_rows(x, y), both & (x[..., 1:] + y[..., 1:] == 5))

    def meet_rows(self, x, y):
        both = (x[..., :1] == 1) & (y[..., :1] == 1)
        return self._leak(super().meet_rows(x, y), both & (x[..., 1:] == 3))

    def join_rows(self, x, y):
        r = super().join_rows(x, y)
        return self._leak(r, (r[..., :1] == 1) & (r[..., 1:] == 7))

    def leq_rows(self, x, y):
        return super().leq_rows(x, y) & ~((x == (0, 6)).all(axis=-1) & (y == (1, 6)).all(axis=-1))


def planted_fault() -> FiniteMTL:
    A = rotated_hoop(godel_hoop(4))
    times = A.times_table.tolist()
    times[3][6] = times[6][3] = 7  # neg(3)·pos(2) is no longer neg(3)
    return FiniteMTL(times, A.impl_table.tolist(), A.meet_table.tolist(), A.join_table.tolist(), bot=A.bot, top=A.top)


def planted_hoop_fault() -> FiniteSemihoop:
    H = godel_hoop(4)
    times = H.times_table.tolist()
    times[1][2] = times[2][1] = 0  # 1·2 is no longer min(1, 2)
    return FiniteSemihoop(times, H.impl_table.tolist(), H.meet_table.tolist(), top=H.top)


def broken_monoid() -> FiniteLMonoid:
    add = [[(x * y + 1) % 6 for y in range(6)] for x in range(6)]
    meet = [[min(x, y) for y in range(6)] for x in range(6)]
    join = [[max(x, y) for y in range(6)] for x in range(6)]
    return FiniteLMonoid(add, meet, join, unit=0)


# ---------------------------------------------------------------------------
# Twins


class Twin:
    """A carrier's twin: the scalar ops its class writes, and every other
    attribute read off the carrier ``of``.  No op and no batch op is ever read
    off the carrier."""

    def __init__(self, A):
        self.of = A

    def __getattr__(self, name: str):
        if name in SCALAR_OPS or name.endswith("_rows") or name == "_scalar":
            raise AttributeError(f"{type(self).__name__} has no {name!r}")
        return getattr(self.of, name)


class NaturalConeTwin(Twin):
    """N^k in the natural order, on tuples."""

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def meet(self, x, y):
        return tuple(min(a, b) for a, b in zip(x, y))

    def join(self, x, y):
        return tuple(max(a, b) for a, b in zip(x, y))

    def leq(self, x, y):
        return all(a <= b for a, b in zip(x, y))


class ConeHoopTwin(Twin):
    """The cone hoop on tuples: · is +, → truncated difference, the order reversed."""

    def times(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    add = times

    def impl(self, x, y):
        return tuple(max(b - a, 0) for a, b in zip(x, y))

    def meet(self, x, y):
        return tuple(max(a, b) for a, b in zip(x, y))

    def join(self, x, y):
        return tuple(min(a, b) for a, b in zip(x, y))

    def leq(self, x, y):
        return all(a >= b for a, b in zip(x, y))


class UntruncatedConeTwin(ConeHoopTwin):
    def impl(self, x, y):
        return tuple(b - a for a, b in zip(x, y))


class RotationTwin(Twin):
    """The disconnected rotation on signed pairs, one case per pair of signs,
    over the twin of its core."""

    def __init__(self, A):
        super().__init__(A)
        self.core = twin(A.core)

    def times(self, x, y):
        (sx, cx), (sy, cy), C = x, y, self.core
        if sx == sy == "pos":
            return ("pos", C.times(cx, cy))
        if sx == "pos":
            return ("neg", C.impl(cx, cy))  # x·¬b = ¬(x → b)
        if sy == "pos":
            return ("neg", C.impl(cy, cx))
        return ("neg", C.top)  # two negatives multiply to 0

    def impl(self, x, y):
        (sx, cx), (sy, cy), C = x, y, self.core
        if sx == sy:
            return ("pos", C.impl(cx, cy) if sx == "pos" else C.impl(cy, cx))  # ¬a → ¬b = b → a
        return ("neg", C.times(cx, cy)) if sx == "pos" else ("pos", C.top)

    def meet(self, x, y):
        (sx, cx), (sy, cy), C = x, y, self.core
        if sx != sy:
            return x if sx == "neg" else y
        return (sx, C.meet(cx, cy) if sx == "pos" else C.join(cx, cy))

    def join(self, x, y):
        (sx, cx), (sy, cy), C = x, y, self.core
        if sx != sy:
            return x if sx == "pos" else y
        return (sx, C.join(cx, cy) if sx == "pos" else C.meet(cx, cy))

    def neg(self, x):
        return ("neg" if x[0] == "pos" else "pos", x[1])

    def oplus(self, x, y):
        return self.impl(self.neg(x), y)

    def leq(self, x, y):
        (sx, cx), (sy, cy), C = x, y, self.core
        if sx != sy:
            return sx == "neg"
        return C.leq(cx, cy) if sx == "pos" else C.leq(cy, cx)


class LeakyRotationTwin(RotationTwin):
    def times(self, x, y):
        r = super().times(x, y)
        return self.neg(r) if x[0] == y[0] == "pos" and x[1][0] + y[1][0] == 5 else r

    def meet(self, x, y):
        r = super().meet(x, y)
        return self.neg(r) if x[0] == y[0] == "pos" and x[1][0] == 3 else r

    def join(self, x, y):
        r = super().join(x, y)
        return self.neg(r) if r[0] == "pos" and r[1][0] == 7 else r

    def leq(self, x, y):
        return super().leq(x, y) and (x, y) != (("neg", (6,)), ("pos", (6,)))


def _lookup(table: list, x: int, y: int) -> int:
    return table[x][y]


class TableTwin(Twin):
    """A finite carrier's tables as nested lists, each op a lookup in its
    table, and the order read off the meet table."""

    def __init__(self, A):
        super().__init__(A)
        for op in A.TABLES:
            setattr(self, op, partial(_lookup, getattr(A, f"{op}_table").tolist()))

    def leq(self, x, y):
        return self.meet(x, y) == x


class SemihoopTwin(TableTwin):
    """A finite semihoop, its own reduct: add is times and join the pseudo-join."""

    def add(self, x, y):
        return self.times(x, y)

    def join(self, x, y):
        return self.meet(self.impl(self.impl(x, y), y), self.impl(self.impl(y, x), x))


class MTLTwin(TableTwin):
    def neg(self, x):
        return self.impl(x, self.bot)

    def oplus(self, x, y):
        return self.impl(self.neg(x), y)


def _entrywise(ops: list, *xs: tuple) -> tuple:
    return tuple(op(*entries) for op, *entries in zip(ops, *xs))


def _everywhere(ops: list, x: tuple, y: tuple) -> bool:
    return all(op(a, b) for op, a, b in zip(ops, x, y))


class ProductTwin(Twin):
    """A direct product on tuples: each op entry by entry through the
    factors' twins, where every one of them has it, and ``leq`` when it
    holds in every entry."""

    def __init__(self, A):
        super().__init__(A)
        self.factors = [twin(f) for f in A.factors]
        for name in SCALAR_OPS:
            if all(hasattr(f, name) for f in self.factors):
                ops = [getattr(f, name) for f in self.factors]
                setattr(self, name, partial(_everywhere if name == "leq" else _entrywise, ops))


class EnvelopeTwin(Twin):
    """K(M) on pairs [pos, neg]: each op its witness formula over the base's
    twin, and equality and order the witness search (see eq_witness)."""

    def __init__(self, K):
        super().__init__(K)
        self.base = twin(K.base)

    def add(self, e1, e2):
        M = self.base
        return KElement(M.add(e1.pos, e2.pos), M.add(e1.neg, e2.neg))

    def neg(self, e):
        return KElement(e.neg, e.pos)

    def join(self, e1, e2):
        M = self.base
        return KElement(M.add(e1.pos, e2.pos), M.meet(M.add(e1.pos, e2.neg), M.add(e2.pos, e1.neg)))

    def meet(self, e1, e2):
        M = self.base
        return KElement(M.meet(M.add(e1.pos, e2.neg), M.add(e2.pos, e1.neg)), M.add(e1.neg, e2.neg))

    def leq(self, e1, e2):
        return leq_witness(self.base, e1, e2) is not None

    def equal(self, e1, e2):
        return eq_witness(self.base, e1, e2) is not None


TWINS = {
    SymbolicCancellativeMonoid: NaturalConeTwin,
    SymbolicConeHoop: ConeHoopTwin,
    UntruncatedCone: UntruncatedConeTwin,
    SymbolicPerfectAlgebra: RotationTwin,
    LeakyRotation: LeakyRotationTwin,
    FiniteLMonoid: TableTwin,
    FiniteSemihoop: SemihoopTwin,
    FiniteMTL: MTLTwin,
    ProductHoop: ProductTwin,
    ProductAlgebra: ProductTwin,
    KGroup: EnvelopeTwin,
}
_twins = WeakKeyDictionary()


def twin(A):
    """A's twin, kept while A lives, and a twin is its own.  A carrier class
    with no twin of its own has none."""
    if isinstance(A, Twin):
        return A
    if A not in _twins:
        _twins[A] = TWINS[type(A)](A)
    return _twins[A]


def spy_scalar_ops(monkeypatch) -> list:
    """Record (class name, op) for each scalar op call of a carrier that is
    not made while a witness is rendered.  Every such call goes through
    ``Carrier._scalar``, which the spy replaces."""
    calls, rendering = [], []

    def render(*args):
        rendering.append(True)
        try:
            return witness(*args)
        finally:
            rendering.pop()

    def scalar(A, name, *xs):
        if not rendering:
            calls.append((type(A).__name__, name))
        return derive(A, name, *xs)

    witness, derive = _scan._witness, Carrier._scalar
    monkeypatch.setattr(_scan, "_witness", render)
    monkeypatch.setattr(Carrier, "_scalar", scalar)
    return calls


# ---------------------------------------------------------------------------
# Relabelling and the envelope's witnesses


def relabelled(A, perm: list[int]):
    """π(A) for π = ``perm``: A's tables and constants with each x renamed π(x)."""
    n, inverse = A.size, {y: x for x, y in enumerate(perm)}
    tables = {op: getattr(A, f"{op}_table").tolist() for op in A.TABLES}
    fields = {op: [[perm[t[inverse[i]][inverse[j]]] for j in range(n)] for i in range(n)] for op, t in tables.items()}
    fields.update((name, perm[getattr(A, name)]) for name in A.CONSTANTS)
    return type(A)(**fields, size=n)


def witness_candidates(M):
    """The z a witness is searched over: a finite M's elements, or a cone's
    unit alone, since + cancels there."""
    return M.elements() if M.is_finite else [M.unit]


def eq_witness(M, p: tuple, q: tuple):
    """A z with z + x + y' = z + x' + y, or None."""
    x, y = p
    xp, yp = q
    M = twin(M)
    for z in witness_candidates(M):
        if M.add(M.add(z, x), yp) == M.add(M.add(z, xp), y):
            return z
    return None


def leq_witness(M, p: tuple, q: tuple):
    """A z with z + x1 + y2 <=_M z + y1 + x2, or None."""
    x1, y1 = p
    x2, y2 = q
    M = twin(M)
    for z in witness_candidates(M):
        if M.leq(M.add(M.add(z, x1), y2), M.add(M.add(z, y1), x2)):
            return z
    return None


def witness_classes(M) -> list[list[tuple]]:
    """The pairs of a finite M partitioned by eq_witness: each class lists its
    pairs in index order, and the classes come in the order of their least
    pairs."""
    members: list[list[tuple]] = []
    for p in product(M.elements(), repeat=2):
        for group in members:
            if eq_witness(M, p, group[0]) is not None:
                group.append(p)
                break
        else:
            members.append([p])
    return members


def cycle_join(M, x):
    """t = mx ∨ … ∨ (m+p−1)x, for the first repeat (m+p)x = mx of x's multiples."""
    M = twin(M)
    seen, multiple = [], x
    while multiple not in seen:
        seen.append(multiple)
        multiple = M.add(multiple, x)
    return reduce(M.join, seen[seen.index(multiple):])


def finite_bases() -> dict:
    """Every finite ell-monoid the proof is checked on: the corpus lattice
    monoids, semihoops and finite radicals, and trunc_monoid(n) for n <= 12."""
    bases = {f"lmonoid-{name}": M for name, M in lmonoid_corpus().items()}
    bases.update((f"hoop-{name}", H) for name, H in semihoop_corpus().items())
    bases.update((f"radical-{name}", radical(A).hoop) for name, A in ibp0_corpus().items() if A.is_finite)
    bases.update((f"trunc-{n}", trunc_monoid(n)) for n in range(1, 13))
    return bases


def is_cancellative_by_search(M) -> bool:
    """No a != b and c with a + c = b + c, over every triple of M."""
    M = twin(M)
    return all(a == b or M.add(a, c) != M.add(b, c) for a, b, c in product(M.elements(), repeat=3))


def h_is_injective_by_search(M) -> bool:
    """No two elements whose images h(x) = [x + x, x] share a witness class."""
    class_of = {p: i for i, members in enumerate(witness_classes(M)) for p in members}
    T = twin(M)
    return len({class_of[(T.add(x, x), x)] for x in M.elements()}) == M.size


# ---------------------------------------------------------------------------
# A capped product window, tuple by tuple


def capped_cartesian(lists, cap: int, forced=()) -> list[tuple]:
    """The product of ``lists`` whole if it has at most ``cap`` tuples, else
    the distinct ``forced`` tuples, then the tuples at ``cap`` less their
    count (at least one) evenly strided flat indices, each decoded digit by
    digit with the last list fastest; a tuple already taken is skipped."""
    total = prod(len(xs) for xs in lists)
    if total <= cap:
        return list(product(*lists))
    out, seen = [], set()
    for t in forced:
        if t not in seen:
            seen.add(t)
            out.append(t)
    budget = max(cap - len(out), 1)
    for i in range(budget):
        index = (i * (total - 1)) // (budget - 1) if budget > 1 else 0
        digits = []
        for xs in reversed(lists):
            index, r = divmod(index, len(xs))
            digits.append(xs[r])
        t = tuple(reversed(digits))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out
