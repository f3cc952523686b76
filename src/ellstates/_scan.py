"""The axiom-scan engine, and the deterministic selection helpers it uses.

An axiom is data: a name, an arity, and ``terms(o, *xs)``, which returns the
two sides ``(lhs, rhs)`` of the law, written once against an ops namespace
``o`` (``o.times``, ``o.impl``, ``o.meet``, ``o.join``, ``o.neg``,
``o.oplus``, ``o.leq``, ``o.top``, ``o.bot``, ...).  An instance violates the
axiom when its two sides differ; sides are elements or booleans.

:func:`scan_axioms` has one way to evaluate terms.  It interns the
carrier's elements to int ids, window first, each held as a row of integer
coordinates, and fills each op's table for the id tuples that a scan
actually reaches, results that leave the window included: all missing keys
of a table in one call of the carrier's batch op ``<op>_rows`` on the
operands' coordinate rows, a gather in its tables for a finite carrier (see
:class:`_Tables`).  The terms then run as numpy gathers, each subterm once
over the variables it mentions: a subterm of at most :data:`CHUNK` instances
over the whole axis, a larger one per block of heads (values of x), after its
table is filled at every key it will reach (see :class:`_Deferred`).
A product carrier is tabulated factor by factor, never over product ids, so
its tables stay as small as its factors' (over product ids, the variety gate on
the corpus's 21 pairwise products took twice as long and 283 MB, not 37 MB).
Instances are visited in ``itertools.product`` order (the last variable
varies fastest), violations are counted in full, and the first
:data:`~.reports.MAX_WITNESSES` are rendered as witnesses through the scalar terms.

Value laws are data too (:class:`ValueLaw`), run by one runner,
:func:`scan_laws`, over contexts of position columns built once per algebra
and window (:func:`pair_columns`, :func:`element_columns`), on which it keeps
what a law reads of them alone.  Each map is read once into an exact table,
integer numerators in lowest terms over one denominator, typed here alone
(:func:`width`, through :func:`exact_table`, :func:`lowest` and the keys of
:func:`packed`).

Symbolic carriers are infinite, and cartesian products of windows can be
huge, so quantified checks sometimes run over a reduced deterministic
subset.  Reduction is always by even striding over a fixed enumeration
order -- never randomness -- so identical invocations scan identical
instances.
"""

from __future__ import annotations

import operator
from functools import partial, reduce
from itertools import product
from math import gcd, lcm, prod
from types import SimpleNamespace
from typing import Any, Callable, Hashable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .hypernum import _rat, _ratio
from .reports import MAX_WITNESSES, Check, verdict

T = TypeVar("T")

# The one op whose results are truth values rather than elements.
PREDICATES = frozenset({"leq"})
# Instances evaluated per numpy pass: large enough that the per-call cost
# vanishes, small enough that a term's temporaries stay well under a megabyte.
CHUNK = 1 << 16
FILL = CHUNK >> 4
INT64_MAX = int(np.iinfo(np.int64).max)


class Axiom(NamedTuple):
    """One law; a failure of a non-required axiom does not invalidate."""

    name: str
    arity: int
    terms: Callable[..., tuple[Any, Any]]
    required: bool = True


def scan_mode(A, window: int) -> str:
    """The mode of a scan over A's window: exhaustive only when the window
    holds all of a finite A, which a capped product window does not."""
    whole = lambda: A.is_finite and len(A.carrier(window)) == span(A, window)
    return "exhaustive" if memo(A, ("whole", window), whole) else f"window-verified (N={window})"


def span(A, window: int) -> int:
    """How many elements A's window holds before a product caps it: its factors' spans multiplied."""
    return prod(span(f, window) for f in A.factors) if hasattr(A, "factors") else len(A.carrier(window))


def sampled_note(wording: str, base: Sequence, elems: Sequence) -> str:
    """``wording`` filled with the sampled and window sizes, or "" when the
    whole window was scanned."""
    return wording.format(m=len(base), n=len(elems)) if len(base) < len(elems) else ""


def memo(obj: Any, key: Hashable, build: Callable[[], T]) -> T:
    """``build()``, computed once per ``key`` and kept in ``obj._memo``, on an
    algebra or a hyperstate, so a cache lives exactly as long as its owner."""
    cache = vars(obj).get("_memo")
    if cache is None:
        cache = vars(obj)["_memo"] = {}
    try:
        return cache[key]
    except KeyError:
        got = cache[key] = build()
        return got


def scan_axioms(
    A,
    axioms: Sequence[Axiom],
    elems: Sequence,
    caps: Mapping[int, int],
    mode: str,
    wording: str,
) -> list[Check]:
    """One check per axiom, over ``elems``.

    ``caps`` bounds the axis of each arity it names (stride-sampled, see
    :func:`stride_select`); ``wording`` is the note for a sampled axis, with
    ``{m}`` sampled of ``{n}`` window elements.

    Variable k runs over the whole axis along dimension k, so numpy
    broadcasting evaluates each subterm once, over the variables it mentions.
    Past CHUNK instances the terms run once through :class:`_Deferred`, and
    the sides are compared one block of CHUNK instances at a time.
    """
    n = len(elems)
    ops = tables(A)
    window = ops.encode(elems)
    checks = []
    for axiom in axioms:
        ix = stride_select(range(n), caps.get(axiom.arity, n))
        m, arity = len(ix), axiom.arity
        axis = window[np.asarray(ix, dtype=np.intp)]
        xs = [axis.reshape((1,) * k + (m,) + (1,) * (arity - 1 - k)) for k in range(arity)]
        deferred = m**arity > CHUNK
        lhs, rhs = axiom.terms(_Deferred(ops, xs[-1] if arity > 1 else None) if deferred else ops, *xs)
        same = _Node(operator.eq, lhs, rhs) if deferred else lhs == rhs
        step = max(1, CHUNK // max(m, 1) ** (arity - 1))
        violations, shown = 0, []
        for head in range(0, m, step):
            heads = slice(head, min(head + step, m))
            shape = (heads.stop - head,) + (m,) * (arity - 1)
            fails = np.flatnonzero(~np.broadcast_to(_block(same, heads), shape))
            violations += len(fails)
            for k in fails[: MAX_WITNESSES - len(shown)]:
                first, *rest = np.unravel_index(k, shape)
                shown.append(tuple(elems[ix[i]] for i in (head + first, *rest)))
        checks.append(
            verdict(
                axiom.name,
                [_witness(A, axiom, inst) for inst in shown],
                mode=mode,
                note=sampled_note(wording, ix, elems),
                violations=violations,
                required=axiom.required,
            )
        )
    return checks


def _block(v, heads: slice):
    """The term value ``v`` over one block of heads: cut to them if it mentions x."""
    if isinstance(v, _Node):
        return v.op(*(_block(a, heads) for a in v.args))
    # Not np.shape: every scan of an axiom passes here, and it dispatches.
    return v[heads] if getattr(v, "shape", ())[:1] > (1,) else v


class _Node:
    """A term over more than CHUNK instances, ``op`` of ``args``, evaluated one
    block of heads at a time by :func:`_block`.  Comparisons with it defer too,
    numpy's included."""

    __array_ufunc__ = None

    def __init__(self, op: Callable, *args):
        self.op, self.args = op, args

    __eq__ = lambda self, other: _Node(operator.eq, self, other)
    __le__ = lambda self, other: _Node(operator.le, self, other)
    __ge__ = lambda self, other: _Node(operator.ge, self, other)


class _Deferred:
    """The ops ``ops`` for an axiom past CHUNK instances.  An op over at most
    CHUNK instances is evaluated at once, over the whole axis; a larger one
    is a :class:`_Node`.  If its two operands are evaluated arrays on disjoint
    axes, it reaches every pair of their distinct values, so its table is
    filled at those first.  If its right operand is then ``last``, the last
    variable, on contiguous ids of a carrier's own tables, a block gathers
    whole rows of the table instead of flat indices."""

    def __init__(self, ops, last):
        self._ops, self._last, self._ids = ops, last, None
        if last is not None and isinstance(ops, _Tables) and (np.diff(last.ravel()) == 1).all():
            self._ids = slice(int(last.flat[0]), int(last.flat[-1]) + 1)

    def __getattr__(self, name: str):
        attr = getattr(self._ops, name)
        return partial(self._apply, name, attr) if callable(attr) else attr

    def _apply(self, name: str, op: Callable, *args):
        if not any(isinstance(a, _Node) for a in args):
            size = prod(np.broadcast_shapes(*map(np.shape, args)))
            if size <= CHUNK:
                return op(*args)
            if len(args) == 2 and all(map(np.shape, args)) and prod(prod(np.shape(a)) for a in args) == size:
                # Each distinct left value against every distinct right one,
                # at most CHUNK keys (or one left value) per call.  The largest
                # values come first, so the table is sized once, not regrown.
                a, b = (v.reshape(-1)[_distinct(self._ops.key(v).reshape(-1))[1]] for v in args)
                step = max(1, CHUNK // np.shape(b)[0])
                for lo in reversed(range(0, np.shape(a)[0], step)):
                    op(a[lo : lo + step].reshape((-1, 1)), b.reshape((1, -1)))
                if self._ids is not None and args[1] is self._last:
                    return _Node(partial(self._rows, name), args[0])
        return _Node(op, *args)

    def _rows(self, name: str, x: np.ndarray) -> np.ndarray:
        out = self._ops._tables[name][:, self._ids].take(x.ravel(), axis=0).reshape(x.shape[:-1] + (-1,))
        return out.view(bool) if name in PREDICATES else out


def exact_table(rows: Sequence[Sequence], terms: int = 2) -> tuple[np.ndarray, int]:
    """Rows of exact rationals as integer numerators over one denominator,
    returned with it, in the one table form (see :func:`width`)."""
    fracs = [[_rat(v) for v in row] for row in rows]
    den = lcm(*(f.denominator for row in fracs for f in row))
    nums = [[f.numerator * (den // f.denominator) for f in row] for row in fracs]
    wide = max([den] + [abs(n) for row in nums for n in row])
    return np.array(nums, dtype=width(wide, terms)), den


def width(wide: int, terms: int = 2) -> type:
    """int64 while ``terms`` integers as wide as ``wide`` sum within it, else Python ints."""
    return np.int64 if terms * wide <= INT64_MAX else object


def widest(a: np.ndarray) -> int:
    """The largest magnitude in the integer array ``a``, 0 when it is empty."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def lowest(nums: np.ndarray, den: int, terms: int = 2) -> tuple[np.ndarray, int]:
    """The integer array ``nums`` over ``den`` in exact_table's form: divided
    by the gcd of den and every entry, then typed by :func:`width`."""
    g = gcd(den, int(np.gcd.reduce(nums, axis=None, initial=0)))
    if g > 1:
        nums, den = nums.astype(object) // g, den // g
    return nums.astype(width(max(den, widest(nums)), terms), copy=False), den


def integers(rows: Sequence, terms: int = 2) -> np.ndarray:
    """Python ints, or equally long rows of them, as an integer array typed by
    :func:`width` at its widest entry."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        a = np.array(rows, dtype=object)
    return a.astype(width(widest(a), terms), copy=False)


def narrowed(a: np.ndarray, terms: int = 2) -> np.ndarray:
    """The integer array ``a``, typed by :func:`width` at its own widest entry
    if it holds Python ints, as a product row's columns of a narrower factor may."""
    return a if a.dtype != object else a.astype(width(widest(a), terms), copy=False)


def dot(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> np.ndarray:
    """rows @ vec over the integers, each row as long as vec: int64 while the
    widest row entry times max(1, sum of vec's magnitudes) fits, else Python ints."""
    coords = integers(rows, 1).reshape(len(rows), len(vec))
    kind = width(max(1, widest(coords)) * max(1, sum(map(abs, vec))), 1)
    return coords.astype(kind, copy=False) @ np.array(vec, dtype=kind)


def over_lcm(cols: Sequence[tuple[np.ndarray, int]]) -> tuple[list[np.ndarray], int]:
    """Integer arrays, each with its denominator, over the lcm of those, typed
    by :func:`width` at the lcm and the sum of the arrays' widest entries."""
    den = lcm(*(d for _, d in cols))
    kind = width(max(den, sum(widest(c) * (den // d) for c, d in cols)))
    return [c.astype(kind, copy=False) * (den // d) for c, d in cols], den


def packed(rows: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """One key std·K + inf per (std, inf) numerator row over ``den``, and K =
    4B + 1, B the widest inf: sums of at most two rows, and ``den``·K, compare
    and add as their keys do.  Typed by :func:`width` so that three keys sum."""
    K = 4 * widest(rows[:, 1]) + 1
    kind = width(max(den, widest(rows[:, 0])) * K + K // 4, 3)
    return rows[:, 0].astype(kind) * K + rows[:, 1].astype(kind), K


def unpacked(key: int, K: int) -> tuple[int, int]:
    """The (std, inf) numerators of a key of :func:`packed`, or of a sum of two."""
    std = (int(key) + K // 2) // K
    return std, int(key) - std * K


def masked_verdict(axiom: str, bad: np.ndarray, witness: Callable[[int], dict], mode: str, note: str = "") -> Check:
    """The check for ``axiom`` over instances whose failures ``bad`` marks:
    every failure is counted, and the first MAX_WITNESSES are rendered by
    ``witness(k)`` in instance order.  A passing check costs one reduction."""
    if not np.count_nonzero(bad):
        return Check(axiom, True, mode, note=note)
    hits = np.flatnonzero(bad)
    return verdict(axiom, [witness(k) for k in hits[:MAX_WITNESSES].tolist()], mode=mode, note=note,
                   violations=len(hits))


def pair_columns(A, elems: Sequence, cap: int, wording: str, ops: Sequence[str], o=None) -> SimpleNamespace:
    """The pairs a value law scans: x and y over the ``cap``-strided
    ``elems`` in ``itertools.product`` order, one column entry per pair, and
    ``neg``, when asked for, one entry per element.  ``x``, ``y`` and each
    op's result are positions in ``elems``, -1 where a result lands outside
    them (symbolic products can leave any finite window); ``leq`` is a truth
    value.  The results are gathered from the id tables ``o``, by default
    fresh ``tables(A)``.  ``note`` is the sampling note; ``skip``, if set,
    words how many pairs in a law's scope left the window."""
    index = {a: i for i, a in enumerate(elems)}
    base = stride_select(range(len(elems)), cap)
    x, y = np.array(list(product(base, repeat=2)), dtype=np.intp).reshape(-1, 2).T
    o = tables(A) if o is None else o
    window = o.encode(elems)
    cols = {name: getattr(o, name)(*((window,) if name == "neg" else (window[x], window[y]))) for name in ops}
    cols.update((name, locate(o, col, window)) for name, col in cols.items() if name not in PREDICATES)
    return SimpleNamespace(A=A, elems=elems, index=index, x=x, y=y, note=sampled_note(wording, base, elems), skip="",
                           witness=lambda k: {"x": A.token(elems[x[k]]), "y": A.token(elems[y[k]])}, **cols)


def element_columns(A, elements: Sequence, at) -> SimpleNamespace:
    """A value law's context of one instance x per position of ``at`` in
    ``elements``, as pair_columns' are of one per pair."""
    x = np.asarray(at, dtype=np.intp)
    return SimpleNamespace(A=A, x=x, note="", skip="", witness=lambda k: {"x": A.token(elements[x[k]])})


class ValueLaw(NamedTuple):
    """A law on a map's values V, over the context that ``over`` names on a
    frame.  A side is a tuple of position columns, read as V summed at them;
    a function ``(ctx, v, read)`` of the context, the map (see
    :func:`scan_laws`) and ``read(ctx, columns)``, such a sum; or, on the
    right, a number, when a witness shows V at x in place of the sides.  The
    law fails where ``fails(lhs, rhs)``, among the instances ``scope(ctx)``
    selects, all if None, at which no column a side names is -1."""

    name: str
    lhs: tuple[str, ...] | Callable
    rhs: tuple[str, ...] | Callable | int
    scope: Callable[[SimpleNamespace], np.ndarray] | None = None
    fails: Callable = np.not_equal
    over: str = "pairs"


class Exact(NamedTuple):
    """A map as scan_laws reads it: integer numerators V over ``one``."""

    V: np.ndarray
    one: int

    def render(self, n) -> str:
        return _ratio(int(n), self.one)


def scan_laws(frame, laws: Sequence[ValueLaw], v, mode: str) -> list[Check]:
    """One check per law on the map ``v``: its values ``v.V`` at positions,
    the value of 1 ``v.one``, and ``v.render(value)`` (see :class:`Exact`).
    What a law reads of its context alone is kept on it (see _reach), and
    each sum of columns is gathered once per call."""
    sums, V = {}, v.V

    def read(ctx, cols: tuple[str, ...]) -> np.ndarray:
        key = id(ctx), cols
        got = sums.get(key)
        if got is None:
            got = V.take(getattr(ctx, cols[0]))
            for c in cols[1:]:
                got = got + V.take(getattr(ctx, c))
            sums[key] = got
        return got

    checks = []
    for law in laws:
        ctx = getattr(frame, law.over)
        compared, note = memo(ctx, law, lambda: _reach(ctx, law))
        lhs, rhs = law.lhs, law.rhs
        lhs = read(ctx, lhs) if type(lhs) is tuple else lhs(ctx, v, read)
        rhs = read(ctx, rhs) if type(rhs) is tuple else rhs if isinstance(rhs, int) else rhs(ctx, v, read)
        bad = law.fails(lhs, rhs)
        if compared is not None:
            bad &= compared
        # A pass needs no witness function: building one per law would cost more than its check.
        checks.append(masked_verdict(law.name, bad, partial(_law_witness, v, ctx, law, lhs, rhs), mode, note)
                      if np.count_nonzero(bad) else Check(law.name, True, mode, note=note))
    return checks


def _law_witness(v, ctx, law: ValueLaw, lhs, rhs, k: int) -> dict:
    """Instance k of a failed law: its element(s), and its sides or V at x."""
    if isinstance(law.rhs, int):
        return {"witness": ctx.witness(k), "value": v.render(v.V[ctx.x[k]])}
    return {"witness": ctx.witness(k), "lhs": v.render(lhs[k]), "rhs": v.render(rhs[k])}


def _reach(ctx, law: ValueLaw) -> tuple[np.ndarray | None, str]:
    """The instances of ``ctx`` that ``law`` compares, None for all, and its
    note, with how many it skipped in scope if ``ctx.skip`` words that."""
    scope = np.ones(len(ctx.x), dtype=bool) if law.scope is None else law.scope(ctx)
    named = {c for side in (law.lhs, law.rhs) if type(side) is tuple for c in side}
    compared = reduce(operator.and_, [getattr(ctx, c) >= 0 for c in named], scope)
    skipped = np.count_nonzero(scope & ~compared)
    note = "; ".join(bit for bit in (ctx.note, skipped and ctx.skip.format(skipped)) if bit)
    return None if compared.all() else compared, note


def _witness(A, axiom: Axiom, inst: tuple) -> dict[str, Any]:
    lhs, rhs = axiom.terms(A, *inst)
    return {
        "witness": {name: A.token(v) for name, v in zip("xyz", inst)},
        "lhs": lhs if isinstance(lhs, bool) else A.token(lhs),
        "rhs": rhs if isinstance(rhs, bool) else A.token(rhs),
    }


def tables(A):
    """The ops namespace of ``A`` over int ids, with empty tables."""
    if hasattr(A, "factors"):
        return _ProductTables(A)
    return _Tables(A)


def locate(o, found, among) -> np.ndarray:
    """The position of each value of ``found`` in ``among``, both encoded by
    the ops namespace ``o``, -1 where it is absent."""
    keys, find = o.key(among), o.key(found)
    order = np.argsort(keys, kind="stable")
    at = np.searchsorted(keys[order], find).clip(max=len(keys) - 1)
    return np.where(keys[order][at] == find, order[at], -1)


def distinct(o, *values) -> tuple[list[np.ndarray], list]:
    """Each of the arrays ``values``, encoded by the ops namespace ``o``, as
    positions into the distinct values of them all, and those as elements."""
    keys = [o.key(v) for v in values]
    uniq, first = _distinct(np.concatenate(keys))
    elements = [x for v in values for x in o.decode(v)]
    return [np.searchsorted(uniq, k) for k in keys], [elements[i] for i in first.tolist()]


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of the non-empty 1-D array ``a``, and where
    each first occurs.  Not np.unique: that imports numpy.ma on first use,
    about 15 ms of every CLI process."""
    order = np.argsort(a)
    s = a[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    return s[starts], np.minimum.reduceat(order, starts)


class _Tables:
    """One carrier's ops over dense int ids, and an id -> coordinates matrix.

    Each id's element is held as a row of integer coordinates (``A.row``,
    read back by ``A.element``), typed by :func:`width` so that two entries
    sum within it, and rows are interned by their mixed-radix codes over the
    bounding box of every row seen.  An op fills all missing keys of its
    table in one call of the carrier's batch op ``<op>_rows`` on the
    operands' rows; elements are built only in :meth:`decode`.

    An element op returns an int32 id array, ``leq`` a bool array, and a
    constant such as ``top`` is its id.  A table is sized to the largest
    operand id asked about, -1 marking an entry not yet filled.
    """

    def __init__(self, A):
        self._A, self._coords, self._tables = A, None, {}

    @property
    def span(self) -> int:
        return len(self._coords)

    def key(self, ids: np.ndarray) -> np.ndarray:
        return ids

    def encode(self, elems: Sequence) -> np.ndarray:
        return self._intern(integers([self._A.row(x) for x in elems])) if elems else np.zeros(0, dtype=np.int32)

    def decode(self, ids: np.ndarray) -> list:
        return [self._A.element(r) for r in self._coords[ids].tolist()]

    def _intern(self, rows: np.ndarray) -> np.ndarray:
        """The ids of coordinate rows, each new one appended.  Known rows come
        first among the coded rows, so a code's first row is its id if known."""
        known = 0 if self._coords is None else self.span
        coords = rows if self._coords is None else np.concatenate([self._coords, rows])
        offsets = coords - coords.min(axis=0)
        radix = (offsets.max(axis=0) + 1).tolist()
        kind = width(prod(radix), 1)
        codes = offsets.astype(kind) @ np.array([prod(radix[k + 1:]) for k in range(len(radix))], dtype=kind)
        uniq, first = _distinct(codes)
        at = first[np.searchsorted(uniq, codes[known:])]
        fresh = np.sort(first[first >= known])
        coords = np.concatenate([coords[:known], coords[fresh]])
        self._coords = coords.astype(width(widest(coords)), copy=False)
        return np.where(at < known, at, known + np.searchsorted(fresh, at)).astype(np.int32)

    def __getattr__(self, name: str):
        attr = getattr(self._A, name)
        if not callable(attr):
            return memo(self, name, lambda: int(self.encode([attr])[0]))
        return partial(self._apply, name)

    def _apply(self, name: str, *args):
        table = self._table(name, [int(np.max(a, initial=-1)) + 1 for a in args])
        # One take at flat indices: twice as fast as indexing by the id arrays.
        flat = np.asarray(reduce(lambda f, an: f * an[1] + an[0], zip(args[1:], table.shape[1:]),
                                 np.asarray(args[0], dtype=np.intp)), dtype=np.intp)
        out = np.asarray(table.ravel().take(flat), dtype=table.dtype)
        if out.size and out.min() < 0:
            missing = out < 0
            # The distinct keys, by a sort: no first occurrence is needed here,
            # and np.sort takes a third of _distinct's argsort.
            keys = np.sort(flat[missing])
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            table.ravel()[keys] = self._fill(name, np.unravel_index(keys, table.shape))
            out[missing] = table.ravel().take(flat[missing])
        return out.view(bool) if name in PREDICATES else out

    def _fill(self, name: str, keys: tuple) -> np.ndarray:
        """The op's results at ``keys``, one id array per operand, as ids or truth values."""
        batch = getattr(self._A, f"{name}_rows")
        # A slice of FILL keys keeps the rows and the batch op's temporaries
        # well under a megabyte.
        parts = []
        for i in range(0, len(keys[0]), FILL):
            out = batch(*(self._coords[k[i : i + FILL]] for k in keys))
            parts.append(out if name in PREDICATES else self._intern(out))
        return np.concatenate(parts)

    def _table(self, name: str, sizes: list[int]) -> np.ndarray:
        old = self._tables.get(name)
        if old is not None and all(s <= t for s, t in zip(sizes, old.shape)):
            return old
        if old is not None:
            sizes = [max(s, t) for s, t in zip(sizes, old.shape)]
        table = np.full(sizes, -1, dtype=np.int8 if name in PREDICATES else np.int32)
        if old is not None:
            table[tuple(slice(0, t) for t in old.shape)] = old
        self._tables[name] = table
        return table


class _ProductTables:
    """A product's ops, run factor by factor on :class:`_Parts` values."""

    def __init__(self, A):
        self._factors = [tables(f) for f in A.factors]

    @property
    def span(self) -> int:
        return prod(f.span for f in self._factors)

    def key(self, v: _Parts) -> np.ndarray:
        """One integer per element: the mixed-radix code of its factors' keys."""
        kind = width(self.span, 1)
        return reduce(lambda acc, fv: acc * fv[0].span + fv[0].key(fv[1]).astype(kind),
                      zip(self._factors, v.parts), 0)

    def encode(self, elems: Sequence) -> _Parts:
        return _Parts([f.encode([x[k] for x in elems]) for k, f in enumerate(self._factors)])

    def decode(self, v: _Parts) -> list:
        return list(zip(*(f.decode(p) for f, p in zip(self._factors, v.parts))))

    def __getattr__(self, name: str):
        # Each factor's attribute is read once: on a nested product, a second
        # read per level would double the reads at every level.
        attrs = [getattr(f, name) for f in self._factors]
        if not callable(attrs[0]):
            return _Parts(attrs)

        def op(*args):
            parts = [f(*(a.parts[k] for a in args)) for k, f in enumerate(attrs)]
            return reduce(operator.and_, parts) if name in PREDICATES else _Parts(parts)

        return op


class _Parts:
    """A batch of product elements, one id array per factor."""

    def __init__(self, parts: list):
        self.parts = parts

    @property
    def shape(self) -> tuple:
        return np.shape(self.parts[0])

    def __getitem__(self, idx) -> _Parts:
        return _Parts([p[idx] for p in self.parts])

    def reshape(self, shape: tuple) -> _Parts:
        return _Parts([p.reshape(shape) for p in self.parts])

    def __eq__(self, other) -> Any:
        return reduce(operator.and_, [a == b for a, b in zip(self.parts, other.parts)])


def stride_select(items: Sequence[T], cap: int) -> list[T]:
    """At most ``cap`` elements, evenly strided, first and last included."""
    n = len(items)
    if n <= cap:
        return list(items)
    if cap == 1:
        return [items[0]]
    picked = []
    seen = set()
    for i in range(cap):
        j = (i * (n - 1)) // (cap - 1)
        if j not in seen:
            seen.add(j)
            picked.append(items[j])
    return picked


def capped_cartesian(
    lists: Sequence[Sequence[T]],
    cap: int | None,
    forced: Sequence[tuple[T, ...]] = (),
) -> list[tuple[T, ...]]:
    """Cartesian product of ``lists``, strided down to ``cap`` tuples.

    ``forced`` tuples (typically bottom and top) are always present.  When
    the full product fits under the cap it is returned whole, in
    itertools.product order.
    """
    total = prod(len(xs) for xs in lists)
    if cap is None or total <= cap:
        return list(product(*lists))
    out: list[tuple[T, ...]] = []
    seen: set[tuple[T, ...]] = set()
    for t in forced:
        if t not in seen:
            seen.add(t)
            out.append(t)
    budget = max(cap - len(out), 1)
    for i in range(budget):
        flat = (i * (total - 1)) // (budget - 1) if budget > 1 else 0
        t = _decode_mixed_radix(flat, lists)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _decode_mixed_radix(index: int, lists: Sequence[Sequence[T]]) -> tuple[T, ...]:
    # itertools.product order: the last factor varies fastest.
    digits: list[T] = []
    for xs in reversed(lists):
        index, r = divmod(index, len(xs))
        digits.append(xs[r])
    return tuple(reversed(digits))
