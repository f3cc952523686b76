"""The axiom-scan engine, and the deterministic selection helpers it uses.

An axiom is data: a name, an arity, and ``terms(o, *xs)``, which returns the
two sides ``(lhs, rhs)`` of the law, written once against an ops namespace
``o`` (``o.times``, ``o.impl``, ``o.meet``, ``o.join``, ``o.neg``,
``o.oplus``, ``o.leq``, ``o.top``, ``o.bot``, ...).  An instance violates the
axiom when its two sides differ; sides are elements or booleans.

:func:`scan_axioms` evaluates the terms in one of two ways, chosen from the
carrier alone:

* batch, when the carrier has ``b_encode`` (tabulated or coordinate-encoded
  algebras): ``o`` maps the same names onto the carrier's ``b_*`` numpy ops.
  Unary and pair axioms run on one full grid, and triple axioms loop over
  their first axis while the other two stay vectorized;
* scalar otherwise: ``o`` is the carrier itself, one call per instance.

Either way instances are visited in ``itertools.product`` order (the last
variable varies fastest), violations are counted in full, and the first
:data:`~.reports.MAX_WITNESSES` are rendered as witnesses through the scalar
terms.

Symbolic carriers are infinite, and cartesian products of windows can be
huge, so quantified checks sometimes run over a reduced deterministic
subset.  Reduction is always by even striding over a fixed enumeration
order -- never randomness -- so identical invocations scan identical
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from typing import Any, Callable, Hashable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .reports import MAX_WITNESSES, Check, verdict

T = TypeVar("T")


@dataclass(frozen=True)
class Axiom:
    """One law; a failure of a non-required axiom does not invalidate."""

    name: str
    arity: int
    terms: Callable[..., tuple[Any, Any]]
    required: bool = True


def scan_mode(A, window: int) -> str:
    return "exhaustive" if A.is_finite else f"window-verified (N={window})"


def sampled_note(wording: str, base: Sequence, elems: Sequence) -> str:
    """``wording`` filled with the sampled and window sizes, or "" when the
    whole window was scanned."""
    return wording.format(m=len(base), n=len(elems)) if len(base) < len(elems) else ""


def memo(obj: Any, key: Hashable, build: Callable[[], T]) -> T:
    """``build()``, computed once per ``key`` and kept on ``obj`` itself, so a
    cached scan or structure lives exactly as long as its algebra."""
    cache = vars(obj).setdefault("_memo", {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


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
    """
    n = len(elems)
    batch = _Batch(A, elems) if hasattr(A, "b_encode") else None
    checks = []
    for axiom in axioms:
        ix = stride_select(range(n), caps.get(axiom.arity, n))
        runs = batch.failures(axiom, ix) if batch else _scalar_failures(A, axiom, elems, ix)
        violations, shown = 0, []
        for first, count in runs:
            violations += count
            shown += first[: MAX_WITNESSES - len(shown)]
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


def _witness(A, axiom: Axiom, inst: tuple) -> dict[str, Any]:
    lhs, rhs = axiom.terms(A, *inst)
    return {
        "witness": {name: A.token(v) for name, v in zip("xyz", inst)},
        "lhs": lhs if isinstance(lhs, bool) else A.token(lhs),
        "rhs": rhs if isinstance(rhs, bool) else A.token(rhs),
    }


def _scalar_failures(A, axiom: Axiom, elems: Sequence, ix: list[int]) -> Iterator[tuple[list, int]]:
    terms = axiom.terms
    for inst in product([elems[i] for i in ix], repeat=axiom.arity):
        lhs, rhs = terms(A, *inst)
        if lhs != rhs:
            yield [inst], 1


class _Batch:
    """Batch evaluation over one encoded window, grids shared across axioms."""

    def __init__(self, A, elems: Sequence):
        self.A = A
        self.elems = elems
        self.encoded = A.b_encode(elems)
        self._grids: dict[int, tuple] = {}

    def failures(self, axiom: Axiom, ix: list[int]) -> Iterator[tuple[list, int]]:
        """Per chunk: the first failing instances and the chunk's failure count."""
        A, E = self.A, self.encoded
        if axiom.arity not in self._grids:
            # The last (at most two) axes form one vectorized grid.
            vec = min(axiom.arity, 2)
            grid = np.stack(np.meshgrid(*[np.asarray(ix)] * vec, indexing="ij"), axis=-1).reshape(-1, vec)
            self._grids[axiom.arity] = grid, [A.b_take(E, grid[:, k]) for k in range(vec)], _BatchOps(A, len(grid))
        grid, columns, ops = self._grids[axiom.arity]
        for head in product(ix, repeat=axiom.arity - grid.shape[1]):
            heads = [A.b_take(E, np.full(len(grid), h)) for h in head]
            lhs, rhs = axiom.terms(ops, *heads, *columns)
            if isinstance(lhs, np.ndarray) and lhs.dtype == bool:
                ok = lhs == rhs
            else:
                ok = A.b_eq(lhs, rhs)
            fails = grid[np.flatnonzero(~ok)]
            first = [tuple(self.elems[i] for i in head + tuple(row)) for row in fails[:MAX_WITNESSES]]
            yield first, len(fails)


class _BatchOps:
    """The scalar op names over batches of ``count`` instances."""

    def __init__(self, A, count: int):
        self._A = A
        self._count = count

    def __getattr__(self, name: str):
        return getattr(self._A, "b_" + name)

    @cached_property
    def top(self):
        return self._A.b_const(self._A.top, self._count)

    @cached_property
    def bot(self):
        return self._A.b_const(self._A.bot, self._count)

    def oplus(self, x, y):
        return self.impl(self.neg(x), y)


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
