"""Built-in example structures used by the test suite and the CLI.

Every builder returns a fresh object; corpora are returned as ordered dicts
keyed by short stable names, so reports and serialized files stay
byte-comparable across runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iterproduct

from .ibp0 import (
    FiniteMTL,
    ProductAlgebra,
    SymbolicPerfectAlgebra,
    boolean_skeleton,
    radical,
    rotated_hoop,
)
from .lmonoid import FiniteLMonoid
from .semihoop import (
    FiniteSemihoop,
    ProductHoop,
    SymbolicConeHoop,
    symbolic_rank,
    weighted_state,
)
from .states import ProbabilityMeasure

# ---------------------------------------------------------------------------
# ell-monoids


def trunc_monoid(n: int) -> FiniteLMonoid:
    """{0..n-1}, addition truncated at the top, min/max lattice."""
    add = [[min(x + y, n - 1) for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    join = [[max(x, y) for y in range(n)] for x in range(n)]
    return FiniteLMonoid(add, meet, join, unit=0)


def idempotent_pair_monoid() -> FiniteLMonoid:
    """{0, 1} with x + y = max(x, y)."""
    return FiniteLMonoid([[0, 1], [1, 1]], [[0, 0], [0, 1]], [[0, 1], [1, 1]], unit=0)


def grid_join_monoid() -> FiniteLMonoid:
    """The lattice {0,1}^2 with its own join as the addition."""
    cells = [(a, b) for a in range(2) for b in range(2)]
    idx = {c: i for i, c in enumerate(cells)}
    mx = [[idx[(max(x[0], y[0]), max(x[1], y[1]))] for y in cells] for x in cells]
    mn = [[idx[(min(x[0], y[0]), min(x[1], y[1]))] for y in cells] for x in cells]
    return FiniteLMonoid(mx, mn, mx, unit=0)


def chain_min_monoid(n: int) -> FiniteLMonoid:
    """Chain 0 < ... < n-1 with min as the addition and the top as unit.

    This is the multiplicative monoid of a Gödel chain seen additively.
    """
    add = [[min(x, y) for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    join = [[max(x, y) for y in range(n)] for x in range(n)]
    return FiniteLMonoid(add, meet, join, unit=n - 1)


def lmonoid_corpus() -> dict[str, FiniteLMonoid]:
    return {
        "one": trunc_monoid(1),
        "idempotent-pair": idempotent_pair_monoid(),
        "trunc-3": trunc_monoid(3),
        "trunc-4": trunc_monoid(4),
        "grid-join-4": grid_join_monoid(),
        "chain-min-3": chain_min_monoid(3),
    }


# ---------------------------------------------------------------------------
# semihoops


def godel_hoop(n: int) -> FiniteSemihoop:
    """Chain of n elements, product = min, Gödel residuum."""
    top = n - 1
    times = [[min(x, y) for y in range(n)] for x in range(n)]
    impl = [[top if x <= y else y for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    return FiniteSemihoop(times, impl, meet, top=top)


def lukasiewicz_hoop(n: int) -> FiniteSemihoop:
    """Chain 0..n-1 read as {0, 1/(n-1), ..., 1} with truncated sum product."""
    top = n - 1
    times = [[max(x + y - top, 0) for y in range(n)] for x in range(n)]
    impl = [[min(top, top - x + y) for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    return FiniteSemihoop(times, impl, meet, top=top)


def cone_hoop(rank: int) -> SymbolicConeHoop:
    return SymbolicConeHoop(rank=rank)


def materialize_hoop(P: ProductHoop) -> FiniteSemihoop:
    """Flatten a finite product hoop into one indexed table."""
    return FiniteSemihoop.tabulated(P, P.carrier(0))


def semihoop_corpus() -> dict[str, FiniteSemihoop]:
    """Finite semihoops of sizes 1 through 6."""
    return {
        "one": godel_hoop(1),
        "two-chain": godel_hoop(2),
        "godel-3": godel_hoop(3),
        "godel-4": godel_hoop(4),
        "lukasiewicz-4": lukasiewicz_hoop(4),
        "lukasiewicz-5": lukasiewicz_hoop(5),
        "godel-2x3": materialize_hoop(ProductHoop([godel_hoop(2), godel_hoop(3)])),
    }


# ---------------------------------------------------------------------------
# bounded algebras


def boolean_algebra(atoms: int) -> FiniteMTL:
    """The Boolean algebra with 2**atoms elements, encoded as bitmasks."""
    n = 1 << atoms
    full = n - 1
    times = [[x & y for y in range(n)] for x in range(n)]
    impl = [[(x ^ full) | y for y in range(n)] for x in range(n)]
    meet = [[x & y for y in range(n)] for x in range(n)]
    join = [[x | y for y in range(n)] for x in range(n)]
    return FiniteMTL(times, impl, meet, join, bot=0, top=full)


def lukasiewicz_mtl(n: int) -> FiniteMTL:
    """The n-element Lukasiewicz chain as a bounded algebra.

    Involutive and prelinear, but the doubling law fails for n > 2, so
    chains of three or more elements sit outside the variety of interest.
    """
    top = n - 1
    times = [[max(x + y - top, 0) for y in range(n)] for x in range(n)]
    impl = [[min(top, top - x + y) for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    join = [[max(x, y) for y in range(n)] for x in range(n)]
    return FiniteMTL(times, impl, meet, join, bot=0, top=top)


def chang_algebra(rank: int) -> SymbolicPerfectAlgebra:
    """The symbolic perfect algebra over the rank-k cone."""
    return SymbolicPerfectAlgebra(SymbolicConeHoop(rank=rank))


def ibp0_corpus() -> dict[str, FiniteMTL | SymbolicPerfectAlgebra]:
    return {
        "boolean-2": boolean_algebra(1),
        "boolean-4": boolean_algebra(2),
        "boolean-8": boolean_algebra(3),
        "rot-godel-3": rotated_hoop(godel_hoop(3)),
        "rot-godel-4": rotated_hoop(godel_hoop(4)),
        "chang-1": chang_algebra(1),
        "chang-2": chang_algebra(2),
    }


def pairwise_products() -> dict[str, ProductAlgebra]:
    """All unordered pairs of distinct corpus algebras, as products."""
    singles = ibp0_corpus()
    return {
        f"{a}*{b}": ProductAlgebra([singles[a], singles[b]])
        for a, b in combinations(singles, 2)
    }


# ---------------------------------------------------------------------------
# Hyperstate parameter families

# Radical-state weight menu used by the generated hyperstate family; the
# quadruple covers zero, the unit, a proper fraction, and a value above 1.
LAMBDA_MENU = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2))


def measure_family(skeleton) -> list[ProbabilityMeasure]:
    """Every atom-weight vector whose common denominator is at most 6.

    Enumeration is by denominator, then lexicographically by numerators, with
    vectors already seen at a smaller denominator dropped; the order is
    deterministic and stable.
    """
    k = len(skeleton.atoms)
    seen = set()
    out = []
    for d in range(1, 7):
        for comp in _compositions(d, k):
            vec = tuple(Fraction(c, d) for c in comp)
            if vec in seen:
                continue
            seen.add(vec)
            out.append(ProbabilityMeasure(skeleton, vec))
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def state_family(hoop, lambdas=LAMBDA_MENU) -> list:
    """The weighted state of every weight vector drawn from the menu.

    One state per vector in ``itertools.product`` order over the cone axes,
    factor by factor; finite axes take the zero state, their only one since
    every squaring orbit there repeats (see enumerate_states_finite), so a
    finite hoop has exactly one state here.
    """
    return [
        weighted_state(hoop, lam)
        for lam in iterproduct([Fraction(l) for l in lambdas], repeat=symbolic_rank(hoop))
    ]


def hyperstate_family(A, window: int = 8) -> list[tuple[ProbabilityMeasure, object]]:
    """The (p, w) grid behind the generated hyperstate family: every measure
    of measure_family and every state of state_family on the radical.

    Not every pair need join to a valid hyperstate; callers read the verdict
    off join_hyperstate's report.
    """
    sk = boolean_skeleton(A, window)
    rad = radical(A, window)
    return [(p, w) for p in measure_family(sk) for w in state_family(rad.hoop)]


def hyperstate_product_corpus() -> dict[str, ProductAlgebra]:
    """Six representative products mixing Boolean, rotation, and cone parts."""
    singles = ibp0_corpus()
    picks = [
        ("boolean-4", "chang-1"),
        ("boolean-8", "rot-godel-3"),
        ("rot-godel-3", "chang-1"),
        ("chang-1", "chang-2"),
        ("boolean-4", "rot-godel-4"),
        ("rot-godel-3", "rot-godel-4"),
    ]
    return {f"{a}*{b}": ProductAlgebra([singles[a], singles[b]]) for a, b in picks}
