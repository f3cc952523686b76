"""Reference constructions shared by the tests: planted table faults,
relabelled copies of a finite carrier, and the envelope's witness relation
searched over a finite carrier.

``lmonoid`` builds a finite ell-monoid's envelope as one class, by the proof
in ``KGroup``; the witness search here is what that proof is held against.
"""

from functools import reduce
from itertools import product

from ellstates.corpus import godel_hoop, ibp0_corpus, lmonoid_corpus, rotated_hoop, semihoop_corpus, trunc_monoid
from ellstates.ibp0 import FiniteMTL, radical
from ellstates.lmonoid import FiniteLMonoid
from ellstates.semihoop import FiniteSemihoop


def planted_fault() -> FiniteMTL:
    A = rotated_hoop(godel_hoop(4))
    times = [list(r) for r in A.times_table]
    times[3][6] = times[6][3] = 7  # neg(3)·pos(2) is no longer neg(3)
    return FiniteMTL(times, A.impl_table, A.meet_table, A.join_table, bot=A.bot, top=A.top)


def planted_hoop_fault() -> FiniteSemihoop:
    H = godel_hoop(4)
    times = [list(r) for r in H.times_table]
    times[1][2] = times[2][1] = 0  # 1·2 is no longer min(1, 2)
    return FiniteSemihoop(times, H.impl_table, H.meet_table, top=H.top)


def broken_monoid() -> FiniteLMonoid:
    add = [[(x * y + 1) % 6 for y in range(6)] for x in range(6)]
    meet = [[min(x, y) for y in range(6)] for x in range(6)]
    join = [[max(x, y) for y in range(6)] for x in range(6)]
    return FiniteLMonoid(add, meet, join, unit=0)


def relabelled(A, perm: list[int]):
    """π(A) for π = ``perm``: A's tables and constants with each x renamed π(x)."""
    n, inverse = A.size, {y: x for x, y in enumerate(perm)}
    fields = {op: [[perm[getattr(A, f"{op}_table")[inverse[i]][inverse[j]]] for j in range(n)] for i in range(n)]
              for op in A.TABLES}
    fields.update((name, perm[getattr(A, name)]) for name in A.CONSTANTS)
    return type(A)(**fields, size=n)


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
    return all(a == b or M.add(a, c) != M.add(b, c) for a, b, c in product(M.elements(), repeat=3))


def h_is_injective_by_search(M) -> bool:
    """No two elements whose images h(x) = [x + x, x] share a witness class."""
    class_of = {p: i for i, members in enumerate(witness_classes(M)) for p in members}
    return len({class_of[(M.add(x, x), x)] for x in M.elements()}) == M.size
