"""Random finite tables: the scan engine's verdicts against the reference loop.

A derandomized hypothesis strategy draws lattice-monoid, semihoop and MTL
tables of 1 to 4 elements.  A draw is either a random table or a corpus
table of that size with up to three entries or constants moved.  It also
draws products of two semihoop or two MTL tables, of at most 3 elements
each, so the reference's triple loop stays cheap; no class holds a product
of lattice monoids.  On each draw
``scan_axioms`` over the family's axioms must agree with ``test_scan``'s
``reference_scan`` on the draw's tuple twin: check names, pass/fail,
violation counts and first witnesses, over the whole window and over a
strided one, and again with CHUNK patched to 16, which defers every scan
past 16 instances and cuts it into blocks.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstates import _scan
from ellstates._scan import scan_axioms
from ellstates.corpus import (boolean_algebra, godel_hoop, lmonoid_corpus, lukasiewicz_mtl, rotated_hoop,
                              semihoop_corpus)
from ellstates.ibp0 import IBP0_AXIOMS, SAMPLED_NOTE, FiniteMTL, ProductAlgebra
from ellstates.lmonoid import LMONOID_AXIOMS, FiniteLMonoid
from ellstates.semihoop import SEMIHOOP_AXIOMS, FiniteSemihoop, ProductHoop
from test_scan import reference_scan

MAX_SIZE = 4
# family: (table class, axioms, product class or None, corpus tables of at most MAX_SIZE elements)
FAMILIES = {
    "lmonoid": (FiniteLMonoid, LMONOID_AXIOMS, None, list(lmonoid_corpus().values())),
    "semihoop": (FiniteSemihoop, SEMIHOOP_AXIOMS, ProductHoop,
                 [H for H in semihoop_corpus().values() if H.size <= MAX_SIZE]),
    "mtl": (FiniteMTL, IBP0_AXIOMS, ProductAlgebra,
            [boolean_algebra(1), boolean_algebra(2), lukasiewicz_mtl(3), lukasiewicz_mtl(4),
             rotated_hoop(godel_hoop(2))]),
}


@st.composite
def tables(draw, family: str, max_size: int):
    """One table algebra of ``family``: random, or a corpus one with k moved entries."""
    cls, _, _, corpus = FAMILIES[family]
    fitting = [A for A in corpus if A.size <= max_size]
    if draw(st.booleans()):
        n = draw(st.integers(1, max_size))
        cell = st.integers(0, n - 1)
        entries = {op: draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
                   for op in cls.TABLES}
        entries.update((name, draw(cell)) for name in cls.CONSTANTS)
        return cls(**entries, size=n)
    A = draw(st.sampled_from(fitting))
    n, cell = A.size, st.integers(0, A.size - 1)
    entries = {op: getattr(A, f"{op}_table").tolist() for op in cls.TABLES}
    entries.update((name, getattr(A, name)) for name in cls.CONSTANTS)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(cls.TABLES + cls.CONSTANTS))
        if name in cls.CONSTANTS:
            entries[name] = draw(cell)
        else:
            entries[name][draw(cell)][draw(cell)] = draw(cell)
    return cls(**entries, size=n)


# Each family's tables alone, and the products of two of them where a class holds one.
DRAWS = [*FAMILIES, *(f"{family}*{family}" for family, (_, _, product, _) in FAMILIES.items() if product)]


def algebras(kind: str):
    """Draws of ``kind``: a family's tables, or products of two of them."""
    family = kind.split("*")[0]
    if "*" not in kind:
        return tables(family, MAX_SIZE)
    return st.tuples(tables(family, 3), tables(family, 3)).map(list).map(FAMILIES[family][2])


@pytest.mark.parametrize("kind", DRAWS)
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_random_tables_get_the_reference_verdicts(kind, data):
    A, axioms = data.draw(algebras(kind)), FAMILIES[kind.split("*")[0]][1]
    elems = A.carrier(0)
    for caps in ({}, {2: 3, 3: 2}):
        want = reference_scan(A, axioms, elems, caps)
        for chunk in (_scan.CHUNK, 16):
            with mock.patch.object(_scan, "CHUNK", chunk):
                checks = scan_axioms(A, axioms, elems, caps, "m", SAMPLED_NOTE)
            assert [(c.axiom, c.passed, c.violations, c.witnesses) for c in checks] == want, (caps, chunk)
