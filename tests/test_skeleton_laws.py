"""The Boolean skeleton's checks against a reference hand loop.

``ibp0._boolean_skeleton`` reads closure off one ``pair_columns`` over the
skeleton and scans ``SKELETON_AXIOMS`` with the axiom engine.  The reference
below keeps the plain loop: one membership test or element comparison per
instance, in ``itertools.product`` order.  The two must agree check for check
(name, verdict, violation count, witnesses, note, mode), and on the elements
and atoms, on the corpus singles, on the product corpus, and on seeded
perturbations of the finite corpus tables, which the variety gate would
refuse, so they go to ``_boolean_skeleton`` directly.
"""

import random
from itertools import product

import pytest

from ellstates._scan import scan_mode
from ellstates.corpus import hyperstate_product_corpus, ibp0_corpus
from ellstates.ibp0 import FiniteMTL, ProductAlgebra, _boolean_skeleton, boolean_skeleton
from ellstates.reports import ValidationReport, verdict

WINDOW = 8
CLOSURES = ("closure-times", "closure-oplus", "closure-neg")


def ref_boolean_skeleton(A, window=WINDOW):
    """(elements, atoms, report) by the plain loop."""
    if isinstance(A, ProductAlgebra):
        factor_elements = [ref_boolean_skeleton(f, window)[0] for f in A.factors]
        elements = [tuple(c) for c in product(*factor_elements)]
    else:
        elements = [a for a in A.carrier(window) if A.join(a, A.neg(a)) == A.top]

    report = ValidationReport(subject="skeleton")
    mode = scan_mode(A, window)
    member = set(elements)

    closure_bad = {"times": [], "oplus": [], "neg": []}
    square_bad = []
    join_bad = []
    for b in elements:
        if A.neg(b) not in member:
            closure_bad["neg"].append({"witness": {"x": A.token(b)}})
    for b, c in product(elements, repeat=2):
        if A.times(b, c) not in member:
            closure_bad["times"].append({"witness": {"x": A.token(b), "y": A.token(c)}})
        if A.oplus(b, c) not in member:
            closure_bad["oplus"].append({"witness": {"x": A.token(b), "y": A.token(c)}})
        if A.times(b, c) != A.meet(b, c):
            square_bad.append({"witness": {"x": A.token(b), "y": A.token(c)},
                               "lhs": A.token(A.times(b, c)), "rhs": A.token(A.meet(b, c))})
        if A.oplus(b, c) != A.join(b, c):
            join_bad.append({"witness": {"x": A.token(b), "y": A.token(c)},
                             "lhs": A.token(A.oplus(b, c)), "rhs": A.token(A.join(b, c))})
    for op, bad in closure_bad.items():
        report.add(verdict(f"closure-{op}", bad, mode=mode))
    report.add(verdict("times-is-meet", square_bad, mode=mode))
    report.add(verdict("oplus-is-join", join_bad, mode=mode))

    bad = [
        {"witness": {"x": A.token(b)}, "lhs": A.token(A.meet(b, A.neg(b))), "rhs": A.token(A.bot)}
        for b in elements
        if A.meet(b, A.neg(b)) != A.bot
    ]
    report.add(verdict("complement-meet", bad, mode=mode))

    nonzero = [b for b in elements if b != A.bot]
    atoms = [b for b in nonzero if not any(c != b and A.leq(c, b) for c in nonzero)]
    bad = []
    for b in elements:
        acc = A.bot
        for a in [a for a in atoms if A.leq(a, b)]:
            acc = A.join(acc, a)
        if acc != b:
            bad.append({"witness": {"x": A.token(b)}, "lhs": A.token(acc), "rhs": A.token(b)})
    report.add(verdict("atomic-decomposition", bad, mode=mode))
    return elements, atoms, report


def rows(report):
    return [(c.axiom, c.passed, c.violations, c.witnesses, c.note, c.mode, c.required) for c in report.checks]


def assert_agrees(sk, A):
    elements, atoms, report = ref_boolean_skeleton(A)
    assert (sk.elements, sk.atoms) == (elements, atoms)
    assert rows(sk.report) == rows(report)


@pytest.mark.parametrize("name", list(ibp0_corpus()))
def test_corpus_singles_agree(name):
    A = ibp0_corpus()[name]
    assert_agrees(boolean_skeleton(A, WINDOW), A)


@pytest.mark.parametrize("name", list(hyperstate_product_corpus()))
def test_product_corpus_agrees(name):
    A = hyperstate_product_corpus()[name]
    assert_agrees(boolean_skeleton(A, WINDOW), A)


def perturbed_tables(count: int, seed: int = 7):
    """``count`` finite corpus algebras, each with one to three table entries
    overwritten, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    bases = [A for A in ibp0_corpus().values() if A.is_finite]
    for _ in range(count):
        A = rng.choice(bases)
        tables = {op: [list(row) for row in getattr(A, f"{op}_table")] for op in FiniteMTL.TABLES}
        for _ in range(rng.randint(1, 3)):
            table = tables[rng.choice(FiniteMTL.TABLES)]
            table[rng.randrange(A.size)][rng.randrange(A.size)] = rng.randrange(A.size)
        yield FiniteMTL(**tables, bot=A.bot, top=A.top)


def test_perturbed_tables_agree():
    failed = dict.fromkeys(CLOSURES, 0)
    for A in perturbed_tables(300):
        sk = _boolean_skeleton(A, WINDOW)
        assert_agrees(sk, A)
        for name in CLOSURES:
            failed[name] += not sk.report.check(name).passed
    # The closure checks are exercised on failing inputs, not only on passing ones.
    assert all(failed.values()), failed
