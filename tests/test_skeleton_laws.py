"""The Boolean skeleton's and the radical's checks against reference hand loops.

``ibp0._boolean_skeleton`` reads closure off one ``pair_columns`` over the
skeleton and scans ``SKELETON_AXIOMS`` with the axiom engine.  The reference
below keeps the plain loop: one membership test or element comparison per
instance, in ``itertools.product`` order.  The two must agree check for check
(name, verdict, violation count, witnesses, note, mode), and on the elements
and atoms, on the corpus singles, on the product corpus, and on seeded
perturbations of the finite corpus tables, which the variety gate would
refuse, so they go to ``_boolean_skeleton`` directly.

``ibp0._radical`` computes membership, closure and skeleton-join closure as
masks over one ops namespace; its reference is the plain loop over the
radical's strided pairs, with ``in_radical`` as a scalar test.  Closure is a
theorem in the variety, so a planted failure goes through an algebra whose
ops leave the radical, past a disabled variety gate.

Both references evaluate on the algebra's tuple twin (see
``reference.twin``), never on the ops derived from its batch ops.
"""

import random
from itertools import product

import pytest

from ellstates import ibp0
from ellstates._scan import scan_mode, stride_select
from ellstates.corpus import boolean_algebra, chang_algebra, cone_hoop, hyperstate_product_corpus, ibp0_corpus
from ellstates.ibp0 import FiniteMTL, ProductAlgebra, _boolean_skeleton, boolean_skeleton, radical
from ellstates.reports import ValidationReport, verdict
from reference import LeakyRotation, twin

WINDOW = 8
CLOSURES = ("closure-times", "closure-oplus", "closure-neg")


def ref_boolean_skeleton(A, window=WINDOW):
    """(elements, atoms, report) by the plain loop, on A's twin."""
    A = twin(A)
    if isinstance(A.of, ProductAlgebra):
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
        tables = {op: getattr(A, f"{op}_table").tolist() for op in FiniteMTL.TABLES}
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


# ---------------------------------------------------------------------------
# The radical


def ref_in_radical(A, x):
    return A.leq(A.neg(x), x) and A.neg(x) != x


def ref_radical_checks(A, elements, skeleton, window=WINDOW):
    """membership, closure and skeleton-join-closure by the plain loop, on A's twin."""
    A = twin(A)
    mode = scan_mode(A, window)
    checks = [verdict("membership", [{"witness": {"x": A.token(a)}} for a in elements if not ref_in_radical(A, a)],
                      mode=mode)]
    base = stride_select(elements, 64)
    bad = []
    for x, y in product(base, repeat=2):
        for opname in ("times", "impl", "meet"):
            r = getattr(A, opname)(x, y)
            if not ref_in_radical(A, r):
                bad.append({"witness": {"x": A.token(x), "y": A.token(y)}, "op": opname, "result": A.token(r)})
    checks.append(verdict("closure", bad, mode=mode))
    bad = []
    for b in skeleton:
        for c in base:
            r = A.join(b, c)
            if not ref_in_radical(A, r):
                bad.append({"witness": {"b": A.token(b), "c": A.token(c)}, "result": A.token(r)})
    checks.append(verdict("skeleton-join-closure", bad, mode=mode))
    return ValidationReport(subject="radical", checks=checks)


RADICAL_LAWS = ("membership", "closure", "skeleton-join-closure")


def assert_radical_agrees(A):
    """The radical's checks agree with the reference, in today's order."""
    rad = radical(A, WINDOW)
    names = [c.axiom for c in rad.report.checks]
    assert names[:2] == ["membership", "closure"] and names[-2:] == ["skeleton-join-closure", "translation-roundtrip"]
    assert all(name.startswith("hoop-") for name in names[2:-2])
    ours = ValidationReport(subject="radical", checks=[rad.report.check(name) for name in RADICAL_LAWS])
    assert rows(ours) == rows(ref_radical_checks(A, rad.elements, boolean_skeleton(A, WINDOW).elements))
    return ours


@pytest.mark.parametrize("corpus", [ibp0_corpus, hyperstate_product_corpus])
def test_radical_closure_agrees_on_the_corpus(corpus):
    for A in corpus().values():
        assert assert_radical_agrees(A).ok


def test_radical_closure_agrees_on_a_planted_leak(monkeypatch):
    monkeypatch.setattr(ibp0, "require_ibp0", lambda A, window=8: None)
    ours = assert_radical_agrees(LeakyRotation(cone_hoop(1)))
    # Each of the three checks fails, so the masks and witnesses are compared on failures.
    assert not any(c.passed for c in ours.checks)
    assert {w["op"] for w in ours.check("closure").witnesses} == {"times", "impl", "meet"}


def ref_roundtrip(A, rad, window=WINDOW):
    """translation-roundtrip by the plain loop over the radical's elements."""
    T = twin(A)
    bad = [{"witness": {"x": T.token(a)}} for a in rad.elements if rad.from_hoop(rad.to_hoop(a)) != a]
    return ValidationReport(subject="radical", checks=[verdict("translation-roundtrip", bad, mode=scan_mode(A, window))])


def test_a_broken_translation_fails_the_roundtrip_as_the_reference_does(monkeypatch):
    # A product's from_hoop reads its factors' views, so breaking one factor's
    # breaks the product's at every element; both factors are fresh, so no
    # other test reads the broken view.
    factor = chang_algebra(1)
    view = radical(factor, WINDOW)
    real = view.from_hoop
    monkeypatch.setattr(view, "from_hoop", lambda m: real((m[0] + 1,)))
    A = ProductAlgebra([factor, boolean_algebra(2)])
    rad = radical(A, WINDOW)
    ours = ValidationReport(subject="radical", checks=[rad.report.check("translation-roundtrip")])
    assert not ours.ok and ours.checks[0].violations == len(rad.elements)
    assert rows(ours) == rows(ref_roundtrip(A, rad))
