"""Acceptance gate: ten numbered criteria, one test per criterion.

`pytest tests/test_acceptance.py -v` prints a pass/fail line per criterion;
add `-s` for the detail lines.  Criteria 1 and 2 carry runtime budgets and
fail if exceeded.  Everything here is exact arithmetic: no tolerances, no
float comparisons anywhere.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import product as iterproduct

import numpy as np
import pytest

import ellstates.cli as cli
from ellstates.corpus import (
    cone_hoop,
    hyperstate_family,
    ibp0_corpus,
    lmonoid_corpus,
    lukasiewicz_mtl,
    pairwise_products,
    semihoop_corpus,
    state_family,
)
from ellstates._scan import tables
from ellstates.ibp0 import decompose, radical, validate_ibp0
from ellstates.lmonoid import (
    KElement,
    h_is_injective,
    image_bound,
    is_cancellative,
    k_envelope,
)
from ellstates.semihoop import (
    ConeState,
    enumerate_states_finite,
    pseudo_join,
    state_to_kgroup_state,
    validate_state,
)
from ellstates.states import (
    cancellative_form,
    hyperstate_properties,
    join_hyperstate,
    split_hyperstate,
)
from reference import h_is_injective_by_search, is_cancellative_by_search, leq_witness, witness_classes

SINGLES = ibp0_corpus()


def _verdict(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


@pytest.fixture(scope="module")
def joined_family():
    """Every (p, w) pair of the generated family, joined once and shared
    by criteria 7, 8, and 9."""
    out = {}
    for name, A in SINGLES.items():
        members = []
        for p, w in hyperstate_family(A):
            s, report = join_hyperstate(A, p, w)
            members.append((p, w, s, report))
        out[name] = members
    return out


def test_criterion_01_variety_gate():
    t0 = time.monotonic()
    subjects = dict(SINGLES)
    subjects.update(pairwise_products())
    for name, A in subjects.items():
        report = validate_ibp0(A)
        assert report.ok, (name, [c.axiom for c in report.failures()])

    planted = validate_ibp0(lukasiewicz_mtl(3))
    assert not planted.ok
    failed = planted.failures()
    assert [c.axiom for c in failed] == ["doubling-law"]
    assert failed[0].witnesses[0]["witness"] == {"x": "1"}

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"variety gate took {elapsed:.1f}s"
    _verdict(1, f"{len(subjects)} algebras pass, planted failure caught, {elapsed:.1f}s")


def test_criterion_02_envelope_properties():
    t0 = time.monotonic()
    for name, M in lmonoid_corpus().items():
        elems = list(M.elements())
        assert len(elems) <= 4, name
        K, h = k_envelope(M)
        pairs = [KElement(a, b) for a in elems for b in elems]
        # The partition by witness search, which KGroup's proof makes one class.
        classes = witness_classes(M)
        class_of = {KElement(*p): i for i, members in enumerate(classes) for p in members}

        # ~ is an equivalence: reflexive, symmetric, and equality coincides
        # with the computed partition (which forces transitivity).
        for e1 in pairs:
            assert K.row(e1) == K.row(e1)
        for e1, e2 in iterproduct(pairs, repeat=2):
            assert (K.row(e1) == K.row(e2)) == (K.row(e2) == K.row(e1))
            assert (K.row(e1) == K.row(e2)) == (class_of[e1] == class_of[e2])

        # Operations land in the same class whichever representatives go in.
        seen = set()
        for e1, e2 in iterproduct(pairs, repeat=2):
            key = (class_of[e1], class_of[e2])
            if key in seen:
                continue
            seen.add(key)
            base = (K.add(e1, e2), K.join(e1, e2), K.meet(e1, e2))
            for p1 in classes[key[0]]:
                for p2 in classes[key[1]]:
                    a1, a2 = KElement(*p1), KElement(*p2)
                    assert K.row(K.add(a1, a2)) == K.row(base[0])
                    assert K.row(K.join(a1, a2)) == K.row(base[1])
                    assert K.row(K.meet(a1, a2)) == K.row(base[2])

        # Join and meet are the actual l.u.b./g.l.b. for K.leq.
        for e1, e2 in iterproduct(pairs, repeat=2):
            assert K.leq(e1, e2) == (leq_witness(M, (e1.pos, e1.neg), (e2.pos, e2.neg)) is not None)
            j = K.join(e1, e2)
            m = K.meet(e1, e2)
            assert K.leq(e1, j) and K.leq(e2, j)
            assert K.leq(m, e1) and K.leq(m, e2)
            for u in pairs:
                if K.leq(e1, u) and K.leq(e2, u):
                    assert K.leq(j, u)
                if K.leq(u, e1) and K.leq(u, e2):
                    assert K.leq(u, m)

        # + distributes over join, and h is injective exactly when the
        # monoid is cancellative.
        for e1, e2, e3 in iterproduct(pairs, repeat=3):
            lhs = K.add(e1, K.join(e2, e3))
            rhs = K.join(K.add(e1, e2), K.add(e1, e3))
            assert K.row(lhs) == K.row(rhs)
        assert h_is_injective(K) == h_is_injective_by_search(M), name
        assert is_cancellative(M) == is_cancellative_by_search(M) == h_is_injective(K), name

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"envelope suite took {elapsed:.1f}s"
    _verdict(2, f"{len(lmonoid_corpus())} monoids, exhaustive, {elapsed:.1f}s")


def test_criterion_03_image_lower_bound():
    checked = 0
    for name, M in lmonoid_corpus().items():
        elems = list(M.elements())
        K, h = k_envelope(M)
        image = [h(x) for x in elems]
        for a, b in iterproduct(elems, repeat=2):
            e = KElement(a, b)
            bound = image_bound(K, h, e)
            assert any(K.row(bound) == K.row(im) for im in image), name
            assert K.leq(bound, e), (name, a, b)
            checked += 1
    _verdict(3, f"{checked} envelope elements, exhaustive")


def test_criterion_04_state_triviality():
    corpus = semihoop_corpus()
    assert sorted(len(H.carrier(8)) for H in corpus.values()) == [1, 2, 3, 4, 4, 5, 6]
    for name, H in corpus.items():
        found = enumerate_states_finite(H)
        assert len(found) == 1, name
        assert all(found[0].value(x) == 0 for x in H.carrier(8)), name
        # The proof behind the zero state: every squaring orbit x, x², (x²)², …
        # repeats, so w(x) = 2^i·w(x) for some i > 0; and the zero map is a state.
        carrier = H.carrier(8)
        for x in carrier:
            orbit = [x]
            while len(orbit) <= len(carrier) and orbit[-1] not in orbit[:-1]:
                orbit.append(H.times(orbit[-1], orbit[-1]))
            assert orbit[-1] in orbit[:-1], (name, x)
        assert validate_state(H, found[0]).ok, name
    _verdict(4, f"{len(corpus)} finite semihoops, zero state only")


def test_criterion_05_cone_state_identities():
    rng = random.Random(20260816)
    checked = 0
    for rank in (1, 2, 3):
        H = cone_hoop(rank)
        triples = [
            tuple(tuple(rng.randrange(16) for _ in range(rank)) for _ in range(3))
            for _ in range(10_000)
        ]
        T = np.array(triples, dtype=np.int64)
        lams = [
            tuple(Fraction(rng.randrange(7), rng.randrange(1, 5)) for _ in range(rank))
            for _ in range(20)
        ]

        # Bulk scan with denominators cleared: w = -<lam, x> = -(T @ m)/D,
        # so each identity is an integer equation.  The object layer is held
        # to the same formulas on a sample below.
        for lam in lams:
            D = math.lcm(*(f.denominator for f in lam))
            m = np.array([int(f * D) for f in lam], dtype=np.int64)
            v = T @ m
            for i, j in ((0, 1), (0, 2), (1, 2)):
                X, Y = T[:, i], T[:, j]
                vx, vy = v[:, i], v[:, j]
                assert np.array_equal(np.maximum(X, Y) @ m + np.minimum(X, Y) @ m, vx + vy)
                assert np.array_equal(
                    vx + np.maximum(Y - X, 0) @ m, vy + np.maximum(X - Y, 0) @ m
                )
                checked += len(T)

        for lam in lams[:2]:
            w = ConeState(lam)
            D = math.lcm(*(f.denominator for f in lam))
            m = [int(f * D) for f in lam]
            for t in triples[:150]:
                for x, y in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                    assert w.value(H.meet(x, y)) + w.value(pseudo_join(H, x, y)) == w.value(x) + w.value(y)
                    assert w.value(x) + w.value(H.impl(x, y)) == w.value(y) + w.value(H.impl(y, x))
                for x in t:
                    assert w.value(x) == Fraction(-sum(c * k for c, k in zip(m, x)), D)

    # Monotonicity across the whole menu family on the divisible cone.
    for rank in (1, 2):
        H = cone_hoop(rank)
        carrier = H.carrier(6)
        for w in state_family(H):
            assert w.value(H.top) == 0
            assert all(w.value(x) <= 0 for x in carrier)
            for x, y in iterproduct(carrier, repeat=2):
                assert w.value(H.times(x, y)) == w.value(x) + w.value(y)
                if H.leq(x, y):
                    assert w.value(x) <= w.value(y)

    _verdict(5, f"{checked} exact identity instances + family monotonicity")


def test_criterion_06_envelope_state_roundtrip():
    rng = random.Random(47)
    for rank in (1, 2, 3):
        H = cone_hoop(rank)
        carrier = H.carrier(8)
        for _ in range(20):
            lam = tuple(Fraction(rng.randrange(7), rng.randrange(1, 5)) for _ in range(rank))
            w = ConeState(lam)
            sigma = state_to_kgroup_state(H, w, window=8)
            for x in carrier:
                assert sigma.value(sigma.h(x)) == w.value(x)
            for _ in range(1000):
                pos = tuple(rng.randrange(12) for _ in range(rank))
                neg = tuple(rng.randrange(12) for _ in range(rank))
                z = tuple(rng.randrange(12) for _ in range(rank))
                e1 = KElement(pos, neg)
                e2 = KElement(H.times(pos, z), H.times(neg, z))
                assert sigma.K.row(e1) == sigma.K.row(e2)
                assert sigma.value(e1) == sigma.value(e2)
    _verdict(6, "3 ranks x 20 weight vectors, 10^3 class pairs each")


def test_criterion_07_split_join_family(joined_family):
    total = 0
    for name, A in SINGLES.items():
        carrier_size = len(A.carrier(8))
        for p, w, s, report in joined_family[name]:
            assert report.ok, (name, [c.axiom for c in report.failures()])
            split = split_hyperstate(A, s)
            assert split.scanned == carrier_size
            assert split.p == p, name
            assert split.w == w, name
            total += 1
    assert total == 91
    _verdict(7, f"{total} hyperstates joined and split back exactly")


def test_criterion_08_hyperstate_property_suite(joined_family):
    required = {"radical-standard-part", "coradical-standard-part"}
    total = 0
    for name, A in SINGLES.items():
        for p, w, s, report in joined_family[name]:
            props = hyperstate_properties(A, s)
            assert props.ok, (name, [c.axiom for c in props.failures()])
            present = {c.axiom for c in props.checks}
            assert required <= present, name
            total += 1
    assert total == 91
    _verdict(8, f"property suite on {total} hyperstates, standard parts exact")


def test_criterion_09_chang_envelope_form(joined_family):
    checked = 0
    for name in ("chang-1", "chang-2"):
        A = SINGLES[name]
        rad = radical(A)
        # Each element's bracket depends on A alone: decompose the window once.
        window, o = A.carrier(8), tables(A)
        b, c = decompose(A, window, o)
        brackets = [
            KElement(rad.to_hoop(A.join(A.neg(x), y)), rad.to_hoop(A.join(x, y)))
            for x, y in zip(o.decode(b), o.decode(c))
        ]
        for p, w, s, report in joined_family[name]:
            p2, sigma = cancellative_form(A, s)
            assert p2 == p
            for a, bracket in zip(window, brackets):
                canon = sigma.K.canonical(bracket)
                assert all(isinstance(c, int) for c in canon)
                assert sigma.value(sigma.K.element(canon)) == s.raw_value(a)[1]
                checked += 1
    _verdict(9, f"{checked} canonical-form evaluations match the split values")


def test_criterion_10_cli_roundtrip_and_exits(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert cli.main(["corpus", "--out", str(out)]) == 0
    capsys.readouterr()

    chang = cli.algebra_from_json(json.loads((out / "algebra-chang-1.json").read_text()))
    cone = cli.algebra_from_json(json.loads((out / "hoop-cone-1.json").read_text()))
    roundtripped = 0
    for path in sorted(out.glob("*.json")):
        raw = path.read_text()
        name = path.stem
        if name == "fixture-ragged-times":
            with pytest.raises(Exception, match="times"):
                cli.algebra_from_json(json.loads(raw))
            continue
        obj = json.loads(raw)
        if name.startswith("state-"):
            dumped = cli.state_to_json(cli.state_from_json(obj, cone))
        elif name.startswith("hyperstate-") or name == "fixture-deficient-measure":
            dumped = cli.hyperstate_to_json(cli.hyperstate_from_json(obj, chang, 8), chang)
        else:
            dumped = cli.algebra_to_json(cli.algebra_from_json(obj))
        assert cli.canonical_json(dumped) == raw, name
        roundtripped += 1
    assert roundtripped == len(cli.corpus_files()) - 1

    # Planted fixtures drive every exit status; a clean file exits 0.
    assert cli.main(["validate", str(out / "algebra-boolean-4.json")]) == 0
    assert cli.main(["validate", "--ibp0", str(out / "fixture-lukasiewicz-3.json")]) == 1
    assert cli.main(["validate", str(out / "fixture-ragged-times.json")]) == 2
    assert (
        cli.main(
            ["hyperstate", "validate", str(out / "algebra-chang-1.json"),
             str(out / "fixture-deficient-measure.json")]
        )
        == 1
    )
    capsys.readouterr()
    _verdict(10, f"{roundtripped} files byte-identical, exit statuses 0/1/2 verified")
