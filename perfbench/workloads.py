"""The four benchmark workloads and the correctness check of every op.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned.  A workload has a ``setup`` (input build and cache
fill, timed as ``setup_s``) and ``make_pass``, which returns the ops of one
timed pass in the order the seed picks.  An op returns ``None`` when its
output is correct and a one-line reason otherwise; an exception counts as a
failed op too.

Spans are taken only here, around calls into the package's public
functions; ``src/`` carries no instrumentation.  Calls marked ``probe=True``
run only in a traced pass (a separate call that times one layer on its own)
and are left out of the traced pass's wall time when the tracing overhead is
worked out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from ellstates import cli, corpus, hypernum, ibp0, lmonoid, semihoop, states

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
WINDOW = 8

# Smoke mode keeps only subjects whose names carry one of these parts.
SMOKE_PARTS = ("boolean", "rot-godel", "lukasiewicz")

# Radical-state weights drawn in ``hyperstates``; every one joins to a valid
# hyperstate with every measure of the family.
LAMBDA_DRAWS = tuple(sorted({Fraction(n, d) for n in range(7) for d in (1, 2, 3, 4)}))

# Candidate pairs of the envelope group per chang radical in the k-ops probe:
# the same axis cap that semihoop.state_to_kgroup_state scans.
K_AXIS = 32


def smoke_name(name: str) -> bool:
    return all(any(part in factor for part in SMOKE_PARTS) for factor in name.split("*"))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


class FreshGuard:
    """Catches an op served from the memo caches of an earlier pass.

    Every variety and anatomy pass builds fresh algebra objects, so no
    report object may come back that the previous pass already returned.
    """

    def __init__(self):
        self.prev: list = []
        self.cur: list = []

    def new_pass(self) -> None:
        self.prev, self.cur = self.cur, []

    def reused(self, *objs) -> bool:
        self.cur.extend(objs)
        return any(o is p for o in objs for p in self.prev)


class Tracer:
    """Spans in memory: (id, name, start, end, parent id, op id, probe).

    With ``enabled`` false every span is the same no-op context, so the
    untraced runs pay one attribute lookup per call site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []
        self._null = contextlib.nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, probe: bool = False):
        if not self.enabled:
            return self._null
        return self._span(name, probe)

    @contextlib.contextmanager
    def _span(self, name: str, probe: bool):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op, probe)


# ---------------------------------------------------------------------------
# variety: validate_ibp0 over the acceptance-criterion-1 subjects


class Variety:
    name = "variety"

    def __init__(self, smoke: bool, expected: dict | None):
        self.smoke = smoke
        self.guard = FreshGuard()

    def build(self) -> dict:
        subjects = dict(corpus.ibp0_corpus())
        subjects.update(corpus.pairwise_products())
        subjects["lukasiewicz-3"] = corpus.lukasiewicz_mtl(3)
        if self.smoke:
            subjects = {n: A for n, A in subjects.items() if smoke_name(n)}
        return subjects

    def setup(self, tr: Tracer) -> None:
        with tr.span("corpus.build"):
            self.names = list(self.build())

    def make_pass(self, tr: Tracer, rng) -> list:
        # Fresh objects every pass: validate_ibp0 memoizes on the algebra.
        with tr.span("corpus.build"):
            subjects = self.build()
        self.guard.new_pass()
        order = rng.sample(self.names, len(self.names))
        return [(n, lambda n=n: self.op(tr, n, subjects[n])) for n in order]

    def op(self, tr: Tracer, name: str, A):
        kind = "finite" if A.is_finite else "symbolic"
        with tr.span(f"ibp0.validate_ibp0.{kind}"):
            report = ibp0.validate_ibp0(A, WINDOW)
        tr.count("ibp0.checks", len(report.checks))
        if self.guard.reused(report):
            return "report served from an earlier pass"
        if name == "lukasiewicz-3":
            failed = report.failures()
            if [c.axiom for c in failed] != ["doubling-law"]:
                return f"planted chain fails {[c.axiom for c in failed]}"
            if failed[0].witnesses[0]["witness"] != {"x": "1"}:
                return f"planted witness {failed[0].witnesses[0]['witness']}"
            return None
        if not report.ok:
            return f"fails {[c.axiom for c in report.failures()]}"
        return None


# ---------------------------------------------------------------------------
# anatomy: validation, skeleton, radical and decomposition per subject


def anatomy_record(A, sk, rad, co, decs, carrier) -> dict:
    """The outputs of one anatomy op that the seed digest covers."""
    return {
        "atoms": [A.token(b) for b in sk.atoms],
        "radical": [A.token(x) for x in rad.elements],
        "coradical": [A.token(x) for x in co],
        "flags": dict(sorted(rad.report.flags.items())),
        "decompose": [[A.token(a), A.token(d.b), A.token(d.c)] for a, d in zip(carrier, decs)],
    }


class Anatomy:
    name = "anatomy"

    def __init__(self, smoke: bool, expected: dict | None):
        self.smoke = smoke
        # None records: every op's digest is kept in ``digests``, unchecked.
        self.expected = None if expected is None else expected["anatomy"]
        self.digests: dict[str, str] = {}
        self.guard = FreshGuard()

    def setup(self, tr: Tracer) -> None:
        with tr.span("corpus.build"):
            singles = corpus.ibp0_corpus()
            picks = [tuple(k.split("*")) for k in corpus.hyperstate_product_corpus()]
        products = ["*".join(p) for p in picks]
        self.singles = [n for n in singles if not self.smoke or smoke_name(n)]
        self.products = [n for n in products if not self.smoke or smoke_name(n)]

    def make_pass(self, tr: Tracer, rng) -> list:
        # Fresh singles every pass; the products are built inside their op
        # over these same factor objects, so factor caches are shared the way
        # a user's session shares them.  Singles go first, so every factor is
        # validated and split before its product and an op's cost does not
        # depend on the seed's order.
        with tr.span("corpus.build"):
            singles = corpus.ibp0_corpus()
        self.guard.new_pass()
        order = rng.sample(self.singles, len(self.singles)) + rng.sample(
            self.products, len(self.products))
        return [(n, lambda n=n: self.op(tr, n, singles)) for n in order]

    def op(self, tr: Tracer, name: str, singles: dict):
        factors = [singles[f] for f in name.split("*")]
        if len(factors) == 1:
            A = factors[0]
        else:
            with tr.span("ibp0.product"):
                A = ibp0.product(factors, WINDOW)
        kind = "finite" if A.is_finite else "symbolic"
        with tr.span(f"ibp0.validate_ibp0.{kind}"):
            report = ibp0.validate_ibp0(A, WINDOW)
        with tr.span("ibp0.boolean_skeleton"):
            sk = ibp0.boolean_skeleton(A, WINDOW)
        with tr.span("ibp0.radical"):
            rad = ibp0.radical(A, WINDOW)
        with tr.span("ibp0.coradical"):
            co = ibp0.coradical(A, WINDOW)
        carrier = A.carrier(WINDOW)
        with tr.span("ibp0.decompose_element"):
            decs = [ibp0.decompose_element(A, a) for a in carrier]
        if tr.enabled:
            hoop_kind = "finite" if rad.hoop.is_finite else "symbolic"
            with tr.span(f"semihoop.validate_semihoop.{hoop_kind}", probe=True):
                semihoop.validate_semihoop(rad.hoop, WINDOW)
        tr.count("ibp0.window_elements", len(carrier))
        tr.count("ibp0.decompose_calls", len(decs))
        tr.count("ibp0.checks", len(report.checks) + len(sk.report.checks) + len(rad.report.checks))
        if self.guard.reused(report, sk, rad):
            return "report served from an earlier pass"
        if not (report.ok and sk.report.ok and rad.report.ok):
            return "a validation report is not ok"
        got = self.digests[name] = digest(anatomy_record(A, sk, rad, co, decs, carrier))
        if self.expected is not None and got != self.expected.get(name):
            return f"output digest {got[:12]} differs from the seed"
        return None


# ---------------------------------------------------------------------------
# hyperstates: join, split, properties and envelope form per (p, w) pair


def draw_state(hoop, rng):
    """A radical state drawn by the seed: random cone weights, the product
    of per-factor draws, or the only state a finite hoop has."""
    if isinstance(hoop, semihoop.SymbolicConeHoop):
        return semihoop.ConeState([rng.choice(LAMBDA_DRAWS) for _ in range(hoop.rank)])
    if isinstance(hoop, semihoop.ProductHoop):
        return semihoop.ProductState([draw_state(f, rng) for f in hoop.factors])
    return semihoop.enumerate_states_finite(hoop)[0]


class Hyperstates:
    name = "hyperstates"

    def __init__(self, smoke: bool, expected: dict | None):
        self.smoke = smoke

    def setup(self, tr: Tracer) -> None:
        with tr.span("corpus.build"):
            singles = corpus.ibp0_corpus()
        if self.smoke:
            singles = {n: A for n, A in singles.items() if smoke_name(n)}
        self.subjects = []
        for name, A in singles.items():
            kind = "finite" if A.is_finite else "symbolic"
            with tr.span(f"ibp0.validate_ibp0.{kind}"):
                ibp0.validate_ibp0(A, WINDOW)
            with tr.span("ibp0.boolean_skeleton"):
                sk = ibp0.boolean_skeleton(A, WINDOW)
            with tr.span("ibp0.radical"):
                rad = ibp0.radical(A, WINDOW)
            if tr.enabled:
                # The layers that anatomy times, here on the singles only.
                hoop_kind = "finite" if rad.hoop.is_finite else "symbolic"
                with tr.span(f"semihoop.validate_semihoop.{hoop_kind}", probe=True):
                    semihoop.validate_semihoop(rad.hoop, WINDOW)
                with tr.span("ibp0.decompose_element", probe=True):
                    for a in A.carrier(WINDOW):
                        ibp0.decompose_element(A, a)
            with tr.span("corpus.hyperstate_family"):
                family = corpus.hyperstate_family(A, WINDOW)
                measures = corpus.measure_family(sk)
            # One warm join fills the per-algebra pair context.
            with tr.span("states.join_hyperstate"):
                states.join_hyperstate(A, *family[0], WINDOW)
            self.subjects.append((name, A, rad, measures, len(family)))
        self.pairs = None

    def make_pass(self, tr: Tracer, rng) -> list:
        # As many pairs per algebra as its generated family has, each drawn
        # by the seed, so the work per pass is fixed while the values vary.
        # The pairs are drawn once per run and every pass joins them afresh.
        if self.pairs is None:
            self.pairs = [
                (f"{name}#{i}", A, rad, rng.choice(measures), draw_state(rad.hoop, rng))
                for name, A, rad, measures, slots in self.subjects
                for i in range(slots)
            ]
        order = rng.sample(self.pairs, len(self.pairs))
        return [(p[0], lambda p=p: self.op(tr, *p)) for p in order]

    def op(self, tr: Tracer, name: str, A, rad, p, w):
        tr.count("states.join_attempts")
        with tr.span("states.join_hyperstate"):
            s, report = states.join_hyperstate(A, p, w, WINDOW)
        if not report.ok:
            return f"join of {p} and {w} does not validate"
        tr.count("states.join_ok")
        with tr.span("states.split_hyperstate"):
            split = states.split_hyperstate(A, s, WINDOW)
        if split.p != p or split.w != w:
            return "split does not give back the joined (p, w)"
        with tr.span("states.hyperstate_properties"):
            props = states.hyperstate_properties(A, s, WINDOW)
        if not props.ok:
            return f"properties fail {[c.axiom for c in props.failures()]}"
        if not A.is_finite:
            with tr.span("states.cancellative_form"):
                p2, _sigma = states.cancellative_form(A, s, WINDOW)
            if p2 != p:
                return "cancellative form gives another measure"
            if tr.enabled:
                with tr.span("semihoop.state_to_kgroup_state", probe=True):
                    sigma = semihoop.state_to_kgroup_state(rad.hoop, w, WINDOW)
                with tr.span("lmonoid.k_ops", probe=True):
                    bad = k_ops(tr, sigma.K, rad.hoop.carrier(WINDOW))
                if bad:
                    return bad
        with tr.span("hypernum.dual_ops"):
            bad = dual_roundtrip(tr, [s.value(a) for a in A.carrier(WINDOW)])
        if bad:
            return bad
        tr.count("states.roundtrips")
        return None


def k_ops(tr: Tracer, K, carrier) -> str | None:
    """k_leq, k_add and k_equal over a strided square of the radical window."""
    step = max(1, -(-len(carrier) // K_AXIS))
    base = carrier[::step]
    cands = [lmonoid.KElement(a, b) for a in base for b in base]
    zero = K.zero()
    for e in cands:
        lmonoid.k_leq(K, zero, e)
    for e1, e2 in zip(cands, reversed(cands)):
        if not lmonoid.k_equal(K, lmonoid.k_add(K, e1, e2), lmonoid.k_add(K, e2, e1)):
            return "k_add is not commutative"
    tr.count("lmonoid.k_ops", len(cands) * 4)
    return None


def dual_roundtrip(tr: Tracer, values) -> str | None:
    """Every joined value formats and parses back to itself, in order."""
    prev = values[0]
    for v in values:
        if hypernum.parse_dual(hypernum.format_dual(v)) != v:
            return f"dual {v} does not round-trip"
        if hypernum.lex_compare(prev, v).value != -hypernum.lex_compare(v, prev).value:
            return "lex_compare is not antisymmetric"
        prev = v
    tr.count("hypernum.dual_ops", len(values) * 4)
    return None


# ---------------------------------------------------------------------------
# cli: one child process per invocation, on corpus files written in setup

# (argv after the program, exit status at the seed).  Paths are relative to
# the corpus directory.
CLI_COMMANDS = (
    (("validate", "algebra-boolean-4.json"), 0),
    (("validate", "--ibp0", "algebra-rot-godel-4.json"), 0),
    (("validate", "--ibp0", "algebra-chang-1.json"), 0),
    (("validate", "--format", "tsv", "algebra-boolean-8.json"), 0),
    (("validate", "hoop-lukasiewicz-5.json"), 0),
    (("validate", "lmonoid-trunc-4.json"), 0),
    (("validate", "--ibp0", "fixture-lukasiewicz-3.json"), 1),
    (("validate", "fixture-ragged-times.json"), 2),
    (("grothendieck", "lmonoid-trunc-3.json"), 0),
    (("grothendieck", "lmonoid-grid-join-4.json"), 0),
    (("states", "hoop-godel-3.json"), 0),
    (("states", "hoop-cone-1.json", "state-cone-1.json"), 0),
    (("skeleton", "algebra-chang-1.json"), 0),
    (("radical", "algebra-chang-1.json"), 0),
    (("decompose", "algebra-rot-godel-3.json"), 0),
    (("hyperstate", "validate", "algebra-chang-1.json", "hyperstate-chang-1.json"), 0),
    (("hyperstate", "split", "algebra-chang-1.json", "hyperstate-chang-1.json"), 0),
    (("hyperstate", "properties", "algebra-chang-1.json", "hyperstate-chang-1.json"), 0),
    (("hyperstate", "validate", "algebra-chang-1.json", "fixture-deficient-measure.json"), 1),
    (("corpus",), 0),
)

CORPUS_DIR = "perfbench/.work/corpus"
ELAPSED = re.compile(rb'\n\s*"elapsed_ms": \d+')


def cli_argv(args) -> list[str]:
    return [a if not a.endswith(".json") else f"{CORPUS_DIR}/{a}" for a in args]


def cli_key(args) -> str:
    return " ".join(args)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
    return time.perf_counter() - start, done


def cli_stdout_digest(stdout: bytes) -> str:
    return hashlib.sha256(ELAPSED.sub(b"", stdout)).hexdigest()


class Cli:
    name = "cli"

    def __init__(self, smoke: bool, expected: dict | None):
        self.smoke = smoke
        self.expected = None if expected is None else expected["cli"]
        self.digests: dict[str, str] = {}
        self.commands = [
            (args, status)
            for args, status in CLI_COMMANDS
            if not smoke or not any("chang" in a or "cone" in a for a in args)
        ]
        self.layer_samples: dict[str, list[float]] = {}

    def setup(self, tr: Tracer) -> None:
        sink = io.StringIO()
        with tr.span("cli.corpus"), contextlib.redirect_stdout(sink):
            status = cli.main(["corpus", "--out", str(ROOT / CORPUS_DIR)])
        if status != 0:
            raise RuntimeError(f"corpus --out exited {status}")
        # One warm invocation, so that later ones find compiled bytecode.
        run_child([sys.executable, "-m", "ellstates.cli", "corpus"])

    def make_pass(self, tr: Tracer, rng) -> list:
        order = rng.sample(self.commands, len(self.commands))
        return [(cli_key(args), lambda a=args, s=st: self.op(tr, a, s)) for args, st in order]

    def op(self, tr: Tracer, args, status):
        argv = cli_argv(args)
        if tr.enabled:
            self.trace_layers(tr, argv)
        _, done = run_child([sys.executable, "-m", "ellstates.cli", *argv])
        tr.count("cli.invocations")
        if done.returncode != status:
            return f"exit {done.returncode}, expected {status}"
        got = self.digests[cli_key(args)] = cli_stdout_digest(done.stdout)
        if self.expected is not None and got != self.expected.get(cli_key(args)):
            return "stdout differs from the seed"
        return None

    def trace_layers(self, tr: Tracer, argv: list[str]) -> None:
        """Interpreter floor, fresh import and in-process main, per invocation."""
        with tr.span("cli.interpreter", probe=True):
            floor, _ = run_child([sys.executable, "-c", "pass"])
        with tr.span("cli.import", probe=True):
            full, _ = run_child([sys.executable, "-c", "import ellstates.cli"])
        sink = io.StringIO()
        with tr.span("cli.main", probe=True), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            cli.main(argv)
            main_s = time.perf_counter() - start
        for name, value in (("cli.interpreter_s", floor), ("cli.import_s", full - floor),
                            ("cli.main_s", main_s)):
            self.layer_samples.setdefault(name, []).append(value)


WORKLOADS = {w.name: w for w in (Variety, Anatomy, Hyperstates, Cli)}
