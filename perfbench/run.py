#!/usr/bin/env python3
"""Benchmark of the ellstates package: one workload per run, end to end or traced.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload variety --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A run imports the package from ``src/``, sets the workload up several times
(``setup_s`` is the import plus the median set-up), then runs whole timed
passes: at least ``MIN_PASSES``, then more while each is expected to end
within ``--seconds``.  A calibration slice runs before every op, and every
end-to-end time is scaled by it to a reference host (see ``Calibration``).
With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` the passes are traced, one untraced pass follows,
and the last line reports the per-layer metrics.  The line before it is a
detail object: the machine note, error rate, tail percentile and sample
counts, and the tracing overhead.  Spans of a traced run are written to
``perfbench/.work/``.

``--smoke`` alone runs every workload, traced and untraced, on the Boolean
and rotated Gödel subjects only, and checks every op as a full run does.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

# Set-ups per run; the cheap cli set-up is repeated more, so that its median
# is steady.
SETUP_REPEATS = {"variety": 3, "anatomy": 3, "hyperstates": 3, "cli": 5}
MIN_PASSES = 2
TAIL_LEVELS = (99, 95, 90, 75, 50)

# Per-layer metric -> span names it sums.  A layer a workload never calls
# reads 0 on that workload.
LAYER_SPANS = {
    "ibp0.validate_ibp0_s": ("ibp0.validate_ibp0.finite", "ibp0.validate_ibp0.symbolic"),
    "ibp0.validate_ibp0_symbolic_s": ("ibp0.validate_ibp0.symbolic",),
    "ibp0.validate_ibp0_finite_s": ("ibp0.validate_ibp0.finite",),
    "ibp0.boolean_skeleton_s": ("ibp0.boolean_skeleton",),
    "ibp0.radical_s": ("ibp0.radical",),
    "ibp0.decompose_element_s": ("ibp0.decompose_element",),
    "semihoop.validate_semihoop_s": ("semihoop.validate_semihoop.finite",
                                     "semihoop.validate_semihoop.symbolic"),
    "semihoop.validate_semihoop_symbolic_s": ("semihoop.validate_semihoop.symbolic",),
    "semihoop.state_to_kgroup_state_s": ("semihoop.state_to_kgroup_state",),
    "lmonoid.k_ops_s": ("lmonoid.k_ops",),
    "states.join_hyperstate_s": ("states.join_hyperstate",),
    "states.split_hyperstate_s": ("states.split_hyperstate",),
    "states.hyperstate_properties_s": ("states.hyperstate_properties",),
    "states.cancellative_form_s": ("states.cancellative_form",),
    "hypernum.dual_ops_s": ("hypernum.dual_ops",),
    "corpus.build_s": ("corpus.build",),
    "corpus.hyperstate_family_s": ("corpus.hyperstate_family",),
}
# Measured per invocation by the cli workload's traced passes.
CLI_LAYERS = ("cli.interpreter_s", "cli.import_s", "cli.main_s")
COUNTS = ("ibp0.window_elements", "ibp0.checks", "ibp0.decompose_calls",
          "states.roundtrips", "lmonoid.k_ops", "hypernum.dual_ops")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("variety", "anatomy", "hyperstates", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="Boolean and rotated Gödel subjects only; alone, runs every workload")
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required unless --smoke is given")
    return args


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_level(n_ops: int) -> int:
    """The highest listed percentile with at least ten ops beyond it."""
    for level in TAIL_LEVELS:
        if n_ops * (100 - level) / 100 >= 10:
            return level
    return 50


def percentile(xs, level: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[level - 1]


def interpreter_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def cgroup_cpu_limit() -> str:
    """The cgroup CPU quota (v2, else v1), or why it is not known."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except OSError:
        try:
            quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text().strip()
            period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
        except OSError:
            return "unreadable"
    if quota in ("max", "-1"):
        return "no limit"
    return f"{int(quota) / int(period):.2f} CPUs"


def machine_note() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": cgroup_cpu_limit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "interpreter_floor_s": median([interpreter_seconds() for _ in range(3)]),
        "settings": "no machine setting was changed; the benchmark acts only on its own processes and files",
    }


def fraction_work() -> None:
    """The work the in-process workloads do most: Fraction arithmetic,
    hashing and dict updates."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 160):
        f = Fraction(i % 11 + 1, i % 7 + 2)
        acc = acc + f if i % 3 else acc * f / (f + 1)
        seen[(i % 17, f)] = acc
        if acc == f:
            seen.pop((i % 17, f))


CHILD_IMPORTS = "import argparse, dataclasses, fractions, json, pathlib, numpy"


def child_work() -> None:
    """What a cli op does besides the package: start an interpreter and
    import the modules the package imports."""
    subprocess.run([sys.executable, "-c", CHILD_IMPORTS], cwd=ROOT, check=True,
                   capture_output=True, timeout=60)


class Calibration:
    """Host-speed calibration.

    The host is shared, and its speed for the same work drifts by up to a
    factor of two over minutes.  So a fixed piece of work that uses nothing
    from the package is timed before every op, and every end-to-end time is
    scaled to a reference host: time * ref_s / (calibration time nearby).

    Now and then the host stalls a slice for far longer than the slice.  A
    long op, a pass or a set-up takes in such stalls in proportion, so its
    time is scaled by the mean slice.  A short op's typical time misses
    them, so the median op is scaled by the median slice.
    """

    def __init__(self, work, ref_s: float, around_setup: int, window: int | None):
        self.work = work
        self.ref_s = ref_s  # the work's time on the reference host
        self.around_setup = around_setup  # slices before and after a set-up
        # An op is scaled by the `window` slices on each side of it, or by
        # all of its pass's slices if None.
        self.window = window

    def slice(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def slices(self) -> list[float]:
        return [self.slice() for _ in range(self.around_setup)]

    def scale(self, slices, stat=statistics.fmean) -> float:
        """Factor from this host's time to reference-host time."""
        return self.ref_s / stat(slices)

    def op_scales(self, slices, stat=statistics.fmean) -> list[float]:
        """One factor per op; slices[i] ran just before op i."""
        if self.window is None:
            return [self.scale(slices, stat)] * len(slices)
        w = self.window
        return [self.scale(slices[max(0, i + 1 - w):i + 1 + w], stat)
                for i in range(len(slices))]


FRACTION_CALIBRATION = Calibration(fraction_work, 0.0007, 15, None)
CALIBRATIONS = {"cli": Calibration(child_work, 0.19, 3, 2)}


def run_pass(wl, tr, rng, errors: list, cal: Calibration):
    """One timed pass.  Returns its wall time without the calibration slices,
    (op label, op time) pairs, the failed-op count and the slice times."""
    gc.collect()
    ops = wl.make_pass(tr, rng)
    tr.counts = {}
    times, slices, failed = [], [], 0
    start = time.perf_counter()
    for i, (label, fn) in enumerate(ops):
        tr.op = i
        slices.append(cal.slice())
        t0 = time.perf_counter()
        try:
            err = fn()
        except Exception as exc:  # an op that raises is a failed op, reported below
            where = traceback.extract_tb(exc.__traceback__)[-1]
            err = f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
        times.append((label, time.perf_counter() - t0))
        if err:
            failed += 1
            errors.append(f"{label}: {err}")
    return time.perf_counter() - start - sum(slices), times, failed, slices


def span_total(spans, lo: int, hi: int, keep) -> float:
    return sum((s[3] - s[2] for s in spans[lo:hi] if keep(s)), 0.0)


def run_workload(args) -> int:
    cal = CALIBRATIONS.get(args.workload, FRACTION_CALIBRATION)
    import_slices = cal.slices()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    import_s = time.perf_counter() - t0
    if Path(workloads.cli.__file__).resolve().parent != SRC / "ellstates":
        print(f"error: ellstates imported from {workloads.cli.__file__}, not from src/",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    expected = workloads.load_expected()
    repeats = 1 if args.smoke else SETUP_REPEATS[args.workload]
    min_passes = 1 if args.smoke else MIN_PASSES
    wl = workloads.WORKLOADS[args.workload](args.smoke, expected)
    rng = random.Random(args.seed)
    tr = workloads.Tracer(bool(args.trace))

    # Set-up, several times; the last one's state is kept for the passes.
    # Each is scaled by the calibration slices just before and after it.
    setup_times, setup_marks = [], []
    slices_after = cal.slices()
    import_slices += slices_after
    setup_scaled = []
    for _ in range(repeats):
        gc.collect()
        lo = len(tr.spans)
        slices_before = slices_after
        start = time.perf_counter()
        wl.setup(tr)
        setup_times.append(time.perf_counter() - start)
        setup_marks.append((lo, len(tr.spans)))
        slices_after = cal.slices()
        setup_scaled.append(setup_times[-1] * cal.scale(slices_before + slices_after))

    errors: list[str] = []
    attempted = failed = 0
    # Whole passes: at least min_passes, then another only while it is
    # expected (from the slowest pass so far) to end within --seconds.
    walls, scaled_walls, scales, pass_counts, pass_marks = [], [], [], [], []
    op_scaled, op_typical = [], []  # op times scaled by the mean and by the median slice
    started = time.perf_counter()
    while len(walls) < min_passes or (
        time.perf_counter() - started + max(walls) <= args.seconds
    ):
        lo = len(tr.spans)
        wall, times, bad, slices = run_pass(wl, tr, rng, errors, cal)
        pass_marks.append((lo, len(tr.spans)))
        walls.append(wall)
        scales.append(cal.scale(slices))
        scaled = [t * k for (_, t), k in zip(times, cal.op_scales(slices))]
        op_scaled.extend(scaled)
        op_typical.extend(t * k for (_, t), k in zip(times, cal.op_scales(slices, median)))
        scaled_walls.append(sum(scaled))
        pass_counts.append(dict(tr.counts))
        attempted += len(times)
        failed += bad

    # A traced run ends with one untraced pass, for the tracing overhead.
    if args.trace:
        untraced_wall, times, bad, _ = run_pass(wl, workloads.Tracer(False), rng, errors, cal)
        attempted += len(times)
        failed += bad

    # Cache guard: the counted work of every pass is the same, and in a full
    # run it is the work counted at the seed.
    guard = []
    if any(c != pass_counts[0] for c in pass_counts):
        guard.append(f"counts differ between passes: {pass_counts}")
    if not args.smoke:
        want = expected["counts"][args.workload]
        for name, value in pass_counts[0].items():
            if name in want and want[name] != value:
                guard.append(f"{name} = {value}, {want[name]} at the seed")

    ops_per_pass = len(op_scaled) // len(walls)
    level = tail_level(ops_per_pass * min_passes)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(walls),
        "ops": len(op_scaled),
        "error_rate": failed / attempted,
        "op_tail_percentile": level,
        "op_tail_ops_beyond": round(len(op_scaled) * (100 - level) / 100, 1),
        "calibration": {"work": cal.work.__name__, "ref_s": cal.ref_s},
        "import_s": import_s,
        "import_scale": cal.scale(import_slices),
        "setup_repeats_s": setup_times,
        "setup_repeats_scaled_s": setup_scaled,
        "pass_walls_s": walls,
        "pass_scales": scales,
        "counts": pass_counts[0],
        "errors": errors[:5],
        "guard": guard,
        "machine": machine_note(),
    }

    if args.trace:
        # Traced wall_s (the fastest pass, probe calls taken out) minus the
        # untraced pass.
        probe_walls = [w - span_total(tr.spans, lo, hi, lambda s: s[6])
                       for w, (lo, hi) in zip(walls, pass_marks)]
        detail["tracing_overhead_s"] = min(probe_walls) - untraced_wall
        detail["untraced_wall_s"] = untraced_wall
        metrics = layer_metrics(wl, tr, pass_marks, setup_marks, pass_counts[0])
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "op", "probe"],
            "spans": tr.spans,
            "setups": setup_marks,
            "passes": pass_marks,
        }))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        # Every time is scaled to the reference host; the raw times are in
        # the detail line.
        metrics = {
            "wall_s": (median(scaled_walls), "s"),
            "op_p50_ms": (median(op_typical) * 1000, "ms"),
            "op_tail_ms": (percentile(op_scaled, level) * 1000, "ms"),
            "setup_s": (import_s * cal.scale(import_slices) + median(setup_scaled), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not guard,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(wl, tr, pass_marks, setup_marks, counts) -> dict:
    """Span time per timed pass (median over passes); a layer that runs only
    in set-up reports its time per set-up instead."""
    out = {}
    for metric, names in LAYER_SPANS.items():
        def keep(s, names=names):
            return s[1] in names

        per_pass = [span_total(tr.spans, lo, hi, keep) for lo, hi in pass_marks]
        if not any(per_pass):
            per_pass = [span_total(tr.spans, lo, hi, keep) for lo, hi in setup_marks]
        out[metric] = (median(per_pass), "s")
    samples = getattr(wl, "layer_samples", {})
    for metric in CLI_LAYERS:
        out[metric] = (median(samples.get(metric, [])), "s")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    attempts = counts.get("states.join_attempts", 0)
    out["states.join_ok_ratio"] = (counts.get("states.join_ok", 0) / attempts if attempts else 0.0, "ratio")
    return out


def run_smoke() -> int:
    """Every workload, untraced and traced, on the small subjects."""
    ok = True
    for workload in ("variety", "anatomy", "hyperstates", "cli"):
        for trace in (0, 1):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
            passed = result.get("correct") is True
            ok = ok and passed
            note = "" if passed else (lines[-2] if len(lines) > 1 else done.stderr.strip()[-400:])
            print(f"{workload:12s} trace={trace} {'ok' if passed else 'FAIL'} "
                  f"{result.get('attempted', 0)} ops {time.perf_counter() - start:.1f}s {note}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ellstates" / "cli.py").is_file():
        print(f"error: {SRC / 'ellstates'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_smoke()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
