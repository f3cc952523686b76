"""The ``hyperstates`` benchmark workload runs clean on the current tree.

The workload's ops check their own output (join, split, properties, the
envelope form and the dual round trip) and report a failed op as a reason
string or an exception.  Here its set-up and one full pass run in process,
chang subjects included; ``--smoke`` drops those, and with them the only
path through ``cancellative_form``.  ``perfbench/workloads.py`` is read as
source and executed in a fresh module, so no bytecode or other file is
written under ``perfbench/``.
"""

import random
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def snapshot() -> dict:
    return {str(p): (p.stat().st_size, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*")}


def load_workloads() -> types.ModuleType:
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_one_full_hyperstates_pass_has_no_failed_op():
    before = snapshot()
    W = load_workloads()
    tr = W.Tracer(False)
    workload = W.Hyperstates(smoke=False, expected=None)
    workload.setup(tr)
    assert any(not A.is_finite for _, A, *_ in workload.subjects)
    failed = []
    for name, op in workload.make_pass(tr, random.Random(1)):
        try:
            reason = op()
        except Exception as exc:  # an exception is a failed op, as in the benchmark
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failed.append((name, reason))
    assert failed == []
    assert tr.counts["states.join_ok"] == tr.counts["states.join_attempts"] == len(workload.pairs)
    assert snapshot() == before
