#!/usr/bin/env python3
"""Record the outputs and counts that every benchmark op is checked against.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: the anatomy digest of every subject, the
stdout digest of every cli command, and the counted work of one traced pass
of each workload.  Rerun it only for a change whose output is meant to
differ, and say so in the change.
"""

from __future__ import annotations

import json
import os
import random
import sys

from run import FRACTION_CALIBRATION, ROOT, SRC, WORK, run_pass

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    out = {"anatomy": {}, "cli": {}, "counts": {}}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(False, None)
        tr = workloads.Tracer(True)
        wl.setup(tr)
        errors: list[str] = []
        run_pass(wl, tr, random.Random(1), errors, FRACTION_CALIBRATION)
        if errors:
            print(f"{name}: {errors[:5]}", file=sys.stderr)
            return 1
        out["counts"][name] = dict(sorted(tr.counts.items()))
        if name in ("anatomy", "cli"):
            out[name] = dict(sorted(wl.digests.items()))
        print(f"{name}: {out['counts'][name]}")
    workloads.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
