"""Golden demo output: each script under ``demos/`` prints exactly what
``tests/golden/demos.json`` holds, byte for byte.

The demos run in process as ``__main__``, one fresh module namespace each.

To record the golden file again after an intended change of output::

    PYTHONPATH=src python3 tests/test_demos_golden.py
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos.json"
NAMES = sorted(p.name for p in DEMOS.glob("*.py"))


def run_demo(name: str) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return stdout.getvalue()


def test_golden_covers_every_demo():
    assert sorted(json.loads(GOLDEN.read_text())) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_demo_output_matches_golden(name):
    assert run_demo(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    recorded = {name: run_demo(name) for name in NAMES}
    GOLDEN.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(recorded)} demos to {GOLDEN}", file=sys.stderr)
