"""Golden CLI reports: every applicable verb on every written corpus file.

Each invocation runs ``cli.main`` in process from inside the written corpus
directory, so the ``command`` field carries bare file names.  Its stdout,
with the ``elapsed_ms`` line removed, and its exit status must match
``tests/golden/cli.json`` byte for byte.

To record the golden file again after an intended change of output::

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from ellstates.cli import FIXTURES, corpus_files, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
ALGEBRA_VERBS = (["validate"], ["validate", "--ibp0"], ["skeleton"], ["radical"], ["decompose"])
HYPERSTATE_ACTIONS = ("validate", "split", "properties")


def invocations() -> list[list[str]]:
    names = sorted(corpus_files())
    out: list[list[str]] = [["corpus"]]
    for name in names:
        if name.startswith(("algebra-", "product-")) or name == "fixture-lukasiewicz-3.json":
            out += [verb + [name] for verb in ALGEBRA_VERBS]
        elif name.startswith("hoop-"):
            out += [["states", name], ["states", name, "state-cone-1.json"]]
        elif name.startswith("lmonoid-"):
            out.append(["grothendieck", name])
    out.append(["validate", "fixture-ragged-times.json"])
    for hyperstate in ("hyperstate-chang-1.json", "fixture-deficient-measure.json"):
        out += [["hyperstate", action, "algebra-chang-1.json", hyperstate] for action in HYPERSTATE_ACTIONS]
    return out


INVOCATIONS = invocations()


def run_in(directory: Path, argv: list[str]) -> dict:
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            status = main(list(argv))
    finally:
        os.chdir(cwd)
    lines = stdout.getvalue().splitlines(keepends=True)
    return {"exit": status, "stdout": "".join(l for l in lines if '"elapsed_ms":' not in l)}


def write_corpus(directory: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", "--out", str(directory)]) == 0


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-corpus")
    write_corpus(out)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_invocation(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in INVOCATIONS)
    assert all(f"{name}.json" in " ".join(golden) for name in FIXTURES)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_report_matches_golden(corpus_dir, golden, argv):
    assert run_in(corpus_dir, argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
        recorded = {" ".join(argv): run_in(Path(tmp), argv) for argv in INVOCATIONS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(recorded)} invocations to {GOLDEN}", file=sys.stderr)
