"""The exit contract under mutated corpus files.

Each case takes one file that ``corpus --out`` writes, mutates it a few
times (drops or duplicates a field, swaps a JSON type, perturbs a table
entry or a constant, nests it, or inserts a huge integer), and runs the
verb that reads it through ``cli.main`` in process.  Whatever the input,
the exit is 0, 1 or 2, no exception escapes, a report is JSON, and exit 2
comes with exactly one ``error:`` line on stderr.  Drawn cases run at
``--window 1``, so an input the size guard admits stays small; the
examples at the default window are inputs that once ended in a hang or a
traceback.
"""

import contextlib
import io
import json
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ellstates.cli import algebra_to_json, corpus_files, main
from ellstates.corpus import godel_hoop, lukasiewicz_hoop

# The mutated file, and the argv that reads it ("{}" is its path).
TARGETS = {
    "hoop-godel-3.json": ["states", "{}"],
    "hoop-cone-2.json": ["validate", "{}"],
    "lmonoid-trunc-3.json": ["grothendieck", "{}"],
    "algebra-chang-1.json": ["validate", "--ibp0", "{}"],
    "algebra-boolean-4.json": ["skeleton", "{}"],
    "algebra-rot-godel-3.json": ["radical", "{}"],
    "product-boolean-4xchang-1.json": ["decompose", "{}"],
    "state-cone-1.json": ["states", "hoop-cone-1.json", "{}"],
    "hyperstate-chang-1.json": ["hyperstate", "split", "algebra-chang-1.json", "{}"],
}
WINDOWLESS = {"grothendieck", "corpus"}
# Stands for an integer literal too long for int(): json.dumps can't write one.
HUGE = "@huge@"
HUGE_TEXT = "1" + "0" * 5000
SWAPS = [None, True, 0, -1, 1.5, "", "x", "1/0", [], {}, [0], {"kind": "cone"}]
BIG = [10**9, 10**30, -(2**63), 2**64, HUGE]


def mutation(value):
    """One change to ``value`` itself."""
    kinds = ["swap", "huge", "nest"]
    if isinstance(value, (dict, list)) and value:
        kinds += ["drop", "duplicate"]
    # Small in-range edits reach the validators rather than the parser.
    if isinstance(value, int) and not isinstance(value, bool):
        kinds += ["perturb"] * 3
    if isinstance(value, str):
        kinds += ["constant"] * 3
    return st.sampled_from(kinds).flatmap(lambda kind: _apply(kind, value))


def _apply(kind, value):
    if kind == "swap":
        return st.sampled_from(SWAPS)
    if kind == "huge":
        return st.sampled_from(BIG)
    if kind == "nest":
        return st.sampled_from([[value], {"kind": "product", "factors": [value]}])
    if kind == "perturb":
        return st.sampled_from([value - 1, value + 1, 0, 1, 3])
    if kind == "constant":
        return st.sampled_from(["0", "-1", "1/2", "7/3", "2", "-0", "1e3", "abc", "1+e-1"])
    keys = list(value) if isinstance(value, dict) else list(range(len(value)))

    def edit(key):
        out = dict(value) if isinstance(value, dict) else list(value)
        if kind == "drop":
            del out[key]
        elif isinstance(out, dict):
            out[f"{key}2"] = value[key]
        else:
            out.insert(key, value[key])
        return out

    return st.sampled_from(keys).map(edit)


@st.composite
def mutated(draw, value, depth=0):
    """``value`` with one mutation somewhere inside it."""
    # Most mutations land below the top, where a file stays readable as a whole.
    if isinstance(value, (dict, list)) and value and depth < 6 and draw(st.integers(0, 4)):
        key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        out = dict(value) if isinstance(value, dict) else list(value)
        out[key] = draw(mutated(value[key], depth + 1))
        return out
    return draw(mutation(value))


files = cache(corpus_files)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(TARGETS)))
    obj = files()[name]
    for _ in range(draw(st.integers(1, 2))):
        obj = draw(mutated(obj))
    text = json.dumps(obj).replace(json.dumps(HUGE), HUGE_TEXT)
    if isinstance(obj, dict) and obj and draw(st.sampled_from([False] * 4 + [True])):
        # A repeated key, which a dict can't hold: the first one, written twice.
        key = next(iter(obj))
        text = "{" + json.dumps(key) + ": " + json.dumps(obj[key]).replace(json.dumps(HUGE), HUGE_TEXT) + ", " + text[1:]
    argv = TARGETS[name]
    if argv[0] not in WINDOWLESS:
        argv = [argv[0], "--window", "1", *argv[1:]]
    return argv, text


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", "--out", str(out)]) == 0
    return out


LARGE_RANKS = [
    (["states", "{}"], '{"kind": "cone", "rank": 1000000000}'),
    (["validate", "{}"], '{"kind": "cone", "rank": 100000}'),
    (["validate", "{}"], '{"kind": "cone", "rank": 1000000000000000000000000000000}'),
    (["validate", "{}"], '{"kind": "rotation", "rank": 1000000000}'),
    (["validate", "{}"], '{"kind": "rotation", "rank": 1000000000000000000000000000000}'),
]

# Finite hoops whose states once took 26 s, or ended in a MemoryError.
OVER_BUDGET = [
    (["states", "{}"], json.dumps({"kind": "product", "factors": [algebra_to_json(godel_hoop(30))] * 2})),
    (["states", "{}"], json.dumps(algebra_to_json(lukasiewicz_hoop(150)))),
]

# A bounded algebra whose radical is empty: top = bot.
ONE_ELEMENT = {"size": 1, "times": [[0]], "impl": [[0]], "meet": [[0]], "join": [[0]], "bot": 0, "top": 0}


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=cases())
@example(case=LARGE_RANKS[0])
@example(case=LARGE_RANKS[1])
@example(case=LARGE_RANKS[2])
@example(case=LARGE_RANKS[3])
@example(case=LARGE_RANKS[4])
@example(case=OVER_BUDGET[0])
@example(case=OVER_BUDGET[1])
@example(case=(["validate", "{}"], '{"kind": "product", "factors": [{"kind": "rotation", "rank": 1000000000}]}'))
@example(case=(["validate", "{}"], '{"kind": "cone", "rank": ' + HUGE_TEXT + "}"))
@example(case=(["radical", "{}"], json.dumps(ONE_ELEMENT)))
@example(case=(["states", "hoop-cone-1.json", "{}"], '{"lambda": ["1e999999999"]}'))
@example(case=(["hyperstate", "validate", "algebra-boolean-4.json", "{}"],
               '{"table": {"0": "0+e0", "1": "1e999999999+e0", "2": "1/2+e0", "3": "1+e0"}}'))
@example(case=(["states", "hoop-cone-1.json", "{}"], '{"lambda": ["1e4300"]}'))
@example(case=(["states", "hoop-cone-1.json", "{}"], '{"lambda": ["-9e4299"]}'))
@example(case=(["hyperstate", "split", "algebra-chang-1.json", "{}"], '{"measure": {"0": "1"}, "lambda": ["1e4300"]}'))
def test_mutated_files_keep_the_exit_contract(corpus_dir, case):
    argv, text = case
    path = corpus_dir / "mutated.json"
    path.write_text(text)
    argv = [str(path) if a == "{}" else str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert out.getvalue() == ""
    else:
        assert json.loads(out.getvalue())["ok"] == (code == 0)
