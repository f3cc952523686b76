"""Command-line front end: file formats, verbs, exit statuses, determinism."""

import ast
import gc
import importlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest

import ellstates.cli

from ellstates.cli import (
    MAX_WINDOW_ELEMENTS,
    algebra_from_json,
    algebra_to_json,
    canonical_json,
    corpus_files,
    hyperstate_from_json,
    hyperstate_to_json,
    main,
    state_from_json,
    state_to_json,
)
from ellstates.corpus import (
    boolean_algebra,
    chang_algebra,
    godel_hoop,
    hyperstate_product_corpus,
    ibp0_corpus,
    state_family,
    trunc_monoid,
)
from ellstates.hypernum import format_dual
from ellstates.ibp0 import FiniteMTL, ProductAlgebra, SymbolicPerfectAlgebra, radical
from ellstates.lmonoid import LMONOID_AXIOMS, SINGLE_TRIPLE_CAP, FiniteLMonoid
from ellstates.reports import MalformedInputError
from ellstates.semihoop import ConeState, FiniteSemihoop, ProductHoop, SymbolicConeHoop
from reference import broken_monoid


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", "--out", str(out)]) == 0
    return out


def nested_products(obj: dict, depth: int) -> dict:
    for _ in range(depth):
        obj = {"kind": "product", "factors": [obj]}
    return obj


def run_child(*argv, cwd=None):
    """Invoke in a child process that imports the same package as this test,
    installed or not; a child still running after 20 s fails the test."""
    src = str(Path(ellstates.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ellstates.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=20)


# A bounded algebra with top = bot: it passes validate --ibp0, but no element
# lies above its negation, so its radical is empty.
ONE_ELEMENT = {"size": 1, "times": [[0]], "impl": [[0]], "meet": [[0]], "join": [[0]], "bot": 0, "top": 0}


def run(capsys, *argv):
    """Invoke in process and hand back (exit status, parsed stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    body = json.loads(captured.out) if captured.out.startswith("{") else captured.out
    return code, body, captured.err


class TestFileForms:
    def test_corpus_files_roundtrip_byte_identically(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.json")):
            if path.name.startswith(("state-", "hyperstate-", "fixture-deficient", "fixture-ragged")):
                continue
            text = path.read_text()
            A = algebra_from_json(json.loads(text))
            assert canonical_json(algebra_to_json(A)) == text, path.name

    def test_state_file_roundtrip(self):
        cone = SymbolicConeHoop(rank=1)
        obj = {"lambda": ["2"]}
        w = state_from_json(obj, cone)
        assert w == ConeState([2])
        assert state_to_json(w) == obj
        table = {"0": "-1/2", "1": "0", "2": "0"}
        t = state_from_json(table, godel_hoop(3))
        assert state_to_json(t) == table

    def test_hyperstate_file_roundtrip(self):
        C = chang_algebra(1)
        obj = {"measure": {"0": "1"}, "lambda": ["2"]}
        s = hyperstate_from_json(obj, C, window=8)
        assert str(s.value(("pos", (3,)))) == "1+e-6"
        assert hyperstate_to_json(s, C) == obj

    @pytest.mark.parametrize("name", ["boolean-4", "rot-godel-3"])
    def test_table_hyperstate_file_roundtrip(self, name):
        A = ibp0_corpus()[name]
        obj = {"table": {str(a): format_dual((F(a, A.size), F(-a, 7))) for a in range(A.size)}}
        assert hyperstate_to_json(hyperstate_from_json(obj, A, window=8), A) == obj

    def test_table_form_needs_an_algebra_given_by_tables(self):
        B = boolean_algebra(1)
        with pytest.raises(MalformedInputError, match="algebra given by tables"):
            hyperstate_from_json({"table": {"0": "0+e0"}}, ProductAlgebra([B, B]), window=8)

    def test_product_radical_states_roundtrip(self):
        for name, A in hyperstate_product_corpus().items():
            hoop = radical(A).hoop
            for w in state_family(hoop):
                assert state_from_json(state_to_json(w), hoop) == w, name

    def test_product_of_semihoops_roundtrip(self):
        obj = {"kind": "product", "factors": [{"kind": "cone", "rank": 1}, algebra_to_json(godel_hoop(3))]}
        P = algebra_from_json(obj)
        assert isinstance(P, ProductHoop)
        assert algebra_to_json(P) == obj

    def test_rotation_descriptor(self):
        A = algebra_from_json({"kind": "rotation", "rank": 2})
        assert isinstance(A, SymbolicPerfectAlgebra) and A.rank == 2

    def test_structural_errors_name_the_field(self):
        with pytest.raises(MalformedInputError, match="missing field 'top'"):
            algebra_from_json({"size": 1, "times": [[0]], "impl": [[0]], "meet": [[0]]})
        with pytest.raises(MalformedInputError, match="unexpected field 'color'"):
            algebra_from_json({"kind": "rotation", "rank": 1, "color": "red"})
        with pytest.raises(MalformedInputError, match="unknown kind"):
            algebra_from_json({"kind": "sum", "rank": 1})
        with pytest.raises(MalformedInputError, match="non-empty array"):
            algebra_from_json({"kind": "product", "factors": []})
        with pytest.raises(MalformedInputError, match="measure"):
            hyperstate_from_json({"weights": {}}, chang_algebra(1), window=8)
        with pytest.raises(MalformedInputError, match="table form"):
            hyperstate_from_json({"table": {"0": "0+e0"}}, chang_algebra(1), window=8)

    @pytest.mark.parametrize("kind", [FiniteLMonoid, FiniteSemihoop, FiniteMTL], ids=lambda k: k.KIND)
    def test_module_doc_lists_the_fields_of_each_finite_kind(self, kind):
        # The module docstring is the file-format reference the README points to.
        line = re.search(rf"^ +{kind.KIND} +(\{{.*\}})$", ellstates.cli.__doc__, re.MULTILINE)
        assert line is not None, kind.KIND
        assert set(re.findall(r'"(\w+)"', line.group(1))) == {"size", *kind.TABLES, *kind.CONSTANTS}

    def test_fraction_values_must_be_exact(self):
        with pytest.raises(MalformedInputError, match="lambda"):
            state_from_json({"lambda": [0.5]}, SymbolicConeHoop(rank=1))


class TestExitContract:
    def test_planted_doubling_failure(self, corpus_dir, capsys):
        path = str(corpus_dir / "fixture-lukasiewicz-3.json")
        code, body, _ = run(capsys, "validate", "--ibp0", path)
        assert code == 1
        failed = {c["axiom"]: c for c in body["checks"] if not c["passed"]}
        assert list(failed) == ["doubling-law"]
        assert failed["doubling-law"]["witnesses"][0]["witness"] == {"x": "1"}
        # the same chain is a perfectly good bounded algebra
        code, body, _ = run(capsys, "validate", path)
        assert code == 0 and body["ok"]

    def test_planted_ragged_table(self, corpus_dir, capsys):
        code, _, err = run(capsys, "validate", str(corpus_dir / "fixture-ragged-times.json"))
        assert code == 2
        assert "times" in err

    def test_planted_deficient_measure(self, corpus_dir, capsys):
        code, body, _ = run(
            capsys,
            "hyperstate", "validate",
            str(corpus_dir / "algebra-chang-1.json"),
            str(corpus_dir / "fixture-deficient-measure.json"),
        )
        assert code == 1
        failed = [c["axiom"] for c in body["checks"] if not c["passed"]]
        assert "boundary-values" in failed

    @pytest.mark.parametrize("lam", ["2", 2, {}], ids=repr)
    def test_lambda_must_be_an_array(self, corpus_dir, tmp_path, capsys, lam):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"lambda": lam}))
        code, _, err = run(capsys, "states", str(corpus_dir / "hoop-cone-1.json"), str(state))
        assert code == 2 and "'lambda' must be an array" in err
        hyperstate = tmp_path / "hyperstate.json"
        hyperstate.write_text(json.dumps({"measure": {"0": "1"}, "lambda": lam}))
        for algebra in ("algebra-chang-1.json", "algebra-boolean-4.json"):
            code, _, err = run(capsys, "hyperstate", "validate", str(corpus_dir / algebra), str(hyperstate))
            assert code == 2 and "'lambda' must be an array" in err

    def test_unparseable_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2 and "bad.json" in err

    def test_verb_algebra_mismatch(self, corpus_dir, capsys):
        code, _, err = run(capsys, "skeleton", str(corpus_dir / "lmonoid-one.json"))
        assert code == 2 and "bounded algebra" in err

    def test_precondition_failures_are_check_failures(self, corpus_dir, capsys):
        for verb in ("skeleton", "radical", "decompose"):
            code, body, _ = run(capsys, verb, str(corpus_dir / "fixture-lukasiewicz-3.json"))
            assert code == 1, verb
            assert [c["axiom"] for c in body["checks"]] == ["precondition"], verb
            assert "doubling-law" in body["checks"][0]["witnesses"][0]["error"], verb

    def test_split_validates_the_hyperstate_first(self, corpus_dir, capsys):
        args = [str(corpus_dir / "algebra-chang-1.json"), str(corpus_dir / "fixture-deficient-measure.json")]
        code, body, _ = run(capsys, "hyperstate", "split", *args)
        assert code == 1
        failed = [c["axiom"] for c in body["checks"] if not c["passed"]]
        assert failed == ["boundary-values"]
        assert "split-identity" not in [c["axiom"] for c in body["checks"]]
        _, validated, _ = run(capsys, "hyperstate", "validate", *args)
        assert body["checks"] == validated["checks"]

    @pytest.mark.parametrize(
        "verb, text, named",
        [
            ("algebra", '{"kind": "cone", "rank": "2"}', "'rank'"),
            ("algebra", '{"kind": "rotation", "rank": 2.5}', "'rank'"),
            ("algebra", '{"kind": "cone", "rank": true}', "'rank'"),
            ("algebra", json.dumps(dict(algebra_to_json(godel_hoop(3)), size="3")), "'size'"),
            ("hyperstate", '{"table": [1, 2]}', "'table'"),
            ("hyperstate", '{"table": {"0": 1}}', "table[0]"),
            ("hyperstate", '{"measure": ["1"]}', "'measure'"),
            ("hyperstate", '{"table": {"0": "bad"}}', "table[0]"),
            ("hyperstate", '{"table": {"0": "2+e0"}}', "table[0]"),
            ("algebra", "[" * 100000, "input.json"),
            ("algebra", json.dumps(dict(algebra_to_json(godel_hoop(3)), top=True)), "top"),
            ("algebra", json.dumps(dict(algebra_to_json(trunc_monoid(2)), unit=False)), "unit"),
            ("algebra", json.dumps(dict(algebra_to_json(boolean_algebra(1)), bot=True)), "bot"),
            ("algebra", json.dumps(dict(algebra_to_json(godel_hoop(2)), times=5)), "times"),
            ("algebra", json.dumps(dict(algebra_to_json(godel_hoop(2)), times=[0, 1])), "times"),
            ("algebra", json.dumps(nested_products({"kind": "cone", "rank": 1}, 250)), "'factors'"),
        ],
        ids=lambda v: v[:40] if isinstance(v, str) else v,
    )
    def test_malformed_fields_exit_2(self, corpus_dir, tmp_path, capsys, verb, text, named):
        path = tmp_path / "input.json"
        path.write_text(text)
        if verb == "algebra":
            argv = ["validate", str(path)]
        else:
            argv = ["hyperstate", "validate", str(corpus_dir / "algebra-boolean-4.json"), str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and named in err and out == ""

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            (["states", "hoop-godel-3.json"], '{"0": "0", "1": "0", "2": "0", "-4": "-3"}', "-4"),
            (["states", "hoop-godel-3.json"], '{"0": "0", "1": "0", "2": "0", "1_0": "-3"}', "1_0"),
            (["states", "hoop-godel-3.json"], '{"0": "0", "1": "0", "2": "0", "01": "-3"}', "01"),
            (["states", "hoop-godel-3.json"], '{"0": "0", "1": "-1", "1": "0", "2": "0"}', "1"),
            (["hyperstate", "validate", "algebra-boolean-2.json"],
             '{"table": {"0": "0+e0", "1": "1+e0", "7": "1/2+e0"}}', "7"),
            (["hyperstate", "validate", "algebra-chang-1.json"],
             '{"measure": {"0": "1/2", "00": "1/2"}, "lambda": ["1"]}', "00"),
        ],
        ids=["negative", "underscore", "leading-zero", "duplicate", "no-such-element", "measure-leading-zero"],
    )
    def test_malformed_keys_exit_2(self, corpus_dir, tmp_path, capsys, argv, text, key):
        path = tmp_path / "input.json"
        path.write_text(text)
        *verb, algebra = argv
        code, out, err = run(capsys, *verb, str(corpus_dir / algebra), str(path))
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and f"key {key!r}" in lines[0]

    @pytest.mark.parametrize(
        "argv, obj, named",
        [
            (["validate"], {"kind": "cone", "rank": 12}, "'rank'"),
            (["states"], {"kind": "cone", "rank": 12}, "'rank'"),
            (["validate", "--window", "40"], {"kind": "rotation", "rank": 3}, "--window 40"),
            (["radical"], {"kind": "product", "factors": [{"kind": "rotation", "rank": 2}] * 3}, "'factors'"),
        ],
        ids=["cone-rank-12", "states-rank-12", "rotation-window-40", "product-of-three"],
    )
    def test_oversized_windows_exit_2(self, tmp_path, capsys, argv, obj, named):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *argv, str(path))
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and named in lines[0] and "--window" in lines[0]

    def test_grothendieck_keeps_the_element_ceiling(self, corpus_dir, capsys, monkeypatch):
        # grothendieck has no --window, so the refusal names none.
        monkeypatch.setattr(ellstates.cli, "MAX_WINDOW_ELEMENTS", 3)
        path = corpus_dir / "lmonoid-trunc-4.json"
        code, out, err = run(capsys, "grothendieck", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: 'size' spans more than 3 elements\n"
        monkeypatch.setattr(ellstates.cli, "MAX_WINDOW_ELEMENTS", MAX_WINDOW_ELEMENTS)
        code, body, _ = run(capsys, "grothendieck", str(path))
        assert code == 0 and body["result"]["trivial"] is True

    @pytest.mark.parametrize(
        "verb, obj",
        [
            ("states", {"kind": "cone", "rank": 10**9}),
            ("validate", {"kind": "cone", "rank": 10**5}),
            ("validate", {"kind": "cone", "rank": 10**30}),
            ("validate", {"kind": "rotation", "rank": 10**9}),
            ("validate", {"kind": "rotation", "rank": 10**30}),
        ],
        ids=["states-cone-1e9", "cone-1e5", "cone-1e30", "rotation-1e9", "rotation-1e30"],
    )
    def test_large_ranks_exit_2_at_once(self, tmp_path, capsys, verb, obj):
        # Each once hung in the size count, or ended in a traceback building
        # the rotation's top or formatting the count.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        started = time.monotonic()
        code, out, err = run(capsys, verb, str(path))
        assert time.monotonic() - started < 1
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1 and len(lines[0]) < 200
        assert lines[0].startswith("error: ") and "'rank'" in lines[0] and "--window" in lines[0]

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["radical"], None),
            (["hyperstate", "properties"], {"table": {"0": "0+e0"}}),
            (["hyperstate", "properties"], {"measure": {}}),
            (["hyperstate", "validate"], {"measure": {}}),
            (["hyperstate", "split"], {"measure": {}}),
        ],
        ids=["radical", "properties-table", "properties-measure", "validate-measure", "split-measure"],
    )
    def test_empty_radical_is_a_precondition_failure(self, tmp_path, argv, data):
        # Each once ended in a KeyError traceback while tabulating the radical.
        (tmp_path / "one.json").write_text(json.dumps(ONE_ELEMENT))
        (tmp_path / "data.json").write_text(json.dumps(data))
        proc = run_child(*argv, "one.json", *(["data.json"] if data else []), cwd=tmp_path)
        assert proc.returncode == 1 and proc.stderr == ""
        checks = json.loads(proc.stdout)["checks"]
        assert [c["axiom"] for c in checks] == ["precondition"]
        assert "radical is empty" in checks[0]["witnesses"][0]["error"]
        assert run_child("validate", "--ibp0", "one.json", cwd=tmp_path).returncode == 0

    @pytest.mark.parametrize(
        "argv, text, field",
        [
            (["states", "hoop-cone-1.json"], '{"lambda": ["1e999999999"]}', "lambda"),
            (["hyperstate", "validate", "algebra-boolean-4.json"],
             '{"table": {"0": "0+e0", "1": "1e999999999+e0", "2": "1/2+e0", "3": "1+e0"}}', "table[1]"),
        ],
        ids=["lambda", "hyperstate-table"],
    )
    def test_huge_exponents_exit_2_at_once(self, corpus_dir, tmp_path, argv, text, field):
        # Each once hung building the power of ten.
        path = tmp_path / "input.json"
        path.write_text(text)
        proc = run_child(*argv, str(path), cwd=corpus_dir)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 2 and proc.stdout == "" and len(lines) == 1
        assert lines[0].startswith(f"error: {field}: decimal exponent above ")

    @pytest.mark.parametrize(
        "argv, text, code",
        [
            (["states", "hoop-cone-1.json"], '{"lambda": ["1e4300"]}', 0),
            (["states", "hoop-cone-1.json"], '{"lambda": ["-9e4299"]}', 1),
            (["hyperstate", "split", "algebra-chang-1.json"], '{"measure": {"0": "1"}, "lambda": ["1e4300"]}', 0),
        ],
        ids=["state", "state-witnesses", "split"],
    )
    def test_values_past_4300_digits_are_rendered(self, corpus_dir, tmp_path, argv, text, code):
        # Each once ended in a ValueError traceback from Fraction.__str__.
        path = tmp_path / "input.json"
        path.write_text(text)
        proc = run_child(*argv, str(path), cwd=corpus_dir)
        assert proc.returncode == code and proc.stderr == ""
        assert json.loads(proc.stdout)["ok"] == (code == 0)
        assert max(len(digits) for digits in re.findall(r"\d+", proc.stdout)) > 4300

    def test_rendered_values_past_4300_digits_exit_2_when_read(self, corpus_dir, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"lambda": ["1" + "0" * 4300]}))
        code, out, err = run(capsys, "states", str(corpus_dir / "hoop-cone-1.json"), str(path))
        assert code == 2 and out == "" and err.startswith("error: lambda: ")

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["hyperstate", "validate", "algebra-chang-1.json"], '{"measure": {"0": "1/0"}, "lambda": ["1"]}',
             "measure[0]: zero denominator in '1/0'"),
            (["hyperstate", "validate", "algebra-chang-1.json"], '{"measure": {"0": "1"}, "lambda": ["1/0"]}',
             "lambda: zero denominator in '1/0'"),
            (["states", "hoop-cone-1.json"], '{"lambda": ["-3/0"]}', "lambda: zero denominator in '-3/0'"),
            (["states", "hoop-godel-3.json"], '{"0": "0", "1": "1/0", "2": "0"}', "state[1]: zero denominator in '1/0'"),
            (["hyperstate", "validate", "algebra-boolean-2.json"], '{"table": {"0": "0+e1/0", "1": "1+e0"}}',
             "table[0]: zero denominator in '0+e1/0'"),
        ],
        ids=["measure", "hyperstate-lambda", "state-lambda", "state-value", "hyperstate-table"],
    )
    def test_zero_denominators_name_the_value(self, corpus_dir, tmp_path, capsys, argv, text, message):
        # Measures, weights and state values once reported Fraction's own
        # message, "Fraction(1, 0)"; a table value always said this.
        path = tmp_path / "input.json"
        path.write_text(text)
        *verb, algebra = argv
        code, out, err = run(capsys, *verb, str(corpus_dir / algebra), str(path))
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_window_ceiling_admits_the_largest_corpus_input(self, corpus_dir):
        A = algebra_from_json(json.loads((corpus_dir / "product-chang-1xchang-2.json").read_text()))
        assert A.span(8) == 18 * 162 <= MAX_WINDOW_ELEMENTS
        assert algebra_from_json({"kind": "rotation", "rank": 3}).span(40) == 2 * 41**3

    def test_mixed_product_names_the_field(self, tmp_path, capsys):
        mixed = {"kind": "product", "factors": [{"kind": "cone", "rank": 1}, {"kind": "rotation", "rank": 1}]}
        monoid = {"kind": "product", "factors": [algebra_to_json(trunc_monoid(2))]}
        for obj in (mixed, monoid):
            path = tmp_path / "mixed.json"
            path.write_text(json.dumps(obj))
            code, out, err = run(capsys, "validate", str(path))
            assert code == 2 and "'factors'" in err and out == ""


class TestVerbs:
    def test_validate_product(self, corpus_dir, capsys):
        code, body, _ = run(
            capsys, "validate", "--ibp0", str(corpus_dir / "product-boolean-4xchang-1.json")
        )
        assert code == 0
        assert body["result"]["kind"] == "ProductAlgebra"

    def test_skeleton_atoms(self, corpus_dir, capsys):
        code, body, _ = run(capsys, "skeleton", str(corpus_dir / "algebra-boolean-4.json"))
        assert code == 0
        assert body["result"]["atoms"] == ["1", "2"]
        assert body["result"]["elements"] == ["0", "1", "2", "3"]

    def test_radical_of_product(self, corpus_dir, capsys):
        code, body, _ = run(
            capsys, "radical", str(corpus_dir / "product-boolean-4xchang-1.json")
        )
        assert code == 0
        kinds = [f["kind"] for f in body["result"]["hoop"]["factors"]]
        assert kinds == ["FiniteSemihoop", "SymbolicConeHoop"]
        assert body["result"]["flags"]["cancellative"] is True

    def test_decompose_chang(self, corpus_dir, capsys):
        code, body, _ = run(capsys, "decompose", str(corpus_dir / "algebra-chang-1.json"))
        assert code == 0
        rows = {r["x"]: r for r in body["result"]["elements"]}
        assert rows["neg(5)"] == {"x": "neg(5)", "b": "neg(0)", "c": "pos(5)"}
        assert rows["pos(5)"] == {"x": "pos(5)", "b": "pos(0)", "c": "pos(5)"}

    def test_capped_finite_product_is_window_verified(self, corpus_dir, tmp_path, capsys):
        # The window holds 142 of the 256 elements of B16 x B16.
        path = tmp_path / "capped.json"
        path.write_text(json.dumps({"kind": "product", "factors": [algebra_to_json(boolean_algebra(4))] * 2}))
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps({"measure": {"0": "1"}}))
        code, body, _ = run(capsys, "validate", "--ibp0", str(path))
        assert code == 0 and body["result"]["flags"] == {"window_capped": True}
        modes = {c["mode"] for c in body["checks"]}
        for argv in (["skeleton"], ["decompose"], ["hyperstate", "validate"], ["hyperstate", "split"]):
            code, body, _ = run(capsys, *argv, str(path), *([str(measure)] if "hyperstate" in argv else []))
            assert code == 0, argv
            modes |= {c["mode"] for c in body["checks"]}
        assert modes == {"window-verified (N=8)"}
        code, body, _ = run(capsys, "validate", "--ibp0", str(corpus_dir / "product-boolean-4xrot-godel-4.json"))
        assert code == 0 and {c["mode"] for c in body["checks"]} == {"exhaustive"}

    def test_product_of_semihoops(self, tmp_path, capsys):
        path = tmp_path / "hoops.json"
        path.write_text(json.dumps({"kind": "product", "factors": [{"kind": "cone", "rank": 1}, {"kind": "cone", "rank": 1}]}))
        code, body, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert body["subject"] == "semihoop" and body["result"]["kind"] == "ProductHoop"
        assert body["result"]["flags"]["cancellative"] is True
        code, body, _ = run(capsys, "states", str(path))
        assert code == 0 and body["result"]["rank"] == 2
        for argv in (["validate", "--ibp0"], ["skeleton"]):
            code, _, err = run(capsys, *argv, str(path))
            assert code == 2 and err

    def test_states_of_a_finite_product(self, tmp_path, capsys):
        # 900 elements: the verb reads a product's state off its factors, never one flat table.
        for sizes in ((2, 3), (30, 30)):
            path = tmp_path / "hoops.json"
            path.write_text(json.dumps({"kind": "product", "factors": [algebra_to_json(godel_hoop(n)) for n in sizes]}))
            code, body, _ = run(capsys, "states", str(path))
            assert code == 0, sizes
            assert body["result"] == {"count": 1, "states": [{"lambda": []}]}, sizes
            state = tmp_path / "state.json"
            state.write_text(json.dumps(body["result"]["states"][0]))
            code, body, _ = run(capsys, "states", str(path), str(state))
            assert code == 0 and "v2-additive" in [c["axiom"] for c in body["checks"]], sizes

    def test_a_large_lattice_monoid_samples_its_triple_axis(self, tmp_path, capsys):
        # 600 elements pass the element ceiling.  Past SINGLE_TRIPLE_CAP the
        # triple laws scan a strided axis and say so, so the verb ends in
        # about a second rather than growing as the cube of the size.
        path = tmp_path / "trunc-600.json"
        path.write_text(json.dumps(algebra_to_json(trunc_monoid(600))))
        code, body, _ = run(capsys, "validate", str(path))
        assert code == 0 and body["subject"] == "lmonoid"
        notes = {c["axiom"]: c.get("note") for c in body["checks"]}
        sampled = f"each axis sampled {SINGLE_TRIPLE_CAP} of 600 window elements"
        assert notes == {a.name: sampled if a.arity == 3 else None for a in LMONOID_AXIOMS}

    def test_grothendieck_trivial_envelope(self, corpus_dir, capsys):
        code, body, _ = run(
            capsys, "grothendieck", str(corpus_dir / "lmonoid-idempotent-pair.json")
        )
        assert code == 0
        assert body["result"]["trivial"] is True
        assert body["result"]["h_injective"] is False
        assert body["result"]["representatives"] == ["[0,0]"]

    def test_grothendieck_of_a_broken_monoid(self, tmp_path, capsys):
        # The envelope is built only on a valid ell-monoid: the failing
        # axioms are listed, and there is no result.
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(algebra_to_json(broken_monoid())))
        code, body, err = run(capsys, "grothendieck", str(path))
        assert code == 1 and err == ""
        assert body["subject"] == "envelope" and body["result"] == {}
        failed = [c["axiom"] for c in body["checks"] if not c["passed"]]
        assert failed == ["add-associative", "add-unit", "distribution-meet", "distribution-join"]

    def test_states_enumeration_is_zero_only(self, corpus_dir, capsys):
        code, body, _ = run(capsys, "states", str(corpus_dir / "hoop-godel-3.json"))
        assert code == 0
        assert body["result"]["count"] == 1
        assert body["result"]["states"] == [{"0": "0", "1": "0", "2": "0"}]

    def test_states_checks_a_cone_state(self, corpus_dir, capsys):
        code, body, _ = run(
            capsys,
            "states",
            str(corpus_dir / "hoop-cone-1.json"),
            str(corpus_dir / "state-cone-1.json"),
        )
        assert code == 0
        names = [c["axiom"] for c in body["checks"]]
        for expected in ("v1-unit", "v2-additive", "valuation", "bosbach"):
            assert expected in names

    def test_hyperstate_split_output(self, corpus_dir, capsys):
        code, body, _ = run(
            capsys,
            "hyperstate", "split",
            str(corpus_dir / "algebra-chang-1.json"),
            str(corpus_dir / "hyperstate-chang-1.json"),
        )
        assert code == 0
        assert body["result"]["w"] == {"lambda": ["2"]}
        assert body["result"]["p"] == {"pos(0)": "1"}
        residuals = body["result"]["residuals"]
        assert len(residuals) == 18 and set(residuals.values()) == {"0+e0"}
        assert body["checks"][0]["mode"] == "window-verified (N=8)"


class TestOutputContract:
    def test_deterministic_modulo_timing(self, corpus_dir, capsys):
        path = str(corpus_dir / "algebra-chang-1.json")

        def one_run():
            code = main(["validate", "--ibp0", path])
            out = capsys.readouterr().out
            return code, "\n".join(
                line for line in out.splitlines() if "elapsed_ms" not in line
            )

        assert one_run() == one_run()

    def test_tsv_one_check_per_line(self, corpus_dir, capsys):
        code, body, _ = run(
            capsys,
            "validate", "--ibp0", "--format", "tsv",
            str(corpus_dir / "fixture-lukasiewicz-3.json"),
        )
        assert code == 1
        lines = body.strip().splitlines()
        assert all(len(line.split("\t")) == 3 for line in lines)
        failing = [line for line in lines if "\tfail\t" in line]
        assert len(failing) == 1 and failing[0].startswith("doubling-law\t")
        witness = json.loads(failing[0].split("\t")[2])
        assert witness["witness"] == {"x": "1"}

    def test_window_must_be_positive(self, corpus_dir):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--window", "0", str(corpus_dir / "algebra-boolean-2.json")])
        assert exc.value.code == 2

    def test_console_module_invocation(self, corpus_dir):
        proc = run_child("validate", str(corpus_dir / "algebra-boolean-2.json"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    @staticmethod
    def loaded_after_each(stages: list[list[str]]) -> list[list]:
        """Run ``stages`` in order in one child, and after each the exit status
        and which of ibp0, semihoop, states, corpus and dataclasses it has loaded."""
        modules = ["ellstates.ibp0", "ellstates.semihoop", "ellstates.states", "ellstates.corpus", "dataclasses"]
        code = ("import contextlib, io, json, sys; from ellstates.cli import main; loaded = []\n"
                f"for argv in {stages!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()): status = main(argv)\n"
                f"    loaded.append([status] + [m in sys.modules for m in {modules!r}])\n"
                "print(json.dumps(loaded))")
        src = str(Path(ellstates.cli.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                               env=dict(os.environ, PYTHONPATH=src))
        return json.loads(child.stdout)

    def test_each_verb_loads_only_what_it_runs(self, corpus_dir):
        # A child that writes no bytecode compiles every module it imports,
        # so a lattice-monoid file loads neither ibp0 nor semihoop, a hoop
        # file no ibp0, only hyperstate loads states and only corpus loads
        # corpus, and no verb loads dataclasses.  The verbs run in one child
        # in rising order of what they import.
        alg, hoop, monoid = (str(corpus_dir / f) for f in (
            "algebra-chang-1.json", "hoop-godel-3.json", "lmonoid-trunc-3.json"))
        stages = [
            ["validate", monoid], ["grothendieck", monoid], ["validate", hoop], ["states", hoop],
            ["states", str(corpus_dir / "hoop-cone-1.json"), str(corpus_dir / "state-cone-1.json")],
            ["validate", "--ibp0", alg], ["skeleton", alg], ["radical", alg], ["decompose", alg],
            ["hyperstate", "validate", alg, str(corpus_dir / "hyperstate-chang-1.json")],
            ["corpus"],
        ]
        assert self.loaded_after_each(stages) == (
            [[0, False, False, False, False, False]] * 2 + [[0, False, True, False, False, False]] * 3
            + [[0, True, True, False, False, False]] * 4
            + [[0, True, True, True, False, False], [0, True, True, True, True, False]]
        )
        # ibp0 imports semihoop only to build a radical's hoop or a rotation,
        # so on a finite-table algebra, or a product of them, only radical loads it.
        tables = [str(corpus_dir / f) for f in ("algebra-boolean-4.json", "product-boolean-4xrot-godel-4.json")]
        stages = [[*verb, path] for path in tables for verb in (["validate", "--ibp0"], ["skeleton"], ["decompose"])]
        assert self.loaded_after_each(stages + [["radical", tables[0]]]) == (
            [[0, True, False, False, False, False]] * 6 + [[0, True, True, False, False, False]])

    def test_corpus_listing_names_fixtures(self, capsys):
        code, body, _ = run(capsys, "corpus")
        assert code == 0
        assert body["result"]["fixtures"] == [
            "fixture-lukasiewicz-3.json",
            "fixture-ragged-times.json",
            "fixture-deficient-measure.json",
        ]
        assert set(body["result"]["fixtures"]) <= set(body["result"]["files"])
        assert len(body["result"]["files"]) == len(corpus_files())


class TestProcessEntry:
    """A child process runs ``main`` through ``entry``, which freezes the heap
    once ``main`` is done, so that the interpreter's exit collections scan
    nothing; ``main`` itself never freezes."""

    def test_main_in_process_leaves_the_heap_unfrozen(self, corpus_dir, capsys):
        assert main(["validate", str(corpus_dir / "algebra-boolean-2.json")]) == 0
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_a_module_child_exits_with_the_heap_frozen(self, corpus_dir):
        # The probe is registered first, so it runs after the module has exited.
        code = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
                f"sys.argv = ['ellstates', 'validate', {str(corpus_dir / 'algebra-boolean-2.json')!r}]\n"
                "runpy.run_module('ellstates.cli', run_name='__main__')")
        src = str(Path(ellstates.cli.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
                               env=dict(os.environ, PYTHONPATH=src))
        assert child.returncode == 0 and json.loads(child.stdout)["ok"] is True
        frozen = re.fullmatch(r"frozen (\d+)\n", child.stderr)
        assert frozen is not None and int(frozen.group(1)) > 0, child.stderr

    @pytest.mark.parametrize("argv, status", [
        (("validate", "algebra-boolean-2.json"), 0),
        (("validate", "--ibp0", "fixture-lukasiewicz-3.json"), 1),
        (("validate", "fixture-ragged-times.json"), 2),
    ])
    def test_a_child_prints_what_main_prints(self, corpus_dir, capsys, argv, status):
        argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
        code = main(argv)
        printed = capsys.readouterr()
        child = run_child(*argv)
        untimed = partial(re.sub, r'"elapsed_ms": \d+', "")
        assert (child.returncode, untimed(child.stdout), child.stderr) == (code, untimed(printed.out), printed.err)
        assert code == status

    def test_the_script_and_the_module_share_one_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        script = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["ellstates"]
        module, name = script.split(":")
        assert getattr(importlib.import_module(module), name) is ellstates.cli.entry
        tree = ast.parse(Path(ellstates.cli.__file__).read_text())
        assert ast.unparse(tree.body[-1]) == "if __name__ == '__main__':\n    raise SystemExit(entry())"
