"""Command-line front end: load algebra and state files, run the validators
and constructions, emit machine-readable reports.

All files are JSON.  The canonical form (what ``corpus --out`` writes and
what every dump function produces) has sorted keys and two-space indent, so
parse -> serialize -> parse is the identity on canonical files.

  lattice monoid    {"size", "add", "meet", "join", "unit"}
  semihoop          {"size", "times", "impl", "meet", "top"}
  bounded algebra   {"size", "times", "impl", "meet", "join", "bot", "top"}
  symbolic          {"kind": "rotation", "rank": k}
                    {"kind": "cone", "rank": k}
                    {"kind": "product", "factors": [<algebra>, ...]}
  state             {"<index>": "<fraction>", ...} or {"lambda": ["<fraction>", ...]}
  hyperstate        {"measure": {"<atom index>": "<fraction>"}, "lambda": [...]}
                    or {"table": {"<index>": "<r+es>", ...}} on a table algebra

The "lambda" form is the weight vector of a state of a hoop built from cones
and finite factors (of the radical, in a hyperstate file): one entry per cone
axis, in factor order, and none for a finite factor, whose only state is
zero.  Weight λ_i is minus the state's value at the generator of axis i.
`hyperstate split` writes its radical state w in this form, and `states`
writes the zero state of a finite product as {"lambda": []}.

Tables are row-major arrays of element indices, and constants are element
indices.  Products nest at most 32 deep.  All numbers in reports are exact
fraction strings, written in full even past the 4300 digits that Python
converts from a string; a file that holds such a value exits 2 when it is
read back, at that parse limit.

Exit status: 0 when every required check passed, 1 when some check failed
(the report carries witnesses), 2 when an input could not be parsed at all.
Output is deterministic for identical invocations, except the elapsed_ms
field.

The ``states`` and ``corpus`` modules are imported in the functions that use
them: a process that writes no bytecode compiles every module it imports, and
only ``hyperstate`` and ``corpus`` need ``states``; only ``corpus`` needs
``corpus``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Any, Callable

from ._scan import scan_mode, tables
from .ibp0 import (
    FiniteMTL,
    ProductAlgebra,
    SymbolicPerfectAlgebra,
    boolean_skeleton,
    decompose,
    radical,
    require_ibp0,
    validate_ibp0,
    validate_mtl,
)
from .hypernum import format_dual, format_exact, parse_dual, parse_exact
from .lmonoid import FiniteLMonoid, TableAlgebra, envelope_summary, k_envelope, validate_lmonoid
from .reports import (
    Check,
    InternalConsistencyError,
    MalformedInputError,
    PreconditionError,
    verdict,
)
from .semihoop import (
    ConeState,
    FiniteSemihoop,
    ProductHoop,
    ProductState,
    SymbolicConeHoop,
    TableState,
    enumerate_states_finite,
    state_properties,
    state_weights,
    symbolic_rank,
    validate_semihoop,
    validate_state,
    weighted_state,
)


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _exact(value: Any, where: str, parse: Callable[[str], Any] = parse_exact) -> Any:
    """``parse`` applied to an exact value written as an int or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise MalformedInputError(f"{where}: expected an exact value, got {value!r}")
    try:
        return parse(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"{where}: {exc}") from exc


# What a field's JSON type is called in errors; a bool is not an integer here.
JSON_TYPES = {int: "an integer", list: "an array", dict: "an object"}


def _field(obj: dict, name: str, what: str, kind: type) -> Any:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedInputError(f"{what}: field {name!r} must be {JSON_TYPES[kind]}, got {value!r}")
    return value


def _lambda_field(obj: dict, what: str) -> list[Fraction]:
    """The weight vector under "lambda" (absent means no weights)."""
    lam = _field(obj, "lambda", what, list) if "lambda" in obj else []
    return [_exact(v, "lambda") for v in lam]


def _index_key(key: str, where: str, size: int | None = None) -> int:
    """The index a canonical decimal ``key`` names, below ``size`` if given."""
    if re.fullmatch("0|[1-9][0-9]*", key) and (size is None or int(key) < size):
        return int(key)
    raise MalformedInputError(f"{where}: key {key!r} is not an element index")


def _element_table(obj: dict, A, where: str, parse: Callable[[str], Any] = parse_exact) -> dict[int, Any]:
    """A table file's exact entries, keyed by elements of the finite table
    algebra ``A``; no key names an element of any other carrier."""
    size = A.size if isinstance(A, TableAlgebra) else 0
    return {_index_key(k, where, size): _exact(v, f"{where}[{k}]", parse) for k, v in obj.items()}


def _require_fields(obj: dict, required: set[str], what: str) -> None:
    missing = required - obj.keys()
    if missing:
        raise MalformedInputError(f"{what}: missing field {sorted(missing)[0]!r}")
    extra = obj.keys() - required
    if extra:
        raise MalformedInputError(f"{what}: unexpected field {sorted(extra)[0]!r}")


# ---------------------------------------------------------------------------
# Parsing and dumping

# The file forms of semihoops and of bounded algebras; a product holds one kind.
HOOPS = (FiniteSemihoop, SymbolicConeHoop, ProductHoop)
BOUNDED = (FiniteMTL, SymbolicPerfectAlgebra, ProductAlgebra)
# Scans and ops recurse through every product level, so a nesting as deep as
# the interpreter's recursion limit would end in a RecursionError.
MAX_PRODUCT_DEPTH = 32
# The most elements a carrier may span at the chosen window.  Scans tabulate
# ops over element ids, so memory grows with the square of this: a rank-2
# rotation of 4050 elements ran out of 1.5 GB, and one of 2888 took 139 s and
# 1.1 GB.  The largest corpus input, chang-1 x chang-2 at the default window,
# spans 18 x 162 = 2916.
MAX_WINDOW_ELEMENTS = 3000


def algebra_from_json(obj: Any, depth: int = 0):
    """Dispatch on the key shape; constructors do the table checking.
    ``depth`` counts the products around ``obj``."""
    if not isinstance(obj, dict):
        raise MalformedInputError("algebra file must hold a JSON object")
    if "kind" in obj:
        kind = obj["kind"]
        if kind in ("rotation", "cone"):
            _require_fields(obj, {"kind", "rank"}, kind)
            cone = SymbolicConeHoop(rank=_field(obj, "rank", kind, int))
            return SymbolicPerfectAlgebra(cone) if kind == "rotation" else cone
        if kind == "product":
            _require_fields(obj, {"kind", "factors"}, "product")
            factors = obj["factors"]
            if not isinstance(factors, list) or not factors:
                raise MalformedInputError("product: 'factors' must be a non-empty array")
            if depth == MAX_PRODUCT_DEPTH:
                raise MalformedInputError(f"product: 'factors' nested more than {MAX_PRODUCT_DEPTH} products deep")
            parsed = [algebra_from_json(f, depth + 1) for f in factors]
            if all(isinstance(f, HOOPS) for f in parsed):
                return ProductHoop(parsed)
            if all(isinstance(f, BOUNDED) for f in parsed):
                return ProductAlgebra(parsed)
            raise MalformedInputError(
                "product: 'factors' must be all semihoops or all bounded algebras"
            )
        raise MalformedInputError(f"unknown kind {kind!r}")
    if "size" in obj:
        _field(obj, "size", "algebra", int)
    kind = FiniteLMonoid if "add" in obj else FiniteMTL if "bot" in obj or "join" in obj else FiniteSemihoop
    fields = kind.TABLES + kind.CONSTANTS
    _require_fields(obj, {"size", *fields}, kind.KIND)
    return kind(**{f: obj[f] for f in fields}, size=obj["size"])


def window_size(A, window: int) -> int:
    """The elements A spans at ``window``, counted without building them:
    (window+1)^min(rank, 12) for a cone, as every larger rank is over the
    ceiling too, twice that for a rotation, and the factors' product for a product."""
    if isinstance(A, SymbolicConeHoop):
        return (window + 1) ** min(A.rank, MAX_WINDOW_ELEMENTS.bit_length())
    if isinstance(A, SymbolicPerfectAlgebra):
        return 2 * window_size(A.core, window)
    return prod(window_size(f, window) for f in A.factors) if hasattr(A, "factors") else A.size


def _algebra(path: str, window: int | None):
    """The algebra in ``path``, refused before any carrier is built when it
    spans more than MAX_WINDOW_ELEMENTS at ``window`` (at 1 for a verb with none)."""
    A = algebra_from_json(_load(path))
    n = window_size(A, window or 1)
    if n > MAX_WINDOW_ELEMENTS:
        field = "factors" if hasattr(A, "factors") else "rank" if hasattr(A, "rank") else "size"
        at = f" at --window {window}" if window else ""
        raise MalformedInputError(f"{path}: {field!r} spans more than {MAX_WINDOW_ELEMENTS} elements{at}")
    return A


def algebra_to_json(A) -> dict[str, Any]:
    if isinstance(A, TableAlgebra):
        out: dict[str, Any] = {"size": A.size}
        out.update((op, getattr(A, f"{op}_table").tolist()) for op in A.TABLES)
        out.update((name, getattr(A, name)) for name in A.CONSTANTS)
        return out
    if isinstance(A, SymbolicPerfectAlgebra):
        return {"kind": "rotation", "rank": A.rank}
    if isinstance(A, SymbolicConeHoop):
        return {"kind": "cone", "rank": A.rank}
    if isinstance(A, (ProductAlgebra, ProductHoop)):
        return {"kind": "product", "factors": [algebra_to_json(f) for f in A.factors]}
    raise MalformedInputError(f"no file form for {type(A).__name__}")


def state_from_json(obj: Any, hoop):
    if not isinstance(obj, dict):
        raise MalformedInputError("state file must hold a JSON object")
    if "lambda" in obj:
        _require_fields(obj, {"lambda"}, "state")
        return weighted_state(hoop, _lambda_field(obj, "state"))
    return TableState(_element_table(obj, hoop, "state"))


def state_to_json(w) -> dict[str, Any]:
    if isinstance(w, TableState):
        return {str(k): format_exact(v) for k, v in sorted(w.values.items())}
    if isinstance(w, (ConeState, ProductState)):
        return {"lambda": [format_exact(v) for v in state_weights(w)]}
    raise MalformedInputError(f"no file form for {type(w).__name__}")


def hyperstate_from_json(obj: Any, A, window: int):
    """Either form; the measure form returns the map built from (p, w),
    whose validation verdict the caller is responsible for."""
    from .states import FormulaHyperstate, ProbabilityMeasure, TableHyperstate

    if not isinstance(obj, dict):
        raise MalformedInputError("hyperstate file must hold a JSON object")
    if "table" in obj:
        _require_fields(obj, {"table"}, "hyperstate")
        if not isinstance(A, TableAlgebra):
            raise MalformedInputError("the table form needs an algebra given by tables")
        table = _field(obj, "table", "hyperstate", dict)
        return TableHyperstate(_element_table(table, A, "table", parse_dual))
    if "measure" not in obj:
        raise MalformedInputError("hyperstate: missing field 'measure'")
    extra = obj.keys() - {"measure", "lambda"}
    if extra:
        raise MalformedInputError(f"hyperstate: unexpected field {sorted(extra)[0]!r}")
    sk = boolean_skeleton(A, window)
    weights = {
        _index_key(k, "measure"): _exact(v, f"measure[{k}]")
        for k, v in _field(obj, "measure", "hyperstate", dict).items()
    }
    p = ProbabilityMeasure(sk, weights)
    w = weighted_state(radical(A, window).hoop, _lambda_field(obj, "hyperstate"))
    return FormulaHyperstate(A, p, w, window)


def hyperstate_to_json(s, A) -> dict[str, Any]:
    from .states import TableHyperstate

    if isinstance(s, TableHyperstate):
        return {"table": {A.token(k): format_dual(v) for k, v in sorted(s.items())}}
    out: dict[str, Any] = {
        "measure": {str(i): format_exact(v) for i, v in enumerate(s.measure.weights) if v != 0}
    }
    lam = state_weights(s.state)
    if lam:
        out["lambda"] = [format_exact(v) for v in lam]
    return out


# ---------------------------------------------------------------------------
# Run reports


@dataclass
class RunReport:
    command: list[str]
    subject: str
    checks: list[Check] = field(default_factory=list)
    result: dict[str, Any] = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def exit_status(self) -> int:
        return 0 if all(c.passed for c in self.checks if c.required) else 1

    def render(self, fmt: str) -> str:
        if fmt == "tsv":
            lines = []
            for c in self.checks:
                witness = (
                    json.dumps(c.witnesses[0], sort_keys=True, separators=(",", ":"))
                    if c.witnesses
                    else ""
                )
                lines.append(f"{c.axiom}\t{'pass' if c.passed else 'fail'}\t{witness}")
            return "\n".join(lines) + ("\n" if lines else "")
        return canonical_json(
            {
                "command": self.command,
                "subject": self.subject,
                "ok": self.exit_status == 0,
                "checks": [c.to_json() for c in self.checks],
                "result": self.result,
                "elapsed_ms": self.elapsed_ms,
            }
        )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object whose keys are distinct; json.loads would keep the last."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedInputError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # bad JSON, a repeated key, or an integer too long to convert
        raise MalformedInputError(f"{path}: {exc}") from exc
    except RecursionError:
        raise MalformedInputError(f"{path}: JSON nested too deeply") from None


def _bounded(A, verb: str):
    if not isinstance(A, BOUNDED):
        raise MalformedInputError(f"{verb} expects a bounded algebra file")
    return A


def _describe(A) -> dict[str, Any]:
    if isinstance(A, (SymbolicPerfectAlgebra, SymbolicConeHoop)):
        return {"kind": type(A).__name__, "rank": A.rank}
    if isinstance(A, (ProductAlgebra, ProductHoop)):
        return {"kind": type(A).__name__, "factors": [_describe(f) for f in A.factors]}
    return {"kind": type(A).__name__, "size": A.size}


# ---------------------------------------------------------------------------
# Verbs


def _run_validate(args) -> tuple[str, list[Check], dict]:
    A = _algebra(args.algebra, args.window)
    if args.ibp0 and not isinstance(A, BOUNDED):
        raise MalformedInputError("--ibp0 applies to bounded algebra files")
    if isinstance(A, FiniteLMonoid):
        report = validate_lmonoid(A)
    elif isinstance(A, HOOPS):
        report = validate_semihoop(A, args.window)
    elif args.ibp0:
        report = validate_ibp0(A, args.window)
    else:
        report = validate_mtl(A, args.window)
    result = _describe(A)
    if report.flags:
        result["flags"] = dict(sorted(report.flags.items()))
    return report.subject, report.checks, result


def _run_skeleton(args) -> tuple[str, list[Check], dict]:
    A = _bounded(_algebra(args.algebra, args.window), "skeleton")
    sk = boolean_skeleton(A, args.window)
    result = {
        "elements": [A.token(b) for b in sk.elements],
        "atoms": [A.token(b) for b in sk.atoms],
    }
    return sk.report.subject, sk.report.checks, result


def _run_radical(args) -> tuple[str, list[Check], dict]:
    A = _bounded(_algebra(args.algebra, args.window), "radical")
    rad = radical(A, args.window)
    result = {
        "elements": [A.token(x) for x in rad.elements],
        "hoop": _describe(rad.hoop),
        "flags": dict(sorted(rad.report.flags.items())),
    }
    return rad.report.subject, rad.report.checks, result


def _run_decompose(args) -> tuple[str, list[Check], dict]:
    A = _bounded(_algebra(args.algebra, args.window), "decompose")
    require_ibp0(A, args.window)
    o, elems = tables(A), A.carrier(args.window)
    # decompose raises unless every b and c recompose to their a
    b, c = decompose(A, elems, o)
    rows = [{"x": A.token(a), "b": A.token(x), "c": A.token(y)} for a, x, y in zip(elems, o.decode(b), o.decode(c))]
    check = verdict("element-decomposition", [], mode=scan_mode(A, args.window), note=f"{len(rows)} elements")
    return "decomposition", [check], {"elements": rows}


def _run_grothendieck(args) -> tuple[str, list[Check], dict]:
    M = _algebra(args.monoid, None)
    if not isinstance(M, FiniteLMonoid):
        raise MalformedInputError("grothendieck expects a lattice monoid file")
    report = validate_lmonoid(M)
    result: dict[str, Any] = {}
    if report.ok:
        K, h = k_envelope(M)
        result = envelope_summary(K)
        result["representatives"] = [K.token(e) for e in K.representatives()]
    return "envelope", report.checks, result


def _run_states(args) -> tuple[str, list[Check], dict]:
    H = _algebra(args.hoop, args.window)
    if not isinstance(H, HOOPS):
        raise MalformedInputError("states expects a semihoop file")
    report = validate_semihoop(H, args.window)
    checks = list(report.checks)
    if args.state is None:
        if H.is_finite:
            found = enumerate_states_finite(H)
            result: dict[str, Any] = {
                "count": len(found),
                "states": [state_to_json(w) for w in found],
            }
        else:
            result = {
                "rank": symbolic_rank(H),
                "note": "states are the nonnegative weight vectors; pass a state file to check one",
            }
        return "states", checks, result
    w = state_from_json(_load(args.state), H)
    if report.ok:
        checks += validate_state(H, w, args.window).checks
        checks += state_properties(H, w, args.window).checks
    return "state", checks, {"state": state_to_json(w)}


def _run_hyperstate(args) -> tuple[str, list[Check], dict]:
    from .states import hyperstate_properties, split_hyperstate, validate_hyperstate

    A = _bounded(_algebra(args.algebra, args.window), "hyperstate")
    s = hyperstate_from_json(_load(args.hyperstate), A, args.window)
    values = {
        A.token(a): format_dual(s.raw_value(a)) for a in A.carrier(args.window)
    }

    if args.action == "validate":
        report = validate_hyperstate(A, s, args.window)
        return "hyperstate", report.checks, {"values": values}

    if args.action == "properties":
        report = hyperstate_properties(A, s, args.window)
        return "hyperstate-properties", report.checks, {"values": values}

    report = validate_hyperstate(A, s, args.window)
    if not report.ok:
        return "split", report.checks, {"values": values}
    split = split_hyperstate(A, s, args.window)
    check = verdict(
        "split-identity",
        [],
        mode=scan_mode(A, args.window),
        note=f"{split.scanned} elements, zero residual",
    )
    result = {
        "p": {A.token(b): format_exact(split.p.value(b)) for b in split.p.skeleton.atoms},
        "w": state_to_json(split.w),
        "residuals": dict.fromkeys(values, "0+e0"),
    }
    return "split", [check], result


FIXTURES = ("fixture-lukasiewicz-3", "fixture-ragged-times", "fixture-deficient-measure")


def corpus_files() -> dict[str, dict[str, Any]]:
    """Every corpus object in canonical file form, plus the planted failures.

    The fixtures are deliberately broken: the Lukasiewicz chain sits outside
    the variety (validate --ibp0 must exit 1), the ragged table must be
    rejected at parse time (exit 2), and the deficient measure joins to a map
    violating the boundary axioms (hyperstate validate must exit 1).
    """
    from .corpus import hyperstate_product_corpus, ibp0_corpus, lmonoid_corpus, lukasiewicz_mtl, semihoop_corpus

    files: dict[str, dict[str, Any]] = {}
    for name, M in lmonoid_corpus().items():
        files[f"lmonoid-{name}.json"] = algebra_to_json(M)
    for name, H in semihoop_corpus().items():
        files[f"hoop-{name}.json"] = algebra_to_json(H)
    files["hoop-cone-1.json"] = {"kind": "cone", "rank": 1}
    files["hoop-cone-2.json"] = {"kind": "cone", "rank": 2}
    for name, A in ibp0_corpus().items():
        files[f"algebra-{name}.json"] = algebra_to_json(A)
    for name, A in hyperstate_product_corpus().items():
        files[f"product-{name.replace('*', 'x')}.json"] = algebra_to_json(A)
    files["state-cone-1.json"] = {"lambda": ["2"]}
    files["hyperstate-chang-1.json"] = {"measure": {"0": "1"}, "lambda": ["2"]}

    files["fixture-lukasiewicz-3.json"] = algebra_to_json(lukasiewicz_mtl(3))
    ragged = algebra_to_json(lukasiewicz_mtl(3))
    ragged["times"] = ragged["times"][:2]
    files["fixture-ragged-times.json"] = ragged
    files["fixture-deficient-measure.json"] = {"measure": {"0": "1/2"}, "lambda": ["1"]}
    return files


def _run_corpus(args) -> tuple[str, list[Check], dict]:
    files = corpus_files()
    fixtures = [f"{n}.json" for n in FIXTURES]
    if args.out is None:
        return "corpus", [], {"files": sorted(files), "fixtures": fixtures}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, obj in files.items():
        (out / name).write_text(canonical_json(obj))
    return "corpus", [], {
        "written": sorted(files),
        "fixtures": fixtures,
        "directory": str(out),
    }


# ---------------------------------------------------------------------------
# Entry point


def _parser() -> argparse.ArgumentParser:
    def window(text: str) -> int:
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError("window must be at least 1")
        return n

    parser = argparse.ArgumentParser(
        prog="ellstates",
        description="Exact validators and constructions for lattice-ordered algebras and their states.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, handler, help_text: str, windowed: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if windowed:
            p.add_argument("--window", type=window, default=8, metavar="N",
                           help="carrier bound for symbolic algebras (default 8)")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        return p

    p = add("validate", _run_validate, "check the axioms of an algebra file")
    p.add_argument("algebra")
    p.add_argument("--ibp0", action="store_true",
                   help="also require the doubling law and involution")

    p = add("skeleton", _run_skeleton, "complemented elements and atoms")
    p.add_argument("algebra")

    p = add("radical", _run_radical, "elements above their negation, as a semihoop")
    p.add_argument("algebra")

    p = add("decompose", _run_decompose, "skeleton/radical coordinates of every element")
    p.add_argument("algebra")

    p = add("grothendieck", _run_grothendieck, "envelope group of a lattice monoid",
            windowed=False)
    p.add_argument("monoid")

    p = add("states", _run_states, "enumerate or check states of a semihoop")
    p.add_argument("hoop")
    p.add_argument("state", nargs="?", default=None)

    p = add("hyperstate", _run_hyperstate, "validate, split, or test a hyperstate")
    p.add_argument("action", choices=("validate", "split", "properties"))
    p.add_argument("algebra")
    p.add_argument("hyperstate")

    p = add("corpus", _run_corpus, "list or write the canonical corpus files",
            windowed=False)
    p.add_argument("--out", default=None, metavar="DIR")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        subject, checks, result = args.handler(args)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        checks = [verdict("precondition", [{"error": str(exc)}])]
        subject, result = "precondition", {}
    except InternalConsistencyError as exc:
        checks = [verdict("consistency", [{"error": str(exc)}])]
        subject, result = "consistency", {}
    report = RunReport(
        command=argv,
        subject=subject,
        checks=checks,
        result=result,
        elapsed_ms=int((time.monotonic() - started) * 1000),
    )
    sys.stdout.write(report.render(args.format))
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
