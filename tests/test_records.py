"""The package's records: each builds by keyword and by position, and equality
and hashing hold where callers use them, on cones, envelope elements and checks."""

import pytest

from ellstates._scan import Axiom
from ellstates.cli import RunReport
from ellstates.ibp0 import Decomposition, RadicalView, Skeleton
from ellstates.lmonoid import KElement, SymbolicCancellativeMonoid
from ellstates.reports import Check, MalformedInputError, ValidationReport
from ellstates.semihoop import KGroupState, SymbolicConeHoop
from ellstates.states import SplitResult

# Each record with its fields in constructor order.
RECORDS = {
    Check: ("axiom", "passed", "mode", "witnesses", "violations", "note", "required"),
    ValidationReport: ("subject", "checks", "flags"),
    Axiom: ("name", "arity", "terms", "required"),
    SymbolicConeHoop: ("rank",),
    KElement: ("pos", "neg"),
    KGroupState: ("K", "h", "state"),
    Skeleton: ("elements", "atoms", "report", "pairs", "below", "algebra"),
    RadicalView: ("elements", "hoop", "to_hoop", "from_hoop", "report"),
    Decomposition: ("b", "c"),
    SplitResult: ("p", "w", "scanned"),
    RunReport: ("command", "subject", "checks", "result", "elapsed_ms"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_a_record_builds_by_keyword_and_by_position(record):
    values = {name: 2 if name == "rank" else object() for name in RECORDS[record]}
    for built in (record(**values), record(*values.values())):
        assert {name: getattr(built, name) for name in values} == values


def test_defaults_are_fresh_per_record():
    a, b = Check("x", True), Check("y", False)
    assert (a.mode, a.witnesses, a.violations, a.note, a.required) == ("exhaustive", [], 0, "", True)
    assert a.witnesses is not b.witnesses
    r, s = ValidationReport("one"), ValidationReport("two")
    assert (r.checks, r.flags) == ([], {}) and r.checks is not s.checks and r.flags is not s.flags
    assert Axiom("law", 1, None).required is True


def test_a_cone_equals_and_hashes_by_class_and_rank():
    a, b = SymbolicConeHoop(rank=2), SymbolicConeHoop(2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != SymbolicCancellativeMonoid(rank=2) and a != SymbolicConeHoop(rank=3)
    with pytest.raises(MalformedInputError, match="rank must be at least 1"):
        SymbolicConeHoop(rank=0)


def test_envelope_elements_equal_and_hash_by_their_pair():
    a, b = KElement((1, 0), (0, 2)), KElement(pos=(1, 0), neg=(0, 2))
    assert a == b and hash(a) == hash(b) and a != KElement((1, 0), (0, 1))
    # A NamedTuple: it also equals the plain pair.
    assert a == ((1, 0), (0, 2)) and Decomposition(1, 2) == (1, 2)


def test_checks_equal_by_every_field_and_do_not_hash():
    w = [{"witness": {"x": "0"}}]
    assert Check("a", False, "exhaustive", w, 1) == Check(axiom="a", passed=False, witnesses=list(w), violations=1)
    assert Check("a", True) != Check("a", True, required=False) and Check("a", True) != ("a", True)
    with pytest.raises(TypeError):
        hash(Check("a", True))


def test_merge_adds_prefixed_copies_and_leaves_the_source_alone():
    w = [{"witness": {"x": "0"}}]
    other = ValidationReport("hoop", [Check("a", False, "window-verified (N=8)", w, 3, "n", False), Check("b", True)])
    before = [dict(vars(c)) for c in other.checks]
    report = ValidationReport("radical", [Check("m", True)])
    report.merge(other, prefix="hoop-")
    assert [c.axiom for c in report.checks] == ["m", "hoop-a", "hoop-b"]
    for new, old in zip(report.checks[1:], other.checks):
        assert new is not old and {**vars(new), "axiom": old.axiom} == vars(old)
    assert [vars(c) for c in other.checks] == before
