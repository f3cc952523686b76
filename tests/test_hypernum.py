"""Exact arithmetic on the lexicographic unit interval."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ellstates.hypernum import (
    DUAL_ONE,
    DUAL_ZERO,
    DualRational,
    Ordering,
    dual,
    format_dual,
    format_exact,
    interval_defect,
    lex_compare,
    mv_neg,
    mv_oplus,
    mv_otimes,
    parse_dual,
    parse_exact,
    parts,
)

F = Fraction


def frac(num=st.integers(-40, 40), den=st.integers(1, 24)):
    return st.builds(F, num, den)


@st.composite
def duals(draw):
    std = draw(st.fractions(min_value=0, max_value=1, max_denominator=24))
    inf = draw(frac())
    if std == 0 and inf < 0:
        inf = -inf
    if std == 1 and inf > 0:
        inf = -inf
    return DualRational(std, inf)


def test_constructor_rejects_values_outside_interval():
    with pytest.raises(ValueError):
        dual("3/2")
    with pytest.raises(ValueError):
        dual(0, -1)
    with pytest.raises(ValueError):
        dual(1, "1/5")
    # boundary values that are fine
    assert dual(0, 0) == DUAL_ZERO
    assert dual(0, 7).inf == 7
    assert dual(1, -7).inf == -7


def test_lex_compare_examples():
    assert lex_compare(dual("1/2", 5), dual("1/2", 5)) is Ordering.EQ
    assert lex_compare(dual("1/2", -100), dual("1/3", 100)) is Ordering.GT
    assert lex_compare(dual("1/2", 1), dual("1/2", 0)) is Ordering.GT


@given(st.lists(duals(), min_size=2, max_size=6))
def test_order_is_the_order_of_std_inf_tuples(xs):
    key = lambda v: (v.std, v.inf)
    assert [key(v) for v in sorted(xs)] == sorted(map(key, xs))
    for x in xs:
        for y in xs:
            kx, ky = key(x), key(y)
            assert (x < y, x <= y, x > y, x >= y, x == y) == (kx < ky, kx <= ky, kx > ky, kx >= ky, kx == ky)
            assert lex_compare(x, y) is (Ordering.LT if kx < ky else Ordering.EQ if kx == ky else Ordering.GT)


# Numerators and denominators past int64 and past the 4300-digit limit of
# int-to-string conversion, next to small ones.  Hypothesis prints what it
# draws, which such integers refuse, so it draws an offset and a scale name.
SCALES = {"small": 0, "past-int64": 2**63, "past-4300-digits": 10**4400}
WIDE = st.tuples(st.integers(0, 2**40), st.sampled_from(sorted(SCALES)))


def wide(drawn) -> int:
    offset, scale = drawn
    return SCALES[scale] + offset


def wide_dual(num, rest, inf, den, sign) -> DualRational:
    num, rest, inf = wide(num), wide(rest), sign * F(wide(inf), wide(den) + 1)
    std = F(num, num + rest) if num + rest else F(0)
    return DualRational(std, -inf if interval_defect(std, inf) else inf)


def dataclass_order(x, y) -> Ordering:
    return Ordering.LT if x < y else Ordering.EQ if x == y else Ordering.GT


WIDE_DUAL = st.tuples(WIDE, WIDE, WIDE, WIDE, st.sampled_from([-1, 1]))


@given(WIDE_DUAL, WIDE_DUAL)
def test_lex_compare_is_the_dataclass_order_on_wide_values(dx, dy):
    x, y = wide_dual(*dx), wide_dual(*dy)
    pairs = [(x, y), (y, x), (x, x)]
    if not interval_defect(x.std, y.inf):
        pairs.append((x, DualRational(x.std, y.inf)))
    for a, b in pairs:
        assert lex_compare(a, b) is dataclass_order(a, b)


def reference_format(std: Fraction, inf: Fraction) -> str:
    """format_dual written with str(Fraction), and through Decimal past the
    digit limit of int-to-string conversion."""
    def text(q: Fraction) -> str:
        try:
            return str(q)
        except ValueError:
            num = str(Decimal(q.numerator))
            return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"

    return f"{text(std)}+e{text(inf)}"


def reference_parse(text: str):
    head, _, tail = text.partition("+e")
    return DualRational(Fraction(head), Fraction(tail))


def reference_mv(x, y) -> dict:
    """mv_oplus, mv_otimes and mv_neg on (std, inf) pairs of Fractions."""
    r, s = x[0] + y[0], x[1] + y[1]
    return {
        "oplus": min((r, s), (F(1), F(0))),
        "otimes": max((r - 1, s), (F(0), F(0))),
        "neg": (1 - x[0], -x[1]),
    }


@given(WIDE_DUAL, WIDE_DUAL)
def test_integer_form_agrees_with_fraction_pairs(dx, dy):
    x, y = wide_dual(*dx), wide_dual(*dy)
    refs = {x: (x.std, x.inf), y: (y.std, y.inf)}
    for a in (x, y):
        ref = refs[a]
        same = DualRational(*ref)
        assert same == a and hash(same) == hash(a) and mv_neg(mv_neg(a)) == a
        text = format_dual(a)
        assert text == reference_format(*ref)
        assert outcome(parse_dual, text) == outcome(reference_parse, text)
        for b in (x, y):
            kx, ky = ref, refs[b]
            assert (a < b, a <= b, a > b, a >= b, a == b) == (kx < ky, kx <= ky, kx > ky, kx >= ky, kx == ky)
            assert a != b or hash(a) == hash(b)
            got, want = {"oplus": mv_oplus(a, b), "otimes": mv_otimes(a, b), "neg": mv_neg(a)}, reference_mv(kx, ky)
            assert {k: parts(v) for k, v in got.items()} == want
            assert got == {k: DualRational(*v) for k, v in want.items()}


def test_repr_and_str_keep_the_field_form():
    x = dual("2/4", -3)
    assert repr(x) == "DualRational(std=Fraction(1, 2), inf=Fraction(-3, 1))"
    assert str(x) == "1/2+e-3" and str(DUAL_ZERO) == "0+e0"
    assert (x.std, x.inf) == (F(1, 2), F(-3)) and type(x.std) is type(x.inf) is Fraction


def test_parse_exact_refuses_huge_exponents():
    assert parse_exact("1e3") == 1000 and parse_exact("2.5E-2") == F(1, 40)
    assert parse_dual("0+e5000") == dual(0, 5000)
    for text in ("1e999999999", "1e-4301", "1.5E+4301"):
        with pytest.raises(ValueError, match="exponent"):
            parse_exact(text)
    with pytest.raises(ValueError, match="exponent"):
        parse_dual("1e999999999+e0")
    with pytest.raises(ValueError, match="exponent"):
        parse_dual("1/2+e1e999999999")


def reference_defect(std: Fraction, inf: Fraction) -> str:
    """interval_defect written with Fraction comparisons against ints."""
    if not 0 <= std <= 1:
        return f"standard part {format_exact(std)} outside [0, 1]"
    if std == 0 and inf < 0:
        return f"0 + eps*{format_exact(inf)} lies below (0, 0)"
    if std == 1 and inf > 0:
        return f"1 + eps*{format_exact(inf)} lies above (1, 0)"
    return ""


# Standard parts at and around the ends of [0, 1], and anywhere else.
EDGE_STDS = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 7), F(8, 7), F(6, 7), F(1, 7)])


@given(st.one_of(EDGE_STDS, frac()), st.one_of(st.sampled_from([F(0)]), frac()))
def test_interval_defect_matches_the_fraction_comparisons(std, inf):
    for sign in (1, -1):
        assert interval_defect(std, sign * inf) == reference_defect(std, sign * inf)


def test_interval_defect_reads_ints_and_huge_values():
    for std, inf in ((0, -1), (1, 1), (0, 0), (1, 0), (2, 0), (-1, 5)):
        assert interval_defect(std, inf) == reference_defect(F(std), F(inf))
    big = F(10**30 + 1, 10**30)
    assert interval_defect(big, F(0)) == reference_defect(big, F(0)) != ""
    assert interval_defect(F(1), F(1, 10**40)) == "1 + eps*1/" + "1" + "0" * 40 + " lies above (1, 0)"


def outcome(parse, text: str):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# Integer and quotient literals, which parse_exact reads through int, and
# short texts over their alphabet with the other characters Fraction reads.
LITERALS = st.one_of(
    st.integers(-(10**40), 10**40).map(str),
    st.builds("{}/{}".format, st.integers(-(10**40), 10**40), st.integers(0, 10**40)),
    st.text(alphabet="0123456789-+/ ._\u0663", max_size=8),
)


@given(LITERALS)
def test_parse_exact_agrees_with_fraction(text):
    assert outcome(parse_exact, text) == outcome(Fraction, text)


def test_parse_exact_keeps_fractions_errors_past_the_digit_limit():
    for text in ("9" * 5000, "9" * 5000 + "/3", "3/" + "9" * 5000, "-1/0", "--3", "3/", "/3"):
        assert outcome(parse_exact, text) == outcome(Fraction, text)


def test_oplus_examples():
    assert mv_oplus(dual(1, -2), dual(0, 3)) == DUAL_ONE
    x = dual("2/5", "1/3")
    assert mv_oplus(DUAL_ZERO, x) == x
    assert mv_oplus(dual("1/3", 1), dual("1/3", -2)) == dual("2/3", -1)


def test_otimes_examples():
    assert mv_otimes(dual("1/2", 1), dual("1/2", 1)) == dual(0, 2)
    x = dual("2/5", "-1/3")
    assert mv_otimes(DUAL_ONE, x) == x
    assert mv_otimes(dual("1/4"), dual("1/4")) == DUAL_ZERO


def test_neg_examples():
    assert mv_neg(dual("1/2", 3)) == dual("1/2", -3)
    assert mv_neg(DUAL_ONE) == DUAL_ZERO
    assert mv_neg(dual(0, 2)) == dual(1, -2)


def test_parts_examples():
    assert parts(dual(1, -7)) == (F(1), F(-7))
    assert parts(DUAL_ZERO) == (F(0), F(0))
    assert parts(dual("2/5", "1/3")) == (F(2, 5), F(1, 3))


def test_format_and_parse():
    assert format_dual(dual("1/2", "-3/4")) == "1/2+e-3/4"
    assert parse_dual("1/2+e-3/4") == dual("1/2", "-3/4")
    assert format_dual(DUAL_ONE) == "1+e0"
    with pytest.raises(ValueError):
        parse_dual("1/2")
    with pytest.raises(ValueError):
        parse_dual("+e3")
    with pytest.raises(ValueError):
        parse_dual("1/0+e1")


@given(duals())
def test_roundtrip_is_bit_exact(x):
    y = parse_dual(format_dual(x))
    assert y == x
    assert parts(y) == parts(x)


@given(duals(), duals())
def test_oplus_otimes_commute(x, y):
    assert mv_oplus(x, y) == mv_oplus(y, x)
    assert mv_otimes(x, y) == mv_otimes(y, x)


@given(duals(), duals(), duals())
def test_oplus_otimes_associate(x, y, z):
    assert mv_oplus(mv_oplus(x, y), z) == mv_oplus(x, mv_oplus(y, z))
    assert mv_otimes(mv_otimes(x, y), z) == mv_otimes(x, mv_otimes(y, z))


@given(duals(), duals())
def test_de_morgan(x, y):
    assert mv_neg(mv_oplus(x, y)) == mv_otimes(mv_neg(x), mv_neg(y))


@given(duals())
def test_neg_is_involutive(x):
    assert mv_neg(mv_neg(x)) == x


@given(duals(), duals(), duals())
def test_order_compatible_with_oplus(x, y, z):
    if lex_compare(x, y) is not Ordering.GT:
        assert lex_compare(mv_oplus(x, z), mv_oplus(y, z)) is not Ordering.GT


@given(duals(), duals())
def test_results_stay_normalised(x, y):
    for v in (mv_oplus(x, y), mv_otimes(x, y), mv_neg(x)):
        assert 0 <= v.std <= 1
        if v.std == 0:
            assert v.inf >= 0
        if v.std == 1:
            assert v.inf <= 0
