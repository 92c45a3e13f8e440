from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from impactz.ratio import Ratio, _decimal_text, format_exact, to_decimal


def test_canonical_reduction():
    r = Ratio(60, 45)
    assert (r.numerator, r.denominator) == (4, 3)
    assert Ratio(0, 7) == Ratio(0)
    assert Ratio(120, 85) == Ratio(24, 17)


def test_negative_rejected():
    with pytest.raises(ValueError):
        Ratio(-1, 2)
    with pytest.raises(ValueError):
        Ratio(1, -2)


def test_ordering_of_published_reversal_values():
    # the orderings the reversal examples hinge on
    assert Ratio(60, 45) < Ratio(120, 85)
    assert Ratio(13, 6) < Ratio(9, 4)
    assert Ratio(17, 8) > Ratio(7, 4)


@given(a=st.integers(0, 10**9), b=st.integers(1, 10**9),
       c=st.integers(0, 10**9), d=st.integers(1, 10**9))
def test_order_agrees_with_cross_multiplication(a, b, c, d):
    assert (Ratio(a, b) < Ratio(c, d)) == (a * d < c * b)


def test_to_decimal_half_up():
    assert to_decimal(Ratio(4, 3), 2) == "1.33"
    assert to_decimal(Ratio(24, 17), 2) == "1.41"
    assert to_decimal(Ratio(17, 8), 2) == "2.13"  # 2.125 rounds up
    assert to_decimal(Ratio(13, 6), 2) == "2.17"
    assert to_decimal(Ratio(3), 2) == "3.00"
    assert to_decimal(Ratio(1, 2), 0) == "1"
    assert to_decimal(Ratio(5, 1000), 2) == "0.01"
    assert to_decimal(Ratio(1, 3), 5) == "0.33333"


def test_to_decimal_rejects_negative_places():
    with pytest.raises(ValueError):
        to_decimal(Ratio(1, 2), -1)


def test_to_decimal_places_bound_is_inclusive():
    assert to_decimal(Ratio(2, 3), 0) == "1"
    assert to_decimal(Ratio(2, 3), 1000) == "0." + "6" * 999 + "7"
    for places in (-1, 1001, 10**5000, True, False, 2.0, "2", None):
        with pytest.raises(ValueError) as exc_info:
            to_decimal(Ratio(1, 3), places)
        assert str(exc_info.value) == "places must be an int from 0 to 1000"


_BIG = 10**4301  # past CPython's 4300-digit int-to-str limit


def test_ratio_text_past_the_digit_limit():
    digits = "1" + "0" * 4301
    assert repr(Ratio(_BIG)) == f"Ratio({digits}, 1)"
    assert repr(Ratio(1, _BIG)) == f"Ratio(1, {digits})"
    assert repr(Ratio(17, 8)) == "Ratio(17, 8)"
    for value, text in ((-_BIG, f"-{digits}"), (Fraction(-1, _BIG),
                                                 f"-1/{digits}"),
                        (-3, "-3"), (Fraction(-3, 4), "-3/4")):
        with pytest.raises(ValueError) as exc_info:
            Ratio(value)
        assert str(exc_info.value) == f"Ratio must be non-negative, got {text}"


@given(num=st.integers(0, 10**6), den=st.integers(1, 10**6),
       places=st.integers(0, 8))
@example(num=10**4301 // 3, den=7, places=3)  # past the int-to-str limit
def test_to_decimal_matches_fraction_rounding(num, den, places):
    # independent oracle: shift, add half, floor
    scaled = Fraction(num, den) * 10**places + Fraction(1, 2)
    expected_digits = scaled.numerator // scaled.denominator
    # the public Ratio form and the integer form, unreduced too
    for got in (to_decimal(Ratio(num, den), places),
                _decimal_text(num, den, places),
                _decimal_text(2 * num, 2 * den, places)):
        # Decimal reads and converts digits of any length exactly
        assert Decimal(got.replace(".", "")) == Decimal(expected_digits)
        assert "." not in got if places == 0 else got[-places - 1] == "."


def test_format_exact_always_shows_denominator():
    assert format_exact(Ratio(3)) == "3/1"
    assert format_exact(Ratio(60, 45)) == "4/3"
