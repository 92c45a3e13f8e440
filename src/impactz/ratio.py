"""Exact non-negative rational values and their decimal rendering.

All indicator values are carried as canonical reduced fractions so that
ordering comparisons are exact; floats appear only at the display boundary.
"""

from __future__ import annotations

from fractions import Fraction


class Ratio(Fraction):
    """A canonical reduced fraction, numerator >= 0 and denominator > 0.

    Inherits exact comparison from Fraction (cross-multiplication on big
    integers), so ordering never loses precision.
    """

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self.numerator < 0:
            raise ValueError(f"Ratio must be non-negative, got {self}")
        return self

    def __repr__(self) -> str:
        return f"Ratio({self.numerator}, {self.denominator})"


def _long_str(n: int) -> str:
    """``str(n)``, also for an int past CPython's int-to-str digit limit,
    which ``str`` refuses with a ``ValueError``; ``Decimal`` converts
    exactly and leaves the interpreter's limit alone."""
    import decimal
    return str(decimal.Decimal(n))


def format_exact(r: Fraction) -> str:
    """Render as ``num/den``, always with an explicit denominator."""
    try:
        return f"{r.numerator}/{r.denominator}"
    except ValueError:  # past the digit limit
        return f"{_long_str(r.numerator)}/{_long_str(r.denominator)}"


def to_decimal(r: Fraction, places: int = 2) -> str:
    """Fixed-point decimal string, rounded half-up.

    Half-up (not banker's) rounding: 17/8 at two places is "2.13".
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    scaled = r.numerator * 10**places
    q, rem = divmod(scaled, r.denominator)
    if 2 * rem >= r.denominator:
        q += 1
    try:
        digits = str(q)
    except ValueError:  # past the digit limit
        digits = _long_str(q)
    if places == 0:
        return digits
    digits = digits.rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"
