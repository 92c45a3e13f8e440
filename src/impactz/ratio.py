"""Exact non-negative rational values and their decimal rendering.

All indicator values are carried as canonical reduced fractions so that
ordering comparisons are exact; floats appear only at the display boundary.
"""

from __future__ import annotations

from fractions import Fraction

_MAX_PLACES = 1000  # bounds the digits, and so the work, of each value


class Ratio(Fraction):
    """A canonical reduced fraction, numerator >= 0 and denominator > 0.

    Inherits exact comparison from Fraction (cross-multiplication on big
    integers), so ordering never loses precision.
    """

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self.numerator < 0:
            raise ValueError("Ratio must be non-negative, got "  # as str(self)
                             + format_exact(self).removesuffix("/1"))
        return self

    def __repr__(self) -> str:
        return (f"Ratio({_long_str(self.numerator)}, "
                f"{_long_str(self.denominator)})")


def _long_str(n: int | str) -> str:
    """``str(n)``, also for an int past CPython's int-to-str digit limit,
    which ``str`` refuses with a ``ValueError``; ``Decimal`` converts
    exactly and leaves the interpreter's limit alone."""
    try:
        return str(n)
    except ValueError:  # past the digit limit
        import decimal
        return str(decimal.Decimal(n))


def _fraction_text(num: int, den: int) -> str:
    """``num/den`` as :func:`format_exact` writes it."""
    try:
        return f"{num}/{den}"
    except ValueError:  # past the digit limit
        return f"{_long_str(num)}/{_long_str(den)}"


def _decimal_text(num: int, den: int, places: int) -> str:
    """``num/den`` as :func:`to_decimal` writes it."""
    q, rem = divmod(num * 10**places, den)
    if 2 * rem >= den:
        q += 1
    digits = _long_str(q)
    if places == 0:
        return digits
    digits = digits.rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def format_exact(r: Fraction) -> str:
    """Render as ``num/den``, always with an explicit denominator."""
    return _fraction_text(r.numerator, r.denominator)


def to_decimal(r: Fraction, places: int = 2) -> str:
    """Fixed-point decimal string, rounded half-up.

    Half-up (not banker's) rounding: 17/8 at two places is "2.13".
    ``places`` is an ``int`` from 0 to :data:`_MAX_PLACES` (1000); any
    other value, a ``bool`` or a ``float`` too, is a ``ValueError``.
    """
    if type(places) is not int or not 0 <= places <= _MAX_PLACES:
        raise ValueError(f"places must be an int from 0 to {_MAX_PLACES}")
    return _decimal_text(r.numerator, r.denominator, places)
