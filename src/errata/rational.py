"""Exact-rational helpers shared across the package.

Every statistic in this package is a ratio of event counts and is kept as
a ``fractions.Fraction`` end to end; floats appear only when a report is
rendered for humans. ``None`` stands for an undefined value (a zero
denominator somewhere upstream) and propagates through ``sub``.
"""

from __future__ import annotations

import re
from fractions import Fraction

UNDEFINED_TEXT = "UNDEFINED"

# The most decimal digits the numerator or the denominator of a parsed
# rational may have. Python writes an integer of more than 4300 digits as
# text only after ``sys.set_int_max_str_digits``, so a report could not
# print a much longer one.
MAX_DIGITS = 1000
_LIMIT = 10 ** MAX_DIGITS
# A rational's text: an optional sign, ASCII digits, then "/digits" or
# ".digits" or nothing.
_RATIONAL = re.compile(r"[-+]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def as_fraction(value, name: str = "value") -> Fraction:
    """Coerce a config value (int, str, or float) to an exact Fraction.

    Floats are read through their shortest decimal repr, so ``0.9``
    becomes 9/10 rather than its binary expansion.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return parse_rational(value, name)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str, name: str = "value") -> Fraction:
    """Parse "num/den", integer, or decimal text into a Fraction: an
    optional sign, ASCII digits, and an optional "/digits" or ".digits",
    with no blank around them. A value whose numerator or denominator has
    more than ``MAX_DIGITS`` digits is an ``InputError`` that names
    ``name``, the flag or key of the text."""
    from .logs import InputError  # logs imports this module

    if not _RATIONAL.fullmatch(text):
        raise InputError(f"not a rational number: {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"not a rational number: {text!r}") from None
    except ValueError:  # a digit run past int's limit, the grammar's one other failure
        value = None
    if value is None or max(abs(value.numerator), value.denominator) >= _LIMIT:
        raise InputError(
            f"{name}: more than {MAX_DIGITS} digits in the numerator or denominator of {text!r}")
    return value


def format_rational(value: Fraction | None) -> str:
    """Render as "num/den" (always with a denominator), or UNDEFINED."""
    if value is None:
        return UNDEFINED_TEXT
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: Fraction | None, sig: int = 12) -> str:
    """Decimal approximation with ``sig`` significant digits, display only."""
    if value is None:
        return UNDEFINED_TEXT
    return f"{value.numerator / value.denominator:.{sig}g}"


def sub(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    """a − b, or None (undefined) when either operand is undefined."""
    return None if a is None or b is None else a - b

