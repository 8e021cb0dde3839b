"""Exact-rational helpers shared across the package.

Every statistic in this package is a ratio of event counts and is kept as
a ``fractions.Fraction`` end to end; floats appear only when a report is
rendered for humans. ``None`` stands for an undefined value (a zero
denominator somewhere upstream) and propagates through ``sub``.
"""

from __future__ import annotations

from fractions import Fraction

from .logs import InputError

UNDEFINED_TEXT = "UNDEFINED"


def as_fraction(value) -> Fraction:
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
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", integer, or decimal text into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


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

