"""Complex numbers with exact rational real and imaginary parts, and the
text codec of every exact value the package writes or reads.

str(int), int(str) and Fraction(str) refuse integers past
sys.get_int_max_str_digits() digits; when they raise, the codec converts
the high and low halves of the digits apart and joins them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["CQ", "as_cq", "value_conj", "exact_magnitude", "exact_fraction", "exact_value",
           "int_text", "text_int", "fraction_text", "fraction_repr", "parse_fraction"]

_INT_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*")
_FRACTION_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def int_text(v: int) -> str:
    """str(v), for an int of any size."""
    try:
        return str(v)
    except ValueError:  # bits * 3/20 is about half the digits; the low half zero-filled
        high, low = divmod(abs(v), 10 ** (half := v.bit_length() * 3 // 20))
        return ("-" if v < 0 else "") + int_text(high) + int_text(low).zfill(half)


def text_int(text: str) -> int:
    """int(text), for a decimal integer text of any size."""
    try:
        return int(text)
    except ValueError:
        if _INT_TEXT.fullmatch(text) is None:
            raise
        digits = text.strip()
        high, low = text_int(digits[: -(half := len(digits) // 2)]), text_int(digits[-half:])
        return high * 10**half + (-low if digits[0] == "-" else low)


def fraction_text(num: int, den: int) -> str:
    """"num/den", for ints of any size."""
    return f"{int_text(num)}/{int_text(den)}"


def fraction_repr(x: Fraction) -> str:
    """repr(x), for a Fraction of any size."""
    return f"Fraction({int_text(x.numerator)}, {int_text(x.denominator)})"


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), for numerators and denominators of any size; a zero
    denominator is a ValueError, like any other malformed value."""
    try:
        try:
            return Fraction(text)
        except ValueError:
            match = _FRACTION_TEXT.fullmatch(text)
            if match is None:
                raise
            num, den = match.groups()
            return Fraction(text_int(num), text_int(den or "1"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def exact_fraction(x) -> Fraction:
    """Fraction(x) for an exact rational x; floats are refused."""
    if isinstance(x, float):
        raise TypeError("floating point values are not accepted here")
    return Fraction(x)


@dataclass(frozen=True, slots=True)
class CQ:
    """re + im*i with Fraction parts; immutable and hashable."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        # Fractions are immutable, so a part that is one is kept as it is.
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", exact_fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", exact_fraction(self.im))

    def conj(self) -> "CQ":
        return CQ(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        o = as_cq(other)
        return CQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = as_cq(other)
        return CQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return as_cq(other) - self

    def __neg__(self):
        return CQ(-self.re, -self.im)

    def __mul__(self, other):
        o = as_cq(other)
        return CQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            o = as_cq(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Real values hash like their Fraction, so CQ(3) == 3 hashes alike.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        # str(Fraction) form: "n/d", and "n" for an integer.
        re, im = (fraction_text(*x.as_integer_ratio()).removesuffix("/1")
                  for x in (self.re, self.im))
        if self.im == 0:
            return re
        return f"{re}{'+' if self.im >= 0 else ''}{im}i"

    def __repr__(self):
        return f"CQ({fraction_repr(self.re)}, {fraction_repr(self.im)})"


def as_cq(x) -> CQ:
    if isinstance(x, CQ):
        return x
    if isinstance(x, (int, Fraction)):
        return CQ(Fraction(x))
    if isinstance(x, tuple) and len(x) == 2:
        return CQ(Fraction(x[0]), Fraction(x[1]))
    if isinstance(x, complex):
        raise TypeError("binary floating complex is not exact; pass rationals")
    raise TypeError(f"cannot interpret {type(x).__name__} as a complex rational")


def exact_value(den: int, re: int, im: int | None = None):
    """(re + i im) / den: an int when integral, a Fraction when real, else
    a CQ."""
    if im:
        return CQ(Fraction(re, den), Fraction(im, den))
    if den == 1:
        return re
    v = Fraction(re, den)
    return int(v) if v.denominator == 1 else v


def value_conj(v):
    """Complex conjugate; identity on int and Fraction."""
    if isinstance(v, CQ):
        return v.conj()
    return v


def exact_magnitude(v):
    """|v| when it is itself rational (v real or purely imaginary).

    Magnitudes of properly complex rationals are generally irrational;
    callers that need those should compare squared magnitudes instead.
    """
    if isinstance(v, (int, Fraction)):
        return abs(v)
    if isinstance(v, CQ):
        if v.im == 0:
            return abs(v.re)
        if v.re == 0:
            return abs(v.im)
        raise ValueError(
            "magnitude of a properly complex value is irrational; "
            "use squared magnitudes for exact comparisons"
        )
    raise TypeError(f"unsupported value type {type(v).__name__}")
