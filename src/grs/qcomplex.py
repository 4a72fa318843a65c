"""Complex numbers with exact rational real and imaginary parts."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

__all__ = ["CQ", "as_cq", "value_abs2", "value_conj", "value_re_im", "exact_magnitude"]


def int_text(v: int) -> str:
    """str(v), for an int of any size."""
    try:
        return str(v)
    except ValueError:
        return str(Decimal(v))


def _frac(x) -> Fraction:
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
            object.__setattr__(self, "re", _frac(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", _frac(self.im))

    def conj(self) -> "CQ":
        return CQ(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

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
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"

    def __repr__(self):
        return f"CQ({self.re!r}, {self.im!r})"


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


def value_abs2(v) -> Fraction:
    """|v|^2 as an exact rational, for int, Fraction, or CQ values."""
    if isinstance(v, CQ):
        return v.abs2()
    f = Fraction(v)
    return f * f


def value_conj(v):
    """Complex conjugate; identity on int and Fraction."""
    if isinstance(v, CQ):
        return v.conj()
    return v


def value_re_im(v) -> tuple[Fraction, Fraction]:
    if isinstance(v, CQ):
        return (v.re, v.im)
    return (Fraction(v), Fraction(0))


def exact_magnitude(v):
    """|v| when it is itself rational (v real or purely imaginary).

    Magnitudes of properly complex rationals are generally irrational;
    callers that need those should compare squared magnitudes instead.
    """
    if isinstance(v, int):
        return abs(v)
    if isinstance(v, Fraction):
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
