"""Exact arithmetic in the cubic number field generated by the real root
of m(X) = X^3 + X^2 - 2X - 4, and in its splitting field.

m is irreducible over Q with one real root (alpha0 = 1.658967...) and a
conjugate pair of non-real roots (alpha1, alpha2).  Two element types are
provided:

* ``QAlphaElem`` -- an element p + q*alpha0 + r*alpha0^2 of Q(alpha0),
  the real subfield, held as integer numerators (a, b, c) over one
  positive common denominator d in lowest terms, so that p = a/d,
  q = b/d, r = c/d.  Ring operations, powers of alpha0 and order
  comparisons work on Python ints.  Comparisons are decided by the sign
  of an integer cubic form in (a, b, c) (the "signifier" is that form
  over d^3), so every equality and inequality verdict is reached with
  exact integer arithmetic only; no floating point is ever consulted.

* ``KElem`` -- an element u + v*alpha1 of the full splitting field K,
  with u and v in Q(alpha0).  K = Q(alpha0)(alpha1), and alpha1 is a root
  of m(Y)/(Y - alpha0) = Y^2 + (alpha0 + 1)*Y + (alpha0^2 + alpha0 - 2),
  so alpha1^2 folds back into the pair and every operation in K runs on
  the integer ``QAlphaElem`` arithmetic.  alpha2 = -1 - alpha0 - alpha1.

Division works by multiplying with the alpha1<->alpha2 conjugate to push
the denominator into Q(alpha0), then inverting there through the minimal
polynomial of the divisor: v^3 + s v^2 + t v + u = 0 gives
1/v = (v^2 + s v + t) / (-u).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, NamedTuple

from .qcomplex import _frac

__all__ = [
    "QAlphaElem",
    "KElem",
    "DecimalInterval",
    "RationalInputError",
    "alpha_pow",
    "compare",
    "decimal_approx",
    "k_div",
    "min_poly_of",
    "reduce_poly",
    "signifier",
]

# Total-degree cap for reduce_poly inputs, which are short closed-form
# expressions; it bounds the root powers (and their numerators) built per
# monomial.
MAX_REDUCE_DEGREE = 24


class RationalInputError(ValueError):
    """Raised when an operation needs a non-rational field element."""


@dataclass(frozen=True, init=False)
class QAlphaElem:
    """p + q*alpha0 + r*alpha0^2 with rational p, q, r.

    Held as (a + b*alpha0 + c*alpha0^2)/d with integers a, b, c and d > 0,
    gcd(a, b, c, d) = 1; equality and hash come from these four ints.
    """

    _ints: tuple[int, int, int, int]

    def __init__(self, p=0, q=0, r=0):
        p, q, r = _frac(p), _frac(q), _frac(r)
        # Reduced fractions over the lcm of their denominators are already
        # in lowest terms.
        d = lcm(p.denominator, q.denominator, r.denominator)
        object.__setattr__(self, "_ints", (
            p.numerator * (d // p.denominator),
            q.numerator * (d // q.denominator),
            r.numerator * (d // r.denominator),
            d,
        ))

    @property
    def p(self) -> Fraction:
        return Fraction(self._ints[0], self._ints[3])

    @property
    def q(self) -> Fraction:
        return Fraction(self._ints[1], self._ints[3])

    @property
    def r(self) -> Fraction:
        return Fraction(self._ints[2], self._ints[3])

    def __repr__(self):
        return f"QAlphaElem(p={self.p!r}, q={self.q!r}, r={self.r!r})"

    @classmethod
    def rational(cls, x) -> "QAlphaElem":
        return cls(_frac(x))

    @property
    def is_rational(self) -> bool:
        return self._ints[1] == 0 and self._ints[2] == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise RationalInputError(f"{self} is not rational")
        return self.p

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a1, b1, c1, d1 = self._ints
        a2, b2, c2, d2 = _ints_of(other)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, c1 * d2 + c2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        a1, b1, c1, d1 = self._ints
        a2, b2, c2, d2 = _ints_of(other)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, c1 * d2 - c2 * d1, d1 * d2)

    def __rsub__(self, other):
        return _as_qalpha(other) - self

    def __neg__(self):
        a, b, c, d = self._ints
        return _reduced(-a, -b, -c, d)

    def __mul__(self, other):
        a1, b1, c1, d1 = self._ints
        a2, b2, c2, d2 = _ints_of(other)
        e0 = a1 * a2
        e1 = a1 * b2 + b1 * a2
        e2 = a1 * c2 + b1 * b2 + c1 * a2
        e3 = b1 * c2 + c1 * b2
        e4 = c1 * c2
        # alpha0^3 = -alpha0^2 + 2 alpha0 + 4,  alpha0^4 = 3 alpha0^2 + 2 alpha0 - 4
        return _reduced(
            e0 + 4 * e3 - 4 * e4,
            e1 + 2 * e3 + 2 * e4,
            e2 - e3 + 3 * e4,
            d1 * d2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QAlphaElem":
        a, b, c, d = self._ints
        if b == 0 and c == 0:
            if a == 0:
                raise ZeroDivisionError("cannot invert zero")
            return _reduced(d, 0, 0, a)
        # v^3 + s v^2 + t v + u = 0, so v (v^2 + s v + t) = -u, and -u is
        # the signifier, nonzero for v != 0.
        s, t, u = min_poly_of(self)
        return (self * self + s * self + t) / -u

    def __truediv__(self, other):
        return self * _as_qalpha(other).inverse()

    def __rtruediv__(self, other):
        return _as_qalpha(other) * self.inverse()

    def __pow__(self, n: int) -> "QAlphaElem":
        if n < 0:
            return self.inverse() ** (-n)
        result = QAlphaElem(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order (total, as a subfield of the reals) -----------------------

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    # -- text form: "p_num/p_den q_num/q_den r_num/r_den" ----------------

    def to_text(self) -> str:
        return " ".join(
            f"{c.numerator}/{c.denominator}" for c in (self.p, self.q, self.r)
        )

    @classmethod
    def from_text(cls, text: str) -> "QAlphaElem":
        parts = text.split()
        if len(parts) != 3:
            raise ValueError("expected three rationals 'p q r'")
        try:
            return cls(*(Fraction(part) for part in parts))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def __str__(self):
        return f"({self.p}) + ({self.q})*a + ({self.r})*a^2"


def _reduced(a: int, b: int, c: int, d: int) -> QAlphaElem:
    """(a + b*alpha0 + c*alpha0^2)/d, d != 0, in canonical form."""
    if d < 0:
        a, b, c, d = -a, -b, -c, -d
    g = gcd(a, b, c, d)
    if g != 1:
        a, b, c, d = a // g, b // g, c // g, d // g
    v = object.__new__(QAlphaElem)
    object.__setattr__(v, "_ints", (a, b, c, d))
    return v


def _ints_of(x) -> tuple[int, int, int, int]:
    """(a, b, c, d) of a field element; ints and Fractions are rationals."""
    if isinstance(x, QAlphaElem):
        return x._ints
    if isinstance(x, int):
        return x, 0, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, 0, x.denominator
    raise TypeError(f"cannot interpret {type(x).__name__} as a field element")


def _as_qalpha(x) -> QAlphaElem:
    return x if isinstance(x, QAlphaElem) else _reduced(*_ints_of(x))


def _cubic(a: int, b: int, c: int) -> int:
    """Integer cubic form whose sign is the sign of a + b*alpha0 + c*alpha0^2."""
    return (
        a**3
        - a**2 * b
        - 2 * a * b**2
        + 4 * b**3
        + 5 * a**2 * c
        - 10 * a * b * c
        - 4 * b**2 * c
        + 12 * a * c**2
        - 8 * b * c**2
        + 16 * c**3
    )


def signifier(v: QAlphaElem) -> Fraction:
    """Rational whose sign equals the sign of v = p + q*alpha0 + r*alpha0^2.

    This is (minus) the constant coefficient of the monic cubic satisfied
    by v; since that cubic has exactly one real root, its constant term
    has the opposite sign of the root.  It is homogeneous of degree 3, so
    for v = (a + b*alpha0 + c*alpha0^2)/d it is the integer cubic form of
    (a, b, c) over d^3.
    """
    a, b, c, d = _ints_of(v)
    return Fraction(_cubic(a, b, c), d**3)


def compare(v, w=0) -> int:
    """Exact three-way comparison of elements of Q(alpha0): -1, 0, or +1.

    The sign of v - w is the sign of the cubic form of its numerators over
    the positive denominator d_v * d_w.
    """
    a1, b1, c1, d1 = _ints_of(v)
    a2, b2, c2, d2 = _ints_of(w)
    s = _cubic(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, c1 * d2 - c2 * d1)
    return (s > 0) - (s < 0)


def min_poly_of(v: QAlphaElem) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (s, t, u) of the minimal polynomial X^3 + sX^2 + tX + u.

    Defined for elements of degree 3, i.e. (q, r) != (0, 0).
    """
    a, b, c, d = v._ints
    if b == 0 and c == 0:
        raise RationalInputError("rational input has a degree-1 minimal polynomial")
    s = Fraction(-3 * a + b - 5 * c, d)
    t = Fraction(
        3 * a**2 - 2 * a * b - 2 * b**2 + 10 * a * c - 10 * b * c + 12 * c**2, d * d
    )
    u = -signifier(v)
    return (s, t, u)


def alpha_pow(n: int) -> QAlphaElem:
    """alpha0^n in canonical form, for any integer n.

    Multiplying by alpha0 sends (a, b, c) to (4c, a + 2c, b - c).  For
    n < 0, multiplying by 4/alpha0 = alpha0^2 + alpha0 - 2 sends (a, b, c)
    to (-2a + 4b, a + 4c, a), so alpha0^n is |n| such steps over 4^|n|.
    """
    a, b, c = 1, 0, 0
    if n >= 0:
        for _ in range(n):
            a, b, c = 4 * c, a + 2 * c, b - c
        return _reduced(a, b, c, 1)
    for _ in range(-n):
        a, b, c = -2 * a + 4 * b, a + 4 * c, a
    return _reduced(a, b, c, 4**-n)


# ---------------------------------------------------------------------------
# The splitting field K = Q(alpha0)(alpha1).

# alpha1 and alpha2 are the roots of m(Y)/(Y - alpha0) = Y^2 + _Y1*Y + _Y0.
_Y1 = QAlphaElem(1, 1, 0)  # alpha0 + 1 = -(alpha1 + alpha2)
_Y0 = QAlphaElem(-2, 1, 1)  # alpha0^2 + alpha0 - 2 = alpha1 * alpha2
_ZERO = QAlphaElem()


@dataclass(frozen=True, slots=True, init=False)
class KElem:
    """Element u + v*alpha1 of K = Q(alpha0, alpha1, alpha2), u and v in
    Q(alpha0); equality and hash come from (u, v).

    Built from six rational coordinates in row-major (i, j) order over the
    basis alpha0^i * alpha1^j, that is (u.p, v.p, u.q, v.q, u.r, v.r).
    """

    u: QAlphaElem
    v: QAlphaElem

    def __init__(self, c):
        c = tuple(c)
        if len(c) != 6:
            raise ValueError("KElem needs six coordinates")
        object.__setattr__(self, "u", QAlphaElem(c[0], c[2], c[4]))
        object.__setattr__(self, "v", QAlphaElem(c[1], c[3], c[5]))

    @property
    def c(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
        u, v = self.u, self.v
        return (u.p, v.p, u.q, v.q, u.r, v.r)

    @classmethod
    def zero(cls) -> "KElem":
        return _kelem(_ZERO, _ZERO)

    @classmethod
    def one(cls) -> "KElem":
        return _kelem(QAlphaElem(1), _ZERO)

    @classmethod
    def rational(cls, x) -> "KElem":
        return _kelem(QAlphaElem(x), _ZERO)

    @classmethod
    def from_qalpha(cls, v: QAlphaElem) -> "KElem":
        return _kelem(v, _ZERO)

    @classmethod
    def root(cls, j: int) -> "KElem":
        """alpha_j as a KElem, j in {0, 1, 2}."""
        if j == 0:
            return _kelem(QAlphaElem(0, 1), _ZERO)
        if j == 1:
            return _kelem(_ZERO, QAlphaElem(1))
        if j == 2:  # alpha2 = -1 - alpha0 - alpha1
            return _kelem(-_Y1, QAlphaElem(-1))
        raise ValueError("root index must be 0, 1, or 2")

    @property
    def is_real(self) -> bool:
        """Real iff alpha1 does not appear in the reduced form."""
        return self.v == _ZERO

    def to_qalpha(self) -> QAlphaElem:
        if not self.is_real:
            raise ValueError(f"{self} is not real")
        return self.u

    def conj_swapped(self) -> "KElem":
        """Image under the automorphism exchanging alpha1 and alpha2.

        On real-coefficient expressions this is complex conjugation.
        """
        # u + v*alpha2 = u + v*(-_Y1 - alpha1)
        return _kelem(self.u - self.v * _Y1, -self.v)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _as_kelem(other)
        return _kelem(self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_kelem(other)
        return _kelem(self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        return _as_kelem(other) - self

    def __neg__(self):
        return _kelem(-self.u, -self.v)

    def __mul__(self, other):
        o = _as_kelem(other)
        # alpha1^2 = -_Y1*alpha1 - _Y0
        vv = self.v * o.v
        return _kelem(self.u * o.u - vv * _Y0, self.u * o.v + self.v * o.u - vv * _Y1)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "KElem":
        if n < 0:
            return k_div(KElem.one(), self) ** (-n)
        result = KElem.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_text(self) -> str:
        return " ".join(f"{x.numerator}/{x.denominator}" for x in self.c)

    def __str__(self):
        return self.to_text()


def _kelem(u: QAlphaElem, v: QAlphaElem) -> KElem:
    k = object.__new__(KElem)
    object.__setattr__(k, "u", u)
    object.__setattr__(k, "v", v)
    return k


def _as_kelem(x) -> KElem:
    if isinstance(x, KElem):
        return x
    if isinstance(x, QAlphaElem):
        return KElem.from_qalpha(x)
    if isinstance(x, (int, Fraction)):
        return KElem.rational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a field element")


def reduce_poly(terms: Mapping[tuple[int, int, int], object]) -> KElem:
    """Evaluate a rational polynomial in (alpha0, alpha1, alpha2) to a KElem.

    ``terms`` maps exponent triples (i, j, k) for X^i Y^j Z^k to rational
    coefficients, where X, Y, Z stand for alpha0, alpha1, alpha2; each
    monomial is a product of KElem powers of the three roots.
    """
    x, y, z = (KElem.root(j) for j in range(3))
    total = KElem.zero()
    for (i, j, k), coeff in terms.items():
        coeff = _frac(coeff)
        if coeff == 0:
            continue
        if i + j + k > MAX_REDUCE_DEGREE:
            raise ValueError(
                f"total degree {i + j + k} exceeds the cap of {MAX_REDUCE_DEGREE}"
            )
        total = total + x**i * y**j * z**k * coeff
    return total


def k_div(num: KElem, den: KElem) -> KElem:
    """Exact division in K.

    Multiplying by the alpha1<->alpha2 conjugate of the denominator turns
    the divisor into a (real) element of Q(alpha0), which is inverted
    there through its minimal polynomial.
    """
    num = _as_kelem(num)
    den = _as_kelem(den)
    if den == KElem.zero():
        raise ZeroDivisionError("division by zero in K")
    den_sw = den.conj_swapped()
    e = (den * den_sw).to_qalpha()
    return num * den_sw * KElem.from_qalpha(e.inverse())


# ---------------------------------------------------------------------------
# Decimal bracketing.


class DecimalInterval(NamedTuple):
    lo: str
    hi: str

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _format_scaled(k: int, digits: int, trim: bool = False) -> str:
    scale = 10**digits
    sign = "-" if k < 0 else ""
    a = abs(k)
    text = f"{sign}{a // scale}.{a % scale:0{digits}d}"
    if trim:
        text = text.rstrip("0").rstrip(".")
        if text in ("", "-"):
            text = "0"
    return text


def decimal_approx(v: QAlphaElem, digits: int) -> DecimalInterval:
    """Bracket v in an interval [lo, hi] of width at most 10^-digits.

    The bracket is found by comparing v against rationals with
    ``compare`` (a bisection over integer numerators), so the result is
    exact and deterministic.  If v is itself representable with the
    requested precision, lo == hi.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    v = _as_qalpha(v)
    scale = 10**digits
    # 0 < alpha0 < 3, so |v| <= |p| + 3|q| + 9|r| < bound.
    bound = 1 + abs(v.p) + 3 * abs(v.q) + 9 * abs(v.r)
    hi_int = int(bound * scale) + 1
    lo_int = -hi_int
    # Largest k with k/scale <= v.
    while hi_int - lo_int > 1:
        mid = (lo_int + hi_int) // 2
        if compare(v, Fraction(mid, scale)) >= 0:
            lo_int = mid
        else:
            hi_int = mid
    if compare(v, Fraction(lo_int, scale)) == 0:
        text = _format_scaled(lo_int, digits, trim=True)
        return DecimalInterval(text, text)
    return DecimalInterval(
        _format_scaled(lo_int, digits), _format_scaled(lo_int + 1, digits)
    )
