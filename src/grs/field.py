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

* ``KElem`` -- an element of the full splitting field K in the basis
  alpha0^i * alpha1^j with 0 <= i < 3, 0 <= j < 2.  Arbitrary polynomial
  expressions in the three roots are brought to this basis by rewriting
  alpha2 = -1 - alpha0 - alpha1, alpha1^2 in terms of lower powers, and
  alpha0^3 = -alpha0^2 + 2*alpha0 + 4.

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

# Total-degree cap for reduce_poly inputs; keeps intermediate expansion
# of the alpha2 substitution bounded.
MAX_REDUCE_DEGREE = 24


class RationalInputError(ValueError):
    """Raised when an operation needs a non-rational field element."""


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floating point values are not accepted here")
    return Fraction(x)


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
# The splitting field K, basis alpha0^i * alpha1^j (0 <= i < 3, 0 <= j < 2).

# X^i Y^j, j >= 2:  Y^2 -> -XY - Y - X^2 - X + 2
_Y2_RULE = (((1, 1), -1), ((0, 1), -1), ((2, 0), -1), ((1, 0), -1), ((0, 0), 2))
# X^i, i >= 3:  X^3 -> -X^2 + 2X + 4
_X3_RULE = ((2, -1), (1, 2), (0, 4))


def _reduce_xy(terms: Mapping[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    # Merge-as-you-go keeps the term count polynomial; a term-at-a-time
    # worklist would re-expand shared subterms exponentially.
    acc: dict[tuple[int, int], Fraction] = {}
    for key, c in terms.items():
        if c != 0:
            acc[key] = acc.get(key, Fraction(0)) + Fraction(c)

    def _apply(key, coeff, replacements):
        i, j = key
        del acc[i, j]
        for (di, dj), mult in replacements:
            new = (i + di, j + dj)
            val = acc.get(new, Fraction(0)) + coeff * mult
            if val:
                acc[new] = val
            elif new in acc:
                del acc[new]

    while True:
        high = [k for k in acc if k[1] >= 2]
        if not high:
            break
        for i, j in high:
            if (i, j) in acc:
                _apply((i, j), acc[i, j], [((di, dj - 2), m) for (di, dj), m in _Y2_RULE])
    while True:
        high = [k for k in acc if k[0] >= 3]
        if not high:
            break
        for i, j in high:
            if (i, j) in acc:
                _apply((i, j), acc[i, j], [((di - 3, 0), m) for di, m in _X3_RULE])
    return {k: v for k, v in acc.items() if v != 0}


@dataclass(frozen=True, slots=True)
class KElem:
    """Element of K = Q(alpha0, alpha1, alpha2); six rational coordinates
    in row-major (i, j) order over the basis alpha0^i * alpha1^j."""

    c: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(_frac(x) for x in self.c))
        if len(self.c) != 6:
            raise ValueError("KElem needs six coordinates")

    @classmethod
    def zero(cls) -> "KElem":
        return cls((0, 0, 0, 0, 0, 0))

    @classmethod
    def one(cls) -> "KElem":
        return cls((1, 0, 0, 0, 0, 0))

    @classmethod
    def rational(cls, x) -> "KElem":
        return cls((_frac(x), 0, 0, 0, 0, 0))

    @classmethod
    def from_qalpha(cls, v: QAlphaElem) -> "KElem":
        return cls((v.p, 0, v.q, 0, v.r, 0))

    @classmethod
    def root(cls, j: int) -> "KElem":
        """alpha_j as a KElem, j in {0, 1, 2}."""
        if j == 0:
            return cls((0, 0, 1, 0, 0, 0))
        if j == 1:
            return cls((0, 1, 0, 0, 0, 0))
        if j == 2:  # alpha2 = -1 - alpha0 - alpha1
            return cls((-1, -1, -1, 0, 0, 0))
        raise ValueError("root index must be 0, 1, or 2")

    def coord(self, i: int, j: int) -> Fraction:
        return self.c[2 * i + j]

    def _as_dict(self) -> dict[tuple[int, int], Fraction]:
        return {
            (i, j): self.c[2 * i + j]
            for i in range(3)
            for j in range(2)
            if self.c[2 * i + j] != 0
        }

    @classmethod
    def _from_dict(cls, d: Mapping[tuple[int, int], Fraction]) -> "KElem":
        coords = [Fraction(0)] * 6
        for (i, j), v in d.items():
            coords[2 * i + j] = v
        return cls(tuple(coords))

    @property
    def is_real(self) -> bool:
        """Real iff alpha1 does not appear in the reduced form."""
        return self.c[1] == 0 and self.c[3] == 0 and self.c[5] == 0

    def to_qalpha(self) -> QAlphaElem:
        if not self.is_real:
            raise ValueError(f"{self} is not real")
        return QAlphaElem(self.c[0], self.c[2], self.c[4])

    def conj_swapped(self) -> "KElem":
        """Image under the automorphism exchanging alpha1 and alpha2.

        On real-coefficient expressions this is complex conjugation.
        """
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in self._as_dict().items():
            if j == 0:
                out[(i, 0)] = out.get((i, 0), Fraction(0)) + v
            else:  # alpha1 -> alpha2 = -1 - X - Y
                for key, mult in (((i, 0), -1), ((i + 1, 0), -1), ((i, 1), -1)):
                    out[key] = out.get(key, Fraction(0)) + v * mult
        return KElem._from_dict(_reduce_xy(out))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _as_kelem(other)
        return KElem(tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_kelem(other)
        return KElem(tuple(a - b for a, b in zip(self.c, o.c)))

    def __rsub__(self, other):
        return _as_kelem(other) - self

    def __neg__(self):
        return KElem(tuple(-a for a in self.c))

    def __mul__(self, other):
        o = _as_kelem(other)
        prod: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), v1 in self._as_dict().items():
            for (i2, j2), v2 in o._as_dict().items():
                key = (i1 + i2, j1 + j2)
                prod[key] = prod.get(key, Fraction(0)) + v1 * v2
        return KElem._from_dict(_reduce_xy(prod))

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
    coefficients, where X, Y, Z stand for alpha0, alpha1, alpha2.  The
    substitution Z -> -X - Y - 1 is applied first, then powers of Y and X
    are reduced to the canonical basis.
    """
    z_sub = {(1, 0): Fraction(-1), (0, 1): Fraction(-1), (0, 0): Fraction(-1)}
    acc: dict[tuple[int, int], Fraction] = {}
    for (i, j, k), coeff in terms.items():
        coeff = _frac(coeff)
        if coeff == 0:
            continue
        if i + j + k > MAX_REDUCE_DEGREE:
            raise ValueError(
                f"total degree {i + j + k} exceeds the cap of {MAX_REDUCE_DEGREE}"
            )
        term: dict[tuple[int, int], Fraction] = {(i, j): coeff}
        for _ in range(k):
            nxt: dict[tuple[int, int], Fraction] = {}
            for (a, b), v in term.items():
                for (da, db), m in z_sub.items():
                    key = (a + da, b + db)
                    nxt[key] = nxt.get(key, Fraction(0)) + v * m
            term = nxt
        for key, v in term.items():
            acc[key] = acc.get(key, Fraction(0)) + v
    return KElem._from_dict(_reduce_xy(acc))


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
