"""Finitely supported sequences as exact-coefficient polynomials, and the
doubling recursion that generates Golay complementary pairs from a seed.

A sequence (f_0, ..., f_{l-1}) is identified with the polynomial
sum f_j z^j; coefficients are exact complex rationals, stored as integer
numerator arrays, re and (unless all zero) im, over one common
denominator.  The recursion step maps a pair (x, y) of equal declared
length l to

    x' = x + z^l * y,      y' = x - z^l * y,

which doubles the length and preserves Golay complementarity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import lcm
from typing import Iterable, TextIO

from . import np
from .convolve import fitted, int_array, lowest_terms, negated, scaled
from .qcomplex import CQ, as_cq, fraction_text, int_text, parse_fraction, text_int

__all__ = [
    "Sequence",
    "SeedPair",
    "GolayPair",
    "BudgetExceeded",
    "SeedInvalid",
    "NotGolay",
    "EnergyMismatch",
    "DegreeTooLarge",
    "ZeroSequence",
    "DEFAULT_COEFF_BUDGET",
    "check_budget",
    "grs_step",
    "grs_pair",
    "grs_member",
    "rudin_shapiro",
    "rudin_shapiro_seed",
    "validate_seed",
    "read_sequence",
    "write_sequence",
    "read_seed_pair",
    "write_seed_pair",
]

DEFAULT_COEFF_BUDGET = 2**31


class BudgetExceeded(RuntimeError):
    """A requested object would exceed the configured coefficient budget."""


class SeedInvalid(ValueError):
    """A proposed seed pair violates one of the seed conditions."""


class NotGolay(SeedInvalid):
    def __init__(self, shift: int):
        self.shift = shift
        super().__init__(f"autocorrelations do not cancel at shift {shift}")


class EnergyMismatch(SeedInvalid):
    def __init__(self):
        super().__init__("the two sequences have different zero-shift autocorrelation")


class DegreeTooLarge(SeedInvalid):
    def __init__(self, which: str):
        super().__init__(f"degree of {which} is not below the declared seed length")


class ZeroSequence(SeedInvalid):
    def __init__(self, which: str):
        super().__init__(f"{which} is the zero sequence")


def check_budget(need: int, budget: int | None, what: str, unit: str = "entries",
                 hint: str = "") -> None:
    """Raise BudgetExceeded when ``need`` exceeds the cap: ``budget``, or
    DEFAULT_COEFF_BUDGET when it is None."""
    cap = DEFAULT_COEFF_BUDGET if budget is None else budget
    if need > cap:
        need, cap = int_text(need), int_text(cap)
        raise BudgetExceeded(f"{what} needs {need} {unit}, budget is {cap}{hint}")


def _canonical(values) -> tuple[tuple, int]:
    """(parts, den): the real and imaginary parts of exact complex rational
    values as integer numerators over their least common denominator."""
    if isinstance(values, np.ndarray) and np.can_cast(values.dtype, np.int64):
        return (values.astype(np.int64),), 1
    vals = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if all(isinstance(v, int) for v in vals):
        return (vals,), 1
    cqs = [as_cq(v) for v in vals]
    den = lcm(*(x.denominator for c in cqs for x in (c.re, c.im)))
    re = [c.re.numerator * (den // c.re.denominator) for c in cqs]
    im = [c.im.numerator * (den // c.im.denominator) for c in cqs]
    return (re, im), den


class Sequence:
    """Immutable sequence with a declared support bound ``length``.

    The coefficients are ``parts``, a tuple ``(re,)`` or ``(re, im)`` of
    read-only arrays of ``length`` integer numerators, over ``den``, their
    least positive common denominator.  An array is int64, or object dtype
    (Python ints) when a value leaves int64; ``im`` is absent when it would
    be all zero.  A sequence of real integers is one array over den = 1.
    The representation is canonical, so equality compares den and the
    trimmed parts, as polynomials: the declared length and trailing zeros
    do not matter.  The hash reads den, the degree and the trimmed parts,
    computed per call: no key copy is kept.
    """

    __slots__ = ("length", "parts", "den", "_degree")

    def __init__(self, values: Iterable, length: int | None = None):
        self._set(*_canonical(values), length)

    @classmethod
    def _of(cls, parts: tuple, den: int) -> "Sequence":
        """The sequence with numerator arrays ``parts`` over ``den``, which
        holds an int64 part without a copy.  den and the numerators must have
        gcd 1, which holds over the lcm of reduced denominators."""
        seq = object.__new__(cls)
        seq._set(parts, den, None)
        return seq

    def _set(self, parts: tuple, den: int, length: int | None) -> None:
        parts = [int_array(part) for part in parts]
        # The degree of each part: its last nonzero index, -1 when all zero.
        degrees = [p.size - 1 - int((p[::-1] != 0).argmax()) if p.any() else -1 for p in parts]
        if len(parts) == 2 and degrees[1] < 0:
            del parts[1], degrees[1]
        length = parts[0].size if length is None else length
        if length < parts[0].size:
            raise ValueError("declared length smaller than the coefficient list")
        if length > parts[0].size:
            parts = [fitted(p, length) for p in parts]
        for part in parts:
            part.flags.writeable = False
        for name, value in zip(self.__slots__, (length, tuple(parts), den, max(degrees))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("Sequence is immutable")

    @classmethod
    def binary(cls, signs: str) -> "Sequence":
        """Build an all +/-1 sequence from a '+-' string."""
        text = signs.strip()
        raw = np.frombuffer(text.encode(), dtype=np.uint8)
        plus = raw == ord("+")
        if not text.isascii() or not np.all(plus | (raw == ord("-"))):
            ch = next(c for c in text if c not in "+-")
            raise ValueError(f"unexpected character {ch!r} in sign string")
        return cls._of((np.where(plus, np.int64(1), np.int64(-1)),), 1)

    # -- views -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The ``length`` coefficients: Python ints, or CQ values."""
        return tuple(self.parts[0].tolist()) if self.is_int_real else self.cq_coeffs()

    @property
    def is_binary(self) -> bool:
        """Nonempty with every coefficient +1 or -1."""
        arr = self.int_coeffs()
        return arr is not None and arr.size > 0 and bool(np.all((arr == 1) | (arr == -1)))

    def cq_coeffs(self) -> tuple[CQ, ...]:
        den = self.den
        im = self.parts[1].tolist() if len(self.parts) == 2 else repeat(0)
        return tuple(CQ(Fraction(r, den), Fraction(i, den))
                     for r, i in zip(self.parts[0].tolist(), im))

    def int_coeffs(self) -> np.ndarray | None:
        """All coefficients as a read-only int64 or object (Python int)
        array, or None if some coefficient is not a real integer."""
        return self.parts[0] if self.is_int_real else None

    @property
    def is_int_real(self) -> bool:
        return self.den == 1 and len(self.parts) == 1

    @property
    def is_rational_real(self) -> bool:
        return len(self.parts) == 1

    @property
    def degree(self) -> int:
        """Degree as a polynomial; -1 for the zero sequence."""
        return self._degree

    @property
    def is_zero(self) -> bool:
        return self._degree < 0

    def sign_string(self) -> str:
        if not self.is_binary:
            raise ValueError("not a binary sequence")
        return np.where(self.parts[0] == 1, *np.frombuffer(b"+-", np.uint8)).tobytes().decode()

    def __len__(self):
        return self.length

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        end = self._degree + 1
        return (self.den == other.den and self._degree == other._degree
                and len(self.parts) == len(other.parts)
                and all(np.array_equal(a[:end], b[:end]) for a, b in zip(self.parts, other.parts)))

    def __hash__(self):
        end = self._degree + 1
        return hash((self.den, self._degree, *(tuple(p[:end].tolist()) for p in self.parts)))

    def __repr__(self):
        if self.is_binary:
            return f"Sequence({self.sign_string()!r})"
        return f"Sequence(<{self.length} rational coeffs>)"


@dataclass(frozen=True, slots=True)
class SeedPair:
    """A validated Golay complementary seed (x0, y0) of declared length ell0."""

    x0: Sequence
    y0: Sequence
    ell0: int

    @property
    def is_rational(self) -> bool:
        return self.x0.is_rational_real and self.y0.is_rational_real

    @property
    def is_int(self) -> bool:
        return self.x0.is_int_real and self.y0.is_int_real

    @property
    def is_rudin_shapiro(self) -> bool:
        one = Sequence([1])
        return self.ell0 == 1 and self.x0 == one and self.y0 == one


@dataclass(frozen=True, slots=True)
class GolayPair:
    """Pair at level n of the recursion: lengths are ell0 * 2^n."""

    x: Sequence
    y: Sequence
    level: int
    ell0: int

    @property
    def length(self) -> int:
        return self.ell0 << self.level


def rudin_shapiro_seed() -> SeedPair:
    one = Sequence([1])
    return SeedPair(one, one, 1)


def _member_parts(seq: Sequence, ell: int, den: int, count: int) -> list[np.ndarray]:
    """The first ``ell`` coefficients of ``seq`` as ``count`` numerator
    arrays over ``den``, a multiple of seq.den; a missing im part is zeros."""
    parts = [scaled(fitted(part, ell), den // seq.den) for part in seq.parts]
    return parts + [np.zeros(ell, dtype=np.int64)] * (count - len(parts))


def _next_member(pair: GolayPair, member: str) -> Sequence:
    """Member ``member``, "x" or "y", of the pair one doubling step after
    ``pair``: x + z^l y or x - z^l y, on the numerator arrays of both
    members over the lcm of their denominators."""
    ell, den = pair.length, lcm(pair.x.den, pair.y.den)
    count = max(len(pair.x.parts), len(pair.y.parts))
    xs, ys = (_member_parts(s, ell, den, count) for s in (pair.x, pair.y))
    ys = ys if member == "x" else map(negated, ys)
    return Sequence._of(tuple(map(np.concatenate, zip(xs, ys))), den)


def grs_step(pair: GolayPair) -> GolayPair:
    """One doubling step: (x, y) -> (x + z^l y, x - z^l y)."""
    return GolayPair(_next_member(pair, "x"), _next_member(pair, "y"), pair.level + 1, pair.ell0)


def _check_level(seed: SeedPair, n: int, budget: int | None) -> None:
    """Raise unless level n is nonnegative and fits the budget."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    check_budget(2 * (seed.ell0 << n), budget, f"level {n}", "coefficients",
                 "; use the streaming scan for peak values at this size")


def grs_pair(seed: SeedPair, n: int, budget: int | None = None) -> GolayPair:
    """Materialize the level-n pair grown from ``seed``.

    Raises BudgetExceeded when the 2 * ell0 * 2^n coefficients would not
    fit the configured budget; peak scans do not need materialization
    (see grs.fastscan.streaming_peaks).
    """
    _check_level(seed, n, budget)
    pair = GolayPair(seed.x0, seed.y0, 0, seed.ell0)
    for _ in range(n):
        pair = grs_step(pair)
    return pair


def grs_member(seed: SeedPair, n: int, member: str, budget: int | None = None) -> Sequence:
    """Member ``member``, "x" or "y", of ``grs_pair(seed, n, budget)``, one
    step from the level n-1 pair: the other level-n member is never built."""
    _check_level(seed, n, budget)
    pair = grs_pair(seed, max(n - 1, 0), budget)
    return _next_member(pair, member) if n else getattr(pair, member)


def rudin_shapiro(n: int, budget: int | None = None) -> GolayPair:
    """The level-n pair for the unit seed of length 1 (binary, length 2^n)."""
    return grs_pair(rudin_shapiro_seed(), n, budget=budget)


def validate_seed(x0: Sequence, y0: Sequence, ell0: int) -> SeedPair:
    """Check the seed conditions and return a SeedPair, or raise a
    diagnostic naming the first violated condition.

    Conditions: both sequences nonzero with degree below ell0, equal
    zero-shift autocorrelations, and autocorrelations cancelling at every
    nonzero shift (checked against the brute-force oracle).
    """
    from . import correlation

    if ell0 < 1:
        raise ValueError("seed length must be positive")
    if x0.is_zero:
        raise ZeroSequence("x0")
    if y0.is_zero:
        raise ZeroSequence("y0")
    if x0.degree >= ell0:
        raise DegreeTooLarge("x0")
    if y0.degree >= ell0:
        raise DegreeTooLarge("y0")
    sxx = correlation.spectrum(x0, x0)
    syy = correlation.spectrum(y0, y0)
    if as_cq(sxx.value(0)) != as_cq(syy.value(0)):
        raise EnergyMismatch()
    # Both autocorrelations vanish past both degrees.
    for s in range(1, max(x0.degree, y0.degree) + 1):
        total = as_cq(sxx.value(s)) + as_cq(syy.value(s))
        if total:
            raise NotGolay(s)
    return SeedPair(x0, y0, ell0)


# ---------------------------------------------------------------------------
# Sequence files: one header line "len=<l> kind=binary|rational", then either
# a single +/- line or one "re_num/re_den im_num/im_den" line per coefficient.
# Rational rows as write_sequence writes them: "num/den num/den" lines.
_PLAIN_ROWS = re.compile(r"(?:[+-]?[0-9]+/[0-9]+ [+-]?[0-9]+/[0-9]+\n)*")


def write_sequence(seq: Sequence, fp: TextIO) -> None:
    if seq.is_binary:
        fp.write(f"len={seq.length} kind=binary\n")
        fp.write(seq.sign_string() + "\n")
        return
    fp.write(f"len={seq.length} kind=rational\n")
    columns = []
    for part in seq.parts:
        num, den = lowest_terms(part, seq.den)  # as Fraction writes each value
        columns.append(map(fraction_text, num.tolist(), den.tolist()))
    if len(columns) == 1:
        columns.append(repeat("0/1"))
    fp.writelines(f"{re} {im}\n" for re, im in zip(*columns))


def _int_field(where: str, key: str, text: str) -> int:
    try:
        return text_int(text)
    except ValueError:
        raise ValueError(f"{where} field '{key}={text}' is not an integer") from None


def read_sequence(fp: TextIO) -> Sequence:
    header = fp.readline().split()
    if bad := [part for part in header if "=" not in part]:
        raise ValueError(f"sequence header field {bad[0]!r} is not key=value")
    fields = dict(part.split("=", 1) for part in header)
    if "len" not in fields or "kind" not in fields:
        raise ValueError("sequence header needs len= and kind= fields")
    length = _int_field("sequence header", "len", fields["len"])
    if length < 0:
        raise ValueError(f"declared length len={int_text(length)} is negative")
    kind = fields["kind"]
    if kind == "binary":
        seq = Sequence.binary(fp.readline().strip())
        if seq.length != length:
            raise ValueError("sign string does not match the declared length")
        return seq
    if kind != "rational":
        raise ValueError(f"unknown sequence kind {kind!r}")
    lines = list(islice(iter(fp.readline, ""), length))
    if len(lines) < length:
        raise ValueError(f"rational sequence of len={length}: row {len(lines) + 1} is missing")
    return _rational_sequence(lines)


def _rational_columns(lines: list[str]) -> np.ndarray:
    """The numerators and denominators of the re and im fields of
    ``lines``, as the four rows of an integer array."""
    body = "".join(lines)
    if _PLAIN_ROWS.fullmatch(body):
        texts = body.replace("/", " ").split()
        try:
            values = list(map(int, texts))
        except ValueError:  # past the interpreter's int-from-text digit limit
            values = list(map(text_int, texts))
        table = int_array(values).reshape(-1, 4).T
        if table.shape[1] == len(lines) and table[1].all() and table[3].all():
            return table
    # Any other spacing or form that Fraction reads (2, 1.5, 3e2), and the
    # errors: a row without two fields, a malformed value, a zero denominator.
    fracs = []
    for line in lines:
        re_txt, im_txt = line.split()
        fracs += [parse_fraction(re_txt), parse_fraction(im_txt)]
    return int_array([v for f in fracs for v in (f.numerator, f.denominator)]).reshape(-1, 4).T


def _rational_sequence(lines: list[str]) -> Sequence:
    """The sequence of the rational rows ``lines``: each field reduced to
    lowest terms, then scaled to the lcm of the reduced denominators."""
    nums, dens = zip(*(lowest_terms(num, den)
                       for num, den in _rational_columns(lines).reshape(2, 2, -1)))
    common = lcm(*np.unique(np.concatenate(dens)).tolist())
    return Sequence._of(tuple(scaled(num, common) // den for num, den in zip(nums, dens)), common)


def write_seed_pair(seed: SeedPair, fp: TextIO) -> None:
    fp.write(f"ell0={int_text(seed.ell0)}\n")
    write_sequence(seed.x0, fp)
    write_sequence(seed.y0, fp)


def read_seed_pair(fp: TextIO) -> SeedPair:
    line = fp.readline().strip()
    if not line.startswith("ell0="):
        raise ValueError("seed file must start with an ell0= line")
    ell0 = _int_field("seed file", "ell0", line.split("=", 1)[1])
    x0 = read_sequence(fp)
    y0 = read_sequence(fp)
    return validate_seed(x0, y0, ell0)
