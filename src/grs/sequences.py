"""Finitely supported sequences as exact-coefficient polynomials, and the
doubling recursion that generates Golay complementary pairs from a seed.

A sequence (f_0, ..., f_{l-1}) is identified with the polynomial
sum f_j z^j; coefficients are exact complex rationals, stored as one
integer array when all of them are real integers.  The recursion step maps a
pair (x, y) of equal declared length l to

    x' = x + z^l * y,      y' = x - z^l * y,

which doubles the length and preserves Golay complementarity.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, TextIO

import numpy as np

from .convolve import INT64_MAX, int_array
from .qcomplex import CQ, as_cq

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
    "coefficient_budget",
    "grs_step",
    "grs_pair",
    "rudin_shapiro",
    "rudin_shapiro_seed",
    "validate_seed",
    "read_sequence",
    "write_sequence",
    "read_seed_pair",
    "write_seed_pair",
]

DEFAULT_COEFF_BUDGET = 2**31
BUDGET_ENV_VAR = "GRS_BUDGET_BYTES"


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


def coefficient_budget(budget: int | None = None) -> int:
    """Resolve the coefficient cap: explicit argument, else the
    GRS_BUDGET_BYTES environment variable, else the default."""
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_COEFF_BUDGET


def _canonical(values) -> tuple[np.ndarray | None, tuple[CQ, ...] | None]:
    """(integer array, None) when every coefficient is a real integer, else
    (None, tuple of CQ)."""
    if isinstance(values, np.ndarray) and np.can_cast(values.dtype, np.int64):
        return values.astype(np.int64), None
    vals = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if not all(isinstance(v, int) for v in vals):
        cqs = [as_cq(v) for v in vals]
        if not all(c.is_integer for c in cqs):
            return None, tuple(cqs)
        vals = [int(c.re) for c in cqs]
    return int_array(vals), None


class Sequence:
    """Immutable sequence with a declared support bound ``length``.

    A sequence whose coefficients are all real integers holds one
    read-only numpy array of ``length`` entries: int64, or object dtype
    (Python ints) when a value leaves int64.  Any other sequence holds a
    tuple of CQ.  The representation is canonical, so equality and hashing
    compare the trimmed coefficients and treat sequences as polynomials
    (the declared length does not matter, trailing zeros are ignored).
    """

    __slots__ = ("length", "_arr", "_cq", "_degree", "_key", "_hash")

    def __init__(self, values: Iterable, length: int | None = None):
        arr, cq = _canonical(values)
        size = len(arr) if arr is not None else len(cq)
        if length is None:
            length = size
        if length < size:
            raise ValueError("declared length smaller than the coefficient list")
        if arr is not None:
            if length > size:
                arr = np.concatenate((arr, np.zeros(length - size, dtype=arr.dtype)))
            arr.flags.writeable = False
            nonzero = np.flatnonzero(arr)
            degree = int(nonzero[-1]) if nonzero.size else -1
            trimmed = arr[: degree + 1]
            key = trimmed.tobytes() if arr.dtype == np.int64 else tuple(trimmed.tolist())
        else:
            cq = cq + (CQ(),) * (length - size)
            degree = length - 1
            while degree >= 0 and not cq[degree]:
                degree -= 1
            key = cq[: degree + 1]
        for name, value in (("length", length), ("_arr", arr), ("_cq", cq),
                            ("_degree", degree), ("_key", key), ("_hash", hash(key))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("Sequence is immutable")

    @classmethod
    def binary(cls, signs) -> "Sequence":
        """Build an all +/-1 sequence from a '+-' string or an iterable of signs."""
        if isinstance(signs, str):
            text = signs.strip()
            raw = np.frombuffer(text.encode(), dtype=np.uint8)
            plus = raw == ord("+")
            if not text.isascii() or not np.all(plus | (raw == ord("-"))):
                ch = next(c for c in text if c not in "+-")
                raise ValueError(f"unexpected character {ch!r} in sign string")
            vals = np.where(plus, 1, -1).astype(np.int64)
        else:
            vals = [int(v) for v in signs]
            if any(v not in (1, -1) for v in vals):
                raise ValueError("binary sequences take only +1/-1 entries")
        return cls(vals)

    # -- views -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The ``length`` coefficients: Python ints, or CQ values."""
        return tuple(self._arr.tolist()) if self._arr is not None else self._cq

    @property
    def is_binary(self) -> bool:
        """Nonempty with every coefficient +1 or -1."""
        arr = self._arr
        return arr is not None and arr.size > 0 and bool(np.all((arr == 1) | (arr == -1)))

    def value_at(self, j: int):
        if not 0 <= j < self.length:
            return 0
        return int(self._arr[j]) if self._arr is not None else self._cq[j]

    def cq_coeffs(self) -> tuple[CQ, ...]:
        if self._cq is not None:
            return self._cq
        return tuple(CQ(v) for v in self._arr.tolist())

    def int_coeffs(self) -> np.ndarray | None:
        """All coefficients as a read-only int64 or object (Python int)
        array, or None if some coefficient is not a real integer."""
        return self._arr

    @property
    def is_int_real(self) -> bool:
        return self._arr is not None

    @property
    def is_rational_real(self) -> bool:
        return self._arr is not None or all(v.is_real for v in self._cq)

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
        return np.where(self._arr == 1, ord("+"), ord("-")).astype(np.uint8).tobytes().decode()

    def __len__(self):
        return self.length

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

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


def _fitted(arr: np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` entries of ``arr``, zero-padded."""
    pad = np.zeros(max(0, length - arr.size), dtype=arr.dtype)
    return np.concatenate((arr[:length], pad))


def _negated(arr: np.ndarray) -> np.ndarray:
    """-arr, exactly: -(-2**63) leaves int64, so such an array is negated
    as Python ints."""
    if arr.dtype == np.int64 and arr.size and arr.min() == -INT64_MAX - 1:
        arr = arr.astype(object)
    return -arr


def grs_step(pair: GolayPair) -> GolayPair:
    """One doubling step: (x, y) -> (x + z^l y, x - z^l y)."""
    ell = pair.length
    if pair.x.is_int_real and pair.y.is_int_real:
        xs = _fitted(pair.x.int_coeffs(), ell)
        ys = _fitted(pair.y.int_coeffs(), ell)
        new_x = Sequence(np.concatenate((xs, ys)))
        new_y = Sequence(np.concatenate((xs, _negated(ys))))
    else:
        xs, ys = (
            s.cq_coeffs()[:ell] + (CQ(),) * (ell - s.length) for s in (pair.x, pair.y)
        )
        new_x = Sequence(xs + ys)
        new_y = Sequence(xs + tuple(-v for v in ys))
    return GolayPair(new_x, new_y, pair.level + 1, pair.ell0)


def grs_pair(seed: SeedPair, n: int, budget: int | None = None) -> GolayPair:
    """Materialize the level-n pair grown from ``seed``.

    Raises BudgetExceeded when the 2 * ell0 * 2^n coefficients would not
    fit the configured budget; peak scans do not need materialization
    (see grs.fastscan.streaming_peaks).
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    cap = coefficient_budget(budget)
    if 2 * (seed.ell0 << n) > cap:
        raise BudgetExceeded(
            f"level {n} needs {2 * (seed.ell0 << n)} coefficients, budget is {cap}; "
            "use the streaming scan for peak values at this size"
        )
    pair = GolayPair(seed.x0, seed.y0, 0, seed.ell0)
    for _ in range(n):
        pair = grs_step(pair)
    return pair


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
    for s in range(1, ell0):
        total = as_cq(sxx.value(s)) + as_cq(syy.value(s))
        if total:
            raise NotGolay(s)
    return SeedPair(x0, y0, ell0)


# ---------------------------------------------------------------------------
# Sequence files: one header line "len=<l> kind=binary|rational", then either
# a single +/- line or one "re_num/re_den im_num/im_den" line per coefficient.
# str(int), int(str) and Fraction(str) refuse ints past
# sys.get_int_max_str_digits() digits; Decimal converts exactly at any size,
# so it takes over when they raise.

_FRACTION_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def int_text(v: int) -> str:
    """str(v), for an int of any size."""
    try:
        return str(v)
    except ValueError:
        return str(Decimal(v))


def _fraction_text(v: Fraction) -> str:
    return f"{int_text(v.numerator)}/{int_text(v.denominator)}"


def _parse_fraction(text: str) -> Fraction:
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
            return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def write_sequence(seq: Sequence, fp: TextIO) -> None:
    if seq.is_binary:
        fp.write(f"len={seq.length} kind=binary\n")
        fp.write(seq.sign_string() + "\n")
        return
    fp.write(f"len={seq.length} kind=rational\n")
    for v in seq.cq_coeffs():
        fp.write(f"{_fraction_text(v.re)} {_fraction_text(v.im)}\n")


def read_sequence(fp: TextIO) -> Sequence:
    header = fp.readline().split()
    fields = dict(part.split("=", 1) for part in header)
    if "len" not in fields or "kind" not in fields:
        raise ValueError("sequence header needs len= and kind= fields")
    length = int(fields["len"])
    kind = fields["kind"]
    if kind == "binary":
        seq = Sequence.binary(fp.readline().strip())
        if seq.length != length:
            raise ValueError("sign string does not match the declared length")
        return seq
    if kind != "rational":
        raise ValueError(f"unknown sequence kind {kind!r}")
    rows = [fp.readline().split() for _ in range(length)]
    if all(len(row) == 2 and row[1] == "0/1" and row[0].endswith("/1") for row in rows):
        # Real integers, as write_sequence writes them: no Fraction needed.
        try:
            ints = [int(row[0][:-2]) for row in rows]
        except ValueError:  # malformed, or past the digit limit
            ints = [int(_parse_fraction(row[0])) for row in rows]
        return Sequence(ints, length)
    vals = []
    for row in rows:
        re_txt, im_txt = row
        vals.append(CQ(_parse_fraction(re_txt), _parse_fraction(im_txt)))
    return Sequence(vals, length)


def write_seed_pair(seed: SeedPair, fp: TextIO) -> None:
    fp.write(f"ell0={seed.ell0}\n")
    write_sequence(seed.x0, fp)
    write_sequence(seed.y0, fp)


def read_seed_pair(fp: TextIO) -> SeedPair:
    line = fp.readline().strip()
    if not line.startswith("ell0="):
        raise ValueError("seed file must start with an ell0= line")
    ell0 = int(line.split("=", 1)[1])
    x0 = read_sequence(fp)
    y0 = read_sequence(fp)
    return validate_seed(x0, y0, ell0)
