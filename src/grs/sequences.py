"""Finitely supported sequences as exact-coefficient polynomials, and the
doubling recursion that generates Golay complementary pairs from a seed.

A sequence (f_0, ..., f_{l-1}) is identified with the polynomial
sum f_j z^j; coefficients are exact complex rationals, with a flagged
fast path for all +/-1 (binary) sequences.  The recursion step maps a
pair (x, y) of equal declared length l to

    x' = x + z^l * y,      y' = x - z^l * y,

which doubles the length and preserves Golay complementarity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, TextIO

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


class Sequence:
    """Immutable sequence with a declared support bound ``length``.

    ``coeffs`` holds exactly ``length`` entries: small ints on the binary
    fast path, CQ values otherwise.  Equality and hashing treat sequences
    as polynomials (the declared length does not matter, trailing zeros
    are ignored).
    """

    __slots__ = ("coeffs", "length", "is_binary", "_key")

    def __init__(self, values: Iterable, length: int | None = None):
        vals = [self._coerce(v) for v in values]
        if length is None:
            length = len(vals)
        if length < len(vals):
            raise ValueError("declared length smaller than the coefficient list")
        vals.extend([CQ()] * (length - len(vals)))
        binary = bool(vals) and all(isinstance(v, int) for v in vals)
        object.__setattr__(self, "coeffs", tuple(vals))
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "is_binary", binary)
        key = list(vals)
        while key and not key[-1]:
            key.pop()
        object.__setattr__(self, "_key", tuple(as_cq(v) for v in key))

    @staticmethod
    def _coerce(v):
        if isinstance(v, int) and v in (1, -1):
            return v
        c = as_cq(v)
        if c.is_integer and c.re in (1, -1):
            return int(c.re)
        return c

    def __setattr__(self, *args):
        raise AttributeError("Sequence is immutable")

    @classmethod
    def binary(cls, signs) -> "Sequence":
        """Build an all +/-1 sequence from a '+-' string or an iterable of signs."""
        if isinstance(signs, str):
            vals = []
            for ch in signs.strip():
                if ch == "+":
                    vals.append(1)
                elif ch == "-":
                    vals.append(-1)
                else:
                    raise ValueError(f"unexpected character {ch!r} in sign string")
        else:
            vals = [int(v) for v in signs]
            if any(v not in (1, -1) for v in vals):
                raise ValueError("binary sequences take only +1/-1 entries")
        return cls(vals)

    # -- views -------------------------------------------------------------

    def value_at(self, j: int):
        if 0 <= j < self.length:
            return self.coeffs[j]
        return 0

    def cq_coeffs(self) -> tuple[CQ, ...]:
        return tuple(as_cq(v) for v in self.coeffs)

    def int_coeffs(self) -> list[int] | None:
        """All coefficients as real ints, or None if any is not."""
        out = []
        for v in self.coeffs:
            if isinstance(v, int):
                out.append(v)
            elif v.is_integer:
                out.append(int(v.re))
            else:
                return None
        return out

    @property
    def is_int_real(self) -> bool:
        return self.int_coeffs() is not None

    @property
    def is_rational_real(self) -> bool:
        return all(isinstance(v, int) or v.is_real for v in self.coeffs)

    @property
    def degree(self) -> int:
        """Degree as a polynomial; -1 for the zero sequence."""
        return len(self._key) - 1

    @property
    def is_zero(self) -> bool:
        return not self._key

    def sign_string(self) -> str:
        if not self.is_binary:
            raise ValueError("not a binary sequence")
        return "".join("+" if v == 1 else "-" for v in self.coeffs)

    def __len__(self):
        return self.length

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

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


def _padded(seq: Sequence, length: int) -> list:
    if seq.length == length:
        return list(seq.coeffs)
    return list(seq.coeffs) + [CQ()] * (length - seq.length)


def grs_step(pair: GolayPair) -> GolayPair:
    """One doubling step: (x, y) -> (x + z^l y, x - z^l y)."""
    ell = pair.length
    if pair.x.is_binary and pair.y.is_binary and pair.x.length == pair.y.length == ell:
        xs = list(pair.x.coeffs)
        ys = list(pair.y.coeffs)
        new_x = Sequence(xs + ys)
        new_y = Sequence(xs + [-v for v in ys])
    else:
        xs = _padded(pair.x, ell)
        ys = [as_cq(v) for v in _padded(pair.y, ell)]
        new_x = Sequence(xs + ys)
        new_y = Sequence(xs + [-v for v in ys])
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


def write_sequence(seq: Sequence, fp: TextIO) -> None:
    if seq.is_binary:
        fp.write(f"len={seq.length} kind=binary\n")
        fp.write(seq.sign_string() + "\n")
        return
    fp.write(f"len={seq.length} kind=rational\n")
    for v in seq.cq_coeffs():
        fp.write(
            f"{v.re.numerator}/{v.re.denominator} "
            f"{v.im.numerator}/{v.im.denominator}\n"
        )


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
    vals = []
    for _ in range(length):
        re_txt, im_txt = fp.readline().split()
        vals.append(CQ(Fraction(re_txt), Fraction(im_txt)))
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
