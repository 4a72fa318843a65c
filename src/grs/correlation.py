"""Brute-force correlation oracle: exact aperiodic and periodic
correlation, peak statistics, and demerit factors.

The aperiodic crosscorrelation of f with g at shift s is
C_{f,g}(s) = sum_j f_{j+s} * conj(g_j); the full spectrum is the
coefficient list of the Laurent polynomial f(z) * conj(g)(z).  These are
computed directly from the sequences (never from the fast recursion of
grs.fastscan, which is tested against this module), with exact integer,
rational, or complex-rational values throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul

import numpy as np

from .convolve import convolve_int
from .qcomplex import CQ, as_cq, exact_magnitude, value_abs2, value_re_im
from .sequences import BudgetExceeded, Sequence, coefficient_budget, int_text

__all__ = [
    "Spectrum",
    "ZeroLength",
    "ShiftOutOfRange",
    "crosscorr",
    "spectrum",
    "pcc",
    "psl",
    "periodic_corr",
    "demerit_auto",
    "demerit_cross",
]


class ZeroLength(ValueError):
    """Peak statistics of an empty sequence are undefined."""


class ShiftOutOfRange(ValueError):
    """Periodic correlation shift outside [0, period)."""


# Export columns: the shift, then the real and imaginary parts as fractions.
_COLUMNS = ("shift", "re_num", "re_den", "im_num", "im_den")


@dataclass(frozen=True)
class Spectrum:
    """Sparse map shift -> exact correlation value, zero outside (-L, L)."""

    entries: dict
    support_bound: int

    def value(self, s: int):
        return self.entries.get(s, 0)

    def shifts(self) -> list[int]:
        return sorted(self.entries)

    def items_sorted(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        mine = {s: as_cq(v) for s, v in self.entries.items()}
        theirs = {s: as_cq(v) for s, v in other.entries.items()}
        return mine == theirs

    def _text_rows(self):
        """Every entry as the texts of its shift and four integers, through
        ``int_text``: the export path for values past the digit limit."""
        for s, v in self.items_sorted():
            re, im = value_re_im(v)
            yield (str(s), *map(int_text, (re.numerator, re.denominator,
                                           im.numerator, im.denominator)))

    def to_csv(self) -> str:
        lines = [",".join(_COLUMNS)]
        try:
            for s, v in self.items_sorted():
                if isinstance(v, int):
                    lines.append(f"{s},{v},1,0,1")
                    continue
                re, im = value_re_im(v)
                lines.append(
                    f"{s},{re.numerator},{re.denominator},{im.numerator},{im.denominator}"
                )
        except ValueError:  # an int past the interpreter's int-to-text digit limit
            lines[1:] = map(",".join, self._text_rows())
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        rows = []
        try:
            for s, v in self.items_sorted():
                if isinstance(v, int):
                    rows.append(
                        {"shift": str(s), "re_num": str(v), "re_den": "1",
                         "im_num": "0", "im_den": "1"}
                    )
                    continue
                re, im = value_re_im(v)
                rows.append(
                    {
                        "shift": str(s),
                        "re_num": str(re.numerator),
                        "re_den": str(re.denominator),
                        "im_num": str(im.numerator),
                        "im_den": str(im.denominator),
                    }
                )
        except ValueError:  # an int past the interpreter's int-to-text digit limit
            rows = [dict(zip(_COLUMNS, row)) for row in self._text_rows()]
        return json.dumps(rows, sort_keys=True)


def crosscorr(f: Sequence, g: Sequence, s: int):
    """Single correlation value from the definition (an overlap sum)."""
    if abs(s) >= max(f.length, g.length):
        return 0
    lo = max(0, -s)
    hi = min(g.length, f.length - s)
    re, im = _numerators(
        lambda a, b: sum(map(mul, a[lo + s : hi + s].tolist(), b[lo:hi].tolist())), f, g
    )
    return _exact_value(f.den * g.den, re, im)


def _numerators(prod, f: Sequence, g: Sequence) -> tuple:
    """Numerators (re, im) of f * conj(g) over f.den * g.den, from
    ``prod``, the product of one part of f with one part of g:
    re = fre gre + fim gim and im = fim gre - fre gim.  Products with an
    absent part are skipped, so two real sequences take one product and
    give im = None."""
    (fre, *fim), (gre, *gim) = f.parts, g.parts
    re = prod(fre, gre)
    if fim and gim:
        re = np.add(re, prod(fim[0], gim[0]), dtype=object)
    im = prod(fim[0], gre) if fim else None
    if gim:
        ri = prod(fre, gim[0])
        im = np.negative(ri, dtype=object) if im is None else np.subtract(im, ri, dtype=object)
    return re, im


def _exact_value(den: int, re: int, im: int | None = None):
    """(re + i im) / den: an int when integral, a Fraction when real, else
    a CQ."""
    if im:
        return CQ(Fraction(re, den), Fraction(im, den))
    if den == 1:
        return re
    v = Fraction(re, den)
    return int(v) if v.denominator == 1 else v


def _spectrum_values(f: Sequence, g: Sequence) -> dict:
    """All nonzero C_{f,g}(s) via exact integer convolution of the
    numerator arrays: one convolution for two real sequences, up to four
    for complex ones."""
    offset = g.length - 1
    re, im = _numerators(lambda a, b: convolve_int(a, b[::-1]), f, g)
    den = f.den * g.den
    if im is None and den == 1:
        return {k - offset: v for k, v in enumerate(re) if v}
    pairs = enumerate(zip(re, repeat(0) if im is None else im))
    return {k - offset: _exact_value(den, r, i) for k, (r, i) in pairs if r or i}


def spectrum(f: Sequence, g: Sequence, budget: int | None = None) -> Spectrum:
    """Full crosscorrelation spectrum of (f, g), i.e. f(z) * conj(g)(z)."""
    cap = coefficient_budget(budget)
    if f.length + g.length - 1 > cap:
        raise BudgetExceeded(
            f"spectrum needs {f.length + g.length - 1} entries, budget is {cap}"
        )
    return Spectrum(_spectrum_values(f, g), max(f.length, g.length))


def _peak(entries: dict) -> tuple[object, list[int]]:
    """Maximum |value| (compared by exact squared modulus) and the sorted
    list of shifts attaining it."""
    if all(isinstance(v, int) for v in entries.values()):
        best = max(map(abs, entries.values()), default=0)
        if best == 0:
            return 0, []
        return best, sorted(s for s, v in entries.items() if abs(v) == best)
    best_sq = Fraction(0)
    shifts: list[int] = []
    for s, v in entries.items():
        sq = value_abs2(v)
        if sq > best_sq:
            best_sq = sq
            shifts = [s]
        elif sq == best_sq and sq > 0:
            shifts.append(s)
    if not shifts:
        return 0, []
    shifts.sort()
    return exact_magnitude(entries[shifts[0]]), shifts


def pcc(f: Sequence, g: Sequence):
    """Peak crosscorrelation: (max |C_{f,g}(s)|, all attaining shifts)."""
    return _peak(spectrum(f, g).entries)


def psl(f: Sequence):
    """Peak sidelobe level: (max |C_{f,f}(s)| over s != 0, attaining shifts).

    Only positive shifts are reported; the negative mirror follows from
    conjugate symmetry of the autocorrelation.
    """
    if f.length == 0:
        raise ZeroLength("cannot take the peak sidelobe of an empty sequence")
    entries = {
        s: v for s, v in spectrum(f, f).entries.items() if s > 0
    }
    return _peak(entries)


def periodic_corr(f: Sequence, g: Sequence, k: int, s: int):
    """Periodic crosscorrelation at shift s for period k:
    C_{f,g}(s) + C_{f,g}(s - k)."""
    if not (0 <= s < k):
        raise ShiftOutOfRange(f"shift {s} not in [0, {k})")
    if f.length > k or g.length > k:
        raise ValueError("period must be at least the sequence lengths")
    a = crosscorr(f, g, s)
    b = crosscorr(f, g, s - k)
    return as_cq(a) + as_cq(b) if isinstance(a, CQ) or isinstance(b, CQ) else a + b


def _sum_abs2(values) -> Fraction:
    """Sum of |v|^2, in integers when every value is an int."""
    vals = list(values)
    if all(isinstance(v, int) for v in vals):
        return Fraction(sum(v * v for v in vals))
    return sum(map(value_abs2, vals), Fraction(0))


def _energy(f: Sequence) -> Fraction:
    e = as_cq(crosscorr(f, f, 0))
    return e.re


def demerit_auto(f: Sequence) -> Fraction:
    """Sum of squared autocorrelation magnitudes off the peak, normalized
    by the squared zero-shift value."""
    if f.is_zero:
        raise ZeroLength("demerit factor of the zero sequence is undefined")
    entries = spectrum(f, f).entries
    num = _sum_abs2(v for s, v in entries.items() if s != 0)
    e = _energy(f)
    return num / (e * e)


def demerit_cross(f: Sequence, g: Sequence) -> Fraction:
    """Sum of squared crosscorrelation magnitudes over all shifts,
    normalized by the product of the zero-shift autocorrelations."""
    if f.is_zero or g.is_zero:
        raise ZeroLength("demerit factor needs nonzero sequences")
    num = _sum_abs2(spectrum(f, g).entries.values())
    return num / (_energy(f) * _energy(g))
