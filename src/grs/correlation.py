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
from math import lcm
from operator import mul

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
    fi = f.int_coeffs()
    gi = g.int_coeffs()
    lo = max(0, -s)
    hi = min(g.length, f.length - s)
    if fi is not None and gi is not None:
        return sum(map(mul, fi[lo + s : hi + s].tolist(), gi[lo:hi].tolist()))
    fre, fim, fd = _scaled_parts(f.cq_coeffs()[lo + s : hi + s])
    gre, gim, gd = _scaled_parts(g.cq_coeffs()[lo:hi])
    return _exact_value(
        sum(map(mul, fre, gre)), sum(map(mul, fim, gim)),
        sum(map(mul, fim, gre)), sum(map(mul, fre, gim)), fd, gd,
    )


def _scaled_ints(values: list[Fraction]) -> tuple[list[int], int]:
    d = lcm(*(v.denominator for v in values)) if values else 1
    return [v.numerator * (d // v.denominator) for v in values], d


def _scaled_parts(values) -> tuple[list[int], list[int], tuple[int, int]]:
    """Real and imaginary parts of CQ values as integers over one common
    denominator each: (re, im, (d_re, d_im))."""
    re, d_re = _scaled_ints([v.re for v in values])
    im, d_im = _scaled_ints([v.im for v in values])
    return re, im, (d_re, d_im)


def _exact_value(rr: int, ii: int, ir: int, ri: int, fd: tuple, gd: tuple):
    """sum f * conj(g) = sum (fre + i fim)(gre - i gim), from the four sums
    of products of scaled parts and the (d_re, d_im) denominators of f and
    g: an int when integral, a Fraction when real, else a CQ."""
    (df_re, df_im), (dg_re, dg_im) = fd, gd
    re = Fraction(rr, df_re * dg_re) + Fraction(ii, df_im * dg_im)
    im = Fraction(ir, df_im * dg_re) - Fraction(ri, df_re * dg_im)
    if im:
        return CQ(re, im)
    return int(re) if re.denominator == 1 else re


def _spectrum_values(f: Sequence, g: Sequence) -> dict:
    """All nonzero C_{f,g}(s) via exact integer convolution.

    Rational coefficients are scaled to integers first; complex ones are
    split into four real convolutions.
    """
    offset = g.length - 1
    fi = f.int_coeffs()
    gi = g.int_coeffs()
    if fi is not None and gi is not None:
        conv = convolve_int(fi, gi[::-1])
        return {k - offset: v for k, v in enumerate(conv) if v}
    fre, fim, fd = _scaled_parts(f.cq_coeffs())
    gre, gim, gd = _scaled_parts(g.cq_coeffs())
    rr = convolve_int(fre, gre[::-1])
    ii = convolve_int(fim, gim[::-1])
    ir = convolve_int(fim, gre[::-1])
    ri = convolve_int(fre, gim[::-1])
    out = {}
    for k in range(f.length + g.length - 1):
        v = _exact_value(rr[k], ii[k], ir[k], ri[k], fd, gd)
        if v:
            out[k - offset] = v
    return out


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
