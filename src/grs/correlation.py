"""Brute-force correlation oracle: exact aperiodic and periodic
correlation, peak statistics, and demerit factors.

The aperiodic crosscorrelation of f with g at shift s is
C_{f,g}(s) = sum_j f_{j+s} * conj(g_j); the full spectrum is the
coefficient list of the Laurent polynomial f(z) * conj(g)(z).  These are
computed directly from the sequences (never from the fast recursion of
grs.fastscan, which is tested against this module), with exact integer,
rational, or complex-rational values throughout.  A spectrum is held the
way a Sequence is: integer numerator arrays, re and (unless all zero) im,
over one denominator.  Peak statistics work on those arrays, and the
exports format them a block of rows at a time, so neither builds a Python
value per shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import mul
from types import MappingProxyType

from . import np
from .convolve import abs2, convolve_int, exact_sum, int_array, lowest_terms, negated
from .qcomplex import as_cq, exact_magnitude, exact_value, int_text
from .sequences import Sequence, check_budget

__all__ = [
    "Spectrum",
    "ZeroLength",
    "ShiftOutOfRange",
    "crosscorr",
    "json_row",
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
_CSV_ROW = "%s,%s,%s,%s,%s\n"
# One row as json.dumps(rows, sort_keys=True) writes it: keys in sorted order.
_JSON_ORDER = sorted(range(len(_COLUMNS)), key=_COLUMNS.__getitem__)
_JSON_ROW = "{" + ", ".join(f'"{_COLUMNS[i]}": "%s"' for i in _JSON_ORDER) + "}"
# Rows formatted at a time: this bounds the Python ints an export holds.
_CHUNK = 1 << 11


@dataclass(frozen=True)
class Spectrum:
    """Exact correlation values by shift: C(offset + k) is
    (re[k] + i im[k]) / den for each index k of the arrays in ``parts``,
    ``(re,)`` or ``(re, im)``, and zero at every other shift.

    The arrays are read-only int64, or object (Python ints) past int64;
    ``im`` is absent when all zero, and ``den`` is positive.  Every shift
    with a nonzero value lies in (-support_bound, support_bound).
    """

    parts: tuple
    den: int
    offset: int
    support_bound: int

    def value(self, s: int):
        """C(s): an int when integral, a Fraction when real, else a CQ."""
        k = s - self.offset
        if not 0 <= k < self.parts[0].size:
            return 0
        return exact_value(self.den, *(int(part[k]) for part in self.parts))

    def _nonzero(self) -> np.ndarray:
        """Indices of the nonzero values, increasing."""
        mask = self.parts[0] != 0
        for im in self.parts[1:]:
            mask |= im != 0
        return np.flatnonzero(mask)

    def shifts(self) -> list[int]:
        return (self._nonzero() + self.offset).tolist()

    @cached_property
    def entries(self) -> MappingProxyType:
        """Read-only map shift -> C(s) over the nonzero values, with the
        types of ``value``; built on first access."""
        rows = self._nonzero()
        columns = [part[rows].tolist() for part in self.parts]
        values = columns[0] if self.den == 1 and len(columns) == 1 else map(
            partial(exact_value, self.den), *columns
        )
        return MappingProxyType(dict(zip((rows + self.offset).tolist(), values)))

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.entries == other.entries

    def _text_blocks(self, row: str, sep: str, order=range(len(_COLUMNS))):
        """The nonzero values in increasing shift, ``_CHUNK`` rows at a time:
        each row is the %-template ``row`` filled with the columns of
        _COLUMNS, in lowest terms, taken in ``order``; rows are joined by
        ``sep``.  Blocks past int64 go through ``int_text``, which has no
        digit limit."""
        rows = self._nonzero()
        for start in range(0, rows.size, _CHUNK):
            idx = rows[start : start + _CHUNK]
            columns = [idx + self.offset]
            for part in self.parts:
                columns += lowest_terms(part[idx], self.den)
            if len(self.parts) == 1:
                columns += [np.zeros(idx.size, dtype=np.int64), np.ones(idx.size, dtype=np.int64)]
            table = np.stack([columns[i] for i in order], axis=1)
            values = table.ravel().tolist()
            texts = values if table.dtype == np.int64 else map(int_text, values)
            yield sep.join([row] * idx.size) % tuple(texts)

    def to_csv(self) -> str:
        return "".join([",".join(_COLUMNS) + "\n", *self._text_blocks(_CSV_ROW, "")])

    def to_json(self) -> str:
        """The rows as json.dumps(rows, sort_keys=True) writes them."""
        return "[" + ", ".join(self._text_blocks(_JSON_ROW, ", ", _JSON_ORDER)) + "]"


def json_row(s: int, value) -> str:
    """The row of shift s with value ``value`` (an int, a Fraction or a
    CQ) as ``Spectrum.to_json`` writes it; a zero value has a row too."""
    v = as_cq(value)
    columns = (s, v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator)
    return _JSON_ROW % tuple(int_text(columns[i]) for i in _JSON_ORDER)


def crosscorr(f: Sequence, g: Sequence, s: int):
    """Single correlation value from the definition (an overlap sum)."""
    if abs(s) >= max(f.length, g.length):
        return 0
    lo = max(0, -s)
    hi = min(g.length, f.length - s)
    re, im = _numerators(
        lambda a, b: sum(map(mul, a[lo + s : hi + s].tolist(), b[lo:hi].tolist())), f, g
    )
    return exact_value(f.den * g.den, re, im)


def _numerators(prod, f: Sequence, g: Sequence) -> tuple:
    """Numerators (re, im) of f * conj(g) over f.den * g.den, from
    ``prod``, the product of one part of f with one part of conj(g):
    re = fre gre + fim gim and im = fim gre + fre (-gim).  Products with an
    absent part are skipped, so two real sequences take one product and
    give im = None."""
    (fre, *fim), (gre, *gim) = f.parts, g.parts
    re = prod(fre, gre)
    if fim and gim:
        re = exact_sum(re, prod(fim[0], gim[0]))
    im = prod(fim[0], gre) if fim else None
    if gim:
        ri = prod(fre, negated(gim[0]))
        im = ri if im is None else exact_sum(im, ri)
    return re, im


def spectrum(f: Sequence, g: Sequence, budget: int | None = None) -> Spectrum:
    """Full crosscorrelation spectrum of (f, g), i.e. f(z) * conj(g)(z),
    by exact integer convolution of the numerator arrays: one convolution
    for two real sequences, up to four for complex ones."""
    check_budget(f.length + g.length - 1, budget, "spectrum")
    re, im = _numerators(lambda a, b: convolve_int(a, b[::-1]), f, g)
    parts = [int_array(re)] + ([int_array(im)] if im is not None and im.any() else [])
    for part in parts:
        part.flags.writeable = False
    return Spectrum(tuple(parts), f.den * g.den, 1 - g.length, max(f.length, g.length))


def _peak(spec: Spectrum, first: int | None = None) -> tuple[object, list[int]]:
    """Maximum |value| over the shifts from ``first`` on (every shift when
    None), compared by exact squared modulus, and the sorted list of shifts
    attaining it."""
    start = 0 if first is None else max(0, first - spec.offset)
    sq = abs2([part[start:] for part in spec.parts])
    best = sq.max(initial=0)
    if not best:
        return 0, []
    shifts = (np.flatnonzero(sq == best) + spec.offset + start).tolist()
    return exact_magnitude(spec.value(shifts[0])), shifts


def pcc(f: Sequence, g: Sequence):
    """Peak crosscorrelation: (max |C_{f,g}(s)|, all attaining shifts)."""
    return _peak(spectrum(f, g))


def psl(f: Sequence):
    """Peak sidelobe level: (max |C_{f,f}(s)| over s != 0, attaining shifts).

    Only positive shifts are reported; the negative mirror follows from
    conjugate symmetry of the autocorrelation.
    """
    if f.length == 0:
        raise ZeroLength("cannot take the peak sidelobe of an empty sequence")
    return _peak(spectrum(f, f), 1)


def periodic_corr(f: Sequence, g: Sequence, k: int, s: int):
    """Periodic crosscorrelation at shift s for period k:
    C_{f,g}(s) + C_{f,g}(s - k)."""
    if not (0 <= s < k):
        raise ShiftOutOfRange(f"shift {s} not in [0, {k})")
    if f.length > k or g.length > k:
        raise ValueError("period must be at least the sequence lengths")
    return crosscorr(f, g, s) + crosscorr(f, g, s - k)


def _sum_abs2(values: Spectrum | Sequence) -> Fraction:
    """Sum of |v|^2 over the values of a spectrum or a sequence (its
    energy), exactly."""
    return Fraction(sum(abs2(values.parts).tolist()), values.den**2)


def demerit_auto(f: Sequence) -> Fraction:
    """Sum of squared autocorrelation magnitudes off the peak, normalized
    by the squared zero-shift value."""
    if f.is_zero:
        raise ZeroLength("demerit factor of the zero sequence is undefined")
    e2 = _sum_abs2(f) ** 2  # |C(0)|^2: C(0) is the energy of f
    return (_sum_abs2(spectrum(f, f)) - e2) / e2


def demerit_cross(f: Sequence, g: Sequence) -> Fraction:
    """Sum of squared crosscorrelation magnitudes over all shifts,
    normalized by the product of the zero-shift autocorrelations."""
    if f.is_zero or g.is_zero:
        raise ZeroLength("demerit factor needs nonzero sequences")
    num = _sum_abs2(spectrum(f, g))
    return num / (_sum_abs2(f) * _sum_abs2(g))
