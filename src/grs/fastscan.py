"""Low-memory computation of crosscorrelation values and peaks.

Correlation values of a level-n pair can be read off from the spectra of
two much earlier levels: writing a shift as s = q * L + r with
L = ell_{n-t+1} and 0 <= r < L,

    C_n(s) = A_{t,q} C_{n-t}(r - ell_{n-t})
           + B_{t,q} conj(C_{n-t}(ell_{n-t} - r))
           + Gamma_{t,q} C_{n-t-1}(r - 3 ell_{n-t-1})
           + Delta_{t,q} conj(C_{n-t-1}(ell_{n-t-1} - r)),

where the four integer coefficient families A, B, Gamma, Delta satisfy a
parity-split recursion in t (see ``abgd``).  Scanning all shifts this way
needs O(2^{n-t} + 2^t) memory instead of materializing length-2^n
sequences, so peak crosscorrelation and peak sidelobe level stay
computable far beyond the sizes where sequences fit in memory.

Every level is held as Gaussian integers: the correlations of the seed
times d^2, where d = lcm(x0.den, y0.den) clears every denominator of the
seed.  A level is then one integer array for a real seed, or two, re and
im, for a complex one.  Within one block of shifts sharing q the four
table coefficients are constant, so one evaluator (``_block_values``)
computes whole blocks as combinations of views of the level arrays; the
coefficients are real, so the imaginary part is the same sum with the
signs of the two conjugated terms flipped.
Dense levels evaluate every block at once; the peak scan visits blocks in
decreasing order of the per-block bound and stops once no remaining block
can reach the best value found, comparing squared magnitudes for complex
seeds.  Every level and every block whose exact bound exceeds int64 is
computed with Python integers (object dtype) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, lcm

import numpy as np

from . import correlation
from .convolve import INT64_MAX, abs_max
from .qcomplex import exact_magnitude, value_conj
from .sequences import (
    BudgetExceeded,
    SeedPair,
    Sequence,
    _fitted,
    _scaled,
    coefficient_budget,
    grs_pair,
)

__all__ = [
    "AbgdTable",
    "PeakReport",
    "LevelTooSmall",
    "ShiftZero",
    "abgd",
    "coeff_by_iteration",
    "iter_spectrum",
    "coeff_by_geoff",
    "streaming_peaks",
    "psl_report",
    "nellie_bound",
    "derrel_bound",
    "clear_caches",
]


class LevelTooSmall(ValueError):
    """The recursion step count does not satisfy 0 < t < n."""


class ShiftZero(ValueError):
    """The two-level rule does not cover shift zero."""


@dataclass(frozen=True)
class AbgdTable:
    """The four coefficient families at step count t, supported on
    j in [-2^(t-1), 2^(t-1))."""

    t: int
    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    d: np.ndarray

    @property
    def offset(self) -> int:
        return 1 << (self.t - 1)

    def entry(self, j: int) -> tuple[int, int, int, int]:
        """(A, B, Gamma, Delta) at index j; zero outside the support."""
        idx = j + self.offset
        if not 0 <= idx < self.a.size:
            return (0, 0, 0, 0)
        return (int(self.a[idx]), int(self.b[idx]), int(self.g[idx]), int(self.d[idx]))


_abgd_cache: list[AbgdTable] = []


def abgd(t: int) -> AbgdTable:
    """Coefficient tables at step count t >= 1.

    Base: A_{1,-1} = -1, B_{1,0} = 1, Gamma_{1,-1} = 2, Delta_{1,0} = 2.
    Step (even j uses index j/2, odd j uses (j-1)/2 of the previous row):
    A' = -A + B | Gamma;  B' = Delta | A - B;  Gamma' = 2A + 2B | 0;
    Delta' = 0 | 2A + 2B.
    """
    if t < 1:
        raise ValueError("step count must be at least 1")
    if not _abgd_cache:
        mk = lambda pairs: np.array(pairs, dtype=np.int64)
        _abgd_cache.append(
            AbgdTable(1, mk([-1, 0]), mk([0, 1]), mk([2, 0]), mk([0, 2]))
        )
    while len(_abgd_cache) < t:
        prev = _abgd_cache[-1]
        size = 2 * prev.a.size
        a = np.zeros(size, dtype=np.int64)
        b = np.zeros(size, dtype=np.int64)
        g = np.zeros(size, dtype=np.int64)
        d = np.zeros(size, dtype=np.int64)
        a[0::2] = -prev.a + prev.b
        a[1::2] = prev.g
        b[0::2] = prev.d
        b[1::2] = prev.a - prev.b
        g[0::2] = 2 * prev.a + 2 * prev.b
        d[1::2] = 2 * prev.a + 2 * prev.b
        for arr in (a, b, g, d):
            arr.flags.writeable = False
        _abgd_cache.append(AbgdTable(prev.t + 1, a, b, g, d))
    return _abgd_cache[t - 1]


# ---------------------------------------------------------------------------
# Cached dense crosscorrelation spectra per level.
#
# Level k holds d^2 C_k(s) for s in (-ell_k, ell_k), d^2 = ``_scale(seed)``,
# as a tuple of integer arrays: (re,) for a real seed, (re, im) for a
# complex one; ``correlation._exact_value`` maps their entries back.
# Levels 0 and 1 come from the oracle on the (small) materialized pairs,
# higher levels from the t = 1 instance of the coefficient formula, one
# O(ell_k) pass each.

_int_levels: dict[tuple[SeedPair, int], tuple[np.ndarray, ...]] = {}


def clear_caches() -> None:
    _abgd_cache.clear()
    _int_levels.clear()
    _geoff_memo.clear()
    _peak_cache.clear()
    _block.cache_clear()


def _scale(seed: SeedPair) -> int:
    """d^2 for the lcm d of the seed's denominators: d^2 times every
    correlation of the seed is a Gaussian integer."""
    return lcm(seed.x0.den, seed.y0.den) ** 2


def _oracle_level(seed: SeedPair, k: int) -> tuple[np.ndarray, ...]:
    pair = grs_pair(seed, k)
    # Both members fitted to length ell_k (a seed member may be declared
    # shorter or longer), so the spectrum's arrays hold -ell_k < s < ell_k;
    # spec.den = x.den * y.den divides d^2.
    x, y = (Sequence._of(tuple(_fitted(p, pair.length) for p in s.parts), s.den)
            for s in (pair.x, pair.y))
    spec = correlation.spectrum(x, y)
    parts = [_scaled(part, _scale(seed) // spec.den) for part in spec.parts]
    count = 1 if seed.is_rational else 2
    return (*parts, *[np.zeros(parts[0].size, dtype=np.int64)] * (count - len(parts)))


def _int_level(seed: SeedPair, k: int) -> tuple[np.ndarray, ...]:
    key = (seed, k)
    level = _int_levels.get(key)
    if level is None:
        level = _oracle_level(seed, k) if k <= 1 else _dense_int(seed, k, 1)
        for part in level:
            part.flags.writeable = False
        _int_levels[key] = level
    return level


def _peak_abs(level: tuple[np.ndarray, ...]) -> int:
    """The least integer at or above every |C_k(s)| of a level: the largest
    |re| of a real level, the ceiling of the square root of the largest
    re^2 + im^2 of a complex one."""
    tops = [abs_max(part) for part in level]
    if len(level) == 1:
        return tops[0]
    if sum(m * m for m in tops) > INT64_MAX:
        level = tuple(part.astype(object) for part in level)
    re, im = level
    sq = int((re * re + im * im).max(initial=0))
    root = isqrt(sq)
    return root + (root * root < sq)


def _block_bounds(tables: AbgdTable, m_nt: int, m_nt1: int) -> np.ndarray:
    """Per-block bound (|A_q| + |B_q|) m_nt + max(|Gamma_q|, |Delta_q|) m_nt1,
    the maximum over r of ``nellie_bound`` for the peak magnitudes m_nt and
    m_nt1 of levels n-t and n-t-1.

    The Gamma and Delta terms read disjoint remainder windows, so the bound
    also caps every partial sum of the four-term formula in its block, in
    the real and in the imaginary part: a block whose bound fits int64
    evaluates without wraparound.  The bounds come back as Python integers
    (object dtype) when one would not fit.
    """
    ab = np.abs(tables.a) + np.abs(tables.b)
    gd = np.maximum(np.abs(tables.g), np.abs(tables.d))
    if int(ab.max()) * m_nt + int(gd.max()) * m_nt1 > INT64_MAX:
        ab, gd = ab.astype(object), gd.astype(object)
    return ab * m_nt + gd * m_nt1


def _block_values(a, b, g, d, level_nt, level_nt1, bound) -> tuple[np.ndarray, ...]:
    """C_n(q * L + r) for r = 1 .. L-1 (index u = r - 1) on block q, with
    L = 2 * ell_{n-t}: A V1 + B conj(V2) + Gamma V3 + Delta conj(V4), where

        V1 = C_{n-t}(r - ell_{n-t}),        V2 = C_{n-t}(ell_{n-t} - r),
        V3 = C_{n-t-1}(r - 3 ell_{n-t-1}),  V4 = C_{n-t-1}(ell_{n-t-1} - r).

    For r >= 1 these are the level arrays themselves: V1 and V2 are the
    level n-t spectrum forwards and reversed, V4 the level n-t-1 spectrum
    reversed on r < ell_{n-t} and V3 the same spectrum forwards on
    r > ell_{n-t}.  (All four vanish at r = 0.)

    (a, b, g, d) are the block's table entries, or columns of entries, to
    evaluate one block per row by broadcasting.  The coefficients are
    real, so the imaginary part of a complex level is the same sum over
    the im arrays with the signs of B and Delta flipped.  ``bound`` caps
    every partial sum (see ``_block_bounds``); past int64 the levels are
    evaluated as Python integers.  Returns one array per part of the level.
    """
    half = level_nt1[0].size  # ell_{n-t} - 1
    out = []
    for c_nt, c_nt1 in zip(level_nt, level_nt1):
        if bound > INT64_MAX:
            c_nt, c_nt1 = c_nt.astype(object), c_nt1.astype(object)
        vals = a * c_nt + b * c_nt[::-1]
        if np.any(d):
            vals[..., :half] += d * c_nt1[::-1]
        if np.any(g):
            vals[..., half + 1 :] += g * c_nt1
        out.append(vals)
        b, d = -b, -d
    return tuple(out)


def _dense_int(seed: SeedPair, n: int, t: int) -> tuple[np.ndarray, ...]:
    """Level n from the levels n-t and n-t-1:
    every block at once, one per row, each row followed by the zero at
    r = 0 of the next block.  Python integers (object dtype) when some
    value could leave int64."""
    lv1, lv2 = _split_levels(seed, n, t)
    tables = abgd(t)
    level_nt, level_nt1 = _int_level(seed, lv1), _int_level(seed, lv2)
    bound = _block_bounds(tables, _peak_abs(level_nt), _peak_abs(level_nt1)).max()
    cols = (col[:, None] for col in (tables.a, tables.b, tables.g, tables.d))
    blocks = _block_values(*cols, level_nt, level_nt1, bound)
    return tuple(np.pad(v, ((0, 0), (0, 1))).reshape(-1)[:-1] for v in blocks)


def _split_levels(seed: SeedPair, n: int, t: int) -> tuple[int, int]:
    if not 0 < t < n:
        raise LevelTooSmall(f"need 0 < t < n, got t={t}, n={n}")
    return n - t, n - t - 1


@lru_cache(maxsize=1)
def _block(seed: SeedPair, n: int, t: int, q: int) -> tuple[np.ndarray, ...]:
    """Block q of level n (``_block_values``).
    The last block is kept: single lookups tend to come in runs of nearby
    shifts."""
    lv1, lv2 = _split_levels(seed, n, t)
    level_nt, level_nt1 = _int_level(seed, lv1), _int_level(seed, lv2)
    a, b, g, d = abgd(t).entry(q)
    m_nt, m_nt1 = _peak_abs(level_nt), _peak_abs(level_nt1)
    bound = (abs(a) + abs(b)) * m_nt + max(abs(g), abs(d)) * m_nt1
    return _block_values(a, b, g, d, level_nt, level_nt1, bound)


def coeff_by_iteration(seed: SeedPair, n: int, t: int, s: int):
    """C_{x_n, y_n}(s), entry r of block q for s = q * L + r, from the
    cached level n-t and n-t-1 spectra."""
    lv1, _ = _split_levels(seed, n, t)
    q, r = divmod(s, 2 * (seed.ell0 << lv1))
    vals = _block(seed, n, t, q)
    return correlation._exact_value(_scale(seed), *(int(v[r - 1]) if r else 0 for v in vals))


def iter_spectrum(seed: SeedPair, n: int, t: int) -> np.ndarray:
    """All C_{x_n, y_n}(s) for s in (-ell_n, ell_n), via the level split;
    integer-valued seeds only (vectorized)."""
    if not seed.is_int:
        raise ValueError("vectorized spectra need integer-valued seeds")
    return _dense_int(seed, n, t)[0]


# ---------------------------------------------------------------------------
# Single coefficients from the two-level sign-of-s rule.

_geoff_memo: dict[tuple[SeedPair, int, int], object] = {}


def coeff_by_geoff(seed: SeedPair, n: int, s: int):
    """C_{x_n, y_n}(s) for s != 0 via the two-level piecewise rule:

        s > 0:  conj(C_{n-1}(ell_{n-1} - s)) + 2 conj(C_{n-2}(ell_{n-2} - s))
        s < 0:  -C_{n-1}(ell_{n-1} + s) + 2 C_{n-2}(ell_{n-2} + s)

    Shift zero is not covered by the rule; for n >= 2 the value there is
    always zero, and callers use that (or the oracle) directly.
    """
    if n < 2:
        raise LevelTooSmall("the two-level rule needs n >= 2")
    if s == 0:
        raise ShiftZero("shift zero is not covered; it is 0 for n >= 2")
    return _geoff_value(seed, n, s)


def _geoff_value(seed: SeedPair, n: int, s: int):
    ell = seed.ell0 << n
    if abs(s) >= ell:
        return 0
    if n <= 1:
        parts = (int(p[s + ell - 1]) for p in _int_level(seed, n))
        return correlation._exact_value(_scale(seed), *parts)
    if s == 0:
        return 0
    key = (seed, n, s)
    cached = _geoff_memo.get(key)
    if cached is not None:
        return cached
    half = ell >> 1
    quarter = ell >> 2
    if s > 0:
        value = value_conj(_geoff_value(seed, n - 1, half - s)) + 2 * value_conj(
            _geoff_value(seed, n - 2, quarter - s)
        )
    else:
        value = -_geoff_value(seed, n - 1, half + s) + 2 * _geoff_value(
            seed, n - 2, quarter + s
        )
    _geoff_memo[key] = value
    return value


# ---------------------------------------------------------------------------
# Streaming peak scan.


@dataclass(frozen=True)
class PeakReport:
    """Peak magnitude at one level with every attaining shift and its
    signed value, sorted by shift."""

    level: int
    value: object
    witnesses: tuple

    def as_json_dict(self, value_key: str) -> dict:
        return {
            "n": self.level,
            value_key: str(self.value),
            "witnesses": [
                {"shift": str(s), "value": str(v)} for s, v in self.witnesses
            ],
        }


def _report(level: int, spec: correlation.Spectrum, first: int | None = None) -> PeakReport:
    """The oracle's peak of ``spec`` over the shifts from ``first`` on."""
    value, shifts = correlation._peak(spec, first)
    return PeakReport(level, value, tuple((s, spec.value(s)) for s in shifts))


def _psl_from_pcc(pcc_rep: PeakReport, ell_n: int) -> PeakReport:
    """Map a level-n crosscorrelation peak to the level-(n+1) sidelobe
    peak: the autocorrelation at positive shift s equals
    conj(C_n(ell_n - s))."""
    mapped = sorted(
        (ell_n - s, value_conj(v)) for s, v in pcc_rep.witnesses
    )
    return PeakReport(pcc_rep.level + 1, pcc_rep.value, tuple(mapped))


def streaming_peaks(
    seed: SeedPair,
    n: int,
    t_split: int | None = None,
    budget: int | None = None,
) -> tuple[PeakReport, PeakReport]:
    """Peak crosscorrelation of the level-n pair by a bound-pruned block
    scan over two cached low-level spectra (see ``_block_peak``), plus the
    derived peak sidelobe report for level n+1.

    The default split t = floor(n/2) balances the two memory terms; any
    split with 0 < t < n gives identical output.  Levels 0..2 fall back
    to the oracle on the materialized pair.  The peak value is |v| of the
    first witness v; a properly complex v, whose magnitude is in general
    irrational, raises ValueError.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n <= 2:
        pair = grs_pair(seed, n, budget=budget)
        rep = _report(n, correlation.spectrum(pair.x, pair.y))
        return rep, _psl_from_pcc(rep, seed.ell0 << n)

    t = t_split if t_split is not None else max(1, n // 2)
    lv1, lv2 = _split_levels(seed, n, t)
    cap = coefficient_budget(budget)
    need = 4 * (seed.ell0 << lv1) * (1 if seed.is_rational else 2) + (1 << t)
    if need > cap:
        raise BudgetExceeded(f"scan needs about {need} cached entries, budget is {cap}")

    use_cache = t_split is None
    if use_cache:
        cached = _peak_cache.get((seed, n))
        if cached is not None:
            return cached

    scale = _scale(seed)
    _, hits = _block_peak(abgd(t), _int_level(seed, lv1), _int_level(seed, lv2))
    wits = tuple((s, correlation._exact_value(scale, *parts)) for s, *parts in hits)
    pcc_rep = PeakReport(n, exact_magnitude(wits[0][1]) if wits else 0, wits)
    result = pcc_rep, _psl_from_pcc(pcc_rep, seed.ell0 << n)
    if use_cache:
        _peak_cache[(seed, n)] = result
    return result


_peak_cache: dict[tuple[SeedPair, int], tuple[PeakReport, PeakReport]] = {}


def _block_peak(tables, level_nt, level_nt1) -> tuple[int, list]:
    """Largest |C_n(s)| over all shifts (its square for a complex level)
    and every attaining shift with the parts of its value, (s, re) or
    (s, re, im), sorted by shift; (0, []) when every value vanishes.

    Block q of the shifts s = q * L + r, L = 2 * ell_{n-t} and 0 <= r < L,
    is evaluated by ``_block_values``.  The blocks q in
    [-2^(t-1), 2^(t-1)) cover shifts [-ell_n, ell_n); the one shift outside
    the window, -ell_n, has r = 0, where every value vanishes.

    Blocks are visited in decreasing order of their bound, down to the
    first bound below the best value found: blocks whose bound equals the
    best are still visited, so every witness is kept.  Complex levels
    compare squared magnitudes with squared bounds, in integers.
    """
    big_l = level_nt[0].size + 1
    square = len(level_nt) == 2
    bounds = _block_bounds(tables, _peak_abs(level_nt), _peak_abs(level_nt1))
    best = 0
    hits: list[tuple[int, np.ndarray, list]] = []
    for qi in np.argsort(bounds, kind="stable")[::-1]:
        bound = int(bounds[qi]) ** (2 if square else 1)
        if bound < best or bound == 0:
            break
        coeffs = (int(col[qi]) for col in (tables.a, tables.b, tables.g, tables.d))
        vals = _block_values(*coeffs, level_nt, level_nt1, bound)
        mags = vals[0] * vals[0] + vals[1] * vals[1] if square else np.abs(vals[0])
        m = int(mags.max())
        if m < best or m == 0:
            continue
        if m > best:
            best = m
            hits.clear()
        idx = np.flatnonzero(mags == best)
        hits.append(((int(qi) - tables.offset) * big_l + 1, idx, [v[idx] for v in vals]))
    wits = sorted(
        (start + int(u), *map(int, parts))
        for start, idx, vals in hits
        for u, *parts in zip(idx, *vals)
    )
    return best, wits


def psl_report(seed: SeedPair, n: int, t_split: int | None = None) -> PeakReport:
    """Peak sidelobe report for the level-n sequence.

    For n >= 1 this is the crosscorrelation peak of level n-1 pushed
    through the shift map; level 0 is read from the oracle directly.
    """
    if n == 0:
        pair = grs_pair(seed, 0)
        return _report(0, correlation.spectrum(pair.x, pair.x), 1)
    return streaming_peaks(seed, n - 1, t_split=t_split)[1]


# ---------------------------------------------------------------------------
# Per-shift bounds from table entries and low-level peak values.


def nellie_bound(t: int, q: int, r: int, ell_nt: int, m_nt, m_nt1):
    """Upper bound on |C_n(q * 2*ell_nt + r)| given the peak magnitudes
    m_nt and m_nt1 of levels n-t and n-t-1.

    The remainder r (0 <= r < 2*ell_nt) selects which of the four terms
    can contribute; the bound is zero when r = 0.
    """
    if not 0 <= r < 2 * ell_nt:
        raise ValueError("remainder out of range")
    if r == 0:
        return 0
    aq, bq, gq, dq = abgd(t).entry(q)
    base = (abs(aq) + abs(bq)) * m_nt
    if r < ell_nt:
        return base + abs(dq) * m_nt1
    if r == ell_nt:
        return base
    return base + abs(gq) * m_nt1


def derrel_bound(pcc0, psl0, n: int, q: int):
    """Upper bound on |C_n(s)| for q = floor(s / ell_2), in terms of the
    seed statistics only (peak crosscorrelation and sidelobe of the seed).

    Uses the t = n-1 tables, so it applies for n >= 2.
    """
    if n < 2:
        raise LevelTooSmall("seed-statistics bound needs n >= 2")
    aq, bq, gq, dq = abgd(n - 1).entry(q)
    return (abs(aq) + abs(bq) + abs(gq) + abs(dq)) * pcc0 + (abs(aq) + abs(bq)) * (
        2 * psl0
    )
