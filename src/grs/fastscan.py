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

Integer-valued pairs (binary seeds in particular) run on vectorized
numpy kernels.  Within one block of shifts sharing q the four table
coefficients are constant, so the peak scan evaluates whole blocks as
combinations of the two level arrays, visiting them in decreasing order
of the per-block bound and stopping once no remaining block can reach
the best value found.  Every level and every block whose exact bound
exceeds int64 is computed with Python integers (object dtype) instead.
General complex-rational seeds use an exact scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import correlation
from .qcomplex import CQ, as_cq, exact_magnitude, value_conj
from .sequences import (
    BudgetExceeded,
    SeedPair,
    Sequence,
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

_INT64_MAX = int(np.iinfo(np.int64).max)
_CHUNK = 1 << 16


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
# Level k holds C_k(s) for s in (-ell_k, ell_k): levels 0 and 1 come from
# the oracle on the (small) materialized pairs, higher levels from the
# t = 1 instance of the coefficient formula, one O(ell_k) pass each.

_int_levels: dict[tuple[SeedPair, int], np.ndarray] = {}
_gen_levels: dict[tuple[SeedPair, int], dict] = {}
_scaled_seeds: dict[SeedPair, tuple[SeedPair, Fraction]] = {}


def clear_caches() -> None:
    _abgd_cache.clear()
    _int_levels.clear()
    _gen_levels.clear()
    _scaled_seeds.clear()
    _geoff_memo.clear()
    _peak_cache.clear()


def _oracle_dense_int(seed: SeedPair, k: int) -> np.ndarray:
    pair = grs_pair(seed, k)
    ell = pair.length
    entries = correlation.spectrum(pair.x, pair.y).entries
    fits = max(map(abs, entries.values()), default=0) <= _INT64_MAX
    arr = np.zeros(2 * ell - 1, dtype=np.int64 if fits else object)
    for s, v in entries.items():
        arr[s + ell - 1] = v
    return arr


def _int_level(seed: SeedPair, k: int) -> np.ndarray:
    key = (seed, k)
    cached = _int_levels.get(key)
    if cached is not None:
        return cached
    if k <= 1:
        arr = _oracle_dense_int(seed, k)
    else:
        arr = _dense_int(seed, k, 1)
    arr.flags.writeable = False
    _int_levels[key] = arr
    return arr


def _gather(spec: np.ndarray, ell: int, u: np.ndarray) -> np.ndarray:
    idx = u + (ell - 1)
    ok = (idx >= 0) & (idx < spec.size)
    out = spec[np.clip(idx, 0, spec.size - 1)]
    out[~ok] = 0
    return out


def _kernel_int(
    shifts: np.ndarray,
    tables: AbgdTable,
    spec_nt: np.ndarray,
    ell_nt: int,
    spec_nt1: np.ndarray,
    ell_nt1: int,
) -> np.ndarray:
    """Vectorized four-term evaluation over an int64 shift array."""
    big_l = 2 * ell_nt
    if big_l & (big_l - 1) == 0:
        # Power-of-two modulus: arithmetic shift floors like divmod does.
        q = shifts >> big_l.bit_length() - 1
        r = shifts & (big_l - 1)
    else:
        q = shifts // big_l
        r = shifts - q * big_l
    qi = q + tables.offset
    ok = (qi >= 0) & (qi < tables.a.size)
    qi = np.clip(qi, 0, tables.a.size - 1)
    aq = np.where(ok, tables.a[qi], 0)
    bq = np.where(ok, tables.b[qi], 0)
    gq = np.where(ok, tables.g[qi], 0)
    dq = np.where(ok, tables.d[qi], 0)
    g1 = _gather(spec_nt, ell_nt, r - ell_nt)
    g2 = _gather(spec_nt, ell_nt, ell_nt - r)
    g3 = _gather(spec_nt1, ell_nt1, r - 3 * ell_nt1)
    g4 = _gather(spec_nt1, ell_nt1, ell_nt1 - r)
    return aq * g1 + bq * g2 + gq * g3 + dq * g4


def _max_abs(spec: np.ndarray) -> int:
    return int(np.abs(spec).max(initial=0))


def _block_bounds(tables: AbgdTable, m_nt: int, m_nt1: int) -> np.ndarray:
    """Per-block bound (|A_q| + |B_q|) m_nt + max(|Gamma_q|, |Delta_q|) m_nt1,
    the maximum over r of ``nellie_bound`` for the peak magnitudes m_nt and
    m_nt1 of levels n-t and n-t-1.

    The Gamma and Delta terms read disjoint remainder windows, so the bound
    also caps every partial sum of the four-term formula in its block: a
    block whose bound fits int64 evaluates without wraparound.  The bounds
    come back as Python integers (object dtype) when one would not fit.
    """
    ab = np.abs(tables.a) + np.abs(tables.b)
    gd = np.maximum(np.abs(tables.g), np.abs(tables.d))
    if int(ab.max()) * m_nt + int(gd.max()) * m_nt1 > _INT64_MAX:
        ab, gd = ab.astype(object), gd.astype(object)
    return ab * m_nt + gd * m_nt1


def _dense_int(seed: SeedPair, n: int, t: int) -> np.ndarray:
    """All C_{x_n, y_n}(s) for s in (-ell_n, ell_n) from the levels n-t and
    n-t-1, evaluated in chunks of shifts to bound the kernel temporaries.
    Python integers (object dtype) when some value could leave int64."""
    lv1, lv2 = _split_levels(seed, n, t)
    tables = abgd(t)
    spec_nt = _int_level(seed, lv1)
    spec_nt1 = _int_level(seed, lv2)
    bound = _block_bounds(tables, _max_abs(spec_nt), _max_abs(spec_nt1)).max()
    if bound > _INT64_MAX:
        spec_nt, spec_nt1 = spec_nt.astype(object), spec_nt1.astype(object)
    ell = seed.ell0 << n
    out = np.empty(2 * ell - 1, dtype=spec_nt.dtype)
    for start in range(-(ell - 1), ell, _CHUNK):
        stop = min(start + _CHUNK, ell)
        shifts = np.arange(start, stop, dtype=np.int64)
        out[start + ell - 1 : stop + ell - 1] = _kernel_int(
            shifts, tables, spec_nt, seed.ell0 << lv1, spec_nt1, seed.ell0 << lv2
        )
    return out


# -- general (complex rational) levels --------------------------------------


def _gen_level(seed: SeedPair, k: int) -> dict:
    key = (seed, k)
    cached = _gen_levels.get(key)
    if cached is not None:
        return cached
    if k <= 1:
        pair = grs_pair(seed, k)
        out = {s: as_cq(v) for s, v in correlation.spectrum(pair.x, pair.y).entries.items()}
    else:
        prev = _gen_level(seed, k - 1)
        prev2 = _gen_level(seed, k - 2)
        ell = seed.ell0 << k
        tables = abgd(1)
        out = {}
        for s in range(-(ell - 1), ell):
            v = _coeff_from_levels(s, tables, prev, ell >> 1, prev2, ell >> 2)
            if v:
                out[s] = v
    _gen_levels[key] = out
    return out


def _coeff_from_levels(s, tables, spec_nt, ell_nt, spec_nt1, ell_nt1):
    """Scalar four-term evaluation over dict spectra of CQ values."""
    q, r = divmod(s, 2 * ell_nt)
    aq, bq, gq, dq = tables.entry(q)
    zero = CQ()
    total = zero
    if aq:
        total = total + aq * spec_nt.get(r - ell_nt, zero)
    if bq:
        total = total + bq * spec_nt.get(ell_nt - r, zero).conj()
    if gq:
        total = total + gq * spec_nt1.get(r - 3 * ell_nt1, zero)
    if dq:
        total = total + dq * spec_nt1.get(ell_nt1 - r, zero).conj()
    return total


def _split_levels(seed: SeedPair, n: int, t: int) -> tuple[int, int]:
    if not 0 < t < n:
        raise LevelTooSmall(f"need 0 < t < n, got t={t}, n={n}")
    return n - t, n - t - 1


def coeff_by_iteration(seed: SeedPair, n: int, t: int, s: int):
    """C_{x_n, y_n}(s) from the cached level n-t and n-t-1 spectra."""
    lv1, lv2 = _split_levels(seed, n, t)
    tables = abgd(t)
    if seed.is_int:
        spec_nt = _int_level(seed, lv1)
        spec_nt1 = _int_level(seed, lv2)
        ell_nt = seed.ell0 << lv1
        ell_nt1 = seed.ell0 << lv2
        q, r = divmod(s, 2 * ell_nt)
        aq, bq, gq, dq = tables.entry(q)

        def look(spec, ell, u):
            idx = u + ell - 1
            return int(spec[idx]) if 0 <= idx < spec.size else 0

        return (
            aq * look(spec_nt, ell_nt, r - ell_nt)
            + bq * look(spec_nt, ell_nt, ell_nt - r)
            + gq * look(spec_nt1, ell_nt1, r - 3 * ell_nt1)
            + dq * look(spec_nt1, ell_nt1, ell_nt1 - r)
        )
    value = _coeff_from_levels(
        s,
        tables,
        _gen_level(seed, lv1),
        seed.ell0 << lv1,
        _gen_level(seed, lv2),
        seed.ell0 << lv2,
    )
    return int(value.re) if value.is_integer else value


def iter_spectrum(seed: SeedPair, n: int, t: int) -> np.ndarray:
    """All C_{x_n, y_n}(s) for s in (-ell_n, ell_n), via the level split;
    integer-valued seeds only (vectorized)."""
    if not seed.is_int:
        raise ValueError("vectorized spectra need integer-valued seeds")
    return _dense_int(seed, n, t)


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
        spec = _gen_level(seed, n) if not seed.is_int else None
        if spec is not None:
            v = spec.get(s, CQ())
            return int(v.re) if v.is_integer else v
        arr = _int_level(seed, n)
        return int(arr[s + ell - 1])
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


def _report_from_entries(level: int, entries: dict) -> PeakReport:
    value, shifts = correlation._peak(entries)
    return PeakReport(level, value, tuple((s, entries[s]) for s in shifts))


def _psl_from_pcc(pcc_rep: PeakReport, ell_n: int) -> PeakReport:
    """Map a level-n crosscorrelation peak to the level-(n+1) sidelobe
    peak: the autocorrelation at positive shift s equals
    conj(C_n(ell_n - s))."""
    mapped = sorted(
        (ell_n - s, value_conj(v)) for s, v in pcc_rep.witnesses
    )
    return PeakReport(pcc_rep.level + 1, pcc_rep.value, tuple(mapped))


def _scaled_int_seed(seed: SeedPair) -> tuple[SeedPair, Fraction]:
    """Clear denominators of a rational seed; correlations scale by d^2."""
    cached = _scaled_seeds.get(seed)
    if cached is not None:
        return cached
    denoms = [
        v.denominator
        for s in (seed.x0, seed.y0)
        for v in (c.re for c in s.cq_coeffs())
    ]
    d = lcm(*denoms)
    scale = Fraction(d) ** 2

    def scaled(s: Sequence) -> Sequence:
        return Sequence([c.re * d for c in s.cq_coeffs()], s.length)

    result = (SeedPair(scaled(seed.x0), scaled(seed.y0), seed.ell0), scale)
    _scaled_seeds[seed] = result
    return result


def streaming_peaks(
    seed: SeedPair,
    n: int,
    t_split: int | None = None,
    budget: int | None = None,
    _cacheable: bool = True,
) -> tuple[PeakReport, PeakReport]:
    """Peak crosscorrelation of the level-n pair by a bound-pruned block
    scan over two cached low-level spectra (see ``_block_peak``), plus the
    derived peak sidelobe report for level n+1.

    The default split t = floor(n/2) balances the two memory terms; any
    split with 0 < t < n gives identical output.  Levels 0..2 fall back
    to the oracle on the materialized pair; seeds with complex
    coefficients are scanned shift by shift in exact arithmetic.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n <= 2:
        pair = grs_pair(seed, n, budget=budget)
        rep = _report_from_entries(n, correlation.spectrum(pair.x, pair.y).entries)
        return rep, _psl_from_pcc(rep, seed.ell0 << n)

    use_cache = _cacheable and t_split is None
    if use_cache:
        cached = _peak_cache.get((seed, n))
        if cached is not None:
            return cached

    t = t_split if t_split is not None else max(1, n // 2)
    lv1, lv2 = _split_levels(seed, n, t)
    cap = coefficient_budget(budget)
    need = 4 * (seed.ell0 << lv1) + (1 << t)
    if need > cap:
        raise BudgetExceeded(f"scan needs about {need} cached entries, budget is {cap}")

    if seed.is_int:
        result = _streaming_int(seed, n, t, lv1, lv2)
    elif seed.is_rational:
        scaled_seed, scale = _scaled_int_seed(seed)
        pcc_rep, psl_rep = _streaming_int(scaled_seed, n, t, lv1, lv2)
        result = (_rescale_report(pcc_rep, scale), _rescale_report(psl_rep, scale))
    else:
        result = _streaming_general(seed, n, t, lv1, lv2)
    if use_cache:
        _peak_cache[(seed, n)] = result
    return result


_peak_cache: dict[tuple[SeedPair, int], tuple[PeakReport, PeakReport]] = {}


def _rescale_report(rep: PeakReport, scale: Fraction) -> PeakReport:
    value = rep.value / scale
    wits = tuple((s, Fraction(v) / scale) for s, v in rep.witnesses)
    return PeakReport(rep.level, value, wits)


def _streaming_int(seed, n, t, lv1, lv2) -> tuple[PeakReport, PeakReport]:
    best, wits = _block_peak(
        abgd(t), _int_level(seed, lv1), _int_level(seed, lv2), seed.ell0 << lv1
    )
    pcc_rep = PeakReport(n, best, tuple(wits))
    return pcc_rep, _psl_from_pcc(pcc_rep, seed.ell0 << n)


def _block_peak(tables, spec_nt, spec_nt1, ell_nt) -> tuple[int, list]:
    """Largest |C_n(s)| over all shifts and every attaining (s, C_n(s)),
    sorted by shift; (0, []) when every value vanishes.

    With s = q * L + r, L = 2 * ell_{n-t} and 0 <= r < L, the values of
    block q are A_q V1 + B_q V2 + Gamma_q V3 + Delta_q V4 with

        V1 = C_{n-t}(r - ell_{n-t}),        V2 = C_{n-t}(ell_{n-t} - r),
        V3 = C_{n-t-1}(r - 3 ell_{n-t-1}),  V4 = C_{n-t-1}(ell_{n-t-1} - r).

    All four vanish at r = 0, and for r >= 1 they are the level arrays
    themselves: V1 and V2 are the level n-t spectrum forwards and reversed,
    V4 the level n-t-1 spectrum reversed on r < ell_{n-t} and V3 the same
    spectrum forwards on r > ell_{n-t}.  So a block is evaluated on views,
    indexed by u = r - 1.  The blocks q in [-2^(t-1), 2^(t-1)) cover shifts
    [-ell_n, ell_n); the one shift outside the window, -ell_n, has r = 0.

    Blocks are visited in decreasing order of their bound, down to the
    first bound below the best value found: blocks whose bound equals the
    best are still visited, so every witness is kept.
    """
    big_l = 2 * ell_nt
    bounds = _block_bounds(tables, _max_abs(spec_nt), _max_abs(spec_nt1))
    exact = None
    best = 0
    hits: list[tuple[int, np.ndarray, np.ndarray]] = []
    for qi in np.argsort(bounds, kind="stable")[::-1]:
        bound = int(bounds[qi])
        if bound < best or bound == 0:
            break
        c_nt, c_nt1 = spec_nt, spec_nt1
        if bound > _INT64_MAX:
            if exact is None:
                exact = spec_nt.astype(object), spec_nt1.astype(object)
            c_nt, c_nt1 = exact
        a, b, g, d = (int(col[qi]) for col in (tables.a, tables.b, tables.g, tables.d))
        vals = a * c_nt + b * c_nt[::-1]
        if d:
            vals[: ell_nt - 1] += d * c_nt1[::-1]
        if g:
            vals[ell_nt:] += g * c_nt1
        mags = np.abs(vals)
        m = int(mags.max())
        if m < best or m == 0:
            continue
        if m > best:
            best = m
            hits.clear()
        idx = np.flatnonzero(mags == best)
        hits.append(((int(qi) - tables.offset) * big_l + 1, idx, vals[idx]))
    wits = sorted(
        (start + int(u), int(v)) for start, idx, vals in hits for u, v in zip(idx, vals)
    )
    return best, wits


def _streaming_general(seed, n, t, lv1, lv2) -> tuple[PeakReport, PeakReport]:
    spec_nt = _gen_level(seed, lv1)
    spec_nt1 = _gen_level(seed, lv2)
    tables = abgd(t)
    ell = seed.ell0 << n
    ell_nt = seed.ell0 << lv1
    ell_nt1 = seed.ell0 << lv2
    best_sq = Fraction(0)
    wits: list[tuple[int, CQ]] = []
    for s in range(-(ell - 1), ell):
        v = _coeff_from_levels(s, tables, spec_nt, ell_nt, spec_nt1, ell_nt1)
        if not v:
            continue
        sq = v.abs2()
        if sq > best_sq:
            best_sq = sq
            wits = [(s, v)]
        elif sq == best_sq:
            wits.append((s, v))
    if not wits:
        pcc_rep = PeakReport(n, 0, ())
    else:
        pcc_rep = PeakReport(n, exact_magnitude(wits[0][1]), tuple(wits))
    return pcc_rep, _psl_from_pcc(pcc_rep, ell)


def psl_report(seed: SeedPair, n: int, t_split: int | None = None) -> PeakReport:
    """Peak sidelobe report for the level-n sequence.

    For n >= 1 this is the crosscorrelation peak of level n-1 pushed
    through the shift map; level 0 is read from the oracle directly.
    """
    if n == 0:
        pair = grs_pair(seed, 0)
        entries = {
            s: v for s, v in correlation.spectrum(pair.x, pair.x).entries.items() if s > 0
        }
        return _report_from_entries(0, entries)
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
