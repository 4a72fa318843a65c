"""Low-memory computation of crosscorrelation values and peaks.

Correlation values of a level-n pair can be read off from the spectra of
two much earlier levels: writing a shift as s = q * L + r with
L = ell_{n-t+1} and 0 <= r < L,

    C_n(s) = A_{t,q} C_{n-t}(r - ell_{n-t})
           + B_{t,q} conj(C_{n-t}(ell_{n-t} - r))
           + Gamma_{t,q} C_{n-t-1}(r - 3 ell_{n-t-1})
           + Delta_{t,q} conj(C_{n-t-1}(ell_{n-t-1} - r)),

where the four integer coefficient families A, B, Gamma, Delta satisfy a
parity-split recursion in t (see ``abgd``).

Every level is held as Gaussian integers: the correlations of the seed
times d^2, where d = lcm(x0.den, y0.den) clears every denominator of the
seed.  A level is then one integer array for a real seed, or two, re and
im, for a complex one.  Within one block of shifts sharing q the four
table coefficients are constant, so one evaluator (``_block_values``)
computes whole blocks as combinations of views of the level arrays; the
coefficients are real, so the imaginary part is the same sum with the
signs of the two conjugated terms flipped.

One bound (``_bound``), from a block's coefficients and the largest
entries of the two levels it reads, caps every value and partial sum in
the block.  The evaluator uses Python integers (object dtype) where it
exceeds int64.  The blocks of all step counts form one binary tree over
the shifts (``_children``), which the peak scan searches best first by
that bound down to the leaves at depth n-1, evaluating on levels 1 and 0
only the leaves that can reach the best value found (``_tree_peak``).
Each seed keeps one list, one entry per level: its peak, read off the
oracle levels 0 and 1, which the list also keeps, and found once by that
search above them.  So the memory of a scan does not grow with n, and no
level is searched twice.  The lookups (``coeff_by_iteration``,
``iter_spectrum``) take the step count t and never run the search: they
build the levels n-t and n-t-1 they read by t = 1 steps up from levels 1
and 0.  A point lookup keeps that pair and the one block it evaluated,
and drops both before it builds anything new.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import isqrt, lcm

from . import correlation, np
from .convolve import INT64_MAX, abs2, abs_max, scaled
from .qcomplex import as_cq, exact_magnitude, exact_value, int_text, value_conj
from .sequences import SeedPair, check_budget, grs_pair

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

    def entry(self, j: int) -> tuple[int, int, int, int]:
        """(A, B, Gamma, Delta) at index j; zero outside the support."""
        return _coeffs(self.t, j)


_ROOTS = {-1: (-1, 0, 2, 0), 0: (0, 1, 0, 2)}


def _children(node):
    """The coefficients (A', B', Gamma', Delta') of blocks 2q | 2q+1 at step
    count t+1 from those of block q at step count t (``_ROOTS`` at t = 1),
    on integers or on arrays of them: A' = -A + B | Gamma;
    B' = Delta | A - B;  Gamma' = 2A + 2B | 0;  Delta' = 0 | 2A + 2B."""
    a, b, g, d = node
    return (-a + b, d, 2 * a + 2 * b, 0 * a), (g, a - b, 0 * a, 2 * a + 2 * b)


def _coeffs(t: int, q: int) -> tuple[int, int, int, int]:
    """``abgd(t).entry(q)`` without the table: the sign of q picks the root,
    its lower t-1 bits the children on the path down, in O(t)."""
    if t < 1:
        raise ValueError("step count must be at least 1")
    if not -(1 << (t - 1)) <= q < 1 << (t - 1):
        return (0, 0, 0, 0)
    node = _ROOTS[q >> (t - 1)]
    for bit in reversed(range(t - 1)):
        node = _children(node)[q >> bit & 1]
    return node


def abgd(t: int) -> AbgdTable:
    """Coefficient tables at step count t >= 1: the roots at t = 1, then
    entry j from entry floor(j/2) of the previous row by ``_children``."""
    if t < 1:
        raise ValueError("step count must be at least 1")
    rows = np.array(list(_ROOTS.values()), dtype=np.int64).T
    for _ in range(t - 1):
        rows = np.stack(_children(rows), axis=-1).reshape(4, -1)
    return AbgdTable(t, *rows)


def _bound(node, m_nt: int, m_nt1: int) -> int:
    """(|A| + |B|) m_nt + max(|Gamma|, |Delta|) m_nt1, the one block
    bound (of the search, the evaluator, ``nellie_bound`` and
    ``derrel_bound``), as a sum: one of Gamma and Delta is zero.  Gamma
    and Delta read disjoint remainder windows, so it caps every partial
    sum of the four-term formula, real and imaginary, too: a block whose
    bound fits int64 evaluates without wraparound."""
    a, b, g, d = node
    return (abs(a) + abs(b)) * m_nt + (abs(g) + abs(d)) * m_nt1


# ---------------------------------------------------------------------------
# Dense crosscorrelation spectra per level, and the peak of every level.
#
# Level k holds d^2 C_k(s) for s in (-ell_k, ell_k), d^2 = ``_scale(seed)``,
# as a tuple of integer arrays: (re,) for a real seed, (re, im) for a
# complex one; ``exact_value`` maps their entries back.
# ``_peak_bounds`` is the one store per seed: entry k, for k = 0, 1, ... in
# ascending order, holds m_k, the least integer at or above every
# |d^2 C_k(s)|, with the witnesses of level k as ``_tree_peak`` returns
# them, and, for k <= 1, level k itself, from the oracle on the (small)
# materialized pairs.  A level above 1 is built from levels 1 and 0 by
# t = 1 steps (``_levels``).  Outside the store, ``_kept`` holds at most the
# last lookup's level pair, under (seed, n-t), and its block, under
# (seed, n, t, q); whatever it holds is dropped before anything is built.

_peak_bounds: dict[SeedPair, list[tuple[int, list, tuple | None]]] = {}
_kept: dict[tuple, tuple] = {}


def clear_caches() -> None:
    _peak_bounds.clear()
    _kept.clear()


def _scale(seed: SeedPair) -> int:
    """d^2 for the lcm d of the seed's denominators: d^2 times every
    correlation of the seed is a Gaussian integer."""
    return lcm(seed.x0.den, seed.y0.den) ** 2


def _oracle_level(seed: SeedPair, k: int) -> tuple[np.ndarray, ...]:
    """Level k from the oracle spectrum of the materialized pair, cut or
    padded to the shifts -ell_k < s < ell_k (a seed member may be declared
    shorter or longer than ell0); spec.den = x.den * y.den divides d^2."""
    pair = grs_pair(seed, k)
    spec = correlation.spectrum(pair.x, pair.y)
    size = 2 * pair.length - 1
    lo = 1 - pair.length - spec.offset  # the index of shift 1 - ell_k
    count = 1 if seed.is_rational else 2
    level = []
    for part in (*spec.parts, np.zeros(0, dtype=np.int64))[:count]:  # a missing im is zero
        window = np.zeros(size, dtype=part.dtype)
        cut = part[max(lo, 0) : max(lo + size, 0)]
        window[max(-lo, 0) :][: cut.size] = cut
        level.append(scaled(window, _scale(seed) // spec.den))
        level[-1].flags.writeable = False
    return tuple(level)


def _peak_of(parts: tuple[np.ndarray, ...], start: int) -> tuple[int, list]:
    """The largest |v| of a real level or block, or the largest |v|^2 =
    re^2 + im^2 of a complex one, and its witnesses: (start + u, *parts
    at u) as Python ints for every index u that attains it, by increasing
    u; (0, []) when every value vanishes."""
    if len(parts) == 1:
        best = abs_max(parts[0])
        idx = np.flatnonzero((parts[0] == best) | (parts[0] == -best))
    else:
        sq = abs2(parts)
        best = int(sq.max())
        idx = np.flatnonzero(sq == best)
    if not best:
        return 0, []
    return best, list(zip([start + u for u in idx.tolist()], *(p[idx].tolist() for p in parts)))


def _root_up(sq: int) -> int:
    """The least integer at or above the square root of sq."""
    root = isqrt(sq)
    return root + (root * root < sq)


def _peak_bounds_to(seed: SeedPair, k: int) -> list[tuple[int, list, tuple | None]]:
    """The entries (m_j, hits, level) of the seed, j = 0, 1, ..., at least
    to k: on levels 0 and 1 read off the oracle level by ``_peak_of``, above
    them found by ``_tree_peak`` from the entries below, with level None."""
    entries = _peak_bounds.setdefault(seed, [])
    for j in range(len(entries), k + 1):
        level = _oracle_level(seed, j) if j <= 1 else None
        best, hits = _peak_of(level, 1 - (seed.ell0 << j)) if level else _tree_peak(seed, j)
        entries.append((best if seed.is_rational else _root_up(best), hits, level))
    return entries


def _levels(seed: SeedPair, k: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Levels k and k-1, k >= 1: the kept levels 1 and 0, then t = 1 steps
    up (``_dense_int``)."""
    entries = _peak_bounds_to(seed, 1)
    high, low = entries[1][2], entries[0][2]
    for _ in range(2, k + 1):
        high, low = _dense_int(1, high, low), high
    return high, low


def _block_values(a, b, g, d, level_nt, level_nt1) -> tuple[np.ndarray, ...]:
    """C_n(q * L + r) for r = 0 .. L-1 (index r) on block q, with
    L = 2 * ell_{n-t}: A V1 + B conj(V2) + Gamma V3 + Delta conj(V4), where

        V1 = C_{n-t}(r - ell_{n-t}),        V2 = C_{n-t}(ell_{n-t} - r),
        V3 = C_{n-t-1}(r - 3 ell_{n-t-1}),  V4 = C_{n-t-1}(ell_{n-t-1} - r).

    For r >= 1 these are the level arrays themselves: V1 and V2 are the
    level n-t spectrum forwards and reversed, V4 the level n-t-1 spectrum
    reversed on r < ell_{n-t} and V3 the same spectrum forwards on
    r > ell_{n-t}.  All four vanish at r = 0, which is left zero.

    (a, b, g, d) are the block's table entries, or columns of entries, to
    evaluate one block per row by broadcasting.  The coefficients are
    real, so the imaginary part of a complex level is the same sum over
    the im arrays with the signs of B and Delta flipped.  ``_bound`` of
    the rows' largest |A| + |B| and |Gamma| + |Delta| (``_row_max``) at
    each level's largest |entry| caps every partial sum of every row; past
    int64 the levels are evaluated as Python integers.  One array per part.
    """
    half = level_nt1[0].size  # ell_{n-t} - 1
    m_nt, m_nt1 = (max(map(abs_max, level)) for level in (level_nt, level_nt1))
    bound = _bound((_row_max(a, b), 0, _row_max(g, d), 0), m_nt, m_nt1)
    out = []
    for c_nt, c_nt1 in zip(level_nt, level_nt1):
        if bound > INT64_MAX:
            c_nt, c_nt1 = c_nt.astype(object), c_nt1.astype(object)
        vals = np.zeros(np.broadcast_shapes(np.shape(a), (c_nt.size + 1,)), dtype=c_nt.dtype)
        np.multiply(a, c_nt, out=vals[..., 1:])
        term = b * c_nt[::-1]  # also the scratch of the Gamma and Delta products
        vals[..., 1:] += term
        if np.any(d):
            vals[..., 1 : half + 1] += np.multiply(d, c_nt1[::-1], out=term[..., :half])
        if np.any(g):
            vals[..., half + 2 :] += np.multiply(g, c_nt1, out=term[..., :half])
        out.append(vals)
        b, d = -b, -d
    return tuple(out)


def _row_max(x, y) -> int:
    """max |x| + |y| over the rows of two coefficient columns, or of two scalars."""
    return int((abs(x) + abs(y)).max()) if isinstance(x, np.ndarray) else abs(x) + abs(y)


def _dense_int(t: int, level_nt, level_nt1) -> tuple[np.ndarray, ...]:
    """Level n in one pass from its levels n-t and n-t-1: every block at
    once, one per row, the rows end to end from shift -ell_n + 1 on."""
    table = abgd(t)
    blocks = _block_values(*(c[:, None] for c in (table.a, table.b, table.g, table.d)),
                           level_nt, level_nt1)
    return tuple(v.reshape(-1)[1:] for v in blocks)


def _split_level(n: int, t: int) -> int:
    """Level n-t, the higher of the two levels that split t reads."""
    if not 0 < t < n:
        raise LevelTooSmall(f"need 0 < t < n, got t={t}, n={n}")
    return n - t


def _check_split(seed: SeedPair, lv: int, budget: int | None, what: str) -> None:
    """Refuse over ``budget`` a split whose higher level is lv, counted as
    9 ell_lv entries per part.  Per part under tracemalloc, a scan holds 7.0
    to 8.2 ell_lv (levels lv and lv-1, a leaf block with its scratch and the
    squares of ``_peak_of``), and a lookup, which drops the kept state
    first, 7.1 to 7.2 (the levels and one block with its scratch)."""
    check_budget(9 * (seed.ell0 << lv) * (1 if seed.is_rational else 2), budget, what)


def coeff_by_iteration(seed: SeedPair, n: int, t: int, s: int):
    """C_{x_n, y_n}(s), entry r of block q for s = q * L + r, from the
    level n-t and n-t-1 spectra: the kept block, or one evaluated once the
    kept state is dropped, on the kept level pair if the split is the same."""
    lv = _split_level(n, t)
    q, r = divmod(s, 2 * (seed.ell0 << lv))
    vals = _kept.get((seed, n, t, q))
    if vals is None:
        _check_split(seed, lv, None, "lookup")
        levels = _kept.get((seed, lv))
        _kept.clear()
        _kept[seed, lv] = levels = levels or _levels(seed, lv)
        _kept[seed, n, t, q] = vals = _block_values(*_coeffs(t, q), *levels)
    return exact_value(_scale(seed), *(int(v[r]) for v in vals))


def iter_spectrum(seed: SeedPair, n: int, t: int) -> np.ndarray:
    """All C_{x_n, y_n}(s) for s in (-ell_n, ell_n), via the level split;
    integer-valued seeds only (vectorized).  It drops the kept lookup state
    first; from ell_n = 2^16 on it holds 4.2 to 6.5 times ell_n entries, the
    most at t = n-1 where ``abgd`` stacks 2 ell_n, counted as 7."""
    if not seed.is_int:
        raise ValueError("vectorized spectra need integer-valued seeds")
    lv = _split_level(n, t)
    check_budget(7 * (seed.ell0 << n), None, f"level {n} spectrum")
    _kept.clear()
    return _dense_int(t, *_levels(seed, lv))[0]


def coeff_by_geoff(seed: SeedPair, n: int, s: int):
    """C_{x_n, y_n}(s) for s != 0 via the two-level piecewise rule:

        s > 0:  conj(C_{n-1}(ell_{n-1} - s)) + 2 conj(C_{n-2}(ell_{n-2} - s))
        s < 0:  -C_{n-1}(ell_{n-1} + s) + 2 C_{n-2}(ell_{n-2} + s)

    This is ``coeff_by_iteration`` at t = 1: its block q = -1, with
    (A, B, Gamma, Delta) = (-1, 0, 2, 0), is the rule for s < 0, and its
    block q = 0, with (0, 1, 0, 2), the rule for s > 0.  Shift zero is not
    covered by the rule; for n >= 2 the value there is always zero, and
    callers use that (or the oracle) directly.
    """
    if n < 2:
        raise LevelTooSmall("the two-level rule needs n >= 2")
    if s == 0:
        raise ShiftZero("shift zero is not covered; it is 0 for n >= 2")
    return coeff_by_iteration(seed, n, 1, s)


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
        witnesses = [{"shift": int_text(s), "value": str(as_cq(v))} for s, v in self.witnesses]
        return {"n": self.level, value_key: str(as_cq(self.value)), "witnesses": witnesses}


def _psl_from_pcc(pcc_rep: PeakReport, ell_n: int) -> PeakReport:
    """Map a level-n crosscorrelation peak to the level-(n+1) sidelobe
    peak: the autocorrelation at positive shift s equals
    conj(C_n(ell_n - s))."""
    mapped = sorted((ell_n - s, value_conj(v)) for s, v in pcc_rep.witnesses)
    return PeakReport(pcc_rep.level + 1, pcc_rep.value, tuple(mapped))


def streaming_peaks(seed: SeedPair, n: int,
                    budget: int | None = None) -> tuple[PeakReport, PeakReport]:
    """Peak crosscorrelation of the level-n pair, plus the derived peak
    sidelobe report for level n+1.

    The peak is the one the seed keeps for level n (``_peak_bounds_to``).
    Its value is |v| of the first witness v; a properly complex v, whose
    magnitude is in general irrational, raises ValueError.  A scan over
    ``budget`` is refused before any level is built (``_check_split``).
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    _check_split(seed, min(1, max(n - 1, 0)), budget, "scan")

    hits = _peak_bounds_to(seed, n)[n][1]
    scale = _scale(seed)
    wits = tuple((s, exact_value(scale, *parts)) for s, *parts in hits)
    pcc_rep = PeakReport(n, exact_magnitude(wits[0][1]) if wits else 0, wits)
    return pcc_rep, _psl_from_pcc(pcc_rep, seed.ell0 << n)


def _tree_peak(seed: SeedPair, n: int) -> tuple[int, list]:
    """Largest |d^2 C_n(s)| over all shifts, n >= 2 (its square for a
    complex seed), and every attaining shift with the parts of its value,
    (s, re) or (s, re, im), sorted by shift; (0, []) when every value
    vanishes.

    Node q at depth k holds the shifts q * 2 ell_{n-k} + r, 0 <= r <
    2 ell_{n-k}; the two roots cover [-ell_n, ell_n), and -ell_n has r = 0,
    where every value vanishes.  Its own bound, ``_bound`` for m_{n-k} and
    m_{n-k-1}, caps every value in its block.  Nodes are expanded by
    decreasing bound down to the leaves at depth n-1, evaluated on the kept
    levels 1 and 0, until a bound falls below the best value, and with it
    every value left; nodes whose bound equals it are still expanded, so
    every witness is kept.  Complex levels compare squared magnitudes.
    """
    entries = _peak_bounds_to(seed, n - 1)
    level_1, level_0 = entries[1][2], entries[0][2]
    power = 1 if seed.is_rational else 2
    ms = [entry[0] for entry in entries]

    def node(depth, q, coeffs):
        return (-_bound(coeffs, ms[n - depth], ms[n - depth - 1]), depth, q, coeffs)

    heap = sorted(node(1, q, coeffs) for q, coeffs in _ROOTS.items())
    best, hits = 0, []
    while heap:
        neg, depth, q, coeffs = heapq.heappop(heap)
        bound = (-neg) ** power
        if bound < best or bound == 0:
            break
        if depth < n - 1:
            for child_q, child in zip((2 * q, 2 * q + 1), _children(coeffs)):
                heapq.heappush(heap, node(depth + 1, child_q, child))
            continue
        m, wits = _peak_of(_block_values(*coeffs, level_1, level_0), q * 4 * seed.ell0)
        if m > best:
            best, hits = m, wits
        elif m == best:
            hits += wits
    return best, sorted(hits)


def psl_report(seed: SeedPair, n: int) -> PeakReport:
    """Peak sidelobe report for the level-n sequence.

    For n >= 1 this is the crosscorrelation peak of level n-1 pushed
    through the shift map; level 0 is read from the oracle directly.
    """
    if n == 0:
        value, shifts = correlation.psl(seed.x0)
        return PeakReport(0, value, tuple((s, correlation.crosscorr(seed.x0, seed.x0, s))
                                          for s in shifts))
    return streaming_peaks(seed, n - 1)[1]


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
    a, b, g, d = _coeffs(t, q)
    return _bound((a, b, g * (r > ell_nt), d * (r < ell_nt)), m_nt, m_nt1)


def derrel_bound(pcc0, psl0, n: int, q: int):
    """Upper bound on |C_n(s)| for q = floor(s / ell_2), in terms of the
    seed statistics only (peak crosscorrelation and sidelobe of the seed).

    Uses the t = n-1 tables, so it applies for n >= 2: it is the block
    bound at levels 1 and 0, with pcc0 + 2 psl0 in place of m_1 and pcc0
    in place of m_0.
    """
    if n < 2:
        raise LevelTooSmall("seed-statistics bound needs n >= 2")
    return _bound(_coeffs(n - 1, q), pcc0 + 2 * psl0, pcc0)
