"""Reference-table generation.

Four CSV tables summarize the library's computations for the unit seed
(length-1 seed with both sequences equal to 1):

* table 1 (``n,s,C``): crosscorrelation values at a curated set of
  shifts per level.  The set is closed under the two-level rule: every
  level-n entry with n >= 2 is derivable from entries at levels n-1 and
  n-2 that are themselves on the table (or known to be zero).
* table 2 (``t,j,A,B,Gamma,Delta``): selected coefficient-table entries.
* table 3 (``n,s,C``): peak crosscorrelation per level with every
  attaining shift and its signed value.
* table 4 (``n,s,D``): peak sidelobe level per level at positive shifts;
  a level whose sidelobes are all zero (n = 0) contributes no rows.
"""

from __future__ import annotations

from . import correlation
from .fastscan import abgd, coeff_by_geoff, psl_report, streaming_peaks
from .qcomplex import int_text
from .sequences import grs_pair, rudin_shapiro_seed

__all__ = [
    "SELECTED_CROSSCORR_SHIFTS",
    "SELECTED_TABLE_INDICES",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table_csv",
]

# Spot-check shifts for the crosscorrelation value table, by level.
SELECTED_CROSSCORR_SHIFTS: dict[int, tuple[int, ...]] = {
    0: (0,),
    1: (-1, 1),
    2: (-3, -1, 1, 3),
    3: (-5, -3, -1, 1, 3, 5),
    4: (-11, -7, -5, -3, 3, 5, 7, 11),
    5: (-21, -13, -11, -9, -5, 5, 9, 11, 13, 21),
    6: (-43, -41, -27, -23, -21, -11, 11, 19, 21, 27, 41, 43),
    7: (-85, -53, -45, -43, -23, -21, 21, 23, 37, 43, 53, 85),
    8: (-107, -105, -91, -85, -43, 43, 75, 85, 105, 107, 171),
    9: (-181, -171, 85, 149, 151, 171, 213),
    10: (-363, -361, -341, 299),
}

# Spot-check indices for the coefficient table, by step count.
SELECTED_TABLE_INDICES: dict[int, tuple[int, ...]] = {
    1: (-1, 0),
    2: (-1, 0),
    3: (-2, -1, 0, 1),
    4: (-4, -3, 1, 2),
    5: (-6, 2, 4, 5),
    6: (-12, -11, 5, 9, 10),
    7: (-23, -22, 10, 11, 18, 21),
    8: (-46, -43, 21, 37, 42),
    9: (-91, -86, 42, 74),
    10: (-182, -181, -171, 149),
}


def table1_rows(n_max: int = 10):
    """(n, s, C) rows for the curated shifts, values from the two-level
    rule (levels 0 and 1 come from the oracle base)."""
    seed = rudin_shapiro_seed()
    rows = []
    for n in sorted(SELECTED_CROSSCORR_SHIFTS):
        if n > n_max:
            break
        for s in SELECTED_CROSSCORR_SHIFTS[n]:
            if n >= 2:
                value = 0 if s == 0 else coeff_by_geoff(seed, n, s)
            else:
                pair = grs_pair(seed, n)
                value = correlation.spectrum(pair.x, pair.y).value(s)
            rows.append((n, s, value))
    return rows


def table2_rows(t_max: int = 10):
    """(t, j, A, B, Gamma, Delta) rows for the selected indices."""
    rows = []
    for t in sorted(SELECTED_TABLE_INDICES):
        if t > t_max:
            break
        table = abgd(t)
        for j in SELECTED_TABLE_INDICES[t]:
            rows.append((t, j) + table.entry(j))
    return rows


def _witness_rows(reports) -> list:
    """(n, s, v) rows: one per witness of each report, in order."""
    return [(rep.level, s, v) for rep in reports for s, v in rep.witnesses]


def table3_rows(n_max: int = 26):
    """(n, s, C) peak-crosscorrelation rows: one row per witness shift."""
    seed = rudin_shapiro_seed()
    return _witness_rows(streaming_peaks(seed, n)[0] for n in range(n_max + 1))


def table4_rows(n_max: int = 27):
    """(n, s, D) peak-sidelobe rows at positive shifts; levels with zero
    sidelobes contribute no rows."""
    seed = rudin_shapiro_seed()
    return _witness_rows(psl_report(seed, n) for n in range(n_max + 1))


# The CSV header and the row generator of each table.
_TABLES = {
    1: ("n,s,C", table1_rows),
    2: ("t,j,A,B,Gamma,Delta", table2_rows),
    3: ("n,s,C", table3_rows),
    4: ("n,s,D", table4_rows),
}


def table_csv(which: int, n_max: int | None = None) -> str:
    """CSV text for one of the four tables (comma separated, no quoting)."""
    if which not in _TABLES:
        raise ValueError("table selector must be 1, 2, 3, or 4")
    header, rows_of = _TABLES[which]
    rows = rows_of() if n_max is None else rows_of(n_max)
    return "".join([header + "\n", *(",".join(map(int_text, row)) + "\n" for row in rows)])
