"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py -v`` to see them).

All comparisons are exact; runtime limits are asserted where stated.
"""

import time
from fractions import Fraction

import numpy as np

from golden import TABLE1, TABLE2, TABLE3, TABLE4
from grs import correlation
from grs.bounds import (
    identity_suite,
    inequality_suite,
    nestor_cecilia_check,
    verify_generic_bound,
    verify_rs_bounds,
    verify_rs_lower_bounds,
)
from grs.fastscan import (
    abgd,
    coeff_by_geoff,
    coeff_by_iteration,
    iter_spectrum,
    psl_report,
    streaming_peaks,
)
from grs.field import alpha_pow, decimal_approx
from grs.qcomplex import as_cq
from grs.sequences import grs_pair, rudin_shapiro


def _report(num: int, desc: str, cond: bool, detail: str = ""):
    print(f"\ncriterion {num:2d} [{desc}]: {'PASS' if cond else 'FAIL'} {detail}")
    assert cond, f"criterion {num} ({desc}) failed {detail}"


def test_criterion_01_table1(rs_seed):
    t0 = time.perf_counter()
    ok = True
    for n, rows in TABLE1.items():
        for s, expected in rows:
            if n < 2:
                pair = grs_pair(rs_seed, n)
                got = correlation.spectrum(pair.x, pair.y).value(s)
            elif s == 0 or abs(s) >= (1 << n):
                got = 0
            else:
                got = coeff_by_geoff(rs_seed, n, s)
            ok = ok and got == expected
    elapsed = time.perf_counter() - t0
    _report(1, "table 1 regeneration", ok and elapsed < 1.0, f"({elapsed:.3f}s)")


def test_criterion_02_table2():
    t0 = time.perf_counter()
    ok = True
    for t, rows in TABLE2.items():
        table = abgd(t)
        for j, *expected in rows:
            ok = ok and table.entry(j) == tuple(expected)
    elapsed = time.perf_counter() - t0
    _report(2, "table 2 regeneration", ok and elapsed < 1.0, f"({elapsed:.3f}s)")


def test_criterion_03_table3(rs_seed):
    t0 = time.perf_counter()
    ok = True
    for n in range(21):
        rep, _ = streaming_peaks(rs_seed, n)
        ok = ok and rep.value == abs(TABLE3[n][0][1]) and rep.witnesses == TABLE3[n]
    t20 = time.perf_counter() - t0
    for n in range(21, 27):
        rep, _ = streaming_peaks(rs_seed, n)
        ok = ok and rep.value == abs(TABLE3[n][0][1]) and rep.witnesses == TABLE3[n]
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "table 3 regeneration n<=26",
        ok and t20 < 10.0 and elapsed < 600.0,
        f"(n<=20: {t20:.2f}s, n<=26: {elapsed:.2f}s)",
    )


def test_criterion_04_table4(rs_seed):
    t0 = time.perf_counter()
    ok = True
    for n in range(28):
        rep = psl_report(rs_seed, n)
        expected = TABLE4[n]
        ok = ok and rep.witnesses == expected
        ok = ok and rep.value == (abs(expected[0][1]) if expected else 0)
    elapsed = time.perf_counter() - t0
    _report(4, "table 4 regeneration n<=27", ok and elapsed < 600.0, f"({elapsed:.2f}s)")


def test_criterion_05_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for seed in corpus:
        for n in range(2, 17):
            pair = grs_pair(seed, n)
            ell = pair.length
            oracle = np.zeros(2 * ell - 1, dtype=np.int64)
            for s, v in correlation.spectrum(pair.x, pair.y).entries.items():
                oracle[s + ell - 1] = v
            for t in range(1, n):
                ok = ok and np.array_equal(iter_spectrum(seed, n, t), oracle)
                checked += 2 * ell - 1
                # Scalar evaluation: every shift at small n, a stride above.
                stride = 1 if n <= 8 else 211
                for s in range(-ell + 1, ell, stride):
                    ok = ok and coeff_by_iteration(seed, n, t, s) == int(
                        oracle[s + ell - 1]
                    )
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "iteration equals oracle (3 seeds, n<=16, all t, all shifts)",
        ok and elapsed < 120.0,
        f"({checked} values, {elapsed:.1f}s)",
    )


def test_criterion_06_bound_verdicts(corpus):
    upper = verify_rs_bounds(26)
    lower = verify_rs_lower_bounds(26)
    ok = all(v.holds for v in upper) and all(v.holds for v in lower)
    tight = sorted(v.claim_id for v in upper if v.observed == "=")
    ok = ok and tight == ["rs_pcc_upper_n3", "rs_psl_upper_n4"]
    ok = ok and all(
        v.observed == "<" for v in upper if v.claim_id not in tight
    )
    for seed in corpus:
        verdicts = verify_generic_bound(seed, 12)
        ok = ok and all(v.holds for v in verdicts)
    _report(
        6,
        "exact bound verdicts (upper/lower/seed-statistics)",
        ok,
        f"({len(upper) + len(lower)} unit-seed claims)",
    )


def test_criterion_07_inequality_suite():
    t0 = time.perf_counter()
    verdicts = inequality_suite()
    elapsed = time.perf_counter() - t0
    ok = all(v.holds for v in verdicts) and elapsed < 1.0
    _report(7, "proof inequality suite", ok, f"({len(verdicts)} claims, {elapsed:.3f}s)")


def test_criterion_08_algebraic_identities():
    t0 = time.perf_counter()
    verdicts = identity_suite()
    ok = all(v.holds for v in verdicts)
    by_id = {v.claim_id: v for v in verdicts}
    ok = ok and {"e0_sum", "e1_e2_product_v0", "e1_e2_product_v1",
                 "damping_ratio_sq", "alpha_decimal_12"} <= set(by_id)
    bracket = decimal_approx(alpha_pow(1), 12)
    ok = ok and bracket.lo == "1.658967081916"
    elapsed = time.perf_counter() - t0
    _report(8, "algebraic identities", ok and elapsed < 1.0, f"({elapsed:.3f}s)")


def test_criterion_09_property_suites(corpus, rs_seed):
    ok = True
    # Golay complementarity with energy doubling, n <= 12.
    for seed in corpus:
        e0 = correlation.crosscorr(seed.x0, seed.x0, 0) + correlation.crosscorr(
            seed.y0, seed.y0, 0
        )
        for n in (0, 1, 2, 3, 5, 8, 12):
            pair = grs_pair(seed, n)
            sxx = correlation.spectrum(pair.x, pair.x)
            syy = correlation.spectrum(pair.y, pair.y)
            ok = ok and all(
                sxx.value(s) + syy.value(s) == 0 for s in range(1, pair.length)
            )
            ok = ok and sxx.value(0) + syy.value(0) == (1 << n) * e0
    # Even-shift vanishing for the unit seed, n <= 12.
    for n in range(1, 13):
        pair = rudin_shapiro(n)
        sxy = correlation.spectrum(pair.x, pair.y)
        sxx = correlation.spectrum(pair.x, pair.x)
        ok = ok and all(s % 2 == 1 for s in sxy.entries)
        ok = ok and all(s % 2 == 1 or s == 0 for s in sxx.entries)
    # Sidelobe/crosscorrelation link: PSL(x_n) = PCC(x_{n-1}, y_{n-1}), n <= 12.
    for seed in corpus:
        for n in range(1, 13):
            pair = grs_pair(seed, n)
            prev = grs_pair(seed, n - 1)
            ok = ok and correlation.psl(pair.x)[0] == correlation.pcc(prev.x, prev.y)[0]
    # Conjugate symmetry across the corpus, n <= 8.
    for seed in corpus:
        for n in (0, 2, 5, 8):
            pair = grs_pair(seed, n)
            fg = correlation.spectrum(pair.x, pair.y)
            gf = correlation.spectrum(pair.y, pair.x)
            ok = ok and all(
                as_cq(gf.value(s)) == as_cq(fg.value(-s)).conj() for s in fg.entries
            )
            ok = ok and correlation.pcc(pair.x, pair.y)[0] == correlation.pcc(
                pair.y, pair.x
            )[0]
    # Level-doubling product identities (coefficientwise), n <= 8.
    for seed in corpus:
        for n in range(1, 9):
            prev = grs_pair(seed, n - 1)
            cur = grs_pair(seed, n)
            ell = prev.length
            xy = correlation.spectrum(prev.x, prev.y).entries
            yx = correlation.spectrum(prev.y, prev.x).entries
            xx = correlation.spectrum(prev.x, prev.x).entries
            yy = correlation.spectrum(prev.y, prev.y).entries
            target = correlation.spectrum(cur.x, cur.y).entries
            combined = {}
            for src, sign, offset in (
                (xx, 1, 0),
                (yy, -1, 0),
                (xy, -1, -ell),
                (yx, 1, ell),
            ):
                for s, v in src.items():
                    combined[s + offset] = combined.get(s + offset, 0) + sign * v
            combined = {s: v for s, v in combined.items() if v != 0}
            ok = ok and combined == target
    # The streaming scan equals the peak of the whole level at every
    # split t, n <= 12.
    for seed in corpus:
        for n in range(3, 13):
            hits = streaming_peaks(seed, n)[0].witnesses
            start = 1 - (seed.ell0 << n)
            for t in range(1, n):
                values = iter_spectrum(seed, n, t)
                idx = np.flatnonzero(np.abs(values) == np.abs(values).max())
                ok = ok and hits == tuple((start + i, v) for i, v in zip(idx, values[idx].tolist()))
    # Orbit recursion checks.
    for seed in corpus:
        for s0 in range(-seed.ell0 + 1, seed.ell0):
            verdicts = nestor_cecilia_check(seed, s0, 10)
            ok = ok and all(v.holds for v in verdicts)
    _report(9, "property suites n<=12", ok)


def test_criterion_10_demerit_trend():
    pair = rudin_shapiro(14)
    auto = correlation.demerit_auto(pair.x)
    cross = correlation.demerit_cross(pair.x, pair.y)
    ok = abs(auto - Fraction(1, 3)) <= Fraction(1, 3) / 20
    ok = ok and abs(cross - Fraction(2, 3)) <= Fraction(2, 3) / 20
    _report(10, "demerit factors near 1/3 and 2/3 at n=14", ok, f"(auto={auto}, cross={cross})")
