import itertools
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest

from golden import TABLE1, TABLE2, TABLE3, TABLE4
from grs import correlation, fastscan
from grs.fastscan import (
    LevelTooSmall,
    ShiftZero,
    abgd,
    coeff_by_geoff,
    coeff_by_iteration,
    derrel_bound,
    iter_spectrum,
    nellie_bound,
    psl_report,
    streaming_peaks,
)
from grs.qcomplex import CQ, as_cq
from grs.sequences import BudgetExceeded, Sequence, grs_pair, validate_seed


def test_abgd_base_row():
    table = abgd(1)
    assert table.entry(-1) == (-1, 0, 2, 0)
    assert table.entry(0) == (0, 1, 0, 2)
    assert table.entry(1) == (0, 0, 0, 0)
    assert table.entry(-2) == (0, 0, 0, 0)


def test_abgd_published_entries():
    for t, rows in TABLE2.items():
        table = abgd(t)
        for j, a, b, g, d in rows:
            assert table.entry(j) == (a, b, g, d), (t, j)


def test_abgd_support_and_parity():
    for t in range(2, 11):
        table = abgd(t)
        half = 1 << (t - 1)
        assert table.a.size == 2 * half
        for j in range(-half, half):
            _, _, g, d = table.entry(j)
            if j % 2 != 0:
                assert g == 0
            else:
                assert d == 0


def test_coeff_by_iteration_examples(rs_seed):
    assert coeff_by_iteration(rs_seed, 4, 2, -11) == 5
    assert coeff_by_iteration(rs_seed, 10, 5, -341) == 153
    # Shifts that are exact multiples of the block size give zero.
    for n, t in ((5, 2), (7, 3), (9, 4)):
        block = rs_seed.ell0 << (n - t + 1)
        for q in (-2, -1, 0, 1):
            assert coeff_by_iteration(rs_seed, n, t, q * block) == 0


def test_coeff_by_iteration_level_guard(rs_seed):
    with pytest.raises(LevelTooSmall):
        coeff_by_iteration(rs_seed, 3, 3, 0)
    with pytest.raises(LevelTooSmall):
        coeff_by_iteration(rs_seed, 3, 0, 0)


def _oracle_dense(seed, n):
    pair = grs_pair(seed, n)
    ell = pair.length
    arr = np.zeros(2 * ell - 1, dtype=np.int64)
    for s, v in correlation.spectrum(pair.x, pair.y).entries.items():
        arr[s + ell - 1] = v
    return arr


def test_iteration_equals_oracle_small(corpus):
    for seed in corpus:
        for n in range(2, 9):
            oracle = _oracle_dense(seed, n)
            ell = seed.ell0 << n
            for t in range(1, n):
                assert np.array_equal(iter_spectrum(seed, n, t), oracle)
                for s in range(-ell + 1, ell):
                    assert coeff_by_iteration(seed, n, t, s) == int(oracle[s + ell - 1])


def test_coeff_by_geoff_examples(rs_seed):
    assert coeff_by_geoff(rs_seed, 3, -3) == -5
    assert coeff_by_geoff(rs_seed, 5, 9) == 9
    assert coeff_by_geoff(rs_seed, 2, 1) == 3
    with pytest.raises(ShiftZero):
        coeff_by_geoff(rs_seed, 4, 0)
    with pytest.raises(LevelTooSmall):
        coeff_by_geoff(rs_seed, 1, 1)


def test_coeff_by_geoff_reproduces_published_values(rs_seed):
    for n, rows in TABLE1.items():
        for s, value in rows:
            if n < 2:
                pair = grs_pair(rs_seed, n)
                assert correlation.spectrum(pair.x, pair.y).value(s) == value
            else:
                assert coeff_by_geoff(rs_seed, n, s) == value, (n, s)


def test_coeff_by_geoff_against_oracle(corpus):
    for seed, n_top in zip(corpus, (12, 10, 9)):
        for n in range(2, n_top + 1):
            pair = grs_pair(seed, n)
            spec = correlation.spectrum(pair.x, pair.y)
            for s in range(-pair.length + 1, pair.length):
                if s == 0:
                    continue
                assert as_cq(coeff_by_geoff(seed, n, s)) == as_cq(spec.value(s))


def test_streaming_matches_published_peaks(rs_seed):
    for n in range(0, 15):
        rep, _ = streaming_peaks(rs_seed, n)
        assert rep.value == abs(TABLE3[n][0][1])
        assert rep.witnesses == TABLE3[n]


def test_streaming_psl_reports(rs_seed):
    for n in range(0, 15):
        rep = psl_report(rs_seed, n)
        assert rep.witnesses == TABLE4[n]


def test_streaming_beyond_cutoff(rs_seed):
    rep27, _ = streaming_peaks(rs_seed, 27)
    assert rep27.witnesses == ((-44739243, -640933),)
    rep28, _ = streaming_peaks(rs_seed, 28)
    assert rep28.witnesses == ((-89478451, 860709),)
    assert psl_report(rs_seed, 28).witnesses == ((178956971, -640933),)
    assert psl_report(rs_seed, 29).witnesses == ((357913907, 860709),)


def test_streaming_split_independence(corpus, seed_complex, seed_complex_rational):
    for seed in corpus + [seed_complex, seed_complex_rational]:
        for n in range(3, 11):
            reports = [
                streaming_peaks(seed, n, t_split=t)
                for t in range(1, n)
            ]
            assert all(r == reports[0] for r in reports)


def test_streaming_even_skip_consistency(rs_seed, seed_pm2):
    # The unit seed's level-1 pair is the pm2 seed, so its peaks one level
    # up must agree, even shifts (where the unit seed's values vanish)
    # included.
    fastscan.clear_caches()
    rep_rs, _ = streaming_peaks(rs_seed, 7)
    rep_pm, _ = streaming_peaks(seed_pm2, 6)
    assert rep_rs.value == rep_pm.value
    assert rep_rs.witnesses == rep_pm.witnesses


def _dense_peak(seed, n, t):
    """Peak and witnesses read off the full iter_spectrum array; rational
    seeds are scaled to integers and the values scaled back."""
    scale = 1
    if not seed.is_int:
        d = lcm(*(c.re.denominator for s in (seed.x0, seed.y0) for c in s.cq_coeffs()))
        scaled = [Sequence([c.re * d for c in s.cq_coeffs()], s.length) for s in (seed.x0, seed.y0)]
        seed = validate_seed(*scaled, seed.ell0)
        scale = d * d
    values = iter_spectrum(seed, n, t)
    mags = np.abs(values)
    best = int(mags.max())
    ell = seed.ell0 << n
    wits = tuple(
        (int(i) - (ell - 1), Fraction(int(values[i]), scale))
        for i in np.flatnonzero(mags == best)
    )
    return Fraction(best, scale), wits


def test_pruned_scan_equals_dense(corpus, seed_golay10, seed_padded3, seed_rational):
    for seed in corpus + [seed_golay10, seed_padded3, seed_rational]:
        for n in range(3, 17):
            for t in range(1, n):
                rep, _ = streaming_peaks(seed, n, t_split=t)
                value, wits = _dense_peak(seed, n, t)
                assert rep.value == value, (seed.ell0, n, t)
                assert rep.witnesses == wits, (seed.ell0, n, t)


def test_complex_seed_scan_matches_oracle(seed_complex, seed_complex_rational):
    fastscan.clear_caches()
    for seed, n in itertools.product([seed_complex, seed_complex_rational], range(0, 11)):
        pair = grs_pair(seed, n)
        spec = correlation.spectrum(pair.x, pair.y)
        if n <= 8:
            # crosscorr takes one overlap sum per shift, so this check grows
            # quadratically; n = 8 (1023 shifts of length 512) takes about 0.5 s.
            for s in range(-pair.length + 1, pair.length):
                assert as_cq(spec.value(s)) == as_cq(correlation.crosscorr(pair.x, pair.y, s))
        value, shifts = correlation.pcc(pair.x, pair.y)
        rep, psl_rep = streaming_peaks(seed, n)
        assert rep.value == value, n
        assert rep.witnesses == tuple((s, spec.value(s)) for s in shifts), n
        x_next = grs_pair(seed, n + 1).x
        psl_value, psl_shifts = correlation.psl(x_next)
        auto = correlation.spectrum(x_next, x_next)
        assert psl_rep.value == psl_value, n
        assert psl_rep.witnesses == tuple((s, auto.value(s)) for s in psl_shifts), n


def test_properly_complex_peak_still_raises(tmp_path, capsys):
    # (1, 1+i) and (1, -1-i) is a Golay seed whose peaks have irrational
    # magnitudes: the scan refuses them rather than report a rounded value.
    from grs.cli import main
    from grs.qcomplex import CQ
    from grs.sequences import write_seed_pair

    seed = validate_seed(Sequence([1, CQ(1, 1)]), Sequence([1, CQ(-1, -1)]), 2)
    fastscan.clear_caches()
    for n in (3, 10):
        with pytest.raises(ValueError, match="irrational"):
            streaming_peaks(seed, n)
    seed_file = tmp_path / "seed.txt"
    with open(seed_file, "w") as fp:
        write_seed_pair(seed, fp)
    with pytest.raises(SystemExit) as exc:
        main(["peaks", "--seed", str(seed_file), "--n", "6"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "irrational" in err and err.count("\n") == 1


def test_clear_caches_empties_every_cache(rs_seed):
    from grs import fastscan

    before, _ = streaming_peaks(rs_seed, 10)
    abgd(12)
    coeff_by_iteration(rs_seed, 10, 5, 3)
    fastscan.clear_caches()
    caches = (
        fastscan._abgd_cache,
        fastscan._int_levels,
        fastscan._geoff_memo,
        fastscan._peak_cache,
    )
    assert all(len(cache) == 0 for cache in caches)
    assert fastscan._block.cache_info().currsize == 0
    again, _ = streaming_peaks(rs_seed, 10)
    assert again == before


def test_oracle_levels_match_per_entry_reference(
    corpus, seed_golay10, seed_padded3, seed_rational, seed_complex, seed_complex_rational
):
    # Levels 0 and 1 filled from the spectrum's arrays equal the per-entry
    # fill: d^2 C_k(s) at index s + ell_k - 1, one row per part of the seed.
    # Of the last two seeds, one declares its members longer than ell0, and
    # one has x.den * y.den = 5 below d^2 = 25.
    long_members = validate_seed(Sequence([1, 1, 0, 0]), Sequence([1, -1, 0, 0]), 3)
    w = CQ(Fraction(3, 5), Fraction(4, 5))
    unequal_dens = validate_seed(Sequence([1, 1]), Sequence([w, -w]), 2)
    seeds = corpus + [seed_golay10, seed_padded3, seed_rational, seed_complex,
                      seed_complex_rational, long_members, unequal_dens]
    for seed, k in itertools.product(seeds, (0, 1)):
        pair = grs_pair(seed, k)
        ell = pair.length
        scale = fastscan._scale(seed)
        rows = [[0] * (2 * ell - 1) for _ in range(1 if seed.is_rational else 2)]
        for s, v in correlation.spectrum(pair.x, pair.y).entries.items():
            for row, part in zip(rows, (as_cq(v).re, as_cq(v).im)):
                row[s + ell - 1] = int(part * scale)
        level = fastscan._oracle_level(seed, k)
        assert [part.tolist() for part in level] == rows
        assert all(part.dtype == np.int64 for part in level)


def test_peak_abs_is_the_integer_ceiling_of_the_modulus():
    from grs.fastscan import _peak_abs

    assert _peak_abs((np.array([-7, 3]),)) == 7
    assert _peak_abs((np.array([3, 0]), np.array([4, 1]))) == 5
    # |1 + i| = sqrt(2) rounds up; so does a modulus whose square leaves int64.
    assert _peak_abs((np.array([1, 0]), np.array([1, 0]))) == 2
    big = 3 * 10**9
    assert _peak_abs((np.array([big]), np.array([big]))) == isqrt(2 * big * big) + 1


def test_block_bound_is_max_of_nellie_bound():
    from grs.fastscan import _block_bounds

    for t in range(1, 7):
        ell_nt = 4
        bounds = _block_bounds(abgd(t), 11, 7)
        for q in range(-(1 << (t - 1)), 1 << (t - 1)):
            per_shift = [nellie_bound(t, q, r, ell_nt, 11, 7) for r in range(2 * ell_nt)]
            assert bounds[q + (1 << (t - 1))] == max(per_shift), (t, q)


def _four_term_at(tables, s, spec_nt, ell_nt, spec_nt1):
    """C_n(s) shift by shift from the four-term formula, on CQ values."""
    def look(spec, ell, u):
        idx = u + ell - 1
        return spec[idx] if 0 <= idx < len(spec) else as_cq(0)

    ell_nt1 = ell_nt // 2
    q, r = divmod(s, 2 * ell_nt)
    a, b, g, d = tables.entry(q)
    return (
        a * look(spec_nt, ell_nt, r - ell_nt)
        + b * look(spec_nt, ell_nt, ell_nt - r).conj()
        + g * look(spec_nt1, ell_nt1, r - 3 * ell_nt1)
        + d * look(spec_nt1, ell_nt1, ell_nt1 - r).conj()
    )


def test_block_peak_keeps_equal_bound_blocks():
    # Random +/-1 and {-1, 0, 1} level arrays make many blocks reach their
    # bound, so ties between blocks whose bound equals the peak are common.
    # Two parts are the re and im arrays of a complex level, whose peak is
    # taken on squared magnitudes.
    from grs.fastscan import _block_peak

    rng = np.random.default_rng(2021)
    for parts, t in itertools.product((1, 2), range(1, 7)):
        tables = abgd(t)
        for ell_nt in (2, 4, 6, 8):
            for values in ([-1, 1], [-1, 0, 1]):
                level_nt = tuple(rng.choice(values, 2 * ell_nt - 1) for _ in range(parts))
                level_nt1 = tuple(rng.choice(values, ell_nt - 1) for _ in range(parts))
                cq_nt, cq_nt1 = (
                    [as_cq(tuple(int(p[i]) for p in level) + (0,) * (2 - parts))
                     for i in range(level[0].size)]
                    for level in (level_nt, level_nt1)
                )
                ell = ell_nt << t
                dense = {
                    s: _four_term_at(tables, s, cq_nt, ell_nt, cq_nt1)
                    for s in range(-ell + 1, ell)
                }
                best = max(v.abs2() for v in dense.values())
                wits = [
                    (s, int(v.re), int(v.im))[: 1 + parts]
                    for s, v in dense.items()
                    if best and v.abs2() == best
                ]
                if parts == 1:
                    best = max(abs(int(v.re)) for v in dense.values())
                assert _block_peak(tables, level_nt, level_nt1) == (best, wits)


def test_large_coefficients_leave_int64_exactly():
    # Correlations of the 10^9 seed pass 2^63 from level 4 on, those of the
    # 10^10 seed already at level 0; levels and scan blocks whose exact
    # bound leaves int64 are computed with Python ints.
    small = validate_seed(Sequence([10**9]), Sequence([10**9]), 1)
    assert coeff_by_iteration(small, 6, 1, -43) == 13 * 10**18
    big = validate_seed(Sequence([10**10]), Sequence([10**10]), 1)
    for seed, n in [(small, n) for n in range(3, 9)] + [(big, 3), (big, 4)]:
        entries = correlation.spectrum(*_pair_seqs(seed, n)).entries
        ell = seed.ell0 << n
        oracle = [entries.get(s, 0) for s in range(-ell + 1, ell)]
        peak = max(map(abs, oracle))
        wits = tuple((s, v) for s, v in sorted(entries.items()) if abs(v) == peak)
        for t in range(1, n):
            assert iter_spectrum(seed, n, t).tolist() == oracle, (n, t)
            for s in range(-ell + 1, ell):
                assert coeff_by_iteration(seed, n, t, s) == oracle[s + ell - 1]
            rep, _ = streaming_peaks(seed, n, t_split=t)
            assert (rep.value, rep.witnesses) == (peak, wits), (n, t)


def test_streaming_budget_guard(rs_seed, seed_rational, seed_complex):
    fastscan.clear_caches()
    with pytest.raises(BudgetExceeded):
        streaming_peaks(rs_seed, 12, budget=64)
    # A cached peak report does not get round the budget.
    assert streaming_peaks(rs_seed, 12)[0].value == 373
    with pytest.raises(BudgetExceeded):
        streaming_peaks(rs_seed, 12, budget=64)
    # A complex level is two arrays, re and im, so it counts twice: the
    # same scan fits the budget on a real seed and not on a complex one.
    rep, _ = streaming_peaks(seed_rational, 20, t_split=5, budget=300000)
    assert rep.value == Fraction(28293, 4)
    with pytest.raises(BudgetExceeded):
        streaming_peaks(seed_complex, 20, t_split=5, budget=300000)


def test_streaming_rational_seed():
    half = Fraction(1, 2)
    seed = validate_seed(Sequence([half]), Sequence([half]), 1)
    rep, psl_rep = streaming_peaks(seed, 6)
    assert rep.value == Fraction(19, 4)
    assert rep.witnesses == ((13, Fraction(19, 4)),)
    assert psl_rep.witnesses == ((51, Fraction(19, 4)),)


def test_nellie_bound_cases(rs_seed):
    # r = 0 forces a zero value.
    assert nellie_bound(3, -1, 0, 8, 100, 100) == 0
    # t = 1, q = 0, r = block midpoint: only the first pair contributes.
    assert nellie_bound(1, 0, 4, 4, 7, 3) == 7
    # t = 3, q = -2, low window: |A| + |B| = 5, Delta vanishes.
    assert nellie_bound(3, -2, 3, 8, 11, 13) == 5 * 11
    with pytest.raises(ValueError):
        nellie_bound(2, 0, 16, 8, 1, 1)


def test_nellie_bound_dominates_oracle(corpus):
    for seed in corpus:
        peaks = {}
        for k in range(0, 10):
            pair = grs_pair(seed, k)
            peaks[k] = max(
                (as_cq(v).abs2() for v in correlation.spectrum(pair.x, pair.y).entries.values()),
                default=Fraction(0),
            )
        # Compare squared bounds to squared values to stay rational.
        for n in range(3, 10):
            oracle = correlation.spectrum(*_pair_seqs(seed, n))
            for t in range(1, n):
                ell_nt = seed.ell0 << (n - t)
                m_nt = _isqrt_exact(peaks[n - t])
                m_nt1 = _isqrt_exact(peaks[n - t - 1])
                for s, v in oracle.entries.items():
                    q, r = divmod(s, 2 * ell_nt)
                    bound = nellie_bound(t, q, r, ell_nt, m_nt, m_nt1)
                    assert as_cq(v).abs2() <= Fraction(bound) ** 2, (seed.ell0, n, t, s)


def test_nellie_bound_dominates_unit_seed_to_14(rs_seed):
    # Same dominance check, vectorized so levels up to 14 stay cheap.
    peaks = {k: streaming_peaks(rs_seed, k)[0].value for k in range(14)}
    for n in range(3, 15):
        ell = 1 << n
        shifts = np.arange(-ell + 1, ell, dtype=np.int64)
        for t in range(1, n):
            values = np.abs(iter_spectrum(rs_seed, n, t))
            table = abgd(t)
            ell_nt = 1 << (n - t)
            q = shifts >> (n - t + 1)
            r = shifts & (2 * ell_nt - 1)
            qi = np.clip(q + table.offset, 0, table.a.size - 1)
            sum_ab = np.abs(table.a[qi]) + np.abs(table.b[qi])
            bound = sum_ab * peaks[n - t]
            bound += np.where(
                (0 < r) & (r < ell_nt), np.abs(table.d[qi]) * peaks[n - t - 1], 0
            )
            bound += np.where(
                (ell_nt < r), np.abs(table.g[qi]) * peaks[n - t - 1], 0
            )
            bound = np.where(r == 0, 0, bound)
            assert np.all(values <= bound), (n, t)


def _pair_seqs(seed, n):
    pair = grs_pair(seed, n)
    return pair.x, pair.y


def _isqrt_exact(sq: Fraction) -> Fraction:
    # Peaks of integer-valued pairs are integers, so their squares have
    # exact integer square roots.
    assert sq.denominator == 1
    root = isqrt(sq.numerator)
    assert root * root == sq.numerator
    return Fraction(root)


def test_derrel_bound_examples():
    assert derrel_bound(1, 0, 2, 0) == 3
    assert derrel_bound(1, 0, 3, -1) == 5
    assert derrel_bound(Fraction(2), Fraction(1), 2, -5) == 0
    with pytest.raises(LevelTooSmall):
        derrel_bound(1, 0, 1, 0)


def test_derrel_bound_dominates_oracle(corpus):
    for seed, n_top in zip(corpus, (12, 10, 9)):
        pcc0, _ = correlation.pcc(seed.x0, seed.y0)
        psl0, _ = correlation.psl(seed.x0)
        ell2 = seed.ell0 << 2
        for n in range(2, n_top + 1):
            pair = grs_pair(seed, n)
            for s, v in correlation.spectrum(pair.x, pair.y).entries.items():
                bound = derrel_bound(pcc0, psl0, n, s // ell2)
                assert as_cq(v).abs2() <= Fraction(bound) ** 2
