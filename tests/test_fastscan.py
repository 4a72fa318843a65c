import itertools
from fractions import Fraction
from math import inf, isqrt, lcm

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


def test_coeff_walk_equals_table():
    # The O(t) walk down the child maps reads the same entries as the whole
    # table, and zeros outside its support.
    for t in range(1, 11):
        table = abgd(t)
        half = 1 << (t - 1)
        for q in range(-2 * half, 2 * half):
            row = [0] * 4
            if -half <= q < half:
                row = [int(col[q + half]) for col in (table.a, table.b, table.g, table.d)]
            assert list(fastscan._coeffs(t, q)) == row, (t, q)


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


def test_streaming_golden_large_levels(rs_seed):
    # Far past any materializable level; two leaf depths agree on each.
    for n, value in ((50, 59901979961), (100, 6109881259849012232609),
                     (166, 1973078732664453215819858214744627849)):
        reports = [streaming_peaks(rs_seed, n, t_split=t)[0] for t in (n - 13, n - 9)]
        assert reports[0] == reports[1]
        assert reports[0].value == value
        assert streaming_peaks(rs_seed, n)[0] == reports[0]


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

    before, _ = streaming_peaks(rs_seed, 20)
    abgd(12)
    coeff_by_iteration(rs_seed, 10, 5, 3)
    coeff_by_geoff(rs_seed, 10, 3)
    fastscan.clear_caches()
    assert len(fastscan._peak_bounds) == 0
    assert fastscan._block.cache_info().currsize == 0
    again, _ = streaming_peaks(rs_seed, 20)
    assert again == before


def test_each_level_is_searched_once_per_seed(rs_seed, monkeypatch):
    # Both rs suites ask for every PCC_n up to 40, and each level above the
    # floor is searched once, for its entry of the peak list; a later scan
    # at the default split reads that entry.
    from grs.bounds import verify_rs_bounds, verify_rs_lower_bounds

    searched = []
    search = fastscan._tree_peak

    def counted(seed, n, t):
        searched.append(n)
        return search(seed, n, t)

    monkeypatch.setattr(fastscan, "_tree_peak", counted)
    fastscan.clear_caches()
    verify_rs_bounds(40) + verify_rs_lower_bounds(40)
    floor = fastscan._floor(rs_seed)
    assert sorted(searched) == list(range(floor + 1, 41)) and len(searched) == 27
    assert streaming_peaks(rs_seed, 40)[0].value == 372089521
    assert len(searched) == 27


def test_levels_above_the_floor_are_not_kept(rs_seed):
    # Explicit splits and single coefficients build the levels above the
    # floor per call; only the entries up to the floor hold a level.
    fastscan.clear_caches()
    oracle = correlation.spectrum(*_pair_seqs(rs_seed, 17)).parts[0]
    assert iter_spectrum(rs_seed, 17, 2).tolist() == oracle.tolist()
    rep, _ = streaming_peaks(rs_seed, 30)
    assert streaming_peaks(rs_seed, 30, t_split=10)[0] == rep
    shifts = [s for s, _ in rep.witnesses] + [-(1 << 29) + 5, 3, (1 << 30) - 7]
    for s in shifts:
        assert coeff_by_iteration(rs_seed, 30, 10, s) == coeff_by_iteration(rs_seed, 30, 17, s)
    assert coeff_by_iteration(rs_seed, 30, 10, shifts[0]) == rep.witnesses[0][1]
    entries = fastscan._peak_bounds[rs_seed]
    kept = [k for k, entry in enumerate(entries) if entry[3] is not None]
    assert kept == list(range(fastscan._floor(rs_seed) + 1)) and len(entries) > len(kept)


def test_alternating_two_level_lookups_keep_both_blocks(rs_seed, monkeypatch):
    # Both signs of the two-level rule are two blocks, and both stay
    # cached: level 15, above the floor, is built once per block, not once
    # per lookup.
    built = []
    dense = fastscan._dense_int

    def counted(seed, n, *rest):
        built.append(n)
        return dense(seed, n, *rest)

    monkeypatch.setattr(fastscan, "_dense_int", counted)
    fastscan.clear_caches()
    oracle = correlation.spectrum(*_pair_seqs(rs_seed, 16))
    shifts = [(-1) ** i * (1001 + 2 * i) for i in range(20)]
    assert [coeff_by_geoff(rs_seed, 16, s) for s in shifts] == [oracle.value(s) for s in shifts]
    assert fastscan._floor(rs_seed) < 15 and built.count(15) == 2
    fastscan.clear_caches()


def _reference_level(seed, k):
    """d^2 C_k(s) at index s + ell_k - 1, one row per part of the seed,
    filled entry by entry from the oracle spectrum."""
    pair = grs_pair(seed, k)
    ell = pair.length
    scale = fastscan._scale(seed)
    rows = [[0] * (2 * ell - 1) for _ in range(1 if seed.is_rational else 2)]
    for s, v in correlation.spectrum(pair.x, pair.y).entries.items():
        for row, part in zip(rows, (as_cq(v).re, as_cq(v).im)):
            row[s + ell - 1] = int(part * scale)
    return rows


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
        level = fastscan._oracle_level(seed, k)
        assert [part.tolist() for part in level] == _reference_level(seed, k)
        assert all(part.dtype == np.int64 for part in level)


def test_levels_above_a_lowered_floor(
    monkeypatch, rs_seed, seed_pm4, seed_golay10, seed_padded3, seed_rational, seed_complex,
    seed_complex_rational,
):
    # With the dense floor at level 3, levels 4..9 are each built in one
    # pass from levels 3 and 2, on every kind of seed, and the peaks of the
    # default split equal those of every explicit split.  The 10^20 seed's
    # values leave int64, so its levels are Python integers.
    big = validate_seed(Sequence([10**20, 10**20]), Sequence([10**20, -(10**20)]), 2)
    seeds = [rs_seed, seed_pm4, seed_golay10, seed_padded3, seed_rational, seed_complex,
             seed_complex_rational, big]
    monkeypatch.setattr(fastscan, "_floor", lambda seed: 3)
    fastscan.clear_caches()
    try:
        for seed in seeds:
            for k in range(4, 10):
                level = fastscan._int_level(seed, k)
                assert [part.tolist() for part in level] == _reference_level(seed, k), k
                assert all(part.dtype == (object if seed is big else np.int64) for part in level)
            for n in range(4, 10):
                default = streaming_peaks(seed, n)
                assert all(streaming_peaks(seed, n, t_split=t) == default for t in range(1, n))
    finally:
        fastscan.clear_caches()


def _peak_abs(level):
    """The least integer at or above every |C_k(s)| of a level, from the
    peak reducer that the dense levels and the scan leaves share."""
    best, _ = fastscan._peak_of(level)
    return best if len(level) == 1 else fastscan._root_up(best)


def test_peak_abs_is_the_integer_ceiling_of_the_modulus():
    assert _peak_abs((np.array([-7, 3]),)) == 7
    assert _peak_abs((np.array([3, 0]), np.array([4, 1]))) == 5
    # |1 + i| = sqrt(2) rounds up; so does a modulus whose square leaves int64.
    assert _peak_abs((np.array([1, 0]), np.array([1, 0]))) == 2
    big = 3 * 10**9
    assert _peak_abs((np.array([big]), np.array([big]))) == isqrt(2 * big * big) + 1


def test_tree_bounds_dominate_every_block(corpus, seed_golay10, seed_padded3):
    # Every node of the shift tree, at every depth, bounds |C_n(s)| on its
    # whole block, with its parent's bound as a cap; level n is dense.
    for seed in corpus + [seed_golay10, seed_padded3]:
        for n in range(2, 13):
            ell = seed.ell0 << n
            mags = np.abs(iter_spectrum(seed, n, 1))
            ms = [entry[0] for entry in fastscan._peak_bounds_to(seed, n - 1)]
            assert ms[n - 1] == _peak_abs(fastscan._int_level(seed, n - 1))
            nodes = [(q, node, inf) for q, node in fastscan._ROOTS.items()]
            for depth in range(1, n):
                size = 2 * (seed.ell0 << (n - depth))
                below = []
                for q, node, cap in nodes:
                    bound = min(cap, fastscan._bound(node, ms[n - depth], ms[n - depth - 1]))
                    lo, hi = max(q * size, 1 - ell), min((q + 1) * size, ell)
                    assert mags[lo + ell - 1 : hi + ell - 1].max() <= bound, (n, depth, q)
                    below += [(2 * q + i, c, bound) for i, c in enumerate(fastscan._children(node))]
                nodes = below


def _reference_block_peak(tables, level_nt, level_nt1):
    """The sorted-bounds scan that the tree search replaced: the bound of
    every block of a whole ``abgd(t)`` table, blocks visited in decreasing
    order of bound down to the first bound below the best value found."""
    big_l = level_nt[0].size + 1
    square = len(level_nt) == 2
    m_nt, m_nt1 = _peak_abs(level_nt), _peak_abs(level_nt1)
    ab = (np.abs(tables.a) + np.abs(tables.b)).astype(object)
    gd = np.maximum(np.abs(tables.g), np.abs(tables.d)).astype(object)
    bounds = ab * m_nt + gd * m_nt1
    best = 0
    hits = []
    for qi in np.argsort(bounds, kind="stable")[::-1]:
        bound = int(bounds[qi]) ** (2 if square else 1)
        if bound < best or bound == 0:
            break
        coeffs = (int(col[qi]) for col in (tables.a, tables.b, tables.g, tables.d))
        vals = fastscan._block_values(*coeffs, level_nt, level_nt1, bound)
        mags = vals[0] * vals[0] + vals[1] * vals[1] if square else np.abs(vals[0])
        m = int(mags.max())
        if m < best or m == 0:
            continue
        if m > best:
            best = m
            hits.clear()
        idx = np.flatnonzero(mags == best)
        hits.append(((int(qi) - (1 << (tables.t - 1))) * big_l + 1, idx, [v[idx] for v in vals]))
    wits = sorted(
        (start + int(u), *map(int, parts))
        for start, idx, vals in hits
        for u, *parts in zip(idx, *vals)
    )
    return best, wits


def test_tree_search_equals_sorted_bounds_reference(
    rs_seed, seed_pm4, seed_golay10, seed_padded3, seed_rational, seed_complex,
    seed_complex_rational,
):
    seeds = [rs_seed, seed_pm4, seed_golay10, seed_padded3, seed_rational, seed_complex,
             seed_complex_rational]
    for seed in seeds:
        for n in range(3, 17):
            for t in range(1, n):
                levels = (fastscan._int_level(seed, n - t), fastscan._int_level(seed, n - t - 1))
                reference = _reference_block_peak(abgd(t), *levels)
                assert fastscan._tree_peak(seed, n, t) == reference, (seed.ell0, n, t)


def test_tree_search_keeps_equal_bound_witnesses():
    # (1, 1, 0)/(0, -1, 1) with ell0 = 3 peaks at two shifts from level 5
    # on, and deep splits put them in blocks whose bound equals the peak:
    # the search must expand those blocks too.
    seed = validate_seed(Sequence([1, 1, 0]), Sequence([0, -1, 1]), 3)
    for n in range(3, 11):
        pair = grs_pair(seed, n)
        spec = correlation.spectrum(pair.x, pair.y)
        value, shifts = correlation.pcc(pair.x, pair.y)
        assert len(shifts) == (1 if n in (3, 4, 6) else 2)
        for t in range(1, n):
            rep, _ = streaming_peaks(seed, n, t_split=t)
            assert rep.value == value, (n, t)
            assert rep.witnesses == tuple((s, spec.value(s)) for s in shifts), (n, t)


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
    # Cached peaks of lower levels do not get round the budget.
    assert streaming_peaks(rs_seed, 12)[0].value == 373
    with pytest.raises(BudgetExceeded):
        streaming_peaks(rs_seed, 12, budget=64)
    # A complex level is two arrays, re and im, so it counts twice: the
    # same scan fits the budget on a real seed and not on a complex one.
    rep, _ = streaming_peaks(seed_rational, 20, t_split=5, budget=300000)
    assert rep.value == Fraction(28293, 4)
    with pytest.raises(BudgetExceeded):
        streaming_peaks(seed_complex, 20, t_split=5, budget=300000)
    # The budget counts the two dense levels only: a deep split keeps them
    # small, whatever the number of blocks at its depth.
    assert streaming_peaks(rs_seed, 40, t_split=35)[0].value == 372089521
    assert streaming_peaks(rs_seed, 40)[0].value == 372089521


def test_budget_is_not_read_from_the_environment(monkeypatch, rs_seed):
    # The cap comes from ``budget=`` (``--budget N``) or the default only.
    monkeypatch.setenv("GRS_BUDGET_BYTES", "1")
    fastscan.clear_caches()
    assert streaming_peaks(rs_seed, 3)[0].value == 5


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
            qi = np.clip(q + (1 << (t - 1)), 0, table.a.size - 1)
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
    # One entry at step count 69, walked down the tree without its table.
    assert derrel_bound(1, 0, 70, -1) == 9
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
