import itertools
import json
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import inf, isqrt, lcm

import numpy as np
import pytest
from conftest import assert_outcome

from golden import TABLE1, TABLE2, TABLE3, TABLE4
from grs import correlation, fastscan
from grs.fastscan import (
    LevelTooSmall,
    PeakReport,
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
from grs.qcomplex import CQ, as_cq, int_text
from grs.sequences import BudgetExceeded, Sequence, grs_pair, rudin_shapiro_seed, validate_seed


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


def test_psl_report_takes_no_split(rs_seed):
    # Every level of psl_report is answered at the default split.
    for n in (0, 1, 5):
        with pytest.raises(TypeError):
            psl_report(rs_seed, n, t_split=2)


def test_streaming_golden_large_levels(rs_seed):
    # Far past any materializable level: each peak and its one witness.
    for n, value, shift in (
        (50, 59901979961, -375299968947541),
        (100, 6109881259849012232609, -422550200076076467165567735125),
        (166, 1973078732664453215819858214744627849,
         -31178701596392595588345276431280704419326560916821),
    ):
        rep, _ = streaming_peaks(rs_seed, n)
        assert (rep.level, rep.value, rep.witnesses) == (n, value, ((shift, value),)), n


def test_streaming_beyond_cutoff(rs_seed):
    rep27, _ = streaming_peaks(rs_seed, 27)
    assert rep27.witnesses == ((-44739243, -640933),)
    rep28, _ = streaming_peaks(rs_seed, 28)
    assert rep28.witnesses == ((-89478451, 860709),)
    assert psl_report(rs_seed, 28).witnesses == ((178956971, -640933),)
    assert psl_report(rs_seed, 29).witnesses == ((357913907, 860709),)


def test_streaming_split_independence(corpus, seed_complex, seed_complex_rational):
    # The pruned search equals the peak of the whole level n, built at every
    # split t of the four-term formula, real and complex.
    for seed in corpus + [seed_complex, seed_complex_rational]:
        for n in range(3, 11):
            found = fastscan._tree_peak(seed, n)
            for t in range(1, n):
                level = fastscan._dense_int(t, *fastscan._levels(seed, n - t))
                assert fastscan._peak_of(level, 1 - (seed.ell0 << n)) == found, (n, t)


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
            rep, _ = streaming_peaks(seed, n)
            for t in range(1, n):
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


def test_low_levels_match_the_oracle(
    corpus, seed_golay10, seed_padded3, seed_rational, seed_complex, seed_complex_rational
):
    # Levels 0..2 are answered from the per-seed store like every other
    # level, so the oracle checks them independently.
    fastscan.clear_caches()
    for seed in corpus + [seed_golay10, seed_padded3, seed_rational, seed_complex,
                          seed_complex_rational]:
        for n in range(3):
            pair = grs_pair(seed, n)
            spec = correlation.spectrum(pair.x, pair.y)
            value, shifts = correlation.pcc(pair.x, pair.y)
            rep, _ = streaming_peaks(seed, n)
            assert (rep.level, rep.value) == (n, value), (seed.ell0, n)
            assert rep.witnesses == tuple((s, spec.value(s)) for s in shifts), (seed.ell0, n)
        for n in range(4):
            x = grs_pair(seed, n).x
            auto = correlation.spectrum(x, x)
            value, shifts = correlation.psl(x)
            rep = psl_report(seed, n)
            assert (rep.level, rep.value) == (n, value), (seed.ell0, n)
            assert rep.witnesses == tuple((s, auto.value(s)) for s in shifts), (seed.ell0, n)


def test_complex_leaves_stay_in_int64(seed_complex, monkeypatch):
    # The bound of a block caps every re and im partial sum, so the leaves
    # of the (1, i)/(1, -i) scan stay in int64 at n = 60, where the square
    # of that bound leaves it.  The peak is the pure imaginary 15491477817747i.
    dtypes = set()

    def block_values(*args):
        vals = evaluate(*args)
        dtypes.update(v.dtype for v in vals)
        return vals

    evaluate = fastscan._block_values
    monkeypatch.setattr(fastscan, "_block_values", block_values)
    fastscan.clear_caches()
    rep, _ = streaming_peaks(seed_complex, 60)
    fastscan.clear_caches()
    assert dtypes == {np.dtype(np.int64)}
    assert rep.value == 15491477817747
    assert rep.witnesses == ((-768614336404564661, CQ(0, 15491477817747)),)


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
    assert fastscan._levels.cache_info().currsize == 0
    assert fastscan._block.cache_info().currsize == 0
    again, _ = streaming_peaks(rs_seed, 20)
    assert again == before


def test_each_level_is_searched_once_per_seed(rs_seed, monkeypatch):
    # Both rs suites ask for every PCC_n up to 40, and each level above 1
    # is searched once, for its entry of the peak list; a later scan reads
    # that entry.
    from grs.bounds import verify_rs_bounds, verify_rs_lower_bounds

    searched = []
    search = fastscan._tree_peak

    def counted(seed, n):
        searched.append(n)
        return search(seed, n)

    monkeypatch.setattr(fastscan, "_tree_peak", counted)
    fastscan.clear_caches()
    verify_rs_bounds(40) + verify_rs_lower_bounds(40)
    assert sorted(searched) == list(range(2, 41)) and len(searched) == 39
    assert streaming_peaks(rs_seed, 40)[0].value == 372089521
    assert len(searched) == 39


def test_levels_above_the_floor_are_not_kept(rs_seed):
    # Level spectra and single coefficients build the levels above 1 out of
    # the store, which holds a level at entries 0 and 1 only.
    fastscan.clear_caches()
    oracle = correlation.spectrum(*_pair_seqs(rs_seed, 17)).parts[0]
    assert iter_spectrum(rs_seed, 17, 2).tolist() == oracle.tolist()
    rep, _ = streaming_peaks(rs_seed, 30)
    shifts = [s for s, _ in rep.witnesses] + [-(1 << 29) + 5, 3, (1 << 30) - 7]
    for s in shifts:
        assert coeff_by_iteration(rs_seed, 30, 10, s) == coeff_by_iteration(rs_seed, 30, 17, s)
    assert coeff_by_iteration(rs_seed, 30, 10, shifts[0]) == rep.witnesses[0][1]
    entries = fastscan._peak_bounds[rs_seed]
    kept = [k for k, entry in enumerate(entries) if entry[2] is not None]
    assert kept == [0, 1] and len(entries) == 31


def test_alternating_two_level_lookups_keep_both_blocks(rs_seed, monkeypatch):
    # Both signs of the two-level rule are two blocks, and both stay
    # cached, as does the pair of levels they read: levels 2..15 are built
    # once, each by one t = 1 step, not once per block or per lookup.
    built = []
    dense = fastscan._dense_int

    def counted(t, level_nt, level_nt1):
        built.append((level_nt[0].size + 1).bit_length() - 1)  # ell_n = 2^n
        return dense(t, level_nt, level_nt1)

    monkeypatch.setattr(fastscan, "_dense_int", counted)
    fastscan.clear_caches()
    oracle = correlation.spectrum(*_pair_seqs(rs_seed, 16))
    shifts = [(-1) ** i * (1001 + 2 * i) for i in range(20)]
    assert [coeff_by_geoff(rs_seed, 16, s) for s in shifts] == [oracle.value(s) for s in shifts]
    assert built == list(range(2, 16))
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


def test_scan_reads_no_coefficient_as_a_python_value(monkeypatch, seed_padded3, seed_rational):
    # Levels 0 and 1 come from the members' numerator arrays, cut to the
    # window without one Python value per coefficient: the scan never reads
    # ``Sequence.coeffs``, on seeds whose members are declared shorter or
    # longer than ell0 too.
    long_members = validate_seed(Sequence([1, 1, 0, 0]), Sequence([1, -1, 0, 0]), 3)
    seeds = [seed_padded3, long_members, seed_rational]
    expected = []
    for seed in seeds:
        for n in range(8):
            pair = _pair_seqs(seed, n)
            spec = correlation.spectrum(*pair)
            value, shifts = correlation.pcc(*pair)
            expected.append((value, tuple((s, spec.value(s)) for s in shifts)))

    def refused(seq):
        raise AssertionError("a coefficient was read as a Python value")

    monkeypatch.setattr(Sequence, "coeffs", property(refused))
    fastscan.clear_caches()
    try:
        found = [streaming_peaks(seed, n)[0] for seed in seeds for n in range(8)]
    finally:
        fastscan.clear_caches()
    assert [(rep.value, rep.witnesses) for rep in found] == expected


def test_levels_above_a_lowered_floor(
    rs_seed, seed_pm4, seed_golay10, seed_padded3, seed_rational, seed_complex,
    seed_complex_rational,
):
    # Levels 2..9 are each built by t = 1 steps from levels 1 and 0, on
    # every kind of seed, and the scan's peak of each equals the one read
    # off the whole level.  The 10^20 seed's values leave int64, so its
    # levels are Python integers.
    big = validate_seed(Sequence([10**20, 10**20]), Sequence([10**20, -(10**20)]), 2)
    seeds = [rs_seed, seed_pm4, seed_golay10, seed_padded3, seed_rational, seed_complex,
             seed_complex_rational, big]
    fastscan.clear_caches()
    try:
        for seed in seeds:
            for k in range(2, 10):
                for j, level in zip((k, k - 1), fastscan._levels(seed, k)):
                    assert [part.tolist() for part in level] == _reference_level(seed, j), k
                    assert all(part.dtype == (object if seed is big else np.int64)
                               for part in level)
            for n in range(2, 10):
                dense = fastscan._peak_of(fastscan._levels(seed, n)[0], 1 - (seed.ell0 << n))
                assert fastscan._peak_bounds_to(seed, n)[n][1] == dense[1], n
    finally:
        fastscan.clear_caches()


def _peak_abs(level):
    """The least integer at or above every |C_k(s)| of a level, from the
    peak reducer that the dense levels and the scan leaves share."""
    best, _ = fastscan._peak_of(level, start=0)
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
            assert ms[n - 1] == _peak_abs(fastscan._levels(seed, n - 1)[0])
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
        vals = fastscan._block_values(*coeffs, level_nt, level_nt1)
        mags = vals[0] * vals[0] + vals[1] * vals[1] if square else np.abs(vals[0])
        m = int(mags.max())
        if m < best or m == 0:
            continue
        if m > best:
            best = m
            hits.clear()
        idx = np.flatnonzero(mags == best)
        hits.append(((int(qi) - (1 << (tables.t - 1))) * big_l, idx, [v[idx] for v in vals]))
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
            reference = _reference_block_peak(abgd(n - 1), *fastscan._levels(seed, 1))
            assert fastscan._tree_peak(seed, n) == reference, (seed.ell0, n)


def test_tree_search_keeps_equal_bound_witnesses():
    # (1, 1, 0)/(0, -1, 1) with ell0 = 3 peaks at two shifts from level 5
    # on, and the search puts them in blocks whose bound equals the peak:
    # it must expand those blocks too.
    seed = validate_seed(Sequence([1, 1, 0]), Sequence([0, -1, 1]), 3)
    fastscan.clear_caches()
    for n in range(3, 11):
        pair = grs_pair(seed, n)
        spec = correlation.spectrum(pair.x, pair.y)
        value, shifts = correlation.pcc(pair.x, pair.y)
        assert len(shifts) == (1 if n in (3, 4, 6) else 2)
        rep, _ = streaming_peaks(seed, n)
        assert rep.value == value, n
        assert rep.witnesses == tuple((s, spec.value(s)) for s in shifts), n


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
        rep, _ = streaming_peaks(seed, n)
        assert (rep.value, rep.witnesses) == (peak, wits), n


def test_large_complex_levels_bound_both_parts():
    # Every level of (10^9, 10^9 i)/(10^9, -10^9 i) is purely imaginary,
    # +/-10^18 i at level 0, and its values leave int64 from level 4 on: the
    # evaluator's bound must read the im array as well as the re one.
    big, big_i = 10**9, CQ(0, 10**9)
    seed = validate_seed(Sequence([big, big_i]), Sequence([big, -big_i]), 2)
    fastscan.clear_caches()
    for n in range(8):
        pair = grs_pair(seed, n)
        spec = correlation.spectrum(pair.x, pair.y)
        for t in range(1, n):
            for s in range(1 - pair.length, pair.length):
                assert as_cq(coeff_by_iteration(seed, n, t, s)) == as_cq(spec.value(s)), (n, t, s)
        value, shifts = correlation.pcc(pair.x, pair.y)
        rep, _ = streaming_peaks(seed, n)
        assert (rep.value, rep.witnesses) == (value, tuple((s, spec.value(s)) for s in shifts)), n


def test_lookups_never_run_the_search(
    monkeypatch, rs_seed, seed_pm4, seed_golay10, seed_complex
):
    # A lookup reads the levels n-t and n-t-1 it builds and nothing of the
    # peak search: with the search made to fail, every lookup still equals
    # the oracle, and the store holds entries 0 and 1 only.
    def no_search(*args):
        raise AssertionError("a lookup ran the peak search")

    monkeypatch.setattr(fastscan, "_tree_peak", no_search)
    fastscan.clear_caches()
    try:
        for seed in (rs_seed, seed_pm4, seed_golay10):
            for n in range(2, 13):
                oracle = _oracle_dense(seed, n)
                ell = seed.ell0 << n
                shifts = range(1 - ell, ell, 1 + (ell >> 6))
                for t in range(1, n):
                    assert np.array_equal(iter_spectrum(seed, n, t), oracle), (n, t)
                    for s in shifts:
                        assert coeff_by_iteration(seed, n, t, s) == oracle[s + ell - 1], (n, t, s)
                for s in shifts:
                    if s:
                        assert coeff_by_geoff(seed, n, s) == oracle[s + ell - 1], (n, s)
        for n in range(2, 9):
            pair = grs_pair(seed_complex, n)
            spec = correlation.spectrum(pair.x, pair.y)
            for t, s in itertools.product(range(1, n), range(1 - pair.length, pair.length)):
                assert as_cq(coeff_by_iteration(seed_complex, n, t, s)) == as_cq(spec.value(s))
        for seed in (rs_seed, seed_pm4, seed_golay10, seed_complex):
            assert len(fastscan._peak_bounds[seed]) == 2
    finally:
        fastscan.clear_caches()


def test_streaming_budget_guard(rs_seed, seed_rational, seed_complex):
    # The scan reads levels 1 and 0, and counts 9 * ell_1 = 18 * ell0
    # entries per part.
    fastscan.clear_caches()
    with pytest.raises(BudgetExceeded, match="^scan needs 18 entries, budget is 17$"):
        streaming_peaks(rs_seed, 12, budget=17)
    assert streaming_peaks(rs_seed, 12, budget=18)[0].value == 373
    # Cached peaks of lower levels do not get round the budget.
    with pytest.raises(BudgetExceeded, match="^scan needs 18 entries, budget is 17$"):
        streaming_peaks(rs_seed, 12, budget=17)
    with pytest.raises(BudgetExceeded, match="^scan needs 36 entries, budget is 35$"):
        streaming_peaks(seed_rational, 20, budget=35)
    assert streaming_peaks(seed_rational, 20, budget=36)[0].value == Fraction(28293, 4)
    # A complex level is two arrays, re and im, so it counts twice: the
    # same scan fits the budget on a real seed and not on a complex one.
    with pytest.raises(BudgetExceeded, match="^scan needs 72 entries, budget is 36$"):
        streaming_peaks(seed_complex, 20, budget=36)
    assert streaming_peaks(seed_complex, 20, budget=72)[0].level == 20
    # The budget counts the two kept levels and a leaf block, whatever the
    # number of blocks at the leaf depth.
    assert streaming_peaks(rs_seed, 40, budget=18)[0].value == 372089521
    # Levels 0..2 take the same check, with dense level max(n - 1, 0).
    for n, need in ((0, 9), (1, 9), (2, 18)):
        with pytest.raises(BudgetExceeded, match=f"^scan needs {need} entries, budget is "):
            streaming_peaks(rs_seed, n, budget=need - 1)
        assert streaming_peaks(rs_seed, n, budget=need)[0].level == n


def test_scan_budget_refuses_before_any_level_is_built(monkeypatch):
    # Every level the scan reads, kept or searched, comes through the
    # seed's store; reaching it fails the test, so the refusal must come
    # first.  A seed declared with ell0 = 2^28 needs 18 * 2^28 entries at
    # levels 1 and 0, more than the default cap of 2^31.
    def no_level(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(fastscan, "_peak_bounds_to", no_level)
    with pytest.raises(BudgetExceeded, match="^scan needs 18 entries, budget is 17$"):
        streaming_peaks(rudin_shapiro_seed(), 30, budget=17)
    huge = validate_seed(Sequence.binary("++"), Sequence.binary("+-"), 1 << 28)
    with pytest.raises(BudgetExceeded, match="^scan needs 4831838208 entries, budget is 2147483648$"):
        streaming_peaks(huge, 30)
    # At the need, the scan is admitted and goes on to build its levels.
    with pytest.raises(AssertionError, match="a level was built"):
        streaming_peaks(rudin_shapiro_seed(), 30, budget=18)


def test_lookups_refuse_before_any_level_is_built(monkeypatch, rs_seed):
    # A lookup at level 40, t = 1, holds levels 39 and 38 and a block of
    # level 40: 9 * 2^39 entries; the whole level-40 spectrum counts 6 *
    # 2^40.  Both are over the default cap and refused first.
    def no_level(*args):
        raise AssertionError("a level was built")

    fastscan.clear_caches()
    monkeypatch.setattr(fastscan, "_peak_bounds_to", no_level)
    lookup = f"^lookup needs {9 << 39} entries, budget is 2147483648$"
    with pytest.raises(BudgetExceeded, match=lookup):
        coeff_by_iteration(rs_seed, 40, 1, 1)
    with pytest.raises(BudgetExceeded, match=lookup):
        coeff_by_geoff(rs_seed, 40, 3)
    with pytest.raises(BudgetExceeded,
                       match=f"^level 40 spectrum needs {6 << 40} entries, budget is 2147483648$"):
        iter_spectrum(rs_seed, 40, 1)
    # Under the cap, a lookup is admitted and goes on to build its levels.
    with pytest.raises(AssertionError, match="a level was built"):
        coeff_by_iteration(rs_seed, 5, 1, 1)


@pytest.mark.parametrize("t", (1, 3, 6))
def test_lookup_budgets_count_what_they_hold(t, rs_seed, seed_pm4, seed_rational, seed_complex):
    # A cold lookup, levels 0 and 1 included, holds within 8 bytes (one
    # int64) per counted entry at ell_{n-t} = 2^12 the count that its split
    # check and the scan's share, on real and complex levels; so do the
    # level pair and the two blocks it keeps once a second block is looked
    # up.  A level spectrum stays within 8 bytes per counted entry from
    # ell_n = 2^16 on; below that, fixed costs of a few hundred KB dominate.
    for seed in (rs_seed, seed_pm4, seed_rational, seed_complex):
        lv = 13 - seed.ell0.bit_length()
        need = 9 * (1 << 12) * (1 if seed.is_rational else 2)
        with pytest.raises(BudgetExceeded, match=f"^lookup needs {need} entries"):
            fastscan._check_split(seed, lv, need - 1, "lookup")
        fastscan._check_split(seed, lv, need, "lookup")
        fastscan.clear_caches()
        tracemalloc.start()
        try:
            coeff_by_iteration(seed, lv + t, t, 1)
            peak = tracemalloc.get_traced_memory()[1]
            coeff_by_iteration(seed, lv + t, t, -1)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * need, (seed, t, peak / (8 * need))
        assert kept <= 8 * need, (seed, t, kept / (8 * need))
        if seed.is_int:
            n = 17 - seed.ell0.bit_length()
            tracemalloc.start()
            try:
                iter_spectrum(seed, n, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 6 * (1 << 16), (seed, t, peak / (8 * 6 * (1 << 16)))


def test_peak_report_json_past_int_text_limit():
    # A witness shift of a level far out has about 0.301 * n digits, more
    # than str(int) writes by default from n = 14 286 on.
    shift = -(10**5000 + 12345)
    rep = PeakReport(16610, 7, ((shift, -7), (-shift, 7)))
    payload = json.loads(json.dumps(rep.as_json_dict("pcc")))
    assert [int(Decimal(w["shift"])) for w in payload["witnesses"]] == [shift, -shift]
    assert payload["witnesses"][0] == {"shift": int_text(shift), "value": "-7"}


# Inputs that no other test gives: each call and its value, or the
# exception it raises.
FASTSCAN_EDGES = {
    "abgd(0)": (lambda: abgd(0), ValueError("step count must be at least 1")),
    "entry at t = 0": (lambda: fastscan._coeffs(0, 0),
                       ValueError("step count must be at least 1")),
    "level spectrum of a rational seed": (
        lambda: iter_spectrum(validate_seed(Sequence([Fraction(1, 2)]),
                                            Sequence([Fraction(1, 2)]), 1), 2, 1),
        ValueError("vectorized spectra need integer-valued seeds")),
    "negative level": (lambda: streaming_peaks(rudin_shapiro_seed(), -1),
                       ValueError("level must be nonnegative")),
    "all-zero block": (lambda: fastscan._peak_of((np.zeros(5, dtype=np.int64),), -2), (0, [])),
    "all-zero complex block": (
        lambda: fastscan._peak_of((np.zeros(3, dtype=np.int64),) * 2, 4), (0, [])),
}


@pytest.mark.parametrize("case", FASTSCAN_EDGES)
def test_fastscan_edge_inputs(case):
    assert_outcome(*FASTSCAN_EDGES[case])


def test_budget_is_the_third_positional_parameter(rs_seed):
    # A caller may pass the budget, None included, as the third positional
    # argument; perfbench/tracing.py passes None there.
    assert streaming_peaks(rs_seed, 14, None) == streaming_peaks(rs_seed, 14)
    with pytest.raises(BudgetExceeded, match="^scan needs 18 entries, budget is 17$"):
        streaming_peaks(rs_seed, 14, 17)


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
    # t = 1, r = block midpoint: only the first pair contributes, also on
    # q = -1, whose Gamma = 2 starts one past the midpoint.
    assert nellie_bound(1, 0, 4, 4, 7, 3) == 7
    assert nellie_bound(1, -1, 4, 4, 7, 3) == 7
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


def test_derrel_bound_is_the_written_out_sum():
    stats = [(1, 0), (3, 2), (Fraction(5, 2), Fraction(1, 3))]
    for t in range(1, 9):
        for q in range(-(1 << (t - 1)) - 1, (1 << (t - 1)) + 1):
            a, b, g, d = map(abs, abgd(t).entry(q))
            for pcc0, psl0 in stats:
                expected = (a + b + g + d) * pcc0 + (a + b) * 2 * psl0
                assert derrel_bound(pcc0, psl0, t + 1, q) == expected, (t, q)


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
