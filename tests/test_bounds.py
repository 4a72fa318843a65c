import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs import correlation
from grs.bounds import (
    SeedNotRational,
    ShiftNotEntered,
    ShiftSeq,
    e_constants,
    e_sums,
    entry_index,
    g_constants,
    generic_prefactor,
    identity_suite,
    inequality_suite,
    lily_predict,
    nestor_cecilia_check,
    seed_peak_stats,
    standard_shift,
    verify_generic_bound,
    verify_rs_bounds,
    verify_rs_lower_bounds,
)
from grs.fastscan import streaming_peaks
from grs.field import KElem, QAlphaElem, alpha_pow, compare
from grs.qcomplex import CQ
from grs.sequences import Sequence, grs_pair, rudin_shapiro_seed, validate_seed


def test_standard_shift():
    assert standard_shift(0, 1) == 0
    assert standard_shift(0, 5) == 0
    assert standard_shift(1, 1) == -1
    assert standard_shift(10, 1) == -341
    assert standard_shift(10, 3) == -1023


def test_shift_seq_recurrence_and_closed_form():
    rng = random.Random(3)
    for _ in range(200):
        s0 = rng.randint(-500, 500)
        ell0 = rng.randint(1, 9)
        seq = ShiftSeq(s0, ell0)
        terms = seq.terms(12)
        for n in range(12):
            assert terms[n + 1] == -terms[n] - (ell0 << n)
            assert seq.term(n) == terms[n]


def test_entry_index_examples():
    assert entry_index(0, 1) == 0
    assert entry_index(5, 1) == 4
    assert entry_index(-1, 1) == 1
    seq = ShiftSeq(5, 1).terms(4)
    assert seq == [5, -6, 4, -8, 0]


def test_entry_index_randomized_window_pattern():
    # After entry, every later term sits in (-ell_n, 0).
    rng = random.Random(99)
    for _ in range(1000):
        s0 = rng.randint(-(10**6), 10**6)
        ell0 = rng.randint(1, 64)
        m = entry_index(s0, ell0)
        seq = ShiftSeq(s0, ell0)
        terms = seq.terms(m + 8)
        assert abs(terms[m]) < (ell0 << m)
        for n in range(m):
            assert abs(terms[n]) >= (ell0 << n)
        for n in range(m + 1, m + 9):
            assert -(ell0 << n) < terms[n] < 0


def test_e_constants_published_values():
    e = e_constants()
    assert e[(0, 0)] == KElem.from_qalpha(
        QAlphaElem(Fraction(40, 118), Fraction(7, 118), Fraction(1, 118))
    )
    assert e[(0, 1)] == KElem.from_qalpha(
        QAlphaElem(Fraction(-28, 118), Fraction(1, 118), Fraction(17, 118))
    )
    assert e_sums()[0].to_qalpha() == QAlphaElem(
        Fraction(6, 59), Fraction(4, 59), Fraction(9, 59)
    )
    assert {key: v.to_text() for key, v in e.items()} == {
        (0, 0): "20/59 0/1 7/118 0/1 1/118 0/1",
        (0, 1): "-14/59 0/1 1/118 0/1 17/118 0/1",
        (1, 0): "21/59 3/59 -1/118 -1/118 -1/118 0/1",
        (1, 1): "3/59 -8/59 -17/118 -17/118 -17/118 0/1",
        (2, 0): "18/59 -3/59 -3/59 1/118 0/1 0/1",
        (2, 1): "11/59 8/59 8/59 17/118 0/1 0/1",
    }


def test_e_constants_are_read_only():
    with pytest.raises(TypeError):
        e_constants()[(0, 0)] = KElem.zero()
    assert all(v.holds for v in identity_suite())


def test_e_constants_interpolation_identities():
    # Row sums of the interpolation matrix: sum_j E_{j,0} = 1, sum_j E_{j,1} = 0.
    e = e_constants()
    total0 = e[(0, 0)] + e[(1, 0)] + e[(2, 0)]
    total1 = e[(0, 1)] + e[(1, 1)] + e[(2, 1)]
    assert total0 == KElem.one()
    assert total1 == KElem.zero()


def test_g_constants_real_window():
    g = g_constants()
    for u in (0, 1):
        g0 = g[(0, u)].to_qalpha()
        assert compare(g0, 0) > 0 and compare(g0, 1) < 0
        assert (g[(1, u)] * g[(2, u)]).is_real


def test_lily_predict_examples(rs_seed):
    assert lily_predict(rs_seed, 0, 0) == 1
    assert lily_predict(rs_seed, 0, 3) == -5
    with pytest.raises(ShiftNotEntered):
        lily_predict(rs_seed, 1, 2)
    complex_seed = validate_seed(
        Sequence([1, CQ(0, Fraction(1))]), Sequence([1, CQ(0, Fraction(-1))]), 2
    )
    with pytest.raises(SeedNotRational):
        lily_predict(complex_seed, 0, 2)


def test_lily_predict_matches_oracle(corpus):
    for seed in corpus:
        spectra = {}
        for n in range(0, 13):
            pair = grs_pair(seed, n)
            spectra[n] = correlation.spectrum(pair.x, pair.y)
        for s0 in range(-seed.ell0 + 1, seed.ell0):
            shifts = ShiftSeq(s0, seed.ell0)
            for n in range(0, 13):
                oracle = spectra[n].value(shifts.term(n))
                assert lily_predict(seed, s0, n) == oracle, (seed.ell0, s0, n)


def test_lily_printed_form_on_nonnegative_starts(corpus):
    # The interpolation constants collapse to the E-form whenever the
    # orbit enters its window from the nonnegative side.
    from grs.bounds import lily_predict_printed

    for seed in corpus:
        for s0 in range(0, seed.ell0):
            for n in range(0, 9):
                assert lily_predict_printed(seed, s0, n) == lily_predict(seed, s0, n)


def test_lily_predict_zero_seed_correlation():
    # A seed shift with no crosscorrelation gives zero at every level.
    seed = validate_seed(Sequence.binary("+++-"), Sequence.binary("++-+"), 4)
    spec = correlation.spectrum(seed.x0, seed.y0)
    zero_shifts = [s for s in range(-3, 4) if spec.value(s) == 0 and spec.value(-s) == 0]
    assert zero_shifts
    for s0 in zero_shifts:
        for n in range(0, 6):
            assert lily_predict(seed, s0, n) == 0


def test_nestor_cecilia(corpus):
    for seed, n_max in zip(corpus, (10, 9, 8)):
        for s0 in range(-seed.ell0 + 1, seed.ell0):
            verdicts = nestor_cecilia_check(seed, s0, n_max)
            assert verdicts and all(v.holds for v in verdicts)


def test_rs_upper_bounds_and_equality_levels():
    verdicts = verify_rs_bounds(12)
    assert all(v.holds for v in verdicts)
    tight = sorted(v.claim_id for v in verdicts if v.observed == "=")
    assert tight == ["rs_pcc_upper_n3", "rs_psl_upper_n4"]


def test_rs_lower_bounds():
    verdicts = verify_rs_lower_bounds(12)
    assert all(v.holds for v in verdicts)
    # All strict at these levels (the anchor is far above them).
    assert all(v.observed != "=" for v in verdicts if "lower" in v.claim_id)


def test_rs_bounds_full_paper_range():
    verdicts = verify_rs_bounds(42) + verify_rs_lower_bounds(42)
    assert all(v.holds for v in verdicts)
    tight = sorted(v.claim_id for v in verdicts if v.observed == "=")
    assert tight == [
        "rs_pcc_lower_n38",
        "rs_pcc_upper_n3",
        "rs_psl_lower_n39",
        "rs_psl_upper_n4",
    ]
    assert streaming_peaks(rudin_shapiro_seed(), 38)[0].value == 133991557


def test_generic_prefactor_values():
    assert generic_prefactor(1, 0) == 9 * alpha_pow(-4)
    assert generic_prefactor(1, 1) == 9 * alpha_pow(-4) + 18 * alpha_pow(-5)
    assert generic_prefactor(Fraction(1, 2), 0) == Fraction(9, 2) * alpha_pow(-4)


def test_seed_peak_stats(corpus):
    stats = [seed_peak_stats(seed) for seed in corpus]
    assert stats[0] == (1, 0)
    assert stats[1] == (1, 1)
    assert stats[2] == (3, 1)


def test_generic_bound_corpus(corpus):
    for seed in corpus:
        verdicts = verify_generic_bound(seed, 10)
        assert all(v.holds for v in verdicts)


def test_generic_bound_unit_seed_to_14(rs_seed):
    assert all(v.holds for v in verify_generic_bound(rs_seed, 14))


def test_generic_bound_rational_seed():
    half = Fraction(1, 2)
    seed = validate_seed(Sequence([half]), Sequence([half]), 1)
    verdicts = verify_generic_bound(seed, 8)
    assert all(v.holds for v in verdicts)


def test_inequality_suite_all_hold():
    verdicts = inequality_suite()
    assert len(verdicts) > 60
    assert all(v.holds for v in verdicts)
    tight = [v.claim_id for v in verdicts if v.observed == "="]
    assert tight == ["unit_case_n3"]


def test_identity_suite_all_hold():
    verdicts = identity_suite()
    assert all(v.holds for v in verdicts)


def test_verdict_serialization():
    verdicts = verify_rs_bounds(3)
    for v in verdicts:
        d = v.as_json_dict()
        assert set(d) == {
            "claim_id",
            "lhs",
            "rhs",
            "relation",
            "observed",
            "holds",
            "witness",
        }
        assert isinstance(d["lhs"], str) and isinstance(d["rhs"], str)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**9), 10**9), st.integers(1, 100))
def test_entry_index_agrees_with_window(s0, ell0):
    m = entry_index(s0, ell0)
    terms = ShiftSeq(s0, ell0).terms(m)
    assert abs(terms[m]) < (ell0 << m)
    assert all(abs(terms[n]) >= (ell0 << n) for n in range(m))
