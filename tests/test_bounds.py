import random
from fractions import Fraction

import pytest
from conftest import assert_outcome
from hypothesis import given, settings
from hypothesis import strategies as st

from grs import correlation
from grs.bounds import (
    _A,
    _B,
    _GENERIC_CASES,
    _STEP_INEQUALITIES,
    _UNIT_CASES,
    _orbit_coeffs,
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
from grs.fastscan import derrel_bound, nellie_bound, streaming_peaks
from grs.field import KElem, QAlphaElem, alpha_pow, compare
from grs.qcomplex import CQ, as_cq
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


@pytest.mark.parametrize("s0, ell0", [(0, 0), (3, -2)])
def test_entry_index_refuses_nonpositive_length(s0, ell0):
    with pytest.raises(ValueError, match="seed length must be positive"):
        entry_index(s0, ell0)


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
    assert e[(0, 0)] == KElem(
        QAlphaElem(Fraction(40, 118), Fraction(7, 118), Fraction(1, 118))
    )
    assert e[(0, 1)] == KElem(
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


def test_orbit_coeffs_give_the_printed_constants():
    # The unit seed's standard orbit 1, -1, 1, ...: its dominant coefficient
    # is the envelope's limit A, and 4 |c1|^2 is the squared amplitude B.
    c = _orbit_coeffs(1, -1, 1)
    assert c[0].to_qalpha() == _A
    assert (4 * c[1] * c[2]).to_qalpha() == _B
    assert c[2] == c[1].conj_swapped()


def test_e_constants_are_read_only():
    with pytest.raises(TypeError):
        e_constants()[(0, 0)] = KElem(0)
    assert all(v.holds for v in identity_suite())


def test_e_constants_interpolation_identities():
    # Row sums of the interpolation matrix: sum_j E_{j,0} = 1, sum_j E_{j,1} = 0.
    e = e_constants()
    total0 = e[(0, 0)] + e[(1, 0)] + e[(2, 0)]
    total1 = e[(0, 1)] + e[(1, 1)] + e[(2, 1)]
    assert total0 == KElem(1)
    assert total1 == KElem(0)


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


def lily_predict_printed(seed, s0, n):
    """The E-form of the closed-form prediction, the reference for
    ``lily_predict``: the sum over j, v of E_{j,v} * f_v * (-alpha_j)^n,
    with f_0, f_1 the seed crosscorrelations at s0 and -s0.  Agrees with
    ``lily_predict`` (and the oracle) whenever 0 <= s0 < ell0."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    f = [correlation.crosscorr(seed.x0, seed.y0, s) for s in (s0, -s0)]
    e = e_constants()
    total = KElem(0)
    for j in range(3):
        power = (-KElem.root(j)) ** n
        for v in (0, 1):
            total = total + e[(j, v)] * f[v] * power
    return total.to_qalpha().as_fraction()


def test_lily_printed_form_on_nonnegative_starts(corpus):
    # The interpolation constants collapse to the E-form whenever the
    # orbit enters its window from the nonnegative side.
    for seed in corpus:
        for s0 in range(0, seed.ell0):
            for n in range(0, 9):
                assert lily_predict_printed(seed, s0, n) == lily_predict(seed, s0, n)


def test_lily_forms_refuse_negative_levels(rs_seed):
    for predict in (lily_predict, lily_predict_printed):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            predict(rs_seed, 0, -1)


def test_orbit_values_follow_the_integer_recurrence(
    seed_pm2, seed_pm4, seed_golay10, seed_padded3, seed_rational
):
    # Along an entered orbit, v_n = C_n(s_n) obeys
    # v_{k+3} = v_{k+2} + 2 v_{k+1} - 4 v_k, seeded from the oracle at
    # levels 0..2; the closed form must give the same v_n far out.
    levels = [*range(31), 100, 300]
    for seed in (seed_pm2, seed_pm4, seed_golay10, seed_padded3, seed_rational):
        pairs = [grs_pair(seed, k) for k in range(3)]
        for s0 in range(-seed.ell0 + 1, seed.ell0):
            orbit = ShiftSeq(s0, seed.ell0)
            v = [correlation.crosscorr(p.x, p.y, orbit.term(k)) for k, p in enumerate(pairs)]
            while len(v) <= levels[-1]:
                v.append(v[-1] + 2 * v[-2] - 4 * v[-3])
            for n in levels:
                assert lily_predict(seed, s0, n) == v[n], (seed.ell0, s0, n)


PCC_600 = int(
    "506691509013232929649635285128045617208528928217891901534697850495145969068"
    "460692855068968479361520930307576335746308753350624317809"
)


# (seed, N0, offsets): from level N0 + 1 on, the witnesses s of PCC_n have
# exactly these offsets (s - t_n)(-1)^n, the s0 of the orbits they sit on;
# at N0 they differ.
ORBIT_WITNESSES = [
    ("rs_seed", 38, {0}),
    ("seed_pm2", 37, {-1}),
    ("seed_pm4", 36, {-1}),
    ("seed_golay10", 24, {-4}),
    ("seed_padded3", 39, {-4, -2}),
    ("seed_rational", 37, {-1}),
]


@pytest.mark.parametrize("name, n0, offsets", ORBIT_WITNESSES)
def test_peak_witnesses_settle_on_their_orbits(request, name, n0, offsets):
    seed = request.getfixturevalue(name)
    for n in range(n0, 161):
        sign = -1 if n & 1 else 1
        found = {
            (s - standard_shift(n, seed.ell0)) * sign: value
            for s, value in streaming_peaks(seed, n)[0].witnesses
        }
        if n == n0:
            assert set(found) != offsets
            continue
        assert set(found) == offsets, n
        for s0 in offsets:
            if abs(s0) < seed.ell0:
                assert as_cq(found[s0]) == as_cq(lily_predict(seed, s0, n)), (n, s0)


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


def test_rs_verdicts_hold_to_level_600():
    # Every upper bound and the envelope far past the paper's range; up to
    # n = 200 the envelope is closest to failing near n = 166.
    verdicts = verify_rs_bounds(600) + verify_rs_lower_bounds(600)
    assert all(v.holds for v in verdicts)
    by_id = {v.claim_id: v for v in verdicts}
    envelope = by_id["rs_pcc_envelope_n166"]
    assert envelope.holds and envelope.witness == {"n": 166, "form": "squared"}
    assert len(verdicts) == 1886


def test_pcc_600_is_pinned(rs_seed):
    # 132 digits at one witness, the standard shift t_600, found alike by
    # the default scan and by a split whose dense levels are 13 and 12.
    rep, _ = streaming_peaks(rs_seed, 600)
    assert rep.value == PCC_600 and len(str(PCC_600)) == 132
    assert rep.witnesses == ((standard_shift(600, 1), PCC_600),)
    assert streaming_peaks(rs_seed, 600, t_split=587)[0] == rep


def test_generic_bound_holds_to_level_200(
    seed_pm2, seed_pm4, seed_golay10, seed_padded3, seed_rational
):
    for seed in (seed_pm2, seed_pm4, seed_golay10, seed_padded3, seed_rational):
        verdicts = verify_generic_bound(seed, 200)
        assert len(verdicts) == 401 and all(v.holds for v in verdicts), seed.ell0


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


def test_unit_cases_are_the_peaks_no_step_reaches(rs_seed):
    # Entry n of _UNIT_CASES is the largest |C_n(s)| over the shifts s that
    # no step inequality reaches: at every split 0 < t < n, the windowed
    # pair (a, b) of s, read off nellie_bound as its bound for the peaks
    # (1, 0) and (0, 1), is not a step (t, a, b).  At n = 6, 8 and 9 the
    # peak shifts are reached, so the entry is below PCC_n there.
    steps = set(_STEP_INEQUALITIES)

    def reached(n, s):
        for t in range(1, n):
            ell = rs_seed.ell0 << (n - t)
            q, r = divmod(s, 2 * ell)
            pair = (nellie_bound(t, q, r, ell, 1, 0), nellie_bound(t, q, r, ell, 0, 1))
            if (t, *pair) in steps:
                return True
        return False

    below_pcc = []
    for n, value in _UNIT_CASES:
        pair = grs_pair(rs_seed, n)
        entries = correlation.spectrum(pair.x, pair.y).entries
        assert value == max(abs(v) for s, v in entries.items() if not reached(n, s))
        if value < correlation.pcc(pair.x, pair.y)[0]:
            below_pcc.append(n)
    assert below_pcc == [6, 8, 9]


def test_generic_cases_are_the_seed_statistics_coefficients():
    # Entry (n, value, 9, n - 4) holds the coefficient of pcc0, and
    # (n, value, 18, n - 5) that of psl0, in a bound on m_n: m_0 <= pcc0,
    # m_1 <= pcc0 + 2 psl0, and for n >= 2 the maxima over q of the two
    # coefficients of derrel_bound(pcc0, psl0, n, q).  Claims that hold with
    # equality (9 at n = 4, 18 at n = 5) have no entry.
    derived = []
    for n in range(11):
        if n < 2:
            pcc0, psl0 = (1, 0) if n == 0 else (1, 2)
        else:
            half = 1 << (n - 2)
            pcc0 = max(derrel_bound(1, 0, n, q) for q in range(-half, half))
            psl0 = max(derrel_bound(0, 1, n, q) for q in range(-half, half))
        for value, coeff, power in ((pcc0, 9, n - 4), (psl0, 18, n - 5)):
            if value and compare(value, coeff * alpha_pow(power)) < 0:
                derived.append((n, value, coeff, power))
    # Two entries are below their maxima, which satisfy the claims as well.
    below = {(8, 57, 9, 4): (8, 51, 9, 4), (9, 114, 18, 4): (9, 98, 18, 4)}
    assert [below.get(case, case) for case in derived] == list(_GENERIC_CASES)


# Inputs that no other test gives: each call and its value, or the
# exception it raises.
BOUNDS_EDGES = {
    "negative level": (lambda: standard_shift(-1, 1), ValueError("level must be nonnegative")),
    # The orbit of s0 = 100 alternates in sign, so every other level and
    # every cecilia level is skipped.
    "orbit outside the window": (
        lambda: [(v.claim_id, v.holds) for v in nestor_cecilia_check(rudin_shapiro_seed(), 100, 5)],
        [("nestor_n3", True), ("nestor_conj_n3", True),
         ("nestor_n5", True), ("nestor_conj_n5", True)]),
}


@pytest.mark.parametrize("case", BOUNDS_EDGES)
def test_bounds_edge_inputs(case):
    assert_outcome(*BOUNDS_EDGES[case])


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


def _entry_index_closed(s0: int, ell0: int) -> int:
    """The least even (s0 >= ell0) or odd (s0 <= -ell0) m with
    2^(m+2) ell0 > +/-(3 s0 + ell0), or 0 inside the window."""
    if abs(s0) < ell0:
        return 0
    target = 3 * s0 + ell0
    m, target = (0, target) if s0 >= ell0 else (1, -target)
    while (ell0 << (m + 2)) <= target:
        m += 2
    return m


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**9), 10**9), st.integers(1, 100))
def test_entry_index_agrees_with_window(s0, ell0):
    m = entry_index(s0, ell0)
    assert m == _entry_index_closed(s0, ell0)
    terms = ShiftSeq(s0, ell0).terms(m)
    assert abs(terms[m]) < (ell0 << m)
    assert all(abs(terms[n]) >= (ell0 << n) for n in range(m))
