import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import assert_outcome
from hypothesis import given, settings
from hypothesis import strategies as st

from grs import correlation
from grs.convolve import convolve_int
from grs.correlation import (
    ShiftOutOfRange,
    Spectrum,
    ZeroLength,
    crosscorr,
    demerit_auto,
    demerit_cross,
    json_row,
    pcc,
    periodic_corr,
    psl,
    spectrum,
)
from grs.qcomplex import CQ, as_cq, int_text
from grs.sequences import Sequence, grs_pair, rudin_shapiro


def test_crosscorr_basics(rs_seed):
    one = Sequence([1])
    assert crosscorr(one, one, 0) == 1
    p1 = rudin_shapiro(1)
    assert crosscorr(p1.x, p1.y, -1) == -1
    assert crosscorr(p1.x, p1.y, p1.x.length + p1.y.length) == 0


def test_spectrum_matches_pointwise(corpus):
    for seed in corpus:
        pair = grs_pair(seed, 3)
        spec = spectrum(pair.x, pair.y)
        for s in range(-pair.length, pair.length + 1):
            assert as_cq(spec.value(s)) == as_cq(crosscorr(pair.x, pair.y, s))
        assert all(abs(s) < spec.support_bound for s in spec.entries)


def test_spectrum_published_values():
    p2 = rudin_shapiro(2)
    spec = spectrum(p2.x, p2.y)
    assert [(s, spec.value(s)) for s in (-3, -1, 1, 3)] == [
        (-3, 1),
        (-1, 1),
        (1, 3),
        (3, -1),
    ]
    p3 = rudin_shapiro(3)
    assert spectrum(p3.x, p3.y).value(-3) == -5


def test_spectrum_single_term():
    f = Sequence([0, 0, CQ(Fraction(3, 2), Fraction(1, 2))])
    spec = spectrum(f, f)
    assert spec.entries == {0: Fraction(10, 4)}


def test_pcc_values():
    p1 = rudin_shapiro(1)
    assert pcc(p1.x, p1.y) == (1, [-1, 1])
    p10 = rudin_shapiro(10)
    assert pcc(p10.x, p10.y) == (153, [-341])
    one = Sequence([1])
    assert pcc(one, one) == (1, [0])


def test_psl_values():
    p2 = rudin_shapiro(2)
    value, shifts = psl(p2.x)
    assert (value, shifts) == (1, [1, 3])
    assert spectrum(p2.x, p2.x).value(3) == -1
    p4 = rudin_shapiro(4)
    assert psl(p4.x) == (5, [11])
    assert spectrum(p4.x, p4.x).value(11) == -5
    assert psl(Sequence([1])) == (0, [])
    with pytest.raises(ZeroLength):
        psl(Sequence([], 0))


def test_periodic_corr():
    one = Sequence([1])
    assert periodic_corr(one, one, 1, 0) == 1
    p1 = rudin_shapiro(1)
    assert periodic_corr(p1.x, p1.y, 2, 1) == 0
    p2 = rudin_shapiro(2)
    assert periodic_corr(p2.x, p2.y, 4, 1) == 4
    with pytest.raises(ShiftOutOfRange):
        periodic_corr(p1.x, p1.y, 2, 2)


def test_periodic_bounded_by_twice_aperiodic():
    pair = rudin_shapiro(6)
    peak, _ = pcc(pair.x, pair.y)
    k = pair.length
    for s in range(k):
        v = periodic_corr(pair.x, pair.y, k, s)
        assert as_cq(v).abs2() <= (2 * peak) ** 2


def test_demerit_values():
    p2 = rudin_shapiro(2)
    assert demerit_auto(p2.x) == Fraction(1, 4)
    p1 = rudin_shapiro(1)
    assert demerit_cross(p1.x, p1.y) == Fraction(1, 2)
    assert demerit_auto(Sequence([-1])) == 0


def test_json_row_of_a_zero_value():
    # corr prints a row at every shift, also where the spectrum has none.
    for s, v in ((-7, 0), (0, Fraction(0)), (10**5000, CQ(0))):
        assert json_row(s, v) == json.dumps(
            {"shift": int_text(s), "re_num": "0", "re_den": "1", "im_num": "0", "im_den": "1"},
            sort_keys=True)


# Inputs that no other test gives: each call and its value, or the
# exception it raises.
CORRELATION_EDGES = {
    "spectra equal by value": (
        lambda: spectrum(Sequence([1, 1]), Sequence([1])) == spectrum(Sequence([1, 1, 0], 3),
                                                                      Sequence([1])),
        True),
    "spectrum against a non-spectrum": (lambda: spectrum(Sequence([1]), Sequence([1])) == 1,
                                        False),
    "member longer than the period": (
        lambda: periodic_corr(Sequence([1, 1, 1]), Sequence([1]), 2, 0),
        ValueError("period must be at least the sequence lengths")),
    "autocorrelation demerit of zero": (
        lambda: demerit_auto(Sequence([0, 0])),
        ZeroLength("demerit factor of the zero sequence is undefined")),
    "crosscorrelation demerit with zero": (
        lambda: demerit_cross(Sequence([1]), Sequence([0])),
        ZeroLength("demerit factor needs nonzero sequences")),
}


@pytest.mark.parametrize("case", CORRELATION_EDGES)
def test_correlation_edge_inputs(case):
    assert_outcome(*CORRELATION_EDGES[case])


def test_demerit_trend():
    pair = rudin_shapiro(10)
    assert abs(demerit_auto(pair.x) - Fraction(1, 3)) < Fraction(1, 3) / 20
    assert abs(demerit_cross(pair.x, pair.y) - Fraction(2, 3)) < Fraction(2, 3) / 20


small_values = st.tuples(
    st.integers(-4, 4), st.integers(-2, 2), st.integers(1, 3)
).map(lambda t: CQ(Fraction(t[0], t[2]), Fraction(t[1], t[2])))
small_seqs = st.lists(small_values, min_size=1, max_size=6).map(Sequence)


@settings(max_examples=60, deadline=None)
@given(small_seqs, small_seqs)
def test_conjugate_flip_property(f, g):
    fg = spectrum(f, g)
    gf = spectrum(g, f)
    shifts = set(fg.entries) | set(-s for s in gf.entries)
    for s in shifts:
        assert as_cq(gf.value(s)) == as_cq(fg.value(-s)).conj()


@settings(max_examples=60, deadline=None)
@given(small_seqs, small_seqs)
def test_pcc_symmetry_property(f, g):
    vf, _ = _pcc_sq(f, g)
    vg, _ = _pcc_sq(g, f)
    assert vf == vg


def _pcc_sq(f, g):
    entries = spectrum(f, g).entries
    best = Fraction(0)
    where = []
    for s, v in entries.items():
        sq = as_cq(v).abs2()
        if sq > best:
            best, where = sq, [s]
        elif sq == best:
            where.append(s)
    return best, sorted(where)


def test_psl_equal_across_golay_pair(corpus):
    for seed in corpus:
        for n in range(0, 7):
            pair = grs_pair(seed, n)
            assert psl(pair.x)[0] == psl(pair.y)[0]


def test_seed_bound_for_valid_seeds(corpus):
    # Peak crosscorrelation after one step is at most 2*PSL0 + PCC0.
    for seed in corpus:
        p1 = grs_pair(seed, 1)
        lhs, _ = pcc(p1.x, p1.y)
        assert lhs <= 2 * psl(seed.x0)[0] + pcc(seed.x0, seed.y0)[0]


def test_exports_roundtrip():
    pair = rudin_shapiro(3)
    spec = spectrum(pair.x, pair.y)
    csv_text = spec.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "shift,re_num,re_den,im_num,im_den"
    parsed = {}
    for line in lines[1:]:
        s, rn, rd, im_n, im_d = line.split(",")
        assert im_n == "0" and im_d == "1"
        parsed[int(s)] = Fraction(int(rn), int(rd))
    assert parsed == {s: Fraction(v) for s, v in spec.entries.items()}
    rows = json.loads(spec.to_json())
    assert {int(r["shift"]): int(r["re_num"]) for r in rows} == spec.entries


def schoolbook_convolve(a: list[int], b: list[int]) -> list[int]:
    """Reference quadratic convolution; exact for arbitrary Python ints."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    return out


def test_convolve_matches_schoolbook():
    rng = random.Random(7)
    for _ in range(40):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 80))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 80))]
        assert convolve_int(a, b).tolist() == schoolbook_convolve(a, b)
    # A long +/-1 convolution.
    a = [rng.choice((1, -1)) for _ in range(3000)]
    b = [rng.choice((1, -1)) for _ in range(500)]
    assert convolve_int(a, b).tolist() == schoolbook_convolve(a, b)
    big = [rng.randint(-(10**12), 10**12) for _ in range(200)]
    assert convolve_int(big, big).tolist() == schoolbook_convolve(big, big)


def test_convolve_exact_past_int64():
    # Values near 2**31 at lengths of a few hundred put the digits, the
    # window sums or both past int64; the result must still be exact.
    rng = random.Random(11)
    near = 2**31
    cases = [
        ([rng.randint(near - 50, near) for _ in range(300)],
         [rng.randint(-near, -near + 50) for _ in range(200)]),
        ([rng.randint(-near, near) for _ in range(400)],
         [rng.randint(-near, near) for _ in range(100)]),
        ([rng.randint(-(2**62), 2**62) for _ in range(120)],
         [rng.choice((1, -1)) for _ in range(150)]),
        ([rng.randint(-(10**25), 10**25) for _ in range(100)],
         [rng.randint(-3, 3) for _ in range(100)]),
        # Just inside the int64 guard.
        ([rng.randint(-(5 * 10**7), 5 * 10**7) for _ in range(100)],
         [rng.randint(-(5 * 10**7), 5 * 10**7) for _ in range(100)]),
    ]
    for a, b in cases:
        assert convolve_int(a, b).tolist() == schoolbook_convolve(a, b)


def test_abs2_promotes_past_int64():
    from grs.convolve import abs2

    a = 3 * 10**9  # a**2 fits int64, 2 * a**2 does not
    sq = abs2((np.array([a, 1]), np.array([a, -2])))
    assert sq.dtype == object and sq.tolist() == [2 * a * a, 5]
    sq = abs2((np.array([-(2**63), 3]),))
    assert sq.dtype == object and sq.tolist() == [2**126, 9]
    sq = abs2((np.array([a, -4]), np.array([0, 3])))
    assert sq.dtype == np.int64 and sq.tolist() == [a * a, 25]


def test_lowest_terms_past_int64():
    from grs.convolve import lowest_terms

    den = 6 * 2**64
    num, dens = lowest_terms(np.array([3, -2**62, 0, 7]), den)
    assert num.tolist() == [1, -1, 0, 7]
    assert dens.tolist() == [2 * 2**64, 24, 1, den]
    num, dens = lowest_terms(np.array([4, -6, 0]), np.array([6, 4, 5]))
    assert (num.tolist(), dens.tolist()) == ([2, -3, 0], [3, 2, 1])


def test_convolve_array_and_negative_inputs():
    rng = np.random.default_rng(5)
    a = rng.integers(-(2**31), 2**31, 250)
    b = rng.integers(-9, 10, 180)
    expected = schoolbook_convolve(a.tolist(), b.tolist())
    assert convolve_int(a, b).tolist() == expected
    assert convolve_int(a.astype(object), b.astype(np.int8)).tolist() == expected
    assert convolve_int(a[::-1], b).tolist() == schoolbook_convolve(a[::-1].tolist(), b.tolist())
    neg_a = [-v for v in rng.integers(1, 2**31, 300).tolist()]
    neg_b = [-v for v in rng.integers(1, 2**20, 130).tolist()]
    assert convolve_int(neg_a, neg_b).tolist() == schoolbook_convolve(neg_a, neg_b)
    assert convolve_int(np.array(neg_a), neg_b).tolist() == schoolbook_convolve(neg_a, neg_b)
    out = convolve_int(a, b)
    assert out.dtype in (np.int64, object)
    assert all(type(v) is int for v in out.tolist())


def test_convolve_odd_lengths():
    # Products of about 4096 terms, odd lengths included.
    rng = random.Random(17)
    for la, lb in ((4097, 1), (1, 4097), (2049, 3), (63, 67), (65, 64), (64, 65)):
        a = [rng.randint(-9, 9) for _ in range(la)]
        b = [rng.randint(-9, 9) for _ in range(lb)]
        assert convolve_int(a, b).tolist() == schoolbook_convolve(a, b)


def test_convolve_zero_top_groups():
    # After the offset, a = [1, -1, ..., -1] becomes [2, 0, ..., 0]: the top
    # groups of the packed product are zero, so its decimal string is short.
    a = [1] + [-1] * 99
    for b in ([1] * 80, [-1] * 80, [3, -2] * 40):
        assert convolve_int(a, b).tolist() == schoolbook_convolve(a, b)
        assert convolve_int(b, a).tolist() == schoolbook_convolve(b, a)


def test_convolve_input_zero_after_offset():
    # A constant negative input is all zero after its offset; only the
    # window-sum corrections carry the result.
    b = list(range(-20, 60))
    for a in ([-5] * 100, [0] * 100, [7] * 100):
        assert convolve_int(a, b).tolist() == schoolbook_convolve(a, b)
        assert convolve_int(b, a).tolist() == schoolbook_convolve(b, a)
    f = Sequence([-1] * 70)
    assert spectrum(f, Sequence([1] * 70)).value(0) == -70


def test_convolve_every_digit_width():
    # Nonnegative inputs whose digit bound min(len) * max(a) * max(b) has k
    # decimal digits: k <= 19 runs on int64, larger k on Python ints (values
    # near 10**12 and 10**25, and 10**2200, whose digit groups are longer
    # than str(int) accepts).  Each case also runs with a negated.
    rng = random.Random(19)
    for k in range(1, 29):
        la, lb = (2049, 3) if k <= 2 else (97, 61)
        m = min(la, lb)
        # k = 19 stays below INT64_MAX / (la + lb), inside the int64 guard.
        hi = 35 * 10**17 if k == 19 else 10**k - 1
        max_a = rng.randint((10 ** (k - 1) + m - 1) // m, hi // m)
        a = [rng.randint(0, max_a) for _ in range(la)]
        a[0], a[-1] = max_a, 0
        b = [rng.randint(0, 1) for _ in range(lb)]
        b[0], b[-1] = 1, 0
        assert len(str(m * max_a)) == k
        expected = schoolbook_convolve(a, b)
        assert convolve_int(a, b).tolist() == expected
        assert convolve_int(np.array(a, dtype=object), b).tolist() == expected
        assert convolve_int([-v for v in a], b).tolist() == [-v for v in expected]
    for big in (10**12, 10**25, 10**2200):
        a = [rng.randint(big - 10**6, big) for _ in range(97)]
        b = [rng.randint(-big, big) for _ in range(61)]
        assert convolve_int(a, b).tolist() == schoolbook_convolve(a, b)


@pytest.mark.parametrize("top", [9, 10**25])
def test_convolve_window_corrections(top):
    # The corrections for negative inputs are applied in place: only a
    # negative, only b, or both, on int64 (top = 9) and on Python ints
    # (top = 10**25), for products of about 4096 terms.
    rng = random.Random(23)
    for la, lb in ((63, 64), (64, 64), (65, 64), (300, 7), (7, 300)):
        for neg_a, neg_b in ((True, False), (False, True), (True, True)):
            a = [rng.randint(-top if neg_a else 0, top) for _ in range(la)]
            b = [rng.randint(-top if neg_b else 0, top) for _ in range(lb)]
            a[0], b[-1] = (-top if neg_a else top), (-top if neg_b else top)
            out = convolve_int(a, b)
            assert out.tolist() == schoolbook_convolve(a, b)
            assert out.dtype == (np.int64 if top == 9 else object)


@pytest.mark.parametrize("top", [9, 10**25, 10**2200], ids=["int64", "1e25", "1e2200"])
def test_convolve_small_and_edge_shapes(top):
    # Every shape up to 8 x 8, empty inputs included, and four of about
    # 4096 terms, with no, one or both inputs negative: on int64 (top = 9)
    # and on Python ints past int64 (top = 10**25 and 10**2200).  At
    # 10**2200 each output group has 4400 digits and takes about 1 ms to
    # parse, so the 4096-term shapes run below it only.
    rng = random.Random(29)
    shapes = [(la, lb) for la in range(9) for lb in range(9)]
    if top < 10**2200:
        shapes += [(1, 4096), (2, 2048), (64, 64), (65, 64)]
    for la, lb in shapes:
        for neg_a, neg_b in ((False, False), (True, False), (False, True), (True, True)):
            a = [rng.randint(-top if neg_a else 0, top) for _ in range(la)]
            b = [rng.randint(-top if neg_b else 0, top) for _ in range(lb)]
            if la and lb:
                a[0], b[-1] = (-top if neg_a else top), (-top if neg_b else top)
            out = convolve_int(a, b)
            assert out.tolist() == schoolbook_convolve(a, b), (la, lb, neg_a, neg_b)
            if la and lb:
                assert out.dtype == (np.int64 if top == 9 else object)


def _reference_rows(values: dict) -> list[tuple]:
    """The export rows of a map shift -> value, by the per-entry algorithm:
    sorted shifts, each part as a Fraction in lowest terms."""
    rows = []
    for s, v in sorted(values.items()):
        re, im = as_cq(v).re, as_cq(v).im
        rows.append((str(s), *map(int_text, (re.numerator, re.denominator,
                                             im.numerator, im.denominator))))
    return rows


def _array_spectrum(rng, count, den, top, complex_):
    """A Spectrum of ``count`` nonzero values among zeros, and the same
    values as a map shift -> int, Fraction or CQ built here."""
    size = 2 * count + 3
    rows = sorted(rng.sample(range(size), count))
    re, im = [0] * size, [0] * size
    for k in rows:
        while not (re[k] or im[k]):
            re[k] = rng.choice((0, rng.randint(-top, top)))
            im[k] = rng.randint(-top, top) if complex_ else 0
    offset = -count
    parts = (np.array(re, dtype=object), np.array(im, dtype=object))[: 2 if complex_ else 1]
    if top < 2**62:
        parts = tuple(part.astype(np.int64) for part in parts)
    values = {}
    for k in rows:
        v = CQ(Fraction(re[k], den), Fraction(im[k], den))
        values[offset + k] = v if not v.is_real else int(v.re) if v.re.denominator == 1 else v.re
    return Spectrum(parts, den, offset, size), values


_EXPORT_CASES = {
    "integer": (1, 1000, False),
    "rational": (6, 36, False),
    "complex": (10, 100, True),
    "past int64": (3 * 10**19, 10**25, True),
    "past the int-to-text limit": (7, 10**5000, True),
}


@pytest.mark.parametrize("case", sorted(_EXPORT_CASES))
@pytest.mark.parametrize("chunk", [4, None])
def test_export_matches_per_entry_reference(case, chunk, monkeypatch):
    # Counts just below, at and just above one chunk, and two chunks.
    den, top, complex_ = _EXPORT_CASES[case]
    if chunk is None:
        if top > 10**25:
            return  # thousands of 5000-digit values: the small chunk covers it
        chunk = correlation._CHUNK
    monkeypatch.setattr(correlation, "_CHUNK", chunk)
    rng = random.Random(f"{case}/{chunk}")
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1):
        spec, values = _array_spectrum(rng, count, den, top, complex_)
        rows = _reference_rows(values)
        assert spec.to_csv() == "".join(",".join(row) + "\n" for row in [
            ("shift", "re_num", "re_den", "im_num", "im_den"), *rows
        ])
        keys = ("shift", "re_num", "re_den", "im_num", "im_den")
        assert spec.to_json() == json.dumps([dict(zip(keys, row)) for row in rows],
                                            sort_keys=True)
        row_texts = [json_row(s, values[s]) for s in sorted(values)]
        assert spec.to_json() == "[" + ", ".join(row_texts) + "]"
        assert spec.shifts() == sorted(values)
        if count <= 2 * 4 + 1:
            assert dict(spec.entries) == values
            assert [type(v) for v in spec.entries.values()] == [
                type(values[s]) for s in spec.entries
            ]


def test_entries_are_read_only():
    pair = rudin_shapiro(3)
    spec = spectrum(pair.x, pair.y)
    with pytest.raises(TypeError):
        spec.entries[0] = 1
    assert spec.entries == {s: spec.value(s) for s in spec.shifts()}


def test_peak_past_int64():
    # Squared magnitudes past int64 are compared as Python ints; ties keep
    # every shift; a properly complex witness still raises.
    real = Spectrum((np.array([5, -(2**63), 2**63 - 1, 0]),), 1, 0, 4)
    assert correlation._peak(real) == (2**63, [1])
    assert correlation._sum_abs2(real) == 25 + 2**126 + (2**63 - 1) ** 2
    a = 3 * 10**9
    re = np.array([4 * a, 5 * a, 0, -5 * a, 0, 0], dtype=np.int64)
    im = np.array([3 * a, 0, 0, 0, 5 * a, 1], dtype=np.int64)
    spec = Spectrum((re, im), 2, -2, 6)
    with pytest.raises(ValueError, match="irrational"):
        correlation._peak(spec)
    assert correlation._peak(spec, -1) == (Fraction(5 * a, 2), [-1, 1, 2])
    assert correlation._peak(spec, 3) == (Fraction(1, 2), [3])
    assert correlation._peak(spec, 4) == (0, [])
    assert correlation._sum_abs2(spec) == Fraction(100 * a * a + 1, 4)


def test_spectrum_and_export_memory(seed_pm4):
    # The spectrum holds numerator arrays, and the export formats a block
    # of rows at a time: neither peaks above a small multiple of the array
    # bytes plus the output text.  One Python object per shift (a dict of
    # values, or a list of row strings) goes past both bounds.
    pair = grs_pair(seed_pm4, 13)
    spectrum(pair.x, pair.y).to_csv()
    array_bytes = 8 * (pair.x.length + pair.y.length - 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec = spectrum(pair.x, pair.y)
        spectrum_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        text = spec.to_csv()
        export_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert spec.parts[0].nbytes == array_bytes
    assert spectrum_peak < 5 * array_bytes, spectrum_peak
    assert export_peak < 2 * len(text) + array_bytes, (export_peak, len(text))
