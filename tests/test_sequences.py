import io
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from conftest import assert_outcome

from grs.correlation import crosscorr, spectrum
from grs.qcomplex import CQ, as_cq, exact_magnitude, int_text
from grs.sequences import (
    BudgetExceeded,
    DegreeTooLarge,
    EnergyMismatch,
    GolayPair,
    NotGolay,
    SeedPair,
    Sequence,
    ZeroSequence,
    grs_member,
    grs_pair,
    grs_step,
    read_seed_pair,
    read_sequence,
    rudin_shapiro,
    rudin_shapiro_seed,
    validate_seed,
    write_seed_pair,
    write_sequence,
)


def test_step_from_level_one():
    pair = GolayPair(Sequence.binary("++"), Sequence.binary("+-"), 1, 1)
    nxt = grs_step(pair)
    assert nxt.x == Sequence.binary("+++-")
    assert nxt.y == Sequence.binary("++-+")


def test_step_from_unit_seed():
    pair = GolayPair(Sequence([1]), Sequence([1]), 0, 1)
    nxt = grs_step(pair)
    assert nxt.x == Sequence.binary("++")
    assert nxt.y == Sequence.binary("+-")


def test_step_with_length_two_seed():
    pair = GolayPair(Sequence.binary("++"), Sequence.binary("+-"), 0, 2)
    nxt = grs_step(pair)
    assert nxt.x == Sequence.binary("+++-")


def test_pair_level_two():
    pair = rudin_shapiro(2)
    assert pair.x.sign_string() == "+++-"
    assert pair.y.sign_string() == "++-+"


def test_pair_level_zero_is_seed(seed_pm4):
    pair = grs_pair(seed_pm4, 0)
    assert pair.x == seed_pm4.x0 and pair.y == seed_pm4.y0


def test_level_ten_crosscorr_value():
    pair = rudin_shapiro(10)
    assert pair.x.is_binary and pair.x.length == 1024
    assert crosscorr(pair.x, pair.y, -341) == 153


@pytest.mark.parametrize("n", range(0, 8))
def test_lengths_and_binary_propagation(n, seed_pm2):
    pair = grs_pair(seed_pm2, n)
    assert pair.length == 2 << n
    assert pair.x.is_binary and pair.y.is_binary
    assert pair.x.degree == pair.length - 1


def test_degree_below_length_always():
    # A seed whose y0 has degree below ell0 - 1 keeps degrees below 2^n*ell0.
    seed = validate_seed(Sequence([1]), Sequence([1]), 2)
    for n in range(6):
        pair = grs_pair(seed, n)
        assert pair.x.degree < pair.length
        assert pair.y.degree < pair.length


def test_complementarity_and_energy_doubling(corpus):
    for seed in corpus:
        e0 = crosscorr(seed.x0, seed.x0, 0) + crosscorr(seed.y0, seed.y0, 0)
        for n in range(0, 9):
            pair = grs_pair(seed, n)
            sxx = spectrum(pair.x, pair.x)
            syy = spectrum(pair.y, pair.y)
            for s in range(1, pair.length):
                assert sxx.value(s) + syy.value(s) == 0
            assert sxx.value(0) + syy.value(0) == (1 << n) * e0


def test_validate_seed_diagnostics():
    assert validate_seed(Sequence([1]), Sequence([1]), 1).ell0 == 1
    pm = validate_seed(Sequence.binary("++"), Sequence.binary("+-"), 2)
    assert pm.is_int
    with pytest.raises(NotGolay) as err:
        validate_seed(Sequence.binary("++"), Sequence.binary("++"), 2)
    assert err.value.shift == 1
    with pytest.raises(EnergyMismatch):
        validate_seed(Sequence([1, 1]), Sequence([1]), 2)
    with pytest.raises(ZeroSequence):
        validate_seed(Sequence([0]), Sequence([1]), 1)
    with pytest.raises(DegreeTooLarge):
        validate_seed(Sequence.binary("++"), Sequence.binary("+-"), 1)


def test_seed_check_stops_at_the_members_degrees():
    # Every autocorrelation vanishes past both degrees, so a huge declared
    # ell0 costs nothing more to check.
    seed = validate_seed(Sequence.binary("++"), Sequence.binary("+-"), 10**12)
    assert seed.ell0 == 10**12
    # The last shift checked is the larger degree itself.
    with pytest.raises(NotGolay) as err:
        validate_seed(Sequence([1, 0, 1]), Sequence([1, 0, 1]), 10**12)
    assert err.value.shift == 2


# Inputs that no other test gives: each call and its value, or the
# exception it raises.
SEQUENCE_EDGES = {
    "declared length below the coefficient count": (
        lambda: Sequence([1, 2, 3], 2),
        ValueError("declared length smaller than the coefficient list")),
    "setattr": (lambda: setattr(Sequence([1]), "den", 2), AttributeError("Sequence is immutable")),
    "sign string of a non-binary sequence": (
        lambda: Sequence([1, 2]).sign_string(), ValueError("not a binary sequence")),
    "len": (lambda: len(Sequence([1, 0], 5)), 5),
    "equality with a non-sequence": (lambda: Sequence([1]) == 1, False),
    "repr, binary": (lambda: repr(Sequence.binary("+-")), "Sequence('+-')"),
    "repr, rational": (lambda: repr(Sequence([Fraction(1, 2)], 3)),
                       "Sequence(<3 rational coeffs>)"),
    "unit seed is rudin-shapiro": (lambda: rudin_shapiro_seed().is_rudin_shapiro, True),
    "padded unit seed is not": (
        lambda: SeedPair(Sequence([1]), Sequence([1]), 2).is_rudin_shapiro, False),
    "negative level": (lambda: grs_pair(rudin_shapiro_seed(), -1),
                       ValueError("level must be nonnegative")),
    "ell0 = 0": (lambda: validate_seed(Sequence([1]), Sequence([1]), 0),
                 ValueError("seed length must be positive")),
    "zero y0": (lambda: validate_seed(Sequence([1]), Sequence([0]), 1), ZeroSequence("y0")),
    "y0 degree at ell0": (lambda: validate_seed(Sequence([1]), Sequence([0, 1]), 1),
                          DegreeTooLarge("y0")),
    "sign string of the wrong length": (
        lambda: read_sequence(io.StringIO("len=3 kind=binary\n++\n")),
        ValueError("sign string does not match the declared length")),
    "unknown kind": (lambda: read_sequence(io.StringIO("len=1 kind=ternary\n1\n")),
                     ValueError("unknown sequence kind 'ternary'")),
    "seed file without ell0": (
        lambda: read_seed_pair(io.StringIO("len=1 kind=binary\n+\n")),
        ValueError("seed file must start with an ell0= line")),
}


@pytest.mark.parametrize("case", SEQUENCE_EDGES)
def test_sequence_edge_inputs(case):
    assert_outcome(*SEQUENCE_EDGES[case])


QCOMPLEX_EDGES = {
    "int minus CQ": (lambda: 1 - CQ(Fraction(1, 2), 3), CQ(Fraction(1, 2), -3)),
    "CQ equals a non-number": (lambda: CQ(1) == object(), False),
    "hash of a real CQ": (lambda: hash(CQ(Fraction(3, 4))) == hash(Fraction(3, 4)), True),
    "hash of a complex CQ": (lambda: hash(CQ(1, 2)) == hash((Fraction(1), Fraction(2))), True),
    "complex float": (lambda: as_cq(1j),
                      TypeError("binary floating complex is not exact; pass rationals")),
    "object": (lambda: as_cq(object()),
               TypeError("cannot interpret object as a complex rational")),
    "magnitude of a real CQ": (lambda: exact_magnitude(CQ(Fraction(-3, 2))), Fraction(3, 2)),
    "magnitude of a float": (lambda: exact_magnitude(1.5),
                             TypeError("unsupported value type float")),
}


@pytest.mark.parametrize("case", QCOMPLEX_EDGES)
def test_qcomplex_edge_inputs(case):
    assert_outcome(*QCOMPLEX_EDGES[case])


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        rudin_shapiro(10, budget=100)


def test_equality_ignores_trailing_zeros():
    assert Sequence([1, 1, 0, 0], 4) == Sequence([1, 1])
    assert Sequence([0, 1]) != Sequence([1])
    assert hash(Sequence([1, 1, 0, 0], 4)) == hash(Sequence.binary("++"))


def test_equal_shape_is_not_equality():
    # Same den, degree and part count; one coefficient differs, in the re
    # part, the im part or a value past int64.
    pairs = [
        (Sequence([1, 2, 3]), Sequence([1, 5, 3])),
        (Sequence([CQ(1, 2), CQ(3, 4)]), Sequence([CQ(1, 2), CQ(3, -4)])),
        (Sequence([10**20, 0, 1]), Sequence([10**20 + 1, 0, 1])),
        (Sequence([Fraction(1, 2), 0], 5), Sequence([Fraction(3, 2), 0], 3)),
    ]
    for a, b in pairs:
        assert (a.den, a.degree, len(a.parts)) == (b.den, b.degree, len(b.parts))
        assert a != b and b != a


def _traced(fn):
    """fn() under tracemalloc: its result, the bytes it leaves allocated
    and its peak, both counted from the start of the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - before, peak - before


def test_step_holds_each_coefficient_once():
    # The new pair's arrays are all it keeps; the peak adds one negated
    # member of the old pair, a quarter of the new pair's bytes.
    seed = validate_seed(Sequence.binary("+++-"), Sequence.binary("++-+"), 4)
    pair = grs_pair(seed, 15)
    nxt, kept, peak = _traced(lambda: grs_step(pair))
    size = sum(p.nbytes for s in (nxt.x, nxt.y) for p in s.parts)
    assert size == 2 * 8 * (4 << 16)
    assert kept <= 1.1 * size and peak <= 1.5 * size


def test_member_build_holds_the_pair_below_and_one_member(seed_pm4):
    # A level-16 member is one step from the level-15 pair: the other
    # level-16 member is never built.  The peak adds the degree scan of the
    # new member and, for y, one negated member of the pair below.
    below = grs_pair(seed_pm4, 15)
    below_size = sum(p.nbytes for s in (below.x, below.y) for p in s.parts)
    del below
    for member in ("x", "y"):
        seq, _, peak = _traced(partial(grs_member, seed_pm4, 16, member))
        assert seq == getattr(grs_pair(seed_pm4, 16), member)
        size = sum(p.nbytes for p in seq.parts)
        assert peak <= 1.3 * (size + below_size), member


def test_sequence_of_an_array_copies_nothing():
    # The degree is found from one bool array, an eighth of the int64 one.
    arr = np.arange(1, 2**20 + 1, dtype=np.int64)
    arr[-5:] = 0
    seq, kept, peak = _traced(lambda: Sequence._of((arr,), 1))
    assert seq.parts[0] is arr and seq.degree == 2**20 - 6
    assert kept <= 0.05 * arr.nbytes and peak <= 0.25 * arr.nbytes


def test_representation_is_canonical():
    # Equal polynomials compare and hash equal whatever form their
    # coefficients were given in.
    cases = [
        (Sequence([CQ(2)]), Sequence([2])),
        (Sequence([1, 1, 0, 0], 4), Sequence.binary("++")),
        (Sequence([10**20, -1]), Sequence([CQ(10**20), CQ(-1)])),
        (Sequence([Fraction(6, 3), 0], 2), Sequence([2])),
        (Sequence(np.array([1, -1], dtype=np.int8)), Sequence.binary("+-")),
        (Sequence([Fraction(2, 4), 0], 2), Sequence([CQ(Fraction(1, 2), 0)])),
        (Sequence([Fraction(1, 2), CQ(0, Fraction(1, 3))]),
         Sequence(np.array([CQ(Fraction(3, 6)), CQ(0, Fraction(2, 6))], dtype=object))),
        (Sequence([CQ(Fraction(10**20, 3), Fraction(-1, 3))]),
         Sequence([(Fraction(2 * 10**20, 6), Fraction(-1, 3)), 0], 2)),
        (Sequence([CQ(3, 0), CQ(Fraction(1, 2), 0)]), Sequence([3, Fraction(1, 2)])),
    ]
    for a, b in cases:
        assert a == b and hash(a) == hash(b)
    assert Sequence([10**20, -1]) != Sequence([10**20, 1])
    assert Sequence([2]) != Sequence([CQ(2, 1)])
    assert Sequence([Fraction(1, 2)]) != Sequence([1])
    # One least denominator for every real and imaginary part; an all-zero
    # im part is dropped; numerators are int64 whenever they fit.
    seq = Sequence([Fraction(2, 4), CQ(Fraction(1, 6), Fraction(-2, 3))])
    assert seq.den == 6
    assert [p.tolist() for p in seq.parts] == [[3, 1], [0, -4]]
    real = Sequence([CQ(Fraction(1, 2), 0), CQ(5, 0)])
    assert real.den == 2 and [p.tolist() for p in real.parts] == [[1, 10]]
    assert real.is_rational_real and not real.is_int_real
    assert Sequence([Fraction(4, 2)]).den == 1 and Sequence([Fraction(4, 2)]).is_int_real
    assert Sequence([Fraction(1, 3)]).parts[0].dtype == np.int64
    assert Sequence([Fraction(10**20, 3)]).parts[0].dtype == object


def test_coeffs_are_python_values():
    for seq in (Sequence.binary("+-+"), Sequence([0, 5, -7]), Sequence([10**20, -1])):
        assert all(type(v) is int for v in seq.coeffs)
        assert list(seq.coeffs) == list(Sequence(list(seq.coeffs)).coeffs)
    assert Sequence([1, 2, 0], 5).coeffs == (1, 2, 0, 0, 0)
    mixed = Sequence([Fraction(1, 2), 3])
    assert all(type(v) is CQ for v in mixed.coeffs)
    assert Sequence.binary("+-").int_coeffs().dtype == np.int64
    assert Sequence([10**20, -1]).int_coeffs().dtype == object
    assert mixed.int_coeffs() is None


def test_views_across_representations():
    assert Sequence.binary("+-").is_binary
    assert not Sequence([1, 0, -1]).is_binary
    assert not Sequence([1, 1], 3).is_binary
    assert not Sequence([], 0).is_binary
    assert not Sequence([2]).is_binary
    assert Sequence([1, 0, 0], 3).degree == 0
    assert Sequence([10**20, 0], 2).degree == 0
    assert Sequence([CQ(0), CQ(0, 1), CQ(0)]).degree == 1
    assert Sequence([0, 0]).is_zero and Sequence([], 0).is_zero
    assert Sequence([CQ(0)], 1).is_zero
    assert not Sequence([10**20]).is_zero
    with pytest.raises(ValueError):
        Sequence.binary("+-x")


def test_step_leaves_int64_exactly():
    # -(-2**63) is 2**63: the step negates exactly instead of wrapping.
    pair = grs_step(GolayPair(Sequence([-(2**63)]), Sequence([-(2**63)]), 0, 1))
    assert pair.x.coeffs == (-(2**63), -(2**63))
    assert pair.y.coeffs == (-(2**63), 2**63)
    assert pair.y.int_coeffs().dtype == object
    back = grs_step(GolayPair(Sequence([1]), Sequence([2**63]), 0, 1))
    assert back.y.int_coeffs().dtype == np.int64


def _cq_step(x: list, y: list, ell: int) -> tuple[list, list]:
    """The doubling step on CQ coefficient lists, the reference for
    grs_step."""
    xs, ys = (list(v[:ell]) + [CQ()] * (ell - len(v)) for v in (x, y))
    return xs + ys, xs + [-v for v in ys]


def test_step_matches_cq_reference():
    # The members differ in denominator (1 and 5) and in number of parts
    # (re only, re and im), each way round, so every step rescales one of
    # them and pads the other's im with zeros.
    c = CQ(Fraction(3, 5), Fraction(4, 5))
    for x0, y0, ell0 in (([1], [c], 1), ([1, 1], [c, -c], 2)):
        for x0, y0 in ((x0, y0), (y0, x0)):
            seed = validate_seed(Sequence(x0), Sequence(y0), ell0)
            x, y = [as_cq(v) for v in x0], [as_cq(v) for v in y0]
            for n in range(1, 5):
                x, y = _cq_step(x, y, ell0 << (n - 1))
                pair = grs_pair(seed, n)
                assert pair.x.coeffs == tuple(x) and pair.y.coeffs == tuple(y), n
                assert pair.x == Sequence(x) and pair.y == Sequence(y), n
                assert hash(pair.x) == hash(Sequence(x)), n
                assert pair.x.den == pair.y.den == 5, n
                assert all(p.dtype == np.int64 for s in (pair.x, pair.y) for p in s.parts)


def test_step_scales_zero_parts_by_a_factor_past_int64():
    # x0 = (i) has an all-zero re part over den 1; y0 = (w^28), |w| = 1,
    # has den 5^28 > 2^63, so x's parts are scaled by 5^28.
    w = CQ(Fraction(3, 5), Fraction(4, 5))
    w28 = CQ(1)
    for _ in range(28):
        w28 = w28 * w
    seed = validate_seed(Sequence([CQ(0, 1)]), Sequence([w28]), 1)
    assert seed.y0.den == 5**28 > 2**63
    pair = grs_pair(seed, 2)
    assert pair.x.cq_coeffs() == (CQ(0, 1), w28, CQ(0, 1), -w28)
    assert pair.x.den == 5**28


def test_step_ignores_declared_length_beyond_seed_length():
    # Seeds need only degree below ell0, so a seed may declare a longer
    # support; its trailing zeros must not shift the second half.
    half = Fraction(1, 2)
    for x0, y0 in (([1, 1], [1, -1]), ([half, half], [half, -half]),
                   ([1, CQ(0, 1)], [1, CQ(0, -1)])):
        long_seed = validate_seed(Sequence(x0 + [0], 3), Sequence(y0 + [0], 3), 2)
        seed = validate_seed(Sequence(x0), Sequence(y0), 2)
        for n in range(1, 4):
            got, want = grs_pair(long_seed, n), grs_pair(seed, n)
            assert got.x == want.x and got.y == want.y
            assert got.x.length == got.y.length == got.length == 2 << n


def test_mixed_coefficient_kinds():
    s = Sequence([Fraction(1, 2), CQ(0, Fraction(1))])
    assert not s.is_binary
    assert not s.is_rational_real
    assert s.degree == 1


def test_binary_roundtrip(tmp_path):
    pair = rudin_shapiro(4)
    buf = io.StringIO()
    write_sequence(pair.x, buf)
    buf.seek(0)
    assert read_sequence(buf) == pair.x
    assert buf.getvalue().startswith("len=16 kind=binary\n")


def test_rational_roundtrip():
    seq = Sequence([CQ(Fraction(1, 3), Fraction(-2, 7)), CQ(Fraction(5), 0), 1])
    buf = io.StringIO()
    write_sequence(seq, buf)
    text = buf.getvalue()
    assert text == "len=3 kind=rational\n1/3 -2/7\n5/1 0/1\n1/1 0/1\n"
    assert read_sequence(io.StringIO(text)) == seq
    # Bit-exact: writing the parsed sequence again gives identical text.
    buf2 = io.StringIO()
    write_sequence(read_sequence(io.StringIO(text)), buf2)
    assert buf2.getvalue() == text


def test_integer_rational_roundtrip(seed_padded3):
    # Integer sequences of kind rational ("k/1 0/1" lines) parse as ints,
    # into int64 or, past int64, into Python ints; Gaussian integers
    # ("k/1 m/1" lines) stay CQ.
    cases = [
        grs_pair(seed_padded3, 5).x,
        Sequence([0, 3, -2**63, 0, 7]),
        Sequence([10**20, 0, -(10**20)], 4),
        Sequence([CQ(1, 1), 2, CQ(0, -3)]),
    ]
    for seq in cases:
        buf = io.StringIO()
        write_sequence(seq, buf)
        text = buf.getvalue()
        assert text.startswith(f"len={seq.length} kind=rational\n")
        back = read_sequence(io.StringIO(text))
        assert back == seq and hash(back) == hash(seq)
        assert back.length == seq.length
        assert [type(v) for v in back.coeffs] == [type(v) for v in seq.coeffs]
        buf2 = io.StringIO()
        write_sequence(back, buf2)
        assert buf2.getvalue() == text


@pytest.mark.parametrize(
    "lines",
    ["x/1 0/1", "/1 0/1", "1/1", "1/1 0/1 0/1", "1.5/1 0/1", ""],
)
def test_malformed_rational_line_raises(lines):
    text = f"len=2 kind=rational\n1/1 0/1\n{lines}\n"
    with pytest.raises(ValueError):
        read_sequence(io.StringIO(text))


def test_rational_forms_read_like_fractions():
    # Rows as write_sequence writes them, rows with unreduced fractions,
    # and other forms Fraction reads, give the sequence of those Fractions.
    rows = ["2/4 0/6", "-3/1 -1/1", "+1/2 -4/8", "0/5 7/3"]
    others = ["3 -1", "0.5 1e1", "1_0/4 0", "  1/2\t 3/4 "]
    for lines in (rows, others, rows + others):
        text = f"len={len(lines)} kind=rational\n" + "\n".join(lines) + "\n"
        expected = Sequence([CQ(*map(Fraction, line.split())) for line in lines])
        assert read_sequence(io.StringIO(text)) == expected


@pytest.mark.parametrize("row, field", [("1/0 0/1", "1/0"), ("1/2 3/0", "3/0"), ("5/0 0/0", "5/0")])
def test_zero_denominator_names_the_field(row, field):
    text = f"len=2 kind=rational\n1/1 0/1\n{row}\n"
    with pytest.raises(ValueError, match=f"zero denominator in '{field}'"):
        read_sequence(io.StringIO(text))


# Values past the interpreter's int-to-text limit (4300 digits by default).
_HUGE = 10**5000


def test_roundtrip_past_int_text_limit():
    # Both read paths: integer "k/1 0/1" lines and general fractions.
    cases = [
        Sequence([Fraction(1, 10**20), 1]),
        Sequence([_HUGE, 1]),
        Sequence([-_HUGE, 0, _HUGE + 1], 4),
        Sequence([Fraction(_HUGE, 3), CQ(1, Fraction(-1, _HUGE))]),
    ]
    for seq in cases:
        buf = io.StringIO()
        write_sequence(seq, buf)
        text = buf.getvalue()
        back = read_sequence(io.StringIO(text))
        assert back == seq and back.length == seq.length
        buf2 = io.StringIO()
        write_sequence(back, buf2)
        assert buf2.getvalue() == text


def test_exact_text_codec_past_int_text_limit():
    from grs.qcomplex import fraction_text, int_text, parse_fraction, text_int

    digits = "1" + "0" * 5000
    assert int_text(_HUGE) == digits and int_text(-_HUGE) == "-" + digits
    assert text_int(digits) == _HUGE and text_int(f" -{digits}\n") == -_HUGE
    assert fraction_text(-_HUGE, 3) == f"-{digits}/3"
    assert parse_fraction(f"-{digits}/3") == Fraction(-_HUGE, 3)
    assert parse_fraction(digits) == _HUGE
    for text in (digits + ".5", digits + "x", digits + "e2"):
        with pytest.raises(ValueError):
            text_int(text)


@pytest.mark.parametrize("size", [4300, 4301, 8601])
def test_text_codec_at_the_digit_limit(size):
    # 4300 digits convert directly; past them the halves convert apart,
    # and the low half of these digits starts with zeros.
    from grs.qcomplex import int_text, text_int

    digits = "7" + "0" * (size - 6) + "12345"
    value = 7 * 10 ** (size - 1) + 12345
    assert int_text(value) == digits and int_text(-value) == "-" + digits
    assert text_int(digits) == value and text_int("-" + digits) == -value
    assert text_int(f"+{digits}") == value and text_int(f" \t-{digits}\n") == -value
    for text in (f"+-{digits}", f"- {digits}", f"{digits}_1", f"{digits[:9]} {digits[9:]}",
                 f"{digits}.0", "-", ""):
        with pytest.raises(ValueError):
            text_int(text)


def test_cq_text_past_int_text_limit():
    # The str(Fraction) form of each part: "n" for integers, else "n/d".
    digits = "1" + "0" * 5000
    assert str(CQ(_HUGE)) == digits
    assert str(CQ(Fraction(-_HUGE, 3))) == f"-{digits}/3"
    assert str(CQ(1, -_HUGE)) == f"1-{digits}i"
    assert str(CQ(Fraction(_HUGE, 7), Fraction(1, _HUGE))) == f"{digits}/7+1/{digits}i"
    small = [CQ(0), CQ(-3), CQ(Fraction(3, 2)), CQ(1, 1), CQ(0, Fraction(-5, 11)), CQ(-1, 21)]
    assert [str(c) for c in small] == ["0", "-3", "3/2", "1+1i", "0-5/11i", "-1+21i"]


@pytest.mark.parametrize("row", ["{}x/1 0/1", "{}.5/1 0/1", "1/1 {}/1x", "1/-{} 0/1"])
def test_malformed_rows_past_int_text_limit_raise(row):
    text = f"len=2 kind=rational\n1/1 0/1\n{row.format('7' * 5000)}\n"
    with pytest.raises(ValueError):
        read_sequence(io.StringIO(text))


def test_negative_declared_length_raises():
    for kind in ("rational", "binary"):
        with pytest.raises(ValueError, match="len=-1 is negative"):
            read_sequence(io.StringIO(f"len=-1 kind={kind}\n\n"))


def test_missing_rational_row_is_named():
    with pytest.raises(ValueError, match="len=3: row 2 is missing"):
        read_sequence(io.StringIO("len=3 kind=rational\n1/1 0/1\n"))
    with pytest.raises(ValueError, match="len=1: row 1 is missing"):
        read_sequence(io.StringIO("len=1 kind=rational\n"))


def test_header_field_without_value_is_named():
    with pytest.raises(ValueError, match="header field 'foo' is not key=value"):
        read_sequence(io.StringIO("len=2 kind=binary foo\n++\n"))


def test_seed_pair_roundtrip(seed_pm4):
    buf = io.StringIO()
    write_seed_pair(seed_pm4, buf)
    buf.seek(0)
    again = read_seed_pair(buf)
    assert again == seed_pm4


def test_seed_and_length_fields_past_int_text_limit():
    # A declared ell0 of 5001 digits is written in full and read back; a
    # negative declared length of as many digits is named in full.
    seed = validate_seed(Sequence.binary("++"), Sequence.binary("+-"), 10**5000 + 3)
    buf = io.StringIO()
    write_seed_pair(seed, buf)
    buf.seek(0)
    assert read_seed_pair(buf) == seed
    length = -(10**5000)
    with pytest.raises(ValueError, match=f"^declared length len={int_text(length)} is negative$"):
        read_sequence(io.StringIO(f"len={int_text(length)} kind=binary\n+\n"))


def test_product_identities_against_oracle(corpus):
    """The four level-doubling product identities, coefficientwise.

    |x_n|^2   = |x_{n-1}|^2 + |y_{n-1}|^2 + shift(x y*, -l) + shift(y x*, +l)
    |y_n|^2   = same with minus signs on the cross terms
    x_n y_n*  = |x|^2 - |y|^2 - shift(x y*, -l) + shift(y x*, +l)
    y_n x_n*  = |x|^2 - |y|^2 + shift(x y*, -l) - shift(y x*, +l)
    """

    def entries(f, g):
        return {s: v for s, v in spectrum(f, g).entries.items()}

    def combine(parts):
        out = {}
        for sign, shift_by, ent in parts:
            for s, v in ent.items():
                out[s + shift_by] = out.get(s + shift_by, 0) + sign * v
        return {s: v for s, v in out.items() if v != 0}

    for seed in corpus:
        for n in range(1, 7):
            prev = grs_pair(seed, n - 1)
            cur = grs_pair(seed, n)
            ell = prev.length
            xx = entries(prev.x, prev.x)
            yy = entries(prev.y, prev.y)
            xy = entries(prev.x, prev.y)
            yx = entries(prev.y, prev.x)
            assert entries(cur.x, cur.x) == combine(
                [(1, 0, xx), (1, 0, yy), (1, -ell, xy), (1, ell, yx)]
            )
            assert entries(cur.y, cur.y) == combine(
                [(1, 0, xx), (1, 0, yy), (-1, -ell, xy), (-1, ell, yx)]
            )
            assert entries(cur.x, cur.y) == combine(
                [(1, 0, xx), (-1, 0, yy), (-1, -ell, xy), (1, ell, yx)]
            )
            assert entries(cur.y, cur.x) == combine(
                [(1, 0, xx), (-1, 0, yy), (1, -ell, xy), (-1, ell, yx)]
            )
