import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs.field import (
    KElem,
    QAlphaElem,
    RationalInputError,
    alpha_pow,
    compare,
    decimal_approx,
    k_div,
    min_poly_of,
    reduce_poly,
    signifier,
)

A = alpha_pow(1)
# Float image of the real root, used ONLY as a test oracle for ordering.
ALPHA_FLOAT = 1.6589670819161279


def test_signifier_examples():
    assert signifier(QAlphaElem()) == 0
    assert signifier(QAlphaElem(-2, 1, 0)) == -4
    assert signifier(QAlphaElem(-2, 0, 1)) == 4


def test_compare_examples():
    assert compare(A, Fraction(1658967, 10**6)) > 0
    assert compare(A, Fraction(1658968, 10**6)) < 0
    v = QAlphaElem(Fraction(1, 3), Fraction(-2, 5), Fraction(7))
    assert compare(v, v) == 0
    assert compare(alpha_pow(2), 2) > 0


def test_min_poly():
    assert min_poly_of(A) == (1, -2, -4)
    s, t, u = min_poly_of(alpha_pow(2))
    assert (s, u) == (-5, -16)
    v = QAlphaElem(Fraction(2, 3), Fraction(-1, 4), Fraction(5, 7))
    assert min_poly_of(v)[2] == -signifier(v)
    with pytest.raises(RationalInputError):
        min_poly_of(QAlphaElem(Fraction(3, 2)))


def test_root_identity():
    assert A**3 + A**2 - 2 * A - 4 == QAlphaElem()
    m_at_alpha1 = reduce_poly({(0, 3, 0): 1, (0, 2, 0): 1, (0, 1, 0): -2, (0, 0, 0): -4})
    assert m_at_alpha1 == KElem.zero()


def test_alpha_pow():
    assert alpha_pow(3) == QAlphaElem(4, 2, -1)
    assert alpha_pow(0) == QAlphaElem(1)
    assert alpha_pow(-1) == QAlphaElem(Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4))
    assert alpha_pow(5) * alpha_pow(-5) == QAlphaElem(1)


def test_reduce_poly_examples():
    assert reduce_poly({(0, 0, 1): 1}) == KElem((-1, -1, -1, 0, 0, 0))
    assert reduce_poly({(1, 1, 1): 1}) == KElem.rational(4)
    assert reduce_poly({(0, 1, 1): 1}) == KElem.from_qalpha(QAlphaElem(-2, 1, 1))


def test_reduce_poly_degree_cap():
    with pytest.raises(ValueError):
        reduce_poly({(25, 0, 0): 1})


def test_k_div_examples():
    inv_alpha = k_div(KElem.one(), KElem.root(0))
    assert inv_alpha == KElem.from_qalpha(alpha_pow(-1))
    assert k_div(KElem.root(1), KElem.root(1)) == KElem.one()
    num = reduce_poly({(0, 0, 0): 2, (0, 1, 1): 1})
    den = reduce_poly({(1, 0, 0): 1, (0, 1, 0): -1}) * reduce_poly(
        {(1, 0, 0): 1, (0, 0, 1): -1}
    )
    e00 = k_div(num, den)
    expected = KElem.from_qalpha(
        QAlphaElem(Fraction(40, 118), Fraction(7, 118), Fraction(1, 118))
    )
    assert e00 == expected


def test_k_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        k_div(KElem.one(), KElem.zero())


def test_damping_ratio_identity_and_bracket():
    # alpha1*alpha2 / alpha0^2 reduces into the real subfield.
    ratio = k_div(KElem.root(1) * KElem.root(2), KElem.root(0) ** 2).to_qalpha()
    assert ratio == (alpha_pow(2) - 1) / 2
    assert compare(ratio, Fraction(935994, 10**6) ** 2) > 0
    assert compare(ratio, Fraction(935995, 10**6) ** 2) < 0


def test_conjugate_product_is_real():
    base = reduce_poly({(1, 1, 0): 3, (0, 0, 1): -2, (2, 0, 0): 1, (0, 0, 0): 5})
    prod = base * base.conj_swapped()
    assert prod.is_real


def test_decimal_approx_examples():
    assert tuple(decimal_approx(A, 6)) == ("1.658967", "1.658968")
    assert tuple(decimal_approx(5 * alpha_pow(-4), 6)) == ("0.660113", "0.660114")
    assert tuple(decimal_approx(QAlphaElem(Fraction(1, 2)), 6)) == ("0.5", "0.5")
    assert tuple(decimal_approx(QAlphaElem(-3), 2)) == ("-3", "-3")
    assert tuple(decimal_approx(-A, 4)) == ("-1.6590", "-1.6589")
    assert str(decimal_approx(A, 6)) == "[1.658967, 1.658968]"


def test_qalpha_text_roundtrip():
    v = QAlphaElem(Fraction(-3, 7), Fraction(22), Fraction(5, 9))
    assert QAlphaElem.from_text(v.to_text()) == v


rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=7
)
qalpha_elems = st.builds(QAlphaElem, rationals, rationals, rationals)


@settings(max_examples=80, deadline=None)
@given(qalpha_elems, qalpha_elems, qalpha_elems)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == QAlphaElem()
    if a != QAlphaElem():
        assert a * a.inverse() == QAlphaElem(1)


def _poly3(rng, terms=4, deg=4):
    out = {}
    for _ in range(terms):
        key = (rng.randint(0, deg), rng.randint(0, deg), rng.randint(0, deg))
        out[key] = out.get(key, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return out


def _poly3_mul(p, q):
    out = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _poly3_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return out


def test_reduce_poly_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(25):
        p = _poly3(rng)
        q = _poly3(rng)
        assert reduce_poly(_poly3_add(p, q)) == reduce_poly(p) + reduce_poly(q)
        assert reduce_poly(_poly3_mul(p, q)) == reduce_poly(p) * reduce_poly(q)


def test_compare_agrees_with_float_oracle():
    rng = random.Random(20240917)
    for _ in range(10_000):
        p = rng.randint(-(10**6), 10**6)
        q = rng.randint(-(10**6), 10**6)
        r = rng.randint(-(10**6), 10**6)
        approx = p + q * ALPHA_FLOAT + r * ALPHA_FLOAT**2
        if abs(approx) < 1e-2:  # too close for the float oracle to call
            continue
        assert compare(QAlphaElem(p, q, r)) == (1 if approx > 0 else -1)


def test_ordering_dunders():
    assert A > 1 and A < 2
    assert alpha_pow(2) >= alpha_pow(2)
    assert -A <= 0


def test_canonical_form():
    # Differently scaled inputs and results land on one representation.
    half = QAlphaElem(Fraction(1, 2))
    assert QAlphaElem(Fraction(2, 4)) == half
    assert hash(QAlphaElem(Fraction(2, 4))) == hash(half)
    v = QAlphaElem(Fraction(1, 6), Fraction(-2, 3), Fraction(5, 4))
    third = QAlphaElem(Fraction(1, 3))
    for same, other in [
        (third * 3, QAlphaElem(1)),
        ((v + half) - half, v),
        (v * 12 / 12, v),
        (-(-v), v),
        (alpha_pow(-3) * alpha_pow(3), QAlphaElem(1)),
        (v - v, QAlphaElem()),
    ]:
        assert same == other and hash(same) == hash(other)
        assert (same.p, same.q, same.r) == (other.p, other.q, other.r)


def test_alpha_pow_matches_repeated_products():
    up = down = QAlphaElem(1)
    inv = A.inverse()
    for n in range(61):
        assert alpha_pow(n) == up
        assert alpha_pow(-n) == down
        up, down = up * A, down * inv


def _signifier_reference(v):
    # The cubic form on the Fraction coordinates, as the field's own
    # integer form must reproduce it.
    p, q, r = v.p, v.q, v.r
    return (
        p**3 - p**2 * q - 2 * p * q**2 + 4 * q**3 + 5 * p**2 * r
        - 10 * p * q * r - 4 * q**2 * r + 12 * p * r**2 - 8 * q * r**2 + 16 * r**3
    )


@settings(max_examples=200, deadline=None)
@given(qalpha_elems, qalpha_elems)
def test_signifier_matches_rational_cubic(v, w):
    assert signifier(v) == _signifier_reference(v)
    s = _signifier_reference(v - w)
    assert compare(v, w) == (s > 0) - (s < 0)


@pytest.mark.parametrize(
    "x", [1, -1, 3, -3, Fraction(2, 7), Fraction(-5, 4), Fraction(-1, 9)]
)
def test_inverse_of_rationals(x):
    v = QAlphaElem(x)
    inv = v.inverse()
    assert inv == QAlphaElem(1 / Fraction(x))
    assert inv.is_rational and inv.as_fraction() == 1 / Fraction(x)
    assert inv * v == QAlphaElem(1)
    assert 1 / v == inv and v / x == QAlphaElem(1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QAlphaElem().inverse()


def test_floats_and_assignment_are_refused():
    for args in [(1.5,), (0, 0.5), (0, 0, 2.0)]:
        with pytest.raises(TypeError):
            QAlphaElem(*args)
    with pytest.raises(TypeError):
        QAlphaElem.rational(0.25)
    with pytest.raises(TypeError):
        A + 1.0
    with pytest.raises(TypeError):
        compare(A, 1.5)
    v = QAlphaElem(1, 2, 3)
    for name in ("p", "q", "r", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, Fraction(0))
    assert v == QAlphaElem(1, 2, 3)


@pytest.mark.parametrize(
    "v, text, shown",
    [
        (QAlphaElem(), "0/1 0/1 0/1", "(0) + (0)*a + (0)*a^2"),
        (
            QAlphaElem(Fraction(-3, 7), 22, Fraction(5, 9)),
            "-3/7 22/1 5/9",
            "(-3/7) + (22)*a + (5/9)*a^2",
        ),
        (alpha_pow(-1), "-1/2 1/4 1/4", "(-1/2) + (1/4)*a + (1/4)*a^2"),
        (alpha_pow(5), "12/1 2/1 -1/1", "(12) + (2)*a + (-1)*a^2"),
    ],
)
def test_text_forms_are_pinned(v, text, shown):
    assert v.to_text() == text
    assert str(v) == shown
    assert QAlphaElem.from_text(text) == v


# The six-coordinate reduction KElem used before it was held as
# u + v*alpha1, kept as the reference for the current arithmetic.  An
# element is a dict {(i, j): coefficient} over alpha0^i * alpha1^j, reduced
# by rewriting alpha1^2 and alpha0^3 into lower powers.

# X^i Y^j, j >= 2:  Y^2 -> -XY - Y - X^2 - X + 2
_Y2_RULE = (((1, 1), -1), ((0, 1), -1), ((2, 0), -1), ((1, 0), -1), ((0, 0), 2))
# X^i, i >= 3:  X^3 -> -X^2 + 2X + 4
_X3_RULE = ((2, -1), (1, 2), (0, 4))


def _ref_reduce(terms):
    acc = {key: Fraction(c) for key, c in terms.items() if c != 0}

    def _apply(key, coeff, replacements):
        i, j = key
        del acc[i, j]
        for (di, dj), mult in replacements:
            new = (i + di, j + dj)
            val = acc.get(new, Fraction(0)) + coeff * mult
            if val:
                acc[new] = val
            elif new in acc:
                del acc[new]

    while True:
        high = [k for k in acc if k[1] >= 2]
        if not high:
            break
        for i, j in high:
            if (i, j) in acc:
                _apply((i, j), acc[i, j], [((di, dj - 2), m) for (di, dj), m in _Y2_RULE])
    while True:
        high = [k for k in acc if k[0] >= 3]
        if not high:
            break
        for i, j in high:
            if (i, j) in acc:
                _apply((i, j), acc[i, j], [((di - 3, 0), m) for di, m in _X3_RULE])
    return tuple(acc.get((i, j), Fraction(0)) for i in range(3) for j in range(2))


def _ref_terms(c):
    return {(i, j): c[2 * i + j] for i in range(3) for j in range(2) if c[2 * i + j]}


def _ref_mul(c1, c2):
    prod = {}
    for (i1, j1), v1 in _ref_terms(c1).items():
        for (i2, j2), v2 in _ref_terms(c2).items():
            key = (i1 + i2, j1 + j2)
            prod[key] = prod.get(key, Fraction(0)) + v1 * v2
    return _ref_reduce(prod)


def _ref_conj(c):
    out = {}
    for (i, j), v in _ref_terms(c).items():
        if j == 0:
            out[(i, 0)] = out.get((i, 0), Fraction(0)) + v
        else:  # alpha1 -> alpha2 = -1 - alpha0 - alpha1
            for key, mult in (((i, 0), -1), ((i + 1, 0), -1), ((i, 1), -1)):
                out[key] = out.get(key, Fraction(0)) + v * mult
    return _ref_reduce(out)


def _ref_div(num, den):
    norm = _ref_mul(den, _ref_conj(den))
    assert norm[1::2] == (0, 0, 0)
    inv = QAlphaElem(*norm[::2]).inverse()
    return _ref_mul(_ref_mul(num, _ref_conj(den)), (inv.p, 0, inv.q, 0, inv.r, 0))


def _ref_pow(c, n):
    out = (1, 0, 0, 0, 0, 0)
    for _ in range(n):
        out = _ref_mul(out, c)
    return out


def _ref_reduce_poly(terms):
    # alpha2 = -alpha0 - alpha1 - 1, substituted one factor at a time.
    acc = {}
    for (i, j, k), coeff in terms.items():
        term = {(i, j): Fraction(coeff)}
        for _ in range(k):
            nxt = {}
            for (a, b), v in term.items():
                for key, m in (((a + 1, b), -1), ((a, b + 1), -1), ((a, b), -1)):
                    nxt[key] = nxt.get(key, Fraction(0)) + v * m
            term = nxt
        for key, v in term.items():
            acc[key] = acc.get(key, Fraction(0)) + v
    return _ref_reduce(acc)


def _random_coords(rng):
    # Zero the alpha1 half now and then, so real elements come up too.
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(6)]
    if rng.random() < 0.25:
        coords[1::2] = [0, 0, 0]
    return tuple(coords)


def test_kelem_matches_six_coordinate_reference():
    rng = random.Random(2026)
    for _ in range(200):
        c1, c2 = _random_coords(rng), _random_coords(rng)
        x, y = KElem(c1), KElem(c2)
        assert (x * y).c == _ref_mul(c1, c2)
        assert (x + y).c == tuple(a + b for a, b in zip(c1, c2))
        assert x.conj_swapped().c == _ref_conj(c1)
        assert x.is_real == (c1[1::2] == (0, 0, 0))
        if any(c2):
            assert k_div(x, y).c == _ref_div(c1, c2)
        if any(c1):
            n = rng.randint(1, 4)
            assert (x ** -n).c == _ref_pow(_ref_div((1, 0, 0, 0, 0, 0), c1), n)
    for _ in range(40):
        p = _poly3(rng, terms=5, deg=5)
        assert reduce_poly(p).c == _ref_reduce_poly(p)


def test_kelem_surface():
    c = (Fraction(1, 2), -3, 0, Fraction(7, 5), 2, 0)
    x = KElem(c)
    assert x.c == c
    assert x.to_text() == str(x) == "1/2 -3/1 0/1 7/5 2/1 0/1"
    assert (x.u, x.v) == (QAlphaElem(Fraction(1, 2), 0, 2), QAlphaElem(-3, Fraction(7, 5)))
    y = KElem.from_qalpha(x.u) + KElem.root(1) * KElem.from_qalpha(x.v)
    assert x == y and hash(x) == hash(y)
    with pytest.raises(ValueError):
        KElem((1, 2, 3))
    with pytest.raises(TypeError):
        KElem((0.5, 0, 0, 0, 0, 0))
    # root j in row-major coordinates (u.p, v.p, u.q, v.q, u.r, v.r)
    assert [KElem.root(j).c for j in range(3)] == [
        (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (-1, -1, -1, 0, 0, 0)
    ]
    assert KElem.root(1) * KElem.root(1) == reduce_poly({(0, 2, 0): 1})
    # alpha0 * alpha1 has v = alpha0: no rational part, yet not real.
    mixed = KElem.root(0) * KElem.root(1)
    assert mixed.c == (0, 0, 0, 1, 0, 0)
    assert not mixed.is_real
    with pytest.raises(ValueError):
        mixed.to_qalpha()
    v = QAlphaElem(Fraction(-3, 7), 22, Fraction(5, 9))
    assert KElem.from_qalpha(v).is_real and KElem.from_qalpha(v).to_qalpha() == v
