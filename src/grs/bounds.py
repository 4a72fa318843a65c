"""Shift recursion machinery and exact bound verification.

A shift sequence obeys s_{n+1} = -s_n - ell_n.  Its orbit eventually
enters the window (-ell_n, ell_n) and stays negative afterwards; the
crosscorrelation values along such an orbit satisfy a three-term linear
recursion whose characteristic roots are the negated roots of
m(X) = X^3 + X^2 - 2X - 4.  That closed form, together with per-shift
bounds from the coefficient tables, yields exponential upper and lower
bounds on peak crosscorrelation and peak sidelobe level with base
alpha0 = 1.658967... (the real root of m).

Every verdict produced here is decided by ``grs.field.compare``, i.e. by
rational arithmetic on signifiers, never by floating point.  Verdicts are
returned as data (BoundVerdict) rather than raised, so reports can list
failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping

from . import correlation, fastscan
from .field import (
    KElem,
    QAlphaElem,
    alpha_pow,
    as_kelem,
    compare,
    decimal_approx,
    k_div,
    reduce_poly,
)
from .qcomplex import as_cq
from .sequences import SeedPair, grs_pair, rudin_shapiro_seed

__all__ = [
    "ShiftSeq",
    "BoundVerdict",
    "SeedNotRational",
    "ShiftNotEntered",
    "standard_shift",
    "entry_index",
    "e_constants",
    "e_sums",
    "g_constants",
    "lily_predict",
    "nestor_cecilia_check",
    "generic_prefactor",
    "verify_rs_bounds",
    "verify_rs_lower_bounds",
    "verify_generic_bound",
    "inequality_suite",
    "identity_suite",
    "seed_peak_stats",
]


class SeedNotRational(ValueError):
    """The closed-form prediction needs a rational (real) seed."""


class ShiftNotEntered(ValueError):
    """The starting shift must already lie inside (-ell0, ell0)."""


# ---------------------------------------------------------------------------
# Shift sequences.


@dataclass(frozen=True)
class ShiftSeq:
    """The integer orbit of s0 under s_{n+1} = -s_n - ell_n."""

    s0: int
    ell0: int

    def term(self, n: int) -> int:
        """s_n = t_n + (-1)^n s0, the one closed form of the orbit."""
        return standard_shift(n, self.ell0) + (-1 if n & 1 else 1) * self.s0

    def terms(self, upto: int) -> list[int]:
        return [self.term(n) for n in range(upto + 1)]


def standard_shift(n: int, ell0: int) -> int:
    """t_n = ((-1)^n - 2^n) * ell0 / 3, always an exact integer."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    # 2 = -1 (mod 3), so (-1)^n - 2^n is a multiple of 3.
    return ((-1 if n & 1 else 1) - (1 << n)) * ell0 // 3


def entry_index(s0: int, ell0: int) -> int:
    """Least m with |s_m| < ell_m along the orbit of s0."""
    if ell0 < 1:
        raise ValueError("seed length must be positive")
    orbit = ShiftSeq(s0, ell0)
    m = 0
    while abs(orbit.term(m)) >= ell0 << m:
        m += 1
    return m


# ---------------------------------------------------------------------------
# Closed-form constants in the splitting field.

def _orbit_coeffs(v0, v1, v2) -> tuple[KElem, KElem, KElem]:
    """(c0, c1, c2) in K with x_n = sum_j c_j (-alpha_j)^n for the sequence
    with first terms v0, v1, v2 that obeys x_{k+3} = x_{k+2} + 2 x_{k+1} - 4 x_k:

        c_j = (a_{j+1} a_{j+2} v0 + (a_{j+1} + a_{j+2}) v1 + v2)
              / ((a_j - a_{j+1})(a_j - a_{j+2}))

    For real first terms c0 is real and c2 is the conjugate of c1.
    """
    roots = [KElem.root(j) for j in range(3)]
    triples = (roots[j:] + roots[:j] for j in range(3))  # (a_j, a_{j+1}, a_{j+2})
    return tuple(k_div(b * c * v0 + (b + c) * v1 + v2, (a - b) * (a - c)) for a, b, c in triples)


@cache
def e_constants() -> Mapping[tuple[int, int], KElem]:
    """The six interpolation constants E_{j,v} (j mod 3, v in {0,1}):

        E_{j,0} = (2 + a_{j+1} a_{j+2}) / ((a_j - a_{j+1})(a_j - a_{j+2}))
        E_{j,1} = -(1 + a_{j+1} + a_{j+2}) / (same denominator)

    the closed-form coefficients of the first terms (1, 0, 2) and (0, -1, -1)
    that a seed crosscorrelation contributes at s0 and at -s0.  The j = 0
    pair is real.  Built once, and read-only.
    """
    starts = ((1, 0, 2), (0, -1, -1))
    return MappingProxyType({(j, v): coeff for v, first in enumerate(starts)
                             for j, coeff in enumerate(_orbit_coeffs(*first))})


def e_sums() -> dict[int, KElem]:
    """E_j = E_{j,0} + E_{j,1}, the closed-form coefficients of the unit
    seed's standard orbit (1, -1, 1)."""
    return dict(enumerate(_orbit_coeffs(1, -1, 1)))


def g_constants() -> dict[tuple[int, int], KElem]:
    """G_{j,u} = E_{j,0} + (-1)^u E_{j,1}."""
    e = e_constants()
    return {
        (j, u): e[(j, 0)] + (e[(j, 1)] if u == 0 else -e[(j, 1)])
        for j in range(3)
        for u in (0, 1)
    }


def lily_predict(seed: SeedPair, s0: int, n: int) -> Fraction:
    """Closed-form value of the crosscorrelation at the n-th orbit shift.

    Along an orbit that starts inside its window (|s0| < ell0), the
    values C_k(s_k) satisfy a three-term linear recursion, so
    C_n(s_n) = sum_j c_j * (-alpha_j)^n with the ``_orbit_coeffs`` of the
    first three values, read from the (tiny) level-0..2 pairs.  When the
    orbit enters from the nonnegative side (s0 >= 0) the c_j collapse to
    the E_{j,v} combination of the seed crosscorrelations at +/-s0 (see
    ``e_constants``); an orbit started at a negative shift picks up
    seed-autocorrelation terms that the E-form does not see.

    Restricted to rational seeds, for which the result is rational and
    equals C_{x_n, y_n}(s_n) exactly.
    """
    if not seed.is_rational:
        raise SeedNotRational("closed-form prediction needs a rational seed")
    if abs(s0) >= seed.ell0:
        raise ShiftNotEntered(f"|s0| must be below ell0={seed.ell0}")
    if n < 0:
        raise ValueError("level must be nonnegative")
    orbit = ShiftSeq(s0, seed.ell0)
    pairs = [grs_pair(seed, k) for k in range(3)]
    coeffs = _orbit_coeffs(*(correlation.crosscorr(p.x, p.y, orbit.term(p.level)) for p in pairs))
    total = sum((c * (-KElem.root(j)) ** n for j, c in enumerate(coeffs)), KElem(0))
    return total.to_qalpha().as_fraction()


# ---------------------------------------------------------------------------
# Verdicts.


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one exact comparison.

    ``relation`` is the claimed relation between lhs and rhs; ``observed``
    is the exact comparison actually found ('<', '=', or '>'); ``holds``
    says whether the observation satisfies the claim.
    """

    claim_id: str
    lhs: object
    rhs: object
    relation: str
    observed: str
    holds: bool
    witness: object = None

    def as_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "lhs": _fmt_exact(self.lhs),
            "rhs": _fmt_exact(self.rhs),
            "relation": self.relation,
            "observed": self.observed,
            "holds": self.holds,
            "witness": self.witness,
        }


def _fmt_exact(v) -> str:
    return v.to_text() if isinstance(v, (QAlphaElem, KElem)) else str(v)


_OBS = {-1: "<", 0: "=", 1: ">"}
_SATISFIES = {
    "<=": {"<", "="},
    "<": {"<"},
    ">=": {">", "="},
    ">": {">"},
    "=": {"="},
}


def _verdict(claim_id: str, lhs, rhs, relation: str, witness=None) -> BoundVerdict:
    obs = _OBS[compare(lhs, rhs)]
    return BoundVerdict(
        claim_id, lhs, rhs, relation, obs, obs in _SATISFIES[relation], witness
    )


def _eq_verdict(claim_id: str, lhs, rhs, witness=None) -> BoundVerdict:
    """Equality claim for values that may be complex (compared exactly)."""
    holds = lhs == rhs
    obs = "=" if holds else "!="
    return BoundVerdict(claim_id, lhs, rhs, "=", obs, holds, witness)


# ---------------------------------------------------------------------------
# Recursion checks along shift orbits.


def nestor_cecilia_check(seed: SeedPair, s0: int, n_max: int) -> list[BoundVerdict]:
    """Verify the two orbit recursions against the oracle:

    * for n > 1 with s_n < 0:
        C_n(s_n)  = -C_{n-1}(-s_{n-1}) + 2 C_{n-2}(s_{n-2})
        C_n(-s_n) = conj(C_{n-1}(-s_{n-1})) + 2 conj(C_{n-2}(s_{n-2}))
    * for n > 2 with s_{n-1} < 0 and s_n < 0:
        C_n(s_n) = conj(C_{n-1}(s_{n-1})) + 2 C_{n-2}(s_{n-2})
                   - 4 conj(C_{n-3}(s_{n-3}))

    Levels with unmet sign conditions are skipped.
    """
    shifts = ShiftSeq(s0, seed.ell0).terms(n_max)
    spectra = []
    for k in range(n_max + 1):
        pair = grs_pair(seed, k)
        spectra.append(correlation.spectrum(pair.x, pair.y))

    def val(k: int, s: int):
        return as_cq(spectra[k].value(s))

    out = []
    for n in range(2, n_max + 1):
        if shifts[n] >= 0:
            continue
        lhs = val(n, shifts[n])
        rhs = -val(n - 1, -shifts[n - 1]) + 2 * val(n - 2, shifts[n - 2])
        out.append(_eq_verdict(f"nestor_n{n}", lhs, rhs, witness={"s0": s0, "n": n}))
        lhs2 = val(n, -shifts[n])
        rhs2 = val(n - 1, -shifts[n - 1]).conj() + 2 * val(n - 2, shifts[n - 2]).conj()
        out.append(
            _eq_verdict(f"nestor_conj_n{n}", lhs2, rhs2, witness={"s0": s0, "n": n})
        )
    for n in range(3, n_max + 1):
        if shifts[n] >= 0 or shifts[n - 1] >= 0:
            continue
        lhs = val(n, shifts[n])
        rhs = (
            val(n - 1, shifts[n - 1]).conj()
            + 2 * val(n - 2, shifts[n - 2])
            - 4 * val(n - 3, shifts[n - 3]).conj()
        )
        out.append(_eq_verdict(f"cecilia_n{n}", lhs, rhs, witness={"s0": s0, "n": n}))
    return out


# ---------------------------------------------------------------------------
# Peak-bound suites.


def seed_peak_stats(seed: SeedPair) -> tuple[Fraction, Fraction]:
    """(peak crosscorrelation, peak sidelobe) of the seed, as exact
    rationals; defined for rational seeds."""
    pcc0, _ = correlation.pcc(seed.x0, seed.y0)
    psl0, _ = correlation.psl(seed.x0)
    return Fraction(pcc0), Fraction(psl0)


def generic_prefactor(pcc0, psl0) -> QAlphaElem:
    """K = 9 alpha0^-4 * pcc0 + 18 alpha0^-5 * psl0."""
    return 9 * alpha_pow(-4) * Fraction(pcc0) + 18 * alpha_pow(-5) * Fraction(psl0)


def _peaks(seed: SeedPair, n_max: int) -> list:
    """PCC_n of the seed for n = 0..n_max; [0] + the list holds PSL_n,
    the level n-1 peak at level n."""
    return [fastscan.streaming_peaks(seed, n)[0].value for n in range(n_max + 1)]


def _power_claims(
    name: str, values, ns, coeff, shift: int, relation: str, **witness
) -> list[BoundVerdict]:
    """The claims values[n] `relation` coeff * alpha0^(n - shift), n in ns."""
    return [
        _verdict(
            f"{name}_n{n}",
            QAlphaElem(values[n]),
            coeff * alpha_pow(n - shift),
            relation,
            witness={"n": n, **witness},
        )
        for n in ns
    ]


def verify_rs_bounds(n_max: int) -> list[BoundVerdict]:
    """Exact upper-bound verdicts for the unit seed, n = 0..n_max:

        PCC_n <= 5 alpha0^(n-3)   (equality exactly at n = 3)
        PSL_n <= 5 alpha0^(n-4)   (equality exactly at n = 4)
    """
    pcc = _peaks(rudin_shapiro_seed(), n_max)
    ns = range(n_max + 1)
    return [
        *_power_claims("rs_pcc_upper", pcc, ns, 5, 3, "<="),
        *_power_claims("rs_psl_upper", [0] + pcc, ns, 5, 4, "<="),
    ]


def _qa(a: int, b: int, c: int, den: int) -> QAlphaElem:
    """(a + b alpha0 + c alpha0^2) / den."""
    return QAlphaElem(Fraction(a, den), Fraction(b, den), Fraction(c, den))


# Constants of the lower-bound envelope, all in Q(alpha0):
_A = _qa(6, 4, 9, 59)  # limit of PCC_n / alpha0^n along t_n
_B = _qa(56, 8, -16, 59)  # squared oscillation amplitude
_C = _qa(-1, 0, 1, 2)  # (alpha0^2 - 1)/2, the squared ratio |alpha1/alpha0|

_RS_LOWER_COEFF = 133991557  # observed PCC at level 38; anchors the lower bound


def verify_rs_lower_bounds(n_max: int) -> list[BoundVerdict]:
    """Exact lower-bound verdicts for the unit seed:

    * PCC_n >= 133991557 alpha0^(n-38) for n <= min(n_max, 41)
    * PSL_n >= 133991557 alpha0^(n-39) for 1 <= n <= min(n_max, 42)
    * the envelope in squared, radical-free form for n >= 1:
      whenever W = A - PCC_n/alpha0^n is positive, W^2 <= B * C^n.
    """
    pcc = _peaks(rudin_shapiro_seed(), n_max)
    out = [
        *_power_claims("rs_pcc_lower", pcc, range(min(n_max, 41) + 1),
                       _RS_LOWER_COEFF, 38, ">="),
        *_power_claims("rs_psl_lower", [0] + pcc, range(1, min(n_max, 42) + 1),
                       _RS_LOWER_COEFF, 39, ">="),
    ]
    for n in range(1, n_max + 1):
        w = _A - pcc[n] * alpha_pow(-n)
        if compare(w, 0) <= 0:
            # Peak already above the limiting ratio: the claim is vacuous.
            lhs, rhs, form = w, QAlphaElem(0), "gap nonpositive"
        else:
            lhs, rhs, form = w * w, _B * (_C**n), "squared"
        out.append(
            _verdict(f"rs_pcc_envelope_n{n}", lhs, rhs, "<=", {"n": n, "form": form})
        )
    return out


def verify_generic_bound(seed: SeedPair, n_max: int) -> list[BoundVerdict]:
    """PCC_n <= K alpha0^n (n <= n_max) and PSL_n <= K alpha0^(n-1)
    (1 <= n <= n_max) with the seed-statistics prefactor K."""
    k_pref = generic_prefactor(*seed_peak_stats(seed))
    pcc = _peaks(seed, n_max)
    ns = range(n_max + 1)
    return [
        *_power_claims("generic_pcc_upper", pcc, ns, k_pref, 0, "<=", ell0=seed.ell0),
        *_power_claims("generic_psl_upper", [0] + pcc, ns[1:], k_pref, 1, "<=", ell0=seed.ell0),
    ]


# ---------------------------------------------------------------------------
# The inequality suite: every alpha0 inequality the bound derivations rest
# on, as explicit claims.

# (t, a, b) meaning a * alpha0 + b <= alpha0^(t+1); these discharge the
# per-shift table bounds for the exceptional windows at each step count.
_STEP_INEQUALITIES = (
    (1, 1, 0),
    (3, 3, 2),
    (3, 3, 0),
    (4, 1, 10),
    (4, 3, 0),
    (4, 7, 0),
    (5, 7, 0),
    (5, 9, 0),
    (5, 11, 0),
    (6, 7, 0),
    (6, 9, 0),
    (6, 15, 0),
    (6, 17, 0),
    (7, 33, 0),
    (7, 31, 0),
    (7, 27, 0),
    (7, 21, 14),
    (7, 21, 0),
    (8, 33, 0),
    (8, 49, 0),
    (8, 29, 0),
    (8, 45, 0),
    (8, 13, 62),
    (9, 55, 0),
    (9, 83, 2),
    (9, 87, 0),
    (10, 109, 66),
    (10, 99, 66),
    (10, 153, 0),
    (10, 117, 6),
)

# (n, value): value <= 5 * alpha0^(n-3); the base cases of the unit-seed
# upper bound (equality at n = 3).  value is the largest |C_n(s)| over the
# shifts s that no step inequality reaches: at no split 0 < t < n is the
# pair (a, b) of s's bound a * m_{n-t} + b * m_{n-t-1} (``nellie_bound``)
# a step (t, a, b) above.  A reached shift is bounded from levels n-t and
# n-t-1.  At n = 6, 8 and 9 the peak shifts are reached, so value is below
# PCC_n there: 15, 49 and 83 against 19, 53 and 85.
_UNIT_CASES = (
    (0, 1),
    (1, 1),
    (2, 3),
    (3, 5),
    (4, 7),
    (5, 13),
    (6, 15),
    (7, 33),
    (8, 49),
    (9, 83),
    (10, 153),
)

# (n, value, coeff, power): value <= coeff * alpha0^power; the base cases
# of the seed-statistics bound.  value is the coefficient of pcc0 (coeff 9)
# or of psl0 (18) in m_0 <= pcc0 and m_1 <= pcc0 + 2 psl0, and for n >= 2
# its largest coefficient in ``derrel_bound(pcc0, psl0, n, q)`` over q; the
# maxima 9 at n = 4 and 18 at n = 5 equal their bounds.  (8, 51) and (9, 98)
# are below their maxima, 57 and 114.
_GENERIC_CASES = (
    (0, 1, 9, -4),
    (1, 1, 9, -3),
    (1, 2, 18, -4),
    (2, 3, 9, -2),
    (2, 2, 18, -3),
    (3, 5, 9, -1),
    (3, 6, 18, -2),
    (4, 10, 18, -1),
    (5, 13, 9, 1),
    (6, 21, 9, 2),
    (6, 26, 18, 1),
    (7, 35, 9, 3),
    (7, 42, 18, 2),
    (8, 51, 9, 4),
    (8, 66, 18, 3),
    (9, 99, 9, 5),
    (9, 98, 18, 4),
    (10, 153, 9, 6),
    (10, 198, 18, 5),
)


def inequality_suite() -> list[BoundVerdict]:
    """Every alpha0 inequality used by the bound derivations, verified by
    signifier comparison.  A failed claim is reported false, not raised.
    """
    zero, one = QAlphaElem(0), QAlphaElem(1)
    out = [
        _verdict(f"step_t{t}_{a}a+{b}", a * alpha_pow(1) + b, alpha_pow(t + 1), "<=")
        for t, a, b in _STEP_INEQUALITIES
    ]
    for n, value in _UNIT_CASES:
        out.append(
            _verdict(f"unit_case_n{n}", QAlphaElem(value), 5 * alpha_pow(n - 3), "<=")
        )
    for n, value, coeff, power in _GENERIC_CASES:
        out.append(
            _verdict(
                f"generic_case_n{n}_{value}",
                QAlphaElem(value),
                coeff * alpha_pow(power),
                "<=",
            )
        )
    # Window constants: 0 < G_{0,u} < 1, the conjugate product
    # 4 G_{1,u} G_{2,u} is a positive real, and the damping ratio to the
    # 18th power, C^9, stays below (1 - G_{0,u})^2 / (4 G_{1,u} G_{2,u}).
    g = g_constants()
    for u in (0, 1):
        g0 = g[(0, u)].to_qalpha()
        prod = (4 * g[(1, u)] * g[(2, u)]).to_qalpha()
        out += [
            _verdict(f"window_g0_positive_u{u}", g0, zero, ">"),
            _verdict(f"window_g0_below_one_u{u}", g0, one, "<"),
            _verdict(f"window_conj_product_positive_u{u}", prod, zero, ">"),
            _verdict(f"window_damping_u{u}", _C**9, (one - g0) ** 2 / prod, "<="),
        ]
    # Crossover of the two lower bounds: with D = 133991557 alpha0^-38,
    # the anchored bound is stronger up to level 41 and weaker from 42 on.
    gap = _A - _RS_LOWER_COEFF * alpha_pow(-38)
    return out + [
        _verdict("crossover_gap_positive", gap, zero, ">"),
        _verdict("crossover_until_41", gap * gap, _B * (_C**41), "<"),
        _verdict("crossover_from_42", gap * gap, _B * (_C**42), ">"),
    ]


def identity_suite() -> list[BoundVerdict]:
    """Exact algebraic identities for the closed-form constants."""
    e = e_constants()
    sums = e_sums()
    alpha0, alpha1, alpha2 = (KElem.root(j) for j in range(3))
    identities = (
        ("e00_value", e[(0, 0)], _qa(40, 7, 1, 118)),
        ("e01_value", e[(0, 1)], _qa(-28, 1, 17, 118)),
        ("e0_sum", sums[0], _A),
        ("e1_e2_product_v0", 4 * e[(1, 0)] * e[(2, 0)], _qa(24, -4, 0, 59)),
        ("e1_e2_product_v1", 4 * e[(1, 1)] * e[(2, 1)], _qa(12, 10, -2, 59)),
        ("e_pair_product", sums[1] * sums[2], _qa(14, 2, -4, 59)),
        ("sidelobe_limit_ratio", k_div(sums[0], alpha0), _qa(2, 21, 3, 118)),
        ("sidelobe_radicand", k_div(4 * sums[1] * sums[2], alpha1 * alpha2),
         _qa(-16, 6, 6, 59)),
        ("damping_ratio_sq", k_div(alpha1 * alpha2, alpha0**2), _C),
        ("root_product", reduce_poly({(1, 1, 1): 1}), 4),
        ("conjugate_pair_swap_v0", e[(1, 0)].conj_swapped(), e[(2, 0)]),
        ("conjugate_pair_swap_v1", e[(1, 1)].conj_swapped(), e[(2, 1)]),
    )
    out = [_eq_verdict(name, lhs, as_kelem(rhs)) for name, lhs, rhs in identities]
    # Bracket checks on the damping ratio and the base decimal expansion.
    lo = Fraction(935994, 10**6) ** 2
    hi = Fraction(935995, 10**6) ** 2
    alpha_bracket = decimal_approx(alpha_pow(1), 12)
    return out + [
        _verdict("damping_bracket_lo", QAlphaElem(lo), _C, "<"),
        _verdict("damping_bracket_hi", _C, QAlphaElem(hi), "<"),
        _eq_verdict(
            "alpha_decimal_12", alpha_bracket.lo, "1.658967081916", {"hi": alpha_bracket.hi}
        ),
    ]
