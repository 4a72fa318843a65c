"""Seeds of the benchmark and their Golay-preserving variants.

A variant applies any subset of four maps to a seed pair (x, y), each of
which keeps the pair Golay complementary, its length and its numeric kind
(binary, rational or complex), so the work of a scan stays the same while
the values change:

    bit 0  negate x                  x -> -x
    bit 1  reverse both              x_j -> x_{l-1-j}, same for y
    bit 2  alternate both signs      x_j -> (-1)^j x_j, same for y
    bit 3  swap                      (x, y) -> (y, x)

The benchmark's ``--seed`` picks one variant per seed; the unit seed has
no variants, because it defines the ``rs-verify`` workload.
"""

from __future__ import annotations

import random
from fractions import Fraction

from grs.qcomplex import CQ
from grs.sequences import SeedPair, Sequence, validate_seed

VARIANTS = 16

_HALF = Fraction(1, 2)

# name -> (x0, y0, ell0).  "pm4" feeds the oracle pipeline; the other three
# are the generic-bound corpus: the complex seed runs the scalar CQ scan, the
# length-10 Golay pair the non-power-of-two kernel branch, and the rational
# seed the scale-and-rescale path.
BASE_SEEDS = {
    "pm4": ("+++-", "++-+", 4),
    "cx": ((1, CQ(0, 1)), (1, CQ(0, -1)), 2),
    "golay10": ("++-+-+--++", "++-+++++--", 10),
    "half": ((_HALF, _HALF), (_HALF, -_HALF), 2),
}


def _values(spec) -> list:
    if isinstance(spec, str):
        return list(Sequence.binary(spec).coeffs)
    return list(spec)


def variant_seed(name: str, variant: int) -> SeedPair:
    """The seed ``name`` under the maps selected by the bits of ``variant``,
    re-validated as a Golay seed."""
    x_spec, y_spec, ell0 = BASE_SEEDS[name]
    x, y = _values(x_spec), _values(y_spec)
    if variant & 1:
        x = [-v for v in x]
    if variant & 2:
        x, y = x[::-1], y[::-1]
    if variant & 4:
        x = [v if j % 2 == 0 else -v for j, v in enumerate(x)]
        y = [v if j % 2 == 0 else -v for j, v in enumerate(y)]
    if variant & 8:
        x, y = y, x
    return validate_seed(Sequence(x), Sequence(y), ell0)


def pick_variants(seed: int, names) -> dict[str, int]:
    """One variant per seed name, drawn from the workload seed; each name's
    draw does not depend on which other names are asked for."""
    return {name: random.Random(f"{seed}/{name}").randrange(VARIANTS) for name in names}
