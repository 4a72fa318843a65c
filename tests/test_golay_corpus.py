"""Every ordered binary Golay pair of length 2, 4, 8 and 10 as a corpus
for the peak scan.

The generator enumerates the +/-1 sequences of one length and pairs each
with every mate whose aperiodic autocorrelation vector is its negation.
Like the correlation oracle, it does not use ``grs.fastscan``, whose scan
it checks.
"""

from functools import cache
from itertools import product
from math import factorial

import pytest
from test_fastscan import _reference_block_peak

from grs import correlation, fastscan
from grs.fastscan import abgd, streaming_peaks
from grs.sequences import Sequence, grs_pair, validate_seed

LENGTHS = (2, 4, 8, 10)


def _autocorrelations(signs: tuple[int, ...]) -> tuple[int, ...]:
    """C(s) = sum_j a_j a_{j+s} for s = 1 .. len - 1."""
    return tuple(sum(a * b for a, b in zip(signs, signs[s:])) for s in range(1, len(signs)))


@cache
def golay_pairs(length: int) -> tuple[tuple[str, str], ...]:
    """Every ordered pair (x, y) of +/-1 sign strings of this length whose
    aperiodic autocorrelations cancel at every nonzero shift."""
    by_vector = {}
    for signs in product((1, -1), repeat=length):
        text = "".join("+" if v > 0 else "-" for v in signs)
        by_vector.setdefault(_autocorrelations(signs), []).append(text)
    return tuple(
        (x, y)
        for vector, xs in by_vector.items()
        for y in by_vector.get(tuple(-c for c in vector), ())
        for x in xs
    )


@cache
def corpus_seeds() -> tuple:
    """Every pair of every length in LENGTHS, through ``validate_seed``."""
    return tuple(
        validate_seed(Sequence.binary(x), Sequence.binary(y), length)
        for length in LENGTHS
        for x, y in golay_pairs(length)
    )


def test_ordered_pair_counts():
    assert [len(golay_pairs(length)) for length in LENGTHS] == [8, 32, 192, 128]
    assert len(corpus_seeds()) == 360


def test_every_pair_hashes_apart():
    # The per-seed peak store is a dict keyed by the pair, so equal hashes
    # would turn its lookups into chains of equality tests.
    assert len({hash(seed) for seed in corpus_seeds()}) == 360


@pytest.mark.parametrize("length, m", [(4, 2), (8, 3)])
def test_member_counts_match_davis_jedwab(length, m):
    # The Golay sequences of length 2^m number m!/2 * 2^(m+1).
    members = {member for pair in golay_pairs(length) for member in pair}
    assert len(members) == factorial(m) // 2 * 2 ** (m + 1)


def test_scan_equals_the_oracle_on_every_pair():
    for seed in corpus_seeds():
        for n in range(7):
            pair = grs_pair(seed, n)
            value, shifts = correlation.pcc(pair.x, pair.y)
            witnesses = tuple((s, correlation.crosscorr(pair.x, pair.y, s)) for s in shifts)
            report, _ = streaming_peaks(seed, n)
            assert (report.value, report.witnesses) == (value, witnesses), (seed, n)


def test_scan_equals_the_unpruned_reference_on_every_pair():
    # One level per pair, n = 2..6 in turn: the pruned search equals every
    # block of its leaf depth evaluated without pruning.
    for i, seed in enumerate(corpus_seeds()):
        n = 2 + i % 5
        reference = _reference_block_peak(abgd(n - 1), *fastscan._levels(seed, 1))
        assert fastscan._tree_peak(seed, n) == reference, (seed, n)
