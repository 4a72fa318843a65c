import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Child interpreters (``python -m grs.cli``) import grs from src as well, so
# the suite runs from a checkout without an installed package.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parent.parent / "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])]
)

from grs.qcomplex import CQ
from grs.sequences import Sequence, rudin_shapiro_seed, validate_seed


@pytest.fixture(scope="session")
def rs_seed():
    return rudin_shapiro_seed()


@pytest.fixture(scope="session")
def seed_pm2():
    return validate_seed(Sequence.binary("++"), Sequence.binary("+-"), 2)


@pytest.fixture(scope="session")
def seed_pm4():
    return validate_seed(Sequence.binary("+++-"), Sequence.binary("++-+"), 4)


@pytest.fixture(scope="session")
def corpus(rs_seed, seed_pm2, seed_pm4):
    """The three binary seeds the whole suite exercises."""
    return [rs_seed, seed_pm2, seed_pm4]


# Seeds outside the corpus: they widen the scan tests without changing the
# tests that take ``corpus``.


@pytest.fixture(scope="session")
def seed_golay10():
    """The length-10 binary Golay pair: non-power-of-two block sizes."""
    return validate_seed(Sequence.binary("++-+-+--++"), Sequence.binary("++-+++++--"), 10)


@pytest.fixture(scope="session")
def seed_padded3():
    """The length-2 pair declared with ell0 = 3 (one trailing zero each)."""
    return validate_seed(Sequence.binary("++"), Sequence.binary("+-"), 3)


@pytest.fixture(scope="session")
def seed_rational():
    """(1/2, 1/2) and (1/2, -1/2): a rational seed, scanned with cleared
    denominators."""
    half = Fraction(1, 2)
    return validate_seed(Sequence([half, half]), Sequence([half, -half]), 2)


@pytest.fixture(scope="session")
def seed_complex():
    """(1, i) and (1, -i): a complex seed, scanned on Gaussian-integer
    levels held as re and im arrays."""
    return validate_seed(Sequence([1, CQ(0, 1)]), Sequence([1, CQ(0, -1)]), 2)


@pytest.fixture(scope="session")
def seed_complex_rational():
    """(1/2, i/3) and (1/2, -i/3): a complex seed whose real and imaginary
    parts have different denominators, scanned with both cleared."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    return validate_seed(
        Sequence([half, CQ(0, third)]), Sequence([half, CQ(0, -third)]), 2
    )
