"""Run every demo in process and compare the deterministic ones to their
recorded output."""

import re
import runpy
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# Recorded stdout; the wall time printed by 02 is masked.
EXPECTED = {
    "02_peak_scan": """\
C_20(-349525) = 19041

  n        peak   witness shifts
  0           1   0:1
  1           1   -1:-1, 1:1
  2           3   1:3
  3           5   -3:-5
  4           7   3:7
  5          13   -11:-13
  6          19   13:19
  7          33   -45:-33
  8          53   -107:53
  9          85   -179:-85
 10         153   -341:153
 11         217   -717:-217
 12         373   -1451:373
 13         557   -2867:-557
 14         961   -5453:961
 15        1717   -10923:-1717
 16        2445   -22955:2445
 17        4285   -43691:-4285
 18        6257   -91733:6257
 19       11153   -174765:-11153
 20       19041   -349525:19041
levels 0..20 in <wall>s

sidelobe peak of level 17: 2445 at ((88491, 2445),)
t= 5: C_16(-22955) = 2445
t= 8: C_16(-22955) = 2445
t=12: C_16(-22955) = 2445
""",
    "03_exact_field": """\
m(alpha) = (0) + (0)*a + (0)*a^2
signifier(alpha - 2)   = -4
signifier(alpha^2 - 2) = 4
alpha vs 1.658967: 1
alpha vs 1.658968: -1
alpha  to 12 digits: [1.658967081916, 1.658967081917]
5/alpha^4 to 6 digits: [0.660113, 0.660114]

alpha1 * alpha2          = -2/1 0/1 1/1 0/1 1/1 0/1
alpha0*alpha1*alpha2     = 4/1 0/1 0/1 0/1 0/1 0/1
|alpha1/alpha0|^2        = (-1/2) + (0)*a + (1/2)*a^2
which brackets to         [0.876085, 0.876086]

min poly of alpha^2: X^3 + (-5)X^2 + (12)X + (-16)
""",
    "04_shift_orbits": """\
s0=    0: enters at m=0; first terms [0, -1, -1, -3, -5]
s0=    5: enters at m=4; first terms [5, -6, 4, -8, 0]
s0=   -1: enters at m=1; first terms [-1, 0, -2, -2, -6]
s0= 1000: enters at m=10; first terms [1000, -1001, 999, -1003, 995, -1011, 979, -1043, 915, -1171, 659]

standard orbit terms: [0, -1, -1, -3, -5, -11, -21, -43, -85, -171, -341]

  n   shift   closed form   direct
  0       0            1   1
  1      -1           -1   -1
  2      -1            1   1
  3      -3           -5   -5
  4      -5            1   1
  5     -11          -13   -13
  6     -21            9   9
  7     -43          -21   -21
  8     -85           49   49
  9    -171          -29   -29
 10    -341          153   153

orbit recursion checks: 26/26 hold
""",
}


def _run(name: str) -> str:
    out = StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    text = _run(name)
    assert text
    if name in EXPECTED:
        text = re.sub(r"(?m)^(levels 0\.\.20 in )\d+\.\d+s$", r"\1<wall>s", text)
        assert text == EXPECTED[name]


def test_every_demo_is_run():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == [
        "01_pairs_and_spectra",
        "02_peak_scan",
        "03_exact_field",
        "04_shift_orbits",
        "05_verify_bounds",
    ]
