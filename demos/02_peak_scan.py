"""Peak scans without materializing the sequences.

The coefficient-table recursion evaluates any crosscorrelation value of
the level-n pair from the spectra of two lower levels, n-t and n-t-1,
built for the call from levels 1 and 0 and not kept.  The peak scan
searches the tree of coefficient blocks best first, bounded by the peaks
of lower levels, so its memory does not grow with n.  Run:

    python3 demos/02_peak_scan.py
"""

import time

from grs import rudin_shapiro_seed, streaming_peaks
from grs.fastscan import coeff_by_iteration, psl_report

seed = rudin_shapiro_seed()

# A single coefficient at level 20 builds the spectra of levels 10 and 9.
value = coeff_by_iteration(seed, 20, 10, -349525)
print("C_20(-349525) =", value)

# Scan whole levels; witnesses carry the signed values.
print("\n  n        peak   witness shifts")
t0 = time.monotonic()
for n in range(0, 21):
    report, _ = streaming_peaks(seed, n)
    shifts = ", ".join(f"{s}:{v}" for s, v in report.witnesses)
    print(f" {n:2d}  {report.value:10d}   {shifts}")
print(f"levels 0..20 in {time.monotonic() - t0:.2f}s")

# Sidelobe peaks of level n+1 fall out of the same scan through the
# autocorrelation shift map.
rep = psl_report(seed, 17)
print("\nsidelobe peak of level 17:", rep.value, "at", rep.witnesses)

# The step count t picks the two levels a lookup reads; it does not
# change the value, here at the level-16 peak.
for t in (5, 8, 12):
    print(f"t={t:2d}: C_16(-22955) = {coeff_by_iteration(seed, 16, t, -22955)}")
