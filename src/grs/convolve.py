"""Exact integer polynomial multiplication.

The correlation oracle needs products of integer polynomials with tens of
thousands of terms, computed exactly.  Small products use the schoolbook
loop.  Larger ones pack each polynomial into one big Python integer
(fixed-width digits) and let big-integer multiplication do the work; the
digits of the product are the convolution.  Negative coefficients are
handled by offsetting both inputs to be nonnegative and subtracting the
three correction terms, which are plain window sums.  Everything stays in
integer arithmetic, so results are exact at any size: the packing and the
window sums run on int64 arrays when an exact bound shows that no value
can leave int64, and on object arrays of Python ints otherwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["convolve_int", "schoolbook_convolve"]

_SCHOOLBOOK_CUTOFF = 1 << 12  # len(a) * len(b) at or below this: direct loops


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


INT64_MAX = 2**63 - 1


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or an object array (Python ints) when
    one leaves int64.  Int64 and object arrays pass through unchanged."""
    if isinstance(values, np.ndarray):
        if values.dtype in (np.int64, object):
            return values
        values = values.tolist()
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _pack(vals: np.ndarray, nbytes: int) -> int:
    """Nonnegative ``vals`` as little-endian digits of ``nbytes`` bytes."""
    if vals.dtype == np.int64:
        # Each value is below 256**nbytes, so the dropped high bytes are zero.
        digits = vals.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :nbytes]
        return int.from_bytes(digits.tobytes(), "little")
    buf = bytearray(len(vals) * nbytes)
    for i, v in enumerate(vals.tolist()):
        buf[i * nbytes : (i + 1) * nbytes] = v.to_bytes(nbytes, "little")
    return int.from_bytes(bytes(buf), "little")


def _unpack(num: int, nbytes: int, count: int, dtype) -> np.ndarray:
    raw = num.to_bytes(nbytes * count, "little")
    if dtype == np.int64:
        # The caller's bound keeps every digit below 2**62: at most 8 bytes.
        wide = np.zeros((count, 8), dtype=np.uint8)
        wide[:, :nbytes] = np.frombuffer(raw, dtype=np.uint8).reshape(count, nbytes)
        return wide.view("<u8").ravel().astype(np.int64)
    return np.array(
        [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(count)],
        dtype=object,
    )


def _window_sums(vals: np.ndarray, width: int) -> np.ndarray:
    """Convolution of ``vals`` with a run of ``width`` ones, from prefix
    sums in the dtype of ``vals``."""
    n = len(vals)
    prefix = np.concatenate((np.zeros(1, dtype=vals.dtype), np.cumsum(vals)))
    k = np.arange(n + width - 1)
    return prefix[np.minimum(k + 1, n)] - prefix[np.maximum(0, k - width + 1)]


def convolve_int(a, b) -> list[int]:
    """Exact convolution (polynomial product coefficients) of integer
    sequences: lists of ints, or int64 or object arrays."""
    a = int_array(a)
    b = int_array(b)
    if not a.size or not b.size:
        return []
    if a.size * b.size <= _SCHOOLBOOK_CUTOFF:
        return schoolbook_convolve(a.tolist(), b.tolist())

    out_len = a.size + b.size - 1
    ma = max(0, -int(a.min()))
    mb = max(0, -int(b.min()))
    max_ap = int(a.max()) + ma
    max_bp = int(b.max()) + mb
    if max_ap == 0 or max_bp == 0:
        return [0] * out_len

    # The digits and the three corrections below are each at most
    # min(len) * (max_ap + ma) * (max_bp + mb) in magnitude, so this bound
    # caps every digit, prefix sum and partial sum; past int64 the
    # arithmetic uses Python ints.
    exact64 = (a.size + b.size) * (max_ap + ma) * (max_bp + mb) <= INT64_MAX
    dtype = np.int64 if exact64 else object
    ap = a.astype(dtype) + ma
    bp = b.astype(dtype) + mb
    digit_bound = min(a.size, b.size) * max_ap * max_bp
    nbytes = (digit_bound.bit_length() + 8) // 8
    out = _unpack(_pack(ap, nbytes) * _pack(bp, nbytes), nbytes, out_len, dtype)

    # conv(a+ma, b+mb) = conv(a,b) + mb*conv(a,1) + ma*conv(1,b) + ma*mb*conv(1,1)
    if mb:
        out = out - mb * _window_sums(ap, b.size)
    if ma:
        out = out - ma * _window_sums(bp, a.size)
    if ma and mb:
        out = out + ma * mb * _window_sums(np.ones(a.size, dtype=dtype), b.size)
    return out.tolist()
