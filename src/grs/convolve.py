"""Exact integer polynomial multiplication.

The correlation oracle needs products of integer polynomials with tens of
thousands of terms, computed exactly.  Every product takes one path, at
every size: write each polynomial as one decimal number, a fixed-width
group of k decimal digits per coefficient with the constant term lowest,
and multiply the two numbers with the stdlib ``decimal`` module.  Its
libmpdec backend multiplies large operands by an exact number-theoretic
transform (three prime moduli joined by the Chinese remainder theorem),
which is O(N log N) in integer arithmetic; the context traps ``Inexact``
and ``Rounded``, so a product that did not fit the precision raises
instead of rounding.  The k-digit groups of the product are the
convolution.  Negative coefficients are handled by offsetting both
inputs to be nonnegative and subtracting the two correction terms,
which are plain window sums.  Everything stays in integer arithmetic, so
results are exact at any size: the digit conversion and the window sums
run on int64 arrays when an exact bound shows that no value can leave
int64, and on object arrays of Python ints otherwise.

That rule has its one home here for every integer array of the package:
``int_array``, ``fitted``, ``scaled``, ``negated``, ``exact_sum``,
``abs2`` and ``lowest_terms`` work in int64 when no value can leave it.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded

from . import np
from .qcomplex import int_text, text_int

__all__ = ["convolve_int"]

INT64_MAX = 2**63 - 1


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or an object array (Python ints) when
    one leaves int64.  Int64 arrays pass through unchanged, and so do
    object arrays with a value past int64."""
    if isinstance(values, np.ndarray) and values.dtype not in (np.int64, object):
        values = values.tolist()
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def abs_max(arr: np.ndarray) -> int:
    """The largest |v| of an integer array as a Python int, exact at
    -2**63 where np.abs wraps; 0 when empty."""
    return max(-int(arr.min()), int(arr.max())) if arr.size else 0


def fitted(arr: np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` entries of ``arr``: a view, or a zero-padded copy."""
    if arr.size >= length:
        return arr[:length]
    return np.concatenate((arr, np.zeros(length - arr.size, dtype=arr.dtype)))


def scaled(arr: np.ndarray, k: int) -> np.ndarray:
    """arr * k, exactly: as Python ints when k or a product leaves int64."""
    if k == 1:
        return arr
    if arr.dtype == np.int64 and max(k, abs_max(arr) * k) > INT64_MAX:
        arr = arr.astype(object)
    return arr * k


def negated(arr: np.ndarray) -> np.ndarray:
    """-arr, exactly: -(-2**63) leaves int64, so such an array is negated
    as Python ints."""
    if arr.dtype == np.int64 and arr.size and arr.min() == -INT64_MAX - 1:
        arr = arr.astype(object)
    return -arr


def exact_sum(a, b):
    """a + b for two integer arrays, or two ints: in int64 when no sum can
    leave it, else in Python ints."""
    if isinstance(a, np.ndarray) and a.dtype == b.dtype == np.int64:
        if abs_max(a) + abs_max(b) <= INT64_MAX:
            return a + b
    return np.add(a, b, dtype=object)


def abs2(parts) -> np.ndarray:
    """re**2, or re**2 + im**2, of the integer arrays ``parts``, (re,) or
    (re, im): in int64 when no sum of squares can leave it."""
    if sum(abs_max(part) ** 2 for part in parts) > INT64_MAX:
        parts = [part.astype(object) for part in parts]
    return sum(part * part for part in parts)


def lowest_terms(num: np.ndarray, den):
    """Each num/den in lowest terms, (num // g, den // g) for g = gcd(num,
    den); ``den`` is an int (past int64: Python ints) or an array."""
    if isinstance(den, int) and den > INT64_MAX:
        num = num.astype(object)
    g = np.gcd(num, den)
    return num // g, den // g


# Exact at any size: a product that needed rounding would raise.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def _pack(vals: np.ndarray, k: int) -> Decimal:
    """Nonnegative ``vals``, each below 10**k, as one decimal number whose
    k-digit groups, from the lowest, are ``vals[0]``, ``vals[1]``, ..."""
    if vals.dtype == np.int64:
        # ASCII digits, last value in the first row, filled one column
        # (one decimal place) at a time.
        digits = np.empty((vals.size, k), dtype=np.uint8)
        rest = vals
        for col in range(k - 1, -1, -1):
            rest, digit = np.divmod(rest, 10)
            digits[::-1, col] = digit + 48
        return Decimal(digits.tobytes().decode("ascii"))
    return Decimal("".join(int_text(v).zfill(k) for v in reversed(vals.tolist())))


def _unpack(num: Decimal, k: int, count: int, dtype) -> np.ndarray:
    """The ``count`` k-digit groups of ``num``, lowest first."""
    # Zero top groups are missing from the string; the pad restores them.
    if dtype == np.int64:
        raw = str(num).rjust(count * k, "0").encode("ascii")
        digits = np.frombuffer(raw, dtype=np.uint8).reshape(count, k)[::-1] - 48
        del raw  # the digits are a copy: free the text before the output is built
        out = np.zeros(count, dtype=np.int64)
        for col in range(k):
            out *= 10
            out += digits[:, col]
        return out
    text = str(num).rjust(count * k, "0")
    return np.array(
        [text_int(text[i * k : (i + 1) * k]) for i in range(count - 1, -1, -1)],
        dtype=object,
    )


def _add_window_sums(out: np.ndarray, vals: np.ndarray, width: int, c: int) -> None:
    """out += c * (``vals`` convolved with a run of ``width`` ones), in
    place, from one prefix sum in the dtype of ``out``: entry k of the
    window sum is prefix(min(k, n - 1)) - prefix(k - width), with
    prefix(j) = vals[0] + ... + vals[j], and 0 for j < 0."""
    n = vals.size
    prefix = np.cumsum(vals, dtype=out.dtype)
    prefix *= c
    out[:n] += prefix
    out[n:] += prefix[-1]
    out[width:] -= prefix[:-1]


def convolve_int(a, b) -> np.ndarray:
    """Exact convolution (polynomial product coefficients) of integer
    sequences (lists of ints, or int64 or object arrays), as an int64
    array, or an object array of Python ints when a value leaves int64."""
    a = int_array(a)
    b = int_array(b)
    if not a.size or not b.size:
        return np.zeros(0, dtype=np.int64)

    out_len = a.size + b.size - 1
    ma = max(0, -int(a.min()))
    mb = max(0, -int(b.min()))
    max_ap = int(a.max()) + ma
    max_bp = int(b.max()) + mb

    # Each value ``out`` holds between the steps below (the digits,
    # conv(a+ma, b), conv(a, b)) is a sum of at most min(len) products, and
    # a prefix sum of a correction one of at most max(len), each product at
    # most (max_ap + ma) * (max_bp + mb) in magnitude.  A partial sum is
    # one value plus one prefix sum, so this bound caps them all; past
    # int64 the arithmetic uses Python ints.
    exact64 = (a.size + b.size) * (max_ap + ma) * (max_bp + mb) <= INT64_MAX
    dtype = np.int64 if exact64 else object
    ap = a.astype(dtype) + ma
    bp = b.astype(dtype) + mb
    digit_bound = min(a.size, b.size) * max_ap * max_bp
    k = Decimal(digit_bound).adjusted() + 1  # decimal digits: digit_bound < 10**k
    product = _EXACT.multiply(_pack(ap, k), _pack(bp, k))
    out = _unpack(product, k, out_len, dtype)

    # conv(a+ma, b+mb) = conv(a,b) + mb*conv(a+ma,1) + ma*conv(1,b)
    if mb:
        _add_window_sums(out, ap, b.size, -mb)
    if ma:
        _add_window_sums(out, b, a.size, -ma)
    return out
