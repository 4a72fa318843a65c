"""Spans and counters around the public entry points of each grs module.

The package is not changed: ``install`` replaces module attributes (and two
``Spectrum`` methods) with wrappers, in every ``grs`` module that imported
the name.  Each wrapper records a span (name, start, end, parent) in memory
and adds to named counters; ``summary`` derives self times from the spans.

Span names are the per-layer metric names without their ``_s`` suffix.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from math import lcm


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def summary(self) -> dict:
        """Self time per span name: each span's duration minus the time its
        direct children cover.  ``cli_total_s`` is the inclusive time of the
        top-level CLI spans."""
        self_s: dict[str, float] = {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        cli_total = 0.0
        for (name, start, end, parent), children in zip(self.spans, child_s):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - children
            if parent < 0 and name == "cli.self":
                cli_total += end - start
        return {"self_s": self_s, "counts": dict(self.counts), "cli_total_s": cli_total}


def _replace(orig, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "grs" or mod_name.startswith("grs."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def _scan_seed(seed):
    """The seed whose levels ``streaming_peaks`` builds: rational seeds are
    scanned with denominators cleared, as the scan itself does."""
    from grs.sequences import SeedPair, Sequence

    if seed.is_int or not seed.is_rational:
        return seed
    coeffs = [seq.cq_coeffs() for seq in (seed.x0, seed.y0)]
    d = lcm(*(c.re.denominator for cs in coeffs for c in cs))
    x, y = (Sequence([c.re * d for c in cs], len(cs)) for cs in coeffs)
    return SeedPair(x, y, seed.ell0)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of cli, sequences, convolve, correlation,
    fastscan, field and bounds."""
    from grs import bounds, cli, convolve, correlation, fastscan, field, sequences

    add = tracer.add
    wrap = tracer.wrap

    def file_io(name, fn, fp_arg):
        """Count the bytes that ``fn`` moves through its file argument."""
        traced = wrap(name, fn)

        def wrapper(*args, **kwargs):
            fp = args[fp_arg]
            before = fp.tell()
            result = traced(*args, **kwargs)
            add("sequences.bytes", fp.tell() - before)
            return result

        return functools.wraps(fn)(wrapper)

    _replace(cli.run, wrap("cli.self", cli.run))
    _replace(
        sequences.grs_pair,
        wrap("sequences.grs_pair", sequences.grs_pair,
             lambda pair, a, k: add("sequences.coeffs", pair.x.length + pair.y.length)),
    )
    _replace(sequences.write_sequence, file_io("sequences.write", sequences.write_sequence, 1))
    _replace(sequences.read_sequence, file_io("sequences.read", sequences.read_sequence, 0))

    def after_convolve(out, args, kwargs):
        add("convolve.calls")
        add("convolve.out_coeffs", len(out))

    _replace(convolve.convolve_int,
             wrap("convolve.convolve_int", convolve.convolve_int, after_convolve))
    _replace(
        correlation.spectrum,
        wrap("correlation.spectrum", correlation.spectrum,
             lambda spec, a, k: add("correlation.entries", len(spec.entries))),
    )
    spectrum_cls = correlation.Spectrum
    spectrum_cls.to_csv = wrap("correlation.export", spectrum_cls.to_csv)
    spectrum_cls.to_json = wrap("correlation.export", spectrum_cls.to_json)

    scan = fastscan.streaming_peaks
    seen: set = set()

    def streaming_peaks(seed, n, t_split=None, *args, **kwargs):
        add("fastscan.calls")
        key = (seed, n, t_split)
        first = key not in seen
        if not first:
            add("fastscan.cache_hits")
        seen.add(key)
        if first and n > 2 and t_split is None:
            # Build the two cached level spectra before the scan, so that
            # the scan span holds only the shift sweep and peak reduction.
            with tracer.span("fastscan.level_build"):
                fastscan.coeff_by_iteration(_scan_seed(seed), n, max(1, n // 2), 1)
        with tracer.span("fastscan.streaming_peaks"):
            result = scan(seed, n, t_split, *args, **kwargs)
        if first:
            if n > 2:
                ell = seed.ell0 << n
                step = 2 if seed.is_rudin_shapiro else 1
                add("fastscan.shifts", len(range(-(ell - 1), ell, step)))
            add("fastscan.witnesses", len(result[0].witnesses))
        return result

    _replace(scan, functools.wraps(scan)(streaming_peaks))
    _replace(
        field.compare,
        wrap("field.compare", field.compare, lambda r, a, k: add("field.compare_calls")),
    )

    def after_verify(verdicts, args, kwargs):
        add("bounds.verdicts", len(verdicts))
        add("bounds.verdicts_failed", sum(not v.holds for v in verdicts))

    for fn in (bounds.verify_rs_bounds, bounds.verify_rs_lower_bounds,
               bounds.verify_generic_bound):
        _replace(fn, wrap("bounds.self", fn, after_verify))
