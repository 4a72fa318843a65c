"""Benchmark of the ``grs`` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--smoke]
    python3 perfbench/run.py --record-references

Each operation of a workload is one or more ``grs`` CLI invocations, each
in a fresh interpreter (perfbench/op.py), so every operation starts with
cold caches the way each ``grs`` invocation does.  The loop is closed with
one client: an operation starts when the previous one has ended, as long
as it is expected to end within ``--seconds``; at least one runs.  Operation processes run
single-threaded (BLAS/OpenMP thread counts pinned to 1).

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(interpreter start, ``import grs``, seed files written; the median of two
set-ups before each operation, and of at least five), the wall time of an
operation (the sum of its CLI invocations' median wall times), its peak
RSS, and the share of operations that pass the correctness gate.  With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (see tracing.py) together with the
tracing overhead.  Every operation is checked; the last line of standard
output is one JSON object with the result.

``--all`` runs every workload both ways, prints every metric with its
unit, checks the metric names against BENCHMARK.json and writes the
results to .perfbench-out/summary.json.  ``--smoke`` shrinks every
workload to small levels, so ``--all --smoke --seconds 1`` exercises every
workload, metric and gate in a few seconds.  ``--record-references``
records the CSV digests of the oracle pipeline for every seed variant in
perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP = HERE / "op.py"
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPEATS = 5  # at least this many set-ups in an untraced run
SETUPS_PER_OP = 2
RUN_LIMIT_S = 170.0  # a run, set-up included, ends before this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Span names (tracing.py) whose self time is reported as "<span>_s".
SPANS = (
    "sequences.grs_pair", "sequences.write", "sequences.read",
    "convolve.convolve_int",
    "correlation.spectrum", "correlation.export",
    "fastscan.streaming_peaks", "fastscan.level_build",
    "field.compare",
    "bounds.self",
    "cli.self",
)
# Counters (tracing.py) and their units.
COUNTS = {
    "sequences.coeffs": "count", "sequences.bytes": "bytes",
    "convolve.calls": "count", "convolve.out_coeffs": "count",
    "correlation.entries": "count",
    "fastscan.calls": "count", "fastscan.cache_hits": "count",
    "fastscan.shifts": "count", "fastscan.witnesses": "count",
    "field.compare_calls": "count",
    "bounds.verdicts": "count", "bounds.verdicts_failed": "count",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPANS},
    **COUNTS,
    "fastscan.ns_per_shift": "ns",
    "cli.bytes_out": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.startup_s": "s",
    "trace.layer_share": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    key: str
    rs_max: int
    generic_max: dict  # seed name -> largest level
    pm4_n: int
    low_levels: int  # levels whose peaks are checked against the oracle


FULL = Sizes("full", 26, {"cx": 11, "golay10": 18, "half": 18}, 14, 6)
SMOKE = Sizes("smoke", 10, {"cx": 6, "golay10": 8, "half": 8}, 6, 4)

# Peak crosscorrelation of the unit seed with its one witness (shift,
# signed value), as in tests/golden.py TABLE3.
RS_PEAKS = {10: (153, [(-341, 153)]), 26: (342769, [(-22369613, 342769)])}


@dataclass(frozen=True)
class Workload:
    name: str
    seeds: tuple  # seed files the set-up writes
    description: str


# Run by --all and by --workload, but not listed in BENCHMARK.json: the
# run-to-run spread of its wall_s (quartile distance over median: 0.13, 0.20
# and 0.22 in three sets of ten 36- to 40-second runs, on a 2-vCPU machine
# whose speed swings by about 40% for seconds to minutes at a time) came too
# close to the largest bound the benchmark may set (0.25).
EXTRA_WORKLOADS = ("seed-verify",)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rs-verify", (),
            "grs verify --suite rs --max 26 on the unit seed: streaming_peaks for "
            "n = 0..26, each level requested twice, then the exact verdict tail in "
            "field/bounds. Where a faster scan shows and where cache caps would cost.",
        ),
        Workload(
            "seed-verify", ("cx", "golay10", "half"),
            "grs verify --suite generic over a seed corpus, one process per seed: the "
            "complex seed (1, i), (1, -i) to n = 11 on the scalar CQ scan, the length-10 "
            "Golay pair to n = 18 on the non-power-of-two kernel branch, and the "
            "rational seed (1/2, 1/2), (1/2, -1/2) to n = 18 through scale and rescale.",
        ),
        Workload(
            "oracle-pipeline", ("pm4",),
            "grs gen of x and of y for the +++-/++-+ seed at n = 14 (files of length "
            "65536), then grs spectrum --format csv of (x, y): sequences, convolve and "
            "correlation with no fastscan.",
        ),
    )
}


# ---------------------------------------------------------------------------
# Processes.

def _op_env() -> dict:
    env = dict(os.environ)
    env.pop("GRS_BUDGET_BYTES", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


@dataclass
class Proc:
    wall: float
    rss_mb: float
    code: int


def run_process(argv: list[str], stderr_path: Path, deadline: float) -> Proc:
    """Run ``argv`` to completion; wall time from spawn to exit and the
    peak RSS of that process alone.  Killed at ``deadline``."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=_op_env(), cwd=ROOT)
        fd = os.pidfd_open(proc.pid)
        try:
            if not select.select([fd], [], [], max(0.0, deadline - start))[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(fd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def setup(work: Path, workload: Workload, seed: int, deadline: float) -> float:
    argv = [sys.executable, str(OP), "setup", str(work), str(seed), *workload.seeds]
    proc = run_process(argv, work / "setup.err", deadline)
    if proc.code != 0:
        raise RuntimeError(f"set-up failed: {(work / 'setup.err').read_text()[-2000:]}")
    return proc.wall


# ---------------------------------------------------------------------------
# Operations and their correctness gate.

@dataclass
class Step:
    grs_args: list
    output: Path
    probe_rs: int | None = None


def steps(workload: Workload, work: Path, out: Path, sizes: Sizes) -> list[Step]:
    if workload.name == "rs-verify":
        res = out / "rs.json"
        return [Step(["verify", "--suite", "rs", "--max", str(sizes.rs_max), "-o", str(res)],
                     res, sizes.rs_max)]
    if workload.name == "seed-verify":
        return [
            Step(["verify", "--suite", "generic", "--seed", str(work / f"{name}.seed"),
                  "--max", str(sizes.generic_max[name]), "-o", str(out / f"{name}.json")],
                 out / f"{name}.json")
            for name in workload.seeds
        ]
    seed_file = str(work / "pm4.seed")
    x, y, csv = out / "x.seq", out / "y.seq", out / "xy.csv"
    return [
        Step(["gen", "--seed", seed_file, "--n", str(sizes.pm4_n), "--member", "x",
              "-o", str(x)], x),
        Step(["gen", "--seed", seed_file, "--n", str(sizes.pm4_n), "--member", "y",
              "-o", str(y)], y),
        Step(["spectrum", "--f", str(x), "--g", str(y), "--format", "csv", "-o", str(csv)],
             csv),
    ]


def _lhs_rational(verdict: dict) -> Fraction:
    return Fraction(verdict["lhs"].split()[0])


def _check_verdicts(path: Path, expected: int, problems: list) -> dict:
    verdicts = json.loads(path.read_text())
    if len(verdicts) != expected:
        problems.append(f"{path.name}: {len(verdicts)} verdicts, expected {expected}")
    failed = [v["claim_id"] for v in verdicts if not v["holds"]]
    if failed:
        problems.append(f"{path.name}: verdicts failed: {failed[:5]}")
    return {v["claim_id"]: v for v in verdicts}


class Gate:
    """Reference values for one run, computed in this process (untimed)
    from the brute-force oracle, the recorded digests and the golden peaks."""

    def __init__(self, seed: int, sizes: Sizes, record: bool = False):
        import corpus

        self.sizes = sizes
        self.record = record
        self.variants = corpus.pick_variants(seed, corpus.BASE_SEEDS)
        self._seeds = {name: corpus.variant_seed(name, v) for name, v in self.variants.items()}
        self._cache: dict = {}
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.digests = refs.get(sizes.key, {})

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def oracle_pcc(self, name: str, n: int) -> Fraction:
        from grs.correlation import pcc
        from grs.sequences import grs_pair

        def compute():
            pair = grs_pair(self._seeds[name], n)
            return Fraction(pcc(pair.x, pair.y)[0])

        return self._memo(("pcc", name, n), compute)

    def scan_peak(self, name: str, n: int):
        from grs.fastscan import streaming_peaks

        return self._memo(("scan", name, n), lambda: streaming_peaks(self._seeds[name], n)[0])

    def check(self, workload: Workload, out: Path, probe: Path | None) -> list[str]:
        problems: list[str] = []
        try:
            getattr(self, "_" + workload.name.replace("-", "_"))(out, probe, problems)
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems.append(f"unreadable output: {err!r}")
        return problems

    def _rs_verify(self, out: Path, probe: Path, problems: list) -> None:
        n = self.sizes.rs_max
        expected = 2 * (n + 1) + (min(n, 41) + 1) + min(n, 42) + n
        verdicts = _check_verdicts(out / "rs.json", expected, problems)
        value, witnesses = RS_PEAKS[n]
        if _lhs_rational(verdicts[f"rs_pcc_upper_n{n}"]) != value:
            problems.append(f"PCC_{n} is not {value}")
        report = json.loads(probe.read_text())
        seen = [(int(s), int(v)) for s, v in report["witnesses"]]
        if int(report["value"]) != value or seen != witnesses:
            problems.append(f"level-{n} peak report {report} differs from {witnesses}")

    def _seed_verify(self, out: Path, probe, problems: list) -> None:
        for name, n_max in self.sizes.generic_max.items():
            verdicts = _check_verdicts(out / f"{name}.json", 2 * n_max + 1, problems)
            for n in range(self.sizes.low_levels + 1):
                got = _lhs_rational(verdicts[f"seed_generic_pcc_upper_n{n}"])
                if got != self.oracle_pcc(name, n):
                    problems.append(f"{name} PCC_{n} = {got}, oracle says "
                                    f"{self.oracle_pcc(name, n)}")

    def _oracle_pipeline(self, out: Path, probe, problems: list) -> None:
        raw = (out / "xy.csv").read_bytes()
        best, witnesses = 0, []
        for line in raw.decode().splitlines()[1:]:
            shift, re_num, re_den, im_num, _ = line.split(",")
            if re_den != "1" or im_num != "0":
                problems.append(f"non-integer entry at shift {shift}")
                return
            v = int(re_num)
            if abs(v) > best:
                best, witnesses = abs(v), []
            if abs(v) == best:
                witnesses.append((int(shift), v))
        report = self.scan_peak("pm4", self.sizes.pm4_n)
        if best != report.value or witnesses != list(report.witnesses):
            problems.append(f"CSV peak {best} at {witnesses[:4]} differs from the scan's "
                            f"{report.value} at {list(report.witnesses)[:4]}")
        digest = hashlib.sha256(raw).hexdigest()
        if self.record:
            self.digests[str(self.variants["pm4"])] = digest
        elif digest != self.digests.get(str(self.variants["pm4"])):
            problems.append("CSV bytes differ from the recorded reference")


@dataclass
class Op:
    step_walls: list  # wall time of each CLI invocation, in order
    rss_mb: float
    problems: list
    traces: list = field(default_factory=list)
    bytes_out: int = 0

    @property
    def wall(self) -> float:
        return sum(self.step_walls)


def run_op(workload: Workload, work: Path, sizes: Sizes, gate: Gate, traced: bool,
           deadline: float) -> Op:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    walls, rss, problems, traces, bytes_out = [], 0.0, [], [], 0
    probe = out / "probe.json"
    for i, step in enumerate(steps(workload, work, out, sizes)):
        argv = [sys.executable, str(OP), "cli"]
        spans = out / f"spans{i}.json"
        if traced:
            argv += ["--spans", str(spans)]
        if step.probe_rs is not None:
            argv += ["--probe-rs", str(step.probe_rs), str(probe)]
        proc = run_process(argv + ["--", *step.grs_args], out / f"step{i}.err", deadline)
        walls.append(proc.wall)
        if step.probe_rs is not None and probe.exists():
            walls[-1] -= json.loads(probe.read_text())["probe_s"]
        rss = max(rss, proc.rss_mb)
        if proc.code != 0:
            err = (out / f"step{i}.err").read_text()[-500:]
            problems.append(f"{' '.join(step.grs_args[:3])} exited {proc.code}: {err}")
            continue
        if traced:
            traces.append(json.loads(spans.read_text()))
        bytes_out += step.output.stat().st_size
    if not problems:
        problems = gate.check(workload, out, probe)
    return Op(walls, rss, problems, traces, bytes_out)


# ---------------------------------------------------------------------------
# Metrics.

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def step_median_sum(ops: list[Op]) -> float:
    """The operation's wall time as the sum, over its CLI invocations, of
    each invocation's median over the run.  On a host whose speed drifts
    over minutes this varies less from run to run than the median of the
    whole operations (quartile distance over median of ten 58-second runs
    of oracle-pipeline, resampled from about 25 minutes of per-invocation
    times on a 2-vCPU Xeon: 0.07 against 0.10).  With one invocation per
    operation it is the median of the operations."""
    return sum(statistics.median(op.step_walls[i] for op in ops)
               for i in range(len(ops[0].step_walls)))


def layer_metrics(op: Op) -> dict:
    self_s = {name: 0.0 for name in SPANS}
    counts = {name: 0 for name in COUNTS}
    cli_total = 0.0
    for trace in op.traces:
        for name, value in trace["self_s"].items():
            self_s[name] += value
        for name, value in trace["counts"].items():
            counts[name] += value
        cli_total += trace["cli_total_s"]
    metrics = {f"{name}_s": value for name, value in self_s.items()}
    metrics.update(counts)
    scan_s, shifts = self_s["fastscan.streaming_peaks"], counts["fastscan.shifts"]
    metrics["fastscan.ns_per_shift"] = scan_s * 1e9 / shifts if shifts else 0.0
    metrics["cli.bytes_out"] = op.bytes_out
    metrics["trace.wall_s"] = op.wall
    metrics["trace.startup_s"] = op.wall - cli_total
    metrics["trace.layer_share"] = sum(self_s.values()) / op.wall
    return metrics


@dataclass
class RunResult:
    workload: str
    trace: bool
    ops: list
    metrics: dict
    details: dict

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)

    def as_json(self) -> dict:
        units = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": self.failed == 0,
            "attempted": len(self.ops),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, gate: Gate | None = None) -> RunResult:
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    gate = gate or Gate(seed, sizes)
    work = WORK_ROOT / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups: list[float] = []
        ops: list[Op] = []
        plain: list[Op] = []
        start = time.perf_counter()
        while True:
            # Set-ups before each operation spread their samples over the
            # same stretch of time as the operations'.
            for _ in range(SETUPS_PER_OP):
                setups.append(setup(work, workload, seed, deadline))
            if trace:
                plain.append(run_op(workload, work, sizes, gate, False, deadline))
            ops.append(run_op(workload, work, sizes, gate, trace, deadline))
            # Start another operation only if one more, at the mean pace so
            # far, still ends within the measured window (and the limit).
            now = time.perf_counter()
            pace = (now - start) / len(ops)
            if now + pace > min(start + seconds, begin + RUN_LIMIT_S / 2):
                break
        while not trace and len(setups) < SETUP_REPEATS:
            setups.append(setup(work, workload, seed, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    walls = [op.wall for op in ops]
    details = {"samples": len(ops), "wall_s_quartiles": quartiles(walls),
               "setup_s_samples": setups, "variants": gate.variants,
               "problems": [p for op in ops for p in op.problems][:10]}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": step_median_sum(ops),
            "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
            "ok_ratio": sum(1 for op in ops if not op.problems) / len(ops),
        }
        return RunResult(workload.name, False, ops, metrics, details)
    all_ops = plain + ops
    traced = [layer_metrics(op) for op in ops if op.traces]
    metrics = {name: statistics.median(m[name] for m in traced) if traced else 0.0
               for name in PER_LAYER if name != "trace.overhead_s"}
    untraced_wall = statistics.median(op.wall for op in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return RunResult(workload.name, True, all_ops, metrics, details)


# ---------------------------------------------------------------------------
# Reporting.

def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3_path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    l3 = l3_path.read_text().strip() if l3_path.exists() else "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "grs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "l3": l3,
            "python": platform.python_version(), "numpy": numpy.__version__}


def print_report(result: RunResult, seed: int, sizes: Sizes) -> None:
    d = result.details
    print(f"# workload {result.workload}  seed {seed}  sizes {sizes.key}  "
          f"trace {int(result.trace)}  variants {d['variants']}")
    q1, q2, q3 = d["wall_s_quartiles"]
    kind = "traced " if result.trace else ""
    print(f"#   {kind}operation wall  median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
          f"samples {d['samples']}  each {[round(op.wall, 3) for op in result.ops]}")
    units = PER_LAYER if result.trace else END_TO_END
    for name, value in result.metrics.items():
        print(f"#   {name:32s} {value:>16.6g} {units[name]}")
    fails = result.failed
    print(f"#   fail_ratio {fails}/{len(result.ops)}"
          + (f"  problems: {d['problems']}" if fails else ""))


def accounting(workload: str, layers: dict) -> str:
    """The share of a traced operation's wall time that the layers a
    workload targets account for.  Taken within the same operations, as a
    traced and an untraced operation can differ by more than the tracing
    overhead on a noisy machine."""
    if workload == "rs-verify":
        parts = ["fastscan.streaming_peaks_s", "fastscan.level_build_s"]
    elif workload == "oracle-pipeline":
        parts = [f"{name}_s" for name in SPANS
                 if name.split(".")[0] in ("sequences", "convolve", "correlation")]
    else:
        parts = [f"{name}_s" for name in SPANS if name.startswith("fastscan.")]
    share = sum(layers[p] for p in parts) / layers["trace.wall_s"]
    return (f"{share:.3f} of trace.wall_s is {' + '.join(parts)}; the rest is "
            f"trace.startup_s {layers['trace.startup_s']:.3f} s (interpreter start, "
            f"imports) and the other layers")


def run_all(seed: int, seconds: float, sizes: Sizes) -> int:
    env = environment()
    print(f"# env {json.dumps(env)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    bad = []
    if set(whys) != set(WORKLOADS) - set(EXTRA_WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from run.py")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            bad.append(f"BENCHMARK.json {key} differs from run.py")
    summary = {"env": env, "seed": seed, "seconds": seconds, "sizes": sizes.key,
               "workloads": {}}
    ok = not bad
    for workload in WORKLOADS.values():
        gate = Gate(seed, sizes)
        plain = run_workload(workload, seed, seconds, False, sizes, gate)
        traced = run_workload(workload, seed, seconds, True, sizes, gate)
        for result in (plain, traced):
            print_report(result, seed, sizes)
            ok = ok and result.failed == 0
        note = accounting(workload.name, traced.metrics)
        print(f"#   accounting: {note}")
        summary["workloads"][workload.name] = {
            "why": whys.get(workload.name, "not in BENCHMARK.json; see EXTRA_WORKLOADS"),
            "description": workload.description,
            "end_to_end": plain.as_json(), "per_layer": traced.as_json(),
            "wall_s_quartiles": plain.details["wall_s_quartiles"],
            "samples": plain.details["samples"], "accounting": note,
        }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    for problem in bad:
        print(f"# {problem}")
    print(json.dumps({"correct": ok, "summary": str(OUT_DIR / "summary.json")}))
    return 0 if ok else 1


def record_references() -> int:
    import corpus

    workload = WORKLOADS["oracle-pipeline"]
    refs = {}
    for sizes in (FULL, SMOKE):
        digests = {}
        for variant in range(corpus.VARIANTS):
            # Find a workload seed that draws this variant of the pm4 seed.
            seed = next(s for s in range(10_000)
                        if corpus.pick_variants(s, ["pm4"])["pm4"] == variant)
            gate = Gate(seed, sizes, record=True)
            result = run_workload(workload, seed, 0, False, sizes, gate)
            if result.failed:
                print(result.details["problems"], file=sys.stderr)
                return 1
            digests.update(gate.digests)
        refs[sizes.key] = dict(sorted(digests.items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small levels, for checks")
    parser.add_argument("--all", action="store_true", help="every workload, both ways")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    # Unwind on SIGTERM too, so the running operation is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "grs" / "__init__.py").is_file():
        print(f"no grs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sizes = SMOKE if args.smoke else FULL
    if args.record_references:
        return record_references()
    if args.all:
        return run_all(args.seed, args.seconds, sizes)
    if args.workload is None:
        parser.error("--workload, --all or --record-references is required")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), sizes)
    print(f"# env {json.dumps(environment())}")
    print_report(result, args.seed, sizes)
    print(json.dumps(result.as_json()))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
