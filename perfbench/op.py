"""One benchmark process: either the set-up of a workload's inputs, or one
``grs`` CLI invocation.

    python3 perfbench/op.py setup WORKDIR SEED [NAME...]
    python3 perfbench/op.py cli [--spans FILE] [--probe-rs N FILE] -- GRS_ARGS...

``cli`` runs ``grs.cli.main`` on GRS_ARGS exactly as the ``grs`` script
does and exits with its code.  ``--spans`` traces the run (see tracing.py)
and writes the spans and their summary to FILE.  ``--probe-rs`` asks the
public ``streaming_peaks`` for the unit seed's level-N report after the CLI
has finished, and writes it with the time the probe took to FILE, so the
correctness gate can check the witness shift that the verdict report
omits; run.py subtracts that time from the operation's wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _setup(workdir: Path, seed: int, names: list[str]) -> None:
    import grs  # noqa: F401  (the import is part of the measured set-up)
    from grs.sequences import write_seed_pair

    import corpus

    workdir.mkdir(parents=True, exist_ok=True)
    for name, variant in corpus.pick_variants(seed, names).items():
        with open(workdir / f"{name}.seed", "w") as fp:
            write_seed_pair(corpus.variant_seed(name, variant), fp)


def _cli(grs_args: list[str], spans: str | None, probe: tuple | None) -> int:
    from grs import cli
    from grs.fastscan import streaming_peaks  # unwrapped: the probe is not traced
    from grs.sequences import rudin_shapiro_seed

    tracer = None
    if spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        cli.main(grs_args)
        code = 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    if probe:
        start = time.perf_counter()
        report = streaming_peaks(rudin_shapiro_seed(), int(probe[0]))[0]
        probe_s = time.perf_counter() - start
        with open(probe[1], "w") as fp:
            json.dump({"value": str(report.value), "probe_s": probe_s,
                       "witnesses": [[str(s), str(v)] for s, v in report.witnesses]}, fp)
    if tracer is not None:
        with open(spans, "w") as fp:
            json.dump({"spans": tracer.spans, **tracer.summary()}, fp)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workdir", type=Path)
    p.add_argument("seed", type=int)
    p.add_argument("names", nargs="*", help="seeds whose files to write")
    p = sub.add_parser("cli")
    p.add_argument("--spans")
    p.add_argument("--probe-rs", nargs=2, metavar=("N", "FILE"))
    p.add_argument("grs_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "setup":
        _setup(args.workdir, args.seed, args.names)
        return 0
    grs_args = args.grs_args[1:] if args.grs_args[:1] == ["--"] else args.grs_args
    return _cli(grs_args, args.spans, args.probe_rs)


if __name__ == "__main__":
    sys.exit(main())
