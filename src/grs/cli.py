"""Command-line interface.

Subcommands: gen (write sequences), corr (one oracle value), spectrum
(full oracle spectrum), peaks (streaming peak scan), tables (reference
CSV tables), verify (exact bound verdicts), approx (decimal bracket of a
field element).  All big integers are serialized as decimal strings, and
identical configurations produce byte-identical output.

Exit codes: 0 success, 1 at least one verification verdict failed,
2 usage or input error (bad arguments, unreadable or invalid files,
budget caps).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass, replace
from typing import NoReturn

from . import bounds, correlation, tables
from .fastscan import streaming_peaks
from .field import QAlphaElem, decimal_approx
from .sequences import (
    SeedPair,
    grs_pair,
    int_text,
    read_seed_pair,
    read_sequence,
    rudin_shapiro_seed,
    write_sequence,
)

__all__ = ["RunConfig", "run", "main", "build_parser"]

_CORPUS_SPECS = (
    ("unit", "+", "+", 1),
    ("pm2", "++", "+-", 2),
    ("pm4", "+++-", "++-+", 4),
)


@dataclass
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    n: int | None = None
    n_max: int | None = None
    seed_path: str | None = None
    rs: bool = False
    member: str = "x"
    t_split: int | None = None
    output: str | None = None
    format: str = "json"
    budget: int | None = None
    which: int | None = None
    suite: str | None = None
    digits: int = 6
    expr: str | None = None
    shift: int | None = None
    with_psl: bool = False
    f_path: str | None = None
    g_path: str | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grs",
        description="Golay pair construction, exact correlation, and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed_opts(p):
        p.add_argument("--rs", action="store_true", help="use the unit seed (length 1)")
        p.add_argument("--seed", dest="seed_path", help="seed pair file")

    def add_output(p):
        p.add_argument("--output", "-o", help="output path (default: stdout)")

    def add_budget(p):
        p.add_argument("--budget", type=int, help="coefficient budget override")

    p = sub.add_parser("gen", help="write one sequence of a generated pair")
    add_seed_opts(p)
    p.add_argument("--n", type=int, required=True, help="recursion level")
    p.add_argument("--member", choices=("x", "y"), default="x")
    add_output(p)
    add_budget(p)

    p = sub.add_parser("corr", help="one exact crosscorrelation value")
    p.add_argument("--f", dest="f_path", required=True, help="sequence file")
    p.add_argument("--g", dest="g_path", required=True, help="sequence file")
    p.add_argument("--shift", type=int, required=True)
    add_output(p)

    p = sub.add_parser("spectrum", help="full exact crosscorrelation spectrum")
    p.add_argument("--f", dest="f_path", required=True)
    p.add_argument("--g", dest="g_path", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_output(p)
    add_budget(p)

    p = sub.add_parser("peaks", help="streaming peak crosscorrelation scan")
    add_seed_opts(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-split", dest="t_split", type=int)
    p.add_argument("--psl", dest="with_psl", action="store_true",
                   help="include the derived level n+1 sidelobe report")
    add_output(p)
    add_budget(p)

    p = sub.add_parser("tables", help="regenerate a reference table as CSV")
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--max", dest="n_max", type=int, help="largest level / step count")
    add_output(p)

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument(
        "--suite", choices=("rs", "generic", "inequalities", "identities"), required=True
    )
    p.add_argument("--max", dest="n_max", type=int)
    add_seed_opts(p)
    add_output(p)

    p = sub.add_parser("approx", help="decimal bracket of p + q*a + r*a^2")
    p.add_argument("--expr", required=True,
                   help="'p_num/p_den q_num/q_den r_num/r_den'")
    p.add_argument("--digits", type=int, default=6)
    add_output(p)

    return parser


def _load_seed(config: RunConfig) -> SeedPair:
    if config.seed_path:
        with open(config.seed_path) as fp:
            return read_seed_pair(fp)
    if config.rs:
        return rudin_shapiro_seed()
    print("a seed is required: pass --rs or --seed FILE", file=sys.stderr)
    raise SystemExit(2)


def _input_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _emit(config: RunConfig, text: str) -> None:
    if config.output and config.output != "-":
        with open(config.output, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _corpus_seeds() -> list[tuple[str, SeedPair]]:
    from .sequences import Sequence, validate_seed

    return [
        (name, validate_seed(Sequence.binary(x), Sequence.binary(y), ell0))
        for name, x, y, ell0 in _CORPUS_SPECS
    ]


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit code."""
    if config.command == "gen":
        seed = _load_seed(config)
        pair = grs_pair(seed, config.n, budget=config.budget)
        seq = pair.x if config.member == "x" else pair.y
        buf = io.StringIO()
        write_sequence(seq, buf)
        _emit(config, buf.getvalue())
        return 0

    if config.command == "corr":
        with open(config.f_path) as fp:
            f = read_sequence(fp)
        with open(config.g_path) as fp:
            g = read_sequence(fp)
        value = correlation.crosscorr(f, g, config.shift)
        from .qcomplex import value_re_im

        re, im = value_re_im(value)
        _emit(
            config,
            json.dumps(
                {
                    "shift": str(config.shift),
                    "re_num": int_text(re.numerator),
                    "re_den": int_text(re.denominator),
                    "im_num": int_text(im.numerator),
                    "im_den": int_text(im.denominator),
                },
                sort_keys=True,
            )
            + "\n",
        )
        return 0

    if config.command == "spectrum":
        with open(config.f_path) as fp:
            f = read_sequence(fp)
        with open(config.g_path) as fp:
            g = read_sequence(fp)
        spec = correlation.spectrum(f, g, budget=config.budget)
        text = spec.to_csv() if config.format == "csv" else spec.to_json() + "\n"
        _emit(config, text)
        return 0

    if config.command == "peaks":
        seed = _load_seed(config)
        pcc_rep, psl_rep = streaming_peaks(
            seed, config.n, t_split=config.t_split, budget=config.budget
        )
        payload = pcc_rep.as_json_dict("pcc")
        if config.with_psl:
            payload["psl_next"] = psl_rep.as_json_dict("psl")
        _emit(config, json.dumps(payload, sort_keys=True) + "\n")
        return 0

    if config.command == "tables":
        _emit(config, tables.table_csv(config.which, config.n_max))
        return 0

    if config.command == "verify":
        verdicts = _run_suite(config)
        payload = [v.as_json_dict() for v in verdicts]
        _emit(config, json.dumps(payload, sort_keys=True) + "\n")
        return 0 if all(v.holds for v in verdicts) else 1

    if config.command == "approx":
        interval = decimal_approx(QAlphaElem.from_text(config.expr), config.digits)
        _emit(
            config,
            json.dumps(
                {"digits": config.digits, "expr": config.expr,
                 "hi": interval.hi, "lo": interval.lo},
                sort_keys=True,
            )
            + "\n",
        )
        return 0

    _input_error(f"unknown command {config.command!r}")


def _run_suite(config: RunConfig):
    if config.suite == "rs":
        n_max = 26 if config.n_max is None else config.n_max
        return bounds.verify_rs_bounds(n_max) + bounds.verify_rs_lower_bounds(n_max)
    if config.suite == "generic":
        n_max = 12 if config.n_max is None else config.n_max
        if config.seed_path or config.rs:
            seeds = [("seed", _load_seed(config))]
        else:
            seeds = _corpus_seeds()
        return [
            replace(v, claim_id=f"{name}_{v.claim_id}")
            for name, seed in seeds
            for v in bounds.verify_generic_bound(seed, n_max)
        ]
    if config.suite == "inequalities":
        return bounds.inequality_suite()
    if config.suite == "identities":
        return bounds.identity_suite()
    _input_error(f"unknown suite {config.suite!r}")


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(**vars(args))
    try:
        sys.exit(run(config))
    except (ValueError, RuntimeError, OSError) as err:
        # Predictable failures (budget caps, bad seed files, bad shifts)
        # get a one-line message instead of a traceback, and the usage
        # error code, so that exit 1 always means a failed verdict.
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
