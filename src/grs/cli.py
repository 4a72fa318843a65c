"""Command-line interface.

Subcommands: gen (write sequences), corr (one oracle value), spectrum
(full oracle spectrum), peaks (streaming peak scan), tables (reference
CSV tables), verify (exact bound verdicts), approx (decimal bracket of a
field element).  All big integers are serialized as decimal strings, and
identical configurations produce byte-identical output.

Exit codes: 0 success, 1 at least one verification verdict failed,
2 usage or input error (bad arguments, unreadable or invalid files,
a negative --max, an option the chosen verify suite ignores, --rs
with --seed, budget caps).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import NoReturn

from .sequences import (
    SeedPair,
    Sequence,
    grs_member,
    read_seed_pair,
    read_sequence,
    rudin_shapiro_seed,
    validate_seed,
    write_sequence,
)

__all__ = ["run", "main", "build_parser"]

_CORPUS_SPECS = (
    ("unit", "+", "+", 1),
    ("pm2", "++", "+-", 2),
    ("pm4", "+++-", "++-+", 4),
)


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


def _load_seed(args: argparse.Namespace) -> SeedPair:
    if args.rs and args.seed_path:
        _input_error("pass --rs or --seed FILE, not both")
    if args.seed_path:
        with open(args.seed_path) as fp:
            return read_seed_pair(fp)
    if args.rs:
        return rudin_shapiro_seed()
    _input_error("a seed is required: pass --rs or --seed FILE")


def _input_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _n_max(args: argparse.Namespace, default: int | None) -> int | None:
    """``--max``, or ``default`` when it is not given."""
    if args.n_max is None:
        return default
    if args.n_max < 0:
        _input_error("--max must be nonnegative")
    return args.n_max


def _refuse(args: argparse.Namespace, *options: str) -> None:
    """An input error if one of ``options``, which the suite ignores, is
    given."""
    given = {"--max": args.n_max is not None, "--seed": args.seed_path is not None,
             "--rs": args.rs}
    for option in options:
        if given[option]:
            _input_error(f"--suite {args.suite} takes no {option}")


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload) -> None:
    _emit(args, json.dumps(payload, sort_keys=True) + "\n")


def _corpus_seeds() -> list[tuple[str, SeedPair]]:
    return [
        (name, validate_seed(Sequence.binary(x), Sequence.binary(y), ell0))
        for name, x, y, ell0 in _CORPUS_SPECS
    ]


def _read_pair(args: argparse.Namespace) -> tuple[Sequence, Sequence]:
    """The sequences in the ``--f`` and ``--g`` files."""
    with open(args.f_path) as fp:
        f = read_sequence(fp)
    with open(args.g_path) as fp:
        return f, read_sequence(fp)


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    if args.command == "gen":
        seq = grs_member(_load_seed(args), args.n, args.member, budget=args.budget)
        buf = io.StringIO()
        write_sequence(seq, buf)
        _emit(args, buf.getvalue())
        return 0

    if args.command == "corr":
        from . import correlation
        f, g = _read_pair(args)
        value = correlation.crosscorr(f, g, args.shift)
        _emit(args, correlation.json_row(args.shift, value) + "\n")
        return 0

    if args.command == "spectrum":
        from . import correlation
        f, g = _read_pair(args)
        spec = correlation.spectrum(f, g, budget=args.budget)
        text = spec.to_csv() if args.format == "csv" else spec.to_json() + "\n"
        _emit(args, text)
        return 0

    if args.command == "peaks":
        from .fastscan import streaming_peaks
        seed = _load_seed(args)
        pcc_rep, psl_rep = streaming_peaks(
            seed, args.n, t_split=args.t_split, budget=args.budget
        )
        payload = pcc_rep.as_json_dict("pcc")
        if args.with_psl:
            payload["psl_next"] = psl_rep.as_json_dict("psl")
        _emit_json(args, payload)
        return 0

    if args.command == "tables":
        from . import tables
        _emit(args, tables.table_csv(args.which, _n_max(args, None)))
        return 0

    if args.command == "verify":
        verdicts = _run_suite(args)
        _emit_json(args, [v.as_json_dict() for v in verdicts])
        return 0 if all(v.holds for v in verdicts) else 1

    if args.command == "approx":
        from .field import QAlphaElem, decimal_approx
        interval = decimal_approx(QAlphaElem.from_text(args.expr), args.digits)
        _emit_json(args, {"digits": args.digits, "expr": args.expr,
                          "hi": interval.hi, "lo": interval.lo})
        return 0

    _input_error(f"unknown command {args.command!r}")


def _run_suite(args: argparse.Namespace):
    from dataclasses import replace
    from . import bounds

    if args.suite == "rs":
        _refuse(args, "--seed", "--rs")
        n_max = _n_max(args, 26)
        return bounds.verify_rs_bounds(n_max) + bounds.verify_rs_lower_bounds(n_max)
    if args.suite == "generic":
        n_max = _n_max(args, 12)
        if args.seed_path or args.rs:
            seeds = [("seed", _load_seed(args))]
        else:
            seeds = _corpus_seeds()
        return [
            replace(v, claim_id=f"{name}_{v.claim_id}")
            for name, seed in seeds
            for v in bounds.verify_generic_bound(seed, n_max)
        ]
    if args.suite == "inequalities":
        _refuse(args, "--max", "--seed", "--rs")
        return bounds.inequality_suite()
    if args.suite == "identities":
        _refuse(args, "--max", "--seed", "--rs")
        return bounds.identity_suite()
    _input_error(f"unknown suite {args.suite!r}")


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        sys.exit(run(args))
    except (ValueError, RuntimeError, OSError) as err:
        # Predictable failures (budget caps, bad seed files, bad shifts)
        # get a one-line message instead of a traceback, and the usage
        # error code, so that exit 1 always means a failed verdict.
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
