import argparse
import hashlib
import io
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import assert_outcome

from grs import tables
from grs.cli import build_parser, main, run
from grs.correlation import crosscorr
from grs.field import QAlphaElem, decimal_approx
from grs.qcomplex import int_text
from grs.sequences import (
    Sequence,
    grs_pair,
    read_sequence,
    validate_seed,
    write_seed_pair,
    write_sequence,
)


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    parser = build_parser()
    ns = parser.parse_args(args + ["--output", str(out)])
    code = run(ns)
    return code, out.read_text()


def test_gen_unit_seed(tmp_path):
    code, text = run_cli(["gen", "--rs", "--n", "0"], tmp_path)
    assert code == 0
    assert text == "len=1 kind=binary\n+\n"


def test_gen_members(tmp_path):
    code, text = run_cli(["gen", "--rs", "--n", "2", "--member", "y"], tmp_path)
    assert code == 0 and text.splitlines()[1] == "++-+"


@pytest.mark.parametrize("name", ["seed_pm4", "seed_rational", "seed_complex"])
def test_gen_writes_the_member_of_the_pair(tmp_path, request, name):
    # gen builds only the member it writes, and writes the bytes of that
    # member of the whole level-n pair: at level 0, the seed's own.
    seed = request.getfixturevalue(name)
    with open(tmp_path / "seed.txt", "w") as fp:
        write_seed_pair(seed, fp)
    for n in (0, 1, 2, 3, 9):
        pair = grs_pair(seed, n)
        for member in ("x", "y"):
            expected = io.StringIO()
            write_sequence(getattr(pair, member), expected)
            code, text = run_cli(["gen", "--seed", str(tmp_path / "seed.txt"), "--n", str(n),
                                  "--member", member], tmp_path)
            assert code == 0 and text == expected.getvalue(), (n, member)


def test_gen_roundtrips_into_corr(tmp_path):
    run_cli(["gen", "--rs", "--n", "3"], tmp_path, "x.seq")
    run_cli(["gen", "--rs", "--n", "3", "--member", "y"], tmp_path, "y.seq")
    code, text = run_cli(
        ["corr", "--f", str(tmp_path / "x.seq"), "--g", str(tmp_path / "y.seq"),
         "--shift", "-3"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["re_num"] == "-5" and payload["im_num"] == "0"


def test_corr_prints_the_spectrum_row(tmp_path, capsys, seed_complex_rational):
    # Every shift's line is its row of `spectrum --format json`, or, where the
    # spectrum has no row, the same row with a zero value.
    seed_path = tmp_path / "seed.txt"
    with open(seed_path, "w") as fp:
        write_seed_pair(seed_complex_rational, fp)
    for member in ("x", "y"):
        run_cli(["gen", "--seed", str(seed_path), "--n", "3", "--member", member], tmp_path,
                f"{member}.seq")
    files = ["--f", str(tmp_path / "x.seq"), "--g", str(tmp_path / "y.seq")]
    _, text = run_cli(["spectrum", *files], tmp_path)
    rows = {row["shift"]: row for row in json.loads(text)}
    assert len(rows) > 20
    for s in range(-32, 33):
        zero = {"shift": str(s), "re_num": "0", "re_den": "1", "im_num": "0", "im_den": "1"}
        with pytest.raises(SystemExit) as exc:
            main(["corr", *files, "--shift", str(s)])
        assert exc.value.code == 0
        assert capsys.readouterr().out == json.dumps(rows.get(str(s), zero), sort_keys=True) + "\n"


def test_spectrum_formats(tmp_path):
    run_cli(["gen", "--rs", "--n", "2"], tmp_path, "x.seq")
    run_cli(["gen", "--rs", "--n", "2", "--member", "y"], tmp_path, "y.seq")
    code, csv_text = run_cli(
        ["spectrum", "--f", str(tmp_path / "x.seq"), "--g", str(tmp_path / "y.seq"),
         "--format", "csv"],
        tmp_path,
    )
    assert code == 0
    assert csv_text.splitlines()[0] == "shift,re_num,re_den,im_num,im_den"
    assert "1,3,1,0,1" in csv_text
    code, json_text = run_cli(
        ["spectrum", "--f", str(tmp_path / "x.seq"), "--g", str(tmp_path / "y.seq")],
        tmp_path,
    )
    rows = json.loads(json_text)
    assert {r["shift"]: r["re_num"] for r in rows} == {
        "-3": "1", "-1": "1", "1": "3", "3": "-1"
    }


def test_peaks_json(tmp_path):
    code, text = run_cli(["peaks", "--rs", "--n", "13", "--psl"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["pcc"] == "557"
    assert payload["witnesses"] == [{"shift": "-2867", "value": "-557"}]
    # The derived sidelobe report describes level n+1 = 14.
    assert payload["psl_next"]["n"] == 14
    assert payload["psl_next"]["witnesses"] == [{"shift": "11059", "value": "-557"}]


def test_tables_published_rows(tmp_path):
    code, text = run_cli(["tables", "--which", "3", "--max", "13"], tmp_path)
    assert code == 0
    assert text.splitlines()[-1] == "13,-2867,-557"
    code, text = run_cli(["tables", "--which", "2", "--max", "3"], tmp_path)
    assert "3,-2,-3,-2,2,0" in text.splitlines()
    code, text = run_cli(["tables", "--which", "1", "--max", "4"], tmp_path)
    assert "4,-11,5" in text.splitlines()
    code, text = run_cli(["tables", "--which", "4", "--max", "4"], tmp_path)
    assert text.splitlines()[-1] == "4,11,-5"


def test_tables_past_int_text_limit(monkeypatch, capsys):
    # A witness shift with more digits than str(int) writes by default, in a
    # table at its rows function's default size.
    shift = -(10**5000 + 1)
    monkeypatch.setitem(tables._TABLES, 3, ("n,s,C", lambda n_max=26: [(n_max, shift, 7)]))
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--which", "3"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["n,s,C", f"26,{int_text(shift)},7"]
    assert int(Decimal(lines[1].split(",")[1])) == shift


TABLES_EDGES = {
    "unknown table": (lambda: tables.table_csv(5),
                      ValueError("table selector must be 1, 2, 3, or 4")),
    "default size": (lambda: tables.table_csv(2) == tables.table_csv(2, 10), True),
}


@pytest.mark.parametrize("case", TABLES_EDGES)
def test_tables_edge_inputs(case):
    assert_outcome(*TABLES_EDGES[case])


def test_tables_deterministic(tmp_path):
    _, first = run_cli(["tables", "--which", "3", "--max", "10"], tmp_path, "a.csv")
    _, second = run_cli(["tables", "--which", "3", "--max", "10"], tmp_path, "b.csv")
    assert first == second


def test_verify_suites_exit_zero(tmp_path):
    for suite, extra in (
        ("inequalities", []),
        ("identities", []),
        ("rs", ["--max", "8"]),
        ("generic", ["--max", "6"]),
    ):
        code, text = run_cli(["verify", "--suite", suite] + extra, tmp_path)
        assert code == 0, suite
        payload = json.loads(text)
        assert payload and all(v["holds"] for v in payload)


def test_verify_generic_with_seed_file(tmp_path, seed_pm2):
    from grs.sequences import write_seed_pair

    seed_file = tmp_path / "seed.txt"
    with open(seed_file, "w") as fp:
        write_seed_pair(seed_pm2, fp)
    code, text = run_cli(
        ["verify", "--suite", "generic", "--max", "5", "--seed", str(seed_file)],
        tmp_path,
    )
    assert code == 0
    assert all(v["holds"] for v in json.loads(text))


def test_approx(tmp_path):
    code, text = run_cli(["approx", "--expr", "0/1 1/1 0/1", "--digits", "6"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert (payload["lo"], payload["hi"]) == ("1.658967", "1.658968")


def test_gen_and_spectrum_past_int_text_limit(tmp_path):
    # Seed values and spectrum entries with more digits than str(int) and
    # int(str) accept by default; the rows are read back through Decimal.
    big = 10**5000
    seed = validate_seed(Sequence([big]), Sequence([-big]), 1)
    with open(tmp_path / "seed.txt", "w") as fp:
        write_seed_pair(seed, fp)
    for member in ("x", "y"):
        code, _ = run_cli(["gen", "--seed", str(tmp_path / "seed.txt"), "--n", "3",
                           "--member", member], tmp_path, f"{member}.seq")
        assert code == 0
    with open(tmp_path / "x.seq") as fp:
        f = read_sequence(fp)
    with open(tmp_path / "y.seq") as fp:
        g = read_sequence(fp)
    expected = {s: crosscorr(f, g, s) for s in range(-7, 8)}
    expected = {s: v for s, v in expected.items() if v}
    assert max(map(abs, expected.values())) > 10**10000
    files = ["--f", str(tmp_path / "x.seq"), "--g", str(tmp_path / "y.seq")]
    code, csv_text = run_cli(["spectrum", *files, "--format", "csv"], tmp_path)
    assert code == 0
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    assert all(row[2:] == ["1", "0", "1"] for row in rows)
    assert {int(row[0]): int(Decimal(row[1])) for row in rows} == expected
    code, json_text = run_cli(["spectrum", *files, "--format", "json"], tmp_path)
    assert code == 0
    assert {
        int(row["shift"]): int(Decimal(row["re_num"])) for row in json.loads(json_text)
    } == expected
    code, text = run_cli(["corr", *files, "--shift", "-1"], tmp_path)
    assert code == 0 and int(Decimal(json.loads(text)["re_num"])) == expected[-1]


def test_peaks_and_verify_past_int_text_limit(tmp_path):
    # Peaks and verdict sides with more digits than str(int) writes by
    # default: the level-2 peak of this seed is 5 a^2, with 4401 digits.
    a = 10**2200
    seed = validate_seed(Sequence([a, a]), Sequence([a, -a]), 2)
    path = str(tmp_path / "big.seed")
    with open(path, "w") as fp:
        write_seed_pair(seed, fp)
    code, text = run_cli(["peaks", "--seed", path, "--n", "2", "--psl"], tmp_path)
    payload = json.loads(text)
    assert code == 0 and payload["pcc"] == int_text(5 * a**2)
    assert payload["psl_next"]["psl"] == payload["pcc"]
    code, text = run_cli(["verify", "--suite", "generic", "--seed", path, "--max", "2"],
                         tmp_path)
    verdicts = json.loads(text)
    assert code == 0 and verdicts and all(v["holds"] for v in verdicts)


def test_approx_past_int_text_limit(tmp_path):
    num = 3 * 10**4399 + 1  # 4400 digits
    expr = f"{int_text(num)}/7 -1/2 0/1"
    code, text = run_cli(["approx", "--expr", expr, "--digits", "8"], tmp_path)
    interval = decimal_approx(QAlphaElem(Fraction(num, 7), Fraction(-1, 2)), 8)
    assert code == 0 and json.loads(text) == {
        "digits": 8, "expr": expr, "hi": interval.hi, "lo": interval.lo}


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "grs.cli", "tables", "--which", "9"],
        capture_output=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "text",
    [
        # x0 = y0 = ++ is not a Golay pair.
        "ell0=2\nlen=2 kind=binary\n++\nlen=2 kind=binary\n++\n",
        # The first sequence header lacks its length.
        "ell0=2\nkind=binary\n++\nlen=2 kind=binary\n+-\n",
        # A malformed value in an integer rational file.
        "ell0=2\nlen=2 kind=rational\n1/1 0/1\n1x/1 0/1\nlen=2 kind=binary\n+-\n",
    ],
)
def test_bad_seed_file_exit_code(tmp_path, capsys, text):
    # An input error, not a failed verdict: exit 2 with a one-line message.
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["peaks", "--seed", str(seed_file), "--n", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_huge_seed_length_meets_the_scan_budget(tmp_path, capsys):
    # The seed check stops at the members' degrees, so the declared ell0
    # reaches the scan, whose budget refuses it as an input error.
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text("ell0=1000000000000\nlen=2 kind=binary\n++\nlen=2 kind=binary\n+-\n")
    with pytest.raises(SystemExit) as exc:
        main(["peaks", "--seed", str(seed_file), "--n", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: scan needs 18000000000000 entries, budget is 2147483648\n"
    )


def test_budget_message_past_int_text_limit(tmp_path, capsys):
    # A declared ell0 of 5001 digits: the refusal writes the count in full.
    ell0 = 10**5000 + 7
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(f"ell0={int_text(ell0)}\nlen=2 kind=binary\n++\nlen=2 kind=binary\n+-\n")
    with pytest.raises(SystemExit) as exc:
        main(["peaks", "--seed", str(seed_file), "--n", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: scan needs {int_text(9 * ell0)} entries, budget is 2147483648\n"
    )


def test_scan_budget_refusal_is_an_input_error(monkeypatch, capsys):
    # The t = 1 split of level 30 would hold 9 * 2^29 entries; it is
    # refused before any level is built.
    from grs import fastscan

    def no_level(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(fastscan, "_levels", no_level)
    with pytest.raises(SystemExit) as exc:
        main(["peaks", "--rs", "--n", "30", "--t-split", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: scan needs 4831838208 entries, budget is 2147483648\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("len=-1 kind=rational\n", "error: declared length len=-1 is negative\n"),
        ("len=3 kind=rational\n1/1 0/1\n", "error: rational sequence of len=3: row 2 is missing\n"),
    ],
    ids=["negative", "missing-row"],
)
def test_bad_declared_length_exit_code(tmp_path, capsys, text, message):
    seq_file = tmp_path / "f.txt"
    seq_file.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["corr", "--f", str(seq_file), "--g", str(seq_file), "--shift", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("ell0=abc\nlen=2 kind=binary\n++\nlen=2 kind=binary\n+-\n",
         "error: seed file field 'ell0=abc' is not an integer\n"),
        ("ell0=2\nlen=abc kind=binary\n++\nlen=2 kind=binary\n+-\n",
         "error: sequence header field 'len=abc' is not an integer\n"),
    ],
    ids=["ell0", "len"],
)
def test_malformed_header_integer_is_named(tmp_path, capsys, text, message):
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["peaks", "--seed", str(seed_file), "--n", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("row", ["1/0 0/1", "1/2 -1/00"])
def test_zero_denominator_exit_code(tmp_path, capsys, row):
    # Fraction("1/0") raises ZeroDivisionError, which is not an input error
    # to the CLI unless the reader turns it into one.
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(
        f"ell0=2\nlen=2 kind=rational\n1/1 0/1\n{row}\nlen=2 kind=binary\n+-\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["peaks", "--seed", str(seed_file), "--n", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator") and err.count("\n") == 1


def test_approx_zero_denominator_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["approx", "--expr", "1/0 0 0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator") and err.count("\n") == 1


@pytest.mark.parametrize(
    "config, message",
    [
        (argparse.Namespace(command="nope"), "unknown command 'nope'"),
        (argparse.Namespace(command="verify", suite="nope"), "unknown suite 'nope'"),
    ],
)
def test_unknown_command_or_suite_exit_code(capsys, config, message):
    # An input error, not a failed verdict: exit 2, not 1.
    with pytest.raises(SystemExit) as exc:
        run(config)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["tables", "--which", "3", "--t-split", "2"],
        ["tables", "--which", "3", "--budget", "1"],
        ["corr", "--f", "f.seq", "--g", "g.seq", "--shift", "0", "--budget", "1"],
        ["verify", "--suite", "identities", "--budget", "1"],
        ["approx", "--expr", "0 1 0", "--budget", "1"],
        ["verify", "--suite", "rs", "--max", "5", "--seed", "missing.seed"],
        ["verify", "--suite", "rs", "--rs"],
        ["verify", "--suite", "inequalities", "--rs"],
        ["verify", "--suite", "inequalities", "--seed", "missing.seed"],
        ["verify", "--suite", "inequalities", "--max", "3"],
        ["verify", "--suite", "identities", "--max", "-7"],
        ["verify", "--suite", "identities", "--seed", "missing.seed"],
        ["verify", "--suite", "identities", "--rs"],
    ],
)
def test_options_without_effect_are_rejected(capsys, args):
    # --budget is taken only where a budget applies: gen, spectrum, peaks;
    # --seed and --rs by the generic suite only, --max by rs and generic.
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error: ") == 1


@pytest.mark.parametrize("command", ["peaks", "gen"])
def test_missing_seed_is_an_input_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: a seed is required: pass --rs or --seed FILE\n"


@pytest.mark.parametrize(
    "args", [["peaks", "--n", "3"], ["gen", "--n", "3"], ["verify", "--suite", "generic"]]
)
def test_rs_with_seed_is_an_input_error(tmp_path, capsys, seed_pm4, args):
    # Each command reads one seed; it refuses two rather than drop one.
    seed_file = tmp_path / "pm4.seed"
    with open(seed_file, "w") as fp:
        write_seed_pair(seed_pm4, fp)
    with pytest.raises(SystemExit) as exc:
        main([*args, "--rs", "--seed", str(seed_file)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: pass --rs or --seed FILE, not both\n")


# sha256 of the stdout of ``grs verify``: every claim id, its order, witness,
# relation and exact sides are in these bytes.
SUITE_DIGESTS = [
    pytest.param(["--suite", "rs", "--max", "42"],
                 "dbdfb96a79b3bef9775189ba4d2673cda1460f69c078db05969918333be73878", id="rs-42"),
    pytest.param(["--suite", "generic"],
                 "6f6a0527aa791702dd688ffab8d82613d2b4188c8ec69d06c5a2604e04e5f1c7", id="generic"),
    pytest.param(["--suite", "generic", "--rs", "--max", "14"],
                 "e72a0c38e625b1073a34388137ef3af056bc281f049b2c77bd29d3be33cc0564",
                 id="generic-rs-14"),
    pytest.param(["--suite", "inequalities"],
                 "7508e076bedd512e5deb08b51b2139e41c3537717824fc317f2b53ef40ed91ec",
                 id="inequalities"),
    pytest.param(["--suite", "identities"],
                 "5ebcbf2c643db21b0278c9981980400399065f4caa9e22eef62e75c4bb740553",
                 id="identities"),
]


@pytest.mark.parametrize("args, digest", SUITE_DIGESTS)
def test_verify_suite_bytes_are_pinned(capsys, args, digest):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *args])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


S = argparse.SUPPRESS
# Every subcommand, its help, and each of its actions as (option strings,
# dest, default, required, choices, nargs, type name).
PARSER_TABLE = {
    "gen": ("write one sequence of a generated pair", [
        (("-h", "--help"), "help", S, False, None, 0, None),
        (("--rs",), "rs", False, False, None, 0, None),
        (("--seed",), "seed_path", None, False, None, None, None),
        (("--n",), "n", None, True, None, None, "int"),
        (("--member",), "member", "x", False, ("x", "y"), None, None),
        (("--output", "-o"), "output", None, False, None, None, None),
        (("--budget",), "budget", None, False, None, None, "int"),
    ]),
    "corr": ("one exact crosscorrelation value", [
        (("-h", "--help"), "help", S, False, None, 0, None),
        (("--f",), "f_path", None, True, None, None, None),
        (("--g",), "g_path", None, True, None, None, None),
        (("--shift",), "shift", None, True, None, None, "int"),
        (("--output", "-o"), "output", None, False, None, None, None),
    ]),
    "spectrum": ("full exact crosscorrelation spectrum", [
        (("-h", "--help"), "help", S, False, None, 0, None),
        (("--f",), "f_path", None, True, None, None, None),
        (("--g",), "g_path", None, True, None, None, None),
        (("--format",), "format", "json", False, ("json", "csv"), None, None),
        (("--output", "-o"), "output", None, False, None, None, None),
        (("--budget",), "budget", None, False, None, None, "int"),
    ]),
    "peaks": ("streaming peak crosscorrelation scan", [
        (("-h", "--help"), "help", S, False, None, 0, None),
        (("--rs",), "rs", False, False, None, 0, None),
        (("--seed",), "seed_path", None, False, None, None, None),
        (("--n",), "n", None, True, None, None, "int"),
        (("--t-split",), "t_split", None, False, None, None, "int"),
        (("--psl",), "with_psl", False, False, None, 0, None),
        (("--output", "-o"), "output", None, False, None, None, None),
        (("--budget",), "budget", None, False, None, None, "int"),
    ]),
    "tables": ("regenerate a reference table as CSV", [
        (("-h", "--help"), "help", S, False, None, 0, None),
        (("--which",), "which", None, True, (1, 2, 3, 4), None, "int"),
        (("--max",), "n_max", None, False, None, None, "int"),
        (("--output", "-o"), "output", None, False, None, None, None),
    ]),
    "verify": ("run an exact verification suite", [
        (("-h", "--help"), "help", S, False, None, 0, None),
        (("--suite",), "suite", None, True,
         ("rs", "generic", "inequalities", "identities"), None, None),
        (("--max",), "n_max", None, False, None, None, "int"),
        (("--rs",), "rs", False, False, None, 0, None),
        (("--seed",), "seed_path", None, False, None, None, None),
        (("--output", "-o"), "output", None, False, None, None, None),
    ]),
    "approx": ("decimal bracket of p + q*a + r*a^2", [
        (("-h", "--help"), "help", S, False, None, 0, None),
        (("--expr",), "expr", None, True, None, None, None),
        (("--digits",), "digits", 6, False, None, None, "int"),
        (("--output", "-o"), "output", None, False, None, None, None),
    ]),
}


def test_parser_is_pinned():
    # The parser as data, not as --help text, which argparse wraps by
    # terminal width and words differently across Python versions.
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    table = {
        name: (helps[name], [
            (tuple(a.option_strings), a.dest, a.default, a.required, a.choices,
             a.nargs, getattr(a.type, "__name__", None))
            for a in p._actions
        ])
        for name, p in sub.choices.items()
    }
    assert list(table) == list(PARSER_TABLE)
    assert table == PARSER_TABLE


# sha256 of the stdout of ``grs tables --which N`` at its default size.
TABLE_DIGESTS = {
    1: "ed8ce6cc6a47f40465906e09320c42159f37891f3dd78c99b9cfe77fa9cd8318",
    2: "149c523f3ff5d6c55cb4982b2f8284247c384c9b4f1036428a91bb1e499797ae",
    3: "81445dc43bd7eb54a98b367d3868840c82e5b7c38dc9154ee95a7b49bbfc5a79",
    4: "e69283acf4bef82ff89f3f45c557fa12b327134a4a456acd0be487c90f7262e3",
}


def test_table_bytes_are_pinned(capsys):
    digests = {}
    for which in TABLE_DIGESTS:
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--which", str(which)])
        assert exc.value.code == 0
        digests[which] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == TABLE_DIGESTS


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "rs", "--max", "-1"],
        ["verify", "--suite", "generic", "--max", "-3"],
        ["tables", "--which", "3", "--max", "-1"],
        ["tables", "--which", "1", "--max", "-5"],
    ],
)
def test_negative_max_is_an_input_error(capsys, args):
    # A verification over no levels would otherwise print [] and pass.
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: --max must be nonnegative\n")


@pytest.mark.parametrize("n", [0, 1, 2])
def test_invalid_split_is_an_input_error_at_low_levels(capsys, n):
    for t in (-1, 0, n, 9):
        with pytest.raises(SystemExit) as exc:
            main(["peaks", "--rs", "--n", str(n), "--t-split", str(t)])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"error: need 0 < t < n, got t={t}, n={n}\n")


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "grs.cli", "peaks", "--rs", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pcc"] == "13"
