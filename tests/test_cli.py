import hashlib
import json
import subprocess
import sys
from decimal import Decimal

import pytest

from grs.cli import RunConfig, build_parser, main, run
from grs.correlation import crosscorr
from grs.sequences import Sequence, read_sequence, validate_seed, write_seed_pair


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    parser = build_parser()
    ns = parser.parse_args(args + ["--output", str(out)])
    code = run(RunConfig(**vars(ns)))
    return code, out.read_text()


def test_gen_unit_seed(tmp_path):
    code, text = run_cli(["gen", "--rs", "--n", "0"], tmp_path)
    assert code == 0
    assert text == "len=1 kind=binary\n+\n"


def test_gen_members(tmp_path):
    code, text = run_cli(["gen", "--rs", "--n", "2", "--member", "y"], tmp_path)
    assert code == 0 and text.splitlines()[1] == "++-+"


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
        (RunConfig(command="nope"), "unknown command 'nope'"),
        (RunConfig(command="verify", suite="nope"), "unknown suite 'nope'"),
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
    ],
)
def test_options_without_effect_are_rejected(args):
    # --budget is taken only where a budget applies: gen, spectrum, peaks.
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["peaks", "gen"])
def test_missing_seed_is_an_input_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: a seed is required: pass --rs or --seed FILE\n"


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


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "grs.cli", "peaks", "--rs", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pcc"] == "13"
