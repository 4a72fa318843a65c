"""Start-up and the package surface: ``import grs`` loads no numpy, the
public names import on first access, and ``python -O`` changes no output."""

import importlib
import json
import subprocess
import sys

import pytest

import grs

# Today's public names, by home module.
HOMES = {
    "bounds": ["BoundVerdict", "ShiftSeq", "e_constants", "entry_index", "generic_prefactor",
               "identity_suite", "inequality_suite", "lily_predict", "nestor_cecilia_check",
               "standard_shift", "verify_generic_bound", "verify_rs_bounds",
               "verify_rs_lower_bounds"],
    "correlation": ["Spectrum", "crosscorr", "demerit_auto", "demerit_cross", "pcc",
                    "periodic_corr", "psl", "spectrum"],
    "fastscan": ["AbgdTable", "PeakReport", "abgd", "coeff_by_geoff", "coeff_by_iteration",
                 "derrel_bound", "nellie_bound", "psl_report", "streaming_peaks"],
    "field": ["KElem", "QAlphaElem", "alpha_pow", "compare", "decimal_approx", "k_div",
              "min_poly_of", "reduce_poly", "signifier"],
    "qcomplex": ["CQ"],
    "sequences": ["BudgetExceeded", "GolayPair", "SeedPair", "Sequence", "grs_pair",
                  "grs_step", "read_sequence", "rudin_shapiro", "rudin_shapiro_seed",
                  "validate_seed", "write_sequence"],
}

# Run in a fresh interpreter: execute each step of argv[1] (a JSON list) in
# order and record whether numpy has been loaded after it.  A lazily bound
# numpy has no submodules (numpy._core among them) until its first use.
_STEPS_SCRIPT = """
import contextlib, io, json, sys

def cli(*args):
    from grs.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(list(args))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue()

report = []
for step in json.loads(sys.argv[1]):
    result = eval(step) if step.startswith("cli(") else exec(step)
    loaded = any(name.startswith("numpy.") for name in sys.modules)
    report.append([step, loaded, result])
print(json.dumps(report))
"""

PEAKS_20 = (
    '{"n": 20, "pcc": "19041", "psl_next": {"n": 21, "psl": "19041", "witnesses": '
    '[{"shift": "1398101", "value": "19041"}]}, "witnesses": '
    '[{"shift": "-349525", "value": "19041"}]}\n'
)


def _python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], capture_output=True, check=True, **kwargs)


def test_array_free_paths_load_no_numpy():
    steps = [
        "import grs",
        "import grs.sequences",
        "import grs.cli",
        "cli('verify', '--suite', 'identities')",
        "cli('verify', '--suite', 'inequalities')",
        "cli('approx', '--expr', '1 1 0')",
        "cli('peaks', '--rs', '--n', '20', '--psl')",
    ]
    report = json.loads(_python("-c", _STEPS_SCRIPT, json.dumps(steps)).stdout)
    assert [step for step, _, _ in report] == steps
    for step, loaded, _ in report[:-1]:
        assert not loaded, f"numpy loaded by {step}"
    *_, (_, loaded, (code, text)) = report
    assert loaded and code == 0 and text == PEAKS_20
    for _, _, result in report[3:-1]:
        assert result[0] == 0 and result[1].startswith(("[", "{"))


# Run ``grs`` on argv[1:] in a fresh interpreter and print the grs modules
# it loaded, one per line.
_MODULES_SCRIPT = """
import sys
from grs.cli import main
try:
    main(sys.argv[1:])
except SystemExit as stop:
    if stop.code:
        raise
print(*sorted(name for name in sys.modules if name.startswith("grs.")), sep="\\n")
"""


def test_each_command_imports_the_modules_it_runs(tmp_path):
    seq = str(tmp_path / "x3.seq")
    gen = _python("-c", _MODULES_SCRIPT, "gen", "--rs", "--n", "3", "-o", seq, text=True)
    loaded = set(gen.stdout.split())
    assert "grs.sequences" in loaded
    assert not loaded & {"grs.bounds", "grs.field", "grs.tables", "grs.fastscan"}
    spectrum = _python("-c", _MODULES_SCRIPT, "spectrum", "--f", seq, "--g", seq, text=True)
    assert spectrum.stdout.startswith("[{")
    loaded = set(spectrum.stdout.splitlines()[1:])
    assert "grs.correlation" in loaded
    assert not loaded & {"grs.bounds", "grs.field", "grs.tables"}


def test_public_names_resolve_to_their_home_modules():
    assert grs.__all__ == [name for names in HOMES.values() for name in names]
    assert len(grs.__all__) == 51
    for module, names in HOMES.items():
        home = importlib.import_module(f"grs.{module}")
        for name in names:
            assert getattr(grs, name) is getattr(home, name)
    assert set(grs.__all__) <= set(dir(grs))
    with pytest.raises(AttributeError, match="no_such_name"):
        grs.no_such_name


def test_submodules_import_from_the_package():
    from grs import bounds, cli, fastscan

    assert bounds is sys.modules["grs.bounds"]
    assert cli is sys.modules["grs.cli"]
    assert fastscan is sys.modules["grs.fastscan"]


def test_missing_numpy_still_fails_the_import():
    script = """
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *a: None if name == "numpy" else find_spec(name, *a)
try:
    import grs
except ModuleNotFoundError as err:
    print(err.name)
"""
    assert _python("-c", script, text=True).stdout == "numpy\n"


def test_optimized_mode_gives_the_same_bytes():
    # Invariants are explicit errors, not asserts, which -O would strip.
    for args in (["verify", "--suite", "rs", "--max", "30"],
                 ["peaks", "--rs", "--n", "46", "--psl"]):
        plain = _python("-m", "grs.cli", *args).stdout
        assert plain and _python("-O", "-m", "grs.cli", *args).stdout == plain
