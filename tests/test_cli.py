"""Command-line behavior: schemas, determinism, exit codes."""

import dataclasses
import json
import math
import subprocess
import sys

import pytest
from click.testing import CliRunner

import qguess
from qguess import cli
from qguess.cli import main
from qguess.streams import STREAM_CONTRACT


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_fidelity_json_schema(runner):
    result = invoke(runner, ["fidelity", "--trials", "20000", "--seed", "42"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["command"] == "fidelity"
    assert payload["strategy"] == "massar-popescu"
    assert payload["analytic"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert abs(payload["mean"] - 2.0 / 3.0) < 5.0 * payload["std_error"]
    assert "a_frac" not in payload  # only the ab strategy reports it


def test_fidelity_ab_half_matches_coin_flip(runner):
    result = invoke(runner, ["fidelity", "--strategy", "ab", "--A-frac", "0.5",
                             "--trials", "50000", "--seed", "2"])
    payload = json.loads(result.output)
    assert payload["a_frac"] == 0.5
    assert abs(payload["mean"] - 0.5) < 5.0 * payload["std_error"]


def test_density_csv_layout_and_chi2(runner):
    result = invoke(runner, ["density", "--trials", "20000", "--bins", "20", "--seed", "1"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("theta_lo,")
    rows = [l for l in lines if not l.startswith("#")]
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("#"))
    assert len(rows) == 21
    assert meta["strategy"] == "massar-popescu"
    assert int(meta["dof"]) == 19
    assert float(meta["chi2"]) < float(meta["chi2_threshold_999"])
    # rows parse back to the exact floats (shortest round-trip formatting)
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(math.pi / 20.0, abs=1e-15)


def test_density_uniform_profile_is_flat(runner):
    result = invoke(runner, ["density", "--strategy", "ab", "--A-frac", "0.5",
                             "--trials", "50000", "--seed", "3"])
    lines = [l for l in result.output.strip().split("\n")[1:] if not l.startswith("#")]
    analytic = [float(l.split(",")[5]) for l in lines]
    assert analytic == pytest.approx([1.0 / (4.0 * math.pi)] * len(analytic), abs=1e-12)


def test_nosignal_json_for_admissible_strategy(runner):
    result = invoke(runner, ["nosignal", "--trials", "20000", "--p", "0.6", "--p", "0.9"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["constraint"]["max_residual"] <= 1e-12
    assert payload["constraint"]["directions"] == 200
    assert [r["p"] for r in payload["reports"]] == [0.6, 0.9]
    assert payload["overall_verdict"] == "not detectable"
    for report in payload["reports"]:
        assert report["verdict"] == "not detectable"
        assert report["z"] < 4.0


def test_nosignal_flags_inadmissible_strategy(runner):
    result = invoke(runner, ["nosignal", "--strategy", "cos4", "--p", "0.9",
                             "--trials", "568954"])
    payload = json.loads(result.output)
    assert payload["constraint"]["max_residual"] > 1e-3
    assert payload["overall_verdict"] == "detectable"


def _reject_non_finite(token):
    raise ValueError(f"non-JSON constant {token}")


@pytest.mark.parametrize("cap", ["0.001", "3.14159"])
def test_nosignal_without_information_is_indeterminate_strict_json(runner, cap):
    result = invoke(runner, ["nosignal", "--trials", "2", "--cap", cap, "--p", "0.9"])
    assert result.exit_code == 0
    payload = json.loads(result.output, parse_constant=_reject_non_finite)
    (report,) = payload["reports"]
    assert report["z"] is None
    assert report["verdict"] == "indeterminate"
    assert payload["overall_verdict"] == "indeterminate"


@pytest.mark.parametrize("cap", ["1e-300", "3.141592653589793"])
@pytest.mark.parametrize("strategy", [["--strategy", "ab", "--A-frac", "0.5"], ["--strategy", "cos4"]],
                         ids=["ab", "cos4"])
def test_nosignal_angle_strategies_run_at_the_edge_inputs(runner, strategy, cap):
    # two trials over three workers (one of them with none), the weights at
    # both ends, and caps that hold no guess or every guess
    args = ["nosignal", *strategy, "--trials", "2", "--workers", "3", "--p", "0", "--p", "1", "--cap", cap]
    result = invoke(runner, args)
    assert result.exit_code == 0
    reports = json.loads(result.output, parse_constant=_reject_non_finite)["reports"]
    want = 0.0 if cap == "1e-300" else 1.0
    assert [(r["freq_standard"], r["freq_symmetric"]) for r in reports] == [(want, want)] * 2


def test_fit_json_reports_pulls_for_known_forms(runner):
    result = invoke(runner, ["fit", "--trials", "100000", "--seed", "0"])
    payload = json.loads(result.output)
    assert payload["true"]["A"] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
    assert abs(payload["pull_A"]) < 3.0
    assert abs(payload["pull_B"]) < 3.0
    assert payload["fit"]["dof"] == 48


def test_fit_pull_with_a_zero_standard_error_is_null(runner, monkeypatch):
    real_fit = cli.fit_ab_least_squares

    def zero_se(hist):
        return dataclasses.replace(real_fit(hist), se_A=0.0, se_B=0.0)

    monkeypatch.setattr(cli, "fit_ab_least_squares", zero_se)
    result = invoke(runner, ["fit", "--strategy", "ab", "--A-frac", "0.5", "--trials", "20000", "--seed", "3"])
    assert result.exit_code == 0
    payload = json.loads(result.output, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert payload["pull_A"] is None and payload["pull_B"] is None


def test_fit_cos4_has_no_reference_form(runner):
    result = invoke(runner, ["fit", "--strategy", "cos4", "--trials", "20000", "--seed", "1"])
    payload = json.loads(result.output)
    assert "true" not in payload
    assert "pull_A" not in payload


def test_scan_marks_argmax_row(runner):
    result = invoke(runner, ["scan"])
    lines = result.output.strip().split("\n")
    rows = [l for l in lines[1:] if not l.startswith("#")]
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("#"))
    assert len(rows) == 1001
    best_rows = [r for r in rows if r.endswith(",1")]
    assert len(best_rows) == 1
    cells = best_rows[0].split(",")
    assert float(cells[0]) == 1.0  # a_frac of the argmax
    assert float(cells[2]) == 0.0  # B = 0 at the optimum
    assert float(meta["best_value"]) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert meta["tie"] == "false"


def test_scan_constant_merit_reports_tie(runner):
    result = invoke(runner, ["scan", "--merit", "constant"])
    lines = result.output.strip().split("\n")
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("#"))
    assert meta["tie"] == "true"
    assert "best_a_frac" not in meta
    assert not any(r.endswith(",1") for r in lines[1:] if not r.startswith("#"))


@pytest.mark.parametrize(
    "args",
    [
        ["fidelity", "--trials", "2000"],
        ["nosignal", "--trials", "2000", "--p", "0.7"],
        ["fit", "--trials", "20000"],
    ],
    ids=["fidelity", "nosignal", "fit"],
)
def test_json_reports_end_with_their_provenance(runner, args):
    result = invoke(runner, args)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert list(payload)[-2:] == ["qguess_version", "stream_contract"]
    assert payload["qguess_version"] == qguess.__version__
    assert payload["stream_contract"] == STREAM_CONTRACT


@pytest.mark.parametrize(
    "args",
    [["density", "--trials", "2000", "--bins", "5"], ["scan", "--merit", "constant"]],
    ids=["density", "scan"],
)
def test_csv_reports_end_with_their_provenance(runner, args):
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert result.output.split("\n")[-3:] == [
        f"# qguess_version={qguess.__version__}", f"# stream_contract={STREAM_CONTRACT}", ""]


@pytest.mark.parametrize(
    "args",
    [
        ["fidelity", "--trials", "20000", "--seed", "9", "--workers", "3"],
        ["density", "--trials", "20000", "--bins", "20", "--seed", "9"],
        ["nosignal", "--trials", "5000", "--p", "0.7"],
        ["fit", "--trials", "50000", "--seed", "2"],
        ["scan", "--merit", "fidelity"],
    ],
)
def test_reruns_are_byte_identical(runner, args):
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_out_writes_the_same_bytes(runner, tmp_path):
    target = tmp_path / "report.json"
    piped = invoke(runner, ["fidelity", "--trials", "5000"])
    direct = invoke(runner, ["fidelity", "--trials", "5000", "--out", str(target)])
    assert direct.exit_code == 0
    assert direct.output == ""
    assert target.read_text() == piped.output


@pytest.mark.parametrize(
    "args",
    [
        ["fidelity", "--strategy", "bogus"],
        ["fidelity", "--seed", "-1"],
        ["fidelity", "--trials", "1"],
        ["nosignal", "--cap", "0"],
        ["nosignal", "--p", "1.5"],
        ["density", "--bins", "1"],
        ["fidelity", "--strategy", "ab", "--A-frac", "1.01"],
    ],
)
def test_usage_errors_exit_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2


def test_runtime_failures_exit_3(runner):
    # two samples in one bin cannot constrain a slope
    result = runner.invoke(
        main, ["fit", "--strategy", "ab", "--A-frac", "1.0", "--trials", "2", "--seed", "22"]
    )
    assert result.exit_code == 3
    assert "occupied bins" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["nosignal", "--cap", "nan"],
        ["nosignal", "--p", "nan"],
        ["fidelity", "--strategy", "ab", "--A-frac", "nan"],
        ["fidelity", "--A-frac", "nan"],
    ],
    ids=["cap", "p", "a-frac", "a-frac-unused"],
)
def test_nan_parameters_exit_2(runner, args):
    # click's FloatRange lets NaN through, as it fails no comparison; the
    # flags reject it at parse time, even where the strategy ignores it
    result = runner.invoke(main, [*args, "--trials", "100"])
    assert result.exit_code == 2
    assert "'nan' is not a finite number" in result.output


@pytest.mark.parametrize(
    "work",
    [
        "import qguess.cli",
        "from qguess.nosignal import cos4_density, required_trials; required_trials(cos4_density, 0.9, 0.2)",
        "import os; from qguess.cli import main; "
        "main(['density', '--trials', '2000', '--out', os.devnull], standalone_mode=False)",
    ],
    ids=["cli-import", "required-trials", "density"],
)
def test_cli_import_loads_no_scipy(work):
    # no command loads scipy: it is a test-only oracle
    code = f"import sys; {work}; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
