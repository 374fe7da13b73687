"""Command-line behavior: artifacts, exit codes, the stderr run report,
config-file presets, and byte-level determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from feederflow.cli import main

from conftest import FIXTURE_DIR, fixture_path

GOLDEN = FIXTURE_DIR.parent / "tests" / "golden"
TWO_BUS = str(fixture_path("two_bus"))
MESHED = str(fixture_path("meshed"))
ZERO_LOAD = str(fixture_path("zero_load"))
STORAGE = str(fixture_path("storage_two_period"))
PERIODS = str(FIXTURE_DIR / "periods_two.json")


def run(capsys, *argv):
    capsys.readouterr()
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def report_of(err: str) -> dict:
    # the JSON run report is the last stderr line
    return json.loads(err.strip().splitlines()[-1])


# -- parse ---------------------------------------------------------------


def test_parse_matches_golden(capsys):
    code, out, _ = run(capsys, "parse", TWO_BUS, "--to", "json")
    assert code == 0
    assert out == (GOLDEN / "two_bus_parse.json").read_text()


def test_parse_report_counts_objects(capsys):
    code, _, err = run(capsys, "parse", TWO_BUS, "--json")
    assert code == 0
    rep = report_of(err)
    assert rep["result"]["object_counts"] == {"vsource": 1, "line": 1, "load": 1}
    assert rep["exit_code"] == 0
    assert list(rep["inputs"]) == [TWO_BUS]
    assert all(len(h) == 64 for h in rep["inputs"].values())
    assert "parse" in rep["timings_ms"] and "total" in rep["timings_ms"]


def test_parse_unknown_format_unsupported(capsys):
    code, _, err = run(capsys, "parse", TWO_BUS, "--to", "yaml")
    assert code == 4
    assert "unsupported" in err


def test_parse_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "parse", str(FIXTURE_DIR / "nope.dss"))
    assert code == 2
    assert "error:" in err


def test_parse_redirect_cycle_is_input_error(capsys):
    code, _, err = run(capsys, "parse", str(fixture_path("redirect_cycle_a")))
    assert code == 2
    assert "redirect" in err and "cycle" in err


# -- pf ------------------------------------------------------------------


def test_pf_artifact_and_report(capsys):
    code, out, err = run(capsys, "pf", TWO_BUS, "--json")
    assert code == 0
    sol = json.loads(out)
    assert sol["schema"] == "feederflow-solution/1"
    assert "ure:load:1" in sol["values"]
    rep = report_of(err)
    assert rep["result"]["converged"] is True
    assert rep["result"]["method"] == "newton"


def test_pf_zero_load_converges_within_two_iterations(capsys):
    code, _, err = run(capsys, "pf", ZERO_LOAD, "--json")
    assert code == 0
    assert report_of(err)["result"]["iterations"] <= 2


def test_pf_bfs_on_meshed_unsupported(capsys):
    code, _, err = run(capsys, "pf", MESHED, "--method", "bfs")
    assert code == 4
    assert "radial required" in err


def test_pf_iteration_starved_newton_fails_with_exit_3(capsys):
    code, out, err = run(capsys, "pf", str(fixture_path("four_bus")), "--max-iter", "0")
    assert code == 3
    assert "did not converge" in err
    assert json.loads(out)["meta"]["converged"] is False


def test_pf_non_finite_length_is_input_error(capsys, tmp_path):
    feeder = tmp_path / "inf.dss"
    feeder.write_text(fixture_path("two_bus").read_text().replace("length=1 ", "length=1e400 "))
    code, out, err = run(capsys, "pf", str(feeder), "--json")
    assert code == 2
    assert out == ""
    assert "not a finite number: '1e400'" in err
    assert report_of(err)["exit_code"] == 2


def test_pf_small_feeder_never_imports_scipy(tmp_path):
    # scipy is loaded only for sparse Newton; importing it costs about as
    # much as a whole small-feeder run
    import feederflow

    code = (
        "import sys\n"
        "from feederflow.cli import main\n"
        f"assert main(['pf', 'fixtures/two_bus.dss', '--out', {str(tmp_path / 'o.json')!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = str(pathlib.Path(feederflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=str(FIXTURE_DIR.parent), env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_pf_unknown_method_unsupported(capsys):
    code, _, _ = run(capsys, "pf", TWO_BUS, "--config", "/dev/null", "--method", "newton")
    assert code == 0


# -- opf -----------------------------------------------------------------


def test_opf_two_period_dispatch(capsys):
    code, out, _ = run(capsys, "opf", STORAGE, "--periods", PERIODS)
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == "feederflow.dispatch.v1"
    assert d["status"] == "optimal"
    assert d["objective"] == pytest.approx(3.88, abs=1e-9)
    assert d["complementarity_violation"] == 0.0
    batt = d["storage"]["batt"]
    assert batt["charge"][0] == pytest.approx(0.2, abs=1e-9)
    assert batt["discharge"][1] == pytest.approx(0.162, abs=1e-9)


def test_opf_snapshot_without_periods(capsys):
    code, out, _ = run(capsys, "opf", TWO_BUS)
    assert code == 0
    assert json.loads(out)["status"] == "optimal"


def test_opf_unsupported_form(capsys):
    code, _, err = run(capsys, "opf", TWO_BUS, "--form", "socbfm")
    assert code == 4
    assert "lindistflow" in err


def test_opf_meshed_unsupported(capsys):
    code, _, err = run(capsys, "opf", MESHED)
    assert code == 4
    assert "radial required" in err


def test_opf_infeasible_reports_certificate(capsys, tmp_path):
    case = tmp_path / "tight.dss"
    case.write_text(
        (fixture_path("two_bus").read_text())
        .replace("model=1", "model=1 vminpu=1.05 vmaxpu=1.10")
        .replace("solve\n", "")
        + "solve\n"
    )
    code, out, err = run(capsys, "opf", str(case))
    assert code == 3
    assert "infeasible" in err
    d = json.loads(out)
    assert d["status"] == "infeasible"
    assert d["farkas_gap"] > 0.0
    assert d["farkas_top_rows"]


# -- export --------------------------------------------------------------


def test_export_lindistflow_matches_golden(capsys):
    code, out, err = run(capsys, "export", TWO_BUS, "--form", "lindistflow")
    assert code == 0
    assert out == (GOLDEN / "two_bus_lindistflow.json").read_text()
    assert "6 variables" in err and "5 LinearCon" in err


@pytest.mark.parametrize("form", ["ivr", "acr", "socbfm", "lindistflow"])
def test_export_all_forms(capsys, form):
    code, out, _ = run(capsys, "export", TWO_BUS, "--form", form)
    assert code == 0
    model = json.loads(out)
    assert model["schema"] == "feederflow-mathmodel/1"
    assert model["meta"]["formulation"] == form if "formulation" in model["meta"] else True
    assert model["variables"]


def test_export_unknown_form_unsupported(capsys):
    code, _, err = run(capsys, "export", TWO_BUS, "--form", "dc")
    assert code == 4
    assert "dc" in err


def test_export_socbfm_meshed_unsupported(capsys):
    code, _, err = run(capsys, "export", MESHED, "--form", "socbfm")
    assert code == 4
    assert "radial required" in err


def test_export_to_file(capsys, tmp_path):
    out_path = tmp_path / "model.json"
    code, out, _ = run(capsys, "export", TWO_BUS, "--form", "ivr", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["schema"] == "feederflow-mathmodel/1"


# -- compare -------------------------------------------------------------


def _pf_to(capsys, tmp_path, name: str, *extra) -> str:
    p = tmp_path / name
    code, _, _ = run(capsys, "pf", TWO_BUS, "--out", str(p), *extra)
    assert code == 0
    return str(p)


def test_compare_newton_vs_bfs_below_tolerance(capsys, tmp_path):
    a = _pf_to(capsys, tmp_path, "newton.json")
    b = _pf_to(capsys, tmp_path, "bfs.json", "--method", "bfs")
    code, out, _ = run(capsys, "compare", a, b, "--tol", "1e-8")
    assert code == 0
    assert out.startswith("delta ")
    assert "(tol 1.000000e-08)" in out


def test_compare_perturbation_measured_and_rejected(capsys, tmp_path):
    a = _pf_to(capsys, tmp_path, "base.json")
    data = json.loads((tmp_path / "base.json").read_text())
    u = data["values"]["ure:load:1"]
    data["values"]["ure:load:1"] = u * 1.001
    b = tmp_path / "bumped.json"
    b.write_text(json.dumps(data))
    code, out, _ = run(capsys, "compare", a, str(b), "--tol", "1e-6")
    assert code == 5
    delta = float(out.splitlines()[0].split()[1])
    assert delta == pytest.approx(1e-3, rel=0.2)
    assert "load:" in out


def test_compare_mismatched_bus_sets_is_input_error(capsys, tmp_path):
    a = _pf_to(capsys, tmp_path, "full.json")
    data = json.loads((tmp_path / "full.json").read_text())
    data["values"] = {k: v for k, v in data["values"].items() if ":load:" not in k}
    data["meta"]["buses"] = {k: v for k, v in data["meta"]["buses"].items() if k != "load"}
    b = tmp_path / "partial.json"
    b.write_text(json.dumps(data))
    code, _, err = run(capsys, "compare", a, str(b))
    assert code == 2
    assert "error:" in err


# -- config file ---------------------------------------------------------


def test_config_presets_flags_and_cli_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# solver choice\nmethod = bfs\nmax-iter = 40\n")
    code, _, err = run(capsys, "pf", TWO_BUS, "--config", str(cfg), "--json")
    assert code == 0
    assert report_of(err)["result"]["method"] == "bfs"
    code, _, err = run(capsys, "pf", TWO_BUS, "--config", str(cfg), "--method", "newton", "--json")
    assert code == 0
    assert report_of(err)["result"]["method"] == "newton"


def test_config_rejects_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tolerance\n")
    code, _, err = run(capsys, "pf", TWO_BUS, "--config", str(cfg))
    assert code == 2
    assert "key = value" in err


# -- determinism ---------------------------------------------------------


def _run_proc(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "feederflow.cli", *argv],
        capture_output=True,
        cwd=str(FIXTURE_DIR.parent),
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "fixtures/two_bus.dss", "--seed", "0"),
        ("export", "fixtures/two_bus.dss", "--form", "lindistflow", "--seed", "0"),
        ("pf", "fixtures/four_bus.dss", "--seed", "0"),
        ("opf", "fixtures/storage_two_period.dss", "--periods", "fixtures/periods_two.json", "--seed", "0"),
    ],
)
def test_repeat_runs_are_byte_identical(argv):
    first = _run_proc(*argv)
    second = _run_proc(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
