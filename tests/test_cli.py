"""Command-line behavior: artifacts, exit codes, the stderr run report,
config-file presets, and byte-level determinism."""

import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from feederflow import cli
from feederflow.cli import main
from feederflow.formulations import build_opf_lindistflow
from feederflow.mathir import CHUNK, MathModel

from conftest import (
    ACR_ELEMENTS,
    CONST_COST,
    CONST_COST_PERIODS,
    DELTA_ZIP,
    FEEDER3_WYE,
    FIXTURE_DIR,
    QUAD_COST,
    TWO_TRANSFORMERS,
    fixture_path,
)
from feeders import FeederSpec, feeder_dss

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


@pytest.mark.parametrize(
    "fixture,old,new,message",
    [
        ("two_bus", "length=1 ", "length=1e400 ", "not a finite number: '1e400'"),
        ("two_bus", "length=1 ", "length=-1 ", "line 'main': length must not be negative"),
        ("four_bus", "kvas=[300, 300]", "kvas=[0, 0]", "'tx1': kvas must be positive"),
        ("four_bus", "kvas=[300, 300]", "kvas=[-300, -300]", "'tx1': kvas must be positive"),
        ("four_bus", "kvs=[12.47, 0.48]", "kvs=[12.47, 0]", "'tx1': winding kv must be positive"),
        ("four_bus", "kvs=[12.47, 0.48]", "kvs=[0, 0.48]", "'tx1': winding kv must be positive"),
        ("four_bus", "kvs=[12.47, 0.48]", "wdg=2 kv=0.48", "'tx1': kvs must give two entries"),
        ("four_bus", "kvas=[300, 300]", "taps=[0, 1]", "'tx1': taps must be positive"),
        # finite numbers whose per-unit value overflows (loads: see
        # test_pf_non_finite_solve_is_solve_failure)
        (
            "four_bus",
            "edit load.ld2",
            "new generator.g9 bus1=b4.1.2.3 phases=3 kv=0.48 kw=1e306 kvar=5\nedit load.ld2",
            "generator g9: per-unit p_set not finite",
        ),
        (
            "two_bus",
            "length=1 units=none\n~ rmatrix=(0.0576)",
            "length=1e300 units=none\n~ rmatrix=(1e300)",
            "branch main: per-unit z not finite",
        ),
        (
            "storage_two_period",
            "kwhrated=400 kwhstored=0",
            "kwhrated=1e306 kwhstored=1e306",
            "storage batt: per-unit energy_max, energy_init not finite",
        ),
    ],
    ids=[
        "length-inf", "length-negative", "kvas-zero", "kvas-negative", "kv2-zero", "kv1-zero",
        "kv1-missing", "tap-zero", "generator-kw1e306", "line-z-overflow", "storage-kwh1e306",
    ],
)
def test_pf_nonphysical_input_is_input_error(fixture, old, new, message, capsys, tmp_path):
    text = fixture_path(fixture).read_text()
    assert old in text
    feeder = tmp_path / "bad.dss"
    feeder.write_text(text.replace(old, new))
    code, out, err = run(capsys, "pf", str(feeder), "--json")
    assert code == 2
    assert out == ""
    assert message in err
    assert report_of(err)["exit_code"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pf"],
        ["pf", "--method", "bfs"],
        ["export", "--form", "ivr"],
        ["export", "--form", "acr"],
        ["export", "--form", "socbfm"],
        ["export", "--form", "lindistflow"],
        ["opf"],
    ],
    ids=["pf-newton", "pf-bfs", "export-ivr", "export-acr", "export-socbfm", "export-lindistflow", "opf"],
)
def test_delta_generator_is_unsupported_everywhere(argv, capsys, tmp_path):
    text = fixture_path("four_bus").read_text()
    feeder = tmp_path / "delta_gen.dss"
    feeder.write_text(
        text.replace(
            "edit load.ld2",
            "new generator.g9 bus1=b4.1.2.3 phases=3 conn=delta kv=0.48 kw=30 kvar=5\nedit load.ld2",
        )
    )
    code, out, err = run(capsys, argv[0], str(feeder), *argv[1:])
    assert code == 4
    assert out == ""
    assert err == "error: generator 'g9': delta generators are not supported\n"


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


SOLVE_FAILURE = (3, "error: power flow did not converge")


@pytest.mark.parametrize(
    "load,extra,expected",
    [
        ("kw=1e200 kvar=50 model=1", (), SOLVE_FAILURE),
        # kw * 1e3 overflows to inf before the per-unit division, so
        # network.validate rejects the load before either method runs
        ("kw=1e306 kvar=50 model=1", (), (2, "load l1: per-unit s_nom not finite")),
        ("kw=1e306 kvar=50 model=2", (), (2, "load l1: per-unit s_nom not finite")),
        ("kw=100 kvar=50 model=1", ("--max-iter", "0"), SOLVE_FAILURE),
    ],
    ids=["kw1e200-model1", "kw1e306-model1", "kw1e306-model2", "max-iter-0"],
)
@pytest.mark.parametrize("method", ["newton", "bfs"])
def test_pf_non_finite_solve_is_solve_failure(load, extra, expected, method, capsys, tmp_path):
    text = fixture_path("two_bus").read_text()
    feeder = tmp_path / "case.dss"
    feeder.write_text(text.replace("kw=100 kvar=50 model=1", load))
    code, out, err = run(capsys, "pf", str(feeder), "--method", method, "--json", *extra)
    assert code == expected[0], err
    assert expected[1] in err
    if code == 2:
        assert out == ""
        assert _strict_json(err.strip().splitlines()[-1])["exit_code"] == 2
        return
    meta = _strict_json(out)["meta"]
    assert meta["converged"] is False and meta["message"]
    rep = _strict_json(err.strip().splitlines()[-1])
    assert rep["exit_code"] == 3
    assert rep["result"]["max_residual"] == meta["max_residual"]


# two loads, each finite in per unit on a 1 VA base, whose sum overflows in
# the backward sweep, so the first non-finite quantity is a voltage
OVERFLOWING_SUM = """
new circuit.c basekv=2.4 pu=1.0 phases=1 bus1=src.1
new line.main bus1=src.1 bus2=mid.1 phases=1 length=1 units=none rmatrix=(0.0576) xmatrix=(0.0576)
new line.tail bus1=mid.1 bus2=load.1 phases=1 length=1 units=none rmatrix=(0.0576) xmatrix=(0.0576)
new load.l1 bus1=load.1 phases=1 conn=wye kv=2.4 kw=1e305 kvar=50 model=1
new load.l2 bus1=mid.1 phases=1 conn=wye kv=2.4 kw=1e305 kvar=50 model=1
"""


@pytest.mark.parametrize(
    "text,extra,message",
    [
        (
            fixture_path("two_bus").read_text().replace("kw=100 ", "kw=1e200 "),
            (),
            "non-finite current at bus 'load' phase 1 after 1 sweeps",
        ),
        (OVERFLOWING_SUM, ("--sbase", "1"), "non-finite voltage at bus 'load' phase 1 after 1 sweeps"),
    ],
    ids=["current", "voltage"],
)
def test_pf_sweep_names_the_non_finite_bus(text, extra, message, capsys, tmp_path):
    feeder = tmp_path / "case.dss"
    feeder.write_text(text)
    code, out, err = run(capsys, "pf", str(feeder), "--method", "bfs", *extra)
    assert code == 3
    assert message in err
    assert _strict_json(out)["meta"]["max_residual"] is None


def test_number_flags_refuse_non_finite_values(capsys):
    for flag in ("--tol", "--sbase"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "pf", TWO_BUS, flag, "nan")
        assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run(capsys, "compare", TWO_BUS, TWO_BUS, "--tol", "inf")
    assert "not a finite number: 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize("sbase", ["0", "-1e6"])
@pytest.mark.parametrize("command", [["pf"], ["opf"], ["export", "--form", "ivr"]])
def test_non_positive_sbase_is_input_error(command, sbase, capsys):
    code, out, err = run(capsys, command[0], TWO_BUS, *command[1:], f"--sbase={sbase}")
    assert code == 2
    assert out == ""
    assert f"error: sbase must be a positive finite power in VA, got {float(sbase):g}" in err


def test_parse_takes_no_sbase(capsys):
    # parse writes the data model before any per-unit conversion
    with pytest.raises(SystemExit) as exc:
        run(capsys, "parse", TWO_BUS, "--sbase", "1e6")
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--tol", "0", "tolerance must be positive, got 0"),
    ("--tol", "-1", "tolerance must be positive, got -1"),
    ("--max-iter", "-1", "max_iterations must not be negative, got -1"),
])
@pytest.mark.parametrize("method", ["newton", "bfs"])
def test_pf_rejects_bad_stopping_rule(method, flag, value, message, capsys):
    code, out, err = run(capsys, "pf", TWO_BUS, "--method", method, flag, value)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize("normamps", ["normamps=400 ", ""])
def test_acr_export_bounds_branch_flow_by_normamps(normamps, capsys, tmp_path):
    feeder = tmp_path / "rated.dss"
    feeder.write_text(
        fixture_path("two_bus").read_text().replace("length=1 ", f"length=1 {normamps}")
    )
    code, out, _ = run(capsys, "export", str(feeder), "--form", "acr")
    assert code == 0
    limits = {c["label"]: c for c in json.loads(out)["constraints"] if "flow_limit" in c["label"]}
    if not normamps:
        assert limits == {}
        return
    assert sorted(limits) == ["flow_limit:main:fr:1", "flow_limit:main:to:1"]
    # 400 A on a 2.4 kV, 1 MVA base: 400 / (1e6 / 2400) = 0.96 pu at 1 pu voltage
    for con in limits.values():
        assert con["sense"] == "<="
        assert con["expr"]["const"] == pytest.approx(-0.96**2, rel=1e-12)


def assert_runs_without_scipy(*argvs):
    """Run each CLI argv in one fresh interpreter; none may load scipy."""
    import feederflow

    code = (
        "import sys\n"
        "from feederflow.cli import main\n"
        f"for argv in {[list(a) for a in argvs]!r}:\n"
        "    assert main(argv) == 0, argv\n"
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


def test_pf_small_feeder_never_imports_scipy(tmp_path):
    # Newton solves with numpy alone at every size, meshed or radial
    feeder = tmp_path / "gen200.dss"
    feeder.write_text(feeder_dss(random.Random(7), FeederSpec(160, 39, (40.0, 100.0)), "gen200"))
    assert_runs_without_scipy(
        ["pf", "fixtures/two_bus.dss", "--out", str(tmp_path / "o.json")],
        ["pf", "fixtures/meshed.dss", "--out", str(tmp_path / "m.json")],
        ["pf", str(feeder), "--out", str(tmp_path / "g.json")],
    )


def test_export_and_opf_never_import_scipy(tmp_path):
    # the benchmark's set-up launches run these; the simplex needs no scipy
    assert_runs_without_scipy(
        ["export", "fixtures/two_bus.dss", "--form", "socbfm", "--out", str(tmp_path / "m.json")],
        [
            "opf", "fixtures/storage_two_period.dss", "--periods", "fixtures/periods_two.json",
            "--out", str(tmp_path / "d.json"),
        ],
    )


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


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("opf", STORAGE, "--periods", PERIODS), "storage_two_period_opf_periods.json"),
        (("opf", str(fixture_path("sample10"))), "sample10_opf.json"),
    ],
    ids=["storage-two-period", "sample10"],
)
def test_opf_matches_golden(argv, golden, capsys):
    # the simplex pivot path shows in the iteration count and in every digit
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_opf_periods_with_cost_constants_matches_golden(capsys, tmp_path):
    # the objective's constant sums each period's constants on their own first
    dss, periods = tmp_path / "const_cost.dss", tmp_path / "periods.json"
    dss.write_text(CONST_COST)
    periods.write_text(json.dumps(CONST_COST_PERIODS))
    code, out, _ = run(capsys, "opf", str(dss), "--periods", str(periods))
    assert code == 0
    assert out == (GOLDEN / "const_cost_opf_periods.json").read_text()


@pytest.mark.parametrize("name", ["sample10", "feeder3_unbalanced"])
def test_pf_matches_golden(name, capsys):
    # the residual sums run in the order the model lists its terms
    code, out, _ = run(capsys, "pf", str(fixture_path(name)))
    assert code == 0
    assert out == (GOLDEN / f"{name}_pf.json").read_text()


def test_opf_report_carries_simplex_counters(capsys):
    code, out, err = run(capsys, "opf", STORAGE, "--periods", PERIODS, "--json")
    assert code == 0
    assert out == (GOLDEN / "storage_two_period_opf_periods.json").read_text()
    rep = report_of(err)["result"]
    assert {"iterations", "phase1_iterations", "crash_rows", "refactors", "bland"} <= set(rep)
    assert 0 < rep["phase1_iterations"] <= rep["iterations"] == json.loads(out)["iterations"]
    # all 33 rows are equalities the crash covers without hitting a bound,
    # so phase 1 is the one pricing pass that finds no artificial to drive out
    assert rep["crash_rows"] == 33 and rep["phase1_iterations"] == 1
    assert rep["refactors"] >= 1
    assert rep["bland"] is False  # no run of 50 non-improving pivots here


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("kwrated=200", "kwrated=-200", "storage batt: charge/discharge power limits (kwrated)"),
        ("kwrated=200", "kwrated=200 kva=-50", "storage batt: apparent-power rating (kva)"),
        ("kwrated=200", "kwrated=200 kva=0", "storage batt: apparent-power rating (kva)"),
    ],
    ids=["kwrated-negative", "kva-negative", "kva-zero"],
)
def test_opf_nonphysical_storage_is_input_error(old, new, message, capsys, tmp_path):
    text = fixture_path("storage_two_period").read_text()
    assert old in text
    feeder = tmp_path / "bad.dss"
    feeder.write_text(text.replace(old, new))
    code, out, err = run(capsys, "opf", str(feeder), "--periods", PERIODS)
    assert code == 2
    assert out == ""
    assert message in err


def test_opf_bound_error_precedes_cost_error(capsys, tmp_path):
    # a negative generation scale inverts the dispatch bounds, which are
    # refused when the column is made, before the quadratic cost is reached
    dss, periods = tmp_path / "quad_cost.dss", tmp_path / "periods.json"
    dss.write_text(QUAD_COST)
    periods.write_text('{"dt_hours": 1.0, "load_scale": [1.0], "gen_scale": [-1.0]}')
    code, out, err = run(capsys, "opf", str(dss), "--periods", str(periods))
    assert code == 2
    assert out == ""
    assert "variable 'pg:g1:1:0': lb 0.0 exceeds ub -0.02" in err


@pytest.mark.parametrize(
    "document,field",
    [
        ("[1, 2]", "periods document"),
        ('{"dt_hours": 1.0, "load_scale": 5}', "load_scale"),
        ('{"dt_hours": 1.0}', "load_scale"),
        ('{"dt_hours": [1], "load_scale": [1.0, 1.0]}', "dt_hours"),
        ('{"load_scale": [1.0, 1.0]}', "dt_hours"),
        ('{"dt_hours": 1.0, "load_scale": [null, 1.0]}', "load_scale[0]"),
        ('{"dt_hours": 1.0, "load_scale": [NaN, 1.0]}', "load_scale[0]"),
        ('{"dt_hours": 1.0, "load_scale": ["nan", 1.0]}', "load_scale[0]"),
        ('{"dt_hours": 1.0, "load_scale": [Infinity, 1.0]}', "load_scale[0]"),
        ('{"dt_hours": 1.0, "load_scale": [1.0, 1.0], "cost_scale": [1.0, -Infinity]}', "cost_scale[1]"),
        ('{"dt_hours": 1.0, "load_scale": [1.0, 1.0], "gen_scale": 1}', "gen_scale"),
        ('{"dt_hours": NaN, "load_scale": [1.0, 1.0]}', "dt_hours"),
        ('{"dt_hours": -1, "load_scale": [1.0, 1.0]}', "dt_hours"),
        ('{"dt_hours": 0, "load_scale": [1.0, 1.0]}', "dt_hours"),
    ],
    ids=[
        "list", "scale-number", "scale-missing", "dt-list", "dt-missing", "null-entry",
        "nan-entry", "nan-string", "inf-entry", "cost-inf", "gen-number", "dt-nan",
        "dt-negative", "dt-zero",
    ],
)
def test_opf_malformed_periods_is_input_error(document, field, capsys, tmp_path):
    periods = tmp_path / "periods.json"
    periods.write_text(document)
    code, out, err = run(capsys, "opf", STORAGE, "--periods", str(periods))
    assert code == 2
    assert out == ""
    assert err.startswith("error: periods ") and err.count("\n") == 1
    assert field in err


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


def test_export_socbfm_matches_golden(capsys):
    # the streamed writer and the lifted-entry reuse keep every byte
    code, out, err = run(capsys, "export", str(fixture_path("sample10")), "--form", "socbfm")
    assert code == 0
    assert out == (GOLDEN / "sample10_socbfm.json").read_text()
    assert "162 variables" in err and "75 LinearCon, 39 RotatedSocCon" in err


def test_export_ivr_matches_golden(capsys):
    # the IVR stamps write index arrays; the model edge must keep every byte
    code, out, err = run(capsys, "export", str(fixture_path("feeder3_unbalanced")), "--form", "ivr")
    assert code == 0
    assert out == (GOLDEN / "feeder3_unbalanced_ivr.json").read_text()
    assert "111 variables" in err and "80 LinearCon, 31 QuadCon" in err


def test_export_acr_matches_golden(capsys):
    # acr reuses the IVR transformer-coupling stamp; this fixture has one
    code, out, err = run(capsys, "export", str(fixture_path("feeder3_unbalanced")), "--form", "acr")
    assert code == 0
    assert out == (GOLDEN / "feeder3_unbalanced_acr.json").read_text()
    assert "139 variables" in err and "47 LinearCon, 111 QuadCon" in err


@pytest.mark.parametrize("name,form", [
    # delta ZIP legs: |V|^2 products pair two conductors of a bus in both phase orders
    ("delta_zip", "ivr"),
    # acr stamps both transformers' couplings into its model in turn
    ("two_transformers", "acr"),
    # acr rows no fixture has: switches, flow limits, voltage bounds, shunt draws
    ("acr_elements", "acr"),
    ("acr_elements", "ivr"),
    # socbfm shunt draws from line charging and a capacitor, a two-phase lateral
    ("feeder3_wye", "socbfm"),
    # a quadratic and constant generator cost in the objective
    ("quad_cost", "acr"),
])
def test_export_generated_matches_golden(name, form, capsys, tmp_path):
    dss = tmp_path / f"{name}.dss"
    texts = {
        "delta_zip": DELTA_ZIP, "two_transformers": TWO_TRANSFORMERS,
        "acr_elements": ACR_ELEMENTS, "feeder3_wye": FEEDER3_WYE, "quad_cost": QUAD_COST,
    }
    dss.write_text(texts[name])
    code, out, err = run(capsys, "export", str(dss), "--form", form)
    assert code == 0
    assert out == (GOLDEN / f"{name}_{form}.json").read_text()


FEEDERS = {
    # the 200-bus feeder of test_export_text_is_canonical_on_a_200_bus_feeder
    "g200": (11, FeederSpec(trunk=160, laterals=39, kw_per_bus=(40.0, 100.0)), "g"),
    "storage10": (7, FeederSpec(7, 2, (40.0, 100.0), storages=2), "s"),
}
EXPORT_SHA256 = {
    ("g200", "socbfm"): "93455e484fbe9c423b66433375cc3321456a0ffecd1a1d818d3c349a0f428b82",
    ("g200", "acr"): "9b05cf2aa95363156525636d2d8b06df5f9a2b2ec5096b859044b180c5761900",
    ("g200", "ivr"): "f3f12531b1caaa6d29053a748e737c396fd2cbece2ccfd006d738f321ab152a0",
    ("g200", "lindistflow"): "cfcf23dffa26a1f825a635ec61bd08868f2986ee5cc94a818971cb165c846e94",
    ("storage10", "socbfm"): "f2d2b4be982b4ea647d462a504d0f64260a2d59265d1b6981d10b291cd8f98a3",
    ("storage10", "acr"): "0c3e74febe732eadb4d7608e48e59a17e9bdb6a9eebe906cb655ffdeb1558ecb",
    ("storage10", "ivr"): "353df284e0b98e393e48e3b65b197eb886c803aae71d83964fbaa3268067b1f8",
    ("storage10", "lindistflow"): "241c50b08a98971b9fa367343fce3f16e0e77ad9f56b77217725b8da52a1208b",
}


@pytest.mark.parametrize("name,form", list(EXPORT_SHA256), ids=[f"{n}-{f}" for n, f in EXPORT_SHA256])
def test_export_generated_feeder_matches_golden_sha256(name, form, capsys, tmp_path):
    # whole generated feeders pin the writer's bytes at scale, by hash
    seed, spec, circuit = FEEDERS[name]
    dss = tmp_path / f"{name}.dss"
    dss.write_text(feeder_dss(random.Random(seed), spec, circuit))
    code, out, _ = run(capsys, "export", str(dss), "--form", form)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_SHA256[name, form]


@pytest.mark.parametrize("argv", [
    ("export", "--form", "socbfm"), ("export", "--form", "lindistflow"), ("opf",)
], ids=["export-socbfm", "export-lindistflow", "opf"])
def test_linear_objective_rejects_quadratic_cost(argv, capsys, tmp_path):
    dss = tmp_path / "quad_cost.dss"
    dss.write_text(QUAD_COST)
    code, out, err = run(capsys, argv[0], str(dss), *argv[1:])
    assert code == 4
    assert out == ""
    assert "generator 'g1': quadratic cost is not supported in a linear objective" in err


def test_export_report_carries_model_sizes(capsys):
    code, out, err = run(capsys, "export", TWO_BUS, "--form", "lindistflow", "--json")
    assert code == 0
    assert out == (GOLDEN / "two_bus_lindistflow.json").read_text()
    rep = report_of(err)["result"]
    assert rep["variables"] == 6
    assert rep["constraints"] == {"LinearCon": 5}
    # drop: w at both ends and the branch's P and Q; each balance row: one
    # branch flow at the load bus, the flow and the generator at the source
    assert rep["terms"] == 10
    assert rep["rows"] == {"drop": 1, "balance_p": 2, "balance_q": 2}


@pytest.mark.parametrize("form", ["ivr", "acr", "socbfm", "lindistflow"])
def test_export_all_forms(capsys, form):
    code, out, _ = run(capsys, "export", TWO_BUS, "--form", form)
    assert code == 0
    model = json.loads(out)
    assert model["schema"] == "feederflow-mathmodel/1"
    assert model["meta"]["formulation"] == form if "formulation" in model["meta"] else True
    assert model["variables"]


@pytest.mark.parametrize(
    "argv",
    [("export", STORAGE, "--form", form) for form in ("ivr", "acr", "socbfm", "lindistflow")]
    + [("opf", STORAGE), ("opf", STORAGE, "--periods", PERIODS)],
    ids=["export-ivr", "export-acr", "export-socbfm", "export-lindistflow", "opf", "opf-periods"],
)
def test_cli_never_builds_row_objects(argv, capsys, monkeypatch):
    # the export, its report and the LP lift read the builder's rows: the
    # name-keyed constraint objects are a view for residual checks only
    want_code, want, _ = run(capsys, *argv, "--json")

    def refuse(*args, **kwargs):
        raise AssertionError("a constraint object was built")

    for name in ("LinearCon", "QuadCon", "RotatedSocCon"):
        monkeypatch.setattr(f"feederflow.mathir.{name}", refuse)
    code, out, _ = run(capsys, *argv, "--json")
    assert want_code == code == 0
    assert out == want


def test_export_writes_nothing_when_a_late_number_is_not_finite(capsys, tmp_path, monkeypatch):
    # every chunk of the artifact is built and checked before the first is written
    def poisoned(net):
        rows = build_opf_lindistflow(net).rows
        for k in range(CHUNK + 1):
            rows.row(None, "late", k, lin={0: 1.0})
        rows.lin[-1][0] = math.nan
        return MathModel("lindistflow", rows)

    monkeypatch.setitem(cli._BUILDERS, "lindistflow", poisoned)
    out_path = tmp_path / "model.json"
    for extra in ((), ("--out", str(out_path))):
        code, out, err = run(capsys, "export", TWO_BUS, "--form", "lindistflow", *extra)
        assert code == 2
        assert out == ""
        assert "not JSON compliant" in err
    assert not out_path.exists()


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


@pytest.mark.parametrize(
    "poisoned,values",
    [
        ("a", {"ure:load:1": float("nan")}),
        ("a", {"ure:load:1": float("inf")}),
        ("b", {"ure:load:1": float("nan")}),
        ("b", {"uim:load:1": float("-inf")}),
        ("b", {"ure:load:1": 0.0, "uim:load:1": 0.0}),
    ],
    ids=["nan-a", "inf-a", "nan-b", "inf-b", "zero-reference"],
)
def test_compare_rejects_bad_solution_file(capsys, tmp_path, poisoned, values):
    good = _pf_to(capsys, tmp_path, "good.json")
    data = json.loads((tmp_path / "good.json").read_text())
    data["values"].update(values)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    files = (str(bad), good) if poisoned == "a" else (good, str(bad))
    code, out, err = run(capsys, "compare", *files)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "bus 'load' phase" in err


@pytest.mark.parametrize(
    "edit,field",
    [
        (lambda d: [1], "not a JSON object"),
        (lambda d: {**d, "meta": None}, "meta"),
        (lambda d: {**d, "meta": {**d["meta"], "buses": [1]}}, "meta.buses"),
        (lambda d: {**d, "meta": {**d["meta"], "buses": {"load": 1}}}, "meta.buses['load']"),
        (lambda d: {**d, "values": []}, "values"),
        (lambda d: {**d, "values": {**d["values"], "ure:load:1": "x"}}, "bus 'load' phase 1"),
        (lambda d: {**d, "values": {**d["values"], "uim:src:1": None}}, "bus 'src' phase 1"),
    ],
    ids=["list", "meta-null", "buses-list", "phases-number", "values-list", "entry-string", "entry-null"],
)
def test_compare_rejects_malformed_solution_file(capsys, tmp_path, edit, field):
    good = _pf_to(capsys, tmp_path, "good.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads((tmp_path / "good.json").read_text()))))
    for files in ((good, str(bad)), (str(bad), good)):
        code, out, err = run(capsys, "compare", *files)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err


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


def test_config_value_is_converted_like_a_flag(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max_iter = many\n")
    with pytest.raises(SystemExit) as exc:
        main(["pf", TWO_BUS, "--config", str(cfg)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--max-iter" in err and "many" in err
    # keys that are not presettable value options are ignored
    cfg.write_text("json = no\nseed = x\nconfig = elsewhere\nunknown = 1\nmax-iter = 0\n")
    code, _, err = run(capsys, "pf", TWO_BUS, "--config", str(cfg))
    assert code == 3 and "in 0 iterations" in err
    assert "exit_code" not in err  # no --json report


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
