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
    assert {"iterations", "phase1_iterations", "refactors", "bland"} <= set(rep)
    assert 0 < rep["phase1_iterations"] <= rep["iterations"] == json.loads(out)["iterations"]
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
