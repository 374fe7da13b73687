"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` for a one-line verdict
per criterion. Each test prints a summary line with the measured figure
so the margins are visible alongside the pass/fail status.
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from feederflow.dss import (
    DssParseError,
    build_data_model,
    model_to_dss_text,
    models_equal,
    parse_file,
    parse_matrix,
    parse_rpn,
    tokenize,
)
from feederflow.formulations.acr import build_opf_acr, map_solution_to_acr
from feederflow.formulations.lindistflow import (
    build_opf_lindistflow,
    storage_trajectories,
    w_name,
)
from feederflow.formulations.socbfm import build_opf_socbfm, map_solution_to_socbfm
from feederflow.lp import solve_problem
from feederflow.mathir import RotatedSocCon, evaluate_residuals
from feederflow.network import from_dss
from feederflow.network.components import TimeSeries
from feederflow.pf import compare_delta, solve_bfs, solve_newton

from conftest import (
    ALL_FIXTURES,
    FIXTURE_DIR,
    RADIAL_FIXTURES,
    SOC_FIXTURES,
    cone_membership_mismatches,
    fixture_path,
    load_network,
    newton_solution,
)
from test_lp import equality_problem, random_instance, vertex_enumeration_optimum
from test_newton import central_fd_jacobian, compiled, dense_jacobian
from test_values import _gen_expr


def test_criterion_01_newton_vs_sweep_delta():
    # fresh solves inside the timing window, nothing cached
    t0 = time.perf_counter()
    worst = 0.0
    for name in RADIAL_FIXTURES:
        net = from_dss(parse_file(fixture_path(name)))
        a = solve_newton(net)
        b = solve_bfs(net)
        assert a.converged and b.converged, name
        floating = {bus.id for bus in net.buses.values() if bus.is_internal}
        worst = max(worst, compare_delta(a, b, floating_buses=floating))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: delta {worst:.3e} (tol 1e-8) in {elapsed:.2f}s (budget 5s)")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_relaxation_containment():
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_minor = 0.0
    for name in SOC_FIXTURES:
        net = load_network(name)
        model = build_opf_socbfm(net)
        point = map_solution_to_socbfm(net, newton_solution(name))
        rep = evaluate_residuals(model, point)
        worst_res = max(worst_res, rep.max_violation, rep.max_bound_violation)
        for con in model.constraints:
            if isinstance(con, RotatedSocCon):
                lhs = sum(a.value(point) ** 2 for a in con.args)
                gap = abs(lhs - con.x.value(point) * con.y.value(point))
                worst_minor = max(worst_minor, gap)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 2: residual {worst_res:.3e} (tol 1e-8), rank-1 minor gap "
        f"{worst_minor:.3e} (tol 1e-10) in {elapsed:.2f}s (budget 2s)"
    )
    assert worst_res <= 1e-8
    assert worst_minor <= 1e-10
    assert elapsed < 2.0


def test_criterion_03_exact_form_equivalence():
    worst = 0.0
    for name in ALL_FIXTURES:
        net = load_network(name)
        model = build_opf_acr(net)
        point = map_solution_to_acr(net, newton_solution(name))
        rep = evaluate_residuals(model, point)
        worst = max(worst, rep.max_violation, rep.max_bound_violation)
    print(f"criterion 3: mapped residual {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_04_cone_membership_equivalence():
    total = 0
    for name in SOC_FIXTURES:
        net = load_network(name)
        model = build_opf_socbfm(net)
        point = map_solution_to_socbfm(net, newton_solution(name))
        mismatches = cone_membership_mismatches(model, point, n=1000, seed=4, tol=1e-12)
        assert mismatches == 0, f"{name}: {mismatches} membership disagreements"
        total += 1000
    print(f"criterion 4: {total} sampled points, 0 membership disagreements (tol 1e-12)")


def test_criterion_05_parser_oracles():
    t0 = time.perf_counter()
    rng = random.Random(50)
    checked = 0
    while checked < 1000:
        tokens, want = _gen_expr(rng, rng.randint(1, 4))
        if not math.isfinite(want) or abs(want) > 1e9:
            continue
        got = parse_rpn("(" + " ".join(tokens) + ")")
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        checked += 1

    nrng = np.random.default_rng(51)
    for _ in range(50):
        n = int(nrng.integers(1, 5))
        m = nrng.normal(size=(n, n))
        rows = [" ".join(repr(float(v)) for v in m[i, : i + 1]) for i in range(n)]
        got = parse_matrix("(" + " | ".join(rows) + ")", n)
        want = np.tril(m) + np.tril(m, -1).T
        assert np.array_equal(got, want)

    for name in ALL_FIXTURES:
        m1 = parse_file(fixture_path(name))
        text1 = model_to_dss_text(m1)
        m2 = build_data_model(tokenize(text1))
        assert models_equal(m1, m2), name
        assert model_to_dss_text(m2) == text1, name

    with pytest.raises(DssParseError, match="cycle"):
        parse_file(fixture_path("redirect_cycle_a"))

    elapsed = time.perf_counter() - t0
    print(
        f"criterion 5: 1000 expressions, 50 matrices, {len(ALL_FIXTURES)} round "
        f"trips, cycle detected in {elapsed:.2f}s (budget 1s)"
    )
    assert elapsed < 1.0


def test_criterion_06_jacobian_vs_finite_differences():
    worst = 0.0
    for name in ALL_FIXTURES:
        sys_ = compiled(load_network(name))
        rng = np.random.default_rng(6)
        base = sys_.start()
        for _ in range(20):
            x = base + rng.normal(scale=0.3, size=sys_.n_var)
            analytic = dense_jacobian(sys_, x)
            fd = central_fd_jacobian(sys_, x, h=1e-7)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)
    print(f"criterion 6: jacobian relative error {worst:.3e} (tol 1e-5)")
    assert worst <= 1e-5


def test_criterion_07_lp_vertex_oracle():
    t0 = time.perf_counter()
    worst_obj = 0.0
    worst_gap = 0.0
    for k in range(200):
        a, b, c = random_instance(1000 + k)
        res = solve_problem(equality_problem(a, b, c))
        assert res.status == "optimal", f"instance {k}: {res.status}"
        want = vertex_enumeration_optimum(a, b, c)
        worst_obj = max(worst_obj, abs(res.objective - want))
        worst_gap = max(worst_gap, res.objective - res.dual_objective)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 7: objective error {worst_obj:.3e} (tol 1e-7), duality gap "
        f"{worst_gap:.3e} (tol 1e-6) in {elapsed:.2f}s (budget 10s)"
    )
    assert worst_obj <= 1e-7
    assert worst_gap <= 1e-6
    assert elapsed < 10.0


def test_criterion_08_storage_energy_bookkeeping():
    periods = TimeSeries(1.0, [1.0, 1.0], [1.0, 1.0], [1.0, 2.0])

    net_unit = from_dss(parse_file(fixture_path("storage_two_period")))
    for st in net_unit.storages.values():
        st.eta_charge = st.eta_discharge = 1.0
    res = solve_problem_from_net(net_unit, periods)
    traj = storage_trajectories(net_unit, res.assignment, periods)["batt"]
    closure = abs(traj["energy"][-1] - net_unit.storages["batt"].energy_init)
    net_dispatch = abs(sum(traj["charge"]) - sum(traj["discharge"]))
    assert closure <= 1e-10
    assert net_dispatch <= 1e-10

    net = from_dss(parse_file(fixture_path("storage_two_period")))
    res = solve_problem_from_net(net, periods)
    traj = storage_trajectories(net, res.assignment, periods)["batt"]
    absorbed = sum(traj["charge"])
    returned = sum(traj["discharge"])
    loss_err = abs((absorbed - returned) - (1.0 - 0.9 * 0.9) * absorbed)
    assert loss_err <= 1e-8
    print(
        f"criterion 8: unit-efficiency closure {closure:.1e} (tol 1e-10), "
        f"round-trip loss identity error {loss_err:.1e} (tol 1e-8)"
    )


def solve_problem_from_net(net, periods):
    from feederflow.lp import solve_lp

    res = solve_lp(build_opf_lindistflow(net, periods=periods))
    assert res.status == "optimal", res.message
    return res


def test_criterion_09_linearization_tracks_exact_magnitudes():
    from feederflow.lp import solve_lp

    net = load_network("light_radial")
    res = solve_lp(build_opf_lindistflow(net))
    assert res.status == "optimal"
    sol = newton_solution("light_radial")
    worst = 0.0
    for bus in net.terminal_buses():
        for p in bus.phases:
            approx = math.sqrt(res.assignment[w_name(bus.id, p)])
            exact = abs(sol.voltages[bus.id][p])
            worst = max(worst, abs(approx - exact) / exact)
    print(f"criterion 9: sqrt(w) vs |U| relative error {worst:.4%} (tol 2%)")
    assert worst <= 0.02


def test_criterion_10_cli_determinism(tmp_path):
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "feederflow.cli", *argv],
            capture_output=True,
            cwd=str(FIXTURE_DIR.parent),
        )
        return proc

    sol_a = tmp_path / "a.json"
    sol_b = tmp_path / "b.json"
    run("pf", "fixtures/two_bus.dss", "--out", str(sol_a), "--seed", "0")
    run("pf", "fixtures/two_bus.dss", "--method", "bfs", "--out", str(sol_b), "--seed", "0")

    commands = [
        ("parse", "fixtures/two_bus.dss", "--seed", "0"),
        ("pf", "fixtures/four_bus.dss", "--seed", "0"),
        (
            "opf",
            "fixtures/storage_two_period.dss",
            "--periods",
            "fixtures/periods_two.json",
            "--seed",
            "0",
        ),
        ("export", "fixtures/feeder3_unbalanced.dss", "--form", "acr", "--seed", "0"),
        ("compare", str(sol_a), str(sol_b), "--tol", "1e-6", "--seed", "0"),
    ]
    for argv in commands:
        first = run(*argv)
        second = run(*argv)
        assert first.returncode == second.returncode, argv
        assert first.stdout == second.stdout, f"stdout differs for {argv}"

    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    run("pf", "fixtures/four_bus.dss", "--out", str(out1), "--seed", "0")
    run("pf", "fixtures/four_bus.dss", "--out", str(out2), "--seed", "0")
    assert out1.read_bytes() == out2.read_bytes()
    print("criterion 10: repeated runs byte-identical for all five subcommands")
