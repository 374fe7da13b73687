"""Newton power flow: Jacobian correctness against finite differences,
an analytic fixed-point oracle, and the convergence contract."""

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from feederflow.cli import main
from feederflow.dss import parse_file
from feederflow.formulations.common import NetworkScope
from feederflow.formulations.ivr import build_pf_ivr, stamp_pf_ivr
from feederflow.network import from_dss
from feederflow.pf import newton, power_mismatch
from feederflow.pf.newton import CompiledSystem, NewtonOptions, solve_newton

from conftest import RADIAL_FIXTURES, load_network, newton_solution


def compiled(net) -> CompiledSystem:
    return CompiledSystem(stamp_pf_ivr(NetworkScope(net))[0])


def dense_jacobian(sys: CompiledSystem, x: np.ndarray) -> np.ndarray:
    """The dense Jacobian at ``x``, the reference for the feeder-tree solve."""
    j = np.zeros((sys.n_eq, sys.n_var))
    np.add.at(j, (sys.jac_rows, sys.jac_cols), sys.jacobian_terms(x))
    return j


def central_fd_jacobian(sys: CompiledSystem, x: np.ndarray, h: float = 1e-7) -> np.ndarray:
    jac = np.zeros((sys.n_eq, sys.n_var))
    for k in range(sys.n_var):
        e = np.zeros(sys.n_var)
        e[k] = h
        jac[:, k] = (sys.residual(x + e) - sys.residual(x - e)) / (2.0 * h)
    return jac


@pytest.mark.parametrize("name", RADIAL_FIXTURES)
def test_jacobian_matches_central_differences(name):
    # 20 random states per network, relative error below 1e-5
    net = load_network(name)
    sys = compiled(net)
    rng = np.random.default_rng(42)
    base = sys.start()
    for _ in range(20):
        x = base + rng.normal(scale=0.3, size=sys.n_var)
        analytic = dense_jacobian(sys, x)
        fd = central_fd_jacobian(sys, x)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        rel = float(np.max(np.abs(analytic - fd))) / scale
        assert rel <= 1e-5, f"{name}: jacobian mismatch {rel:.3e}"


def test_two_bus_matches_fixed_point_oracle():
    # single line, single PQ load: U = U0 - z * conj(s / U) has a unique
    # high-voltage fixed point, found by direct iteration
    z = 0.01 + 0.01j
    s = 0.1 + 0.05j
    u = 1.0 + 0.0j
    for _ in range(200):
        u_next = 1.0 - z * np.conj(s / u)
        if abs(u_next - u) < 1e-16:
            u = u_next
            break
        u = u_next
    sol = newton_solution("two_bus")
    assert sol.converged
    got = sol.voltages["load"][1]
    assert abs(got - u) < 1e-10
    # slack terminal stays pinned
    assert sol.voltages["src"][1] == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_two_bus_line_current_closes_power_balance():
    sol = newton_solution("two_bus")
    u = sol.voltages["load"][1]
    i = sol.branch_current["main"][0]
    # current through the series branch delivers exactly the load demand
    assert u * np.conj(i) == pytest.approx(0.1 + 0.05j, abs=1e-10)


def test_zero_load_converges_immediately():
    net = load_network("zero_load")
    sol = solve_newton(net)
    assert sol.converged
    assert sol.iterations <= 2
    for bus, phasors in sol.voltages.items():
        for u in phasors.values():
            assert abs(abs(u) - 1.0) < 1e-12


@pytest.mark.parametrize("name", RADIAL_FIXTURES)
def test_converges_on_all_radial_fixtures(name):
    sol = newton_solution(name)
    assert sol.converged, f"{name}: {sol.message}"
    assert sol.max_residual <= 1e-10
    assert sol.method == "newton"


def test_meshed_network_converges_too():
    # Newton has no radiality requirement
    sol = solve_newton(load_network("meshed"))
    assert sol.converged


def test_non_convergence_reports_instead_of_raising():
    net = load_network("four_bus")
    sol = solve_newton(net, NewtonOptions(max_iterations=0))
    assert not sol.converged
    assert sol.iterations == 0
    assert sol.message


def test_provided_start_at_solution_needs_no_iterations():
    from feederflow.formulations.ivr import map_solution_to_ivr

    net = load_network("two_bus")
    first = solve_newton(net)
    start = map_solution_to_ivr(net, first)
    again = solve_newton(net, NewtonOptions(start=start))
    assert again.converged
    assert again.iterations == 0


def test_tolerance_validation():
    with pytest.raises(ValueError):
        NewtonOptions(tolerance=0.0)


def test_nan_start_stops_before_iterating():
    from feederflow.formulations.ivr import map_solution_to_ivr, u_re

    net = load_network("two_bus")
    start = map_solution_to_ivr(net, newton_solution("two_bus"))
    start[u_re("load", 1)] = float("nan")
    sol = solve_newton(net, NewtonOptions(start=start))
    assert not sol.converged
    assert sol.iterations == 0
    assert sol.message.startswith("non-finite residual at ")


@pytest.mark.parametrize(
    "step,message",
    [(float("nan"), "non-finite step at "), (1e200, "non-finite residual at ")],
)
def test_non_finite_step_stops_iterating(step, message, monkeypatch):
    # a step of 1e200 overflows every product term even after ten halvings
    monkeypatch.setattr(newton, "_newton_step", lambda j, f: np.full_like(f, step))
    sol = solve_newton(load_network("four_bus"))
    assert not sol.converged
    assert sol.iterations == 0
    assert sol.message.startswith(message)
    assert np.isfinite(sol.max_residual)


PARALLEL_SHORTS = """clear
new circuit.par basekv=2.4 pu=1.0 phases=1 bus1=src.1
new line.a bus1=src.1 bus2=load.1 phases=1 length=1 units=none
~ rmatrix=(0) xmatrix=(0)
new line.b bus1=src.1 bus2=load.1 phases=1 length=1 units=none
~ rmatrix=(0) xmatrix=(0)
new load.l1 bus1=load.1 phases=1 conn=wye kv=2.4 kw=100 kvar=50 model=1
set voltagebases=[2.4]
solve
"""


@pytest.mark.parametrize("reference", ["dense", "sparse"])
def test_parallel_zero_impedance_lines_report_singular(reference, tmp_path, capsys):
    # both lines force u_src == u_load: line a closes the tree and line b,
    # the loop, is left with a drop row of zeros in the border block; a
    # reference factorization, called here, confirms the Jacobian is singular
    path = tmp_path / "parallel_shorts.dss"
    path.write_text(PARALLEL_SHORTS)
    net = from_dss(parse_file(path))
    sys = compiled(net)
    jac = dense_jacobian(sys, sys.start())
    if reference == "dense":
        labels = [sys.rows.label(i) for i in range(sys.n_eq)]
        a, b = (labels.index(f"branch_drop:{line}:1:re") for line in "ab")
        assert np.array_equal(jac[a], jac[b])
        assert np.linalg.matrix_rank(jac) < sys.n_eq
    else:
        with pytest.raises(RuntimeError, match="singular"):
            splu(csc_matrix(jac))
    sol = solve_newton(net)
    assert not sol.converged
    assert sol.iterations == 0
    assert main(["pf", str(path), "--out", str(tmp_path / "sol.json")]) == 3
    assert sol.message in capsys.readouterr().err
    assert sol.message.startswith(
        "singular Jacobian at the loop block; dependent constraint rows: branch_drop:b:1:re"
    )
    assert "branch_drop:b:1:im" in sol.message


DELTA_ISLAND = """clear
new circuit.island basekv=12.47 pu=1.0 phases=3 bus1=b1
new linecode.lc nphases=3 units=km
~ rmatrix=(0.12 | 0.04 0.12 | 0.04 0.04 0.12)
~ xmatrix=(0.28 | 0.09 0.28 | 0.09 0.09 0.28)
new line.l1 bus1=b1 bus2=b2 linecode=lc length=0.5 units=km
new transformer.tx1 phases=3 windings=2 buses=[b2, b3] conns=[wye, delta]
~ kvs=[12.47, 4.16] kvas=[500, 500] xhl=5 %rs=[0.5, 0.5]
new load.dl bus1=b3.1.2.3 phases=3 conn=delta kv=4.16 kw=150 kvar=50 model=1
set voltagebases=[12.47, 4.16]
solve
"""


def test_ungrounded_delta_island_is_pinned(tmp_path):
    # the delta secondary and its delta load leave the common-mode
    # potential of b3 and the internal bus undetermined without the pin
    path = tmp_path / "delta_island.dss"
    path.write_text(DELTA_ISLAND)
    net = from_dss(parse_file(path))
    assert build_pf_ivr(net).meta["pinned_buses"] == ["b3", "tx1.internal"]
    sol = solve_newton(net)
    assert sol.converged
    assert power_mismatch(net, sol) < 1e-6
