"""Backward/forward sweep solver: agreement with Newton across the radial
roster and generated feeders, topology guards, and the power-balance check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feederflow.dss import build_data_model, tokenize
from feederflow.formulations.common import FormulationError
from feederflow.network import from_dss
from feederflow.pf import compare_delta, power_mismatch, solve_newton
from feederflow.pf.bfs import BfsOptions, solve_bfs

from conftest import RADIAL_FIXTURES, load_network, newton_solution
from feeders import FeederSpec, feeder_dss


@pytest.mark.parametrize("name", RADIAL_FIXTURES)
def test_agrees_with_newton(name):
    net = load_network(name)
    bfs = solve_bfs(net)
    assert bfs.converged, f"{name}: {bfs.message}"
    newton = newton_solution(name)
    floating = {b.id for b in net.buses.values() if b.is_internal}
    delta = compare_delta(newton, bfs, floating_buses=floating)
    assert delta <= 1e-8, f"{name}: delta {delta:.3e}"


@pytest.mark.parametrize("name", RADIAL_FIXTURES)
def test_power_balance_closes(name):
    net = load_network(name)
    sol = solve_bfs(net)
    assert power_mismatch(net, sol) <= 1e-9


def test_meshed_topology_rejected():
    with pytest.raises(FormulationError, match="radial required"):
        solve_bfs(load_network("meshed"))


def test_zero_load_needs_one_sweep():
    sol = solve_bfs(load_network("zero_load"))
    assert sol.converged
    assert sol.iterations <= 2
    for phasors in sol.voltages.values():
        for u in phasors.values():
            assert abs(abs(u) - 1.0) < 1e-12


def test_method_label():
    sol = solve_bfs(load_network("two_bus"))
    assert sol.method == "bfs"


def test_iteration_budget_respected():
    sol = solve_bfs(load_network("four_bus"), BfsOptions(max_iterations=1))
    # one sweep of a loaded feeder cannot hit 1e-10
    assert not sol.converged
    assert sol.message


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    trunk=st.integers(min_value=2, max_value=30),
    laterals=st.integers(min_value=0, max_value=8),
    storages=st.integers(min_value=0, max_value=2),
)
def test_agrees_with_newton_on_generated_feeders(seed, trunk, laterals, storages):
    spec = FeederSpec(trunk=trunk, laterals=laterals, kw_per_bus=(5.0, 60.0), storages=storages)
    net = from_dss(build_data_model(tokenize(feeder_dss(random.Random(seed), spec, "g"))))
    newton, bfs = solve_newton(net), solve_bfs(net)
    assert newton.converged, newton.message
    assert bfs.converged, bfs.message
    floating = {b.id for b in net.buses.values() if b.is_internal}
    assert compare_delta(newton, bfs, floating_buses=floating) <= 1e-10
