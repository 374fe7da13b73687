"""Sparse Newton: the SuperLU backend against the dense one on every
fixture, and against the sweep on a generated feeder above the size cap."""

import random

import numpy as np
import pytest
from scipy.sparse import issparse

from feederflow.dss import parse_file
from feederflow.formulations.ivr import build_pf_ivr
from feederflow.network import from_dss
from feederflow.pf import compare_delta, newton, solve_bfs
from feederflow.pf.newton import CompiledSystem, solve_newton

from feeders import FeederSpec, feeder_dss

from conftest import ALL_FIXTURES, load_network


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_sparse_jacobian_equals_dense(name, monkeypatch):
    sys = CompiledSystem(build_pf_ivr(load_network(name)))
    x = sys.start() + np.random.default_rng(7).normal(scale=0.3, size=sys.n_var)
    dense = sys.jacobian(x)
    monkeypatch.setattr(newton, "DENSE_MAX_UNKNOWNS", 0)
    sparse = sys.jacobian(x)
    assert isinstance(dense, np.ndarray) and issparse(sparse)
    assert np.array_equal(sparse.toarray(), dense)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_sparse_backend_matches_dense(name, monkeypatch):
    net = load_network(name)
    dense = solve_newton(net)
    monkeypatch.setattr(newton, "DENSE_MAX_UNKNOWNS", 0)
    sparse = solve_newton(net)
    assert dense.converged and sparse.converged, sparse.message
    assert sparse.iterations == dense.iterations
    for bus, phasors in dense.voltages.items():
        for p, u in phasors.items():
            assert abs(sparse.voltages[bus][p] - u) <= 1e-12, f"{name}: {bus}.{p}"


def test_generated_feeder_above_cap_agrees_with_sweep(tmp_path):
    path = tmp_path / "gen160.dss"
    spec = FeederSpec(trunk=159, laterals=0, kw_per_bus=(10.0, 40.0))
    path.write_text(feeder_dss(random.Random(2020), spec, "gen160"))
    net = from_dss(parse_file(path))
    assert CompiledSystem(build_pf_ivr(net)).sparse
    sol = solve_newton(net)
    assert sol.converged, sol.message
    ref = solve_bfs(net)
    assert ref.converged, ref.message
    assert compare_delta(sol, ref) <= 1e-10
