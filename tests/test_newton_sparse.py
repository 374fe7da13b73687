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


def generated_feeder(rng: random.Random, buses: int) -> str:
    """A radial three-phase feeder: each bus hangs off one of the five
    before it and carries a wye ZIP load of model 1, 2 or 5."""
    lines = [
        "clear",
        "new circuit.gen basekv=12.47 pu=1.0 phases=3 bus1=b0",
        "new linecode.trunk nphases=3 units=km",
        "~ rmatrix=(0.1459 | 0.0492 0.1489 | 0.0498 0.0482 0.1472)",
        "~ xmatrix=(0.4206 | 0.1652 0.4141 | 0.1446 0.1547 0.4162)",
    ]
    for i in range(1, buses):
        parent = rng.randrange(max(0, i - 5), i)
        kw = rng.uniform(10.0, 40.0)
        lines.append(
            f"new line.t{i} bus1=b{parent} bus2=b{i} linecode=trunk "
            f"length={rng.uniform(0.05, 0.25):.4f} units=km"
        )
        lines.append(
            f"new load.l{i} bus1=b{i}.1.2.3 phases=3 conn=wye kv=12.47 "
            f"kw={kw:.3f} kvar={0.3 * kw:.3f} model={rng.choice((1, 2, 5))}"
        )
    lines += ["set voltagebases=[12.47]", "calcvoltagebases", "solve", ""]
    return "\n".join(lines)


def test_generated_feeder_above_cap_agrees_with_sweep(tmp_path):
    path = tmp_path / "gen160.dss"
    path.write_text(generated_feeder(random.Random(2020), 160))
    net = from_dss(parse_file(path))
    assert CompiledSystem(build_pf_ivr(net)).sparse
    sol = solve_newton(net)
    assert sol.converged, sol.message
    ref = solve_bfs(net)
    assert ref.converged, ref.message
    assert compare_delta(sol, ref) <= 1e-10
