"""The feeder-tree Newton step against SuperLU and LAPACK, both called here,
on every fixture and on generated feeders (meshed ones included), and the
Newton solution against the sweep on a generated feeder."""

import random

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from feederflow.dss import build_data_model, parse_file, tokenize
from feederflow.formulations.common import NetworkScope
from feederflow.formulations.ivr import build_pf_ivr
from feederflow.network import from_dss
from feederflow.pf import compare_delta, power_mismatch, solve_bfs
from feederflow.pf.newton import CompiledSystem, FeederTree, solve_newton

from feeders import FeederSpec, feeder_dss

from conftest import ALL_FIXTURES, load_network

# the ROADMAP's 200-bus feeder: 160 trunk buses and 39 single-phase laterals
SPEC_200 = FeederSpec(trunk=160, laterals=39, kw_per_bus=(40.0, 100.0))


def generated(text: str):
    return from_dss(build_data_model(tokenize(text)))


def with_ties(text: str, ties: list[tuple[int, int]]) -> str:
    """The feeder with a three-phase trunk tie line per ``(i, j)`` pair."""
    lines = "".join(
        f"new line.tie{k} bus1=b{i} bus2=b{j} linecode=trunk length=0.1000 units=km\n"
        for k, (i, j) in enumerate(ties, start=1)
    )
    return text.replace("set voltagebases", lines + "set voltagebases", 1)


def sparse_jacobian(sys: CompiledSystem, x: np.ndarray):
    return csc_matrix((sys.jacobian_terms(x), (sys.jac_rows, sys.jac_cols)), shape=(sys.n_eq, sys.n_var))


def relative(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def steps(net, dense: bool = True):
    """One Newton step from a perturbed flat start: (tree, SuperLU, LAPACK or None)."""
    sys = CompiledSystem(build_pf_ivr(net))
    x = sys.start() + np.random.default_rng(7).normal(scale=0.05, size=sys.n_var)
    f = sys.residual(x)
    tree = FeederTree(sys, NetworkScope(net)).at(x).solve(-f)
    lu = splu(sparse_jacobian(sys, x)).solve(-f)
    return tree, lu, np.linalg.solve(sys.jacobian(x), -f) if dense else None


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_sparse_jacobian_equals_dense(name):
    # the entries the tree sums into its fronts make up the dense Jacobian
    sys = CompiledSystem(build_pf_ivr(load_network(name)))
    x = sys.start() + np.random.default_rng(7).normal(scale=0.3, size=sys.n_var)
    dense = sys.jacobian(x)
    assert np.allclose(sparse_jacobian(sys, x).toarray(), dense, rtol=0.0, atol=1e-15 * np.max(np.abs(dense)))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_sparse_backend_matches_dense(name):
    tree, lu, dense = steps(load_network(name))
    assert relative(tree, lu) <= 1e-12, name
    assert relative(tree, dense) <= 1e-12, name


def test_tree_step_matches_superlu_and_lapack_on_a_200_bus_feeder():
    net = generated(feeder_dss(random.Random(7), SPEC_200, "gen200"))
    tree, lu, dense = steps(net)
    assert relative(tree, lu) <= 1e-12
    assert relative(tree, dense) <= 1e-12


@pytest.mark.parametrize("n_ties", [1, 2, 3])
def test_meshed_200_bus_feeder_solves_through_the_border(n_ties):
    rng = random.Random(100 + n_ties)
    ties = [tuple(rng.sample(range(1, SPEC_200.trunk + 1), 2)) for _ in range(n_ties)]
    net = generated(with_ties(feeder_dss(random.Random(7), SPEC_200, "mesh"), ties))
    scope = NetworkScope(net)
    assert len({edge for *_, edge in scope.back}) == n_ties
    tree, lu, _ = steps(net, dense=False)
    assert relative(tree, lu) <= 1e-12
    sol = solve_newton(net)
    assert sol.converged, sol.message
    assert power_mismatch(net, sol) < 1e-6


def test_singular_loop_is_named_on_a_200_bus_feeder():
    # two zero-impedance lines to one new bus: the second closes a loop whose
    # drop rows the tree leaves at zero
    text = feeder_dss(random.Random(7), SPEC_200, "gen200")
    shorts = "".join(
        f"new line.short{k} bus1=b40 bus2=stub phases=3 length=1 units=none "
        f"rmatrix=(0 | 0 0 | 0 0 0) xmatrix=(0 | 0 0 | 0 0 0)\n"
        for k in (1, 2)
    )
    sol = solve_newton(generated(text.replace("set voltagebases", shorts + "set voltagebases", 1)))
    assert not sol.converged
    assert sol.iterations == 0
    assert sol.message.startswith("singular Jacobian at the loop block; dependent constraint rows: ")
    assert "branch_drop:short2:" in sol.message


def test_generated_feeder_above_cap_agrees_with_sweep(tmp_path):
    path = tmp_path / "gen160.dss"
    spec = FeederSpec(trunk=159, laterals=0, kw_per_bus=(10.0, 40.0))
    path.write_text(feeder_dss(random.Random(2020), spec, "gen160"))
    net = from_dss(parse_file(path))
    sol = solve_newton(net)
    assert sol.converged, sol.message
    ref = solve_bfs(net)
    assert ref.converged, ref.message
    assert compare_delta(sol, ref) <= 1e-10
