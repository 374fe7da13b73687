"""The feeder-tree Newton step against SuperLU and LAPACK, both called here,
on every fixture and on generated feeders (meshed ones included); the IVR
stamps' arrays and block owners against the model edge and the name rule;
and the Newton solution against the sweep on a generated feeder."""

import random

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from feederflow.dss import build_data_model, parse_file, tokenize
from feederflow.formulations.common import NetworkScope
from feederflow.formulations.ivr import build_pf_ivr, stamp_pf_ivr
from feederflow.network import from_dss
from feederflow.pf import compare_delta, power_mismatch, solve_bfs
from feederflow.pf.newton import CompiledSystem, FeederTree, solve_newton

from feeders import FeederSpec, feeder_dss

from conftest import ALL_FIXTURES, DELTA_ZIP, load_network
from test_newton import compiled, dense_jacobian

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


def meshed_200(n_ties: int):
    rng = random.Random(100 + n_ties)
    ties = [tuple(rng.sample(range(1, SPEC_200.trunk + 1), 2)) for _ in range(n_ties)]
    return generated(with_ties(feeder_dss(random.Random(7), SPEC_200, "mesh"), ties))


def gen_200():
    return generated(feeder_dss(random.Random(7), SPEC_200, "gen200"))


FAMILIES = {  # the name families of each element kind's unknowns and rows
    "bus": ("ure", "uim", "kcl_current", "isolated_phase", "slack_voltage"),
    "branch": ("isre", "isim", "branch_drop"),
    "transformer": ("itre_fr", "itim_fr", "itre_to", "itim_to", "tf_voltage", "tf_current"),
    "load": ("ildre", "ildim", "vm", "load_power", "vm_def"),
    "generator": ("igre", "igim", "gen_power"),
}


def owners_by_name(scope: NetworkScope, names: list[str], labels: list[str]):
    """The bus whose block holds each column and row (``None``: the border),
    recovered from the names alone: a bus's own unknowns and rows, a tree
    element's at its deeper end, a loop-closing element's at the border,
    a load's or generator's at its bus."""
    els = [("bus", b, b) for b in scope.via] + [(*v[1], b) for b, v in scope.via.items() if v]
    els += [(*e, None) for *_, e in scope.back] + [("load", e.id, e.bus) for e in scope.loads]
    els += [("generator", e.id, e.bus) for e in scope.generators]
    owner = {f"{fam}:{eid}": bus for kind, eid, bus in els for fam in FAMILIES[kind]}
    # keyed by ``family:element``: a row label drops its re/im, then each name its phase or leg
    rows = [owner[n.removesuffix(":re").removesuffix(":im").rpartition(":")[0]] for n in labels]
    return [owner[n.rpartition(":")[0]] for n in names], rows


# b2's conductors 2 and 3 lose their only line: each gets isolated_phase rows
ISOLATED = """clear
new circuit.iso basekv=12.47 pu=1.0 phases=3 bus1=b1
new linecode.lc nphases=3 units=km
~ rmatrix=(0.12 | 0.04 0.12 | 0.04 0.04 0.12)
~ xmatrix=(0.28 | 0.09 0.28 | 0.09 0.09 0.28)
new linecode.l1 nphases=1 units=km
~ rmatrix=(0.25) xmatrix=(0.48)
new line.l2 bus1=b1 bus2=b2 linecode=lc length=0.5 units=km enabled=false
new line.l3 bus1=b1.1 bus2=b2.1 linecode=l1 length=0.5 units=km
new load.x bus1=b2.1 phases=1 conn=wye kv=7.2 kw=50 kvar=10 model=5
set voltagebases=[12.47]
calcvoltagebases
solve
"""

NETWORKS = [*ALL_FIXTURES, "gen200", "ties1", "ties2", "ties3", "delta_zip", "isolated"]


def network(name: str):
    if name in ("delta_zip", "isolated"):
        return generated(DELTA_ZIP if name == "delta_zip" else ISOLATED)
    if name == "gen200":
        return gen_200()
    if name.startswith("ties"):
        return meshed_200(int(name[4:]))
    return load_network(name)


@pytest.mark.parametrize("name", NETWORKS)
def test_stamped_owners_match_the_name_rule(name):
    scope = NetworkScope(network(name))
    rows, _ = stamp_pf_ivr(scope)
    names = [rows.name(j) for j in range(len(rows.var_parts))]
    labels = [rows.label(i) for i in range(len(rows.row_parts))]
    cols, by_row = owners_by_name(scope, names, labels)
    assert rows.col_owner == cols
    assert rows.row_owner == by_row


@pytest.mark.parametrize("name", NETWORKS)
def test_stamped_arrays_are_the_model_edge_arrays(name):
    # Newton reads the stamped arrays and export the model built from them:
    # both must be one system, term for term and bit for bit
    net = network(name)
    rows, _ = stamp_pf_ivr(NetworkScope(net))
    model = build_pf_ivr(net)
    loaded = model.rows
    const, lin, quad = loaded.arrays()
    labels, senses = [con.label for con in model.constraints], loaded.sense
    got_const, got_lin, got_quad = rows.arrays()
    assert labels == [rows.label(i) for i in range(len(rows.row_parts))]
    assert list(model.variables) == [rows.name(j) for j in range(len(rows.var_parts))]
    assert set(senses) <= {"=="}
    assert [v.start for v in model.variables.values()] == rows.start
    assert [v.lb for v in model.variables.values()] == rows.lb
    for want, got in zip((const, *lin, *quad), (got_const, *got_lin, *got_quad)):
        assert want.dtype == got.dtype and np.array_equal(want, got)
    # a product's pair is keyed in its names' order, as the builder keys it
    names = list(model.variables)
    assert all(names[a] <= names[b] for a, b in zip(quad[1], quad[2]))
    assert name != "isolated" or "isolated_phase:b2:3:im" in labels


def sparse_jacobian(sys: CompiledSystem, x: np.ndarray):
    return csc_matrix((sys.jacobian_terms(x), (sys.jac_rows, sys.jac_cols)), shape=(sys.n_eq, sys.n_var))


def relative(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def steps(net, dense: bool = True):
    """One Newton step from a perturbed flat start: (tree, SuperLU, LAPACK or None)."""
    scope = NetworkScope(net)
    sys = CompiledSystem(stamp_pf_ivr(scope)[0])
    x = sys.start() + np.random.default_rng(7).normal(scale=0.05, size=sys.n_var)
    f = sys.residual(x)
    tree = FeederTree(sys, scope).at(x).solve(-f)
    lu = splu(sparse_jacobian(sys, x)).solve(-f)
    return tree, lu, np.linalg.solve(dense_jacobian(sys, x), -f) if dense else None


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_sparse_jacobian_equals_dense(name):
    # the entries the tree sums into its fronts make up the dense Jacobian
    sys = compiled(load_network(name))
    x = sys.start() + np.random.default_rng(7).normal(scale=0.3, size=sys.n_var)
    dense = dense_jacobian(sys, x)
    assert np.allclose(sparse_jacobian(sys, x).toarray(), dense, rtol=0.0, atol=1e-15 * np.max(np.abs(dense)))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_sparse_backend_matches_dense(name):
    tree, lu, dense = steps(load_network(name))
    assert relative(tree, lu) <= 1e-12, name
    assert relative(tree, dense) <= 1e-12, name


def test_tree_step_matches_superlu_and_lapack_on_a_200_bus_feeder():
    tree, lu, dense = steps(gen_200())
    assert relative(tree, lu) <= 1e-12
    assert relative(tree, dense) <= 1e-12


@pytest.mark.parametrize("n_ties", [1, 2, 3])
def test_meshed_200_bus_feeder_solves_through_the_border(n_ties):
    net = meshed_200(n_ties)
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
