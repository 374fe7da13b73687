"""Simplex solver: brute-force vertex oracle on random instances, HiGHS on
generated dispatch up to 200 buses, weak duality, infeasibility certificates,
the crash start, and pivoting edge cases."""

import itertools
import random

import numpy as np
import pytest

from feederflow.dss import parse_file
from feederflow.formulations import build_opf_lindistflow, build_opf_socbfm
from feederflow.lp import (
    LpError,
    LpOptions,
    LpProblem,
    _Matrix,
    farkas_gap,
    problem_from_model,
    solve_lp,
    solve_problem,
)
from feederflow.mathir import EQ, GE, LE, MathModel, RowBuilder
from feederflow.network import from_dss
from feederflow.network.components import TimeSeries

from conftest import load_network
from feeders import FeederSpec, feeder_dss

INF = float("inf")


def equality_problem(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> LpProblem:
    m, n = a.shape
    rows, cols = np.nonzero(a)
    return LpProblem(
        var_names=[f"x{j}" for j in range(n)],
        cost=c.astype(float),
        lower=np.zeros(n),
        upper=np.full(n, INF),
        row_names=[f"r{i}" for i in range(m)],
        senses=[EQ] * m,
        rhs=b.astype(float),
        a_rows=rows.astype(int),
        a_cols=cols.astype(int),
        a_vals=a[rows, cols].astype(float),
    )


def vertex_enumeration_optimum(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Minimum of c.x over basic feasible solutions of a x = b, x >= 0.

    Every bounded LP in this form attains its optimum at such a point, so
    scanning all column bases is an exact, if exponential, oracle.
    """
    m, n = a.shape
    bases = list(itertools.combinations(range(n), m))
    mats = np.stack([a[:, list(bs)] for bs in bases])
    best = INF
    dets = np.abs(np.linalg.det(mats))
    solvable = dets > 1e-10
    ns = int(solvable.sum())
    sols = np.full((len(bases), m), np.nan)
    rhs = np.broadcast_to(b.reshape(1, m, 1), (ns, m, 1))
    sols[solvable] = np.linalg.solve(mats[solvable], rhs)[:, :, 0]
    for k, bs in enumerate(bases):
        if not solvable[k]:
            continue
        xb = sols[k]
        if np.min(xb) < -1e-9:
            continue
        best = min(best, float(c[list(bs)] @ xb))
    return best


def random_instance(seed: int):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 12))
    x0 = rng.uniform(0.1, 1.0, size=12)  # feasible by construction
    b = a @ x0
    c = rng.uniform(0.1, 2.0, size=12)  # positive cost keeps the LP bounded
    return a, b, c


@pytest.mark.parametrize("batch", range(10))
def test_matches_vertex_enumeration_on_seeded_instances(batch):
    # 200 instances split into 10 parametrized batches
    for k in range(20):
        seed = 1000 + batch * 20 + k
        a, b, c = random_instance(seed)
        res = solve_problem(equality_problem(a, b, c))
        assert res.status == "optimal", f"seed {seed}: {res.status}"
        want = vertex_enumeration_optimum(a, b, c)
        assert res.objective == pytest.approx(want, abs=1e-7), f"seed {seed}"
        assert res.objective - res.dual_objective <= 1e-6, f"seed {seed}: duality gap"
        x = np.array([res.assignment[f"x{j}"] for j in range(12)])
        assert np.min(x) >= -1e-8
        assert float(np.max(np.abs(a @ x - b))) <= 1e-7


def lp_model(bounds: dict, rows=(), cost: dict | None = None, const: float = 0.0) -> MathModel:
    """A linear model stamped into a builder: ``bounds`` maps each variable
    to its (lb, ub); each row is (label, {name: coefficient}, constant,
    sense); ``cost`` maps names to prices, ``None`` for no objective."""
    b = RowBuilder()
    col = {n: b.var(None, n, lb=lb, ub=ub) for n, (lb, ub) in bounds.items()}
    for label, terms, c, sense in rows:
        b.row(None, label, lin={col[n]: v for n, v in terms.items()}, sense=sense, const=c)
    if cost is not None:
        b.objective = ({col[n]: v for n, v in cost.items()}, {}, const)
    return MathModel("model", b)


FREE = (-INF, INF)


def test_minimal_lower_bound_example():
    m = lp_model({"x": FREE}, [("floor", {"x": 1.0}, -1.0, GE)], {"x": 1.0})
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.assignment["x"] == pytest.approx(1.0, abs=1e-12)
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_tie_broken_by_variable_order():
    m = lp_model(
        {"x": (0.0, INF), "y": (0.0, INF)},
        [("cap", {"x": 1.0, "y": 1.0}, -1.0, LE)],
        {"x": -1.0, "y": -1.0},
    )
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-12)
    # both vertices are optimal; the first-listed variable enters first
    assert res.assignment["x"] == pytest.approx(1.0, abs=1e-12)
    assert res.assignment["y"] == pytest.approx(0.0, abs=1e-12)


def test_infeasible_interval_yields_farkas_certificate():
    m = lp_model({"x": FREE}, [("hi", {"x": 1.0}, -1.0, LE), ("lo", {"x": 1.0}, -2.0, GE)])
    res = solve_lp(m)
    assert res.status == "infeasible"
    assert res.farkas is not None
    prob = problem_from_model(m)
    y = np.array([res.farkas[name] for name in prob.row_names])
    assert farkas_gap(prob, y) > 0.1
    assert res.farkas_gap > 0.1


def test_unbounded_detected():
    m = lp_model({"x": (0.0, INF)}, cost={"x": -1.0})
    res = solve_lp(m)
    assert res.status == "unbounded"


def test_upper_bounds_participate_in_ratio_test():
    # maximize x + 2y inside a box intersected with x + y <= 1.5
    m = lp_model(
        {"x": (0.0, 1.0), "y": (0.0, 1.0)},
        [("cap", {"x": 1.0, "y": 1.0}, -1.5, LE)],
        {"x": -1.0, "y": -2.0},
    )
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.assignment["y"] == pytest.approx(1.0, abs=1e-12)
    assert res.assignment["x"] == pytest.approx(0.5, abs=1e-12)
    assert res.objective == pytest.approx(-2.5, abs=1e-12)


def test_free_variable_equality():
    m = lp_model(
        {"x": FREE, "y": (0.0, INF)},
        [("link", {"x": 1.0, "y": -1.0}, 3.0, EQ)],
        {"x": 1.0, "y": 1.0},
    )
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.assignment["y"] == pytest.approx(0.0, abs=1e-12)
    assert res.assignment["x"] == pytest.approx(-3.0, abs=1e-12)


def test_beale_cycling_instance_terminates_optimal():
    # classic degenerate instance that cycles under naive Dantzig pricing
    a = np.array(
        [
            [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    res = solve_problem(equality_problem(a, b, c))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(vertex_enumeration_optimum(a, b, c), abs=1e-9)
    assert res.objective == pytest.approx(-0.77, abs=1e-9)


def test_objective_constant_carried_through():
    m = lp_model({"x": (2.0, 5.0)}, cost={"x": 1.0}, const=7.0)
    res = solve_lp(m)
    assert res.objective == pytest.approx(9.0, abs=1e-12)
    assert res.dual_objective == pytest.approx(9.0, abs=1e-9)


def test_fixed_variables_via_equal_bounds():
    m = lp_model(
        {"x": (1.5, 1.5), "y": (0.0, INF)},
        [("sum", {"x": 1.0, "y": 1.0}, -2.0, EQ)],
        {"x": -1.0, "y": 1.0},  # prices x, which is fixed and so never enters
    )
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.assignment["x"] == pytest.approx(1.5)
    assert res.assignment["y"] == pytest.approx(0.5)
    assert res.objective == pytest.approx(-1.0)
    assert res.iterations == 2  # the crash starts y basic, so phase 1 is one pass


def nonlinear_message(label: str) -> str:
    return f"^constraint '{label}' is not linear; the simplex solver accepts only linear models$"


def test_nonlinear_model_rejected():
    b = RowBuilder()
    x = b.var(None, "x")
    b.quad[b.row(None, "sq", sense=LE)] = {(x, x): 1.0}
    with pytest.raises(LpError, match=nonlinear_message("sq")):
        solve_lp(MathModel("model", b))
    b2 = RowBuilder()
    x = b2.var(None, "x", lb=0.0)
    b2.objective = ({}, {(x, x): 1.0}, 0.0)
    with pytest.raises(LpError, match="^objective has quadratic terms; the simplex solver is linear only$"):
        solve_lp(MathModel("model", b2))
    # the first non-linear row in row order is named, whatever its kind
    for order in (("sq", "cone"), ("cone", "sq")):
        b3 = RowBuilder()
        x, y = b3.var(None, "x"), b3.var(None, "y")
        b3.row(None, "lin", lin={x: 1.0, y: 1.0}, const=-1.0)
        for label in order:
            if label == "sq":
                b3.quad[b3.row(None, "sq", lin={y: 1.0}, sense=LE)] = {(x, x): 1.0}
            else:
                b3.cone(None, "cone", x=({x: 1.0}, 0.0), y=({y: 1.0}, 0.0), args=[({}, 1.0)])
        with pytest.raises(LpError, match=nonlinear_message(order[0])):
            solve_lp(MathModel("model", b3))
    # a relaxation's first cone row comes after its linear rows
    model = build_opf_socbfm(load_network("four_bus"))
    with pytest.raises(LpError, match=nonlinear_message("cone:tx1:1:1")):
        solve_lp(model)


def test_repeat_solve_is_deterministic():
    a, b, c = random_instance(77)
    r1 = solve_problem(equality_problem(a, b, c))
    r2 = solve_problem(equality_problem(a, b, c))
    assert r1.assignment == r2.assignment
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations


def test_iteration_limit_reported():
    a, b, c = random_instance(5)
    res = solve_problem(equality_problem(a, b, c), LpOptions(max_iterations=1))
    assert res.status == "iteration_limit"


def test_scaling_does_not_change_the_optimum():
    rng = np.random.default_rng(9)
    a, b, c = random_instance(9)
    # badly conditioned rescale of rows and columns
    rs = 10.0 ** rng.integers(-4, 5, size=8).astype(float)
    cs = 10.0 ** rng.integers(-4, 5, size=12).astype(float)
    a2 = a * rs[:, None]
    b2 = b * rs
    res_scaled = solve_problem(equality_problem(a2 * cs[None, :], b2, c * cs))
    res_plain = solve_problem(equality_problem(a, b, c))
    assert res_scaled.status == res_plain.status == "optimal"
    # x2 = x / cs maps between the two problems, objectives coincide
    assert res_scaled.objective == pytest.approx(res_plain.objective, rel=1e-7)


def dense_geometric_scaling(a: np.ndarray, passes: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the same power-of-two equilibration over a dense copy."""
    row, col = np.ones(a.shape[0]), np.ones(a.shape[1])
    work = np.abs(a)
    for _ in range(passes):
        for axis in (1, 0):
            nz = work > 0.0
            has = nz.any(axis=axis)
            hi = np.where(has, work.max(axis=axis), 1.0)
            lo = np.where(has, np.where(nz, work, np.inf).min(axis=axis), 1.0)
            s = np.sqrt(hi * lo)
            s[(~np.isfinite(s)) | (s == 0.0)] = 1.0
            s = np.exp2(np.round(np.log2(s)))
            if axis == 1:
                row /= s
                work = work / s[:, None]
            else:
                col /= s
                work = work / s[None, :]
    return row, col


def test_triplet_matrix_matches_dense_reference():
    # explicit zeros, repeated entries (two of which cancel), an empty row
    # and an empty column: the triplets must act as the dense [A | I | D]
    rng = np.random.default_rng(3)
    m, n = 7, 9
    rows = rng.integers(0, m - 1, size=40)
    cols = rng.integers(0, n - 1, size=40)
    vals = rng.normal(size=40) * 10.0 ** rng.integers(-3, 4, size=40)
    vals[:3] = 0.0
    rows = np.concatenate([rows, rows[3:8]])
    cols = np.concatenate([cols, cols[3:8]])
    vals = np.concatenate([vals, -vals[3:5], vals[5:8]])
    prob = equality_problem(np.zeros((m, n)), np.zeros(m), np.zeros(n))
    prob.a_rows, prob.a_cols, prob.a_vals = rows, cols, vals
    a = np.zeros((m, n))
    np.add.at(a, (rows, cols), vals)
    mat = _Matrix(prob)
    mat.art[[1, 4]] = [1.0, -1.0]
    art = np.zeros((m, m))
    art[[1, 4], [1, 4]] = [1.0, -1.0]
    full = np.hstack([a, np.eye(m), art])
    assert np.array_equal(mat.columns(np.arange(n + 2 * m)), full)
    x, y = rng.normal(size=n + 2 * m), rng.normal(size=m)
    np.testing.assert_allclose(mat.dot(x), full @ x, rtol=1e-12, atol=1e-10)
    np.testing.assert_allclose(mat.tdot(y), y @ full, rtol=1e-12, atol=1e-10)
    row_s, col_s = mat.scale()
    want_row, want_col = dense_geometric_scaling(a)
    assert np.array_equal(row_s, want_row) and np.array_equal(col_s, want_col)
    assert np.array_equal(mat.columns(np.arange(n)), a * row_s[:, None] * col_s[None, :])


def highs_objective(prob: LpProblem) -> float:
    from scipy.optimize import linprog

    a = np.zeros((prob.n_rows, prob.n_cols))
    np.add.at(a, (prob.a_rows, prob.a_cols), prob.a_vals)
    sign = np.array([{EQ: 0.0, GE: -1.0, LE: 1.0}[s] for s in prob.senses])
    eq = sign == 0.0
    res = linprog(
        prob.cost,
        A_ub=(a * sign[:, None])[~eq],
        b_ub=(prob.rhs * sign)[~eq],
        A_eq=a[eq],
        b_eq=prob.rhs[eq],
        bounds=np.column_stack([prob.lower, prob.upper]),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun) + prob.objective_const


def dispatch_problem(tmp_path, spec: FeederSpec, seed: int, periods: int = 0) -> LpProblem:
    """The LinDistFlow dispatch LP of a generated feeder; ``periods == 0`` is a
    snapshot, otherwise a seeded load and price profile over that horizon."""
    path = tmp_path / "feeder.dss"
    path.write_text(feeder_dss(random.Random(seed), spec, "gen"))
    ts = None
    if periods:
        rng = random.Random(f"{seed}:{periods}")
        ts = TimeSeries(
            dt_hours=1.0,
            load_scale=[rng.uniform(0.6, 1.2) for _ in range(periods)],
            gen_scale=[1.0] * periods,
            cost_scale=[rng.uniform(0.5, 2.0) for _ in range(periods)],
        )
    return problem_from_model(build_opf_lindistflow(from_dss(parse_file(path)), periods=ts))


def assert_matches_highs(prob: LpProblem, res) -> None:
    assert res.status == "optimal"
    want = highs_objective(prob)
    assert abs(res.objective - want) <= 1e-6 * max(1.0, abs(want))
    assert abs(res.objective - res.dual_objective) <= 1e-6


@pytest.mark.parametrize("periods", [2, 4])
@pytest.mark.parametrize("seed", range(5))
def test_storage_dispatch_matches_highs(seed, periods, tmp_path):
    spec = FeederSpec(trunk=9, laterals=0, kw_per_bus=(10.0, 40.0), storages=2)
    prob = dispatch_problem(tmp_path, spec, seed, periods)
    res = solve_problem(prob)
    assert 0 < res.phase1_iterations <= res.iterations
    assert_matches_highs(prob, res)


@pytest.mark.parametrize("seed", range(3))
def test_lateral_snapshot_matches_highs(seed, tmp_path):
    spec = FeederSpec(trunk=30, laterals=8, kw_per_bus=(5.0, 60.0))
    prob = dispatch_problem(tmp_path, spec, seed)
    res = solve_problem(prob)
    # every row is an equality of a radial feeder, so the triangular crash
    # picks a basic column for each and phase 1 finds nothing to do
    assert set(prob.senses) == {EQ}
    assert res.crash_rows == prob.n_rows
    assert res.phase1_iterations == 1
    assert_matches_highs(prob, res)


@pytest.mark.parametrize(
    "spec,seed,periods",
    [
        (FeederSpec(trunk=160, laterals=39, kw_per_bus=(40.0, 100.0)), 7, 0),
        (FeederSpec(trunk=19, laterals=0, kw_per_bus=(10.0, 40.0), storages=2), 0, 8),
    ],
    ids=["200-bus-snapshot", "20-bus-8-periods"],
)
def test_dispatch_at_scale_matches_highs(spec, seed, periods, tmp_path):
    prob = dispatch_problem(tmp_path, spec, seed, periods)
    assert_matches_highs(prob, solve_problem(prob))


def test_crash_pick_clamped_at_bound_matches_vertex_enumeration():
    # no row singleton; column singletons x0 (row 0) then x1 (row 1), which
    # solve in reverse: x1 = 3 takes all of row 1, then x0 = 2 - 3 clamps at
    # its lower bound 0 and row 0's artificial starts basic on the remainder
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([2.0, 3.0])
    c = np.array([1.0, 1.0, 2.0])
    res = solve_problem(equality_problem(a, b, c))
    assert res.status == "optimal"
    assert res.crash_rows == 1
    assert res.phase1_iterations > 1
    assert res.objective == pytest.approx(vertex_enumeration_optimum(a, b, c), abs=1e-12)
    assert res.objective == pytest.approx(4.0, abs=1e-12)


def test_infeasible_rows_covered_by_crash_yield_farkas_certificate():
    # row 1 is a singleton that fixes y = 2; row 0 then picks x, which needs
    # x = 1 but clamps at 0.5, and no pivot can close the gap
    m = lp_model(
        {"x": (0.0, 0.5), "y": (0.0, INF)},
        [("sum", {"x": 1.0, "y": 1.0}, -3.0, EQ), ("fix", {"y": 1.0}, -2.0, EQ)],
    )
    res = solve_lp(m)
    assert res.status == "infeasible"
    assert res.crash_rows == 1
    assert res.farkas_gap > 0
    prob = problem_from_model(m)
    y = np.array([res.farkas[name] for name in prob.row_names])
    assert farkas_gap(prob, y) == pytest.approx(0.5)
