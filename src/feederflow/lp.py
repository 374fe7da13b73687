"""Two-phase bounded-variable simplex for linear math models.

Dense revised simplex maintaining an explicit basis inverse with
product-form updates and periodic refactorization. Phase 1 drives
artificial variables out through the same pivoting machinery; phase 2
optimizes the true cost with the artificials fixed at zero. Dantzig
pricing runs until the objective stalls, then Bland's rule takes over to
guarantee termination. Rows and columns are equilibrated by geometric-mean
scaling (rounded to powers of two, so no rounding noise enters the data)
before the solve; scaling changes the pivot path but not the optimum, and
all reported values are unscaled.

Declared infeasibility carries the phase-1 dual vector as a Farkas
certificate; :func:`farkas_gap` evaluates how strictly it separates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mathir import EQ, GE, LE, LinearCon, MathModel

INF = float("inf")

FEASIBILITY_TOL = 1e-8  # phase-1 objective above this declares infeasibility
OPTIMALITY_TOL = 1e-9  # reduced cost a column needs to enter the basis
REFACTOR_EVERY = 100  # product-form updates between basis refactorizations
STALL_ITERATIONS = 50  # non-improving pivots before Bland's rule takes over


class LpError(ValueError):
    pass


@dataclass
class LpOptions:
    max_iterations: int = 50000


@dataclass
class LpProblem:
    """Standard-form data lifted from a linear math model."""

    var_names: list[str]
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_names: list[str]
    senses: list[str]
    rhs: np.ndarray
    a_rows: np.ndarray  # triplet encoding of the coefficient matrix
    a_cols: np.ndarray
    a_vals: np.ndarray
    objective_const: float = 0.0

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def n_cols(self) -> int:
        return len(self.var_names)

    def dense(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_cols))
        np.add.at(a, (self.a_rows, self.a_cols), self.a_vals)
        return a


@dataclass
class LpResult:
    status: str  # "optimal", "infeasible", "unbounded", "iteration_limit"
    assignment: dict[str, float] = field(default_factory=dict)
    objective: float = float("nan")
    dual_objective: float = float("nan")
    duals: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    farkas: dict[str, float] | None = None
    farkas_gap: float = 0.0
    message: str = ""


def problem_from_model(model: MathModel) -> LpProblem:
    """Extract standard-form LP data; any nonlinearity is an error."""
    for con in model.constraints:
        if not isinstance(con, LinearCon):
            raise LpError(
                f"constraint {con.label!r} is not linear; the simplex solver "
                f"accepts only linear models"
            )
    obj_const = 0.0
    cost_map: dict[str, float] = {}
    if model.objective is not None:
        if model.objective.quad:
            raise LpError("objective has quadratic terms; the simplex solver is linear only")
        cost_map = dict(model.objective.lin)
        obj_const = model.objective.const

    var_names = list(model.variables)
    index = {n: j for j, n in enumerate(var_names)}
    lower = np.array([model.variables[n].lb for n in var_names], dtype=float)
    upper = np.array([model.variables[n].ub for n in var_names], dtype=float)
    cost = np.zeros(len(var_names))
    for n, c in cost_map.items():
        cost[index[n]] = c

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    row_names: list[str] = []
    senses: list[str] = []
    rhs: list[float] = []
    for con in model.constraints:
        i = len(row_names)
        row_names.append(con.label)
        senses.append(con.sense)
        rhs.append(-con.expr.const)
        for v, c in con.expr.coeffs.items():
            rows.append(i)
            cols.append(index[v])
            vals.append(c)
    return LpProblem(
        var_names=var_names,
        cost=cost,
        lower=lower,
        upper=upper,
        row_names=row_names,
        senses=senses,
        rhs=np.array(rhs, dtype=float),
        a_rows=np.array(rows, dtype=int),
        a_cols=np.array(cols, dtype=int),
        a_vals=np.array(vals, dtype=float),
        objective_const=obj_const,
    )


def _geometric_scaling(a: np.ndarray, passes: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Row/column factors equalizing magnitude spread, as powers of two."""
    m, n = a.shape
    row = np.ones(m)
    col = np.ones(n)
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


class _Simplex:
    """Bounded-variable revised simplex over the scaled equality form."""

    AT_LOWER, AT_UPPER, FREE = 0, 1, 2

    def __init__(self, a: np.ndarray, b: np.ndarray, lower: np.ndarray, upper: np.ndarray, opts: LpOptions):
        self.a = a
        self.b = b
        self.lower = lower
        self.upper = upper
        self.opts = opts
        self.m, self.n = a.shape
        self.basis: list[int] = []
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.nb_state = np.zeros(self.n, dtype=int)
        self.x = np.zeros(self.n)
        self.binv = np.eye(self.m)
        self.pivots_since_refactor = 0
        self.iterations = 0

    def refactor(self) -> None:
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.pivots_since_refactor = 0

    def update_binv(self, d: np.ndarray, row: int) -> None:
        piv_row = self.binv[row] / d[row]
        corr = np.outer(d, piv_row)
        corr[row] = 0.0
        self.binv -= corr
        self.binv[row] = piv_row
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            self.refactor()

    def recompute_basics(self) -> None:
        nb = ~self.in_basis
        rhs = self.b - self.a[:, nb] @ self.x[nb]
        self.x[self.basis] = self.binv @ rhs

    def run(self, cost: np.ndarray, allow_unbounded: bool) -> str:
        opts = self.opts
        stall = 0
        bland = False
        last_obj = INF
        while True:
            if self.iterations >= opts.max_iterations:
                return "iteration_limit"
            self.iterations += 1

            y = cost[self.basis] @ self.binv
            rc = cost - y @ self.a

            eligible: list[tuple[int, float, float]] = []  # (col, direction, score)
            for j in range(self.n):
                if self.in_basis[j]:
                    continue
                state = self.nb_state[j]
                if state == self.AT_LOWER and rc[j] < -OPTIMALITY_TOL:
                    eligible.append((j, 1.0, -rc[j]))
                elif state == self.AT_UPPER and rc[j] > OPTIMALITY_TOL:
                    eligible.append((j, -1.0, rc[j]))
                elif state == self.FREE and abs(rc[j]) > OPTIMALITY_TOL:
                    eligible.append((j, 1.0 if rc[j] < 0 else -1.0, abs(rc[j])))
            if not eligible:
                return "optimal"

            if bland:
                enter, direction, _ = min(eligible, key=lambda e: e[0])
            else:
                enter, direction, _ = max(eligible, key=lambda e: (e[2], -e[0]))

            d = self.binv @ self.a[:, enter]

            # ratio test: smallest step that parks a basic variable (or the
            # entering variable itself) at a bound; ties to the lowest column
            best_t = self.upper[enter] - self.lower[enter]  # bound-to-bound swap
            leave_pos = -1
            leave_to_upper = False
            for i, col in enumerate(self.basis):
                delta = -direction * d[i]
                if delta > 1e-11:
                    if not np.isfinite(self.upper[col]):
                        continue
                    room = (self.upper[col] - self.x[col]) / delta
                    to_upper = True
                elif delta < -1e-11:
                    if not np.isfinite(self.lower[col]):
                        continue
                    room = (self.lower[col] - self.x[col]) / delta
                    to_upper = False
                else:
                    continue
                room = max(room, 0.0)
                if room < best_t - 1e-12 or (
                    abs(room - best_t) <= 1e-12
                    and leave_pos >= 0
                    and col < self.basis[leave_pos]
                ):
                    best_t = room
                    leave_pos = i
                    leave_to_upper = to_upper

            if not np.isfinite(best_t):
                if allow_unbounded:
                    return "unbounded"
                raise LpError("phase-1 subproblem unbounded; inconsistent internal model")

            self.x[enter] += direction * best_t
            for i, col in enumerate(self.basis):
                self.x[col] -= direction * best_t * d[i]

            if leave_pos < 0:
                self.nb_state[enter] = (
                    self.AT_UPPER if self.nb_state[enter] == self.AT_LOWER else self.AT_LOWER
                )
            else:
                leave = self.basis[leave_pos]
                self.in_basis[leave] = False
                if leave_to_upper:
                    self.x[leave] = self.upper[leave]
                    self.nb_state[leave] = self.AT_UPPER
                else:
                    self.x[leave] = self.lower[leave]
                    self.nb_state[leave] = self.AT_LOWER
                self.basis[leave_pos] = enter
                self.in_basis[enter] = True
                self.update_binv(d, leave_pos)
            self.recompute_basics()

            obj = float(cost @ self.x)
            if obj < last_obj - 1e-12:
                stall = 0
            else:
                stall += 1
                if stall >= STALL_ITERATIONS:
                    bland = True
            last_obj = obj


def solve_lp(model: MathModel, opts: LpOptions | None = None) -> LpResult:
    """Solve a linear math model to a vertex optimum.

    Raises :class:`LpError` if the model has any nonlinear constraint or a
    quadratic objective. Infeasible and unbounded instances never raise;
    they come back in ``status``, with a Farkas certificate on infeasible.
    """
    opts = opts or LpOptions()
    return solve_problem(problem_from_model(model), opts)


def solve_problem(prob: LpProblem, opts: LpOptions | None = None) -> LpResult:
    opts = opts or LpOptions()
    m, n = prob.n_rows, prob.n_cols
    a_struct = prob.dense()

    if m > 0 and n > 0 and len(prob.a_vals):
        row_s, col_s = _geometric_scaling(a_struct)
    else:
        row_s, col_s = np.ones(m), np.ones(n)

    a = a_struct * row_s[:, None] * col_s[None, :]
    b = prob.rhs * row_s
    cost = prob.cost * col_s
    lower = np.where(np.isfinite(prob.lower), prob.lower / col_s, prob.lower)
    upper = np.where(np.isfinite(prob.upper), prob.upper / col_s, prob.upper)

    # slack per row: pinned at zero for EQ, one-sided otherwise
    slack_lower = np.zeros(m)
    slack_upper = np.zeros(m)
    for i, sense in enumerate(prob.senses):
        if sense == LE:
            slack_upper[i] = INF
        elif sense == GE:
            slack_lower[i] = -INF
        elif sense != EQ:
            raise LpError(f"row {prob.row_names[i]!r}: unknown sense {sense!r}")

    total = n + 2 * m  # structural + slack + artificial
    a_full = np.zeros((m, total))
    a_full[:, :n] = a
    a_full[:, n : n + m] = np.eye(m)
    lower_full = np.concatenate([lower, slack_lower, np.zeros(m)])
    upper_full = np.concatenate([upper, slack_upper, np.zeros(m)])

    sx = _Simplex(a_full, b, lower_full, upper_full, opts)

    for j in range(n):
        if np.isfinite(lower_full[j]):
            sx.x[j] = lower_full[j]
            sx.nb_state[j] = _Simplex.AT_LOWER
        elif np.isfinite(upper_full[j]):
            sx.x[j] = upper_full[j]
            sx.nb_state[j] = _Simplex.AT_UPPER
        else:
            sx.x[j] = 0.0
            sx.nb_state[j] = _Simplex.FREE

    resid = b - a @ sx.x[:n]
    phase1_cost = np.zeros(total)
    for i in range(m):
        s_val = float(np.clip(resid[i], slack_lower[i], slack_upper[i]))
        gap = resid[i] - s_val
        if gap == 0.0:
            sx.basis.append(n + i)
            sx.in_basis[n + i] = True
            sx.x[n + i] = resid[i]
        else:
            sx.x[n + i] = s_val
            sx.nb_state[n + i] = (
                _Simplex.AT_UPPER if s_val == slack_upper[i] else _Simplex.AT_LOWER
            )
            art = n + m + i
            a_full[i, art] = 1.0 if gap >= 0 else -1.0
            upper_full[art] = INF
            sx.basis.append(art)
            sx.in_basis[art] = True
            sx.x[art] = abs(gap)
            phase1_cost[art] = 1.0
    sx.refactor()

    status = sx.run(phase1_cost, allow_unbounded=False)
    if status == "iteration_limit":
        return LpResult(status="iteration_limit", iterations=sx.iterations, message="phase 1")
    phase1_obj = float(phase1_cost @ sx.x)
    if phase1_obj > FEASIBILITY_TOL:
        y = phase1_cost[sx.basis] @ sx.binv
        y_unscaled = y * row_s
        gap = farkas_gap(prob, y_unscaled)
        return LpResult(
            status="infeasible",
            iterations=sx.iterations,
            farkas={prob.row_names[i]: float(y_unscaled[i]) for i in range(m)},
            farkas_gap=gap,
            message=f"phase-1 objective {phase1_obj:.3e}",
        )

    # lock artificials at zero; basic ones may linger at value zero
    for i in range(m):
        art = n + m + i
        upper_full[art] = 0.0
        if not sx.in_basis[art]:
            sx.x[art] = 0.0
            sx.nb_state[art] = _Simplex.AT_LOWER

    phase2_cost = np.concatenate([cost, np.zeros(2 * m)])
    status = sx.run(phase2_cost, allow_unbounded=True)
    if status == "iteration_limit":
        return LpResult(status="iteration_limit", iterations=sx.iterations, message="phase 2")
    if status == "unbounded":
        return LpResult(status="unbounded", iterations=sx.iterations)

    x = sx.x[:n] * col_s
    y = phase2_cost[sx.basis] @ sx.binv
    y_unscaled = y * row_s

    # dual objective for the bounded form: y'b plus reduced costs at bounds
    rc = prob.cost - y_unscaled @ a_struct
    dual_obj = float(y_unscaled @ prob.rhs)
    for j in range(n):
        if rc[j] > 0 and np.isfinite(prob.lower[j]):
            dual_obj += rc[j] * prob.lower[j]
        elif rc[j] < 0 and np.isfinite(prob.upper[j]):
            dual_obj += rc[j] * prob.upper[j]
    # inequality slacks have zero cost and a zero finite bound, adding nothing

    assignment = {prob.var_names[j]: float(x[j]) for j in range(n)}
    return LpResult(
        status="optimal",
        assignment=assignment,
        objective=float(prob.cost @ x + prob.objective_const),
        dual_objective=dual_obj + prob.objective_const,
        duals={prob.row_names[i]: float(y_unscaled[i]) for i in range(m)},
        iterations=sx.iterations,
    )


def farkas_gap(prob: LpProblem, y: np.ndarray) -> float:
    """How strictly a dual vector certifies infeasibility.

    Clamps multipliers of inequality rows into their admissible sign cone,
    then returns ``y'rhs - sup_x y'Ax`` over the variable box. A positive
    value proves the constraint system empty; -inf means the vector fails to
    certify (an unbounded coefficient meets an unbounded variable).
    """
    y = np.asarray(y, dtype=float).copy()
    for i, sense in enumerate(prob.senses):
        if sense == LE:
            y[i] = min(y[i], 0.0)
        elif sense == GE:
            y[i] = max(y[i], 0.0)
    yta = y @ prob.dense()
    coef_tol = 1e-11 * max(1.0, float(np.max(np.abs(yta))) if yta.size else 1.0)
    bound = 0.0
    for j in range(prob.n_cols):
        c = yta[j]
        if abs(c) <= coef_tol:
            continue
        if c > 0:
            if not np.isfinite(prob.upper[j]):
                return -INF
            bound += c * prob.upper[j]
        else:
            if not np.isfinite(prob.lower[j]):
                return -INF
            bound += c * prob.lower[j]
    return float(y @ prob.rhs - bound)
