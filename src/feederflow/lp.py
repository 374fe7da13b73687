"""Two-phase bounded-variable simplex for linear math models.

Revised simplex over ``[A | I | D]``: ``A`` is kept once, as column-sorted
triplets multiplied through ``np.bincount``, beside a unit slack and a
signed artificial per row; only the m x m basis inverse is dense, with
product-form updates and periodic refactorization. Phase 1 drives
artificial variables out through the same pivoting machinery; phase 2
optimizes the true cost with the artificials fixed at zero. Dantzig
pricing runs until the objective stalls, then Bland's rule takes over to
guarantee termination. Rows and columns are equilibrated by geometric-mean
scaling (rounded to powers of two, so no rounding noise enters the data)
before the solve; scaling changes the pivot path but not the optimum, and
all reported values are unscaled.

The start basis is a triangular crash over the equality rows: each picked
column takes what it can of its row's residual within its bounds, and every
other row's slack does the same; a signed artificial starts basic on any
remainder. A radial LinDistFlow feeder is triangular in its flows and
voltages, so there phase 1 has nothing to do unless a bound is hit.

Each iteration is whole-array work: pricing is a mask over the reduced
costs and the ratio test one division over the basic rows, both breaking
ties toward the lowest column. A fixed column (``lower == upper``, as the
slack of an equality row) is never priced. Basic values are stepped along
the pivot direction and recomputed from the basis inverse only after a
refactorization and at each phase's optimum.

Declared infeasibility carries the phase-1 dual vector as a Farkas
certificate; :func:`farkas_gap` evaluates how strictly it separates.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .mathir import EQ, GE, LE, MathModel

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


@dataclass
class LpResult:
    status: str  # "optimal", "infeasible", "unbounded", "iteration_limit"
    assignment: dict[str, float] = field(default_factory=dict)
    objective: float = float("nan")
    dual_objective: float = float("nan")
    duals: dict[str, float] = field(default_factory=dict)
    iterations: int = 0  # pricing passes, both phases together
    phase1_iterations: int = 0  # the part of ``iterations`` spent in phase 1
    refactors: int = 0  # basis inversions from scratch, the first one included
    bland: bool = False  # whether Bland's rule took over from Dantzig pricing
    crash_rows: int = 0  # rows whose starting basic column is a crash pick
    farkas: dict[str, float] | None = None
    farkas_gap: float = 0.0
    message: str = ""


def problem_from_model(model: MathModel) -> LpProblem:
    """Standard-form LP data lifted from the model's builder: the rows by
    :meth:`~feederflow.mathir.RowBuilder.arrays`, the bounds and cost from
    its columns. Any nonlinearity is an error; a nonlinear row is named by
    the first in row order."""
    rows = model.rows
    first = next((i for i in range(len(model.labels)) if model.kind(i) != "linear"), None)
    if first is not None:
        raise LpError(
            f"constraint {model.labels[first]!r} is not linear; the simplex solver "
            f"accepts only linear models"
        )
    cost, quad, obj_const = rows.objective or ({}, {}, 0.0)
    if quad:
        raise LpError("objective has quadratic terms; the simplex solver is linear only")
    consts, (a_rows, a_cols, a_vals), _ = rows.arrays()
    return LpProblem(
        var_names=model.names,
        cost=np.array([cost.get(j, 0.0) for j in range(len(model.names))], dtype=float),
        lower=np.array(rows.lb, dtype=float),
        upper=np.array(rows.ub, dtype=float),
        row_names=model.labels,
        senses=rows.sense,
        rhs=-consts,
        a_rows=a_rows,
        a_cols=a_cols,
        a_vals=a_vals,
        objective_const=obj_const,
    )


class _Matrix:
    """``[A | I | D]`` as column-sorted triplets: the nonzeros of ``A`` (repeats
    summed), a unit slack per row, then each row's artificial, signed in ``art``."""

    def __init__(self, prob: LpProblem):
        m, n = prob.n_rows, prob.n_cols
        key, at = np.unique(prob.a_cols * m + prob.a_rows, return_inverse=True)
        vals = np.bincount(at, weights=prob.a_vals, minlength=len(key))
        nz, unit = vals != 0.0, np.arange(m)
        cols, rows = np.divmod(key[nz], max(m, 1))
        self.m, self.n, self.nnz = m, n, len(rows)
        self.rows = np.concatenate([rows, unit, unit])
        self.cols = np.concatenate([cols, n + unit, n + m + unit])
        self.vals = np.concatenate([vals[nz], np.ones(m), np.zeros(m)])
        self.art = self.vals[self.nnz + m :]

    def dot(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.m)

    def tdot(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, weights=y[self.rows] * self.vals, minlength=self.n + 2 * self.m)

    def columns(self, js) -> np.ndarray:
        """The dense ``m x len(js)`` block of columns ``js``."""
        pos = np.full(self.n + 2 * self.m, -1)
        pos[js] = np.arange(len(js))
        use = pos[self.cols] >= 0
        block = np.zeros((self.m, len(js)))
        block[self.rows[use], pos[self.cols[use]]] = self.vals[use]
        return block

    def scale(self, passes: int = 3) -> tuple[np.ndarray, np.ndarray]:
        """Equalize the magnitude spread of ``A`` in place by power-of-two
        row and column factors, and return them."""
        a = slice(0, self.nnz)
        factors = np.ones(self.m), np.ones(self.n)
        work = np.abs(self.vals[a])
        for _ in range(passes):
            for idx, f in zip((self.rows[a], self.cols[a]), factors):
                hi, lo = np.zeros(len(f)), np.full(len(f), INF)
                np.maximum.at(hi, idx, work)
                np.minimum.at(lo, idx, work)
                with np.errstate(invalid="ignore"):  # 0 * inf on an empty line
                    s = np.sqrt(hi * lo)
                s[(~np.isfinite(s)) | (s == 0.0)] = 1.0
                s = np.exp2(np.round(np.log2(s)))
                f /= s
                work = work / s[idx]
        self.vals[a] = self.vals[a] * factors[0][self.rows[a]] * factors[1][self.cols[a]]
        return factors


class _Simplex:
    """Bounded-variable revised simplex over the scaled equality form."""

    AT_LOWER, AT_UPPER, FREE = 0, 1, 2

    def __init__(self, a: _Matrix, b: np.ndarray, lower: np.ndarray, upper: np.ndarray, opts: LpOptions):
        self.a = a
        self.b = b
        self.lower = lower
        self.upper = upper
        self.opts = opts
        self.m, self.n = len(b), len(lower)
        self.basis = np.zeros(self.m, dtype=int)
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.nb_state = np.zeros(self.n, dtype=int)
        self.x = np.zeros(self.n)
        self.binv = np.zeros((0, 0))  # set by refactor()
        self.pivots_since_refactor = 0
        self.iterations = 0
        self.refactors = 0
        self.bland = False  # set once Bland's rule has taken over in either phase

    def refactor(self) -> None:
        self.binv = np.linalg.inv(self.a.columns(self.basis))
        self.pivots_since_refactor = 0
        self.refactors += 1

    def update_binv(self, d: np.ndarray, row: int) -> None:
        piv_row = self.binv[row] / d[row]
        for s in range(0, self.m, 128):  # row blocks keep each outer product in cache
            self.binv[s : s + 128] -= np.outer(d[s : s + 128], piv_row)
        self.binv[row] = piv_row
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            self.refactor()
            self.recompute_basics()

    def recompute_basics(self) -> None:
        rhs = self.b - self.a.dot(np.where(self.in_basis, 0.0, self.x))
        self.x[self.basis] = self.binv @ rhs

    def run(self, cost: np.ndarray, allow_unbounded: bool) -> str:
        stall = 0
        bland = False
        last_obj = INF
        while True:
            if self.iterations >= self.opts.max_iterations:
                return "iteration_limit"
            self.iterations += 1

            y = cost[self.basis] @ self.binv
            rc = cost - self.a.tdot(y)
            nonbasic = ~self.in_basis & (self.lower < self.upper)  # fixed columns never move
            up = nonbasic & (self.nb_state != self.AT_UPPER) & (rc < -OPTIMALITY_TOL)
            down = nonbasic & (self.nb_state != self.AT_LOWER) & (rc > OPTIMALITY_TOL)
            eligible = up | down
            if not eligible.any():
                self.recompute_basics()
                return "optimal"
            # argmax returns the first maximum: ties go to the lowest column
            if bland:
                enter = int(np.argmax(eligible))
            else:
                enter = int(np.argmax(np.where(eligible, np.abs(rc), -1.0)))
            direction = 1.0 if up[enter] else -1.0

            d = self.binv @ self.a.columns([enter])[:, 0]

            # ratio test: smallest step that parks a basic variable at a bound;
            # the entering variable's own bound-to-bound swap wins unless some
            # row is smaller by more than 1e-12, and near-ties go to the lowest
            # column
            delta = -direction * d
            bound = np.where(delta > 0, self.upper[self.basis], self.lower[self.basis])
            limited = (np.abs(delta) > 1e-11) & np.isfinite(bound)
            room = np.full(self.m, INF)
            np.divide(bound - self.x[self.basis], delta, out=room, where=limited)
            np.maximum(room, 0.0, out=room)
            t = self.upper[enter] - self.lower[enter]
            leave_pos = -1
            t_min = room.min(initial=INF)
            if t_min < t - 1e-12:
                near = np.flatnonzero(room <= t_min + 1e-12)
                leave_pos = int(near[np.argmin(self.basis[near])])
                t = room[leave_pos]

            if not np.isfinite(t):
                if allow_unbounded:
                    return "unbounded"
                raise LpError("phase-1 subproblem unbounded; inconsistent internal model")

            self.x[enter] += direction * t
            self.x[self.basis] -= direction * t * d

            if leave_pos < 0:
                self.nb_state[enter] = (
                    self.AT_UPPER if self.nb_state[enter] == self.AT_LOWER else self.AT_LOWER
                )
            else:
                leave = self.basis[leave_pos]
                self.in_basis[leave] = False
                if delta[leave_pos] > 0:
                    self.x[leave] = self.upper[leave]
                    self.nb_state[leave] = self.AT_UPPER
                else:
                    self.x[leave] = self.lower[leave]
                    self.nb_state[leave] = self.AT_LOWER
                self.basis[leave_pos] = enter
                self.in_basis[enter] = True
                self.update_binv(d, leave_pos)

            obj = float(cost @ self.x)
            if obj < last_obj - 1e-12:
                stall = 0
            else:
                stall += 1
                if stall >= STALL_ITERATIONS:
                    bland = self.bland = True
            last_obj = obj


def _crash(a: _Matrix, row_ok: np.ndarray, col_ok: np.ndarray) -> list[int]:
    """Triangular crash (Bixby, ORSA J. Computing 1992) over the entries of
    ``A`` in rows ``row_ok`` and columns ``col_ok``: row singletons, then
    column singletons. Returns the picked entries in the order their rows
    solve: row picks as picked, then column picks in reverse."""
    r, c = a.rows[: a.nnz], a.cols[: a.nnz]
    ent = np.flatnonzero(row_ok[r] & col_ok[c])
    by_row = _singletons(r, c, ent, row_ok, col_ok)  # retires rows and columns in place
    return by_row + _singletons(c, r, ent, col_ok, row_ok)[::-1]


def _singletons(line, other, ent, line_live, other_live) -> list[int]:
    """Repeatedly take the lowest live line with one live entry among ``ent``,
    retire the line and that entry's other index; return the entries taken."""
    ent = ent[line_live[line[ent]] & other_live[other[ent]]]
    count = np.bincount(line[ent], minlength=len(line_live))
    # once a line's count is 1, its index sum over live entries is that entry
    left = np.bincount(line[ent], weights=ent, minlength=len(line_live)).astype(int).tolist()
    by_other = ent[np.argsort(other[ent], kind="stable")].tolist()
    ptr = [0] + np.cumsum(np.bincount(other[ent], minlength=len(other_live))).tolist()
    heap = np.flatnonzero(count == 1).tolist()  # sorted, so already a heap
    count, line_of, other_of = count.tolist(), line.tolist(), other.tolist()
    taken = []
    while heap:
        i = heapq.heappop(heap)
        if count[i] != 1:
            continue
        taken.append(left[i])
        count[i] = 0
        j = other_of[left[i]]
        for e in by_other[ptr[j] : ptr[j + 1]]:
            l = line_of[e]
            if count[l] > 0:
                count[l] -= 1
                left[l] -= e
                if count[l] == 1:
                    heapq.heappush(heap, l)
    line_live[line[taken]] = other_live[other[taken]] = False
    return taken


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
    a = _Matrix(prob)
    row_s, col_s = a.scale()
    b = prob.rhs * row_s
    cost = prob.cost * col_s
    lower = np.where(np.isfinite(prob.lower), prob.lower / col_s, prob.lower)
    upper = np.where(np.isfinite(prob.upper), prob.upper / col_s, prob.upper)

    # slack per row: pinned at zero for EQ, one-sided otherwise
    senses = np.array(prob.senses, dtype=str)
    unknown = np.flatnonzero(~np.isin(senses, (EQ, LE, GE)))
    if len(unknown):
        i = int(unknown[0])
        raise LpError(f"row {prob.row_names[i]!r}: unknown sense {prob.senses[i]!r}")
    slack_lower = np.where(senses == GE, -INF, 0.0)
    slack_upper = np.where(senses == LE, INF, 0.0)

    slack = n + np.arange(m)  # column order: structurals, slacks, artificials
    art = slack + m
    lower_full = np.concatenate([lower, slack_lower, np.zeros(m)])
    upper_full = np.concatenate([upper, slack_upper, np.zeros(m)])

    sx = _Simplex(a, b, lower_full, upper_full, opts)

    # structurals start at a finite bound, lower first, else at zero (free)
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    sx.x[:n] = np.where(has_lower, lower, np.where(has_upper, upper, 0.0))
    sx.nb_state[:n] = np.where(
        has_lower, _Simplex.AT_LOWER, np.where(has_upper, _Simplex.AT_UPPER, _Simplex.FREE)
    )

    # walk the crash picks in solve order: each takes what it can of its
    # row's residual within its bounds and is basic unless a bound clamps it
    resid = (b - a.dot(sx.x)).tolist()  # slacks and artificials are still zero
    crash_col = np.full(m, -1)
    ptr = np.searchsorted(a.cols[: a.nnz], np.arange(n + 1)).tolist()
    x, lo, hi = sx.x[:n].tolist(), lower.tolist(), upper.tolist()
    rows, cols, vals = (v[: a.nnz].tolist() for v in (a.rows, a.cols, a.vals))
    for k in _crash(a, senses == EQ, lower < upper):
        r, c = rows[k], cols[k]
        want = x[c] + resid[r] / vals[k]
        take = min(max(want, lo[c]), hi[c])
        for e in range(ptr[c], ptr[c + 1]):
            resid[rows[e]] -= vals[e] * (take - x[c])
        x[c] = take
        if take == want:
            crash_col[r] = c
        else:
            sx.nb_state[c] = _Simplex.AT_UPPER if take == hi[c] else _Simplex.AT_LOWER
    sx.x[:n], resid = x, np.array(resid)
    covered = crash_col >= 0

    # every other row's slack absorbs what it can of the residual; an
    # artificial signed to the remainder starts basic wherever it falls short
    s_val = np.clip(resid, slack_lower, slack_upper)
    gap = resid - s_val
    short = (gap != 0.0) & ~covered
    sx.basis = np.where(covered, crash_col, np.where(short, art, slack))
    sx.in_basis[sx.basis] = True
    sx.x[slack] = s_val
    sx.nb_state[slack[short]] = np.where(
        s_val[short] == slack_upper[short], _Simplex.AT_UPPER, _Simplex.AT_LOWER
    )
    a.art[short] = np.where(gap[short] >= 0, 1.0, -1.0)
    upper_full[art[short]] = INF
    sx.x[art[short]] = np.abs(gap[short])
    phase1_cost = np.zeros(n + 2 * m)
    phase1_cost[art[short]] = 1.0
    sx.refactor()

    status = sx.run(phase1_cost, allow_unbounded=False)
    phase1_iterations = sx.iterations

    def result(status: str, **kv) -> LpResult:
        return LpResult(
            status=status,
            iterations=sx.iterations,
            phase1_iterations=phase1_iterations,
            refactors=sx.refactors,
            bland=sx.bland,
            crash_rows=int(covered.sum()),
            **kv,
        )

    if status == "iteration_limit":
        return result("iteration_limit", message="phase 1")
    phase1_obj = float(phase1_cost @ sx.x)
    if phase1_obj > FEASIBILITY_TOL:
        y = phase1_cost[sx.basis] @ sx.binv
        y_unscaled = y * row_s
        gap = farkas_gap(prob, y_unscaled)
        return result(
            "infeasible",
            farkas={prob.row_names[i]: float(y_unscaled[i]) for i in range(m)},
            farkas_gap=gap,
            message=f"phase-1 objective {phase1_obj:.3e}",
        )

    # lock artificials at zero; basic ones may linger at value zero
    upper_full[art] = 0.0
    out = art[~sx.in_basis[art]]
    sx.x[out] = 0.0
    sx.nb_state[out] = _Simplex.AT_LOWER

    phase2_cost = np.concatenate([cost, np.zeros(2 * m)])
    status = sx.run(phase2_cost, allow_unbounded=True)
    if status == "iteration_limit":
        return result("iteration_limit", message="phase 2")
    if status == "unbounded":
        return result("unbounded")

    x = sx.x[:n] * col_s
    y = phase2_cost[sx.basis] @ sx.binv
    y_unscaled = y * row_s

    # dual objective for the bounded form: y'b plus reduced costs at bounds;
    # inequality slacks have zero cost and a zero finite bound, adding nothing
    rc = prob.cost - a.tdot(y)[:n] / col_s  # power-of-two factors unscale exactly
    at = np.where(rc > 0, prob.lower, prob.upper)
    use = ((rc > 0) | (rc < 0)) & np.isfinite(at)
    dual_obj = _sum_in_order(float(y_unscaled @ prob.rhs), rc[use] * at[use])

    assignment = {prob.var_names[j]: float(x[j]) for j in range(n)}
    return result(
        "optimal",
        assignment=assignment,
        objective=float(prob.cost @ x + prob.objective_const),
        dual_objective=dual_obj + prob.objective_const,
        duals={prob.row_names[i]: float(y_unscaled[i]) for i in range(m)},
    )


def _sum_in_order(start: float, terms: np.ndarray) -> float:
    """Left-to-right sum, rounded step by step as a Python loop would."""
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


def farkas_gap(prob: LpProblem, y: np.ndarray) -> float:
    """How strictly a dual vector certifies infeasibility.

    Clamps multipliers of inequality rows into their admissible sign cone,
    then returns ``y'rhs - sup_x y'Ax`` over the variable box. A positive
    value proves the constraint system empty; -inf means the vector fails to
    certify (an unbounded coefficient meets an unbounded variable).
    """
    y = np.asarray(y, dtype=float)
    senses = np.array(prob.senses, dtype=str)
    y = np.where(senses == LE, np.minimum(y, 0.0), np.where(senses == GE, np.maximum(y, 0.0), y))
    yta = _Matrix(prob).tdot(y)[: prob.n_cols]
    coef_tol = 1e-11 * max(1.0, float(np.max(np.abs(yta))) if yta.size else 1.0)
    use = ~(np.abs(yta) <= coef_tol)
    at = np.where(yta > 0, prob.upper, prob.lower)[use]
    if not np.isfinite(at).all():
        return -INF
    return float(y @ prob.rhs - _sum_in_order(0.0, yta[use] * at))
