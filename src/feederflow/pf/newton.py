"""Damped Newton-Raphson on the current-voltage equation system.

The equality system built by the IVR formulation is compiled into vector
residual and analytic Jacobian callables; Newton iterates with a halving
line search on the residual norm. Every step, at every size, is one block
elimination over the feeder tree, with numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..formulations.ivr import stamp_pf_ivr
from ..formulations.common import NetworkScope
from ..mathir import RowBuilder
from ..network.components import Network
from .solution import PfSolution, check_stopping


class CompiledSystem:
    """Vectorized residual and Jacobian of a square equality system.

    The Jacobian's entries are fixed at compile time: the linear
    coefficients plus, for each product term ``c * x_a * x_b``, the entries
    ``(row, a)`` and ``(row, b)``; each evaluation only computes their values.
    """

    def __init__(self, rows: RowBuilder):
        self.rows = rows
        self.const, (lr, self.lc, self.lv), (self.qr, self.qa, self.qb, self.qc) = rows.arrays()
        self.n_eq, self.n_var = len(rows.row_parts), len(rows.var_parts)
        self.res_rows = np.concatenate([lr, self.qr])
        self.jac_rows = np.concatenate([lr, self.qr, self.qr])
        self.jac_cols = np.concatenate([self.lc, self.qa, self.qb])

    def start(self) -> np.ndarray:
        return np.array(self.rows.start, dtype=float)

    def from_mapping(self, values) -> np.ndarray:
        return np.array([values[self.rows.name(j)] for j in range(self.n_var)])

    # an overflowing state is reported by the caller's finiteness checks
    @np.errstate(over="ignore", invalid="ignore")
    def residual(self, x: np.ndarray) -> np.ndarray:
        terms = np.concatenate([self.lv * x[self.lc], self.qc * x[self.qa] * x[self.qb]])
        return np.bincount(self.res_rows, weights=terms, minlength=self.n_eq) + self.const

    @np.errstate(over="ignore", invalid="ignore")
    def jacobian_terms(self, x: np.ndarray) -> np.ndarray:
        """Each term's part of entry ``(jac_rows, jac_cols)``; repeats add up."""
        return np.concatenate([self.lv, self.qc * x[self.qb], self.qc * x[self.qa]])


class FeederTree:
    """Block elimination of the Jacobian along the feeder tree, a multifrontal
    solve whose elimination tree is the feeder. A bus's block holds its
    voltages and bus rows, the branch from its parent, its loads and
    generators; a transformer's deeper bus shares its parent's block, as a
    delta winding's rows are singular without both terminals. Blocks go
    deepest first, each in a dense front: rows [own | parent's], columns
    [own | parent's | right-hand sides]. The border block holds the
    loop-closing elements; its unknowns ride along as right-hand sides and
    its rows take the tree's solution last.
    """

    def __init__(self, sys: CompiledSystem, scope: NetworkScope):
        self.sys, self.buses, blk = sys, [], {}
        for bus, via in scope.via.items():
            if via and via[1][0] == "transformer":
                blk[bus] = blk[via[0]]
            else:
                blk[bus] = len(self.buses)
                self.buses.append(bus)
        blk[None] = nb = len(self.buses)  # the border's block
        rb = np.array([blk[bus] for bus in sys.rows.row_owner], dtype=np.intp)
        cb = np.array([blk[bus] for bus in sys.rows.col_owner], dtype=np.intp)
        size = np.bincount(cb, minlength=nb + 1)
        parent = np.array([blk[scope.via[b][0]] if scope.via[b] else -1 for b in self.buses] + [-1])
        k = np.where(parent >= 0, size[parent], 0)
        rows, width = size + k, size + k + size[nb] + 1  # of each front; the border's spans all columns
        rows[nb], width[nb] = size[nb], sys.n_var + 1
        off = np.concatenate([[0], np.cumsum(rows * width)])

        def local(blocks):  # each index's position within its block; each block's indices
            perm = np.argsort(blocks, kind="stable")
            pos = np.empty_like(perm)
            pos[perm] = np.arange(len(perm)) - np.repeat(np.cumsum(size) - size, size)
            return pos, np.split(perm, np.cumsum(size)[:-1])

        (rpos, self.rows), (cpos, self.cols) = local(rb), local(cb)
        # an entry sits in the front of the first-eliminated of its blocks
        r, c, pr, pc = rb[sys.jac_rows], cb[sys.jac_cols], rpos[sys.jac_rows], cpos[sys.jac_cols]
        f = np.where(r == nb, nb, np.maximum(r, np.where(c == nb, -1, c)))
        fits = ((r == f) | (r == parent[f])) & ((c == f) | (c == parent[f]) | (c == nb) | (f == nb))
        if not (fits.all() and np.array_equal(size, np.bincount(rb, minlength=nb + 1))):
            raise ValueError("internal error: the Jacobian does not fit the feeder-tree blocks")
        fc = np.select([f == nb, c == f, c == nb], [sys.jac_cols, pc, rows[f] + 1 + pc], size[f] + pc)
        self.dest = off[f] + (np.where(r == f, 0, size[f]) + pr) * width[f] + fc
        self.rhs_dest = off[rb] + rpos * width[rb] + np.where(rb == nb, sys.n_var, rows[rb])
        self.blocks = list(zip(*(a.tolist() for a in (off[:-1], off[1:], rows, width, size, k, parent))))

    def at(self, x: np.ndarray) -> FeederTree:
        """Sum the Jacobian at ``x`` into the fronts, for one ``solve``."""
        self.buf = np.bincount(self.dest, self.sys.jacobian_terms(x), self.blocks[-1][1])
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``J step = rhs`` for the Jacobian last summed by ``at``."""
        self.buf[self.rhs_dest] = rhs
        fronts = [self.buf[a:e].reshape(m, n) for a, e, m, n, *_ in self.blocks]
        nb, w, solved = len(self.buses), len(self.cols[-1]) + 1, []
        for b in range(nb - 1, -1, -1):
            n, k, p = self.blocks[b][4:]
            solved.append(self._solve(b, fronts[b][:n, :n], fronts[b][:n, n:]))
            if k:  # the Schur update, to the parent; its rows of this front are empty
                u = fronts[b][n:, :n] @ solved[-1]
                fronts[p][:k, :k] -= u[:, :k]
                fronts[p][:k, -w:] -= u[:, k:]
        # x = z[:, 0] - z[:, 1:] @ x_border, substituted back root first
        z = np.zeros((len(rhs), w))
        z[self.cols[nb], 1:] = -np.eye(w - 1)
        for b, s in enumerate(reversed(solved)):
            k, p = self.blocks[b][5:]
            z[self.cols[b]] = s[:, k:] - s[:, :k] @ z[self.cols[p][:k]]
        g = fronts[nb][:, :-1] @ z
        return z[:, 0] - z[:, 1:] @ self._solve(nb, g[:, 1:], g[:, 0] - fronts[nb][:, -1])

    def _solve(self, b: int, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``a⁻¹ rhs``; a singular ``a`` raises, naming block ``b``'s rows of most null-space weight."""
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            _, sv, vh = np.linalg.svd(a.T)
        y = np.linalg.norm(vh[min(int(np.sum(sv > 1e-12 * sv[0])), len(sv) - 1):], axis=0)
        worst = np.argsort(-y, kind="stable")[:3]
        rows = ", ".join(f"{self.sys.rows.label(self.rows[b][i])} (weight {y[i]:.2e})" for i in worst)
        where = f"bus {self.buses[b]!r}" if b < len(self.buses) else "the loop block"
        raise np.linalg.LinAlgError(f"singular Jacobian at {where}; dependent constraint rows: {rows}")


def _newton_step(j: FeederTree, f: np.ndarray) -> np.ndarray:
    """Solve ``j @ step = -f``; a singular block raises ``np.linalg.LinAlgError``."""
    return j.solve(-f)


@dataclass
class NewtonOptions:
    tolerance: float = 1e-10
    max_iterations: int = 50
    start: Mapping[str, float] | None = None  # a value per variable; None: the model's starts

    def __post_init__(self):
        check_stopping(self.tolerance, self.max_iterations)


def _non_finite(sys: CompiledSystem, f: np.ndarray) -> str:
    return f"non-finite residual at {sys.rows.label(int(np.argmin(np.isfinite(f))))}"


def _extract_solution(scope: NetworkScope, columns: dict, x: np.ndarray) -> PfSolution:
    def z(*key) -> list[complex]:
        return [complex(x[c], x[c + 1]) for c in columns[key]]

    sol = PfSolution({b.id: dict(zip(b.phases, z("bus", b.id))) for b in scope.buses()})
    for br in scope.branches:
        sol.branch_current[br.id] = np.array(z("branch", br.id))
    for tr in scope.transformers:
        cur = z("transformer", tr.id)
        sol.transformer_current[tr.id] = (np.array(cur[:len(tr.phases)]), np.array(cur[len(tr.phases):]))
    for ld in scope.loads:
        sol.load_current[ld.id] = np.array(z("load", ld.id))
    for g in scope.generators:
        sol.generator_current[g.id] = np.array(z("generator", g.id))
    return sol


def solve_newton(net: Network, opts: NewtonOptions | None = None) -> PfSolution:
    """Solve unbalanced power flow by Newton iteration on the IVR equations.

    Never raises for non-convergence: the returned solution carries
    ``converged=False`` plus a diagnostic message. Build errors (no slack,
    unsupported component) do raise.
    """
    opts = opts or NewtonOptions()
    scope = NetworkScope(net)
    rows, columns = stamp_pf_ivr(scope)
    sys = CompiledSystem(rows)
    tree = FeederTree(sys, scope)
    x = sys.start() if opts.start is None else sys.from_mapping(opts.start)

    # variables constrained nonnegative (leg voltage magnitudes): if Newton
    # lands on a negative-magnitude mirror solution, flip and re-run
    nonneg = [j for j, lb in enumerate(rows.lb) if lb == 0.0]

    message = ""
    iterations = 0
    converged = False
    for attempt in range(3):
        f = sys.residual(x)
        fmax = float(np.max(np.abs(f))) if len(f) else 0.0
        if not np.isfinite(fmax):
            return _finish(scope, columns, x, False, iterations, fmax, _non_finite(sys, f))
        for _ in range(opts.max_iterations):
            if fmax <= opts.tolerance:
                break
            try:
                step = _newton_step(tree.at(x), f)
            except np.linalg.LinAlgError as err:
                return _finish(scope, columns, x, False, iterations, fmax, str(err))
            if not np.all(np.isfinite(step)):
                bad = rows.name(int(np.argmin(np.isfinite(step))))
                return _finish(scope, columns, x, False, iterations, fmax, f"non-finite step at {bad}")
            # a trial point whose residual is not finite counts as no descent
            lam = 1.0
            while True:
                x_new = x + lam * step
                f_new = sys.residual(x_new)
                fmax_new = float(np.max(np.abs(f_new)))
                if fmax_new < fmax or lam <= 1.0 / 1024.0:
                    break
                lam *= 0.5
            if not np.isfinite(fmax_new):
                return _finish(scope, columns, x, False, iterations, fmax, _non_finite(sys, f_new))
            if fmax_new >= fmax and lam <= 1.0 / 1024.0:
                message = f"stalled at residual {fmax:.3e} (no descent direction)"
                return _finish(scope, columns, x, False, iterations, fmax, message)
            x, f, fmax = x_new, f_new, fmax_new
            iterations += 1
        converged = fmax <= opts.tolerance
        if not converged:
            worst = rows.label(int(np.argmax(np.abs(f))))
            message = (
                f"no convergence in {opts.max_iterations} iterations; "
                f"residual {fmax:.3e} at {worst}"
            )
            break
        flipped = [i for i in nonneg if x[i] < 0.0]
        if not flipped:
            break
        for i in flipped:
            x[i] = -x[i]

    if converged:
        # pin live slack phasors to the exact source specification
        for bus in scope.buses():
            if bus.bus_type != "slack":
                continue
            u = bus.slack_voltage()
            for c, z in zip(columns["bus", bus.id], u):
                x[c], x[c + 1] = z.real, z.imag
        f = sys.residual(x)
        fmax = float(np.max(np.abs(f))) if len(f) else 0.0
        converged = fmax <= 10.0 * opts.tolerance

    return _finish(scope, columns, x, converged, iterations, fmax, message)


def _finish(
    scope: NetworkScope,
    columns: dict,
    x: np.ndarray,
    converged: bool,
    iterations: int,
    fmax: float,
    message: str,
) -> PfSolution:
    sol = _extract_solution(scope, columns, x)
    sol.converged = converged
    sol.iterations = iterations
    sol.max_residual = fmax
    sol.method = "newton"
    sol.message = message
    return sol
