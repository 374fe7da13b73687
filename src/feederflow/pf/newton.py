"""Damped Newton-Raphson on the current-voltage equation system.

The equality system built by the IVR formulation is compiled into vector
residual and analytic Jacobian callables; Newton iterates with a halving
line search on the residual norm. The Jacobian keeps one fixed sparsity
pattern: small systems are solved dense with LAPACK, large ones sparse with
SuperLU. Singular Jacobians of small systems are diagnosed by the constraint
labels with the largest left-null-space weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..formulations.ivr import build_pf_ivr, ild_im, ild_re, ig_im, ig_re, is_im, is_re, it_im, it_re, u_im, u_re
from ..formulations.common import NetworkScope
from ..mathir import EQ, MathModel, row_arrays
from ..network.components import Network
from .solution import PfSolution


# Largest system solved dense. Per Newton step SuperLU overtakes LAPACK at
# ~200 unknowns, but its 0.37 s scipy import only pays off over a 4-step
# solve at ~1700 (2-vCPU x86, one BLAS thread); 1000 keeps a dense
# Jacobian at 8 MB.
DENSE_MAX_UNKNOWNS = 1000


class CompiledSystem:
    """Vectorized residual and Jacobian of a square equality system.

    The Jacobian has one sparsity pattern for every state: the linear
    coefficients plus, for each product term ``c * x_a * x_b``, the entries
    ``(row, a)`` and ``(row, b)``. The pattern is fixed in CSC order at
    compile time; each evaluation only sums the entry values into their
    slots.
    """

    def __init__(self, model: MathModel):
        self.model = model
        self.names = list(model.variables)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.labels, senses, self.const, linear, products = row_arrays(model)
        lr, self.lc, self.lv = linear
        self.qr, self.qa, self.qb, self.qc = products
        for label, sense in zip(self.labels, senses):
            if sense != EQ:
                raise ValueError(f"{label}: inequality in a square system")
        self.n_eq = len(self.labels)
        self.n_var = len(self.names)
        self.res_rows = np.concatenate([lr, self.qr])

        # CSC pattern: entries keyed column-major, duplicates share a slot
        rows = np.concatenate([lr, self.qr, self.qr])
        cols = np.concatenate([self.lc, self.qa, self.qb])
        keys, self.slot = np.unique(cols * self.n_eq + rows, return_inverse=True)
        self.pattern_cols, self.pattern_rows = np.divmod(keys, self.n_eq)
        self.indptr = np.searchsorted(self.pattern_cols, np.arange(self.n_var + 1))
        self.nnz = len(keys)

    def start(self) -> np.ndarray:
        return np.array([self.model.variables[n].start for n in self.names])

    def from_mapping(self, values) -> np.ndarray:
        return np.array([values[n] for n in self.names])

    def residual(self, x: np.ndarray) -> np.ndarray:
        terms = np.concatenate([self.lv * x[self.lc], self.qc * x[self.qa] * x[self.qb]])
        return np.bincount(self.res_rows, weights=terms, minlength=self.n_eq) + self.const

    @property
    def sparse(self) -> bool:
        return self.n_var > DENSE_MAX_UNKNOWNS

    def jacobian(self, x: np.ndarray):
        """Dense ``ndarray`` at or below ``DENSE_MAX_UNKNOWNS`` unknowns,
        a CSC matrix above it."""
        terms = np.concatenate([self.lv, self.qc * x[self.qb], self.qc * x[self.qa]])
        vals = np.bincount(self.slot, weights=terms, minlength=self.nnz)
        if self.sparse:
            from scipy.sparse import csc_matrix

            return csc_matrix((vals, self.pattern_rows, self.indptr), shape=(self.n_eq, self.n_var))
        j = np.zeros((self.n_eq, self.n_var))
        j[self.pattern_rows, self.pattern_cols] = vals
        return j


def _newton_step(j, f: np.ndarray) -> np.ndarray:
    """Solve ``j @ step = -f``: LAPACK on a dense ``j``, SuperLU on CSC.

    A singular ``j`` raises ``np.linalg.LinAlgError`` (dense) or
    ``RuntimeError`` (SuperLU: "Factor is exactly singular").
    """
    if isinstance(j, np.ndarray):
        return np.linalg.solve(j, -f)
    from scipy.sparse.linalg import splu

    return splu(j).solve(-f)


@dataclass
class NewtonOptions:
    tolerance: float = 1e-10
    max_iterations: int = 50
    start: Mapping[str, float] | None = None  # a value per variable; None: the model's starts

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _singular_report(sys: CompiledSystem, j: np.ndarray) -> str:
    if sys.sparse:
        return (
            f"singular Jacobian ({sys.n_var} unknowns; dependent rows not analysed "
            f"above {DENSE_MAX_UNKNOWNS})"
        )
    # rows with the largest left-null-space weight form the dependent set
    try:
        _, s, vh = np.linalg.svd(j.T)
        y = vh[-1]
    except np.linalg.LinAlgError:
        return "singular Jacobian (null-space analysis failed)"
    worst = np.argsort(-np.abs(y))[:3]
    parts = ", ".join(f"{sys.labels[i]} (weight {abs(y[i]):.2e})" for i in worst)
    return f"singular Jacobian; dependent constraint rows: {parts}"


def _non_finite(sys: CompiledSystem, f: np.ndarray) -> str:
    return f"non-finite residual at {sys.labels[int(np.argmin(np.isfinite(f)))]}"


def _extract_solution(net: Network, sys: CompiledSystem, x: np.ndarray) -> PfSolution:
    scope = NetworkScope(net)
    ix = sys.index
    volt: dict[str, dict[int, complex]] = {}
    for bus in scope.buses():
        volt[bus.id] = {
            p: complex(x[ix[u_re(bus.id, p)]], x[ix[u_im(bus.id, p)]]) for p in bus.phases
        }
    sol = PfSolution(voltages=volt)
    for br in scope.branches:
        sol.branch_current[br.id] = np.array(
            [complex(x[ix[is_re(br.id, p)]], x[ix[is_im(br.id, p)]]) for p in br.phases]
        )
    for tr in scope.transformers:
        cfr = np.array(
            [complex(x[ix[it_re(tr.id, "fr", p)]], x[ix[it_im(tr.id, "fr", p)]]) for p in tr.phases]
        )
        cto = np.array(
            [complex(x[ix[it_re(tr.id, "to", p)]], x[ix[it_im(tr.id, "to", p)]]) for p in tr.phases]
        )
        sol.transformer_current[tr.id] = (cfr, cto)
    for ld in scope.loads:
        from ..formulations.common import leg_label

        sol.load_current[ld.id] = np.array(
            [
                complex(x[ix[ild_re(ld.id, leg_label(leg))]], x[ix[ild_im(ld.id, leg_label(leg))]])
                for leg in ld.legs()
            ]
        )
    for g in scope.generators:
        sol.generator_current[g.id] = np.array(
            [complex(x[ix[ig_re(g.id, p)]], x[ix[ig_im(g.id, p)]]) for p in g.phases]
        )
    return sol


def solve_newton(net: Network, opts: NewtonOptions | None = None) -> PfSolution:
    """Solve unbalanced power flow by Newton iteration on the IVR equations.

    Never raises for non-convergence: the returned solution carries
    ``converged=False`` plus a diagnostic message. Build errors (no slack,
    unsupported component) do raise.
    """
    opts = opts or NewtonOptions()
    model = build_pf_ivr(net)
    sys = CompiledSystem(model)
    x = sys.start() if opts.start is None else sys.from_mapping(opts.start)

    # variables constrained nonnegative (leg voltage magnitudes): if Newton
    # lands on a negative-magnitude mirror solution, flip and re-run
    nonneg = [sys.index[n] for n, v in model.variables.items() if v.lb == 0.0]

    message = ""
    iterations = 0
    converged = False
    for attempt in range(3):
        f = sys.residual(x)
        fmax = float(np.max(np.abs(f))) if len(f) else 0.0
        if not np.isfinite(fmax):
            return _finish(net, sys, x, False, iterations, fmax, _non_finite(sys, f))
        for _ in range(opts.max_iterations):
            if fmax <= opts.tolerance:
                break
            j = sys.jacobian(x)
            try:
                step = _newton_step(j, f)
            except (np.linalg.LinAlgError, RuntimeError):
                return _finish(net, sys, x, False, iterations, fmax, _singular_report(sys, j))
            if not np.all(np.isfinite(step)):
                bad = sys.names[int(np.argmin(np.isfinite(step)))]
                return _finish(net, sys, x, False, iterations, fmax, f"non-finite step at {bad}")
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
                return _finish(net, sys, x, False, iterations, fmax, _non_finite(sys, f_new))
            if fmax_new >= fmax and lam <= 1.0 / 1024.0:
                message = f"stalled at residual {fmax:.3e} (no descent direction)"
                return _finish(net, sys, x, False, iterations, fmax, message)
            x, f, fmax = x_new, f_new, fmax_new
            iterations += 1
        converged = fmax <= opts.tolerance
        if not converged:
            worst = sys.labels[int(np.argmax(np.abs(f)))]
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
        # pin slack phasors to the exact source specification
        for bus in net.buses.values():
            if bus.bus_type != "slack" or bus.id not in {  # only live slack buses
                b.id for b in NetworkScope(net).buses()
            }:
                continue
            u = bus.slack_voltage()
            for k, p in enumerate(bus.phases):
                x[sys.index[u_re(bus.id, p)]] = u[k].real
                x[sys.index[u_im(bus.id, p)]] = u[k].imag
        f = sys.residual(x)
        fmax = float(np.max(np.abs(f))) if len(f) else 0.0
        converged = fmax <= 10.0 * opts.tolerance

    return _finish(net, sys, x, converged, iterations, fmax, message)


def _finish(
    net: Network,
    sys: CompiledSystem,
    x: np.ndarray,
    converged: bool,
    iterations: int,
    fmax: float,
    message: str,
) -> PfSolution:
    sol = _extract_solution(net, sys, x)
    sol.converged = converged
    sol.iterations = iterations
    sol.max_residual = fmax
    sol.method = "newton"
    sol.message = message
    return sol
