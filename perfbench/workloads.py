"""The workloads: what each op runs, on which generated input, and how
its artifact is checked.

Each op is one ``feederflow.cli.main([...])`` call on a feeder no other op
of the run has seen. See README.md beside this file for why each workload
exists and which layer it is meant to stress.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from feeders import FeederSpec, feeder_dss, periods_json

PF_TOL = 1e-8  # acceptance criterion 1: Newton vs sweep voltage delta
SOC_TOL = 1e-8  # acceptance criterion 2: sweep point inside the relaxation
LP_REL_TOL = 1e-6  # native simplex objective vs HiGHS


@dataclass(frozen=True)
class Workload:
    name: str
    spec: FeederSpec
    periods: int  # horizon passed with --periods; 0 for a snapshot
    argv: tuple[str, ...]  # subcommand and flags; the input file goes after the first
    setup_argv: tuple[str, ...]  # smallest bundled fixture the subcommand accepts
    check: Callable[["OpFiles", "Oracle"], dict[str, int]]


class CheckFailed(Exception):
    """An artifact that is not a correct answer for its input."""


@dataclass(frozen=True)
class OpFiles:
    feeder: Path
    periods: Path | None
    artifact: Path

    def argv(self, wl: Workload) -> list[str]:
        out = [wl.argv[0], str(self.feeder), *wl.argv[1:]]
        if self.periods is not None:
            out += ["--periods", str(self.periods)]
        return out + ["--out", str(self.artifact)]


def write_inputs(wl: Workload, seed: int, op: int, workdir: Path) -> OpFiles:
    """Generate the distinct input of op ``op`` from the workload seed."""
    rng = random.Random(f"{wl.name}:{seed}:{op}")
    feeder = workdir / f"op{op}.dss"
    feeder.write_text(feeder_dss(rng, wl.spec, f"op{op}"))
    periods = None
    if wl.periods:
        periods = workdir / f"op{op}.periods.json"
        periods.write_text(periods_json(rng, wl.periods))
    return OpFiles(feeder, periods, workdir / f"op{op}.out.json")


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


def read_artifact(path: Path) -> dict:
    """Load an artifact, rejecting NaN and Infinity tokens."""
    with open(path) as f:
        return json.load(f, parse_constant=_reject_constant)


class Oracle:
    """Independent reference solutions, timed as ``pf.bfs`` spans when a
    tracer is attached (the sweep runs only here, outside op timing)."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def network(self, files: OpFiles):
        from feederflow.dss import parse_file
        from feederflow.network import from_dss

        return from_dss(parse_file(str(files.feeder)))

    def sweep(self, net):
        from feederflow.pf import solve_bfs

        if self.tracer is None:
            return solve_bfs(net)
        idx = self.tracer.begin("pf.bfs")
        try:
            sol = solve_bfs(net)
        finally:
            self.tracer.end(idx)
        self.tracer.count("pf.bfs.sweeps", sol.iterations)
        return sol


def check_pf(files: OpFiles, oracle: Oracle) -> dict[str, int]:
    from feederflow.pf import compare_delta, load_solution_voltages

    doc = read_artifact(files.artifact)
    if not doc.get("meta", {}).get("converged"):
        raise CheckFailed("artifact reports no convergence")
    net = oracle.network(files)
    ref = oracle.sweep(net)
    if not ref.converged:
        raise CheckFailed(f"sweep oracle did not converge: {ref.message}")
    floating = {b.id for b in net.buses.values() if b.is_internal}
    delta = compare_delta(load_solution_voltages(doc), ref, floating_buses=floating)
    if not delta <= PF_TOL:
        raise CheckFailed(f"voltage delta {delta:.3e} vs sweep exceeds {PF_TOL:g}")
    return {"buses": len(doc["meta"]["buses"]), "unknowns": len(doc["values"])}


def check_socbfm(files: OpFiles, oracle: Oracle) -> dict[str, int]:
    from feederflow.formulations.socbfm import map_solution_to_socbfm
    from feederflow.mathir import evaluate_residuals, model_from_json_dict

    model = model_from_json_dict(read_artifact(files.artifact))
    net = oracle.network(files)
    ref = oracle.sweep(net)
    if not ref.converged:
        raise CheckFailed(f"sweep oracle did not converge: {ref.message}")
    rep = evaluate_residuals(model, map_solution_to_socbfm(net, ref))
    worst = max(rep.max_violation, rep.max_bound_violation)
    if not worst <= SOC_TOL:
        raise CheckFailed(f"sweep point violates the exported model by {worst:.3e}")
    return {"buses": len(ref.voltages), "unknowns": len(model.variables)}


def check_dispatch(files: OpFiles, oracle: Oracle) -> dict[str, int]:
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    from feederflow.formulations.lindistflow import build_opf_lindistflow
    from feederflow.lp import problem_from_model
    from feederflow.mathir import EQ, GE
    from feederflow.network.components import TimeSeries

    doc = read_artifact(files.artifact)
    if doc.get("status") != "optimal":
        raise CheckFailed(f"status {doc.get('status')!r}")
    with open(files.periods) as f:
        p = json.load(f)
    periods = TimeSeries(p["dt_hours"], p["load_scale"], p["gen_scale"], p["cost_scale"])
    net = oracle.network(files)
    prob = problem_from_model(build_opf_lindistflow(net, periods=periods))
    a = coo_matrix((prob.a_vals, (prob.a_rows, prob.a_cols)), shape=(prob.n_rows, prob.n_cols)).tocsr()
    eq = np.array([s == EQ for s in prob.senses], dtype=bool)
    sign = np.array([-1.0 if s == GE else 1.0 for s in prob.senses])
    ub_rows = ~eq
    res = linprog(
        prob.cost,
        A_ub=a[ub_rows].multiply(sign[ub_rows][:, None]).tocsr() if ub_rows.any() else None,
        b_ub=(prob.rhs * sign)[ub_rows] if ub_rows.any() else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=prob.rhs[eq] if eq.any() else None,
        bounds=np.column_stack([prob.lower, prob.upper]),
        method="highs",
    )
    if res.status != 0:
        raise CheckFailed(f"HiGHS oracle failed: {res.message}")
    want = float(res.fun) + prob.objective_const
    got = float(doc["objective"])
    if not abs(got - want) <= LP_REL_TOL * max(1.0, abs(want)):
        raise CheckFailed(f"objective {got!r} vs HiGHS {want!r}")
    return {"buses": len(net.terminal_buses()), "unknowns": prob.n_cols, "lp_rows": prob.n_rows}


# Sizes: see README.md. Bus counts include the source bus.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="pf-large",
            spec=FeederSpec(trunk=160, laterals=39, kw_per_bus=(40.0, 100.0)),
            periods=0,
            argv=("pf",),
            setup_argv=("pf", "fixtures/two_bus.dss"),
            check=check_pf,
        ),
        Workload(
            name="export-socbfm",
            spec=FeederSpec(trunk=160, laterals=39, kw_per_bus=(40.0, 100.0)),
            periods=0,
            argv=("export", "--form", "socbfm"),
            setup_argv=("export", "fixtures/two_bus.dss", "--form", "socbfm"),
            check=check_socbfm,
        ),
        Workload(
            name="dispatch-storage",
            spec=FeederSpec(trunk=7, laterals=2, storages=2, kw_per_bus=(40.0, 100.0)),
            periods=2,
            argv=("opf",),
            setup_argv=(
                "opf", "fixtures/storage_two_period.dss", "--periods", "fixtures/periods_two.json",
            ),
            check=check_dispatch,
        ),
    )
}

