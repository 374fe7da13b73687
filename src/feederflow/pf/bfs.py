"""Backward/forward sweep power flow for radial networks.

Independent of the Newton path: no math IR, no Jacobian. Backward pass
accumulates element current draws up the tree; forward pass applies series
voltage drops from the slack down. Supports multi-conductor branches,
wye/delta ZIP loads, shunts, fixed-power generators and scalar-ratio
(wye-wye) ideal transformers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formulations.common import FormulationError, NetworkScope, flat_voltage
from ..network.components import IdealTransformer, Network, walk
from .solution import PfSolution


# leg voltage magnitude (pu) below which load current laws switch to a
# linear guard, so a collapsing iterate cannot divide by zero
LOW_VOLTAGE = 0.05


@dataclass
class BfsOptions:
    tolerance: float = 1e-10
    max_iterations: int = 500


@dataclass
class _Edge:
    kind: str  # "branch" or "transformer"
    obj: object
    parent: str
    child: str
    f_is_parent: bool


def _build_tree(scope: NetworkScope) -> tuple[list[str], dict[str, list[_Edge]], list[str]]:
    """Roots, child-edge adjacency, and a parent-before-child bus order."""
    adj: dict[str, list[tuple[str, object]]] = {b: [] for b in scope.bus_ids}
    for e in (*scope.branches, *scope.transformers):
        adj[e.f_bus].append((e.t_bus, e))
        adj[e.t_bus].append((e.f_bus, e))

    roots = [b.id for b in scope.buses() if b.bus_type == "slack"]
    order, via, back = walk(adj, roots)
    if back:
        _, nxt, obj = back[0]
        raise FormulationError(
            f"radial required: found a loop closing at bus {nxt!r} "
            f"through {_kind(obj)} {obj.id!r}"
        )
    if any(via[root] is not None for root in roots):
        raise FormulationError("radial required: two slack buses share an island")
    children: dict[str, list[_Edge]] = {b: [] for b in scope.bus_ids}
    for bus in order:
        if via[bus] is not None:
            parent, obj = via[bus]
            children[parent].append(
                _Edge(_kind(obj), obj, parent=parent, child=bus, f_is_parent=(obj.f_bus == parent))
            )
    return roots, children, order


def _kind(obj) -> str:
    return "transformer" if isinstance(obj, IdealTransformer) else "branch"


def _leg_current(s: complex, v: complex) -> complex:
    """Constant-power draw current with a linear guard below LOW_VOLTAGE."""
    m = abs(v)
    if m < LOW_VOLTAGE:
        return np.conj(s) * v / LOW_VOLTAGE**2
    return np.conj(s) * v / m**2


def solve_bfs(net: Network, opts: BfsOptions | None = None) -> PfSolution:
    """Solve radial power flow by repeated backward/forward sweeps.

    Raises :class:`FormulationError` on meshed topology or on components the
    sweep cannot process (vector-group transformers, delta generators).
    """
    opts = opts or BfsOptions()
    scope = NetworkScope(net)
    for tr in scope.transformers:
        if tr.scalar_ratio is None:
            raise FormulationError(
                f"transformer {tr.id!r}: sweep solver supports only scalar-ratio "
                f"(wye-wye) transformers"
            )
    for g in scope.generators:
        if g.connection != "wye":
            raise FormulationError(f"generator {g.id!r}: delta generators unsupported in sweep")
    sources: dict[str, object] = {}
    for g in scope.generators:
        if g.source:
            if g.bus in sources:
                raise FormulationError(f"bus {g.bus!r} has more than one source generator")
            sources[g.bus] = g

    roots, children, order = _build_tree(scope)
    for root in roots:
        if root not in sources:
            raise FormulationError(f"slack bus {root!r} has no source generator")

    pos = {b.id: {p: k for k, p in enumerate(b.phases)} for b in scope.buses()}
    u: dict[str, np.ndarray] = {}
    for bus in scope.buses():
        u[bus.id] = bus.slack_voltage() if bus.bus_type == "slack" else flat_voltage(bus)

    def leg_voltage(bus_id: str, leg) -> complex:
        v = u[bus_id][pos[bus_id][leg[0]]]
        if len(leg) == 2:
            v = v - u[bus_id][pos[bus_id][leg[1]]]
        return v

    def load_leg_currents(ld) -> np.ndarray:
        a_z, a_i, a_p = ld.zip_weights
        out = np.zeros(len(ld.legs()), dtype=complex)
        for k, leg in enumerate(ld.legs()):
            v = leg_voltage(ld.bus, leg)
            s0 = ld.s_nom[k]
            cur = np.conj(s0 * a_z / ld.v_nom**2) * v
            if a_i != 0.0:
                m = max(abs(v), LOW_VOLTAGE)
                cur += np.conj(s0 * a_i / ld.v_nom) * v / m
            if a_p != 0.0:
                cur += _leg_current(s0 * a_p, v)
            out[k] = cur
        return out

    def bus_draw() -> dict[str, np.ndarray]:
        draw = {b: np.zeros(len(u[b]), dtype=complex) for b in scope.bus_ids}
        for br in scope.branches:
            uf = np.array([u[br.f_bus][pos[br.f_bus][p]] for p in br.phases])
            ut = np.array([u[br.t_bus][pos[br.t_bus][p]] for p in br.phases])
            shf = br.y_fr @ uf
            sht = br.y_to @ ut
            for k, p in enumerate(br.phases):
                draw[br.f_bus][pos[br.f_bus][p]] += shf[k]
                draw[br.t_bus][pos[br.t_bus][p]] += sht[k]
        for sh in scope.shunts:
            us = np.array([u[sh.bus][pos[sh.bus][p]] for p in sh.phases])
            cur = sh.y @ us
            for k, p in enumerate(sh.phases):
                draw[sh.bus][pos[sh.bus][p]] += cur[k]
        for ld in scope.loads:
            cur = load_leg_currents(ld)
            for k, leg in enumerate(ld.legs()):
                draw[ld.bus][pos[ld.bus][leg[0]]] += cur[k]
                if len(leg) == 2:
                    draw[ld.bus][pos[ld.bus][leg[1]]] -= cur[k]
        for g in scope.generators:
            if g.source:
                continue
            for k, p in enumerate(g.phases):
                s = complex(g.p_set[k], g.q_set[k])
                draw[g.bus][pos[g.bus][p]] -= _leg_current(s, u[g.bus][pos[g.bus][p]])
        return draw

    def non_finite(what: str, values: dict[str, np.ndarray]) -> str:
        if np.all(np.isfinite(np.concatenate(list(values.values())))):
            return ""
        bus = next(b for b in scope.bus_ids if not np.all(np.isfinite(values[b])))
        k = int(np.argmin(np.isfinite(values[bus])))
        return f"non-finite {what} at bus {bus!r} phase {scope.bus(bus).phases[k]}"

    # branch id -> series current f->t; transformer id -> terminal currents
    series = {br.id: np.zeros(len(br.phases), dtype=complex) for br in scope.branches}
    tf_cur = {
        tr.id: (np.zeros(len(tr.phases), dtype=complex), np.zeros(len(tr.phases), dtype=complex))
        for tr in scope.transformers
    }
    change = float("inf")
    iterations = 0
    converged = stop = False
    # the latest iterate whose bus currents are finite, returned on failure
    last = (iterations, change, u, series, tf_cur, None)
    while True:
        draw = bus_draw()
        failure = non_finite("current", draw)
        if failure or stop or iterations == opts.max_iterations:
            break
        last = (iterations, change, dict(u), dict(series), dict(tf_cur), draw)
        iterations += 1
        # backward: accumulate subtree demand into edge currents
        subtree: dict[str, np.ndarray] = {}
        for bus in reversed(order):
            total = draw[bus].copy()
            for e in children[bus]:
                child_demand = subtree[e.child]
                phs = e.obj.phases
                demand_e = np.array([child_demand[pos[e.child][p]] for p in phs])
                if e.kind == "branch":
                    series[e.obj.id] = demand_e if e.f_is_parent else -demand_e
                    parent_flow = demand_e
                else:
                    r = e.obj.scalar_ratio
                    if e.f_is_parent:
                        # child is the t side: U_parent = r U_child
                        i_to = -demand_e
                        i_fr = demand_e / r
                        parent_flow = i_fr
                    else:
                        # child is the f side: U_child = r U_parent
                        i_fr = -demand_e
                        i_to = r * demand_e
                        parent_flow = i_to
                    tf_cur[e.obj.id] = (i_fr, i_to)
                for k, p in enumerate(phs):
                    total[pos[bus][p]] += parent_flow[k]
            subtree[bus] = total

        # forward: slack phasors at roots, series drops downward
        change = 0.0
        for bus in order:
            b = scope.bus(bus)
            if b.bus_type == "slack":
                new = b.slack_voltage()
                change = max(change, float(np.max(np.abs(new - u[bus]))))
                u[bus] = new
            for e in children[bus]:
                phs = e.obj.phases
                up = np.array([u[bus][pos[bus][p]] for p in phs])
                if e.kind == "branch":
                    i_s = series[e.obj.id]
                    uc = up - e.obj.z @ i_s if e.f_is_parent else up + e.obj.z @ i_s
                else:
                    r = e.obj.scalar_ratio
                    uc = up / r if e.f_is_parent else r * up
                new = u[e.child].copy()
                for k, p in enumerate(phs):
                    new[pos[e.child][p]] = uc[k]
                change = max(change, float(np.max(np.abs(new - u[e.child]))))
                u[e.child] = new
        failure = non_finite("voltage", u)
        if failure:
            break
        converged = change <= opts.tolerance
        stop = converged or change > 1e8

    if failure:
        failure = f"{failure} after {iterations} sweeps"
        iterations, change, u, series, tf_cur, draw = last
    volt = {b.id: {p: complex(u[b.id][k]) for k, p in enumerate(b.phases)} for b in scope.buses()}
    sol = PfSolution(voltages=volt)
    sol.method = "bfs"
    sol.iterations = iterations
    sol.max_residual = change
    sol.converged = converged
    if not converged:
        sol.message = failure or f"voltage change {change:.3e} after {iterations} sweeps"

    for br in scope.branches:
        sol.branch_current[br.id] = series[br.id]
    for tr in scope.transformers:
        sol.transformer_current[tr.id] = tf_cur[tr.id]
    if iterations == 0:
        # the start iterate carries no element current, like Newton's start
        for ld in scope.loads:
            sol.load_current[ld.id] = np.zeros(len(ld.legs()), dtype=complex)
        for g in scope.generators:
            sol.generator_current[g.id] = np.zeros(len(g.phases), dtype=complex)
        return sol
    for ld in scope.loads:
        sol.load_current[ld.id] = load_leg_currents(ld)
    for g in scope.generators:
        if g.source:
            continue
        cur = np.zeros(len(g.phases), dtype=complex)
        for k, p in enumerate(g.phases):
            s = complex(g.p_set[k], g.q_set[k])
            cur[k] = _leg_current(s, u[g.bus][pos[g.bus][p]])
        sol.generator_current[g.id] = cur

    # the source generator at each root supplies exactly what leaves the bus
    for root in roots:
        g = sources[root]
        inj = draw[root].copy()
        for e in children[root]:
            phs = e.obj.phases
            if e.kind == "branch":
                flow = series[e.obj.id] if e.f_is_parent else -series[e.obj.id]
            else:
                flow = tf_cur[e.obj.id][1] if not e.f_is_parent else tf_cur[e.obj.id][0]
            for k, p in enumerate(phs):
                inj[pos[root][p]] += flow[k]
        sol.generator_current[g.id] = np.array([inj[pos[root][p]] for p in g.phases])
    return sol
