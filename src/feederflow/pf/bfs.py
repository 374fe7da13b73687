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

from ..formulations.common import FormulationError, NetworkScope, start_voltage
from ..network.components import IdealTransformer, Network, walk
from .solution import PfSolution, check_stopping


# leg voltage magnitude (pu) below which load current laws switch to a
# linear guard, so a collapsing iterate cannot divide by zero
LOW_VOLTAGE = 0.05


@dataclass
class BfsOptions:
    tolerance: float = 1e-10
    max_iterations: int = 500

    def __post_init__(self):
        check_stopping(self.tolerance, self.max_iterations)


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


def _power_current(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Constant-power draw currents with a linear guard below LOW_VOLTAGE."""
    return np.conj(s) * v / np.maximum(np.abs(v), LOW_VOLTAGE) ** 2


# an overflowing sweep is reported by its finiteness checks
@np.errstate(over="ignore", invalid="ignore")
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

    # one slot per live conductor, in scope bus order and then phase order
    first: dict[str, int] = {}
    slot_bus: list[str] = []
    slot_phase: list[int] = []
    for b in scope.buses():
        first[b.id] = len(slot_bus)
        slot_bus += [b.id] * len(b.phases)
        slot_phase += b.phases

    def slots(bus_id: str, phases) -> np.ndarray:
        own = scope.bus(bus_id).phases
        return np.array([first[bus_id] + own.index(p) for p in phases], dtype=int)

    u = np.concatenate([start_voltage(b) for b in scope.buses()])
    slack = np.concatenate([slots(r, scope.bus(r).phases) for r in roots])
    slack_u = np.concatenate([scope.bus(r).slack_voltage() for r in roots])
    # edges in parent-before-child order with their conductor slots at each end
    edges = [
        (e, slots(e.parent, e.obj.phases), slots(e.child, e.obj.phases))
        for bus in order
        for e in children[bus]
    ]
    # shunt blocks: each branch's from end, then its to end, then the shunts;
    # an all-zero block adds exactly zero to the finite draws and is left out
    blocks = [
        blk for br in scope.branches
        for blk in ((br.y_fr, br.f_bus, br.phases), (br.y_to, br.t_bus, br.phases))
    ]
    blocks += [(sh.y, sh.bus, sh.phases) for sh in scope.shunts]
    shunt_blocks = [(y, slots(bus, phases)) for y, bus, phases in blocks if y.any()]

    # load legs: first-conductor slot, and the second one for delta legs
    legs = [(ld, slots(ld.bus, leg)) for ld in scope.loads for leg in ld.legs()]
    leg_a = np.array([ks[0] for _, ks in legs], dtype=int)
    delta = np.array([len(ks) == 2 for _, ks in legs], dtype=bool)
    leg_b = np.array([ks[1] for _, ks in legs if len(ks) == 2], dtype=int)
    s0 = np.array([s for ld in scope.loads for s in ld.s_nom], dtype=complex)
    a_z, a_i, a_p = np.array([ld.zip_weights for ld, _ in legs], dtype=float).reshape(-1, 3).T
    v_nom = np.array([ld.v_nom for ld, _ in legs], dtype=float)
    c_z = np.conj(s0 * a_z / v_nom**2)
    c_i = np.conj(s0 * a_i / v_nom)
    s_p = s0 * a_p
    leg_split = np.cumsum([len(ld.legs()) for ld in scope.loads])[:-1]

    fixed = [g for g in scope.generators if not g.source]
    gen_slots = np.array([k for g in fixed for k in slots(g.bus, g.phases)], dtype=int)
    s_gen = np.array([complex(p, q) for g in fixed for p, q in zip(g.p_set, g.q_set)], dtype=complex)
    gen_split = np.cumsum([len(g.phases) for g in fixed])[:-1]

    def leg_currents(u: np.ndarray) -> np.ndarray:
        v = u[leg_a]
        v[delta] -= u[leg_b]
        return c_z * v + c_i * v / np.maximum(np.abs(v), LOW_VOLTAGE) + _power_current(s_p, v)

    def bus_draw(u: np.ndarray) -> np.ndarray:
        draw = np.zeros(len(u), dtype=complex)
        for y, idx in shunt_blocks:
            draw[idx] += y @ u[idx]
        cur = leg_currents(u)
        np.add.at(draw, leg_a, cur)
        np.subtract.at(draw, leg_b, cur[delta])
        np.subtract.at(draw, gen_slots, _power_current(s_gen, u[gen_slots]))
        return draw

    def non_finite(what: str, values: np.ndarray) -> str:
        bad = ~np.isfinite(values)
        if not bad.any():
            return ""
        k = int(np.argmax(bad))
        return f"non-finite {what} at bus {slot_bus[k]!r} phase {slot_phase[k]}"

    # element id -> terminal currents (into the f end, into the t end)
    current: dict[str, tuple[np.ndarray, np.ndarray]] = {
        e.id: (np.zeros(len(e.phases), dtype=complex), np.zeros(len(e.phases), dtype=complex))
        for e in (*scope.branches, *scope.transformers)
    }

    def edge_flow(e: _Edge, demand: np.ndarray) -> np.ndarray:
        """Set the edge's currents from the demand at its child end; return
        the current its parent end draws from the parent bus."""
        if e.kind == "branch":
            flow = demand
        elif e.f_is_parent:
            # child is the t side: U_parent = r U_child
            flow = demand / e.obj.scalar_ratio
        else:
            # child is the f side: U_child = r U_parent
            flow = e.obj.scalar_ratio * demand
        current[e.obj.id] = (flow, -demand) if e.f_is_parent else (-demand, flow)
        return flow

    change = float("inf")
    iterations = 0
    converged = stop = False
    # the latest iterate whose bus currents are finite, returned on failure
    last = (iterations, change, u, current, None)
    while True:
        draw = bus_draw(u)
        failure = non_finite("current", draw)
        if failure or stop or iterations == opts.max_iterations:
            break
        last = (iterations, change, u, dict(current), draw)
        iterations += 1
        # backward: accumulate subtree demand into edge currents
        subtree = draw.copy()
        for e, ps, cs in reversed(edges):
            subtree[ps] += edge_flow(e, subtree[cs])

        # forward: slack phasors at roots, series drops downward
        new = u.copy()
        new[slack] = slack_u
        for e, ps, cs in edges:
            if e.kind == "branch":
                i_s = current[e.obj.id][0]
                new[cs] = new[ps] - e.obj.z @ i_s if e.f_is_parent else new[ps] + e.obj.z @ i_s
            else:
                r = e.obj.scalar_ratio
                new[cs] = new[ps] / r if e.f_is_parent else r * new[ps]
        change = float(np.max(np.abs(new - u)))
        u = new
        failure = non_finite("voltage", u)
        if failure:
            break
        converged = change <= opts.tolerance
        stop = converged or change > 1e8

    if failure:
        failure = f"{failure} after {iterations} sweeps"
        iterations, change, u, current, draw = last
    volt = {
        b.id: {p: complex(u[first[b.id] + k]) for k, p in enumerate(b.phases)}
        for b in scope.buses()
    }
    sol = PfSolution(voltages=volt)
    sol.method = "bfs"
    sol.iterations = iterations
    sol.max_residual = change
    sol.converged = converged
    if not converged:
        sol.message = failure or f"voltage change {change:.3e} after {iterations} sweeps"

    for br in scope.branches:
        sol.branch_current[br.id] = current[br.id][0]
    for tr in scope.transformers:
        sol.transformer_current[tr.id] = current[tr.id]
    if iterations == 0:
        # the start iterate carries no element current, like Newton's start
        for ld in scope.loads:
            sol.load_current[ld.id] = np.zeros(len(ld.legs()), dtype=complex)
        for g in scope.generators:
            sol.generator_current[g.id] = np.zeros(len(g.phases), dtype=complex)
        return sol
    for ld, cur in zip(scope.loads, np.split(leg_currents(u), leg_split)):
        sol.load_current[ld.id] = cur
    for g, cur in zip(fixed, np.split(_power_current(s_gen, u[gen_slots]), gen_split)):
        sol.generator_current[g.id] = cur

    # the source generator at each root supplies exactly what leaves the bus
    inj = draw.copy()
    for e, ps, _ in edges:
        if e.parent in roots:
            inj[ps] += current[e.obj.id][0 if e.f_is_parent else 1]
    for root in roots:
        g = sources[root]
        sol.generator_current[g.id] = inj[slots(root, g.phases)]
    return sol
