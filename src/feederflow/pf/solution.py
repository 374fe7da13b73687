"""Power-flow solution container, comparison metric, and JSON round trip.

The JSON form reuses the assignment naming of the math IR (``ure:bus:p``
and friends) so a solution file doubles as an assignment for residual
evaluation against any formulation of the same network.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mathir import SCHEMA_SOLUTION, solution_to_json_dict
from ..network.components import Network


@dataclass
class PfSolution:
    """Voltages and element currents of one converged (or attempted) solve.

    Currents follow the sign conventions of the equation system: branch
    series current flows from ``f_bus`` to ``t_bus``; transformer terminal
    currents flow into the device; load leg currents are drawn from the bus;
    generator currents are injected into the bus.
    """

    voltages: dict[str, dict[int, complex]]
    branch_current: dict[str, np.ndarray] = field(default_factory=dict)
    transformer_current: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    load_current: dict[str, np.ndarray] = field(default_factory=dict)
    generator_current: dict[str, np.ndarray] = field(default_factory=dict)
    converged: bool = False
    iterations: int = 0
    max_residual: float = float("inf")
    method: str = ""
    message: str = ""

    def voltage(self, bus: str, phase: int) -> complex:
        return self.voltages[bus][phase]

    def branch_shunt_currents(self, net: Network, branch_id: str):
        """Shunt currents drawn at the two ends of a branch."""
        br = net.branches[branch_id]
        uf = self.bus_phasors(br.f_bus, br.phases)
        ut = self.bus_phasors(br.t_bus, br.phases)
        return br.y_fr @ uf, br.y_to @ ut

    def bus_phasors(self, bus: str, phases) -> np.ndarray:
        return np.array([self.voltages[bus][p] for p in phases])

    def branch_flow(self, net: Network, branch_id: str):
        """Per-phase complex power entering the branch at each end."""
        br = net.branches[branch_id]
        i_s = self.branch_current[branch_id]
        ish_f, ish_t = self.branch_shunt_currents(net, branch_id)
        uf = self.bus_phasors(br.f_bus, br.phases)
        ut = self.bus_phasors(br.t_bus, br.phases)
        s_fr = uf * np.conj(i_s + ish_f)
        s_to = ut * np.conj(-i_s + ish_t)
        return s_fr, s_to

    def to_json_dict(self, net: Network) -> dict:
        from ..formulations.ivr import map_solution_to_ivr

        values = map_solution_to_ivr(net, self)
        meta = {
            "kind": "pf_solution",
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "max_residual": self.max_residual,
            "message": self.message,
            "buses": {b: sorted(ph) for b, ph in
                      ((bid, list(v.keys())) for bid, v in sorted(self.voltages.items()))},
        }
        return solution_to_json_dict(values, meta)


def load_solution_voltages(data: dict) -> dict[str, dict[int, complex]]:
    """Per-bus phasors from a solution JSON document, using the bus/phase
    table in the metadata rather than parsing variable names."""
    if data.get("schema") != SCHEMA_SOLUTION:
        raise ValueError(f"unexpected schema {data.get('schema')!r}")
    buses = data.get("meta", {}).get("buses")
    if buses is None:
        raise ValueError("solution file carries no bus/phase table in meta")
    values = data["values"]
    out: dict[str, dict[int, complex]] = {}
    for bus, phases in buses.items():
        out[bus] = {}
        for p in phases:
            try:
                re = values[f"ure:{bus}:{p}"]
                im = values[f"uim:{bus}:{p}"]
            except KeyError as exc:
                raise ValueError(f"solution lacks voltage entries for bus {bus!r}") from exc
            out[bus][int(p)] = complex(re, im)
    return out


def _as_voltages(sol) -> dict[str, dict[int, complex]]:
    if isinstance(sol, PfSolution):
        return sol.voltages
    return sol


def delta_by_bus(a, b, floating_buses: frozenset[str] | set[str] = frozenset()) -> dict[str, float]:
    """Per-bus largest relative voltage-magnitude difference.

    On floating buses (potentials defined only up to a common shift),
    phase-to-phase magnitudes are compared instead. Raises ``ValueError``
    when the two solutions cover different buses or phases.
    """
    va, vb = _as_voltages(a), _as_voltages(b)
    if set(va) != set(vb):
        only_a = sorted(set(va) - set(vb))
        only_b = sorted(set(vb) - set(va))
        raise ValueError(f"bus sets differ (only in a: {only_a}, only in b: {only_b})")
    out: dict[str, float] = {}
    for bus in va:
        pa, pb = va[bus], vb[bus]
        if set(pa) != set(pb):
            raise ValueError(f"phase sets differ at bus {bus!r}")
        phases = sorted(pa)
        delta = 0.0
        if bus in floating_buses and len(phases) >= 2:
            pairs = [(phases[i], phases[j])
                     for i in range(len(phases)) for j in range(i + 1, len(phases))]
            for p, q in pairs:
                ma = abs(pa[p] - pa[q])
                mb = abs(pb[p] - pb[q])
                delta = max(delta, abs(ma - mb) / mb)
        else:
            for p in phases:
                delta = max(delta, abs(abs(pa[p]) - abs(pb[p])) / abs(pb[p]))
        out[bus] = delta
    return out


def compare_delta(a, b, floating_buses: frozenset[str] | set[str] = frozenset()) -> float:
    """Largest relative voltage-magnitude difference across buses and phases."""
    per_bus = delta_by_bus(a, b, floating_buses)
    return max(per_bus.values(), default=0.0)


def power_mismatch(net: Network, sol: PfSolution) -> float:
    """Largest per-bus per-phase complex power mismatch, computed from the
    element currents independently of any formulation."""
    mism: dict[tuple[str, int], complex] = {}
    live = set(sol.voltages)

    def add(bus: str, p: int, s: complex):
        mism[(bus, p)] = mism.get((bus, p), 0.0) + s

    for br in net.branches.values():
        if not br.status or br.id not in sol.branch_current:
            continue
        s_fr, s_to = sol.branch_flow(net, br.id)
        for k, p in enumerate(br.phases):
            add(br.f_bus, p, s_fr[k])
            add(br.t_bus, p, s_to[k])
    for tr in net.transformers.values():
        if not tr.status or tr.id not in sol.transformer_current:
            continue
        cfr, cto = sol.transformer_current[tr.id]
        uf = sol.bus_phasors(tr.f_bus, tr.phases)
        ut = sol.bus_phasors(tr.t_bus, tr.phases)
        for k, p in enumerate(tr.phases):
            add(tr.f_bus, p, uf[k] * np.conj(cfr[k]))
            add(tr.t_bus, p, ut[k] * np.conj(cto[k]))
    for sh in net.shunts.values():
        if not sh.status or sh.bus not in live:
            continue
        u = sol.bus_phasors(sh.bus, sh.phases)
        i = sh.y @ u
        for k, p in enumerate(sh.phases):
            add(sh.bus, p, u[k] * np.conj(i[k]))
    for ld in net.loads.values():
        if not ld.status or ld.id not in sol.load_current:
            continue
        cur = sol.load_current[ld.id]
        for k, leg in enumerate(ld.legs()):
            ua = sol.voltage(ld.bus, leg[0])
            add(ld.bus, leg[0], ua * np.conj(cur[k]))
            if len(leg) == 2:
                ub = sol.voltage(ld.bus, leg[1])
                add(ld.bus, leg[1], -ub * np.conj(cur[k]))
    for g in net.generators.values():
        if not g.status or g.id not in sol.generator_current:
            continue
        cur = sol.generator_current[g.id]
        for k, p in enumerate(g.phases):
            u = sol.voltage(g.bus, p)
            add(g.bus, p, -u * np.conj(cur[k]))
    return max((abs(v) for v in mism.values()), default=0.0)
