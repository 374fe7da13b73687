"""Linear multi-phase branch-flow OPF with storage.

Voltage state is the squared magnitude per bus/phase; flows are lossless
per-branch real/reactive pairs in a single direction. The voltage drop
couples phases through the rotated impedance ``H[p,q] = g^(p-q) *
conj(z[p,q])`` with ``g = exp(-2j*pi/3)``, the standard approximation for
feeders whose phasors stay near the nominal rotation. Loads enter at their
nominal-voltage draw, delta legs split evenly across their two phases, and
shunt draws use the nominal-angle interpolation ``W[p,q] ~ g^(p-q) *
(w_p + w_q) / 2``. Scalar-ratio transformers are absorbed exactly as in the
cone relaxation; thermal ratings are not modeled here.

Storage is the one element with time structure: each period adds charge,
discharge and energy variables linked by the efficiency-weighted state
equation. The charge/discharge complementarity is dropped from the linear
program; report it post-solve with :func:`complementarity_violation`.

Variable names (``:t`` appended in multi-period mode): ``w:bus:p``,
``pbr:branch:p`` / ``qbr:branch:p``, ``pg:gen:p`` / ``qg:gen:p``,
``psc:storage`` / ``psd:storage`` / ``se:storage``.
"""
from __future__ import annotations

import numpy as np

from ..mathir import LE, MathModel, RowBuilder, add_to
from ..network.components import Network, TimeSeries
from .common import NetworkScope, lift_radial, stamp_gen_cost, vn

GAMMA = np.exp(-2j * np.pi / 3.0)


def w_name(bus: str, p: int, t: int | None = None) -> str:
    return vn("w", bus, p, t)


def psc_name(sid: str, t: int | None = None) -> str:
    return vn("psc", sid, t)


def psd_name(sid: str, t: int | None = None) -> str:
    return vn("psd", sid, t)


def se_name(sid: str, t: int | None = None) -> str:
    return vn("se", sid, t)


def _rotated_impedance(z: np.ndarray, phases) -> np.ndarray:
    h = np.zeros_like(z)
    for i, p in enumerate(phases):
        for j, q in enumerate(phases):
            h[i, j] = GAMMA ** (p - q) * np.conj(z[i, j])
    return h


def _shunt_draw(bal: dict, w: dict, bus_id: str, phases, y: np.ndarray) -> None:
    """Add a shunt's draw to the balances ``bal`` of its bus, with the
    squared-magnitude columns ``w``: ``W[p,q] ~ g^(p-q) (w_p + w_q)/2`` at
    nominal rotation."""
    for i, p in enumerate(phases):
        for j, q in enumerate(phases):
            if y[i, j] == 0.0:
                continue
            coef = np.conj(complex(y[i, j])) * GAMMA ** (p - q) * 0.5
            for phase in (p, q):
                add_to(bal[bus_id, p][0], w[bus_id, phase], coef.real)
                add_to(bal[bus_id, p][1], w[bus_id, phase], coef.imag)


def build_opf_lindistflow(net: Network, periods: TimeSeries | None = None) -> MathModel:
    """Linear OPF over one snapshot or a scaled period sequence.

    Each storage is pinned back to its initial energy in the final period,
    which makes round-trip losses a structural identity.
    """
    scope, records, dropped = lift_radial(net, "voltage-magnitude linearization")
    lifted_buses = [b for b in scope.buses() if b.id not in dropped]

    if periods is not None:
        periods.validate_lengths()
        times: list[int | None] = list(range(periods.n_periods))
        dt = periods.dt_hours
    else:
        times = [None]
        dt = 1.0

    rows = RowBuilder()
    rows.meta["formulation"] = "lindistflow"
    rows.meta["n_periods"] = len(times)
    if dropped:
        rows.meta["absorbed_buses"] = sorted(dropped)

    energy: dict[str, int] = {}  # each storage's energy column of the period before
    for t_idx, t in enumerate(times):
        load_scale = periods.load_scale[t_idx] if periods is not None else 1.0
        gen_scale = periods.gen_scale[t_idx] if periods is not None else 1.0
        cost_scale = periods.cost_scale[t_idx] if periods is not None else 1.0

        w: dict[tuple[str, int], int] = {}
        for bus in lifted_buses:
            lb, ub = max(bus.vmin, 0.0) ** 2, bus.vmax**2
            if bus.bus_type == "slack":
                lb = ub = float(bus.vm_set) ** 2
            for p in bus.phases:
                w[bus.id, p] = rows.var(None, "w", bus.id, p, t, lb=lb, ub=ub, start=1.0)

        # per-bus/phase accumulators: P and Q leaving, as term dicts and constants
        bal = {(b.id, p): [{}, {}, 0.0, 0.0] for b in lifted_buses for p in b.phases}

        for rec in records:
            h = _rotated_impedance(rec.z, rec.phases)
            r2 = rec.ratio**2
            flow = []
            for p in rec.phases:
                pq = (rows.var(None, "pbr", rec.id, p, t), rows.var(None, "qbr", rec.id, p, t))
                flow.append(pq)
                for bus_id, sign in ((rec.f_bus, 1.0), (rec.t_bus, -1.0)):
                    add_to(bal[bus_id, p][0], pq[0], sign)
                    add_to(bal[bus_id, p][1], pq[1], sign)
            for i, p in enumerate(rec.phases):
                drop: dict[int, float] = {}
                add_to(drop, w[rec.t_bus, p], 1.0)
                add_to(drop, w[rec.f_bus, p], -r2)
                for j, (pbr, qbr) in enumerate(flow):
                    add_to(drop, pbr, 2.0 * h[i, j].real)
                    add_to(drop, qbr, -2.0 * h[i, j].imag)
                rows.row(None, "drop", rec.id, p, t, lin=drop)
            if rec.y_fr is not None and np.any(rec.y_fr != 0.0):
                _shunt_draw(bal, w, rec.f_bus, rec.phases, rec.y_fr)
            if rec.y_to is not None and np.any(rec.y_to != 0.0):
                _shunt_draw(bal, w, rec.t_bus, rec.phases, rec.y_to)

        for sh in scope.shunts:
            _shunt_draw(bal, w, sh.bus, sh.phases, sh.y)

        for ld in scope.loads:
            for k, leg in enumerate(ld.legs()):
                s = ld.s_nom[k] * load_scale
                if len(leg) == 1:
                    acc = bal[ld.bus, leg[0]]
                    acc[2] += s.real
                    acc[3] += s.imag
                else:
                    # delta leg: split the nominal draw across its two phases
                    for phase in leg:
                        acc = bal[ld.bus, phase]
                        acc[2] += s.real / 2.0
                        acc[3] += s.imag / 2.0

        pg: dict[tuple[str, int], int] = {}
        for g in scope.generators:
            for k, p in enumerate(g.phases):
                pmax = g.p_max[k] * gen_scale if np.isfinite(g.p_max[k]) else g.p_max[k]
                pg[g.id, p] = rows.var(None, "pg", g.id, p, t, lb=g.p_min[k], ub=pmax)
                qg = rows.var(None, "qg", g.id, p, t, lb=g.q_min[k], ub=g.q_max[k])
                add_to(bal[g.bus, p][0], pg[g.id, p], -1.0)
                add_to(bal[g.bus, p][1], qg, -1.0)

        for st in scope.storages:
            psc = rows.var(None, "psc", st.id, t, lb=0.0, ub=st.p_charge_max)
            psd = rows.var(None, "psd", st.id, t, lb=0.0, ub=st.p_discharge_max)
            se = rows.var(None, "se", st.id, t, lb=0.0, ub=st.energy_max, start=st.energy_init)
            share = 1.0 / len(st.phases)
            for p in st.phases:
                add_to(bal[st.bus, p][0], psc, share)
                add_to(bal[st.bus, p][0], psd, -share)
            if np.isfinite(st.s_rating):
                r = rows.row(None, "storage_rating", st.id, t, lin={psc: 1.0, psd: 1.0}, sense=LE)
                rows.const[r] = -float(st.s_rating)

            # energy state: E_t = E_prev + dt (eta_c psc - psd / eta_d)
            state: dict[int, float] = {}
            add_to(state, se, 1.0)
            add_to(state, psc, -dt * st.eta_charge)
            add_to(state, psd, dt / st.eta_discharge)
            if t_idx > 0:
                add_to(state, energy[st.id], -1.0)
            const = -st.energy_init if t_idx == 0 else 0.0
            rows.row(None, "storage_state", st.id, t, lin=state, const=const)
            if t_idx == len(times) - 1:
                rows.row(None, "storage_final", st.id, t, lin={se: 1.0}, const=-st.energy_init)
            energy[st.id] = se

        for (bus_id, p), (p_terms, q_terms, p_const, q_const) in sorted(bal.items()):
            rows.row(None, "balance_p", bus_id, p, t, lin=p_terms, const=p_const)
            rows.row(None, "balance_q", bus_id, p, t, lin=q_terms, const=q_const)

        stamp_gen_cost(rows, scope, pg, net.sbase, allow_quadratic=False, cost_scale=cost_scale * dt)

    return MathModel("lindistflow", rows)


def complementarity_violation(net: Network, assignment, periods: TimeSeries | None = None) -> float:
    """Largest simultaneous charge/discharge power across storages/periods."""
    scope = NetworkScope(net)
    times: list[int | None] = (
        list(range(periods.n_periods)) if periods is not None else [None]
    )
    worst = 0.0
    for st in scope.storages:
        for t in times:
            c = assignment.get(psc_name(st.id, t), 0.0)
            d = assignment.get(psd_name(st.id, t), 0.0)
            worst = max(worst, min(c, d))
    return worst


def storage_trajectories(
    net: Network, assignment, periods: TimeSeries | None = None
) -> dict[str, dict[str, list[float]]]:
    """Charge/discharge/energy series per storage from a solved assignment."""
    scope = NetworkScope(net)
    times: list[int | None] = (
        list(range(periods.n_periods)) if periods is not None else [None]
    )
    out: dict[str, dict[str, list[float]]] = {}
    for st in scope.storages:
        out[st.id] = {
            "charge": [assignment.get(psc_name(st.id, t), 0.0) for t in times],
            "discharge": [assignment.get(psd_name(st.id, t), 0.0) for t in times],
            "energy": [assignment.get(se_name(st.id, t), 0.0) for t in times],
        }
    return out
