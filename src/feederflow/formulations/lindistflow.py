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

from ..mathir import EQ, LE, LinExpr, MathModel, QuadExpr
from ..network.components import Network, TimeSeries
from .common import FormulationError, NetworkScope, gen_cost_expr, require_radial, vn
from .socbfm import absorb_transformers

GAMMA = np.exp(-2j * np.pi / 3.0)


def w_name(bus: str, p: int, t: int | None = None) -> str:
    return vn("w", bus, p) if t is None else vn("w", bus, p, t)


def pbr_name(branch: str, p: int, t: int | None = None) -> str:
    return vn("pbr", branch, p) if t is None else vn("pbr", branch, p, t)


def qbr_name(branch: str, p: int, t: int | None = None) -> str:
    return vn("qbr", branch, p) if t is None else vn("qbr", branch, p, t)


def pg_name(gen: str, p: int, t: int | None = None) -> str:
    return vn("pg", gen, p) if t is None else vn("pg", gen, p, t)


def qg_name(gen: str, p: int, t: int | None = None) -> str:
    return vn("qg", gen, p) if t is None else vn("qg", gen, p, t)


def psc_name(sid: str, t: int | None = None) -> str:
    return vn("psc", sid) if t is None else vn("psc", sid, t)


def psd_name(sid: str, t: int | None = None) -> str:
    return vn("psd", sid) if t is None else vn("psd", sid, t)


def se_name(sid: str, t: int | None = None) -> str:
    return vn("se", sid) if t is None else vn("se", sid, t)


def _rotated_impedance(z: np.ndarray, phases) -> np.ndarray:
    h = np.zeros_like(z)
    for i, p in enumerate(phases):
        for j, q in enumerate(phases):
            h[i, j] = GAMMA ** (p - q) * np.conj(z[i, j])
    return h


def build_opf_lindistflow(net: Network, periods: TimeSeries | None = None) -> MathModel:
    """Linear OPF over one snapshot or a scaled period sequence.

    Each storage is pinned back to its initial energy in the final period,
    which makes round-trip losses a structural identity.
    """
    require_radial(net, "voltage-magnitude linearization")
    scope = NetworkScope(net)
    records, dropped = absorb_transformers(scope)
    lifted_buses = [b for b in scope.buses() if b.id not in dropped]

    if periods is not None:
        periods.validate_lengths()
        times: list[int | None] = list(range(periods.n_periods))
        dt = periods.dt_hours
    else:
        times = [None]
        dt = 1.0

    model = MathModel("lindistflow")
    model.meta["formulation"] = "lindistflow"
    model.meta["n_periods"] = len(times)
    if dropped:
        model.meta["absorbed_buses"] = sorted(dropped)

    objective = QuadExpr()

    for t_idx, t in enumerate(times):
        load_scale = periods.load_scale[t_idx] if periods is not None else 1.0
        gen_scale = periods.gen_scale[t_idx] if periods is not None else 1.0
        cost_scale = periods.cost_scale[t_idx] if periods is not None else 1.0

        for bus in lifted_buses:
            vmin = float(bus.vmin) if bus.vmin is not None else 0.0
            vmax = float(bus.vmax) if bus.vmax is not None else float("inf")
            lb, ub = max(vmin, 0.0) ** 2, vmax**2
            if bus.bus_type == "slack":
                lb = ub = float(bus.vm_set) ** 2
            for p in bus.phases:
                model.add_var(w_name(bus.id, p, t), lb=lb, ub=ub, start=1.0)

        # per-bus/phase accumulators: (P leaving, Q leaving)
        pbal: dict[tuple[str, int], LinExpr] = {}
        qbal: dict[tuple[str, int], LinExpr] = {}
        for bus in lifted_buses:
            for p in bus.phases:
                pbal[(bus.id, p)] = LinExpr()
                qbal[(bus.id, p)] = LinExpr()

        def shunt_draw(bus_id: str, phases, y: np.ndarray, t=t) -> None:
            # W[p,q] ~ g^(p-q) (w_p + w_q)/2 at nominal rotation
            for i, p in enumerate(phases):
                for j, q in enumerate(phases):
                    if y[i, j] == 0.0:
                        continue
                    coef = np.conj(complex(y[i, j])) * GAMMA ** (p - q) * 0.5
                    for phase in (p, q):
                        pbal[(bus_id, p)].add_term(w_name(bus_id, phase, t), coef.real)
                        qbal[(bus_id, p)].add_term(w_name(bus_id, phase, t), coef.imag)

        for rec in records:
            h = _rotated_impedance(rec.z, rec.phases)
            r2 = rec.ratio**2
            for i, p in enumerate(rec.phases):
                model.add_var(pbr_name(rec.id, p, t), start=0.0)
                model.add_var(qbr_name(rec.id, p, t), start=0.0)
                pbal[(rec.f_bus, p)].add_term(pbr_name(rec.id, p, t), 1.0)
                qbal[(rec.f_bus, p)].add_term(qbr_name(rec.id, p, t), 1.0)
                pbal[(rec.t_bus, p)].add_term(pbr_name(rec.id, p, t), -1.0)
                qbal[(rec.t_bus, p)].add_term(qbr_name(rec.id, p, t), -1.0)
            for i, p in enumerate(rec.phases):
                drop = LinExpr()
                drop.add_term(w_name(rec.t_bus, p, t), 1.0)
                drop.add_term(w_name(rec.f_bus, p, t), -r2)
                for j, q in enumerate(rec.phases):
                    drop.add_term(pbr_name(rec.id, q, t), 2.0 * h[i, j].real)
                    drop.add_term(qbr_name(rec.id, q, t), -2.0 * h[i, j].imag)
                label = vn("drop", rec.id, p) if t is None else vn("drop", rec.id, p, t)
                model.add_linear(label, drop, EQ)
            if rec.y_fr is not None and np.any(rec.y_fr != 0.0):
                shunt_draw(rec.f_bus, rec.phases, rec.y_fr)
            if rec.y_to is not None and np.any(rec.y_to != 0.0):
                shunt_draw(rec.t_bus, rec.phases, rec.y_to)

        for sh in scope.shunts:
            if sh.bus in dropped:
                raise FormulationError(f"shunt {sh.id!r} sits on an absorbed transformer bus")
            shunt_draw(sh.bus, sh.phases, sh.y)

        for ld in scope.loads:
            if ld.bus in dropped:
                raise FormulationError(f"load {ld.id!r} sits on an absorbed transformer bus")
            for k, leg in enumerate(ld.legs()):
                s = ld.s_nom[k] * load_scale
                if len(leg) == 1:
                    pbal[(ld.bus, leg[0])].const += s.real
                    qbal[(ld.bus, leg[0])].const += s.imag
                else:
                    # delta leg: split the nominal draw across its two phases
                    for phase in leg:
                        pbal[(ld.bus, phase)].const += s.real / 2.0
                        qbal[(ld.bus, phase)].const += s.imag / 2.0

        pvars: dict[tuple[str, int], str] = {}
        for g in scope.generators:
            if g.bus in dropped:
                raise FormulationError(f"generator {g.id!r} sits on an absorbed transformer bus")
            if g.connection != "wye":
                raise FormulationError(f"generator {g.id!r}: delta generators unsupported")
            for k, p in enumerate(g.phases):
                pmax = g.p_max[k] * gen_scale if np.isfinite(g.p_max[k]) else g.p_max[k]
                model.add_var(pg_name(g.id, p, t), lb=g.p_min[k], ub=pmax, start=0.0)
                model.add_var(qg_name(g.id, p, t), lb=g.q_min[k], ub=g.q_max[k], start=0.0)
                pvars[(g.id, p)] = pg_name(g.id, p, t)
                pbal[(g.bus, p)].add_term(pg_name(g.id, p, t), -1.0)
                qbal[(g.bus, p)].add_term(qg_name(g.id, p, t), -1.0)

        for st in scope.storages:
            if st.bus in dropped:
                raise FormulationError(f"storage {st.id!r} sits on an absorbed transformer bus")
            model.add_var(psc_name(st.id, t), lb=0.0, ub=st.p_charge_max, start=0.0)
            model.add_var(psd_name(st.id, t), lb=0.0, ub=st.p_discharge_max, start=0.0)
            model.add_var(se_name(st.id, t), lb=0.0, ub=st.energy_max, start=st.energy_init)
            share = 1.0 / len(st.phases)
            for p in st.phases:
                pbal[(st.bus, p)].add_term(psc_name(st.id, t), share)
                pbal[(st.bus, p)].add_term(psd_name(st.id, t), -share)
            if np.isfinite(st.s_rating):
                lim = LinExpr()
                lim.add_term(psc_name(st.id, t), 1.0)
                lim.add_term(psd_name(st.id, t), 1.0)
                lim.const = -float(st.s_rating)
                label = vn("storage_rating", st.id) if t is None else vn("storage_rating", st.id, t)
                model.add_linear(label, lim, LE)

            # energy state: E_t = E_prev + dt (eta_c psc - psd / eta_d)
            state = LinExpr()
            state.add_term(se_name(st.id, t), 1.0)
            state.add_term(psc_name(st.id, t), -dt * st.eta_charge)
            state.add_term(psd_name(st.id, t), dt / st.eta_discharge)
            if t_idx == 0:
                state.const = -st.energy_init
            else:
                state.add_term(se_name(st.id, times[t_idx - 1]), -1.0)
            label = vn("storage_state", st.id) if t is None else vn("storage_state", st.id, t)
            model.add_linear(label, state, EQ)
            if t_idx == len(times) - 1:
                closure = LinExpr()
                closure.add_term(se_name(st.id, t), 1.0)
                closure.const = -st.energy_init
                label = vn("storage_final", st.id) if t is None else vn("storage_final", st.id, t)
                model.add_linear(label, closure, EQ)

        for (bus_id, p) in sorted(pbal):
            pl = vn("balance_p", bus_id, p) if t is None else vn("balance_p", bus_id, p, t)
            ql = vn("balance_q", bus_id, p) if t is None else vn("balance_q", bus_id, p, t)
            model.add_linear(pl, pbal[(bus_id, p)], EQ)
            model.add_linear(ql, qbal[(bus_id, p)], EQ)

        objective.add(
            gen_cost_expr(
                scope, pvars, net.sbase, allow_quadratic=False, cost_scale=cost_scale * dt
            )
        )

    model.set_objective(objective)
    return model


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
