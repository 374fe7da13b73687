"""Second-order cone branch-flow relaxation for radial networks.

Lifted matrix variables per element: the Hermitian voltage outer product
``W = U U^H`` per bus, the Hermitian series-current outer product
``L = I I^H`` and the (non-Hermitian) sending power matrix ``S = U_f I^H``
per branch. The nonconvex rank coupling is relaxed to rotated second-order
cone minors ``|S_pq|^2 <= W_pp L_qq``.

Scalar-ratio transformers are absorbed before lifting: the ideal stage and
its series leakage collapse into a single ratio-scaled branch record between
the primary and secondary terminals, the internal coupling bus drops out,
and the sending voltage enters all rows scaled by the ratio. Vector-group
transformers (phase-shifting connections) have no scalar ratio and are
rejected, as are delta loads and meshed topology.

Variable names: ``wre:bus:p:q`` / ``wim:bus:p:q`` (upper triangle, p <= q),
``lre:branch:p:q`` / ``lim:branch:p:q``, ``sre:branch:p:q`` /
``sim:branch:p:q`` (all ordered pairs), ``pg:gen:p`` / ``qg:gen:p``
dispatch, ``m:load:leg`` leg voltage magnitude for constant-current loads.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mathir import EQ, LinExpr, MathModel
from ..network.components import Network
from .common import ComplexExpr, FormulationError, gen_cost_expr, leg_label, lift_radial, vn
from .acr import p_g, q_g

if TYPE_CHECKING:
    from ..pf.solution import PfSolution


def w_re(bus: str, p: int, q: int) -> str:
    return vn("wre", bus, p, q)


def w_im(bus: str, p: int, q: int) -> str:
    return vn("wim", bus, p, q)


def l_re(branch: str, p: int, q: int) -> str:
    return vn("lre", branch, p, q)


def l_im(branch: str, p: int, q: int) -> str:
    return vn("lim", branch, p, q)


def s_re(branch: str, p: int, q: int) -> str:
    return vn("sre", branch, p, q)


def s_im(branch: str, p: int, q: int) -> str:
    return vn("sim", branch, p, q)


def m_name(load: str, leg: str) -> str:
    return vn("m", load, leg)


def _hermitian_entry(prefix_re, prefix_im, owner: str, p: int, q: int) -> ComplexExpr:
    if p == q:
        e = ComplexExpr()
        e.re.add_term(prefix_re(owner, p, q), 1.0)
        return e
    if p < q:
        return ComplexExpr.of(prefix_re(owner, p, q), prefix_im(owner, p, q))
    return ComplexExpr.of(prefix_re(owner, q, p), prefix_im(owner, q, p)).conj()


def w_entry(bus: str, p: int, q: int) -> ComplexExpr:
    return _hermitian_entry(w_re, w_im, bus, p, q)


def l_entry(branch: str, p: int, q: int) -> ComplexExpr:
    return _hermitian_entry(l_re, l_im, branch, p, q)


def s_entry(branch: str, p: int, q: int) -> ComplexExpr:
    return ComplexExpr.of(s_re(branch, p, q), s_im(branch, p, q))


def build_opf_socbfm(net: Network) -> MathModel:
    """Rotated-cone branch-flow relaxation of unbalanced OPF."""
    scope, records, dropped = lift_radial(net, "branch-flow relaxation")
    lifted_buses = [b for b in scope.buses() if b.id not in dropped]

    model = MathModel("socbfm")
    model.meta["formulation"] = "socbfm"
    if dropped:
        model.meta["absorbed_buses"] = sorted(dropped)

    for bus in lifted_buses:
        vmin = float(bus.vmin) if bus.vmin is not None else 0.0
        vmax = float(bus.vmax) if bus.vmax is not None else float("inf")
        for i, p in enumerate(bus.phases):
            model.add_var(w_re(bus.id, p, p), lb=vmin**2, ub=vmax**2, start=1.0)
            for q in bus.phases[i + 1 :]:
                model.add_var(w_re(bus.id, p, q), start=-0.5)
                model.add_var(w_im(bus.id, p, q), start=0.0)

    # power balance accumulators per bus/phase (complex, everything leaving)
    balance: dict[tuple[str, int], ComplexExpr] = {
        (b.id, p): ComplexExpr() for b in lifted_buses for p in b.phases
    }

    def add_shunt_draw(bus_id: str, phases, y: np.ndarray) -> None:
        # exact lift of U_p conj((Y U)_p): linear in W entries
        for i, p in enumerate(phases):
            acc = balance[(bus_id, p)]
            for j, q in enumerate(phases):
                if y[i, j] != 0.0:
                    acc.add(w_entry(bus_id, p, q), np.conj(complex(y[i, j])))

    for rec in records:
        n = len(rec.phases)
        for i, p in enumerate(rec.phases):
            model.add_var(l_re(rec.id, p, p), lb=0.0, start=0.0)
            for q in rec.phases[i + 1 :]:
                model.add_var(l_re(rec.id, p, q), start=0.0)
                model.add_var(l_im(rec.id, p, q), start=0.0)
        for p in rec.phases:
            for q in rec.phases:
                model.add_var(s_re(rec.id, p, q), start=0.0)
                model.add_var(s_im(rec.id, p, q), start=0.0)

        z = rec.z
        r2 = rec.ratio**2
        # entrywise voltage drop across the series element
        for i, p in enumerate(rec.phases):
            for j in range(i, n):
                q = rec.phases[j]
                acc = w_entry(rec.t_bus, p, q)
                acc.add(w_entry(rec.f_bus, p, q), -r2)
                for mth, mp in enumerate(rec.phases):
                    if z[j, mth] != 0.0:
                        acc.add(s_entry(rec.id, p, mp), np.conj(complex(z[j, mth])))
                    if z[i, mth] != 0.0:
                        acc.add(s_entry(rec.id, q, mp).conj(), complex(z[i, mth]))
                for mth, mp in enumerate(rec.phases):
                    for nth, nq in enumerate(rec.phases):
                        coef = complex(z[i, mth]) * np.conj(complex(z[j, nth]))
                        if coef != 0.0:
                            acc.add(l_entry(rec.id, mp, nq), -coef)
                model.add_linear(vn("drop", rec.id, p, q, "re"), acc.re, EQ)
                if p != q:
                    model.add_linear(vn("drop", rec.id, p, q, "im"), acc.im, EQ)

        # sending end pays diag(S); receiving end gets diag(S - Z L)
        for i, p in enumerate(rec.phases):
            balance[(rec.f_bus, p)].add(s_entry(rec.id, p, p))
            acc = balance[(rec.t_bus, p)]
            acc.add(s_entry(rec.id, p, p), -1.0)
            for mth, mp in enumerate(rec.phases):
                if z[i, mth] != 0.0:
                    acc.add(l_entry(rec.id, mp, p), complex(z[i, mth]))

        if rec.y_fr is not None and np.any(rec.y_fr != 0.0):
            add_shunt_draw(rec.f_bus, rec.phases, rec.y_fr)
        if rec.y_to is not None and np.any(rec.y_to != 0.0):
            add_shunt_draw(rec.t_bus, rec.phases, rec.y_to)

        # relaxed rank coupling: |S_pq|^2 <= ratio^2 W_ff[p,p] * L[q,q]
        for p in rec.phases:
            x = LinExpr()
            x.add_term(w_re(rec.f_bus, p, p), r2)
            for q in rec.phases:
                y_expr = LinExpr()
                y_expr.add_term(l_re(rec.id, q, q), 1.0)
                sre_e = LinExpr()
                sre_e.add_term(s_re(rec.id, p, q), 1.0)
                sim_e = LinExpr()
                sim_e.add_term(s_im(rec.id, p, q), 1.0)
                model.add_rotated_soc(vn("cone", rec.id, p, q), x, y_expr, [sre_e, sim_e])

    for sh in scope.shunts:
        add_shunt_draw(sh.bus, sh.phases, sh.y)

    for ld in scope.loads:
        if ld.connection != "wye":
            raise FormulationError(
                f"load {ld.id!r}: delta loads are not representable in the "
                f"lifted per-phase balance"
            )
        a_z, a_i, a_p = ld.zip_weights
        for k, leg in enumerate(ld.legs()):
            p = leg[0]
            lab = leg_label(leg)
            s0 = ld.s_nom[k]
            acc = balance[(ld.bus, p)]
            acc.add(ComplexExpr.constant(s0 * a_p))
            if a_z != 0.0:
                e = ComplexExpr()
                e.re.add_term(w_re(ld.bus, p, p), 1.0)
                acc.add(e, s0 * a_z / ld.v_nom**2)
            if a_i != 0.0:
                model.add_var(m_name(ld.id, lab), lb=0.0, start=1.0)
                e = ComplexExpr()
                e.re.add_term(m_name(ld.id, lab), 1.0)
                acc.add(e, s0 * a_i / ld.v_nom)
                # m^2 <= W_pp keeps the exact lift feasible
                x = LinExpr()
                x.add_term(w_re(ld.bus, p, p), 1.0)
                one = LinExpr.constant(1.0)
                marg = LinExpr()
                marg.add_term(m_name(ld.id, lab), 1.0)
                model.add_rotated_soc(vn("mag_cone", ld.id, lab), x, one, [marg])

    pg_by_leg: dict[tuple[str, int], str] = {}
    for g in scope.generators:
        for k, p in enumerate(g.phases):
            model.add_var(p_g(g.id, p), lb=g.p_min[k], ub=g.p_max[k], start=g.p_set[k])
            model.add_var(q_g(g.id, p), lb=g.q_min[k], ub=g.q_max[k], start=g.q_set[k])
            pg_by_leg[(g.id, p)] = p_g(g.id, p)
            e = ComplexExpr()
            e.re.add_term(p_g(g.id, p), -1.0)
            e.im.add_term(q_g(g.id, p), -1.0)
            balance[(g.bus, p)].add(e)

    for (bus_id, p), acc in sorted(balance.items()):
        model.add_linear(vn("balance", bus_id, p, "re"), acc.re, EQ)
        model.add_linear(vn("balance", bus_id, p, "im"), acc.im, EQ)

    for bus in lifted_buses:
        if bus.bus_type != "slack":
            continue
        pattern = bus.slack_voltage()
        for i, p in enumerate(bus.phases):
            for j in range(i, len(bus.phases)):
                q = bus.phases[j]
                target = pattern[i] * np.conj(pattern[j])
                e = w_entry(bus.id, p, q)
                row_re = e.re.copy()
                row_re.const -= target.real
                model.add_linear(vn("slack_w", bus.id, p, q, "re"), row_re, EQ)
                if p != q:
                    row_im = e.im.copy()
                    row_im.const -= target.imag
                    model.add_linear(vn("slack_w", bus.id, p, q, "im"), row_im, EQ)

    model.set_objective(gen_cost_expr(scope, pg_by_leg, net.sbase, allow_quadratic=False))
    if scope.storages:
        model.meta["ignored_storages"] = [s.id for s in scope.storages]
    if scope.dropped_buses:
        model.meta["dropped_buses"] = list(scope.dropped_buses)
    return model


def map_solution_to_socbfm(net: Network, pf: "PfSolution") -> dict[str, float]:
    """Rank-1 lift of a power flow solution onto the relaxation's variables."""
    scope, records, dropped = lift_radial(net, "branch-flow relaxation")
    out: dict[str, float] = {}

    for bus in scope.buses():
        if bus.id in dropped:
            continue
        for i, p in enumerate(bus.phases):
            vp = pf.voltage(bus.id, p)
            out[w_re(bus.id, p, p)] = abs(vp) ** 2
            for q in bus.phases[i + 1 :]:
                w = vp * np.conj(pf.voltage(bus.id, q))
                out[w_re(bus.id, p, q)] = w.real
                out[w_im(bus.id, p, q)] = w.imag

    for rec in records:
        if rec.series_id:
            if rec.series_id not in pf.branch_current:
                raise FormulationError(f"solution lacks series current for {rec.series_id!r}")
            cur = pf.branch_current[rec.series_id]
            if rec.flip_series:
                cur = -cur
        else:
            if rec.id not in pf.transformer_current:
                raise FormulationError(f"solution lacks terminal currents for {rec.id!r}")
            cfr, cto = pf.transformer_current[rec.id]
            # series current delivered into the secondary terminal
            tr = net.transformers[rec.id]
            cur = -cfr if tr.f_bus == rec.t_bus else -cto
        uf = np.array([pf.voltage(rec.f_bus, p) for p in rec.phases])
        for i, p in enumerate(rec.phases):
            out[l_re(rec.id, p, p)] = abs(cur[i]) ** 2
            for j in range(i + 1, len(rec.phases)):
                q = rec.phases[j]
                lv = cur[i] * np.conj(cur[j])
                out[l_re(rec.id, p, q)] = lv.real
                out[l_im(rec.id, p, q)] = lv.imag
        for i, p in enumerate(rec.phases):
            for j, q in enumerate(rec.phases):
                sv = rec.ratio * uf[i] * np.conj(cur[j])
                out[s_re(rec.id, p, q)] = sv.real
                out[s_im(rec.id, p, q)] = sv.imag

    for ld in scope.loads:
        _, a_i, _ = ld.zip_weights
        if a_i == 0.0:
            continue
        for leg in ld.legs():
            out[m_name(ld.id, leg_label(leg))] = abs(pf.voltage(ld.bus, leg[0]))

    for g in scope.generators:
        if g.id not in pf.generator_current:
            raise FormulationError(f"solution lacks injection current for generator {g.id!r}")
        cur = pf.generator_current[g.id]
        for k, p in enumerate(g.phases):
            s = pf.voltage(g.bus, p) * np.conj(cur[k])
            out[p_g(g.id, p)] = s.real
            out[q_g(g.id, p)] = s.imag
    return out
