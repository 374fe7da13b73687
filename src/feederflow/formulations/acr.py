"""Exact OPF in rectangular voltages with per-branch power flows.

Quadratic equality model: rectangular voltage phasors per bus/phase plus
real/reactive flow variables per branch terminal. Series flows are tied to
voltages through the branch admittance, bus balances are written in power,
and generator dispatch carries the cost objective. Shares the voltage and
transformer-current vocabulary of the rectangular current model so power
flow solutions map across directly.

Extra variable names: ``pbr:branch:side:p`` / ``qbr:branch:side:p`` terminal
flows (side ``fr`` or ``to``), ``pd:load:leg`` / ``qd:load:leg`` leg draws,
``pg:gen:p`` / ``qg:gen:p`` dispatch.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mathir import EQ, GE, LE, LinExpr, MathModel, QuadExpr, RowBuilder, product
from ..network.components import Network
from .common import (
    ComplexExpr,
    FormulationError,
    NetworkScope,
    gen_cost_expr,
    leg_label,
    power_product,
    start_voltage,
    vn,
)
from .ivr import _cvar, ild_re, ild_im, it_re, it_im, transformer_coupling, u_im, u_re, vm_name

if TYPE_CHECKING:
    from ..pf.solution import PfSolution


def p_br(branch: str, side: str, p: int) -> str:
    return vn("pbr", branch, side, p)


def q_br(branch: str, side: str, p: int) -> str:
    return vn("qbr", branch, side, p)


def p_d(load: str, leg: str) -> str:
    return vn("pd", load, leg)


def q_d(load: str, leg: str) -> str:
    return vn("qd", load, leg)


def p_g(gen: str, p: int) -> str:
    return vn("pg", gen, p)


def q_g(gen: str, p: int) -> str:
    return vn("qg", gen, p)


def _uvar(bus: str, p: int) -> ComplexExpr:
    return ComplexExpr.of(u_re(bus, p), u_im(bus, p))


def _leg_voltage(bus: str, leg: tuple[int, ...]) -> ComplexExpr:
    v = _uvar(bus, leg[0])
    if len(leg) == 2:
        v = v.copy().add(_uvar(bus, leg[1]), -1.0)
    return v


def _square_mag(bus: str, p: int) -> QuadExpr:
    e = QuadExpr()
    e.add_quad_term(u_re(bus, p), u_re(bus, p), 1.0)
    e.add_quad_term(u_im(bus, p), u_im(bus, p), 1.0)
    return e


def _leg_mag_sq(v: ComplexExpr) -> QuadExpr:
    e = product(v.re, v.re)
    e.add(product(v.im, v.im))
    return e


def build_opf_acr(net: Network) -> MathModel:
    """Exact rectangular OPF with quadratic flow definitions."""
    scope = NetworkScope(net)
    model = MathModel("acr")
    model.meta["formulation"] = "acr"

    for bus in scope.buses():
        pattern = start_voltage(bus)
        for k, p in enumerate(bus.phases):
            model.add_var(u_re(bus.id, p), start=pattern[k].real)
            model.add_var(u_im(bus.id, p), start=pattern[k].imag)

    # per-bus/phase power balance accumulators (everything leaving the bus)
    balance: dict[tuple[str, int], tuple[QuadExpr, QuadExpr]] = {
        (b.id, p): (QuadExpr(), QuadExpr()) for b in scope.buses() for p in b.phases
    }

    for br in scope.branches:
        n = len(br.phases)
        uf = [_uvar(br.f_bus, p) for p in br.phases]
        ut = [_uvar(br.t_bus, p) for p in br.phases]
        for side, bus_id, phases in (("fr", br.f_bus, br.phases), ("to", br.t_bus, br.phases)):
            for p in phases:
                model.add_var(p_br(br.id, side, p), start=0.0)
                model.add_var(q_br(br.id, side, p), start=0.0)
                pe, qe = balance[(bus_id, p)]
                pe.add_lin_term(p_br(br.id, side, p), 1.0)
                qe.add_lin_term(q_br(br.id, side, p), 1.0)

        if np.allclose(br.z, 0.0):
            # ideal tie: equal voltages, flows balanced up to end shunts
            for k, p in enumerate(br.phases):
                gap = uf[k].copy().add(ut[k], -1.0)
                model.add_linear(vn("switch_voltage", br.id, p, "re"), gap.re, EQ)
                model.add_linear(vn("switch_voltage", br.id, p, "im"), gap.im, EQ)
            shf = _terminal_shunt(uf, br.y_fr)
            sht = _terminal_shunt(ut, br.y_to)
            for k, p in enumerate(br.phases):
                pe = QuadExpr()
                qe = QuadExpr()
                pe.add_lin_term(p_br(br.id, "fr", p), 1.0)
                pe.add_lin_term(p_br(br.id, "to", p), 1.0)
                qe.add_lin_term(q_br(br.id, "fr", p), 1.0)
                qe.add_lin_term(q_br(br.id, "to", p), 1.0)
                pe.add(shf[k][0], -1.0)
                pe.add(sht[k][0], -1.0)
                qe.add(shf[k][1], -1.0)
                qe.add(sht[k][1], -1.0)
                model.add_quadratic(vn("switch_power", br.id, p, "re"), pe, EQ)
                model.add_quadratic(vn("switch_power", br.id, p, "im"), qe, EQ)
        else:
            try:
                zinv = np.linalg.inv(br.z)
            except np.linalg.LinAlgError as exc:
                raise FormulationError(f"branch {br.id!r}: series impedance is singular") from exc
            a_fr = br.y_fr + zinv
            a_to = br.y_to + zinv
            for k, p in enumerate(br.phases):
                ifr = ComplexExpr()
                ito = ComplexExpr()
                for m in range(n):
                    ifr.add(uf[m], complex(a_fr[k, m]))
                    ifr.add(ut[m], -complex(zinv[k, m]))
                    ito.add(ut[m], complex(a_to[k, m]))
                    ito.add(uf[m], -complex(zinv[k, m]))
                for side, uvec, iexpr in (("fr", uf, ifr), ("to", ut, ito)):
                    pe, qe = power_product(uvec[k], iexpr)
                    pe.add_lin_term(p_br(br.id, side, p), -1.0)
                    qe.add_lin_term(q_br(br.id, side, p), -1.0)
                    model.add_quadratic(vn("flow_def", br.id, side, p, "re"), pe, EQ)
                    model.add_quadratic(vn("flow_def", br.id, side, p, "im"), qe, EQ)
        if np.isfinite(br.rating_s):
            for side in ("fr", "to"):
                for p in br.phases:
                    lim = QuadExpr()
                    lim.add_quad_term(p_br(br.id, side, p), p_br(br.id, side, p), 1.0)
                    lim.add_quad_term(q_br(br.id, side, p), q_br(br.id, side, p), 1.0)
                    lim.const = -float(br.rating_s) ** 2
                    model.add_quadratic(vn("flow_limit", br.id, side, p), lim, LE)

    # the IVR coupling stamps, over columns for the model's own voltages
    rows = RowBuilder()
    coupled = dict.fromkeys((bus, p) for tr in scope.transformers for bus in (tr.f_bus, tr.t_bus) for p in tr.phases)
    u = {key: _cvar(rows, None, "ure", "uim", *key) for key in coupled}
    for tr in scope.transformers:
        transformer_coupling(rows, tr, [u[tr.f_bus, p] for p in tr.phases], [u[tr.t_bus, p] for p in tr.phases], None)
    rows.to_model(model, shared=2 * len(u))
    for tr in scope.transformers:
        ifr, ito = ([ComplexExpr.of(it_re(tr.id, side, p), it_im(tr.id, side, p)) for p in tr.phases]
                    for side in ("fr", "to"))
        uf = [_uvar(tr.f_bus, p) for p in tr.phases]
        ut = [_uvar(tr.t_bus, p) for p in tr.phases]
        for k, p in enumerate(tr.phases):
            for bus_id, term in ((tr.f_bus, power_product(uf[k], ifr[k])), (tr.t_bus, power_product(ut[k], ito[k]))):
                pe, qe = balance[(bus_id, p)]
                pe.add(term[0])
                qe.add(term[1])

    for sh in scope.shunts:
        us = [_uvar(sh.bus, p) for p in sh.phases]
        draws = _terminal_shunt(us, sh.y)
        for k, p in enumerate(sh.phases):
            pe, qe = balance[(sh.bus, p)]
            pe.add(draws[k][0])
            qe.add(draws[k][1])

    for ld in scope.loads:
        a_z, a_i, a_p = ld.zip_weights
        for k, leg in enumerate(ld.legs()):
            lab = leg_label(leg)
            model.add_var(p_d(ld.id, lab), start=ld.s_nom[k].real)
            model.add_var(q_d(ld.id, lab), start=ld.s_nom[k].imag)
            v = _leg_voltage(ld.bus, leg)
            s0 = ld.s_nom[k]

            if a_i != 0.0:
                model.add_var(vm_name(ld.id, lab), lb=0.0, start=float(ld.v_nom))
                vm = LinExpr()
                vm.add_term(vm_name(ld.id, lab), 1.0)
                vdef = _leg_mag_sq(v)
                vdef.add(product(vm, vm), -1.0)
                model.add_quadratic(vn("vm_def", ld.id, lab), vdef, EQ)

            # ZIP law: drawn power as a function of leg voltage magnitude
            for part, target, varn in ((s0.real, "re", p_d(ld.id, lab)), (s0.imag, "im", q_d(ld.id, lab))):
                law = QuadExpr()
                law.add_lin_term(varn, 1.0)
                law.const = -part * a_p
                if a_z != 0.0:
                    law.add(_leg_mag_sq(v), -part * a_z / ld.v_nom**2)
                if a_i != 0.0:
                    law.add_lin_term(vm_name(ld.id, lab), -part * a_i / ld.v_nom)
                model.add_quadratic(vn("load_zip", ld.id, lab, target), law, EQ)

            if len(leg) == 1:
                pe, qe = balance[(ld.bus, leg[0])]
                pe.add_lin_term(p_d(ld.id, lab), 1.0)
                qe.add_lin_term(q_d(ld.id, lab), 1.0)
            else:
                # delta legs need the leg current to split the draw per phase
                model.add_var(ild_re(ld.id, lab), start=0.0)
                model.add_var(ild_im(ld.id, lab), start=0.0)
                cur = ComplexExpr.of(ild_re(ld.id, lab), ild_im(ld.id, lab))
                pe_leg, qe_leg = power_product(v, cur)
                pe_leg.add_lin_term(p_d(ld.id, lab), -1.0)
                qe_leg.add_lin_term(q_d(ld.id, lab), -1.0)
                model.add_quadratic(vn("load_leg_power", ld.id, lab, "re"), pe_leg, EQ)
                model.add_quadratic(vn("load_leg_power", ld.id, lab, "im"), qe_leg, EQ)
                for phase, sign in ((leg[0], 1.0), (leg[1], -1.0)):
                    term = power_product(_uvar(ld.bus, phase), cur)
                    pe, qe = balance[(ld.bus, phase)]
                    pe.add(term[0], sign)
                    qe.add(term[1], sign)

    pg_by_leg: dict[tuple[str, int], str] = {}
    for g in scope.generators:
        for k, p in enumerate(g.phases):
            model.add_var(p_g(g.id, p), lb=g.p_min[k], ub=g.p_max[k], start=g.p_set[k])
            model.add_var(q_g(g.id, p), lb=g.q_min[k], ub=g.q_max[k], start=g.q_set[k])
            pg_by_leg[(g.id, p)] = p_g(g.id, p)
            pe, qe = balance[(g.bus, p)]
            pe.add_lin_term(p_g(g.id, p), -1.0)
            qe.add_lin_term(q_g(g.id, p), -1.0)

    for (bus_id, p), (pe, qe) in sorted(balance.items()):
        model.add_quadratic(vn("balance", bus_id, p, "re"), pe, EQ)
        model.add_quadratic(vn("balance", bus_id, p, "im"), qe, EQ)

    for bus in scope.buses():
        if bus.bus_type == "slack":
            pattern = bus.slack_voltage()
            for k, p in enumerate(bus.phases):
                theta = float(np.angle(pattern[k]))
                c, s = np.cos(theta), np.sin(theta)
                ref = LinExpr()
                ref.add_term(u_im(bus.id, p), c)
                ref.add_term(u_re(bus.id, p), -s)
                model.add_linear(vn("theta_ref", bus.id, p), ref, EQ)
                # half-line selection: bound the dominant rectangular coordinate
                if abs(c) >= abs(s):
                    if c > 0:
                        model.set_bounds(u_re(bus.id, p), lb=0.0)
                    else:
                        model.set_bounds(u_re(bus.id, p), ub=0.0)
                elif s > 0:
                    model.set_bounds(u_im(bus.id, p), lb=0.0)
                else:
                    model.set_bounds(u_im(bus.id, p), ub=0.0)
        for p in bus.phases:
            if bus.vmax is not None and np.isfinite(bus.vmax):
                ub = _square_mag(bus.id, p)
                ub.const = -float(bus.vmax) ** 2
                model.add_quadratic(vn("vmag_ub", bus.id, p), ub, LE)
            if bus.vmin is not None and bus.vmin > 0.0:
                lb = _square_mag(bus.id, p)
                lb.const = -float(bus.vmin) ** 2
                model.add_quadratic(vn("vmag_lb", bus.id, p), lb, GE)

    model.set_objective(gen_cost_expr(scope, pg_by_leg, net.sbase))
    if scope.storages:
        model.meta["ignored_storages"] = [s.id for s in scope.storages]
    if scope.dropped_buses:
        model.meta["dropped_buses"] = list(scope.dropped_buses)
    return model


def _terminal_shunt(uvec: list[ComplexExpr], y: np.ndarray) -> list[tuple[QuadExpr, QuadExpr]]:
    """Per-conductor power drawn by an admittance block, as quadratics."""
    out = []
    for k in range(len(uvec)):
        cur = ComplexExpr()
        for m in range(len(uvec)):
            if y[k, m] != 0.0:
                cur.add(uvec[m], complex(y[k, m]))
        out.append(power_product(uvec[k], cur))
    return out


def map_solution_to_acr(net: Network, pf: "PfSolution") -> dict[str, float]:
    """Assignment for the rectangular OPF model from a power flow solution."""
    scope = NetworkScope(net)
    out: dict[str, float] = {}
    for bus in scope.buses():
        for p in bus.phases:
            v = pf.voltage(bus.id, p)
            out[u_re(bus.id, p)] = v.real
            out[u_im(bus.id, p)] = v.imag
    for br in scope.branches:
        if br.id not in pf.branch_current:
            raise FormulationError(f"solution lacks series current for branch {br.id!r}")
        s_fr, s_to = pf.branch_flow(net, br.id)
        for k, p in enumerate(br.phases):
            out[p_br(br.id, "fr", p)] = s_fr[k].real
            out[q_br(br.id, "fr", p)] = s_fr[k].imag
            out[p_br(br.id, "to", p)] = s_to[k].real
            out[q_br(br.id, "to", p)] = s_to[k].imag
    for tr in scope.transformers:
        if tr.id not in pf.transformer_current:
            raise FormulationError(f"solution lacks terminal currents for transformer {tr.id!r}")
        cfr, cto = pf.transformer_current[tr.id]
        for k, p in enumerate(tr.phases):
            out[it_re(tr.id, "fr", p)] = cfr[k].real
            out[it_im(tr.id, "fr", p)] = cfr[k].imag
            out[it_re(tr.id, "to", p)] = cto[k].real
            out[it_im(tr.id, "to", p)] = cto[k].imag
    for ld in scope.loads:
        if ld.id not in pf.load_current:
            raise FormulationError(f"solution lacks leg currents for load {ld.id!r}")
        cur = pf.load_current[ld.id]
        a_z, a_i, _ = ld.zip_weights
        for k, leg in enumerate(ld.legs()):
            lab = leg_label(leg)
            v = pf.voltage(ld.bus, leg[0])
            if len(leg) == 2:
                v = v - pf.voltage(ld.bus, leg[1])
            s = v * np.conj(cur[k])
            out[p_d(ld.id, lab)] = s.real
            out[q_d(ld.id, lab)] = s.imag
            if a_i != 0.0:
                out[vm_name(ld.id, lab)] = abs(v)
            if len(leg) == 2:
                out[ild_re(ld.id, lab)] = cur[k].real
                out[ild_im(ld.id, lab)] = cur[k].imag
    for g in scope.generators:
        if g.id not in pf.generator_current:
            raise FormulationError(f"solution lacks injection current for generator {g.id!r}")
        cur = pf.generator_current[g.id]
        for k, p in enumerate(g.phases):
            s = pf.voltage(g.bus, p) * np.conj(cur[k])
            out[p_g(g.id, p)] = s.real
            out[q_g(g.id, p)] = s.imag
    return out
