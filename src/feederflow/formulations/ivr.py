"""Exact power flow in rectangular current-voltage variables.

Feasibility model: rectangular voltage phasors per bus/phase, series
currents per branch/conductor, terminal currents for ideal transformers,
leg currents for loads, and injection currents for generators. Every
constraint is an equality; the system is square by construction and is the
residual system the Newton solver operates on.

Variable naming is the shared assignment vocabulary:
``ure:bus:p`` / ``uim:bus:p`` voltages, ``isre:branch:p`` series currents,
``itre_fr:tf:p`` / ``itre_to:tf:p`` transformer terminal currents,
``ildre:load:leg`` load leg currents, ``igre:gen:p`` generator currents,
``vm:load:leg`` leg voltage magnitudes (present only for loads with a
constant-current ZIP part).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mathir import EQ, LinExpr, MathModel, QuadExpr, product
from ..network.components import IdealTransformer, Network, ungrounded_buses
from .common import ComplexExpr, FormulationError, NetworkScope, leg_label, power_product, start_voltage, vn

if TYPE_CHECKING:
    from ..pf.solution import PfSolution

# admittance (pu) from each ungrounded bus to ground: it fixes the bus's
# otherwise free common-mode potential while drawing a negligible current
FLOATING_SHUNT = 1e-8


def u_re(bus: str, p: int) -> str:
    return vn("ure", bus, p)


def u_im(bus: str, p: int) -> str:
    return vn("uim", bus, p)


def is_re(branch: str, p: int) -> str:
    return vn("isre", branch, p)


def is_im(branch: str, p: int) -> str:
    return vn("isim", branch, p)


def it_re(tf: str, side: str, p: int) -> str:
    return vn(f"itre_{side}", tf, p)


def it_im(tf: str, side: str, p: int) -> str:
    return vn(f"itim_{side}", tf, p)


def ild_re(load: str, leg: str) -> str:
    return vn("ildre", load, leg)


def ild_im(load: str, leg: str) -> str:
    return vn("ildim", load, leg)


def ig_re(gen: str, p: int) -> str:
    return vn("igre", gen, p)


def ig_im(gen: str, p: int) -> str:
    return vn("igim", gen, p)


def vm_name(load: str, leg: str) -> str:
    return vn("vm", load, leg)


FAMILIES = {  # the name families of each element kind's unknowns and rows
    "bus": ("ure", "uim", "kcl_current", "isolated_phase", "slack_voltage"),
    "branch": ("isre", "isim", "branch_drop"),
    "transformer": ("itre_fr", "itim_fr", "itre_to", "itim_to", "tf_voltage", "tf_current"),
    "load": ("ildre", "ildim", "vm", "load_power", "vm_def"),
    "generator": ("igre", "igim", "gen_power"),
}


def _uvar(bus: str, p: int) -> ComplexExpr:
    return ComplexExpr.of(u_re(bus, p), u_im(bus, p))


def _leg_voltage(bus: str, leg: tuple[int, ...]) -> ComplexExpr:
    v = _uvar(bus, leg[0])
    if len(leg) == 2:
        v = v.copy().add(_uvar(bus, leg[1]), -1.0)
    return v


def transformer_coupling(
    model: MathModel, tr: IdealTransformer
) -> tuple[list[ComplexExpr], list[ComplexExpr]]:
    """Add an ideal transformer's terminal-current variables and its
    coupling rows; returns the terminal currents ``(i_fr, i_to)`` per
    conductor for the caller's bus balances."""
    n = len(tr.phases)
    i_fr = [ComplexExpr.of(it_re(tr.id, "fr", p), it_im(tr.id, "fr", p)) for p in tr.phases]
    i_to = [ComplexExpr.of(it_re(tr.id, "to", p), it_im(tr.id, "to", p)) for p in tr.phases]
    for p in tr.phases:
        model.add_var(it_re(tr.id, "fr", p))
        model.add_var(it_im(tr.id, "fr", p))
        model.add_var(it_re(tr.id, "to", p))
        model.add_var(it_im(tr.id, "to", p))
    uf = [_uvar(tr.f_bus, p) for p in tr.phases]
    ut = [_uvar(tr.t_bus, p) for p in tr.phases]
    for i, p in enumerate(tr.phases):
        # winding coupling: U_f = T U_t
        volt = uf[i].copy()
        for j in range(n):
            volt.add(ut[j], -tr.T[i, j])
        model.add_linear(vn("tf_voltage", tr.id, p, "re"), volt.re, EQ)
        model.add_linear(vn("tf_voltage", tr.id, p, "im"), volt.im, EQ)
        # current transfer: T^H I_fr + I_to = 0
        curr = i_to[i].copy()
        for j in range(n):
            curr.add(i_fr[j], np.conj(tr.T[j, i]))
        model.add_linear(vn("tf_current", tr.id, p, "re"), curr.re, EQ)
        model.add_linear(vn("tf_current", tr.id, p, "im"), curr.im, EQ)
    return i_fr, i_to


def build_pf_ivr(net: Network) -> MathModel:
    """Square equality system for unbalanced power flow.

    Buses with no galvanic path to ground get a vanishing admittance of
    ``FLOATING_SHUNT`` per unit, pinning their otherwise-undetermined
    common-mode potential; ``meta["pinned_buses"]`` lists them.
    """
    scope = NetworkScope(net)
    model = MathModel("ivr")
    model.meta["formulation"] = "ivr"

    flat: dict[str, np.ndarray] = {}
    for bus in scope.buses():
        flat[bus.id] = pattern = start_voltage(bus)
        for k, p in enumerate(bus.phases):
            model.add_var(u_re(bus.id, p), start=pattern[k].real)
            model.add_var(u_im(bus.id, p), start=pattern[k].imag)

    # KCL accumulators: current leaving each bus/phase sums to zero
    kcl: dict[tuple[str, int], ComplexExpr] = {
        (b.id, p): ComplexExpr() for b in scope.buses() for p in b.phases
    }

    def bus_u(bus_id: str, phases) -> list[ComplexExpr]:
        return [_uvar(bus_id, p) for p in phases]

    for br in scope.branches:
        scope.check_phases(br.id, br.f_bus, br.phases)
        scope.check_phases(br.id, br.t_bus, br.phases)
        cur = [ComplexExpr.of(is_re(br.id, p), is_im(br.id, p)) for p in br.phases]
        for p in br.phases:
            model.add_var(is_re(br.id, p))
            model.add_var(is_im(br.id, p))
        uf = bus_u(br.f_bus, br.phases)
        ut = bus_u(br.t_bus, br.phases)
        for i, p in enumerate(br.phases):
            # series voltage drop: U_f - U_t - Z I = 0
            drop = uf[i].copy().add(ut[i], -1.0)
            for j in range(len(br.phases)):
                drop.add(cur[j], -br.z[i, j])
            model.add_linear(vn("branch_drop", br.id, p, "re"), drop.re, EQ)
            model.add_linear(vn("branch_drop", br.id, p, "im"), drop.im, EQ)
            # terminal currents: shunt draw plus series current
            leave_f = cur[i].copy()
            leave_t = cur[i].scaled(-1.0)
            for j in range(len(br.phases)):
                leave_f.add(uf[j], br.y_fr[i, j])
                leave_t.add(ut[j], br.y_to[i, j])
            kcl[(br.f_bus, p)].add(leave_f)
            kcl[(br.t_bus, p)].add(leave_t)

    for tr in scope.transformers:
        scope.check_phases(tr.id, tr.f_bus, tr.phases)
        scope.check_phases(tr.id, tr.t_bus, tr.phases)
        i_fr, i_to = transformer_coupling(model, tr)
        for i, p in enumerate(tr.phases):
            kcl[(tr.f_bus, p)].add(i_fr[i])
            kcl[(tr.t_bus, p)].add(i_to[i])

    for sh in scope.shunts:
        scope.check_phases(sh.id, sh.bus, sh.phases)
        u = bus_u(sh.bus, sh.phases)
        for i, p in enumerate(sh.phases):
            for j in range(len(sh.phases)):
                kcl[(sh.bus, p)].add(u[j], sh.y[i, j])

    pinned: list[str] = []
    live = set(scope.bus_ids)
    for bus_id in sorted(ungrounded_buses(net)):
        if bus_id not in live:
            continue
        pinned.append(bus_id)
        for p in net.buses[bus_id].phases:
            kcl[(bus_id, p)].add(_uvar(bus_id, p), FLOATING_SHUNT)
    model.meta["pinned_buses"] = pinned

    for ld in scope.loads:
        scope.check_phases(ld.id, ld.bus, ld.phases)
        a_z, a_i, a_p = ld.zip_weights
        for idx, leg in enumerate(ld.legs()):
            lab = leg_label(leg)
            cur = ComplexExpr.of(ild_re(ld.id, lab), ild_im(ld.id, lab))
            model.add_var(ild_re(ld.id, lab))
            model.add_var(ild_im(ld.id, lab))
            v = _leg_voltage(ld.bus, leg)
            kcl[(ld.bus, leg[0])].add(cur)
            if len(leg) == 2:
                kcl[(ld.bus, leg[1])].add(cur, -1.0)

            s0 = ld.s_nom[idx]
            v0 = ld.v_nom
            if (a_z, a_i, a_p) == (1.0, 0.0, 0.0):
                # pure constant impedance: the power law V conj(I) = s0 |V/v0|^2
                # is exactly the linear current law I = conj(s0/v0^2) V
                law = cur.copy().add(v, -np.conj(s0 / v0**2))
                model.add_linear(vn("load_power", ld.id, lab, "re"), law.re, EQ)
                model.add_linear(vn("load_power", ld.id, lab, "im"), law.im, EQ)
                continue
            # measured power V conj(I) minus the ZIP target at |V|
            p_expr, q_expr = power_product(v, cur)
            vmag2 = product(v.re, v.re)
            vmag2.add(product(v.im, v.im))
            if a_z != 0.0:
                p_expr.add(vmag2, -s0.real * a_z / v0**2)
                q_expr.add(vmag2, -s0.imag * a_z / v0**2)
            if a_i != 0.0:
                mvar = vm_name(ld.id, lab)
                vflat = flat[ld.bus]
                phase_pos = {p: k for k, p in enumerate(net.buses[ld.bus].phases)}
                vleg0 = vflat[phase_pos[leg[0]]]
                if len(leg) == 2:
                    vleg0 = vleg0 - vflat[phase_pos[leg[1]]]
                model.add_var(mvar, lb=0.0, start=abs(vleg0))
                p_expr.add_lin_term(mvar, -s0.real * a_i / v0)
                q_expr.add_lin_term(mvar, -s0.imag * a_i / v0)
                mdef = QuadExpr()
                mdef.add_quad_term(mvar, mvar, 1.0)
                mdef.add(vmag2, -1.0)
                model.add_quadratic(vn("vm_def", ld.id, lab), mdef, EQ)
            p_expr.const -= s0.real * a_p
            q_expr.const -= s0.imag * a_p
            model.add_quadratic(vn("load_power", ld.id, lab, "re"), p_expr, EQ)
            model.add_quadratic(vn("load_power", ld.id, lab, "im"), q_expr, EQ)

    slack_ids = {b.id for b in scope.buses() if b.bus_type == "slack"}
    source_cover: dict[str, tuple[int, ...]] = {}
    for g in scope.generators:
        scope.check_phases(g.id, g.bus, g.phases)
        for k, p in enumerate(g.phases):
            cur = ComplexExpr.of(ig_re(g.id, p), ig_im(g.id, p))
            model.add_var(ig_re(g.id, p))
            model.add_var(ig_im(g.id, p))
            kcl[(g.bus, p)].add(cur, -1.0)
            if g.source:
                continue
            u = _uvar(g.bus, p)
            p_expr, q_expr = power_product(u, cur)
            p_expr.const -= g.p_set[k]
            q_expr.const -= g.q_set[k]
            model.add_quadratic(vn("gen_power", g.id, p, "re"), p_expr, EQ)
            model.add_quadratic(vn("gen_power", g.id, p, "im"), q_expr, EQ)
        if g.source:
            if g.bus not in slack_ids:
                raise FormulationError(
                    f"generator {g.id!r} is marked as the source unit but bus "
                    f"{g.bus!r} is not a slack bus"
                )
            source_cover[g.bus] = tuple(sorted(set(source_cover.get(g.bus, ())) | set(g.phases)))

    for b in scope.buses():
        if b.bus_type != "slack":
            continue
        if source_cover.get(b.id) != tuple(b.phases):
            raise FormulationError(
                f"slack bus {b.id!r} needs source generators covering exactly "
                f"its phases {b.phases}"
            )
        u_set = b.slack_voltage()
        for k, p in enumerate(b.phases):
            e_re = LinExpr.term(u_re(b.id, p)).add(LinExpr.constant(-u_set[k].real))
            e_im = LinExpr.term(u_im(b.id, p)).add(LinExpr.constant(-u_set[k].imag))
            model.add_linear(vn("slack_voltage", b.id, p, "re"), e_re, EQ)
            model.add_linear(vn("slack_voltage", b.id, p, "im"), e_im, EQ)

    for (bus_id, p), expr in kcl.items():
        if not expr.re.coeffs and not expr.im.coeffs:
            # conductor present at the bus but attached to nothing live:
            # pin its potential so the system stays square and regular
            bus = net.buses[bus_id]
            k = list(bus.phases).index(p)
            e_re = LinExpr.term(u_re(bus_id, p)).add(LinExpr.constant(-flat[bus_id][k].real))
            e_im = LinExpr.term(u_im(bus_id, p)).add(LinExpr.constant(-flat[bus_id][k].imag))
            model.add_linear(vn("isolated_phase", bus_id, p, "re"), e_re, EQ)
            model.add_linear(vn("isolated_phase", bus_id, p, "im"), e_im, EQ)
        else:
            model.add_linear(vn("kcl_current", bus_id, p, "re"), expr.re, EQ)
            model.add_linear(vn("kcl_current", bus_id, p, "im"), expr.im, EQ)

    n_eq = model.equality_count()
    n_var = len(model.variables)
    if n_eq != n_var:
        raise FormulationError(
            f"internal error: system is not square ({n_eq} equations, {n_var} variables)"
        )
    if scope.storages:
        model.meta["ignored_storages"] = [s.id for s in scope.storages]
    return model


def map_solution_to_ivr(net: Network, pf: "PfSolution") -> dict[str, float]:
    """Assignment over the IVR variables of ``build_pf_ivr(net)`` taken from
    a power-flow solution. Raises ``FormulationError`` if the solution lacks
    a component's currents."""
    scope = NetworkScope(net)
    out: dict[str, float] = {}
    for bus in scope.buses():
        for p in bus.phases:
            u = pf.voltage(bus.id, p)
            out[u_re(bus.id, p)] = u.real
            out[u_im(bus.id, p)] = u.imag
    for br in scope.branches:
        cur = pf.branch_current.get(br.id)
        if cur is None:
            raise FormulationError(f"solution carries no current for branch {br.id!r}")
        for k, p in enumerate(br.phases):
            out[is_re(br.id, p)] = cur[k].real
            out[is_im(br.id, p)] = cur[k].imag
    for tr in scope.transformers:
        pair = pf.transformer_current.get(tr.id)
        if pair is None:
            raise FormulationError(f"solution carries no current for transformer {tr.id!r}")
        cfr, cto = pair
        for k, p in enumerate(tr.phases):
            out[it_re(tr.id, "fr", p)] = cfr[k].real
            out[it_im(tr.id, "fr", p)] = cfr[k].imag
            out[it_re(tr.id, "to", p)] = cto[k].real
            out[it_im(tr.id, "to", p)] = cto[k].imag
    for ld in scope.loads:
        cur = pf.load_current.get(ld.id)
        if cur is None:
            raise FormulationError(f"solution carries no current for load {ld.id!r}")
        a_z, a_i, a_p = ld.zip_weights
        for k, leg in enumerate(ld.legs()):
            lab = leg_label(leg)
            out[ild_re(ld.id, lab)] = cur[k].real
            out[ild_im(ld.id, lab)] = cur[k].imag
            if a_i != 0.0:
                v = pf.voltage(ld.bus, leg[0])
                if len(leg) == 2:
                    v = v - pf.voltage(ld.bus, leg[1])
                out[vm_name(ld.id, lab)] = abs(v)
    for g in scope.generators:
        cur = pf.generator_current.get(g.id)
        if cur is None:
            raise FormulationError(f"solution carries no current for generator {g.id!r}")
        for k, p in enumerate(g.phases):
            out[ig_re(g.id, p)] = cur[k].real
            out[ig_im(g.id, p)] = cur[k].imag
    return out
