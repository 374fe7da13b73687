"""Exact OPF in rectangular voltages with per-branch power flows.

Quadratic equality model: rectangular voltage phasors per bus/phase plus
real/reactive flow variables per branch terminal. Series flows are tied to
voltages through the branch admittance, bus balances are written in power,
and generator dispatch carries the cost objective. Shares the voltage and
transformer-current vocabulary of the rectangular current model so power
flow solutions map across directly, and is stamped into the same
:class:`~feederflow.mathir.RowBuilder` by the same complex stamps.

Extra variable names: ``pbr:branch:side:p`` / ``qbr:branch:side:p`` terminal
flows (side ``fr`` or ``to``), ``pd:load:leg`` / ``qd:load:leg`` leg draws,
``pg:gen:p`` / ``qg:gen:p`` dispatch.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mathir import GE, LE, MathModel, RowBuilder, add_to
from ..network.components import Network
from .common import FormulationError, NetworkScope, leg_label, stamp_gen_cost, start_voltage, vn
from .ivr import (
    _cadd,
    _crow,
    _cvar,
    _power,
    _square,
    ild_im,
    ild_re,
    it_im,
    it_re,
    transformer_coupling,
    u_im,
    u_re,
    vm_name,
)

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


def _draw(names: list[str], row, col: int, terms, s: float = 1.0) -> None:
    """``row += s V conj(sum y V_m)`` for the voltage ``V`` of column ``col``
    and the ``(y, column)`` terms over voltages ``V_m``, into the pair
    ``row`` of product-term dicts. The current sums as ``_cadd`` sums it;
    the real row takes ``Re V`` times its real part, then ``Im V`` times its
    imaginary part, the imaginary row ``Re V`` times minus its imaginary
    part, then ``Im V`` times its real part, each column pair in the order
    of its ``names``. The product is summed on its own before it is added."""
    cur = ({}, {})
    for y, c in terms:
        _cadd(cur, (c,), y)
    prod = ({}, {})
    for out, v, part, sign in ((prod[0], 0, cur[0], 1.0), (prod[0], 1, cur[1], 1.0),
                               (prod[1], 0, cur[1], -1.0), (prod[1], 1, cur[0], 1.0)):
        a = col + v
        for b, k in part.items():
            add_to(out, (a, b) if names[a] <= names[b] else (b, a), sign * k)
    for out, part in zip(row, prod):
        for pair, k in part.items():
            add_to(out, pair, s * k)


def _mag_limit(rows: RowBuilder, col: int, limit: float, sense: str, *label) -> None:
    """A row ``|z|^2 - limit^2 (sense) 0`` for the complex unknown of column ``col``."""
    r = rows.row(None, *label, sense=sense, const=-float(limit) ** 2)
    rows.quad[r] = dict(_square((col,), ()))


def build_opf_acr(net: Network) -> MathModel:
    """Exact rectangular OPF with quadratic flow definitions."""
    scope = NetworkScope(net)
    rows = RowBuilder()
    rows.meta["formulation"] = "acr"

    u: dict[tuple[str, int], int] = {}
    for bus in scope.buses():
        pattern = start_voltage(bus)
        for k, p in enumerate(bus.phases):
            u[bus.id, p] = _cvar(rows, None, "ure", "uim", bus.id, p, start=pattern[k])
    names = [rows.name(c) for c in range(len(rows.var_parts))]  # the voltages, which _draw pairs

    # per-bus/phase power balance accumulators (everything leaving the bus):
    # linear and product term-dict pairs
    keys = sorted(u)
    lin = {key: ({}, {}) for key in keys}
    quad = {key: ({}, {}) for key in keys}

    for br in scope.branches:
        uf = [u[br.f_bus, p] for p in br.phases]
        ut = [u[br.t_bus, p] for p in br.phases]
        flow = {}
        for side, bus_id in (("fr", br.f_bus), ("to", br.t_bus)):
            for p in br.phases:
                flow[side, p] = _cvar(rows, None, "pbr", "qbr", br.id, side, p)
                _cadd(lin[bus_id, p], (flow[side, p],))

        if np.allclose(br.z, 0.0):
            # ideal tie: equal voltages, flows balanced up to end shunts
            for k, p in enumerate(br.phases):
                r = _crow(rows, None, "switch_voltage", br.id, p)
                _cadd(rows.lin[r:r + 2], (uf[k],))
                _cadd(rows.lin[r:r + 2], (ut[k],), -1.0)
            for k, p in enumerate(br.phases):
                prod = ({}, {})
                r = _crow(rows, None, "switch_power", br.id, p, quad=prod)
                _cadd(rows.lin[r:r + 2], (flow["fr", p],))
                _cadd(rows.lin[r:r + 2], (flow["to", p],))
                for uvec, y in ((uf, br.y_fr), (ut, br.y_to)):
                    _draw(names, prod, uvec[k], [(complex(y[k, m]), c) for m, c in enumerate(uvec)], -1.0)
        else:
            try:
                zinv = np.linalg.inv(br.z)
            except np.linalg.LinAlgError as exc:
                raise FormulationError(f"branch {br.id!r}: series impedance is singular") from exc
            a_fr = br.y_fr + zinv
            a_to = br.y_to + zinv
            for k, p in enumerate(br.phases):
                for side, uvec, a, other in (("fr", uf, a_fr, ut), ("to", ut, a_to, uf)):
                    terms = []
                    for m in range(len(br.phases)):
                        terms += [(complex(a[k, m]), uvec[m]), (-complex(zinv[k, m]), other[m])]
                    prod = ({}, {})
                    r = _crow(rows, None, "flow_def", br.id, side, p, quad=prod)
                    _draw(names, prod, uvec[k], terms)
                    _cadd(rows.lin[r:r + 2], (flow[side, p],), -1.0)
        if np.isfinite(br.rating_s):
            for side in ("fr", "to"):
                for p in br.phases:
                    _mag_limit(rows, flow[side, p], br.rating_s, LE, "flow_limit", br.id, side, p)

    for tr in scope.transformers:
        i_fr, i_to = transformer_coupling(
            rows, tr, [u[tr.f_bus, p] for p in tr.phases], [u[tr.t_bus, p] for p in tr.phases], None
        )
        for k, p in enumerate(tr.phases):
            _power(quad[tr.f_bus, p], (u[tr.f_bus, p],), i_fr[k])
            _power(quad[tr.t_bus, p], (u[tr.t_bus, p],), i_to[k])

    for sh in scope.shunts:
        us = [u[sh.bus, p] for p in sh.phases]
        for k, p in enumerate(sh.phases):
            _draw(names, quad[sh.bus, p], us[k], [(complex(sh.y[k, m]), c) for m, c in enumerate(us)])

    for ld in scope.loads:
        a_z, a_i, a_p = ld.zip_weights
        for k, leg in enumerate(ld.legs()):
            lab = leg_label(leg)
            s0 = ld.s_nom[k]
            draw = _cvar(rows, None, "pd", "qd", ld.id, lab, start=s0)
            v = tuple(u[ld.bus, p] for p in leg)
            vmag2 = _square(v, leg)

            if a_i != 0.0:
                vm = rows.var(None, "vm", ld.id, lab, start=float(ld.v_nom), lb=0.0)
                r = rows.row(None, "vm_def", ld.id, lab)
                rows.quad[r] = dict(vmag2)
                add_to(rows.quad[r], (vm, vm), -1.0)

            # ZIP law: drawn power as a function of leg voltage magnitude
            r = _crow(rows, None, "load_zip", ld.id, lab)
            for i, part in enumerate((s0.real, s0.imag)):
                add_to(rows.lin[r + i], draw + i, 1.0)
                rows.const[r + i] = -part * a_p
                if a_z != 0.0:
                    scale = -part * a_z / ld.v_nom**2
                    rows.quad[r + i] = {}
                    for pair, c in vmag2:
                        add_to(rows.quad[r + i], pair, scale * c)
                    rows.const[r + i] += scale * 0.0  # adding |V|^2's zero constant settles a zero's sign
                if a_i != 0.0:
                    add_to(rows.lin[r + i], vm, -part * a_i / ld.v_nom)

            if len(leg) == 1:
                _cadd(lin[ld.bus, leg[0]], (draw,))
            else:
                # delta legs need the leg current to split the draw per phase
                cur = _cvar(rows, None, "ildre", "ildim", ld.id, lab)
                prod = ({}, {})
                r = _crow(rows, None, "load_leg_power", ld.id, lab, quad=prod)
                _power(prod, v, cur)
                _cadd(rows.lin[r:r + 2], (draw,), -1.0)
                for phase, c, sign in ((leg[0], v[0], 1.0), (leg[1], v[1], -1.0)):
                    _power(quad[ld.bus, phase], (c,), cur, sign)

    pg: dict[tuple[str, int], int] = {}
    for g in scope.generators:
        for k, p in enumerate(g.phases):
            pg[g.id, p] = rows.var(None, "pg", g.id, p, lb=g.p_min[k], ub=g.p_max[k], start=g.p_set[k])
            rows.var(None, "qg", g.id, p, lb=g.q_min[k], ub=g.q_max[k], start=g.q_set[k])
            _cadd(lin[g.bus, p], (pg[g.id, p],), -1.0)

    for key in keys:
        _crow(rows, None, "balance", *key, lin=lin[key], quad=quad[key])

    for bus in scope.buses():
        if bus.bus_type == "slack":
            pattern = bus.slack_voltage()
            for k, p in enumerate(bus.phases):
                theta = float(np.angle(pattern[k]))
                c, s = np.cos(theta), np.sin(theta)
                col = u[bus.id, p]
                r = rows.row(None, "theta_ref", bus.id, p)
                add_to(rows.lin[r], col + 1, c)
                add_to(rows.lin[r], col, -s)
                # half-line selection: bound the dominant rectangular coordinate
                if abs(c) >= abs(s):
                    if c > 0:
                        rows.lb[col] = 0.0
                    else:
                        rows.ub[col] = 0.0
                elif s > 0:
                    rows.lb[col + 1] = 0.0
                else:
                    rows.ub[col + 1] = 0.0
        for p in bus.phases:
            if np.isfinite(bus.vmax):
                _mag_limit(rows, u[bus.id, p], bus.vmax, LE, "vmag_ub", bus.id, p)
            if bus.vmin > 0.0:
                _mag_limit(rows, u[bus.id, p], bus.vmin, GE, "vmag_lb", bus.id, p)

    if scope.storages:
        rows.meta["ignored_storages"] = [s.id for s in scope.storages]
    if scope.dropped_buses:
        rows.meta["dropped_buses"] = list(scope.dropped_buses)
    stamp_gen_cost(rows, scope, pg, net.sbase)
    return MathModel("acr", rows)


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
