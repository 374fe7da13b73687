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

Rows are stamped into a :class:`~feederflow.mathir.RowBuilder`: an entry
of a lifted matrix is a ``(re column, im column or None, sign)`` triple,
and each complex row's real and imaginary term dicts gain it term by term
as it is scaled.

Variable names: ``wre:bus:p:q`` / ``wim:bus:p:q`` (upper triangle, p <= q),
``lre:branch:p:q`` / ``lim:branch:p:q``, ``sre:branch:p:q`` /
``sim:branch:p:q`` (all ordered pairs), ``pg:gen:p`` / ``qg:gen:p``
dispatch, ``m:load:leg`` leg voltage magnitude for constant-current loads.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..mathir import MathModel, RowBuilder, add_to
from ..network.components import Network
from .common import FormulationError, leg_label, lift_radial, stamp_gen_cost, vn
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


def _hermitian(rows: RowBuilder, re: str, im: str, elem: str, phases, off_start: float, **diag) -> dict:
    """Columns for a Hermitian lifted matrix over ``phases``, its upper
    triangle (``p <= q``) row by row, the real part before the imaginary;
    ``diag`` holds a diagonal column's bounds and start, ``off_start`` is an
    off-diagonal real part's start. Returns every entry ``(p, q)`` as a
    ``(re column, im column or None, sign)`` triple worth
    ``x[re] + j sign x[im]``."""
    out = {}
    for i, p in enumerate(phases):
        out[p, p] = (rows.var(None, re, elem, p, p, **diag), None, 1.0)
        for q in phases[i + 1:]:
            c = rows.var(None, re, elem, p, q, start=off_start)
            out[p, q] = (c, rows.var(None, im, elem, p, q), 1.0)
            out[q, p] = (c, out[p, q][1], -1.0)
    return out


def _add(row, entry, s: complex = 1.0) -> None:
    """``row += s entry`` for a real and imaginary term-dict pair: with
    ``s = a + j b``, ``a`` times the entry's real and imaginary parts, then,
    if ``b`` is not zero, ``-b`` and ``b`` times them across the pair."""
    re, im = row[0], row[1]
    x_re, x_im, sign = entry
    a, b = s.real, s.imag
    add_to(re, x_re, a)
    if x_im is not None:
        add_to(im, x_im, sign * a)
    if b != 0.0:
        if x_im is not None:
            add_to(re, x_im, -b * sign)
        add_to(im, x_re, b)


def _term(col: int) -> tuple[dict, float]:
    """One column as a cone part."""
    return {col: 1.0}, 0.0


def stamp_opf_socbfm(net: Network) -> RowBuilder:
    """The rotated-cone branch-flow relaxation of unbalanced OPF, stamped."""
    scope, records, dropped = lift_radial(net, "branch-flow relaxation")
    lifted_buses = [b for b in scope.buses() if b.id not in dropped]

    rows = RowBuilder()
    rows.meta["formulation"] = "socbfm"
    if dropped:
        rows.meta["absorbed_buses"] = sorted(dropped)

    W = {
        b.id: _hermitian(rows, "wre", "wim", b.id, b.phases, -0.5, lb=b.vmin**2, ub=b.vmax**2, start=1.0)
        for b in lifted_buses
    }

    # power balance accumulators per bus/phase (complex, everything leaving):
    # real and imaginary term dicts and constants
    balance = {(b.id, p): [{}, {}, 0.0, 0.0] for b in lifted_buses for p in b.phases}

    def add_shunt_draw(bus_id: str, phases, y: np.ndarray) -> None:
        # exact lift of U_p conj((Y U)_p): linear in W entries
        y = y.tolist()  # Python complex: fast scalars
        for i, p in enumerate(phases):
            for j, q in enumerate(phases):
                if y[i][j] != 0.0:
                    _add(balance[(bus_id, p)], W[bus_id][p, q], y[i][j].conjugate())

    for rec in records:
        n = len(rec.phases)
        L = _hermitian(rows, "lre", "lim", rec.id, rec.phases, 0.0, lb=0.0)
        S = {
            (p, q): (rows.var(None, "sre", rec.id, p, q), rows.var(None, "sim", rec.id, p, q), 1.0)
            for p in rec.phases for q in rec.phases
        }

        z = rec.z.tolist()  # Python complex: fast scalars
        r2 = rec.ratio**2
        w_f, w_t = W[rec.f_bus], W[rec.t_bus]
        # entrywise voltage drop across the series element
        for i, p in enumerate(rec.phases):
            for j in range(i, n):
                q = rec.phases[j]
                acc = ({}, {})
                _add(acc, w_t[p, q])
                _add(acc, w_f[p, q], -r2)
                for mth, mp in enumerate(rec.phases):
                    if z[j][mth] != 0.0:
                        _add(acc, S[p, mp], z[j][mth].conjugate())
                    if z[i][mth] != 0.0:
                        _add(acc, (*S[q, mp][:2], -1.0), z[i][mth])  # conj(S[q, mp])
                for mth, mp in enumerate(rec.phases):
                    for nth, nq in enumerate(rec.phases):
                        coef = z[i][mth] * z[j][nth].conjugate()
                        if coef != 0.0:
                            _add(acc, L[mp, nq], -coef)
                rows.row(None, "drop", rec.id, p, q, "re", lin=acc[0])
                if p != q:
                    rows.row(None, "drop", rec.id, p, q, "im", lin=acc[1])

        # sending end pays diag(S); receiving end gets diag(S - Z L)
        for i, p in enumerate(rec.phases):
            _add(balance[(rec.f_bus, p)], S[p, p])
            acc = balance[(rec.t_bus, p)]
            _add(acc, S[p, p], -1.0)
            for mth, mp in enumerate(rec.phases):
                if z[i][mth] != 0.0:
                    _add(acc, L[mp, p], z[i][mth])

        if rec.y_fr is not None and np.any(rec.y_fr != 0.0):
            add_shunt_draw(rec.f_bus, rec.phases, rec.y_fr)
        if rec.y_to is not None and np.any(rec.y_to != 0.0):
            add_shunt_draw(rec.t_bus, rec.phases, rec.y_to)

        # relaxed rank coupling: |S_pq|^2 <= ratio^2 W_ff[p,p] * L[q,q]
        for p in rec.phases:
            x = ({}, 0.0)
            add_to(x[0], w_f[p, p][0], r2)
            for q in rec.phases:
                s_pq = S[p, q]
                rows.cone(
                    None, "cone", rec.id, p, q, x=x, y=_term(L[q, q][0]),
                    args=[_term(s_pq[0]), _term(s_pq[1])],
                )

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
            const = s0 * a_p
            acc[2] += const.real
            acc[3] += const.imag
            if a_z != 0.0:
                _add(acc, W[ld.bus][p, p], s0 * a_z / ld.v_nom**2)
            if a_i != 0.0:
                m = rows.var(None, "m", ld.id, lab, lb=0.0, start=1.0)
                _add(acc, (m, None, 1.0), s0 * a_i / ld.v_nom)
                # m^2 <= W_pp keeps the exact lift feasible
                rows.cone(
                    None, "mag_cone", ld.id, lab, x=_term(W[ld.bus][p, p][0]), y=({}, 1.0),
                    args=[_term(m)],
                )

    pg: dict[tuple[str, int], int] = {}
    for g in scope.generators:
        for k, p in enumerate(g.phases):
            pg[g.id, p] = rows.var(None, "pg", g.id, p, lb=g.p_min[k], ub=g.p_max[k], start=g.p_set[k])
            qg = rows.var(None, "qg", g.id, p, lb=g.q_min[k], ub=g.q_max[k], start=g.q_set[k])
            _add(balance[(g.bus, p)], (pg[g.id, p], qg, 1.0), -1.0)

    for (bus_id, p), (re, im, c_re, c_im) in sorted(balance.items()):
        rows.row(None, "balance", bus_id, p, "re", lin=re, const=c_re)
        rows.row(None, "balance", bus_id, p, "im", lin=im, const=c_im)

    for bus in lifted_buses:
        if bus.bus_type != "slack":
            continue
        pattern = bus.slack_voltage()
        for i, p in enumerate(bus.phases):
            for j in range(i, len(bus.phases)):
                q = bus.phases[j]
                target = pattern[i] * np.conj(pattern[j])
                x_re, x_im, _ = W[bus.id][p, q]
                r = rows.row(None, "slack_w", bus.id, p, q, "re", lin={x_re: 1.0})
                rows.const[r] -= target.real
                if p != q:
                    r = rows.row(None, "slack_w", bus.id, p, q, "im", lin={x_im: 1.0})
                    rows.const[r] -= target.imag

    stamp_gen_cost(rows, scope, pg, net.sbase, allow_quadratic=False)
    if scope.storages:
        rows.meta["ignored_storages"] = [s.id for s in scope.storages]
    if scope.dropped_buses:
        rows.meta["dropped_buses"] = list(scope.dropped_buses)
    return rows


def build_opf_socbfm(net: Network) -> MathModel:
    """Rotated-cone branch-flow relaxation of unbalanced OPF: the system of
    :func:`stamp_opf_socbfm` as a math model."""
    return MathModel("socbfm", stamp_opf_socbfm(net))


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
