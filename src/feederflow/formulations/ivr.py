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

from ..mathir import MathModel, RowBuilder, add_to
from ..network.components import IdealTransformer, Network, ungrounded_buses
from .common import FormulationError, NetworkScope, leg_label, start_voltage, vn

if TYPE_CHECKING:
    from ..pf.solution import PfSolution

# admittance (pu) from each ungrounded bus to ground: it fixes the bus's
# otherwise free common-mode potential while drawing a negligible current
FLOATING_SHUNT = 1e-8


def u_re(bus: str, p: int) -> str:
    return vn("ure", bus, p)


def u_im(bus: str, p: int) -> str:
    return vn("uim", bus, p)


def it_re(tf: str, side: str, p: int) -> str:
    return vn(f"itre_{side}", tf, p)


def it_im(tf: str, side: str, p: int) -> str:
    return vn(f"itim_{side}", tf, p)


def ild_re(load: str, leg: str) -> str:
    return vn("ildre", load, leg)


def ild_im(load: str, leg: str) -> str:
    return vn("ildim", load, leg)


def vm_name(load: str, leg: str) -> str:
    return vn("vm", load, leg)


_LEG = (1.0, -1.0)  # a leg's voltage: its first conductor's minus its second's


def _cvar(rows: RowBuilder, owner, fre: str, fim: str, *parts, start: complex = 0j) -> int:
    """A complex unknown's real column; its imaginary column is the next."""
    rows.var(owner, fre, *parts, start=start.real)
    return rows.var(owner, fim, *parts, start=start.imag) - 1


def _crow(rows: RowBuilder, owner, *label, lin: tuple[dict, dict] = (None, None), quad: tuple[dict, dict] | None = None) -> int:
    """A complex row's real row, summing from ``lin`` and, if given, from the
    product terms ``quad``; its imaginary row is the next."""
    r = rows.row(owner, *label, "re", lin=lin[0])
    rows.row(owner, *label, "im", lin=lin[1])
    if quad is not None:
        rows.quad[r], rows.quad[r + 1] = quad
    return r


def _cadd(row, cols: tuple[int, ...], s: complex = 1.0) -> None:
    """``row += s z`` for the complex unknown ``z`` of column ``cols[0]``, or
    the leg voltage ``z0 - z1`` of columns ``cols``; ``row`` is the pair of
    real and imaginary term dicts, and the unknown of column ``c`` is
    ``x[c] + j x[c + 1]``. With ``s = a + j b``, each column adds ``a`` to
    both parts, then, if ``b`` is not zero, ``-b`` and ``b`` across them."""
    if not s:  # every term would be zero, which ``add_to`` skips
        return
    re, im = row
    a, b = s.real, s.imag
    for c, k in zip(cols, _LEG):
        add_to(re, c, a * k)
        add_to(im, c + 1, a * k)
    if b != 0.0:
        for c, k in zip(cols, _LEG):
            add_to(re, c + 1, -b * k)
            add_to(im, c, b * k)


def _pin(rows: RowBuilder, r: int, col: int, z: complex) -> None:
    """Rows ``r`` and ``r + 1``: the unknown of column ``col`` equals ``z``."""
    _cadd(rows.lin[r:r + 2], (col,))
    rows.const[r] -= z.real
    rows.const[r + 1] -= z.imag


def _power(row, cols: tuple[int, ...], cur: int, s: float = 1.0) -> None:
    """``row += s V conj(I)`` for the voltage of ``cols`` (as in ``_cadd``)
    and the current of column ``cur``, into the pair ``row`` of real and
    imaginary product-term dicts; ``s`` is 1 or -1. Each (current, voltage)
    column pair occurs once, and a current's name sorts before a voltage's,
    so the pair is already in its names' order."""
    re, im = row
    for terms, i, v, sign in ((re, 0, 0, s), (re, 1, 1, s), (im, 1, 0, -s), (im, 0, 1, s)):
        for c, k in zip(cols, _LEG):
            add_to(terms, (cur + i, c + v), sign * k)


def _square(cols: tuple[int, ...], leg: tuple[int, ...]) -> list:
    """``|V|^2`` of the voltage of ``cols`` (as in ``_cadd``) as
    ``(column pair, coefficient)`` terms: the real parts' products, then the
    imaginary parts', a leg's two cross products summed into one ``-2``
    term; of a bus's two conductors, the lower phase name sorts first."""
    if len(cols) == 1:
        return [((c, c), 1.0) for c in (cols[0], cols[0] + 1)]
    c0, c1 = cols
    lo, hi = (c0, c1) if str(leg[0]) <= str(leg[1]) else (c1, c0)
    return [t for i in (0, 1) for t in (((c0 + i, c0 + i), 1.0), ((lo + i, hi + i), -2.0), ((c1 + i, c1 + i), 1.0))]


def transformer_coupling(
    rows: RowBuilder, tr: IdealTransformer, uf: list[int], ut: list[int], owner
) -> tuple[list[int], list[int]]:
    """Add an ideal transformer's terminal-current columns and its coupling
    rows, given the voltage columns of its conductors at each end; returns
    the terminal-current columns ``(i_fr, i_to)``."""
    i_fr, i_to = [], []
    for p in tr.phases:
        i_fr.append(_cvar(rows, owner, "itre_fr", "itim_fr", tr.id, p))
        i_to.append(_cvar(rows, owner, "itre_to", "itim_to", tr.id, p))
    for i, p in enumerate(tr.phases):
        # winding coupling: U_f = T U_t
        r = _crow(rows, owner, "tf_voltage", tr.id, p)
        _cadd(rows.lin[r:r + 2], (uf[i],))
        for j, c in enumerate(ut):
            _cadd(rows.lin[r:r + 2], (c,), -tr.T[i, j])
        # current transfer: T^H I_fr + I_to = 0
        r = _crow(rows, owner, "tf_current", tr.id, p)
        _cadd(rows.lin[r:r + 2], (i_to[i],))
        for j, c in enumerate(i_fr):
            _cadd(rows.lin[r:r + 2], (c,), np.conj(tr.T[j, i]))
    return i_fr, i_to


def stamp_pf_ivr(scope: NetworkScope) -> tuple[RowBuilder, dict[tuple[str, str], list[int]]]:
    """The square equality system for unbalanced power flow, as index arrays,
    and each element's real columns by ``(kind, id)``, per phase or leg (a
    transformer's from-side, then its to-side terminals). A row's or
    column's owner is its feeder-tree block's bus: its bus, or a tree
    branch's or transformer's deeper end; ``None`` for a loop-closing one.
    Buses with no galvanic path to ground get a vanishing admittance of
    ``FLOATING_SHUNT`` per unit; ``meta["pinned_buses"]`` lists them."""
    net = scope.net
    rows = RowBuilder()
    rows.meta["formulation"] = "ivr"
    deeper = {via[1]: bus for bus, via in scope.via.items() if via}
    columns: dict[tuple[str, str], list[int]] = {}

    u: dict[str, dict[int, int]] = {}
    for bus in scope.buses():
        pattern = start_voltage(bus)
        u[bus.id] = {p: _cvar(rows, bus.id, "ure", "uim", bus.id, p, start=pattern[k]) for k, p in enumerate(bus.phases)}
        columns["bus", bus.id] = list(u[bus.id].values())

    # KCL accumulators: current leaving each bus/phase sums to zero
    kcl = {(b.id, p): ({}, {}) for b in scope.buses() for p in b.phases}

    for br in scope.branches:
        scope.check_phases(br.id, br.f_bus, br.phases)
        scope.check_phases(br.id, br.t_bus, br.phases)
        owner = deeper.get(("branch", br.id))
        cur = columns["branch", br.id] = [_cvar(rows, owner, "isre", "isim", br.id, p) for p in br.phases]
        uf = [u[br.f_bus][p] for p in br.phases]
        ut = [u[br.t_bus][p] for p in br.phases]
        z, y_fr, y_to = br.z.tolist(), br.y_fr.tolist(), br.y_to.tolist()  # Python complex: fast scalars
        for i, p in enumerate(br.phases):
            # series voltage drop: U_f - U_t - Z I = 0
            r = _crow(rows, owner, "branch_drop", br.id, p)
            drop = rows.lin[r:r + 2]
            _cadd(drop, (uf[i],))
            _cadd(drop, (ut[i],), -1.0)
            for j, c in enumerate(cur):
                _cadd(drop, (c,), -z[i][j])
            # terminal currents: shunt draw plus series current
            leave_f, leave_t = kcl[br.f_bus, p], kcl[br.t_bus, p]
            _cadd(leave_f, (cur[i],))
            for j, c in enumerate(uf):
                _cadd(leave_f, (c,), y_fr[i][j])
            _cadd(leave_t, (cur[i],), -1.0)
            for j, c in enumerate(ut):
                _cadd(leave_t, (c,), y_to[i][j])

    for tr in scope.transformers:
        scope.check_phases(tr.id, tr.f_bus, tr.phases)
        scope.check_phases(tr.id, tr.t_bus, tr.phases)
        i_fr, i_to = transformer_coupling(
            rows, tr, [u[tr.f_bus][p] for p in tr.phases], [u[tr.t_bus][p] for p in tr.phases],
            deeper.get(("transformer", tr.id)),
        )
        columns["transformer", tr.id] = i_fr + i_to
        for i, p in enumerate(tr.phases):
            _cadd(kcl[tr.f_bus, p], (i_fr[i],))
            _cadd(kcl[tr.t_bus, p], (i_to[i],))

    for sh in scope.shunts:
        scope.check_phases(sh.id, sh.bus, sh.phases)
        for i, p in enumerate(sh.phases):
            for j, q in enumerate(sh.phases):
                _cadd(kcl[sh.bus, p], (u[sh.bus][q],), sh.y[i, j])

    pinned = [b for b in sorted(ungrounded_buses(net)) if b in u]
    for bus_id in pinned:
        for p in net.buses[bus_id].phases:
            _cadd(kcl[bus_id, p], (u[bus_id][p],), FLOATING_SHUNT)
    rows.meta["pinned_buses"] = pinned

    for ld in scope.loads:
        scope.check_phases(ld.id, ld.bus, ld.phases)
        a_z, a_i, a_p = ld.zip_weights
        columns["load", ld.id] = []
        for idx, leg in enumerate(ld.legs()):
            lab = leg_label(leg)
            cur = _cvar(rows, ld.bus, "ildre", "ildim", ld.id, lab)
            columns["load", ld.id].append(cur)
            v = tuple(u[ld.bus][p] for p in leg)
            _cadd(kcl[ld.bus, leg[0]], (cur,))
            if len(leg) == 2:
                _cadd(kcl[ld.bus, leg[1]], (cur,), -1.0)

            s0 = ld.s_nom[idx]
            v0 = ld.v_nom
            if (a_z, a_i, a_p) == (1.0, 0.0, 0.0):
                # pure constant impedance: the power law V conj(I) = s0 |V/v0|^2
                # is exactly the linear current law I = conj(s0/v0^2) V
                r = _crow(rows, ld.bus, "load_power", ld.id, lab)
                _cadd(rows.lin[r:r + 2], (cur,))
                _cadd(rows.lin[r:r + 2], v, -np.conj(s0 / v0**2))
                continue
            # measured power V conj(I) minus the ZIP target at |V|
            vmag2 = _square(v, leg)
            if a_i != 0.0:
                u0 = [complex(rows.start[c], rows.start[c + 1]) for c in v]  # the start phasors
                vm = rows.var(ld.bus, "vm", ld.id, lab, start=abs(u0[0] - u0[1] if len(v) == 2 else u0[0]), lb=0.0)
                r = rows.row(ld.bus, "vm_def", ld.id, lab)
                rows.quad[r] = {(vm, vm): 1.0}
                for pair, c in vmag2:
                    add_to(rows.quad[r], pair, -1.0 * c)
            prod = ({}, {})
            r = _crow(rows, ld.bus, "load_power", ld.id, lab, quad=prod)
            _power(prod, v, cur)
            for i, part in enumerate((s0.real, s0.imag)):
                if a_z != 0.0:
                    scale = -part * a_z / v0**2
                    for pair, c in vmag2:
                        add_to(rows.quad[r + i], pair, scale * c)
                if a_i != 0.0:
                    add_to(rows.lin[r + i], vm, -part * a_i / v0)
                rows.const[r + i] -= part * a_p

    slack_ids = {b.id for b in scope.buses() if b.bus_type == "slack"}
    source_cover: dict[str, tuple[int, ...]] = {}
    for g in scope.generators:
        scope.check_phases(g.id, g.bus, g.phases)
        columns["generator", g.id] = []
        for k, p in enumerate(g.phases):
            cur = _cvar(rows, g.bus, "igre", "igim", g.id, p)
            columns["generator", g.id].append(cur)
            _cadd(kcl[g.bus, p], (cur,), -1.0)
            if g.source:
                continue
            prod = ({}, {})
            r = _crow(rows, g.bus, "gen_power", g.id, p, quad=prod)
            _power(prod, (u[g.bus][p],), cur)
            rows.const[r] -= g.p_set[k]
            rows.const[r + 1] -= g.q_set[k]
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
            _pin(rows, _crow(rows, b.id, "slack_voltage", b.id, p), u[b.id][p], u_set[k])

    for (bus_id, p), (re, im) in kcl.items():
        if not re and not im:
            # conductor present at the bus but attached to nothing live:
            # pin its potential so the system stays square and regular
            c = u[bus_id][p]  # pinned at its start
            _pin(rows, _crow(rows, bus_id, "isolated_phase", bus_id, p), c, complex(rows.start[c], rows.start[c + 1]))
        else:
            _crow(rows, bus_id, "kcl_current", bus_id, p, lin=(re, im))

    if len(rows.row_parts) != len(rows.var_parts):
        raise FormulationError(
            f"internal error: system is not square ({len(rows.row_parts)} equations, "
            f"{len(rows.var_parts)} variables)"
        )
    if scope.storages:
        rows.meta["ignored_storages"] = [s.id for s in scope.storages]
    return rows, columns


def build_pf_ivr(net: Network) -> MathModel:
    """The IVR system of :func:`stamp_pf_ivr` as a math model."""
    return MathModel("ivr", stamp_pf_ivr(NetworkScope(net))[0])


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
            out[vn("isre", br.id, p)] = cur[k].real
            out[vn("isim", br.id, p)] = cur[k].imag
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
            out[vn("igre", g.id, p)] = cur[k].real
            out[vn("igim", g.id, p)] = cur[k].imag
    return out
