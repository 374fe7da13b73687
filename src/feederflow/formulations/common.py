"""Shared machinery for formulation builders.

Complex quantities are scalarized here once: a :class:`ComplexExpr` wraps
real and imaginary affine expressions, supports complex-scalar algebra, and
products of two complex expressions yield real and imaginary quadratics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mathir import LinExpr, QuadExpr, product
from ..network.components import PHASE_ANGLES, Network, find_cycle, walk


class FormulationError(ValueError):
    """The network uses a feature this formulation cannot express."""


def vn(*parts) -> str:
    """Join name parts into a variable or label identifier; ``None`` parts
    (the snapshot's period) are left out."""
    return ":".join([str(p) for p in parts if p is not None])


def leg_label(leg: tuple[int, ...]) -> str:
    return "".join(str(p) for p in leg)


@dataclass
class ComplexExpr:
    """Affine expression with complex value: re(x) + j im(x)."""

    re: LinExpr = field(default_factory=LinExpr)
    im: LinExpr = field(default_factory=LinExpr)

    @staticmethod
    def of(re_var: str, im_var: str) -> "ComplexExpr":
        return ComplexExpr(LinExpr.term(re_var), LinExpr.term(im_var))

    @staticmethod
    def constant(z: complex) -> "ComplexExpr":
        return ComplexExpr(LinExpr.constant(z.real), LinExpr.constant(z.imag))

    def copy(self) -> "ComplexExpr":
        return ComplexExpr(self.re.copy(), self.im.copy())

    def add(self, other: "ComplexExpr", scale: complex = 1.0) -> "ComplexExpr":
        a, b = scale.real, scale.imag
        self.re.add(other.re, a)
        self.im.add(other.im, a)
        if b != 0.0:
            self.re.add(other.im, -b)
            self.im.add(other.re, b)
        return self

    def scaled(self, scale: complex) -> "ComplexExpr":
        return ComplexExpr().add(self, scale)

    def conj(self) -> "ComplexExpr":
        return ComplexExpr(self.re.copy(), self.im.scaled(-1.0))

    def value(self, x) -> complex:
        return complex(self.re.value(x), self.im.value(x))


def cproduct(u: ComplexExpr, v: ComplexExpr) -> tuple[QuadExpr, QuadExpr]:
    """Real and imaginary quadratics of the product u * v."""
    re = product(u.re, v.re)
    re.add(product(u.im, v.im), -1.0)
    im = product(u.re, v.im)
    im.add(product(u.im, v.re), 1.0)
    return re, im


def power_product(u: ComplexExpr, i: ComplexExpr) -> tuple[QuadExpr, QuadExpr]:
    """Real and reactive power quadratics of S = u * conj(i)."""
    return cproduct(u, i.conj())


class NetworkScope:
    """The energized part of a network for one snapshot.

    Keeps buses in islands that contain a slack bus, and the in-service
    elements attached to them. De-energized islands and out-of-service
    elements are dropped and listed for reporting.
    """

    def __init__(self, net: Network):
        self.net = net
        slacks = [b.id for b in net.slack_buses()]
        if not slacks:
            raise FormulationError("network has no slack bus")
        adj: dict[str, list[tuple[str, str]]] = {b: [] for b in net.buses}
        for _, eid, f, t in net.edges():
            adj[f].append((t, eid))
            adj[t].append((f, eid))
        live = set(walk(adj, slacks)[0])

        self.bus_ids: list[str] = sorted(live)
        self.dropped_buses: list[str] = sorted(set(net.buses) - live)

        def in_scope(status: bool, *buses: str) -> bool:
            return status and all(b in live for b in buses)

        self.branches = [
            br for br in net.branches.values() if in_scope(br.status, br.f_bus, br.t_bus)
        ]
        self.transformers = [
            tr for tr in net.transformers.values() if in_scope(tr.status, tr.f_bus, tr.t_bus)
        ]
        self.loads = [ld for ld in net.loads.values() if in_scope(ld.status, ld.bus)]
        self.shunts = [sh for sh in net.shunts.values() if in_scope(sh.status, sh.bus)]
        self.generators = [g for g in net.generators.values() if in_scope(g.status, g.bus)]
        for g in self.generators:
            if g.connection != "wye":
                raise FormulationError(f"generator {g.id!r}: delta generators are not supported")
        self.storages = [s for s in net.storages.values() if in_scope(s.status, s.bus)]
        self.branches.sort(key=lambda e: e.id)
        self.transformers.sort(key=lambda e: e.id)
        self.loads.sort(key=lambda e: e.id)
        self.shunts.sort(key=lambda e: e.id)
        self.generators.sort(key=lambda e: e.id)
        self.storages.sort(key=lambda e: e.id)

    def buses(self):
        return [self.net.buses[b] for b in self.bus_ids]

    def bus(self, bus_id: str):
        return self.net.buses[bus_id]

    def check_phases(self, element_id: str, bus_id: str, phases) -> None:
        missing = set(phases) - set(self.net.buses[bus_id].phases)
        if missing:
            raise FormulationError(
                f"{element_id}: phases {sorted(missing)} not present at bus {bus_id!r}"
            )


@dataclass
class FlowRecord:
    """One series element after transformer absorption."""

    id: str
    f_bus: str
    t_bus: str
    phases: tuple[int, ...]
    z: np.ndarray
    ratio: float = 1.0
    y_fr: np.ndarray | None = None
    y_to: np.ndarray | None = None
    # bookkeeping for solution mapping
    source: str = "branch"  # "branch" or "transformer"
    series_id: str = ""  # branch id carrying the series current
    flip_series: bool = False


def lift_radial(net: Network, what: str) -> tuple[NetworkScope, list[FlowRecord], set[str]]:
    """Scope a radial network and collapse each scalar-ratio transformer
    with its leakage branch, for the lifted branch-flow forms.

    Returns the scope, the flow records (plain branches plus absorbed
    transformers) and the set of internal buses that drop out of the lifted
    model. ``what`` names the form in the error for a meshed network.
    """
    cycle = find_cycle(net)
    if cycle is not None:
        raise FormulationError(
            f"radial required: {what} cannot run on a meshed network; found "
            f"a cycle through buses {' -> '.join(cycle)}"
        )
    scope = NetworkScope(net)
    leak_at: dict[str, list] = {}
    for br in scope.branches:
        if br.kind == "transformer_leakage":
            leak_at.setdefault(br.f_bus, []).append(br)
            leak_at.setdefault(br.t_bus, []).append(br)

    records: list[FlowRecord] = []
    dropped: set[str] = set()
    absorbed_leakage: set[str] = set()

    for tr in scope.transformers:
        r = tr.scalar_ratio
        if r is None:
            raise FormulationError(
                f"transformer {tr.id!r}: phase-shifting connection has no scalar "
                f"ratio and cannot be absorbed into the branch-flow relaxation"
            )
        # the internal side is the terminal holding the leakage partner
        if leak_at.get(tr.f_bus):
            internal, primary, ratio = tr.f_bus, tr.t_bus, r
        elif leak_at.get(tr.t_bus):
            internal, primary, ratio = tr.t_bus, tr.f_bus, 1.0 / r
        else:
            # standalone ideal transformer: zero-impedance scaled record
            if tr.f_bus == tr.t_bus:
                raise FormulationError(f"transformer {tr.id!r}: terminals coincide")
            n = len(tr.phases)
            records.append(
                FlowRecord(
                    id=tr.id,
                    f_bus=tr.t_bus,
                    t_bus=tr.f_bus,
                    phases=tr.phases,
                    z=np.zeros((n, n), dtype=complex),
                    ratio=r,
                    source="transformer",
                )
            )
            continue
        partners = leak_at[internal]
        if len(partners) != 1:
            raise FormulationError(
                f"transformer {tr.id!r}: internal bus {internal!r} has "
                f"{len(partners)} series partners, expected exactly one"
            )
        leak = partners[0]
        others = [
            x
            for coll in (net.loads, net.shunts, net.generators, net.storages)
            for x in coll.values()
            if getattr(x, "bus", None) == internal and x.status
        ]
        if others:
            raise FormulationError(
                f"transformer {tr.id!r}: internal bus {internal!r} carries other "
                f"elements and cannot be absorbed"
            )
        secondary = leak.t_bus if leak.f_bus == internal else leak.f_bus
        records.append(
            FlowRecord(
                id=tr.id,
                f_bus=primary,
                t_bus=secondary,
                phases=leak.phases,
                z=leak.z,
                ratio=ratio,
                y_to=leak.y_to if leak.f_bus == internal else leak.y_fr,
                source="transformer",
                series_id=leak.id,
                flip_series=(leak.t_bus == internal),
            )
        )
        absorbed_leakage.add(leak.id)
        dropped.add(internal)

    for br in scope.branches:
        if br.id in absorbed_leakage:
            continue
        if br.f_bus in dropped or br.t_bus in dropped:
            raise FormulationError(
                f"branch {br.id!r} touches an absorbed transformer bus"
            )
        records.append(
            FlowRecord(
                id=br.id,
                f_bus=br.f_bus,
                t_bus=br.t_bus,
                phases=br.phases,
                z=br.z,
                y_fr=br.y_fr,
                y_to=br.y_to,
                series_id=br.id,
            )
        )
    return scope, records, dropped


def start_voltage(bus) -> np.ndarray:
    """Variable start phasors: the source setpoint at a slack bus, else
    balanced unit-magnitude phasors in the standard phase pattern."""
    if bus.bus_type == "slack":
        return bus.slack_voltage()
    return np.array([np.exp(1j * PHASE_ANGLES[p]) for p in bus.phases])


def gen_cost_expr(
    scope: NetworkScope,
    p_var: dict[tuple[str, int], str],
    sbase: float,
    allow_quadratic: bool = True,
    cost_scale: float = 1.0,
) -> QuadExpr:
    """Total generation cost in dollars per hour.

    ``p_var`` maps (generator id, phase) to the per-phase active power
    variable in per unit. Costs are polynomial in total megawatts.
    """
    mw = sbase / 1.0e6
    obj = QuadExpr()
    for g in scope.generators:
        c2, c1, c0 = g.cost
        total = LinExpr()
        for p in g.phases:
            total.add_term(p_var[(g.id, p)], mw)
        if c2 != 0.0:
            if not allow_quadratic:
                raise FormulationError(
                    f"generator {g.id!r}: quadratic cost is not supported "
                    f"in a linear objective"
                )
            obj.add(product(total, total), c2 * cost_scale)
        obj.add_linexpr(total, c1 * cost_scale)
        obj.const += c0 * cost_scale
    return obj
