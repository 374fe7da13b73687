"""Shared machinery for formulation builders.

Complex quantities are scalarized here once: a :class:`ComplexExpr` wraps
real and imaginary affine expressions, supports complex-scalar algebra, and
products of two complex expressions yield real and imaginary quadratics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mathir import LinExpr, QuadExpr, product
from ..network.components import Network, find_cycle, walk


class FormulationError(ValueError):
    """The network uses a feature this formulation cannot express."""


def vn(*parts) -> str:
    """Join name parts into a variable or label identifier."""
    return ":".join(str(p) for p in parts)


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


def require_radial(net: Network, what: str) -> None:
    cycle = find_cycle(net)
    if cycle is not None:
        raise FormulationError(
            f"radial required: {what} cannot run on a meshed network; found "
            f"a cycle through buses {' -> '.join(cycle)}"
        )


def flat_voltage(bus) -> np.ndarray:
    """Balanced unit-magnitude phasors in the standard phase pattern,
    used as variable start values."""
    from ..network.components import PHASE_ANGLES

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
