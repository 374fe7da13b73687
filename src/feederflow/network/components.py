"""Per-unit multi-conductor network model.

All electrical quantities are per unit on a single power base ``sbase``
(volt-amperes, per phase) with line-to-neutral voltage bases per bus.
Impedance matrices are complex and indexed by the conductor subset of the
owning component.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

PHASE_ANGLES = {1: 0.0, 2: -2.0 * np.pi / 3.0, 3: 2.0 * np.pi / 3.0}


@dataclass
class Bus:
    id: str
    phases: tuple[int, ...]
    vbase: float  # line-to-neutral volts
    vmin: float = 0.0
    vmax: float = float("inf")
    bus_type: str = "pq"  # "pq" or "slack"
    vm_set: float = 1.0  # slack magnitude, per unit
    va_set: float = 0.0  # slack phase-a angle, radians
    is_internal: bool = False  # created by transformer decomposition

    def slack_voltage(self) -> np.ndarray:
        """Fixed phasors for a slack bus: vm_set at 0/-120/+120 degrees."""
        return np.array(
            [self.vm_set * np.exp(1j * (self.va_set + PHASE_ANGLES[p])) for p in self.phases]
        )


@dataclass
class Branch:
    """Series impedance with an optional shunt admittance at each end (pi model)."""

    id: str
    f_bus: str
    t_bus: str
    phases: tuple[int, ...]
    z: np.ndarray  # series impedance, pu, n x n complex
    y_fr: np.ndarray | None = None  # from-side shunt admittance, pu
    y_to: np.ndarray | None = None
    rating_s: float = float("inf")  # per-phase apparent power, pu
    status: bool = True
    kind: str = "line"  # "line", "switch", "transformer_leakage"

    def __post_init__(self):
        n = len(self.phases)
        self.z = np.asarray(self.z, dtype=complex).reshape(n, n)
        if self.y_fr is None:
            self.y_fr = np.zeros((n, n), dtype=complex)
        else:
            self.y_fr = np.asarray(self.y_fr, dtype=complex).reshape(n, n)
        if self.y_to is None:
            self.y_to = np.zeros((n, n), dtype=complex)
        else:
            self.y_to = np.asarray(self.y_to, dtype=complex).reshape(n, n)


@dataclass
class IdealTransformer:
    """Lossless voltage coupler: U_f = T U_t and T^H I_f + I_t = 0.

    ``T`` may be singular for delta windings, in which case the relation pins
    the zero-sequence of the f-side voltage and blocks zero-sequence current
    on the t side.
    """

    id: str
    f_bus: str
    t_bus: str
    phases: tuple[int, ...]
    T: np.ndarray
    status: bool = True

    def __post_init__(self):
        n = len(self.phases)
        self.T = np.asarray(self.T, dtype=complex).reshape(n, n)

    @property
    def scalar_ratio(self) -> float | None:
        """The ratio r when T == r * I on the conductor set, else None."""
        n = len(self.phases)
        r = self.T[0, 0]
        if abs(r.imag) > 1e-12:
            return None
        if np.max(np.abs(self.T - r * np.eye(n))) > 1e-12:
            return None
        return float(r.real)


@dataclass
class Shunt:
    id: str
    bus: str
    phases: tuple[int, ...]
    y: np.ndarray  # admittance matrix, pu
    status: bool = True

    def __post_init__(self):
        n = len(self.phases)
        self.y = np.asarray(self.y, dtype=complex).reshape(n, n)


@dataclass
class Load:
    """ZIP load. ``connection`` is "wye" (one leg per phase, line to neutral)
    or "delta" (three legs across phase pairs ab, bc, ca).

    ``s_nom`` holds per-leg complex power drawn at voltage ``v_nom`` (pu).
    The ZIP weights split that power into constant-impedance, constant-current
    and constant-power parts; they apply to both P and Q and sum to one.
    """

    id: str
    bus: str
    phases: tuple[int, ...]
    connection: str
    s_nom: np.ndarray  # per-leg complex power, pu
    v_nom: float = 1.0
    zip_weights: tuple[float, float, float] = (0.0, 0.0, 1.0)  # (a_z, a_i, a_p)
    status: bool = True

    def __post_init__(self):
        self.s_nom = np.asarray(self.s_nom, dtype=complex).reshape(len(self.legs()))

    def legs(self) -> list[tuple[int, ...]]:
        """Connection legs: singleton phases for wye, phase pairs for delta.

        A delta over three conductors has legs ab, bc, ca; a delta over two
        conductors is a single phase-to-phase leg. Two legs over three
        conductors (open delta) is not representable.
        """
        if self.connection == "wye":
            return [(p,) for p in self.phases]
        ps = list(self.phases)
        if len(ps) == 2:
            return [(ps[0], ps[1])]
        return [(ps[k], ps[(k + 1) % len(ps)]) for k in range(len(ps))]


@dataclass
class Generator:
    """Dispatchable injection with box bounds and a quadratic cost.

    ``cost`` is (c2, c1, c0) in dollars per hour against total megawatts.
    ``source`` marks the balancing unit created for the voltage source; power
    flow treats it as the slack injection rather than a fixed setpoint.
    """

    id: str
    bus: str
    phases: tuple[int, ...]
    connection: str = "wye"
    p_set: np.ndarray | None = None  # per-phase dispatch for power flow, pu
    q_set: np.ndarray | None = None
    p_min: np.ndarray | None = None
    p_max: np.ndarray | None = None
    q_min: np.ndarray | None = None
    q_max: np.ndarray | None = None
    cost: tuple[float, float, float] = (0.0, 1.0, 0.0)
    source: bool = False
    status: bool = True

    def __post_init__(self):
        n = len(self.phases)

        def arr(v, default):
            if v is None:
                return np.full(n, default, dtype=float)
            return np.asarray(v, dtype=float).reshape(n)

        self.p_set = arr(self.p_set, 0.0)
        self.q_set = arr(self.q_set, 0.0)
        self.p_min = arr(self.p_min, 0.0)
        self.p_max = arr(self.p_max, 0.0)
        self.q_min = arr(self.q_min, 0.0)
        self.q_max = arr(self.q_max, 0.0)


@dataclass
class Storage:
    """Energy storage with charge/discharge efficiencies.

    Power quantities are per unit on sbase; energy is per unit power times
    hours. The state equation per period is
    ``E_next = E + (eta_c * P_charge - P_discharge / eta_d) * dt``.
    """

    id: str
    bus: str
    phases: tuple[int, ...]
    energy_max: float
    energy_init: float
    p_charge_max: float
    p_discharge_max: float
    eta_charge: float = 1.0
    eta_discharge: float = 1.0
    s_rating: float = float("inf")
    status: bool = True


@dataclass
class TimeSeries:
    """Per-period scale factors for multi-period studies."""

    dt_hours: float
    load_scale: list[float]
    gen_scale: list[float]
    cost_scale: list[float]

    @classmethod
    def from_json_dict(cls, data: dict) -> TimeSeries:
        """Read a periods document: ``dt_hours`` and ``load_scale`` are
        required; ``gen_scale`` and ``cost_scale`` default to ones. Raises
        ``ValueError`` when the vectors differ in length or are empty."""
        n = len(data["load_scale"])
        ts = cls(
            dt_hours=float(data["dt_hours"]),
            load_scale=[float(x) for x in data["load_scale"]],
            gen_scale=[float(x) for x in data.get("gen_scale", [1.0] * n)],
            cost_scale=[float(x) for x in data.get("cost_scale", [1.0] * n)],
        )
        ts.validate_lengths()
        return ts

    @property
    def n_periods(self) -> int:
        return len(self.load_scale)

    def validate_lengths(self) -> None:
        if not (len(self.load_scale) == len(self.gen_scale) == len(self.cost_scale)):
            raise ValueError("time series scale vectors must have equal length")
        if self.n_periods < 1:
            raise ValueError("time series must contain at least one period")


@dataclass
class Network:
    """Container for one per-unit network."""

    sbase: float = 1.0e6
    buses: dict[str, Bus] = field(default_factory=dict)
    branches: dict[str, Branch] = field(default_factory=dict)
    transformers: dict[str, IdealTransformer] = field(default_factory=dict)
    shunts: dict[str, Shunt] = field(default_factory=dict)
    loads: dict[str, Load] = field(default_factory=dict)
    generators: dict[str, Generator] = field(default_factory=dict)
    storages: dict[str, Storage] = field(default_factory=dict)

    def slack_buses(self) -> list[Bus]:
        return [b for b in self.buses.values() if b.bus_type == "slack"]

    def terminal_buses(self) -> list[Bus]:
        return [b for b in self.buses.values() if not b.is_internal]

    def edges(self) -> list[tuple[str, str, str, str]]:
        """(kind, id, f_bus, t_bus) over in-service branches and ideal transformers."""
        out = []
        for br in self.branches.values():
            if br.status:
                out.append(("branch", br.id, br.f_bus, br.t_bus))
        for tr in self.transformers.values():
            if tr.status:
                out.append(("transformer", tr.id, tr.f_bus, tr.t_bus))
        return out

    # -- SI recovery helpers (per-unit round trip) --

    def branch_z_ohm(self, branch_id: str) -> np.ndarray:
        br = self.branches[branch_id]
        vbase = self.buses[br.f_bus].vbase
        return br.z * vbase**2 / self.sbase

    def load_s_va(self, load_id: str) -> np.ndarray:
        return self.loads[load_id].s_nom * self.sbase


@dataclass
class Diagnostic:
    severity: str  # "error" or "warning"
    component: str
    message: str

    def __str__(self):
        return f"{self.severity}: {self.component}: {self.message}"


def walk(adj, roots):
    """Breadth-first forest over ``adj`` (bus -> [(neighbour, edge), ...]),
    grown from each root in turn; a root already reached is skipped.

    Returns the visit order, ``via`` mapping each reached bus to the
    ``(parent, edge)`` it was reached by (``None`` for a root), and, as
    ``(bus, neighbour, edge)`` in visit order, every adjacency entry that
    leads to a bus already reached other than the one back to the parent.
    Edges are told apart by identity: give both ends the same object.
    """
    order: list = []
    via: dict = {}
    back: list = []
    head = 0  # the visit order doubles as the queue
    for root in roots:
        if root in via:
            continue
        via[root] = None
        order.append(root)
        while head < len(order):
            bus = order[head]
            head += 1
            came_by = via[bus][1] if via[bus] is not None else None
            for nbr, edge in adj[bus]:
                if nbr not in via:
                    via[nbr] = (bus, edge)
                    order.append(nbr)
                elif edge is not came_by:
                    back.append((bus, nbr, edge))
    return order, via, back


def find_cycle(net: Network) -> list[str] | None:
    """Return a bus cycle in the in-service graph, or None when radial.

    Parallel edges between the same pair of buses count as a cycle. The
    returned list names the buses along the cycle, used in error messages.
    """
    edges = [((kind, eid), f, t) for kind, eid, f, t in net.edges()]
    adj: dict[str, list[tuple[str, tuple[str, str]]]] = {b: [] for b in net.buses}
    for eid, f, t in edges:
        if f == t:
            return [f]
        adj[f].append((t, eid))
        adj[t].append((f, eid))
    _, via, _ = walk(adj, net.buses)
    tree_edges = {v[1] for v in via.values() if v is not None}
    for eid, f, t in edges:
        if eid in tree_edges:
            continue
        # non-tree edge closes a cycle; join the two root paths at their
        # lowest common ancestor
        ancestors_f = [f]
        cur = f
        while via[cur] is not None:
            cur = via[cur][0]
            ancestors_f.append(cur)
        seen_f = set(ancestors_f)
        path_t = [t]
        cur = t
        while cur not in seen_f:
            cur = via[cur][0]
            path_t.append(cur)
        lca = cur
        cycle = ancestors_f[: ancestors_f.index(lca) + 1]
        cycle.extend(reversed(path_t[:-1]))
        return cycle
    return None


def validate(net: Network) -> list[Diagnostic]:
    """Check structural invariants. The network is usable when no diagnostic
    has severity "error"; warnings flag conditions that solvers work around
    (for example buses with no grounded path, which get a pinning shunt)."""
    diags: list[Diagnostic] = []

    def err(comp, msg):
        diags.append(Diagnostic("error", comp, msg))

    def warn(comp, msg):
        diags.append(Diagnostic("warning", comp, msg))

    for br in net.branches.values():
        for side, bus in (("f_bus", br.f_bus), ("t_bus", br.t_bus)):
            if bus not in net.buses:
                err(f"branch {br.id}", f"{side} {bus!r} is not a defined bus")
                continue
            missing = set(br.phases) - set(net.buses[bus].phases)
            if missing:
                err(f"branch {br.id}", f"phases {sorted(missing)} absent at bus {bus!r}")
        n = len(br.phases)
        if br.z.shape != (n, n):
            err(f"branch {br.id}", f"impedance shape {br.z.shape} != ({n},{n})")

    for tr in net.transformers.values():
        for side, bus in (("f_bus", tr.f_bus), ("t_bus", tr.t_bus)):
            if bus not in net.buses:
                err(f"transformer {tr.id}", f"{side} {bus!r} is not a defined bus")
                continue
            missing = set(tr.phases) - set(net.buses[bus].phases)
            if missing:
                err(
                    f"transformer {tr.id}",
                    f"phases {sorted(missing)} absent at bus {bus!r}",
                )

    for coll, name in (
        (net.shunts, "shunt"),
        (net.loads, "load"),
        (net.generators, "generator"),
        (net.storages, "storage"),
    ):
        for comp in coll.values():
            if comp.bus not in net.buses:
                err(f"{name} {comp.id}", f"bus {comp.bus!r} is not a defined bus")
            elif set(comp.phases) - set(net.buses[comp.bus].phases):
                err(f"{name} {comp.id}", f"phases not all present at bus {comp.bus!r}")

    for bus in net.buses.values():
        if not bus.phases:
            err(f"bus {bus.id}", "empty phase set")
        if sorted(set(bus.phases)) != sorted(bus.phases):
            err(f"bus {bus.id}", "duplicate phases")
        if bus.vbase <= 0:
            err(f"bus {bus.id}", f"voltage base must be positive, got {bus.vbase}")
        if bus.vmin > bus.vmax:
            err(f"bus {bus.id}", f"vmin {bus.vmin} exceeds vmax {bus.vmax}")

    # per-unit data that overflowed: one check per component class, the
    # offending components are looked up only when it fails
    for coll, name, fields in (
        (net.branches, "branch", ("z", "y_fr", "y_to")),
        (net.transformers, "transformer", ("T",)),
        (net.shunts, "shunt", ("y",)),
        (net.loads, "load", ("s_nom",)),
        (net.generators, "generator", ("p_set", "q_set")),
        (net.storages, "storage", ("energy_max", "energy_init", "p_charge_max", "p_discharge_max")),
    ):
        values = [np.ravel(getattr(c, f)) for c in coll.values() for f in fields]
        if not values or np.isfinite(np.concatenate(values)).all():
            continue
        for comp in coll.values():
            bad = [f for f in fields if not np.isfinite(getattr(comp, f)).all()]
            if bad:
                err(f"{name} {comp.id}", f"per-unit {', '.join(bad)} not finite (the input overflows)")

    for ld in net.loads.values():
        a_z, a_i, a_p = ld.zip_weights
        if abs(a_z + a_i + a_p - 1.0) > 1e-9:
            err(f"load {ld.id}", f"ZIP weights sum to {a_z + a_i + a_p}, expected 1")
        if ld.connection not in ("wye", "delta"):
            err(f"load {ld.id}", f"unknown connection {ld.connection!r}")
        if ld.connection == "delta" and len(ld.phases) not in (2, 3):
            err(f"load {ld.id}", "delta connection requires 2 or 3 phases")
        if ld.v_nom <= 0:
            err(f"load {ld.id}", "v_nom must be positive")

    for st in net.storages.values():
        if not (0 <= st.energy_init <= st.energy_max):
            err(f"storage {st.id}", "initial energy outside [0, energy_max]")
        if not (0 < st.eta_charge <= 1 and 0 < st.eta_discharge <= 1):
            err(f"storage {st.id}", "efficiencies must lie in (0, 1]")
        if not (st.p_charge_max >= 0 and st.p_discharge_max >= 0):
            err(f"storage {st.id}", "charge/discharge power limits (kwrated) must not be negative")
        if not st.s_rating > 0:
            err(f"storage {st.id}", "apparent-power rating (kva) must be positive")

    # one slack per island; every island with load must contain a slack
    adj: dict[str, list[tuple[str, str]]] = {b: [] for b in net.buses}
    for _, eid, f, t in net.edges():
        # edges to undeclared buses are reported above; skip them here
        if f in adj and t in adj:
            adj[f].append((t, eid))
            adj[t].append((f, eid))
    seen: set[str] = set()
    for start in net.buses:
        if start in seen:
            continue
        comp = set(walk(adj, [start])[0])
        seen |= comp
        slacks = [b for b in comp if net.buses[b].bus_type == "slack"]
        has_load = any(ld.bus in comp for ld in net.loads.values() if ld.status)
        if len(slacks) > 1:
            err("network", f"island {sorted(comp)} has {len(slacks)} slack buses")
        elif not slacks and has_load:
            err("network", f"island {sorted(comp)} has loads but no slack bus")

    for bus in ungrounded_buses(net):
        warn(
            f"bus {bus}",
            "no grounded path to the slack; solvers add a vanishing pinning shunt",
        )

    return diags


def ungrounded_buses(net: Network) -> list[str]:
    """Buses whose absolute potential is not anchored by the grounded network.

    Anchors are slack buses and buses with any wye-connected load, shunt or
    generator. Branches propagate anchoring both ways. An ideal transformer
    propagates from its t side to its f side always (U_f = T U_t determines
    U_f), and back from f to t only when T is invertible.
    """
    anchored: set[str] = set()
    for bus in net.buses.values():
        if bus.bus_type == "slack":
            anchored.add(bus.id)
    for ld in net.loads.values():
        if ld.status and ld.connection == "wye":
            anchored.add(ld.bus)
    for sh in net.shunts.values():
        if sh.status:
            anchored.add(sh.bus)
    for g in net.generators.values():
        if g.status and g.connection == "wye" and not g.source:
            anchored.add(g.bus)

    adj: dict[str, list] = defaultdict(list)
    for br in net.branches.values():
        if br.status:
            adj[br.f_bus].append((br.t_bus, br))
            adj[br.t_bus].append((br.f_bus, br))
    for tr in net.transformers.values():
        if tr.status:
            adj[tr.t_bus].append((tr.f_bus, tr))
            if tr.phases and abs(np.linalg.det(tr.T)) > 1e-12:
                adj[tr.f_bus].append((tr.t_bus, tr))
    _, reached, _ = walk(adj, anchored)
    return sorted(b for b in net.buses if b not in reached)
