"""Conversion from a DSS object database to the per-unit network model.

Per-unit conventions (documented, used consistently everywhere):

* ``sbase`` is the power base in volt-amperes applied per phase; powers
  convert as ``S_pu = S_VA / sbase``.
* voltage bases are line-to-neutral volts per bus, assigned at the source
  from ``basekv`` and propagated across transformers by the winding kV ratio.
* impedances convert as ``Z_pu = Z_ohm * sbase / vbase**2`` and admittances
  as ``Y_pu = Y_siemens * vbase**2 / sbase``.
* transformer percent impedances are interpreted on the nameplate
  (kVA, winding kV) base directly:
  ``z_pu = pct/100 * (sbase / (kva*1e3)) * (kv_ln*1e3 / vbase)**2``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dss.datamodel import DssDataModel, DssObject
from ..dss.values import BusRef
from .components import (
    Branch,
    Bus,
    Generator,
    IdealTransformer,
    Load,
    Network,
    Shunt,
    Storage,
    validate,
    walk,
)

# per-unit voltage bounds of every bus but the slack
VMIN_DEFAULT = 0.9
VMAX_DEFAULT = 1.1


class NetworkConversionError(ValueError):
    """A DSS model that cannot be converted into a Network."""


DELTA_3PH = np.array(
    [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]], dtype=complex
)


def kron_reduce(
    z: np.ndarray, keep: list[int], eliminate: list[int] | None = None
) -> np.ndarray:
    """Eliminate conductors by the Schur complement.

    Returns ``Z_kk - Z_ke Z_ee^-1 Z_ek`` over the kept index set; conductors
    not kept are eliminated (perfectly grounded neutral assumption). Raises
    ``NetworkConversionError`` when the eliminated block is singular.
    """
    z = np.asarray(z, dtype=complex)
    if eliminate is None:
        eliminate = [i for i in range(z.shape[0]) if i not in set(keep)]
    if set(keep) & set(eliminate):
        raise NetworkConversionError("keep and eliminate index sets overlap")
    kk = z[np.ix_(keep, keep)]
    ke = z[np.ix_(keep, eliminate)]
    ek = z[np.ix_(eliminate, keep)]
    ee = z[np.ix_(eliminate, eliminate)]
    if eliminate:
        try:
            sol = np.linalg.solve(ee, ek)
        except np.linalg.LinAlgError as exc:
            raise NetworkConversionError(
                "eliminated conductor block is singular"
            ) from exc
        return kk - ke @ sol
    return kk


def _norm_conn(raw: str) -> str:
    t = raw.strip().lower()
    if t in ("wye", "y", "ln"):
        return "wye"
    if t in ("delta", "d", "ll"):
        return "delta"
    raise NetworkConversionError(f"unsupported winding connection {raw!r}")


def _winding_volts(kv: float, n: int, conn: str) -> float:
    """Rated volts across one winding."""
    if conn == "delta":
        return kv * 1e3
    return kv * 1e3 / math.sqrt(3.0) if n >= 2 else kv * 1e3


def _line_volts_ln(kv: float, n: int) -> float:
    """Line-to-neutral equivalent of a rated kV figure (kV is line-to-line
    for polyphase elements, line-to-neutral for single-phase)."""
    return kv * 1e3 / math.sqrt(3.0) if n >= 2 else kv * 1e3


def _winding_kvs(name: str, props: dict) -> tuple[float, float]:
    """The two rated winding kV figures, each required to be positive."""
    kvs = props.get("kvs")
    if not kvs or len(kvs) != 2 or None in kvs:
        raise NetworkConversionError(f"transformer {name!r}: kvs must give two entries")
    if min(kvs) <= 0:
        raise NetworkConversionError(
            f"transformer {name!r}: winding kv must be positive, got {kvs[0]:g} and {kvs[1]:g}"
        )
    return float(kvs[0]), float(kvs[1])


@dataclass
class TransformerParts:
    """Components produced by decomposing one two-winding transformer."""

    internal_bus: Bus
    ideal: IdealTransformer
    leakage: Branch
    magnetizing: Shunt | None


def decompose_transformer(
    name: str,
    props: dict,
    vbase_primary: float,
    vbase_secondary: float,
    sbase: float,
) -> TransformerParts:
    """Split a two-winding transformer into ideal coupling, a leakage branch
    and an optional magnetizing shunt.

    The ideal transformer carries the effective per-unit turns matrix. With
    voltage bases propagated by the winding kV ratio, a wye-wye unit reduces
    to T = (tap2/tap1) I, and a delta winding contributes the three-phase
    delta incidence matrix, which produces the 30 degree vector-group shift.

    Raises ``NetworkConversionError`` for anything but two windings, for
    connections outside wye/delta, and for delta windings on other than
    three conductors.
    """
    windings = int(props.get("windings", 2))
    buses: list[BusRef] = props.get("buses", [])
    if windings != 2 or len(buses) != 2:
        raise NetworkConversionError(
            f"transformer {name!r}: only two-winding transformers are supported "
            f"(windings={windings}, {len(buses)} buses)"
        )
    kvs = _winding_kvs(name, props)
    conns = [_norm_conn(c) for c in props.get("conns", ["wye", "wye"])]
    if len(conns) != 2:
        raise NetworkConversionError(f"transformer {name!r}: conns must give two entries")
    taps = props.get("taps", [1.0, 1.0])
    if len(taps) != 2:
        raise NetworkConversionError(f"transformer {name!r}: taps must give two entries")
    if None in taps or min(taps) <= 0:
        raise NetworkConversionError(f"transformer {name!r}: taps must be positive")
    kvas = props.get("kvas", [1000.0, 1000.0])
    if any(v is not None and v <= 0 for v in kvas):
        raise NetworkConversionError(f"transformer {name!r}: kvas must be positive")
    kva = float(kvas[-1])

    nominal = int(props.get("phases", 3))
    nodes1 = buses[0].phases
    nodes2 = buses[1].phases
    phases = tuple(sorted(nodes2)) or tuple(range(1, nominal + 1))
    phases_p = tuple(sorted(nodes1)) or tuple(range(1, nominal + 1))
    if len(phases_p) != len(phases):
        raise NetworkConversionError(
            f"transformer {name!r}: windings list different conductor counts"
        )
    n = len(phases)
    for c in conns:
        if c == "delta" and n != 3:
            raise NetworkConversionError(
                f"transformer {name!r}: delta windings need 3 conductors, got {n}"
            )

    def incidence(conn: str) -> np.ndarray:
        return DELTA_3PH.copy() if conn == "delta" else np.eye(n, dtype=complex)

    # a_k relates the per-unit terminal voltage to the physical winding
    # voltage: v_wind = (vbase / a-denominator) * M u, see module docstring
    a = [
        vbase / (_winding_volts(float(kv), n, conn) * float(tap))
        for vbase, kv, conn, tap in zip(
            (vbase_primary, vbase_secondary), kvs, conns, taps
        )
    ]

    terminal_p = buses[0].key
    terminal_s = buses[1].key
    internal_id = f"{name}.internal"

    conn1, conn2 = conns
    if conn2 == "wye":
        # secondary voltage is fully determined by the primary side
        f_bus, t_bus = internal_id, terminal_p
        T = (a[0] / a[1]) * incidence(conn1)
    elif conn1 == "wye":
        # wye primary determined by the delta secondary side
        f_bus, t_bus = terminal_p, internal_id
        T = (a[1] / a[0]) * incidence(conn2)
    else:
        # delta-delta: transfer without zero sequence, pinning the internal
        # side's zero-sequence potential
        f_bus, t_bus = internal_id, terminal_p
        proj = np.eye(3, dtype=complex) - np.ones((3, 3), dtype=complex) / 3.0
        T = (a[0] / a[1]) * proj

    ideal = IdealTransformer(id=name, f_bus=f_bus, t_bus=t_bus, phases=phases, T=T)

    internal_bus = Bus(
        id=internal_id,
        phases=phases,
        vbase=vbase_secondary,
        vmin=0.0,
        vmax=float("inf"),
        is_internal=True,
    )

    # series resistance: per-winding percentages sum to the through value;
    # %loadloss is the aggregate fallback when windings are not given
    rs = props.get("%rs")
    if rs is not None:
        r_pct = float(sum(0.0 if v is None else float(v) for v in rs))
    else:
        r_pct = float(props.get("%loadloss", 0.0))
    x_pct = float(props.get("xhl", 0.0))
    kv_ln_2 = _line_volts_ln(kvs[1], n)
    zbase_scale = (sbase / (kva * 1e3)) * (kv_ln_2 / vbase_secondary) ** 2
    z_leak = (r_pct / 100.0 + 1j * x_pct / 100.0) * zbase_scale
    leakage = Branch(
        id=f"{name}.leakage",
        f_bus=internal_id,
        t_bus=terminal_s,
        phases=phases,
        z=np.eye(n, dtype=complex) * z_leak,
        kind="transformer_leakage",
    )

    magnetizing = None
    nll_pct = float(props.get("%noloadloss", 0.0))
    if nll_pct != 0.0:
        kv_ln_1 = _line_volts_ln(kvs[0], n)
        g = (nll_pct / 100.0) * (kva * 1e3 / sbase) * (vbase_primary / kv_ln_1) ** 2
        magnetizing = Shunt(
            id=f"{name}.magnetizing",
            bus=terminal_p,
            phases=phases_p,
            y=np.eye(len(phases_p), dtype=complex) * g,
        )

    return TransformerParts(internal_bus, ideal, leakage, magnetizing)


def _ref_phases(ref: BusRef | None, nominal: int) -> tuple[int, ...]:
    if ref is not None and ref.phases:
        return tuple(sorted(set(ref.phases)))
    return tuple(range(1, nominal + 1))


def _submatrix(mat: list[list[float]], n: int, what: str) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.shape != (n, n):
        raise NetworkConversionError(
            f"{what}: matrix is {m.shape[0]}x{m.shape[1]}, element has {n} conductors"
        )
    return m


# per-unit data that overflows is reported by validate, not as numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def from_dss(model: DssDataModel, sbase: float = 1.0e6) -> Network:
    """Build a per-unit :class:`Network` from a DSS data model.

    Requires exactly one voltage source (circuit definition). Assigns
    voltage bases by breadth-first propagation from the source bus across
    lines (same base) and transformers (winding kV ratio), converts every
    element to per unit, decomposes transformers, and attaches a wide-bound
    balancing generator at the slack bus. Raises
    :class:`NetworkConversionError` for undefined buses, missing linecodes,
    unreachable (zero voltage base) buses, or invalid component data.
    """
    sources = model.by_class("vsource")
    if len(sources) != 1:
        raise NetworkConversionError(
            f"expected exactly one voltage source, found {len(sources)}"
        )
    source = next(iter(sources.values()))
    sp = source.properties
    frequency = float(model.options.get("defaultbasefrequency", sp.get("frequency", 60.0)))

    net = Network(sbase=float(sbase))

    lines = model.by_class("line")
    transformers = model.by_class("transformer")
    linecodes = model.by_class("linecode")

    # -- bus universe and phase sets ------------------------------------
    bus_phases: dict[str, set[int]] = {}

    def touch(ref: BusRef, phases: tuple[int, ...]) -> str:
        key = ref.key
        bus_phases.setdefault(key, set()).update(phases)
        return key

    src_nominal = int(sp.get("phases", 3))
    src_ref: BusRef = sp.get("bus1", BusRef("sourcebus"))
    src_phases = _ref_phases(src_ref, src_nominal)
    source_bus = touch(src_ref, src_phases)

    # per line: (phases after neutral elimination, kept conductor positions,
    # full conductor count for matrix sizing)
    line_conductors: dict[str, tuple[tuple[int, ...], list[int], int]] = {}
    for obj in lines.values():
        p = obj.properties
        if "bus1" not in p or "bus2" not in p:
            raise NetworkConversionError(f"line {obj.name!r}: bus1 and bus2 are required")
        code = None
        if "linecode" in p:
            code_key = p["linecode"].lower()
            if code_key not in linecodes:
                raise NetworkConversionError(
                    f"line {obj.name!r}: linecode {p['linecode']!r} is not defined"
                )
            code = linecodes[code_key]
        nominal = int(
            p.get(
                "phases",
                (code.properties.get("nphases", 3) if code is not None else 3),
            )
        )
        nodes1 = list(p["bus1"].nodes) if p["bus1"].nodes else list(range(1, nominal + 1))
        if len(set(nodes1)) != len(nodes1):
            raise NetworkConversionError(f"line {obj.name!r}: duplicate nodes on bus1")
        if p["bus1"].nodes:
            # node 0 marks an explicitly grounded neutral conductor
            keep = [i for i, nd in enumerate(nodes1) if nd != 0]
        elif nominal == 4:
            # four-wire default: the 4th conductor is the grounded neutral
            keep = [0, 1, 2]
        else:
            keep = list(range(len(nodes1)))
        if not keep:
            raise NetworkConversionError(f"line {obj.name!r}: every conductor is grounded")
        kept_nodes = [nodes1[i] for i in keep]
        order = sorted(range(len(keep)), key=lambda k: kept_nodes[k])
        keep = [keep[k] for k in order]
        phases = tuple(kept_nodes[k] for k in order)
        if not set(phases) <= {1, 2, 3}:
            raise NetworkConversionError(
                f"line {obj.name!r}: conductors {phases} outside phases 1..3; "
                f"mark a neutral with node 0 so it can be eliminated"
            )
        line_conductors[obj.key] = (phases, keep, len(nodes1))
        touch(p["bus1"], phases)
        nodes2 = list(p["bus2"].nodes)
        if nodes2:
            if len(nodes2) != len(nodes1):
                raise NetworkConversionError(
                    f"line {obj.name!r}: bus2 lists {len(nodes2)} nodes, "
                    f"bus1 side has {len(nodes1)}"
                )
            kept2 = tuple(sorted(nd for nd in nodes2 if nd != 0))
            if kept2 != phases:
                raise NetworkConversionError(
                    f"line {obj.name!r}: phase transposition between terminals "
                    f"is unsupported"
                )
        touch(p["bus2"], phases)

    tf_sides: dict[str, tuple[str, str]] = {}
    for obj in transformers.values():
        p = obj.properties
        buses = p.get("buses", [])
        if len(buses) != 2:
            raise NetworkConversionError(
                f"transformer {obj.name!r}: exactly two winding buses are required"
            )
        nominal = int(p.get("phases", 3))
        pk = touch(buses[0], _ref_phases(buses[0], nominal))
        sk = touch(buses[1], _ref_phases(buses[1], nominal))
        tf_sides[obj.key] = (pk, sk)

    def require_bus(ref: BusRef, what: str) -> str:
        if ref.key not in bus_phases:
            raise NetworkConversionError(
                f"{what}: bus {ref.name!r} is not defined by any line, "
                f"transformer or source"
            )
        return ref.key

    # -- voltage base propagation ----------------------------------------
    basekv = float(sp.get("basekv", 0.0))
    if basekv <= 0:
        raise NetworkConversionError("voltage source needs a positive basekv")
    vbase: dict[str, float] = {
        source_bus: _line_volts_ln(basekv, len(src_phases))
    }
    # edges as (bus_a, bus_b, ratio) meaning vbase_b = vbase_a * ratio
    prop_edges: list[tuple[str, str, float]] = []
    for obj in lines.values():
        p = obj.properties
        prop_edges.append((p["bus1"].key, p["bus2"].key, 1.0))
    for obj in transformers.values():
        kv1, kv2 = _winding_kvs(obj.name, obj.properties)
        pk, sk = tf_sides[obj.key]
        prop_edges.append((pk, sk, kv2 / kv1))

    adj: dict[str, list[tuple[str, tuple[str, str, float]]]] = {b: [] for b in bus_phases}
    for edge in prop_edges:
        adj[edge[0]].append((edge[1], edge))
        adj[edge[1]].append((edge[0], edge))
    order, via, _ = walk(adj, [source_bus])
    for key in order[1:]:
        parent, (a, _, ratio) = via[key]
        vbase[key] = vbase[parent] * ratio if parent == a else vbase[parent] / ratio
    missing = sorted(set(bus_phases) - set(vbase))
    if missing:
        raise NetworkConversionError(
            f"no voltage base propagates to buses {missing}; "
            f"they are not connected to the source"
        )

    for key, phases in bus_phases.items():
        net.buses[key] = Bus(
            id=key,
            phases=tuple(sorted(phases)),
            vbase=vbase[key],
            vmin=VMIN_DEFAULT,
            vmax=VMAX_DEFAULT,
        )

    slack = net.buses[source_bus]
    slack.bus_type = "slack"
    slack.vm_set = float(sp.get("pu", 1.0))
    slack.va_set = math.radians(float(sp.get("angle", 0.0)))
    slack.vmin = slack.vm_set
    slack.vmax = slack.vm_set

    # -- lines -> branches ------------------------------------------------
    omega = 2.0 * math.pi * frequency
    for obj in lines.values():
        p = obj.properties
        phases, keep, n_full = line_conductors[obj.key]
        n = len(phases)
        f_key, t_key = p["bus1"].key, p["bus2"].key
        vb = vbase[f_key]
        if abs(vbase[t_key] - vb) > 1e-6 * vb:
            raise NetworkConversionError(
                f"line {obj.name!r} connects buses with different voltage bases"
            )
        status = bool(p.get("enabled", True))
        is_switch = bool(p.get("switch", False))

        if is_switch:
            z_pu = np.zeros((n, n), dtype=complex)
            y_end = np.zeros((n, n), dtype=complex)
        else:
            code = linecodes.get(p.get("linecode", "").lower())

            def matprop(name: str):
                if name in p:
                    return p[name]
                if code is not None and name in code.properties:
                    return code.properties[name]
                return None

            rmat = matprop("rmatrix")
            xmat = matprop("xmatrix")
            if rmat is None or xmat is None:
                raise NetworkConversionError(
                    f"line {obj.name!r}: rmatrix and xmatrix are required "
                    f"(directly or via linecode)"
                )
            length = float(p.get("length", 1.0))
            if length < 0:
                raise NetworkConversionError(
                    f"line {obj.name!r}: length must not be negative, got {length:g}"
                )
            units_line = p.get("units")
            units_code = code.properties.get("units") if code is not None else None
            if units_line and units_code and units_line != units_code:
                # stored in source units; the artifact does no unit conversion
                raise NetworkConversionError(
                    f"line {obj.name!r}: length units {units_line!r} differ from "
                    f"linecode units {units_code!r}"
                )
            r = _submatrix(rmat, n_full, f"line {obj.name!r} rmatrix")
            x = _submatrix(xmat, n_full, f"line {obj.name!r} xmatrix")
            z_ohm = (r + 1j * x) * length
            if len(keep) != n_full:
                # grounded neutral conductors eliminated by Kron reduction
                z_ohm = kron_reduce(z_ohm, keep)
            else:
                z_ohm = z_ohm[np.ix_(keep, keep)]
            z_pu = z_ohm * sbase / vb**2
            cmat = matprop("cmatrix")
            if cmat is not None:
                c = _submatrix(cmat, n_full, f"line {obj.name!r} cmatrix")
                # neutral rows of the charging matrix are dropped, not reduced
                c = c[np.ix_(keep, keep)]
                b_si = omega * c * 1e-9 * length
                # total line charging split equally between the two ends
                y_end = 1j * b_si * vb**2 / sbase / 2.0
            else:
                y_end = np.zeros((n, n), dtype=complex)

        # normamps at 1 pu voltage: the per-phase apparent-power limit
        rating_s = float("inf")
        if "normamps" in p and float(p["normamps"]) > 0:
            i_base = sbase / vb
            rating_s = float(p["normamps"]) / i_base

        net.branches[obj.key] = Branch(
            id=obj.key,
            f_bus=f_key,
            t_bus=t_key,
            phases=phases,
            z=z_pu,
            y_fr=y_end.copy(),
            y_to=y_end.copy(),
            rating_s=rating_s,
            status=status,
            kind="switch" if is_switch else "line",
        )

    # -- transformers ------------------------------------------------------
    for obj in transformers.values():
        p = obj.properties
        pk, sk = tf_sides[obj.key]
        parts = decompose_transformer(obj.key, p, vbase[pk], vbase[sk], sbase)
        if not bool(p.get("enabled", True)):
            parts.ideal.status = False
            parts.leakage.status = False
            if parts.magnetizing is not None:
                parts.magnetizing.status = False
        net.buses[parts.internal_bus.id] = parts.internal_bus
        net.transformers[parts.ideal.id] = parts.ideal
        net.branches[parts.leakage.id] = parts.leakage
        if parts.magnetizing is not None:
            net.shunts[parts.magnetizing.id] = parts.magnetizing

    # -- loads --------------------------------------------------------------
    for obj in model.by_class("load").values():
        p = obj.properties
        if "bus1" not in p:
            raise NetworkConversionError(f"load {obj.name!r}: bus1 is required")
        key = require_bus(p["bus1"], f"load {obj.name!r}")
        nominal = int(p.get("phases", 3))
        phases = _ref_phases(p["bus1"], nominal)
        conn = p.get("conn", "wye")
        conn = _norm_conn(conn)
        kv = float(p.get("kv", 0.0))
        if kv <= 0:
            raise NetworkConversionError(f"load {obj.name!r}: kv is required")
        vb = vbase[key]
        if conn == "delta":
            if len(phases) != 3:
                raise NetworkConversionError(
                    f"load {obj.name!r}: delta connection requires 3 phases "
                    f"(open delta is unsupported)"
                )
            v_nom = kv * 1e3 / vb
            n_legs = 3
        else:
            v_nom = _line_volts_ln(kv, len(phases)) / vb
            n_legs = len(phases)

        s_total = (float(p.get("kw", 0.0)) + 1j * float(p.get("kvar", 0.0))) * 1e3
        s_leg = s_total / n_legs / sbase

        if "zip" in p:
            zw = tuple(float(v) for v in p["zip"])
            if len(zw) != 3 or abs(sum(zw) - 1.0) > 1e-9:
                raise NetworkConversionError(
                    f"load {obj.name!r}: zip weights must be three values summing to 1"
                )
        else:
            mdl = int(p.get("model", 1))
            if mdl == 1:
                zw = (0.0, 0.0, 1.0)
            elif mdl == 2:
                zw = (1.0, 0.0, 0.0)
            elif mdl == 5:
                zw = (0.0, 1.0, 0.0)
            else:
                raise NetworkConversionError(
                    f"load {obj.name!r}: load model {mdl} is unsupported "
                    f"(supported: 1, 2, 5 or explicit zip weights)"
                )

        net.loads[obj.key] = Load(
            id=obj.key,
            bus=key,
            phases=phases,
            connection=conn,
            s_nom=np.full(n_legs, s_leg, dtype=complex),
            v_nom=v_nom,
            zip_weights=zw,
            status=bool(p.get("enabled", True)),
        )
        bus = net.buses[key]
        if "vminpu" in p:
            bus.vmin = max(bus.vmin, float(p["vminpu"]))
        if "vmaxpu" in p:
            bus.vmax = min(bus.vmax, float(p["vmaxpu"]))

    # -- capacitors and shunt reactors ---------------------------------------
    for obj in model.by_class("capacitor").values():
        p = obj.properties
        key = require_bus(p.get("bus1", BusRef("")), f"capacitor {obj.name!r}")
        nominal = int(p.get("phases", 3))
        phases = _ref_phases(p["bus1"], nominal)
        conn = _norm_conn(p.get("conn", "wye"))
        kvar = float(p.get("kvar", 0.0))
        kv = float(p.get("kv", 0.0))
        vb = vbase[key]
        if kv <= 0:
            raise NetworkConversionError(f"capacitor {obj.name!r}: kv is required")
        if conn == "wye":
            v_nom = _line_volts_ln(kv, len(phases)) / vb
            q_leg = kvar * 1e3 / len(phases) / sbase
            y = 1j * np.eye(len(phases)) * (q_leg / v_nom**2)
        else:
            if len(phases) != 3:
                raise NetworkConversionError(
                    f"capacitor {obj.name!r}: delta connection requires 3 phases"
                )
            v_nom = kv * 1e3 / vb
            q_leg = kvar * 1e3 / 3.0 / sbase
            y_leg = 1j * q_leg / v_nom**2
            m = DELTA_3PH
            y = m.conj().T @ (y_leg * np.eye(3)) @ m
        net.shunts[obj.key] = Shunt(
            id=obj.key, bus=key, phases=phases, y=y,
            status=bool(p.get("enabled", True)),
        )

    for obj in model.by_class("reactor").values():
        p = obj.properties
        if "bus2" in p:
            raise NetworkConversionError(
                f"reactor {obj.name!r}: only shunt reactors (bus1 only) are supported"
            )
        key = require_bus(p.get("bus1", BusRef("")), f"reactor {obj.name!r}")
        nominal = int(p.get("phases", 3))
        phases = _ref_phases(p["bus1"], nominal)
        vb = vbase[key]
        if "r" in p or "x" in p:
            r = float(p.get("r", 0.0))
            x = float(p.get("x", 0.0))
            if r == 0.0 and x == 0.0:
                raise NetworkConversionError(f"reactor {obj.name!r}: zero impedance")
            y_si = 1.0 / complex(r, x)
            y = np.eye(len(phases)) * y_si * vb**2 / sbase
        else:
            kv = float(p.get("kv", 0.0))
            kvar = float(p.get("kvar", 0.0))
            if kv <= 0 or kvar <= 0:
                raise NetworkConversionError(
                    f"reactor {obj.name!r}: needs r/x or kv and kvar"
                )
            v_nom = _line_volts_ln(kv, len(phases)) / vb
            q_leg = kvar * 1e3 / len(phases) / sbase
            y = -1j * np.eye(len(phases)) * (q_leg / v_nom**2)
        net.shunts[obj.key] = Shunt(
            id=obj.key, bus=key, phases=phases, y=y,
            status=bool(p.get("enabled", True)),
        )

    # -- generators, pv systems ----------------------------------------------
    def add_generator(obj: DssObject, p_kw: float, q_kvar: float) -> None:
        p = obj.properties
        key = require_bus(p.get("bus1", BusRef("")), f"{obj.object_class} {obj.name!r}")
        nominal = int(p.get("phases", 3))
        phases = _ref_phases(p["bus1"], nominal)
        conn = _norm_conn(p.get("conn", "wye"))
        n = len(phases)
        p_ph = p_kw * 1e3 / n / sbase
        q_ph = q_kvar * 1e3 / n / sbase
        cost = tuple(float(c) for c in p.get("cost", (0.0, 1.0, 0.0)))
        if len(cost) != 3:
            raise NetworkConversionError(f"{obj.object_class} {obj.name!r}: cost needs 3 entries")
        gid = obj.key
        while gid in net.generators:
            gid += "_"
        net.generators[gid] = Generator(
            id=gid,
            bus=key,
            phases=phases,
            connection=conn,
            p_set=np.full(n, p_ph),
            q_set=np.full(n, q_ph),
            p_min=np.zeros(n),
            p_max=np.full(n, max(p_ph, 0.0)),
            q_min=np.full(n, -abs(q_ph)),
            q_max=np.full(n, abs(q_ph)),
            cost=cost,
            status=bool(p.get("enabled", True)),
        )

    for obj in model.by_class("generator").values():
        add_generator(obj, float(obj.properties.get("kw", 0.0)),
                      float(obj.properties.get("kvar", 0.0)))
    for obj in model.by_class("pvsystem").values():
        p = obj.properties
        p_kw = float(p.get("pmpp", p.get("kva", 0.0)))
        add_generator(obj, p_kw, float(p.get("kvar", 0.0)))

    # -- storage ---------------------------------------------------------------
    for obj in model.by_class("storage").values():
        p = obj.properties
        key = require_bus(p.get("bus1", BusRef("")), f"storage {obj.name!r}")
        nominal = int(p.get("phases", 3))
        phases = _ref_phases(p["bus1"], nominal)
        kw_rated = float(p.get("kwrated", 0.0))
        net.storages[obj.key] = Storage(
            id=obj.key,
            bus=key,
            phases=phases,
            energy_max=float(p.get("kwhrated", 0.0)) * 1e3 / sbase,
            energy_init=float(p.get("kwhstored", 0.0)) * 1e3 / sbase,
            p_charge_max=kw_rated * 1e3 / sbase,
            p_discharge_max=kw_rated * 1e3 / sbase,
            eta_charge=float(p.get("%effcharge", 100.0)) / 100.0,
            eta_discharge=float(p.get("%effdischarge", 100.0)) / 100.0,
            s_rating=(float(p["kva"]) * 1e3 / sbase) if "kva" in p else float("inf"),
            status=bool(p.get("enabled", True)),
        )

    # -- balancing generator at the slack bus -----------------------------------
    src_cost = sp.get("cost", (0.0, 10.0, 0.0))
    if len(src_cost) != 3:
        raise NetworkConversionError("vsource cost needs 3 entries")
    gid = "source"
    while gid in net.generators:
        gid += "_"
    nsrc = len(src_phases)
    net.generators[gid] = Generator(
        id=gid,
        bus=source_bus,
        phases=src_phases,
        p_set=np.zeros(nsrc),
        q_set=np.zeros(nsrc),
        p_min=np.full(nsrc, -100.0),
        p_max=np.full(nsrc, 100.0),
        q_min=np.full(nsrc, -100.0),
        q_max=np.full(nsrc, 100.0),
        cost=tuple(float(c) for c in src_cost),
        source=True,
    )

    errors = [d for d in validate(net) if d.severity == "error"]
    if errors:
        raise NetworkConversionError(
            "converted network fails validation: "
            + "; ".join(str(d) for d in errors)
        )
    return net
