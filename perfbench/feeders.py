"""Seeded synthetic feeders in the OpenDSS dialect that feederflow reads.

Every feeder is radial: a three-phase trunk in which each new bus hangs off
one of the five buses before it, plus single-phase laterals off the trunk.
Loads are wye-connected ZIP loads of models 1, 2 and 5 (no delta loads, so
the lifted branch-flow form accepts every feeder). Storage units and a
multi-period load/price profile are optional.

The text depends only on the ``random.Random`` passed in and the size
arguments; numbers are written with a fixed number of decimals, so the same
seed gives byte-identical files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

BASE_KV = 12.47
LATERAL_KV = 7.2  # line-to-neutral kV of a single-phase lateral
PARENT_WINDOW = 5
LOAD_MODELS = (1, 2, 5)


@dataclass(frozen=True)
class FeederSpec:
    """Size of one generated feeder: ``1 + trunk + laterals`` buses, the
    source bus included, and the range of load per trunk bus in kW."""

    trunk: int
    laterals: int
    kw_per_bus: tuple[float, float]
    storages: int = 0


def feeder_dss(rng: random.Random, spec: FeederSpec, name: str) -> str:
    """One radial three-phase feeder with single-phase laterals, as DSS text."""
    lines = [
        f"! synthetic radial feeder: {spec.trunk} trunk buses, {spec.laterals} "
        f"single-phase laterals, {spec.storages} storage units",
        "clear",
        f"new circuit.{name} basekv={BASE_KV} pu=1.0 phases=3 bus1=src",
        "~ cost=(0.0 5.0 0.0)",
        "new linecode.trunk nphases=3 units=km",
        "~ rmatrix=(0.1459 | 0.0492 0.1489 | 0.0498 0.0482 0.1472)",
        "~ xmatrix=(0.4206 | 0.1652 0.4141 | 0.1446 0.1547 0.4162)",
        "new linecode.lat1 nphases=1 units=km",
        "~ rmatrix=(0.2511) xmatrix=(0.4801)",
    ]
    trunk = ["src"]
    lo, hi = spec.kw_per_bus
    for i in range(1, spec.trunk + 1):
        parent = rng.choice(trunk[max(0, len(trunk) - PARENT_WINDOW):])
        bus = f"b{i}"
        trunk.append(bus)
        length = rng.uniform(0.05, 0.25)
        lines.append(
            f"new line.t{i} bus1={parent} bus2={bus} linecode=trunk length={length:.4f} units=km"
        )
        kw = rng.uniform(lo, hi)
        pf_ratio = rng.uniform(0.2, 0.4)
        lines.append(
            f"new load.l{i} bus1={bus}.1.2.3 phases=3 conn=wye kv={BASE_KV} "
            f"kw={kw:.3f} kvar={kw * pf_ratio:.3f} model={rng.choice(LOAD_MODELS)}"
        )
    for k in range(1, spec.laterals + 1):
        tap = rng.choice(trunk[1:])
        phase = rng.randint(1, 3)
        bus = f"x{k}"
        length = rng.uniform(0.05, 0.3)
        lines.append(
            f"new line.x{k} bus1={tap}.{phase} bus2={bus}.{phase} phases=1 linecode=lat1 "
            f"length={length:.4f} units=km"
        )
        kw = rng.uniform(lo, hi) / 3.0
        lines.append(
            f"new load.xl{k} bus1={bus}.{phase} phases=1 conn=wye kv={LATERAL_KV} "
            f"kw={kw:.3f} kvar={kw * 0.3:.3f} model={rng.choice(LOAD_MODELS)}"
        )
    for k, bus in enumerate(rng.sample(trunk[1:], spec.storages), start=1):
        kw = rng.uniform(100.0, 200.0)
        hours = rng.uniform(2.0, 4.0)
        eff = rng.uniform(88.0, 96.0)
        lines.append(
            f"new storage.s{k} bus1={bus}.1.2.3 phases=3 kwrated={kw:.2f} "
            f"kwhrated={kw * hours:.2f} kwhstored={kw * hours / 2.0:.2f}"
        )
        lines.append(f"~ %effcharge={eff:.1f} %effdischarge={eff:.1f}")
    lines += [f"set voltagebases=[{BASE_KV}]", "calcvoltagebases", "solve", ""]
    return "\n".join(lines)


def periods_json(rng: random.Random, n_periods: int) -> str:
    """A load and price profile for ``opf --periods``: prices swing enough
    between periods that storage arbitrage pays despite its losses."""
    profile = {
        "dt_hours": 1.0,
        "load_scale": [round(rng.uniform(0.7, 1.2), 4) for _ in range(n_periods)],
        "gen_scale": [1.0] * n_periods,
        "cost_scale": [round(rng.uniform(0.5, 2.0), 4) for _ in range(n_periods)],
    }
    return json.dumps(profile, indent=1, sort_keys=True) + "\n"
