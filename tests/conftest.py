import pathlib
import sys

import pytest

from feederflow.dss import parse_file
from feederflow.network import from_dss
from feederflow.pf import solve_newton

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# generated feeders come from the benchmark's seeded generator (``feeders``)
sys.path.insert(0, str(FIXTURE_DIR.parent / "perfbench"))

# every bundled feeder that parses into a radial network
RADIAL_FIXTURES = [
    "two_bus",
    "four_bus",
    "sample10",
    "feeder3_unbalanced",
    "light_radial",
    "zero_load",
    "storage_two_period",
    "redirect_main",
]
ALL_FIXTURES = RADIAL_FIXTURES + ["meshed"]

# the lifted branch-flow form has no per-phase representation of delta
# loads, so the one fixture carrying them stays out of this roster
SOC_FIXTURES = [n for n in RADIAL_FIXTURES if n != "feeder3_unbalanced"]


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURE_DIR / f"{name}.dss"


_net_cache: dict[str, object] = {}
_pf_cache: dict[str, object] = {}


def load_network(name: str):
    if name not in _net_cache:
        _net_cache[name] = from_dss(parse_file(fixture_path(name)))
    return _net_cache[name]


def newton_solution(name: str):
    if name not in _pf_cache:
        sol = solve_newton(load_network(name))
        assert sol.converged, f"{name}: newton failed ({sol.message})"
        _pf_cache[name] = sol
    return _pf_cache[name]


def cone_membership_mismatches(model, point, n: int, seed: int, tol: float = 1e-12) -> int:
    """Sample perturbations of ``point`` and count disagreements on cone
    membership between each rotated cone and its plain-norm rewrite.

    A third of the samples keep the rank-tight base values (boundary
    points), the rest move the cone's own variables by generic Gaussian
    steps at mixed scales, which lands them clearly inside or outside.
    """
    import numpy as np

    from feederflow.mathir import RotatedSocCon, constraint_residual, rotated_soc_to_soc

    cones = [c for c in model.constraints if isinstance(c, RotatedSocCon)]
    if not cones:
        return 0
    rng = np.random.default_rng(seed)
    mismatches = 0
    for k in range(n):
        con = cones[int(rng.integers(0, len(cones)))]
        pt = dict(point)
        kind = k % 3
        if kind != 0:
            scale = 10.0 ** float(rng.uniform(-6, 0))
            names = set()
            for e in [con.x, con.y, *con.args]:
                names.update(e.coeffs)
            for nm in names:
                pt[nm] = pt.get(nm, 0.0) + float(rng.normal(scale=scale))
        r_rot = constraint_residual(con, pt)
        r_nrm = constraint_residual(rotated_soc_to_soc(con), pt)
        if (r_rot <= tol) != (r_nrm <= tol):
            mismatches += 1
    return mismatches


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURE_DIR


# delta legs drawing constant-impedance and constant-current parts: their
# |V|^2 products pair two conductors of one bus
DELTA_ZIP = """clear
new circuit.dz basekv=12.47 pu=1.0 phases=3 bus1=b1
new linecode.lc nphases=3 units=km
~ rmatrix=(0.12 | 0.04 0.12 | 0.04 0.04 0.12)
~ xmatrix=(0.28 | 0.09 0.28 | 0.09 0.09 0.28)
new line.l1 bus1=b1 bus2=b2 linecode=lc length=0.5 units=km
new load.d2 bus1=b2.1.2.3 phases=3 conn=delta kv=12.47 kw=70 kvar=20 model=2
new load.d5 bus1=b2.1.2.3 phases=3 conn=delta kv=12.47 kw=40 kvar=10 model=5
new load.dz bus1=b2.1.2.3 phases=3 conn=delta kv=12.47 kw=30 kvar=10
~ zip=(0.3 0.2 0.5)
set voltagebases=[12.47]
calcvoltagebases
solve
"""

# two transformers off one bus, wye-delta and delta-wye: the acr model stamps
# both couplings in turn
TWO_TRANSFORMERS = """clear
new circuit.tt basekv=12.47 pu=1.0 phases=3 bus1=b1
new transformer.t1 phases=3 windings=2 buses=[b1, b2] conns=[wye, delta] kvs=[12.47, 4.16] kvas=[500, 500]
new transformer.t2 phases=3 windings=2 buses=[b1, b3] conns=[delta, wye] kvs=[12.47, 4.16] kvas=[500, 500]
new load.d2 bus1=b2.1.2.3 phases=3 conn=delta kv=4.16 kw=70 kvar=20 model=2
new load.y5 bus1=b3 phases=3 conn=wye kv=4.16 kw=40 kvar=10 model=5
set voltagebases=[12.47, 4.16]
calcvoltagebases
solve
"""

# every acr row family a fixture leaves out: a switch (switch_voltage and
# switch_power), normamps (flow_limit), vminpu/vmaxpu (vmag bounds), line
# charging, a two-phase lateral, delta constant-current and ZIP loads, a
# reactor, delta and wye capacitors and a wye-delta transformer; bus names
# b1 and b10 order apart as names ("ure:b1:2" > "ure:b10:1") and as tuples
ACR_ELEMENTS = """clear
new circuit.ae basekv=12.47 pu=1.02 angle=15 phases=3 bus1=b1
new linecode.lc nphases=3 units=km
~ rmatrix=(0.12 | 0.04 0.12 | 0.04 0.04 0.12)
~ xmatrix=(0.28 | 0.09 0.28 | 0.09 0.09 0.28)
~ cmatrix=(9.5 | -2.8 9.8 | -2.6 -2.7 9.6)
new linecode.lc2 nphases=2 units=km
~ rmatrix=(0.25 | 0.06 0.25)
~ xmatrix=(0.48 | 0.17 0.47)
new line.l1 bus1=b1 bus2=b10 linecode=lc length=0.5 units=km normamps=400
new line.sw bus1=b10 bus2=b2 switch=yes normamps=300
new line.l2 bus1=b2.1.3 bus2=b3.1.3 linecode=lc2 length=0.4 units=km
new transformer.t1 phases=3 windings=2 buses=[b10, b4] conns=[wye, delta] kvs=[12.47, 4.16] kvas=[500, 500]
new load.d5 bus1=b2.1.2.3 phases=3 conn=delta kv=12.47 kw=40 kvar=10 model=5 vminpu=0.95 vmaxpu=1.05
new load.dz bus1=b2.1.2.3 phases=3 conn=delta kv=12.47 kw=30 kvar=10
~ zip=(0.3 0.2 0.5)
new load.y3 bus1=b3.1.3 phases=2 conn=wye kv=12.47 kw=20 kvar=5 model=2 vmaxpu=1.04
new load.d4 bus1=b4.1.2.3 phases=3 conn=delta kv=4.16 kw=60 kvar=20
new reactor.r1 bus1=b10 phases=3 kv=12.47 kvar=100
new capacitor.cd bus1=b2 phases=3 conn=delta kv=12.47 kvar=120
new capacitor.cy bus1=b3.1.3 phases=2 conn=wye kv=12.47 kvar=50
set voltagebases=[12.47, 4.16]
calcvoltagebases
solve
"""

# the unbalanced fixture without its delta load, so the lifted form takes it:
# line charging, a wye capacitor, a two-phase lateral and PV
FEEDER3_WYE = "".join(
    line for line in fixture_path("feeder3_unbalanced").read_text().splitlines(keepends=True)
    if not line.startswith("new load.dl1 ")
)

# a generator with quadratic and constant cost terms: acr prices it, the
# linear forms reject it
QUAD_COST = """clear
new circuit.qc basekv=12.47 pu=1.0 phases=3 bus1=b1
new linecode.lc nphases=3 units=km
~ rmatrix=(0.12 | 0.04 0.12 | 0.04 0.04 0.12)
~ xmatrix=(0.28 | 0.09 0.28 | 0.09 0.09 0.28)
new line.l1 bus1=b1 bus2=b2 linecode=lc length=0.5 units=km
new load.y2 bus1=b2 phases=3 conn=wye kv=12.47 kw=90 kvar=30 model=1
new generator.g1 bus1=b2 phases=3 kv=12.47 kw=60 kvar=10 cost=(0.02 5 1)
set voltagebases=[12.47]
calcvoltagebases
solve
"""

# linear costs with constant terms over four periods: the dispatch objective
# sums each period's constants before adding them to the total
CONST_COST = """clear
new circuit.pc basekv=12.47 pu=1.0 phases=3 bus1=src
~ cost=(0.0 8.0 1.1)
new linecode.span nphases=3 units=km
~ rmatrix=(0.09 | 0.03 0.09 | 0.03 0.03 0.09)
~ xmatrix=(0.21 | 0.065 0.21 | 0.065 0.065 0.21)
new line.feed bus1=src bus2=town linecode=span length=1.0 units=km
new load.town_ld bus1=town.1.2.3 phases=3 conn=wye kv=12.47 kw=300 kvar=75 model=1
new generator.g1 bus1=town phases=3 kv=12.47 kw=120 kvar=20 cost=(0 6 0.7)
new storage.batt bus1=town.1.2.3 phases=3 kwrated=200 kwhrated=400 kwhstored=100
~ %effcharge=95 %effdischarge=95
set voltagebases=[12.47]
solve
"""
CONST_COST_PERIODS = {
    "dt_hours": 0.25,
    "load_scale": [0.8, 1.0, 1.2, 0.9],
    "gen_scale": [1.0, 0.6, 0.3, 1.0],
    "cost_scale": [1.0, 2.5, 0.7, 1.3],
}
