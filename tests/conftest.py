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
                names |= e.variables()
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
