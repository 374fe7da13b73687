"""Characterization of every traversal of the feeder graph.

``tests/golden/graph_walks.json`` holds what the per-module hand-written
walks produced before they were replaced by ``components.walk``: cycles,
ungrounded buses, energized scope, validation messages, propagated voltage
bases and the sweep's tree order, on every fixture, on generated feeders
and on hand-built networks with parallel lines, a self-loop, a
de-energized island, two slack buses in one island, a delta-delta island
and an edge to an undeclared bus. The walks must reproduce it exactly:
visit order fixes the summation order in the sweep and the buses named in
error messages.
"""
import json
import random

import numpy as np
import pytest

from feederflow.dss import build_data_model, parse_file, tokenize
from feederflow.formulations.common import NetworkScope
from feederflow.network import Branch, find_cycle, from_dss, ungrounded_buses, validate
from feederflow.pf.bfs import _build_tree

from conftest import FIXTURE_DIR
from feeders import FeederSpec, feeder_dss

GOLDEN = FIXTURE_DIR.parent / "tests" / "golden" / "graph_walks.json"

HEAD = """
new circuit.h basekv=12.47 pu=1.0 phases=3 bus1=a
new linecode.lc nphases=3 units=none
~ rmatrix=(0.09 | 0.03 0.09 | 0.03 0.03 0.09)
~ xmatrix=(0.2 | 0.06 0.2 | 0.06 0.06 0.2)
"""

HAND_DSS = {
    "parallel": """
new line.l1 bus1=a bus2=b linecode=lc length=1
new line.l2 bus1=a bus2=b linecode=lc length=2
new line.l3 bus1=b bus2=c linecode=lc length=1
new load.d bus1=c phases=3 conn=wye kv=12.47 kw=90 kvar=30
""",
    "self_loop": """
new line.l1 bus1=a bus2=b linecode=lc length=1
new line.lb bus1=b bus2=b linecode=lc length=1
new load.d bus1=b phases=3 conn=wye kv=12.47 kw=90 kvar=30
""",
    "island": """
new line.l1 bus1=a bus2=b linecode=lc length=1
new line.open bus1=b bus2=c linecode=lc length=1 enabled=false
new line.l3 bus1=c bus2=d linecode=lc length=1
new load.e bus1=b phases=3 conn=wye kv=12.47 kw=30 kvar=10
""",
    "delta_delta": """
new line.l1 bus1=a bus2=b linecode=lc length=1
new transformer.dd phases=3 windings=2 buses=[x, b] conns=[delta, delta]
~ kvs=[4.16, 12.47] kvas=[500, 500] xhl=5 %rs=[0.5, 0.5]
new line.l2 bus1=x bus2=y linecode=lc length=1
new load.dy bus1=y phases=3 conn=delta kv=4.16 kw=60 kvar=20
new transformer.wd phases=3 windings=2 buses=[b, z] conns=[wye, delta]
~ kvs=[12.47, 0.48] kvas=[300, 300] xhl=4
new load.dz bus1=z phases=3 conn=delta kv=0.48 kw=20 kvar=5
""",
}


def _hand_network(name: str):
    if name in HAND_DSS:
        return from_dss(build_data_model(tokenize(HEAD + HAND_DSS[name])))
    net = from_dss(build_data_model(tokenize(HEAD + HAND_DSS["island"])))
    if name == "two_slack":
        net.buses["b"].bus_type = "slack"
    elif name == "undeclared":
        net.branches["ghost"] = Branch("ghost", "b", "nowhere", (1, 2, 3), z=np.eye(3))
    return net


def _generated(seed: int, storages: int) -> str:
    return feeder_dss(
        random.Random(seed),
        FeederSpec(trunk=14, laterals=6, kw_per_bus=(10.0, 40.0), storages=storages),
        f"g{seed}",
    )


def _network(case: str):
    kind, _, name = case.partition(":")
    if kind == "fixture":
        return from_dss(parse_file(FIXTURE_DIR / f"{name}.dss"))
    if kind == "generated":
        seed, storages = (int(v) for v in name.split("/"))
        return from_dss(build_data_model(tokenize(_generated(seed, storages))))
    return _hand_network(name)


CASES = (
    [f"fixture:{p.stem}" for p in sorted(FIXTURE_DIR.glob("*.dss"))]
    + ["generated:3/0", "generated:11/2"]
    + [f"hand:{n}" for n in (*HAND_DSS, "two_slack", "undeclared")]
)


def _outcome(fn, *args):
    try:
        return {"value": fn(*args)}
    except Exception as exc:  # the error text is part of what is pinned
        text = str(exc).replace(str(FIXTURE_DIR), "fixtures")
        return {"error": f"{type(exc).__name__}: {text}"}


def _scope(net) -> dict:
    scope = NetworkScope(net)
    return {"bus_ids": scope.bus_ids, "dropped_buses": scope.dropped_buses}


def _tree(net) -> dict:
    roots, children, order = _build_tree(NetworkScope(net))
    return {
        "roots": roots,
        "order": order,
        "children": {
            bus: [[e.child, e.kind, e.obj.id, e.f_is_parent] for e in edges]
            for bus, edges in children.items()
        },
    }


def observe(case: str) -> dict:
    """Everything the graph walks decide about one network."""
    made = _outcome(_network, case)
    if "error" in made:
        return {"network": made["error"]}
    net = made["value"]
    return {
        "vbase": {b.id: b.vbase for b in net.buses.values()},
        "find_cycle": _outcome(find_cycle, net),
        "ungrounded_buses": _outcome(ungrounded_buses, net),
        "validate": _outcome(lambda n: [str(d) for d in validate(n)], net),
        "scope": _outcome(_scope, net),
        "sweep_tree": _outcome(_tree, net),
    }


_golden = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_walks_match_recorded(case):
    assert observe(case) == _golden[case]


if __name__ == "__main__":
    # rewrites the recording from the code under test; only for a change
    # that means to alter what the walks decide
    GOLDEN.write_text(json.dumps({c: observe(c) for c in CASES}, indent=1, sort_keys=True) + "\n")
