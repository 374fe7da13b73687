#!/usr/bin/env python3
"""Multi-period storage dispatch study on the bundled arbitrage case.

Solves the linear voltage-magnitude OPF over a price spread, prints the
charge/discharge/energy schedule, and decomposes the objective by period
to show where the arbitrage value comes from.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from feederflow.dss import parse_file
from feederflow.formulations.lindistflow import (
    build_opf_lindistflow,
    complementarity_violation,
    storage_trajectories,
)
from feederflow.lp import solve_lp
from feederflow.network import from_dss
from feederflow.network.components import TimeSeries

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", default=str(FIXTURES / "storage_two_period.dss"))
    ap.add_argument("--periods", default=str(FIXTURES / "periods_two.json"))
    args = ap.parse_args()

    net = from_dss(parse_file(args.file))
    with open(args.periods) as f:
        periods = TimeSeries.from_json_dict(json.load(f))
    model = build_opf_lindistflow(net, periods=periods)
    res = solve_lp(model)
    if res.status != "optimal":
        print(f"solve failed: {res.status} ({res.message})")
        return 1

    print(f"{args.file}: {periods.n_periods} periods, dt={periods.dt_hours}h")
    print(f"  objective {res.objective:.6f}  (dual {res.dual_objective:.6f}, "
          f"{res.iterations} pivots)")
    print(f"  simultaneous charge/discharge: "
          f"{complementarity_violation(net, res.assignment, periods):.1e}")

    for sid, traj in storage_trajectories(net, res.assignment, periods).items():
        st = net.storages[sid]
        print(f"  storage {sid} (eta {st.eta_charge:.2f}/{st.eta_discharge:.2f}):")
        print("    t  price  charge    discharge  energy")
        for t in range(periods.n_periods):
            print(
                f"    {t}  {periods.cost_scale[t]:<6g}"
                f"{traj['charge'][t]:<10.4f}{traj['discharge'][t]:<11.4f}"
                f"{traj['energy'][t]:.4f}"
            )
        absorbed = sum(traj["charge"]) * periods.dt_hours
        returned = sum(traj["discharge"]) * periods.dt_hours
        if absorbed > 0:
            print(f"    round trip: absorbed {absorbed:.4f}, returned {returned:.4f}, "
                  f"loss {absorbed - returned:.4f} "
                  f"({100 * (absorbed - returned) / absorbed:.1f}%)")

    # per-period generation cost, using the price scales directly
    gen_ids = sorted(net.generators)
    for t in range(periods.n_periods):
        total = sum(
            res.assignment.get(f"pg:{g}:{p}:{t}", 0.0)
            for g in gen_ids
            for p in net.generators[g].phases
        )
        cost = sum(
            net.generators[g].cost[1] * periods.cost_scale[t]
            for g in gen_ids
        )
        print(f"  period {t}: generation {total:.4f} pu at marginal {cost:g} $/MWh")
    return 0


if __name__ == "__main__":
    sys.exit(main())
