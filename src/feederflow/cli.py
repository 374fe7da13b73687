"""Batch command-line front door.

Five subcommands cover the pipeline: ``parse`` (feeder file to data-model
JSON), ``pf`` (native power-flow solve), ``opf`` (linear dispatch via the
embedded simplex), ``export`` (write a formulation as math-model JSON), and
``compare`` (voltage-magnitude deltas between two solution files).

stdout carries only the primary artifact of each command; diagnostics go to
stderr, and ``--json`` adds a machine-readable run report there. Exit codes
are stable: 0 success, 2 input/parse error, 3 solve failure or infeasible,
4 unsupported formulation or topology, 5 comparison above tolerance.

A config file of ``key = value`` lines (``#`` comments allowed) can preset
any long flag; explicit command-line flags win over the file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from collections import Counter

from .dss import DssParseError, DssValueError, model_to_json_dict, parse_file
from .formulations import (
    FormulationError,
    build_opf_acr,
    build_opf_lindistflow,
    build_opf_socbfm,
    build_pf_ivr,
)
from .lp import LpError, solve_lp
from .mathir import KINDS, json_text, model_json_chunks
from .network import NetworkConversionError, from_dss
from .network.components import TimeSeries
from .pf import BfsOptions, NewtonOptions, delta_by_bus, solve_bfs, solve_newton

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVE = 3
EXIT_UNSUPPORTED = 4
EXIT_COMPARE = 5

_INPUT_ERRORS = (DssParseError, DssValueError, NetworkConversionError, OSError)


class _Report:
    """Run report accumulated across stages, emitted to stderr on exit."""

    def __init__(self, argv: list[str], enabled: bool):
        self.enabled = enabled
        self.data: dict = {
            "command": argv,
            "inputs": {},
            "timings_ms": {},
            "result": {},
        }
        self._t0 = time.perf_counter()
        self._stage_start = self._t0

    def add_input(self, path: str) -> None:
        try:
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
        except OSError:
            digest = None
        self.data["inputs"][path] = digest

    def stage(self, name: str) -> None:
        now = time.perf_counter()
        self.data["timings_ms"][name] = round((now - self._stage_start) * 1e3, 3)
        self._stage_start = now

    def result(self, **kv) -> None:
        self.data["result"].update(kv)

    def emit(self, exit_code: int) -> None:
        if not self.enabled:
            return
        self.data["timings_ms"]["total"] = round((time.perf_counter() - self._t0) * 1e3, 3)
        self.data["exit_code"] = exit_code
        json.dump(self.data, sys.stderr, sort_keys=True, default=str, allow_nan=False)
        sys.stderr.write("\n")


def _read_config(path: str) -> dict[str, str]:
    """key = value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            out[key.strip().lower().replace("-", "_")] = val.strip().strip("\"'")
    return out


def _write_artifact(text: str | list[str], out_path: str | None) -> None:
    """Write the artifact, whole or as a list of pieces written in turn."""
    pieces = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _load_network(args, report: _Report):
    report.add_input(args.file)
    model = parse_file(args.file)
    report.stage("parse")
    net = from_dss(model, sbase=args.sbase)
    report.stage("network")
    return net


def _json_text(payload: dict) -> str:
    return json_text(payload) + "\n"


# -- subcommands -----------------------------------------------------------


def cmd_parse(args, report: _Report) -> int:
    if args.to != "json":
        print(f"error: unsupported output format {args.to!r}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    report.add_input(args.file)
    model = parse_file(args.file)
    report.stage("parse")
    payload = model_to_json_dict(model)
    report.result(object_counts=model.class_counts())
    _write_artifact(_json_text(payload), args.out or None)
    report.stage("write")
    return EXIT_OK


def cmd_pf(args, report: _Report) -> int:
    if args.method not in ("newton", "bfs"):
        print(f"error: unknown method {args.method!r}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    net = _load_network(args, report)
    if args.method == "newton":
        sol = solve_newton(net, NewtonOptions(tolerance=args.tol, max_iterations=args.max_iter))
    else:
        sol = solve_bfs(net, BfsOptions(tolerance=args.tol, max_iterations=args.max_iter))
    report.stage("solve")
    payload = sol.to_json_dict(net)
    meta = payload["meta"]
    report.result(**{k: meta[k] for k in ("converged", "iterations", "max_residual", "method")})
    _write_artifact(_json_text(payload), args.out or None)
    report.stage("write")
    if not sol.converged:
        detail = f": {sol.message}" if sol.message else ""
        print(
            f"error: power flow did not converge in {sol.iterations} iterations "
            f"(max residual {sol.max_residual:.3e}){detail}",
            file=sys.stderr,
        )
        return EXIT_SOLVE
    return EXIT_OK


def cmd_opf(args, report: _Report) -> int:
    if args.form != "lindistflow":
        print(
            f"error: unsupported dispatch formulation {args.form!r}; the native "
            f"solver handles lindistflow only",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED
    net = _load_network(args, report)
    periods = None
    if args.periods:
        report.add_input(args.periods)
        with open(args.periods) as f:
            periods = TimeSeries.from_json_dict(json.load(f))
    from .formulations.lindistflow import complementarity_violation, storage_trajectories

    model = build_opf_lindistflow(net, periods=periods)
    report.stage("build")
    res = solve_lp(model)
    report.stage("solve")
    report.result(
        status=res.status,
        iterations=res.iterations,
        phase1_iterations=res.phase1_iterations,
        crash_rows=res.crash_rows,
        refactors=res.refactors,
        bland=res.bland,
    )

    if res.status == "optimal":
        traj = storage_trajectories(net, res.assignment, periods)
        comp = complementarity_violation(net, res.assignment, periods)
        payload = {
            "schema": "feederflow.dispatch.v1",
            "status": res.status,
            "objective": res.objective,
            "dual_objective": res.dual_objective,
            "iterations": res.iterations,
            "storage": traj,
            "complementarity_violation": comp,
            "assignment": res.assignment,
        }
        report.result(objective=res.objective, complementarity_violation=comp)
        _write_artifact(_json_text(payload), args.out or None)
        report.stage("write")
        return EXIT_OK

    payload = {
        "schema": "feederflow.dispatch.v1",
        "status": res.status,
        "iterations": res.iterations,
        "message": res.message,
    }
    if res.status == "infeasible" and res.farkas is not None:
        top = sorted(res.farkas.items(), key=lambda kv: -abs(kv[1]))[:10]
        payload["farkas_gap"] = res.farkas_gap
        payload["farkas_top_rows"] = [{"row": k, "multiplier": v} for k, v in top]
        print(
            f"error: dispatch infeasible; certificate gap {res.farkas_gap:.3e}, "
            f"dominant rows: {', '.join(k for k, _ in top[:3])}",
            file=sys.stderr,
        )
    else:
        print(f"error: dispatch solve ended with status {res.status!r}", file=sys.stderr)
    _write_artifact(_json_text(payload), args.out or None)
    report.stage("write")
    return EXIT_SOLVE


_BUILDERS = {
    "ivr": build_pf_ivr,
    "acr": build_opf_acr,
    "socbfm": build_opf_socbfm,
    "lindistflow": build_opf_lindistflow,
}


def cmd_export(args, report: _Report) -> int:
    if args.form not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        print(f"error: unknown formulation {args.form!r} (expected one of {known})", file=sys.stderr)
        return EXIT_UNSUPPORTED
    net = _load_network(args, report)
    model = _BUILDERS[args.form](net)
    report.stage("build")
    stats = model.stats()
    counts = {cls.__name__: stats[kind] for kind, cls in KINDS.items() if stats[kind]}
    rows = Counter(label.split(":", 1)[0] for label in model.labels)  # by label family
    report.result(variables=stats["variables"], constraints=counts, terms=stats["terms"], rows=rows)
    print(
        f"{args.form}: {stats['variables']} variables, "
        + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())),
        file=sys.stderr,
    )
    _write_artifact([*model_json_chunks(model), "\n"], args.out or None)
    report.stage("write")
    return EXIT_OK


def cmd_compare(args, report: _Report) -> int:
    report.add_input(args.sol_a)
    report.add_input(args.sol_b)
    from .pf.solution import load_solution_voltages

    with open(args.sol_a) as f:
        va = load_solution_voltages(json.load(f))
    with open(args.sol_b) as f:
        vb = load_solution_voltages(json.load(f))
    report.stage("load")
    floating = frozenset(b for b in args.floating.split(",") if b)
    try:
        per_bus = delta_by_bus(va, vb, floating)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    delta = max(per_bus.values(), default=0.0)
    worst = sorted(per_bus.items(), key=lambda kv: -kv[1])[:5]
    report.stage("compare")
    report.result(delta=delta, tol=args.tol)
    lines = [f"delta {delta:.6e} (tol {args.tol:.6e})"]
    for bus, d in worst:
        lines.append(f"  {bus}: {d:.6e}")
    _write_artifact("\n".join(lines) + "\n", args.out or None)
    return EXIT_OK if delta <= args.tol else EXIT_COMPARE


# -- argument plumbing -------------------------------------------------------


def _finite(text: str) -> float:
    """argparse type of every number flag: NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a run report to stderr as JSON")
    p.add_argument("--config", help="key = value file presetting any long flag")
    p.add_argument("--seed", type=int, default=0, help="ignored; nothing is randomized")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The front-door parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="feederflow",
        description="Parse, solve, export and compare unbalanced distribution feeder cases.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    out_help = "write the artifact to this path instead of stdout"
    sbase_help = "per-unit power base in VA (default 1e6)"

    p = sub.add_parser("parse", help="parse a feeder file and write the data model as JSON")
    p.add_argument("file")
    p.add_argument("--to", default="json", help="output format (json)")
    p.add_argument("--out", default="", help=out_help)
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("pf", help="solve power flow and write the solution as JSON")
    p.add_argument("file")
    p.add_argument("--tol", type=_finite, default=1e-10, help="convergence tolerance (default 1e-10)")
    p.add_argument(
        "--max-iter", type=int, default=50, dest="max_iter", help="iteration cap (default 50)"
    )
    p.add_argument(
        "--method", choices=["newton", "bfs"], default="newton", help="solver (default newton)"
    )
    p.add_argument("--out", default="", help=out_help)
    p.add_argument("--sbase", type=_finite, default=1.0e6, help=sbase_help)
    _add_common(p)
    p.set_defaults(func=cmd_pf)

    p = sub.add_parser("opf", help="solve a linear dispatch problem")
    p.add_argument("file")
    p.add_argument("--form", default="lindistflow", help="dispatch formulation (lindistflow)")
    p.add_argument("--periods", default="", help="JSON time series file for multi-period dispatch")
    p.add_argument("--out", default="", help=out_help)
    p.add_argument("--sbase", type=_finite, default=1.0e6, help=sbase_help)
    _add_common(p)
    p.set_defaults(func=cmd_opf)

    p = sub.add_parser("export", help="write a formulation as math-model JSON")
    p.add_argument("file")
    p.add_argument("--form", default="", help="one of ivr, acr, socbfm, lindistflow")
    p.add_argument("--out", default="", help=out_help)
    p.add_argument("--sbase", type=_finite, default=1.0e6, help=sbase_help)
    _add_common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("compare", help="compare two solution files by voltage magnitude")
    p.add_argument("sol_a")
    p.add_argument("sol_b")
    p.add_argument(
        "--floating", default="", help="comma-separated buses compared by phase-to-phase magnitude"
    )
    p.add_argument(
        "--tol", type=_finite, default=1e-6, help="acceptance threshold on delta (default 1e-6)"
    )
    p.add_argument("--out", default="", help="write the report to this path instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    return parser, sub.choices


# namespace entries a config file may not preset: flags without a value and plumbing
_NOT_PRESET = frozenset({"json", "seed", "config", "func"})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    report = _Report(argv, enabled=args.json)
    code = EXIT_OK
    try:
        if args.config:
            # config values become the subcommand's defaults, so an explicit
            # flag still wins and argparse converts (or rejects) each value
            command = commands[args.subcommand]
            command.set_defaults(**{
                key: value
                for key, value in _read_config(args.config).items()
                if key not in _NOT_PRESET and command.get_default(key) is not None
            })
            args = parser.parse_args(argv)
        code = args.func(args, report)
    except FormulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_UNSUPPORTED
    except LpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_UNSUPPORTED
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    report.result(exit_code=code)
    report.emit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
