#!/usr/bin/env python3
"""feederflow benchmark: seeded synthetic feeders through the CLI front door.

    python3 perfbench/run.py --workload pf-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root. An op is one in-process
``feederflow.cli.main([..., "--out", artifact])`` call on a generated feeder
that no other op of the run has seen. Ops run as a closed loop with one
client: each starts after the previous one completes, until the ops'
summed wall time reaches ``--seconds``. Every artifact is then checked
against an independent oracle; a failed op counts in ``failed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, plus the tracing overhead. The last stdout line is the result object;
the line before it holds the run context. ``--workload all`` runs each
workload in its own process and prints a table.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by the set-up
# launches. With two threads on a shared 2-vCPU machine, a dense solve can
# wait on a vCPU the host is holding up; in one recording 20-bus ops took
# ~500 ms instead of ~30 ms for 40 s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import BOUNDARIES, Tracer, median_or_zero, model_counts  # noqa: E402
from workloads import WORKLOADS, Oracle, write_inputs  # noqa: E402

SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_LAUNCHES = 7
REPLACE_SECONDS = 2.0
# The first ops of a process pay one-off costs (lazy imports, first use of
# each code path); warm up on up to WARMUP_OPS ops, but stop once
# WARMUP_SECONDS have gone, so large ops warm up on one.
WARMUP_OPS = 3
WARMUP_SECONDS = 2.0
TAIL_BEYOND = 10
CLI_ENTRY = "import sys; from feederflow.cli import main; sys.exit(main())"

E2E_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (unit, span names it is derived from)
LAYER_METRICS = {
    "cli.self_ms": ("ms", ["cli"]),
    "cli.artifact_bytes": ("bytes", []),
    "dss.parse_ms": ("ms", ["dss.parse"]),
    "network.from_dss_ms": ("ms", ["network.from_dss"]),
    "formulations.build_ms": ("ms", ["formulations.build"]),
    "formulations.variables": ("count", ["formulations.build"]),
    "formulations.constraints": ("count", ["formulations.build"]),
    "formulations.terms": ("count", ["formulations.build"]),
    "mathir.to_json_ms": ("ms", ["mathir.to_json"]),
    "pf.newton.self_ms": ("ms", ["pf.newton"]),
    "pf.newton.compile_ms": ("ms", ["pf.newton.compile"]),
    "pf.newton.jacobian_ms": ("ms", ["pf.newton.jacobian"]),
    "pf.newton.residual_ms": ("ms", ["pf.newton.residual"]),
    "pf.newton.iterations": ("count", ["pf.newton"]),
    "pf.newton.residual_evals": ("count", ["pf.newton.residual"]),
    "pf.newton.ms_per_iter": ("ms", ["pf.newton", "pf.newton.jacobian", "pf.newton.residual"]),
    "pf.solution.to_json_ms": ("ms", ["pf.solution.to_json"]),
    "pf.bfs.solve_ms": ("ms", ["pf.bfs"]),
    "pf.bfs.sweeps": ("count", ["pf.bfs"]),
    "lp.lift_ms": ("ms", ["lp.lift"]),
    "lp.self_ms": ("ms", ["lp"]),
    "lp.rows": ("count", ["lp.lift"]),
    "lp.nnz": ("count", ["lp.lift"]),
    "lp.iterations": ("count", ["lp"]),
    "lp.iters_per_row": ("ratio", ["lp", "lp.lift"]),
    "lp.ms_per_iter": ("ms", ["lp"]),
    "trace.overhead_pct": ("%", []),
}


def import_program():
    """Import feederflow from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import feederflow.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import feederflow from {SRC}: {exc}")
    if SRC not in Path(feederflow.cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: feederflow was imported from outside {SRC}")
    return feederflow.cli


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _probe_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class CpuPlacer:
    """Keeps the benchmark process on the allowed CPU that currently runs a
    fixed Python loop fastest, checked again at most every REPLACE_SECONDS.

    On a shared VM each vCPU switches between a fast and a slow state (the
    same op takes ~1.7x as long, in CPU time as in wall time) for tens of
    seconds at a time, often one vCPU fast while the other is slow. A run
    left on one vCPU reports whichever state it met. Placement happens
    between ops and before each set-up launch, never inside op timing.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.due = 0.0

    def place(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() < self.due:
            return
        probes = {c: [] for c in self.cpus}
        for _ in range(3):
            for c in self.cpus:
                os.sched_setaffinity(0, {c})
                probes[c].append(_probe_loop())
        os.sched_setaffinity(0, {min(self.cpus, key=lambda c: statistics.median(probes[c]))})
        self.due = time.perf_counter() + REPLACE_SECONDS


def measure_setup(wl, workdir: Path, placer: CpuPlacer) -> float:
    """Median wall time of fresh ``feederflow`` processes on a tiny fixture."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(SETUP_LAUNCHES):
        placer.place()  # a launch inherits the CPU affinity
        cmd = [sys.executable, "-c", CLI_ENTRY, *wl.setup_argv, "--out", str(workdir / f"setup{i}.out")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up launch {cmd[3:]} exited {proc.returncode}: "
                             f"{proc.stderr.strip()}")
    return statistics.median(times)


@dataclass
class Op:
    index: int
    seconds: float
    traced: bool
    error: str | None = None
    artifact_bytes: int = 0
    sizes: dict = field(default_factory=dict)


def run_op(cli, argv: list[str], tracer=None) -> tuple[float, str | None]:
    """One CLI call; returns its wall time and an error message or None."""
    captured = io.StringIO()
    error = None
    with contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        span = tracer.begin("cli") if tracer is not None else None
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                tracer.end(span)
        elapsed = time.perf_counter() - t0
    if code != 0:
        error = f"exit {code}: {captured.getvalue().strip()[-300:]}"
    return elapsed, error


def tail_latency(times_ms: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it.

    Runs with fewer than 2 * TAIL_BEYOND ops report the median instead,
    with the number of ops beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return ordered[k], 100.0 * (k + 1) / n, n - k - 1
    return statistics.median(ordered), 50.0, n // 2


def layer_metrics(tracer, ops: list[Op]) -> tuple[dict[str, float], dict[str, float]]:
    st = tracer.self_times()
    traced = [op.index for op in ops if op.traced]

    def ms(name: str) -> float:
        return median_or_zero(st[k].get(name, 0.0) for k in traced)

    def count(key: str) -> float:
        return median_or_zero(tracer.counts[k].get(key, 0.0) for k in traced)

    def ratio(num, key: str) -> float:
        return median_or_zero(num(k) / tracer.counts[k][key]
                              for k in traced if tracer.counts[k].get(key))

    iter_ms = lambda k: sum(st[k].get(n, 0.0) for n in ("pf.newton", "pf.newton.jacobian",
                                                        "pf.newton.residual"))
    untraced_ms = [op.seconds * 1e3 for op in ops if not op.traced]
    traced_ms = [op.seconds * 1e3 for op in ops if op.traced]
    overhead = 0.0
    if untraced_ms and traced_ms:
        base = statistics.median(untraced_ms)
        overhead = 100.0 * (statistics.median(traced_ms) - base) / base

    values = {
        "cli.self_ms": ms("cli"),
        "cli.artifact_bytes": median_or_zero(op.artifact_bytes for op in ops),
        "dss.parse_ms": ms("dss.parse"),
        "network.from_dss_ms": ms("network.from_dss"),
        "formulations.build_ms": ms("formulations.build"),
        "formulations.variables": count("formulations.variables"),
        "formulations.constraints": count("formulations.constraints"),
        "formulations.terms": count("formulations.terms"),
        "mathir.to_json_ms": ms("mathir.to_json"),
        "pf.newton.self_ms": ms("pf.newton"),
        "pf.newton.compile_ms": ms("pf.newton.compile"),
        "pf.newton.jacobian_ms": ms("pf.newton.jacobian"),
        "pf.newton.residual_ms": ms("pf.newton.residual"),
        "pf.newton.iterations": count("pf.newton.iterations"),
        "pf.newton.residual_evals": count("pf.newton.residual_evals"),
        "pf.newton.ms_per_iter": ratio(iter_ms, "pf.newton.iterations"),
        "pf.solution.to_json_ms": ms("pf.solution.to_json"),
        # the sweep runs in every op's check, traced op or not
        "pf.bfs.solve_ms": median_or_zero(st[op.index]["pf.bfs"] for op in ops
                                          if "pf.bfs" in st[op.index]),
        "pf.bfs.sweeps": median_or_zero(tracer.counts[op.index]["pf.bfs.sweeps"] for op in ops
                                        if "pf.bfs.sweeps" in tracer.counts[op.index]),
        "lp.lift_ms": ms("lp.lift"),
        "lp.self_ms": ms("lp"),
        "lp.rows": count("lp.rows"),
        "lp.nnz": count("lp.nnz"),
        "lp.iterations": count("lp.iterations"),
        "lp.iters_per_row": ratio(lambda k: tracer.counts[k].get("lp.iterations", 0.0), "lp.rows"),
        "lp.ms_per_iter": ratio(lambda k: st[k].get("lp", 0.0), "lp.iterations"),
        "trace.overhead_pct": overhead,
    }
    traced_p50 = statistics.median(traced_ms) if traced_ms else 0.0
    shares = {name: v / traced_p50 for name, v in values.items()
              if name.endswith("_ms") and name != "pf.bfs.solve_ms" and traced_p50 > 0}
    return values, shares


def run_workload(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    cli = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        placer = CpuPlacer()
        setup_s = measure_setup(wl, workdir, placer)
        warmup = 0
        warmup_s = 0.0
        while warmup < WARMUP_OPS and warmup_s < WARMUP_SECONDS:
            warmup += 1
            placer.place()
            warmup_s += run_op(cli, write_inputs(wl, seed, -warmup, workdir).argv(wl))[0]

        tracer = Tracer() if trace else None
        ops: list[Op] = []
        files = []
        busy = 0.0
        while busy < seconds:
            k = len(ops)
            f = write_inputs(wl, seed, k, workdir)
            placer.place()
            traced = trace and k % 2 == 1
            if traced:
                tracer.op = k
                tracer.install()
            try:
                elapsed, error = run_op(cli, f.argv(wl), tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                for model in tracer.models.pop(k, []):
                    for key, value in model_counts(model).items():
                        tracer.count(key, value)
            ops.append(Op(k, elapsed, traced, error))
            files.append(f)
            busy += elapsed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        oracle = Oracle(tracer)
        for op, f in zip(ops, files):
            if tracer is not None:
                tracer.op = op.index
            if f.artifact.exists():
                op.artifact_bytes = f.artifact.stat().st_size
            if op.error is None:
                try:
                    op.sizes = wl.check(f, oracle)
                except Exception as exc:  # any check that cannot pass fails the op
                    op.error = f"check: {type(exc).__name__}: {exc}"
            for path in (f.feeder, f.periods, f.artifact):
                if path is not None and path.exists():
                    path.unlink()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op.error is not None]
    times_ms = [op.seconds * 1e3 for op in ops if not op.traced]
    tail, tail_pct, beyond = tail_latency(times_ms)
    sizes = {key: median_or_zero(op.sizes[key] for op in ops if key in op.sizes)
             for key in sorted({k for op in ops for k in op.sizes})}
    context = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "input_median": sizes,
        "ops": len(ops),
        "warmup_ops": warmup,
        "timed_ops": len(times_ms),
        "op_ms_tail_percentile": round(tail_pct, 2),
        "op_ms_tail_ops_beyond": beyond,
        "error_rate": len(failed) / len(ops),
        "failures": [f"op {op.index}: {op.error}" for op in failed[:5]],
    }
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed)}
    if trace:
        values, shares = layer_metrics(tracer, ops)
        absent = _span_names(tracer.absent)
        context["absent_boundaries"] = tracer.absent
        context["absent_metrics"] = sorted(
            m for m, (_, spans) in LAYER_METRICS.items() if absent.intersection(spans)
        )
        context["layer_share_of_op"] = {k: round(v, 4) for k, v in shares.items()}
        span_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write(span_file)
        context["span_file"] = str(span_file.relative_to(ROOT))
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values = {
            "op_ms_p50": statistics.median(times_ms),
            "op_ms_tail": tail,
            "ops_per_s": len(ops) / busy,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in E2E_UNITS.items()}
    return context, result


def _span_names(absent: list[str]) -> set[str]:
    return {span for module, path, span in BOUNDARIES if f"{module}:{path}" in absent}


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    print(f"{'workload':<18} {'metric':<26} {'value':>14}  unit")
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<18} failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            ok = False
            continue
        context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:<18} {metric:<26} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<18} {'error_rate':<26} {context['error_rate']:>14.6g}  ratio")
        if not args.trace:
            print(f"{name:<18} {'(tail percentile)':<26} {context['op_ms_tail_percentile']:>14.6g}"
                  f"  p, {context['timed_ops']} ops")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    context, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
