"""Spans around calls into feederflow's layers, recorded from outside.

The benchmark's traced run patches the public call boundaries of each layer
with thin wrappers for the length of one op, then restores them. Each span
records its name, start, end, parent span and op id; spans stay in memory
and are written out once, at exit. A layer's self time is its span's
duration minus the durations of its direct children (spans nest strictly,
since ops run on one thread).

A boundary that no longer exists (renamed or deleted by a later change) is
reported as absent; its metrics read 0 and are listed in the run context.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute path, span name). An attribute path is dotted through
# class attributes; ``name[key]`` selects a dict entry. ``feederflow.cli``
# holds direct references to its callees (``_BUILDERS`` included), so the
# boundaries it crosses are patched there.
BOUNDARIES = [
    ("feederflow.cli", "parse_file", "dss.parse"),
    ("feederflow.cli", "from_dss", "network.from_dss"),
    ("feederflow.cli", "build_opf_lindistflow", "formulations.build"),
    ("feederflow.cli", "_BUILDERS[socbfm]", "formulations.build"),
    ("feederflow.cli", "_BUILDERS[lindistflow]", "formulations.build"),
    ("feederflow.cli", "mathmodel_to_json_dict", "mathir.to_json"),
    ("feederflow.cli", "solve_newton", "pf.newton"),
    ("feederflow.pf.newton", "build_pf_ivr", "formulations.build"),
    ("feederflow.pf.newton", "CompiledSystem.__init__", "pf.newton.compile"),
    ("feederflow.pf.newton", "CompiledSystem.jacobian", "pf.newton.jacobian"),
    ("feederflow.pf.newton", "CompiledSystem.residual", "pf.newton.residual"),
    ("feederflow.pf.solution", "PfSolution.to_json_dict", "pf.solution.to_json"),
    ("feederflow.cli", "solve_lp", "lp"),
    ("feederflow.lp", "problem_from_model", "lp.lift"),
]

# What a span records from its call's return value. A built model is only
# kept here and measured after the op, so counting its terms does not land
# in the self time of the span that called the builder.
_AFTER = {
    "formulations.build": lambda t, model: t.models[t.op].append(model),
    "pf.newton": lambda t, sol: t.count("pf.newton.iterations", sol.iterations),
    "pf.newton.residual": lambda t, _: t.count("pf.newton.residual_evals"),
    "lp": lambda t, res: t.count("lp.iterations", res.iterations),
    "lp.lift": lambda t, prob: (t.count("lp.rows", prob.n_rows),
                                t.count("lp.nnz", len(prob.a_vals))),
}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class _Patch:
    owner: object
    key: str
    original: object
    is_item: bool


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, dict[str, float]] = field(default_factory=lambda: defaultdict(dict))
    models: dict[int, list] = field(default_factory=lambda: defaultdict(list))
    absent: list[str] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _patches: list[_Patch] = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter)

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter() - self._t0))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter() - self._t0
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        bucket = self.counts[self.op]
        bucket[key] = bucket.get(key, 0.0) + value

    def _wrap(self, fn, name: str):
        tracer = self
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary that exists; record the rest as absent."""
        for module_name, path, span in BOUNDARIES:
            target = f"{module_name}:{path}"
            try:
                owner, key, is_item, original = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError, TypeError):
                if target not in self.absent:
                    self.absent.append(target)
                continue
            wrapped = self._wrap(original, span)
            if is_item:
                owner[key] = wrapped
            else:
                setattr(owner, key, wrapped)
            self._patches.append(_Patch(owner, key, original, is_item))

    def uninstall(self) -> None:
        for p in reversed(self._patches):
            if p.is_item:
                p.owner[p.key] = p.original
            else:
                setattr(p.owner, p.key, p.original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the summed self time in ms of each span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            out[s.op][s.name] += (s.end - s.start - child_time[i]) * 1e3
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "op": s.op, "name": s.name, "parent": s.parent,
                       "start": round(s.start, 9), "end": round(s.end, 9)}
                f.write(json.dumps(rec) + "\n")


def _resolve(module_name: str, path: str):
    """Owner, key, whether it is a dict entry, and the current value of a
    boundary; raises when the boundary no longer exists."""
    owner = importlib.import_module(module_name)
    *parents, last = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if last.endswith("]"):
        attr, _, key = last[:-1].partition("[")
        table = getattr(owner, attr)
        return table, key, True, table[key]
    return owner, last, False, getattr(owner, last)


def model_counts(model) -> dict[str, float]:
    """Variables, constraints and coefficient entries of a math model."""
    from feederflow.mathir import LinearCon, QuadCon, RotatedSocCon, SocCon

    terms = 0
    for con in model.constraints:
        if isinstance(con, LinearCon):
            terms += len(con.expr.coeffs)
        elif isinstance(con, QuadCon):
            terms += len(con.expr.lin) + len(con.expr.quad)
        elif isinstance(con, SocCon):
            terms += len(con.bound.coeffs) + sum(len(a.coeffs) for a in con.norm_args)
        elif isinstance(con, RotatedSocCon):
            terms += len(con.x.coeffs) + len(con.y.coeffs) + sum(len(a.coeffs) for a in con.args)
    return {
        "formulations.variables": len(model.variables),
        "formulations.constraints": len(model.constraints),
        "formulations.terms": terms,
    }


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
