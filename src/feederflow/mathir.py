"""Solver-agnostic math programs: variables, affine and quadratic
expressions, conic constraints, residual evaluation and the math-model
artifact.

Every formulation stamps its columns, rows and cost into a
:class:`RowBuilder`, and the finished builder is the :class:`MathModel`, kept
as it is beside its joined column names and row labels;
:func:`model_from_json_dict` stamps a document into a builder too. Every
reader reads the builder's column-keyed rows: :func:`model_json_chunks`
writes the one artifact encoding of :func:`json_text` from them, and
:meth:`RowBuilder.arrays` is the one array layout, which Newton reads from
its stamps and the simplex from the model. Name-keyed constraint objects are
only a view, built on each access for residual checks. Exact power flow uses
only equality constraints (linear and quadratic); the conic relaxation adds
rotated second-order cones; the linear approximation is pure LP. Labels
follow the ``family:component:phase`` convention so residual reports can be
grouped.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Mapping

import numpy as np

SCHEMA_MATHMODEL = "feederflow-mathmodel/1"
SCHEMA_SOLUTION = "feederflow-solution/1"

INF = float("inf")


def vn(*parts) -> str:
    """Join name parts into a variable or label identifier; ``None`` parts
    (the snapshot's period) are left out."""
    return ":".join([str(p) for p in parts if p is not None])


def add_to(terms: dict, key, coef: float) -> None:
    """``terms[key] += coef``, as every row sums a term: a zero
    ``coef`` adds nothing and a sum of exactly zero drops ``key``."""
    if coef != 0.0:
        coef = terms.get(key, 0.0) + coef
        if coef == 0.0:
            del terms[key]
        else:
            terms[key] = coef


@dataclass
class LinExpr:
    """Affine expression sum(coeffs[v] * x_v) + const."""

    coeffs: dict[str, float] = field(default_factory=dict)
    const: float = 0.0

    def value(self, x: Mapping[str, float]) -> float:
        return self.const + sum(c * x[v] for v, c in self.coeffs.items())


@dataclass
class QuadExpr:
    """Quadratic expression sum(quad[p,q] * x_p * x_q) + linear part.

    Keys of ``quad`` are pairs in name order; a key (v, v) holds the x_v^2
    coefficient.
    """

    quad: dict[tuple[str, str], float] = field(default_factory=dict)
    lin: dict[str, float] = field(default_factory=dict)
    const: float = 0.0

    def value(self, x: Mapping[str, float]) -> float:
        total = self.const
        for (a, b), c in self.quad.items():
            total += c * x[a] * x[b]
        for v, c in self.lin.items():
            total += c * x[v]
        return total


EQ = "=="
LE = "<="
GE = ">="


@dataclass
class LinearCon:
    """Affine constraint expr (==|<=|>=) 0."""

    label: str
    expr: LinExpr
    sense: str = EQ


@dataclass
class QuadCon:
    """Quadratic constraint expr (==|<=|>=) 0."""

    label: str
    expr: QuadExpr
    sense: str = EQ


@dataclass
class SocCon:
    """Second-order cone: || [a_1(x), ..., a_k(x)] ||_2 <= bound(x). No model
    holds one; :func:`rotated_soc_to_soc` writes it to check a rotated cone."""

    label: str
    norm_args: list[LinExpr]
    bound: LinExpr


@dataclass
class RotatedSocCon:
    """Rotated cone: sum_i a_i(x)^2 <= x(x) * y(x), with x >= 0, y >= 0."""

    label: str
    x: LinExpr
    y: LinExpr
    args: list[LinExpr]


Constraint = LinearCon | QuadCon | RotatedSocCon

# The kinds of row, by the class the :attr:`MathModel.constraints` view gives each.
KINDS = {"linear": LinearCon, "quadratic": QuadCon, "rotated_soc": RotatedSocCon}


@dataclass
class Variable:
    name: str
    lb: float = -INF
    ub: float = INF
    start: float = 0.0


class MathModel:
    """A math program: a finished :class:`RowBuilder`, kept as it is, with
    its column names and row labels each joined once. Its objective, if
    any, is minimized. :func:`model_json_chunks`, :meth:`stats` and the LP
    lift read the builder's column-keyed rows; :attr:`variables`,
    :attr:`constraints` and :attr:`objective` are name-keyed views built on
    each access, for residual checks. A duplicate column name raises
    ``ValueError``."""

    def __init__(self, name: str, rows: RowBuilder):
        self.name, self.rows, self.meta = name, rows, rows.meta
        self.names = [vn(*parts) for parts in rows.var_parts]
        self.labels = [vn(*parts) for parts in rows.row_parts]
        if len(set(self.names)) < len(self.names):
            seen: set[str] = set()
            dup = next(n for n in self.names if n in seen or seen.add(n))
            raise ValueError(f"variable {dup!r} already declared")

    def kind(self, i: int) -> str:
        """Row ``i``'s key in :data:`KINDS`: a cone, a row with products, or linear."""
        rows = self.rows
        return "rotated_soc" if i in rows.cones else "quadratic" if rows.quad.get(i) else "linear"

    def stats(self) -> dict[str, int]:
        """Variables, constraints (also by kind) and coefficient entries."""
        rows, kinds, terms = self.rows, dict.fromkeys(KINDS, 0), 0
        for i, lin in enumerate(rows.lin):
            kind = self.kind(i)
            kinds[kind] += 1
            if kind == "rotated_soc":
                x, y, args = rows.cones[i]
                terms += sum(len(part[0]) for part in (x, y, *args))
            else:
                terms += len(lin) + len(rows.quad.get(i, ()))
        return {"variables": len(self.names), "constraints": len(self.labels), **kinds, "terms": terms}

    def _expr(self, lin: dict, const: float, pairs: dict | None = None) -> LinExpr | QuadExpr:
        """Terms keyed by names: a :class:`QuadExpr` given product ``pairs``."""
        names = self.names
        terms = {names[j]: c for j, c in lin.items()}
        if pairs is None:
            return LinExpr(terms, const)
        return QuadExpr({(names[a], names[b]): c for (a, b), c in pairs.items()}, terms, const)

    @property
    def variables(self) -> dict[str, Variable]:
        rows = self.rows
        return {n: Variable(n, *v) for n, *v in zip(self.names, rows.lb, rows.ub, rows.start)}

    @property
    def objective(self) -> QuadExpr | None:
        if self.rows.objective is None:
            return None
        lin, pairs, const = self.rows.objective
        return self._expr(lin, const, pairs)

    @property
    def constraints(self) -> list[Constraint]:
        rows, expr, out = self.rows, self._expr, []
        for i, label in enumerate(self.labels):
            kind, lin, const, sense = self.kind(i), rows.lin[i], rows.const[i], rows.sense[i]
            if kind == "rotated_soc":
                x, y, args = rows.cones[i]
                out.append(RotatedSocCon(label, expr(*x), expr(*y), [expr(*a) for a in args]))
            elif kind == "quadratic":
                out.append(QuadCon(label, expr(lin, const, rows.quad[i]), sense))
            else:
                out.append(LinearCon(label, expr(lin, const), sense))
        return out


def rotated_soc_to_soc(con: RotatedSocCon) -> SocCon:
    """Rewrite a rotated cone as a plain second-order cone.

    sum a_i^2 <= x*y with x,y >= 0 holds exactly when
    || [2*a_1, ..., 2*a_k, x - y] || <= x + y; the norm form also implies
    both x and y are nonnegative, so no extra sign constraints are needed.
    """

    def x_plus(sign: float) -> LinExpr:
        terms = dict(con.x.coeffs)
        for v, c in con.y.coeffs.items():
            add_to(terms, v, sign * c)
        return LinExpr(terms, con.x.const + sign * con.y.const)

    args = [LinExpr({v: c * 2.0 for v, c in a.coeffs.items()}, a.const * 2.0) for a in con.args]
    return SocCon(con.label, [*args, x_plus(-1.0)], x_plus(1.0))


# -- residual evaluation ------------------------------------------------


def _violation(*gaps: float) -> float:
    """The largest gap above 0; a gap that is not finite (a NaN or infinite
    point) counts as an infinite violation."""
    return max(0.0, *gaps) if math.isfinite(sum(gaps)) else INF


def constraint_residual(con: Constraint | SocCon, x: Mapping[str, float]) -> float:
    """Violation of one constraint at a point. Equalities report the
    absolute residual; inequalities and cones report max(0, violation)."""
    if isinstance(con, SocCon):
        nrm = math.sqrt(sum(a.value(x) ** 2 for a in con.norm_args))
        return _violation(nrm - con.bound.value(x))
    if isinstance(con, RotatedSocCon):
        lhs = sum(a.value(x) ** 2 for a in con.args)
        xv, yv = con.x.value(x), con.y.value(x)
        return _violation(lhs - xv * yv, -xv, -yv)
    r = con.expr.value(x)
    return _violation(abs(r) if con.sense == EQ else r if con.sense == LE else -r)


class RowBuilder:
    """A system of rows stamped straight into index arrays. Columns and rows
    are numbered as they are created; each keeps its name as parts (joined
    by :func:`vn` only on demand) and an ``owner`` of the caller's, a column
    its start and bounds, a row its sense. Row ``i`` sums its terms by
    :func:`add_to` in ``lin[i]`` (column -> coefficient) and ``quad.get(i)``
    (column pair, in its names' order -> coefficient); ``const[i]`` is its
    constant. A rotated-cone row keeps its ``x``, ``y`` and ``args``, each a
    ``(terms, constant)`` part, in ``cones[i]``. ``objective`` is ``None``
    until a cost is stamped, then its ``(terms, product terms, constant)``,
    keyed as a row's. A finished builder is held as it is by a
    :class:`MathModel`, which every formulation returns."""

    def __init__(self):
        self.meta: dict[str, Any] = {}
        self.var_parts: list[tuple] = []
        self.start: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.col_owner: list = []
        self.row_parts: list[tuple] = []
        self.row_owner: list = []
        self.sense: list[str] = []
        self.lin: list[dict[int, float]] = []
        self.quad: dict[int, dict[tuple[int, int], float]] = {}
        self.const: list[float] = []
        self.cones: dict[int, tuple] = {}
        self.objective: tuple[dict, dict, float] | None = None

    def var(self, owner, *name, start: float = 0.0, lb: float = -INF, ub: float = INF) -> int:
        if lb > ub:  # refused here, where the column is made
            raise ValueError(f"variable {vn(*name)!r}: lb {lb} exceeds ub {ub}")
        self.var_parts.append(name)
        self.start.append(start)
        self.lb.append(lb)
        self.ub.append(ub)
        self.col_owner.append(owner)
        return len(self.var_parts) - 1

    def row(
        self, owner, *label, lin: dict[int, float] | None = None, sense: str = EQ, const: float = 0.0
    ) -> int:
        """A new row, summing from ``lin`` if given."""
        self.row_parts.append(label)
        self.row_owner.append(owner)
        self.sense.append(sense)
        self.lin.append({} if lin is None else lin)
        self.const.append(const)
        return len(self.row_parts) - 1

    def cone(self, owner, *label, x: tuple, y: tuple, args: list[tuple]) -> int:
        """A new rotated-cone row ``sum a^2 <= x y`` over ``(terms, constant)`` parts."""
        r = self.row(owner, *label, sense=LE)
        self.cones[r] = (x, y, args)
        return r

    def name(self, j: int) -> str:
        return vn(*self.var_parts[j])

    def label(self, i: int) -> str:
        return vn(*self.row_parts[i])

    def arrays(self):
        """The rows as index arrays, the one layout Newton and the simplex
        read: ``(consts, (rows, cols, vals), (qrows, qa, qb, qcoefs))``.

        Row ``i`` reads ``sum(vals * x[cols]) + sum(qcoefs * x[qa] * x[qb])
        + consts[i]`` over the entries with that row, compared by
        ``sense[i]`` against 0. Terms keep each row's own order, which fixes
        the order in which ``np.bincount`` sums them. A cone raises
        ``ValueError``."""
        if self.cones:
            raise ValueError(f"{self.label(min(self.cones))}: a conic constraint has no row form")
        n = [len(terms) for terms in self.lin]
        cols = np.fromiter(chain.from_iterable(self.lin), np.intp, sum(n))
        vals = np.fromiter(chain.from_iterable(t.values() for t in self.lin), float, len(cols))
        quads = [self.quad[i] for i in sorted(self.quad)]
        qr = np.repeat(sorted(self.quad), [len(q) for q in quads]).astype(np.intp)
        qab = np.fromiter(chain.from_iterable(chain.from_iterable(quads)), np.intp, 2 * len(qr))
        qc = np.fromiter(chain.from_iterable(q.values() for q in quads), float, len(qr))
        lin = (np.repeat(np.arange(len(n)), n), cols, vals)
        return np.array(self.const, dtype=float), lin, (qr, qab[0::2], qab[1::2], qc)


def _columns(index: Mapping[str, int], label: str, names: Iterable[str]) -> list[int]:
    """The columns ``index`` gives ``names``; a name it lacks raises
    ``ValueError`` naming ``label`` and the name."""
    try:
        return [index[n] for n in names]
    except KeyError as e:
        raise ValueError(f"{label}: references undeclared variable {e.args[0]!r}") from None


def bound_violation(model: MathModel, x: Mapping[str, float]) -> float:
    """The largest bound gap above 0 at a point; a value that is not finite
    counts as an infinite violation."""
    worst = 0.0
    for n, v in model.variables.items():
        val = x[n]
        if not math.isfinite(val):
            return INF
        worst = max(worst, v.lb - val, val - v.ub)
    return worst


@dataclass
class ResidualReport:
    by_constraint: dict[str, float]
    by_family: dict[str, float]
    max_violation: float
    max_bound_violation: float

    def worst(self, k: int = 5) -> list[tuple[str, float]]:
        return sorted(self.by_constraint.items(), key=lambda kv: -kv[1])[:k]


def evaluate_residuals(model: MathModel, x: Mapping[str, float]) -> ResidualReport:
    """Violations of every constraint at a point, grouped by label family
    (the text before the first ':')."""
    by_con: dict[str, float] = {}
    by_fam: dict[str, float] = {}
    worst = 0.0
    for con in model.constraints:
        r = constraint_residual(con, x)
        by_con[con.label] = r
        fam = con.label.split(":", 1)[0]
        by_fam[fam] = max(by_fam.get(fam, -INF), r)
        worst = max(worst, r)
    return ResidualReport(by_con, by_fam, worst, bound_violation(model, x))


# -- serialization --------------------------------------------------------

_STR = json.encoder.encode_basestring_ascii
CHUNK = 512  # rows, or variables, the writer formats in one array pass
_ROW = '\n  {\n   "expr": %s,\n   "label": %s,\n   "sense": %s,\n   "type": "%s"\n  }'
_CONE = '\n  {\n   "args": %s,\n   "label": %s,\n   "type": "rotated_soc",\n   "x": %s,\n   "y": %s\n  }'
_TOP = (  # what follows the constraints, up to the first variable
    ',\n "meta": %s,\n "name": %s,\n "objective": %s,\n "objective_sense": "min",\n "schema": %s,\n "variables": [')
_VAR = '\n  {\n   "lb": %s,\n   "name": %s,\n   "start": %s,\n   "ub": %s\n  }'


def _numbers(values: list, bounds: bool = False) -> np.ndarray:
    """``values`` as ``json.dumps`` writes them, in an object array. Each
    distinct float bit pattern is formatted once, so ``0.0`` and ``-0.0``
    stay apart; a value that is not a float (an ``int``, a ``bool``) goes
    the generic way. NaN and infinities raise ``ValueError`` as
    ``allow_nan=False`` does, but infinite ``bounds`` are the strings
    ``"inf"``/``"-inf"``."""
    bits, inverse = np.unique(np.array(values, dtype=float).view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    bad = np.isnan(distinct) if bounds else ~np.isfinite(distinct)
    if bad.any():
        json.dumps(float(distinct[bad][0]), allow_nan=False)  # raises
    text = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    text[np.isposinf(distinct)], text[np.isneginf(distinct)] = '"inf"', '"-inf"'
    out = text[inverse]
    if not all(issubclass(t, float) for t in set(map(type, values))):
        for k, v in enumerate(values):
            if not isinstance(v, float):
                out[k] = json.dumps(v, allow_nan=False)
    return out


def _shape(depth: int) -> tuple[str, ...]:
    """How a part whose closing line is indented ``depth`` is written: the
    indent of its members, the separator of its terms, templates of a linear
    part with and without terms, and of a quadratic part."""
    n0, n1, n2 = ("\n" + " " * k for k in (depth, depth + 1, depth + 2))
    lin = "{" + n1 + '"coeffs": %s,' + n1 + '"const": %s' + n0 + "}"
    quad = "{" + n1 + '"const": %s,' + n1 + '"lin": %s,' + n1 + '"quad": %s' + n0 + "}"
    return n1, "," + n2, lin % ("{" + n2 + "%s" + n1 + "}", "%s"), lin % ("{}", "%s"), quad


def _block(items: list[str], nl: str, brackets: str = "[]") -> str:
    """A JSON array of encoded items, or an object of ``key: value`` items
    given ``"{}"``: one item a line; ``nl`` starts the closing line."""
    if not items:
        return brackets
    return brackets[0] + nl + " " + ("," + nl + " ").join(items) + nl + brackets[1]


def model_json_chunks(model: MathModel) -> list[str]:
    """The math-model artifact, written from the builder's rows in pieces
    whose join is byte for byte ``json_text`` of the document
    ``model_from_json_dict`` reads. Rows and variables are formatted
    :data:`CHUNK` at a time in one array pass: every term is lifted into
    flat arrays, each part's terms sorted by a name rank computed once, and
    each distinct number formatted once. Every number is checked before the
    pieces are returned."""
    rows, names, labels = model.rows, model.names, model.labels
    rank = np.empty(len(names), np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    enc = np.array(list(map(_STR, names)), dtype=object)
    keys, heads = enc + ": ", {}

    def texts(parts: list[tuple], depth: int) -> list[str]:
        """The text of each ``(terms, products or None, constant, nested)``
        part, whose closing line is indented ``depth`` (one more if nested)."""
        lins, quads = [p[0] for p in parts], [p[1] for p in parts if p[1] is not None]
        n = np.fromiter(map(len, lins), np.intp, len(lins))
        m = np.fromiter(map(len, quads), np.intp, len(quads))
        cols = np.fromiter(chain.from_iterable(lins), np.intp, n.sum())
        ab = np.fromiter(chain.from_iterable(chain.from_iterable(quads)), np.intp, 2 * m.sum())
        a, b = ab[0::2], ab[1::2]
        order = np.lexsort((rank[cols], np.repeat(np.arange(len(lins)), n)))
        qorder = np.lexsort((rank[b], rank[a], np.repeat(np.arange(len(quads)), m)))
        nums = _numbers([*chain.from_iterable(map(dict.values, lins + quads)), *(p[2] for p in parts)])
        nt, nq, products = len(cols), len(a), []
        terms = (keys[cols[order]] + nums[:nt][order]).tolist()
        if nq:  # a product's text up to its coefficient, by column, is made once per depth
            if depth not in heads:
                u = "\n" + " " * (depth + 3)
                heads[depth] = "[" + u + enc + "," + u, enc + "," + u, "\n" + " " * (depth + 2) + "]"
            ha, hb, tail = heads[depth]
            products = (ha[a[qorder]] + hb[b[qorder]] + nums[nt:nt + nq][qorder] + tail).tolist()
        ends, qends, out = np.cumsum(n).tolist(), iter(np.cumsum(m).tolist()), []
        shapes, s, q = (_shape(depth), _shape(depth + 1)), 0, 0
        for (_, pairs, _, nested), e, c in zip(parts, ends, nums[nt + nq:].tolist()):
            nl, sep, lin, lin0, quad = shapes[nested]
            if pairs is None:
                out.append(lin % (sep.join(terms[s:e]), c) if s < e else lin0 % c)
            else:
                qs, q = q, next(qends)
                out.append(quad % (c, _block(terms[s:e], nl, "{}"), _block(products[qs:q], nl)))
            s = e
        return out

    out = ['{\n "constraints": [']
    for start in range(0, len(labels), CHUNK):
        chunk, parts = range(start, min(start + CHUNK, len(labels))), []
        for i in chunk:
            if i in rows.cones:
                x, y, args = rows.cones[i]
                parts += [(t, None, c, 1) for t, c in args] + [(x[0], None, x[1], 0), (y[0], None, y[1], 0)]
            else:
                parts.append((rows.lin[i], rows.quad.get(i) or None, rows.const[i], 0))
        it, pieces = iter(texts(parts, 3)), []
        for i, label in zip(chunk, map(_STR, labels[chunk.start:chunk.stop])):
            if i in rows.cones:
                args = _block([next(it) for _ in rows.cones[i][2]], "\n   ")
                pieces.append(_CONE % (args, label, next(it), next(it)))
            else:
                pieces.append(_ROW % (next(it), label, _STR(rows.sense[i]), model.kind(i)))
        out.append("," * (start > 0) + ",".join(pieces))
    objective = "null" if rows.objective is None else texts([(*rows.objective, 0)], 1)[0]
    meta, name = json_text(model.meta).replace("\n", "\n "), _STR(model.name)
    out.append(("\n ]" if labels else "]") + _TOP % (meta, name, objective, _STR(SCHEMA_MATHMODEL)))
    for start in range(0, len(names), CHUNK):
        chunk = slice(start, start + CHUNK)
        lb, ub = np.split(_numbers(rows.lb[chunk] + rows.ub[chunk], bounds=True), 2)
        columns = zip(lb.tolist(), enc[chunk].tolist(), _numbers(rows.start[chunk]).tolist(), ub.tolist())
        out.append("," * (start > 0) + ",".join(map(_VAR.__mod__, columns)))
    out.append("\n ]\n}" if names else "]\n}")
    return out


def model_json_text(model: MathModel) -> str:
    """The math-model artifact: the join of :func:`model_json_chunks`."""
    return "".join(model_json_chunks(model))


def model_from_json_dict(data: dict) -> MathModel:
    """The model a math-model document holds, stamped into a
    :class:`RowBuilder`. What the writer refuses is refused here too: a
    duplicate or undeclared variable, ``lb > ub``, a NaN bound, a start,
    coefficient, constant or product that is not finite, an unknown sense
    or constraint type, and an ``objective_sense`` other than ``"min"``
    raise ``ValueError``."""
    if data.get("schema") != SCHEMA_MATHMODEL:
        raise ValueError(f"unexpected schema {data.get('schema')!r}")
    if data.get("objective_sense", "min") != "min":
        raise ValueError(f"objective_sense {data['objective_sense']!r}: every solver minimizes")
    rows = RowBuilder()
    rows.meta = dict(data.get("meta", {}))
    index = {}

    def num(label: str, value) -> float:
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"{label}: {x!r} is not a finite number")
        return x

    for v in data["variables"]:
        name, lb, ub = v["name"], float(v["lb"]), float(v["ub"])
        if math.isnan(lb) or math.isnan(ub):
            raise ValueError(f"variable {name!r}: a bound is NaN")
        start = num(f"variable {name!r}", v.get("start", 0.0))
        index[name] = rows.var(None, name, lb=lb, ub=ub, start=start)

    def lin(label: str, terms: dict) -> dict[int, float]:
        return dict(zip(_columns(index, label, terms), [num(label, c) for c in terms.values()]))

    def part(label: str, d: dict) -> tuple[dict, float]:
        return lin(label, d["coeffs"]), num(label, d["const"])

    def quad(label: str, d: dict) -> tuple[dict, dict, float]:
        pairs: dict[tuple[int, int], float] = {}
        for a, b, c in d["quad"]:  # each pair in name order, as the builder keys it
            add_to(pairs, tuple(_columns(index, label, (a, b) if a <= b else (b, a))), num(label, c))
        return lin(label, d["lin"]), pairs, num(label, d["const"])

    for c in data["constraints"]:
        t, label = c["type"], c["label"]
        if t == "rotated_soc":
            args = [part(label, a) for a in c["args"]]
            rows.cone(None, label, x=part(label, c["x"]), y=part(label, c["y"]), args=args)
            continue
        if t not in ("linear", "quadratic"):
            raise ValueError(f"{label}: unknown constraint type {t!r}")
        if c["sense"] not in (EQ, LE, GE):
            raise ValueError(f"{label}: unknown sense {c['sense']!r}")
        if t == "linear":
            (terms, const), pairs = part(label, c["expr"]), None
        else:
            terms, pairs, const = quad(label, c["expr"])
        r = rows.row(None, label, lin=terms, sense=c["sense"], const=const)
        if pairs:
            rows.quad[r] = pairs
    if data.get("objective") is not None:
        rows.objective = quad("objective", data["objective"])
    return MathModel(data.get("name", "model"), rows)


def solution_to_json_dict(values: Mapping[str, float], meta: dict | None = None) -> dict:
    return {
        "schema": SCHEMA_SOLUTION,
        "values": {k: float(v) for k, v in values.items()},
        "meta": meta or {},
    }


def json_text(payload) -> str:
    """The one JSON encoding of every artifact: keys sorted at every level,
    one-space indent. ``NaN`` and infinities raise ``ValueError``."""
    return json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
