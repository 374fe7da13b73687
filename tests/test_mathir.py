"""Expression values, the builder and the document reader, cone rewrites,
residual evaluation, the index arrays shared by the solvers, and the JSON
model/solution round trip."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feederflow.formulations import build_opf_acr, build_opf_lindistflow, build_opf_socbfm, build_pf_ivr
from feederflow.formulations.socbfm import stamp_opf_socbfm
from feederflow.mathir import (
    CHUNK,
    EQ,
    GE,
    LE,
    INF,
    LinExpr,
    LinearCon,
    MathModel,
    QuadCon,
    QuadExpr,
    RotatedSocCon,
    RowBuilder,
    SCHEMA_MATHMODEL,
    SocCon,
    add_to,
    bound_violation,
    constraint_residual,
    evaluate_residuals,
    model_from_json_dict,
    model_json_text,
    json_text,
    rotated_soc_to_soc,
    solution_to_json_dict,
)

from feederflow.dss import build_data_model, tokenize
from feederflow.network import from_dss

from conftest import ALL_FIXTURES, RADIAL_FIXTURES, SOC_FIXTURES, load_network
from feeders import FeederSpec, feeder_dss
from tracing import model_counts


def _document(variables, constraints, objective=None) -> dict:
    """A math-model document over free variables named ``variables``."""
    return {
        "schema": SCHEMA_MATHMODEL,
        "variables": [{"name": n, "lb": "-inf", "ub": "inf"} for n in variables],
        "constraints": constraints,
        "objective": objective,
    }


def _lin(coeffs: dict, const: float = 0.0) -> dict:
    return {"coeffs": coeffs, "const": const}


def _quad(quad: list, lin: dict | None = None, const: float = 0.0) -> dict:
    return {"quad": quad, "lin": lin or {}, "const": const}


# -- expressions ---------------------------------------------------------


def test_linexpr_arithmetic():
    # terms sum through add_to, as every builder row does
    e = LinExpr({"x": 2.0}, 3.0)
    add_to(e.coeffs, "y", -1.0)
    add_to(e.coeffs, "x", 0.0)  # a zero coefficient adds nothing
    assert e.value({"x": 1.0, "y": 4.0}) == pytest.approx(2.0 - 4.0 + 3.0)
    assert e.coeffs == {"x": 2.0, "y": -1.0} and e.const == 3.0


def test_linexpr_add_with_scale_and_copy_isolation():
    a = LinExpr({"x": 1.0})
    b = LinExpr(dict(a.coeffs), a.const)
    for v, c in a.coeffs.items():
        add_to(b.coeffs, v, -1.0 * c)
    # cancelled terms leave an empty dict, which the export writes as is
    assert b.coeffs == {} and b.const == 0.0
    assert a.value({"x": 5.0}) == 5.0


def test_quadexpr_value_and_gradient():
    q = QuadExpr({("x", "x"): 2.0, ("x", "y"): 1.0}, {"y": -3.0})
    pt = {"x": 1.5, "y": -2.0}
    want = 2.0 * 1.5**2 + 1.5 * -2.0 - 3.0 * -2.0
    assert q.value(pt) == pytest.approx(want)


def test_quad_key_symmetry():
    # the reader keys a product by its names in order and sums repeats
    doc = _document(["a", "b"], [], _quad([["a", "b", 1.0], ["b", "a", 2.0]]))
    q = model_from_json_dict(doc).objective
    assert q.quad == {("a", "b"): 3.0}
    assert q.value({"a": 2.0, "b": 3.0}) == pytest.approx(18.0)


def test_quadexpr_is_linear_degrades():
    # a quadratic row without products reads back as a linear constraint
    rows = [
        {"label": "c", "sense": LE, "type": "quadratic", "expr": _quad([], {"x": 1.0})},
        {"label": "c0", "sense": LE, "type": "quadratic",
         "expr": _quad([["x", "x", 1.0], ["x", "x", -1.0]])},
        {"label": "c2", "sense": LE, "type": "quadratic", "expr": _quad([["x", "x", 1.0]])},
    ]
    m = model_from_json_dict(_document(["x"], rows))
    assert [type(c) for c in m.constraints] == [LinearCon, LinearCon, QuadCon]
    assert m.constraints[0].expr.value({"x": 2.0}) == 2.0


# -- model construction --------------------------------------------------


def test_duplicate_variable_rejected():
    rows = RowBuilder()
    rows.var(None, "x")
    rows.var(None, "x")
    with pytest.raises(ValueError, match="^variable 'x' already declared$"):
        MathModel("model", rows)


def test_constraint_on_unknown_variable_rejected():
    # the reader looks every name up
    doc = _document(["x"], [{"label": "bal", "sense": EQ, "type": "linear", "expr": _lin({"ghost": 1.0})}])
    with pytest.raises(ValueError, match="^bal: references undeclared variable 'ghost'$"):
        model_from_json_dict(doc)


def test_builder_bounds_and_start():
    rows = RowBuilder()
    rows.var(None, "x", lb=0.0, ub=1.0, start=0.25)
    m = MathModel("model", rows)
    assert m.variables["x"].lb == 0.0
    assert m.variables["x"].ub == 1.0
    assert m.variables["x"].start == 0.25
    with pytest.raises(ValueError, match="'y': lb 1.0 exceeds ub 0.0"):
        rows.var(None, "y", lb=1.0, ub=0.0)


def test_quadratic_degrades_to_linear_constraint():
    rows = RowBuilder()
    x = rows.var(None, "x")
    rows.row(None, "c", lin={x: 1.0}, sense=LE)
    r = rows.row(None, "c2", sense=LE)
    rows.quad[r] = {(x, x): 1.0}
    m = MathModel("model", rows)
    assert isinstance(m.constraints[0], LinearCon)
    assert isinstance(m.constraints[1], QuadCon)


def test_stats_counts_by_type():
    rows = RowBuilder()
    a, b, c = (rows.var(None, n) for n in ("a", "b", "c"))
    rows.row(None, "l", lin={a: 1.0})
    q = rows.row(None, "q", sense=LE)
    rows.quad[q] = {(a, a): 1.0}
    rows.cone(None, "r", x=({b: 1.0}, 0.0), y=({c: 1.0}, 0.0), args=[({a: 1.0}, 0.0)])
    m = MathModel("model", rows)
    s = m.stats()
    assert s["variables"] == 3
    assert s["linear"] == 1 and s["quadratic"] == 1 and s["rotated_soc"] == 1
    assert s["terms"] == 5
    assert [c.sense for c in m.constraints[:2]] == [EQ, LE]  # one equality


# -- the document reader -------------------------------------------------


_ROW = {"label": "row", "sense": EQ, "type": "linear", "expr": _lin({"x": 1.0})}
_CONE = {"label": "cone", "type": "rotated_soc", "x": _lin({"x": 1.0}), "y": _lin({"x": 1.0})}


@pytest.mark.parametrize(
    "doc,message",
    [
        (_document(["x", "x"], []), "variable 'x' already declared"),
        (_document(["x"], [{**_ROW, "expr": _lin({"x": 1.0, "ghost": 2.0})}]),
         "^row: references undeclared variable 'ghost'$"),
        (_document(["x"], [{**_ROW, "type": "quadratic", "expr": _quad([["x", "ghost", 1.0]])}]),
         "^row: references undeclared variable 'ghost'$"),
        (_document(["x"], [{**_CONE, "args": [_lin({"ghost": 1.0})]}]),
         "^cone: references undeclared variable 'ghost'$"),
        (_document(["x"], [{**_CONE, "y": _lin({"ghost": 1.0}), "args": []}]),
         "^cone: references undeclared variable 'ghost'$"),
        (_document(["x"], [], _quad([], {"ghost": 1.0})),
         "^objective: references undeclared variable 'ghost'$"),
        (_document(["x"], [{**_ROW, "sense": "<"}]), "^row: unknown sense '<'$"),
        (_document(["x"], [{**_ROW, "type": "soc"}]), "^row: unknown constraint type 'soc'$"),
        (_document(["x"], [{**_ROW, "type": "cubic"}]), "^row: unknown constraint type 'cubic'$"),
        ({**_document([], []), "variables": [{"name": "x", "lb": 1.0, "ub": 0.0}]},
         "^variable 'x': lb 1.0 exceeds ub 0.0$"),
        # what the writer refuses: NaN bounds, numbers that are not finite,
        # and a sense no solver has
        ({**_document([], []), "variables": [{"name": "x", "lb": "nan", "ub": "inf"}]},
         "^variable 'x': a bound is NaN$"),
        ({**_document([], []), "variables": [{"name": "x", "lb": "-inf", "ub": math.nan}]},
         "^variable 'x': a bound is NaN$"),
        ({**_document([], []), "variables": [{"name": "x", "lb": "-inf", "ub": "inf", "start": INF}]},
         "^variable 'x': inf is not a finite number$"),
        (_document(["x"], [{**_ROW, "expr": _lin({"x": math.nan})}]), "^row: nan is not a finite number$"),
        (_document(["x"], [{**_ROW, "expr": _lin({"x": 1.0}, -INF)}]), "^row: -inf is not a finite number$"),
        (_document(["x"], [{**_ROW, "type": "quadratic", "expr": _quad([["x", "x", INF]])}]),
         "^row: inf is not a finite number$"),
        (_document(["x"], [{**_CONE, "args": [_lin({}, math.nan)]}]), "^cone: nan is not a finite number$"),
        (_document(["x"], [], _quad([], {"x": INF})), "^objective: inf is not a finite number$"),
        ({**_document(["x"], []), "objective_sense": "max"}, "^objective_sense 'max': every solver minimizes$"),
    ],
    ids=[
        "duplicate-variable", "undeclared-in-row", "undeclared-in-product", "undeclared-in-cone-arg",
        "undeclared-in-cone-y", "undeclared-in-objective", "unknown-sense", "soc-type",
        "unknown-type", "lb-above-ub", "nan-lb", "nan-ub", "infinite-start", "nan-coefficient",
        "infinite-constant", "infinite-product", "nan-cone-constant", "infinite-objective",
        "objective-sense-max",
    ],
)
def test_reader_rejects_invalid_document(doc, message):
    with pytest.raises(ValueError, match=message):
        model_from_json_dict(doc)


# -- residuals -----------------------------------------------------------


def test_linear_residual_by_sense():
    e = LinExpr({"x": 1.0}, -1.0)
    pt_hi = {"x": 1.5}
    pt_lo = {"x": 0.5}
    assert constraint_residual(LinearCon("c", e, EQ), pt_hi) == pytest.approx(0.5)
    assert constraint_residual(LinearCon("c", e, LE), pt_hi) == pytest.approx(0.5)
    assert constraint_residual(LinearCon("c", e, LE), pt_lo) == 0.0
    assert constraint_residual(LinearCon("c", e, GE), pt_lo) == pytest.approx(0.5)
    assert constraint_residual(LinearCon("c", e, GE), pt_hi) == 0.0


def test_soc_residual_matches_hand_norm():
    con = SocCon("s", [LinExpr({"a": 1.0}), LinExpr({"b": 1.0})], LinExpr({"t": 1.0}))
    pt = {"a": 3.0, "b": 4.0, "t": 4.0}
    assert constraint_residual(con, pt) == pytest.approx(1.0)
    pt["t"] = 6.0
    assert constraint_residual(con, pt) == 0.0


def _report_model() -> MathModel:
    rows = RowBuilder()
    x = rows.var(None, "x", lb=0.0, ub=1.0)
    y = rows.var(None, "y", lb=-1.0, ub=1.0)
    rows.row(None, "bal", "x", lin={x: 1.0}, const=-0.25)
    rows.row(None, "lim", "y", lin={y: 1.0}, sense=LE, const=-0.5)
    return MathModel("model", rows)


def test_bound_violation_and_report():
    m = _report_model()
    pt = {"x": 1.5, "y": 0.9}
    assert bound_violation(m, pt) == pytest.approx(0.5)
    rep = evaluate_residuals(m, pt)
    assert rep.by_constraint["bal:x"] == pytest.approx(1.25)
    assert rep.by_constraint["lim:y"] == pytest.approx(0.4)
    assert rep.by_family["bal"] == pytest.approx(1.25)
    assert rep.by_family["lim"] == pytest.approx(0.4)
    assert rep.max_violation == pytest.approx(1.25)
    assert rep.max_bound_violation == pytest.approx(0.5)
    assert rep.worst(1) == [("bal:x", pytest.approx(1.25))]


@pytest.mark.parametrize("bad", [math.nan, INF, -INF])
def test_non_finite_point_is_an_infinite_violation(bad):
    # a point that is not a number satisfies nothing: not an equality, not
    # an inequality of either sense, not a cone and not a bound
    m = _report_model()
    rep = evaluate_residuals(m, {"x": bad, "y": bad})
    assert rep.max_violation == rep.by_family["bal"] == rep.by_family["lim"] == INF
    assert rep.max_bound_violation == INF
    for sense in (EQ, LE, GE):
        assert constraint_residual(LinearCon("c", LinExpr({"x": 1.0}), sense), {"x": bad}) == INF
    cone = RotatedSocCon("r", LinExpr({"x": 1.0}), LinExpr({"y": 1.0}), [LinExpr({"a": 1.0})])
    for where in ("x", "y", "a"):
        pt = {"x": 1.0, "y": 1.0, "a": 0.5, where: bad}
        assert constraint_residual(cone, pt) == INF, where
        assert constraint_residual(rotated_soc_to_soc(cone), pt) == INF, where
    assert bound_violation(m, {"x": 0.5, "y": bad}) == INF


# -- rotated cone rewrite ------------------------------------------------


def _membership(residual: float, tol: float = 1e-12) -> bool:
    return residual <= tol


def test_rotated_rewrite_norm_identity():
    # sum a^2 <= x*y  <=>  ||(2a, x - y)|| <= x + y, checked pointwise
    rng = np.random.default_rng(11)
    names = ["x", "y", "a1", "a2"]
    con_r = RotatedSocCon(
        "r",
        LinExpr({"x": 1.0}),
        LinExpr({"y": 1.0}),
        [LinExpr({"a1": 1.0}), LinExpr({"a2": 1.0})],
    )
    con_n = rotated_soc_to_soc(con_r)
    agree = 0
    for _ in range(1000):
        kind = rng.integers(0, 3)
        if kind == 0:
            # interior or exterior at random
            pt = {n: float(rng.normal()) for n in names}
        elif kind == 1:
            # exact boundary: a1^2 + a2^2 == x*y by construction
            a1, a2 = rng.normal(), rng.normal()
            xv = abs(rng.normal()) + 0.1
            pt = {"a1": float(a1), "a2": float(a2), "x": float(xv), "y": float((a1 * a1 + a2 * a2) / xv)}
        else:
            # strictly inside
            a1, a2 = rng.normal() * 0.1, rng.normal() * 0.1
            pt = {"a1": float(a1), "a2": float(a2), "x": 1.0, "y": 1.0}
        m_r = _membership(constraint_residual(con_r, pt))
        m_n = _membership(constraint_residual(con_n, pt))
        assert m_r == m_n
        agree += 1
    assert agree == 1000


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
)
def test_rotated_rewrite_membership_property(vals):
    con_r = RotatedSocCon(
        "r", LinExpr({"x": 1.0}), LinExpr({"y": 1.0}), [LinExpr({"a1": 1.0}), LinExpr({"a2": 1.0})]
    )
    con_n = rotated_soc_to_soc(con_r)
    pt = dict(zip(["x", "y", "a1", "a2"], vals))
    # both checks must agree on membership with a shared slack for float
    # rounding: points this far from the boundary are classified identically
    r_rot = constraint_residual(con_r, pt)
    r_nrm = constraint_residual(con_n, pt)
    scale = 1.0 + max(abs(v) for v in vals) ** 2
    if r_rot > 1e-9 * scale:
        assert r_nrm > 0.0
    if r_nrm > 1e-9 * scale:
        assert r_rot > 0.0


# -- serialization -------------------------------------------------------


def _demo_rows() -> RowBuilder:
    """Columns x, y, t; rows bal (linear), quad (a product) and rcone."""
    rows = RowBuilder()
    x = rows.var(None, "x", lb=0.0, ub=2.0, start=1.0)
    y = rows.var(None, "y", lb=-INF, ub=INF)
    t = rows.var(None, "t", lb=0.0)
    rows.row(None, "bal", lin={x: 1.0, y: -2.0}, const=0.5)
    r = rows.row(None, "quad", lin={x: -1.0}, sense=LE)
    rows.quad[r] = {(x, y): 1.0}
    rows.cone(None, "rcone", x=({x: 1.0}, 0.0), y=({t: 1.0}, 0.0), args=[({y: 1.0}, 0.0)])
    rows.objective = ({y: 3.0}, {(x, x): 1.0}, 0.0)
    rows.meta["note"] = "demo"
    return rows


def _demo_model() -> MathModel:
    return MathModel("demo", _demo_rows())


def test_model_json_round_trip_preserves_residuals():
    m = _demo_model()
    m2 = model_from_json_dict(json.loads(model_json_text(m)))
    assert m2.stats() == m.stats()
    assert m2.meta == m.meta
    rng = np.random.default_rng(3)
    for _ in range(20):
        pt = {n: float(rng.normal()) for n in m.variables}
        r1 = evaluate_residuals(m, pt)
        r2 = evaluate_residuals(m2, pt)
        assert r1.by_constraint == r2.by_constraint
        assert m.objective.value(pt) == pytest.approx(m2.objective.value(pt), abs=1e-15)


def test_model_json_infinite_bounds_survive():
    m = _demo_model()
    text = model_json_text(m)
    assert '"lb": "-inf"' in text and '"ub": "inf"' in text
    m2 = model_from_json_dict(json.loads(text))
    assert m2.variables["y"].lb == -INF
    assert m2.variables["y"].ub == INF
    assert m2.variables["t"].ub == INF
    assert m2.variables["x"].ub == 2.0


def test_model_file_round_trip():
    m = _demo_model()
    text = model_json_text(m)
    m2 = model_from_json_dict(json.loads(text))
    assert m2.stats() == m.stats()
    # serialization is canonical: writing the read-back model is byte-identical
    assert model_json_text(m2) == text


def assert_canonical_export(model: MathModel) -> None:
    # the streamed text is the canonical encoding of the document it holds,
    # and that document reads back as the same model
    text = model_json_text(model) + "\n"
    doc = json.loads(text)
    assert json_text(doc) + "\n" == text
    assert model_from_json_dict(doc).stats() == model.stats()


@pytest.mark.parametrize(
    "build,name",
    [(build_pf_ivr, n) for n in ALL_FIXTURES]
    + [(build_opf_acr, n) for n in ALL_FIXTURES]
    + [(build_opf_socbfm, n) for n in SOC_FIXTURES]
    + [(build_opf_lindistflow, n) for n in RADIAL_FIXTURES],
)
def test_export_text_is_canonical(build, name):
    assert_canonical_export(build(load_network(name)))


def test_export_text_is_canonical_on_a_200_bus_feeder():
    spec = FeederSpec(trunk=160, laterals=39, kw_per_bus=(40.0, 100.0))
    net = from_dss(build_data_model(tokenize(feeder_dss(random.Random(11), spec, "g"))))
    model = build_opf_socbfm(net)
    assert len(model.variables) > 5000
    assert_canonical_export(model)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True),
    st.lists(st.floats(allow_nan=False), min_size=2, max_size=8),
)
def test_export_text_is_canonical_for_any_names_and_numbers(names, values):
    # names need escaping (quotes, control and non-ASCII characters), and
    # numbers cover the whole double range, infinities as bounds only
    finite = [v for v in values if math.isfinite(v)] or [0.0]
    rows = RowBuilder()
    cols = [
        rows.var(None, n, lb=min(values[k % len(values)], 0.0), start=finite[k % len(finite)])
        for k, n in enumerate(names)
    ]

    def row() -> dict:
        return {j: finite[(k + 1) % len(finite)] for k, j in enumerate(cols)}

    rows.row(None, "row:\u00e9\n\\", lin=row(), sense=LE, const=finite[0])
    first, last = sorted([(names[0], cols[0]), (names[-1], cols[-1])])
    product = {(first[1], last[1]): finite[-1] or 1.0}
    q = rows.row(None, "quad:\t", lin=row(), sense=GE, const=finite[-1])
    rows.quad[q] = dict(product)
    rows.cone(None, "cone", x=(row(), finite[0]), y=({}, 0.0), args=[(row(), finite[0]), ({}, 0.0)])
    rows.objective = (row(), product, finite[-1])
    assert_canonical_export(MathModel('any "name" \u00e9', rows))


def _document_of(model: MathModel) -> dict:
    """The document ``model_json_text`` writes, built term by term: the
    oracle the array writer is checked against."""
    rows, names = model.rows, model.names

    def lin(terms: dict, const) -> dict:
        return {"coeffs": {names[j]: c for j, c in terms.items()}, "const": const}

    def quad(terms: dict, pairs: dict, const) -> dict:
        products = sorted([names[a], names[b], c] for (a, b), c in pairs.items())
        return {"const": const, "lin": lin(terms, 0)["coeffs"], "quad": products}

    def bound(v):
        return {INF: "inf", -INF: "-inf"}.get(v, v)

    constraints = []
    for i, label in enumerate(model.labels):
        if i in rows.cones:
            x, y, args = rows.cones[i]
            con = {"args": [lin(*a) for a in args], "type": "rotated_soc", "x": lin(*x), "y": lin(*y)}
        elif rows.quad.get(i):
            con = {"expr": quad(rows.lin[i], rows.quad[i], rows.const[i]), "type": "quadratic"}
        else:
            con = {"expr": lin(rows.lin[i], rows.const[i]), "type": "linear"}
        constraints.append({**con, "label": label, **({} if i in rows.cones else {"sense": rows.sense[i]})})
    return {
        "constraints": constraints,
        "meta": rows.meta,
        "name": model.name,
        "objective": None if rows.objective is None else quad(*rows.objective),
        "objective_sense": "min",
        "schema": SCHEMA_MATHMODEL,
        "variables": [
            {"lb": bound(lb), "name": n, "start": start, "ub": bound(ub)}
            for n, lb, ub, start in zip(names, rows.lb, rows.ub, rows.start)
        ],
    }


def test_export_text_writes_numpy_and_int_numbers_like_json():
    rows = _demo_rows()
    x, y, t = 0, 1, 2
    rows.start[x] = np.float64(0.1)
    rows.lb[t] = 0  # an int stays an int, as json.dumps writes it
    rows.lin[0].update({x: np.float64(1.0) / 3.0, y: 2})  # bal
    rows.const[0] = True
    rows.cones[2][2][0] = ({y: np.float64(0.5)}, 1)  # rcone's arg
    rows.cones[2][0][0][x] = False
    rows.objective = ({y: 3}, {(x, x): np.float64(0.25)}, True)
    rows.meta["sizes"] = [1, 2.5, None, True]
    text = model_json_text(MathModel("demo", rows))
    assert text == json_text(_document_of(MathModel("demo", rows)))
    assert json_text(json.loads(text)) == text
    assert '"start": 0.1' in text and '"lb": 0,' in text and '"x": 0.3333333333333333' in text
    assert '"y": 2\n' in text and '"const": true' in text and '"x": false' in text


def test_export_text_keeps_the_sign_of_zero():
    # a memo of formatted numbers keyed by float value would merge 0.0 and -0.0
    rows = RowBuilder()
    x = rows.var(None, "x", start=-0.0)
    y = rows.var(None, "y", lb=-0.0, ub=0.0, start=0.0)
    rows.row(None, "r", lin={x: -0.0, y: 0.0}, const=-0.0)
    rows.row(None, "s", lin={x: 0.0, y: -0.0}, const=0.0)
    rows.cone(None, "c", x=({x: -0.0}, 0.0), y=({y: 0.0}, -0.0), args=[({x: 0.0, y: -0.0}, -0.0)])
    rows.objective = ({x: -0.0}, {(x, y): 0.0}, -0.0)
    model = MathModel("zeros", rows)
    text = model_json_text(model)
    assert text == json_text(_document_of(model))
    doc = json.loads(text)
    signs = [math.copysign(1.0, v) for v in (
        doc["variables"][0]["start"], doc["variables"][1]["start"],
        doc["variables"][1]["lb"], doc["variables"][1]["ub"],
        *doc["constraints"][0]["expr"]["coeffs"].values(), doc["constraints"][0]["expr"]["const"],
        *doc["constraints"][1]["expr"]["coeffs"].values(), doc["constraints"][1]["expr"]["const"],
        doc["constraints"][2]["x"]["coeffs"]["x"], doc["constraints"][2]["x"]["const"],
        doc["constraints"][2]["y"]["coeffs"]["y"], doc["constraints"][2]["y"]["const"],
        *doc["constraints"][2]["args"][0]["coeffs"].values(), doc["constraints"][2]["args"][0]["const"],
        doc["objective"]["lin"]["x"], doc["objective"]["quad"][0][2], doc["objective"]["const"],
    )]
    assert signs == [-1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, 1, -1, 1, -1, -1, -1, 1, -1]


def _rows_past_one_chunk() -> RowBuilder:
    """The demo rows and then linear, quadratic and cone rows in turn until
    the model is more than one writer chunk long."""
    rows = _demo_rows()
    x, y, t = 0, 1, 2
    for k in range(CHUNK + 2):
        c = (k % 97 + 0.5) / 7.0 - 3.0  # never 0, which the reader would drop
        if k % 3 == 0:
            rows.row(None, "lin", k, lin={y: c, x: c + 1.0}, const=c)
        elif k % 3 == 1:
            r = rows.row(None, "quad", k, lin={t: c}, sense=GE, const=-c)
            rows.quad[r] = {(x, y): c, (t, t): 2.0, (x, x): -c}
        else:
            rows.cone(None, "cone", k, x=({t: c}, 1.0), y=({x: 1.0, t: c}, 0.0), args=[({y: c}, c), ({}, 2.0)])
    rows.const[-1] = rows.const[0]  # the first and the last row share a value
    return rows


def test_export_text_across_chunks():
    rows = _rows_past_one_chunk()
    model = MathModel("long", rows)
    assert len(model.labels) > CHUNK and len(model.labels) % CHUNK != 0
    kinds = [model.kind(i) for i in range(len(model.labels))]
    for side in (kinds[:CHUNK], kinds[CHUNK:]):  # every kind on both sides of the boundary
        assert {"linear", "quadratic", "rotated_soc"} <= set(side)
    text = model_json_text(model)
    assert text == json_text(_document_of(model))
    assert model_from_json_dict(json.loads(text)).stats() == model.stats()


@pytest.mark.parametrize("bad", [math.nan, INF, -INF])
@pytest.mark.parametrize(
    "where", ["coefficient", "constant", "start", "quad", "cone", "objective", "late row"]
)
def test_export_text_rejects_non_finite_numbers(where, bad):
    rows = _demo_rows()
    x, y = 0, 1
    if where == "coefficient":
        rows.lin[0][y] = bad
    elif where == "constant":
        rows.const[0] = bad
    elif where == "start":
        rows.start[y] = bad
    elif where == "quad":
        rows.quad[1][(x, y)] = bad
    elif where == "cone":
        args = rows.cones[2][2]
        args[0] = (args[0][0], bad)
    elif where == "objective":
        rows.objective[0][y] = bad
    else:
        rows = _rows_past_one_chunk()
        rows.lin[max(set(range(len(rows.lin))) - set(rows.cones))][y] = bad  # the last row with terms
    with pytest.raises(ValueError, match="not JSON compliant"):
        model_json_text(MathModel("demo", rows))


def test_export_text_rejects_nan_bound():
    rows = _demo_rows()
    rows.lb[0] = math.nan  # x
    with pytest.raises(ValueError, match="not JSON compliant"):
        model_json_text(MathModel("demo", rows))


def test_model_schema_checked():
    with pytest.raises(ValueError, match="schema"):
        model_from_json_dict({"schema": "bogus/9"})


def test_solution_round_trip():
    vals = {"b": 1.5, "a": -2.0}
    data = solution_to_json_dict(vals, meta={"k": 1})
    assert list(json.loads(json_text(data))["values"]) == ["a", "b"]


# -- index arrays ----------------------------------------------------------


@pytest.mark.parametrize(
    "build,name",
    [(build_pf_ivr, n) for n in ALL_FIXTURES]
    + [(build_opf_acr, n) for n in ALL_FIXTURES]
    + [(build_opf_lindistflow, n) for n in RADIAL_FIXTURES],
)
def test_row_arrays_reproduce_every_constraint(build, name):
    # a model's builder lifts to arrays that reproduce every constraint of
    # its name-keyed view
    model = build(load_network(name))
    loaded = model.rows
    consts, (rows, cols, vals), (qr, qa, qb, qc) = loaded.arrays()
    n = len(model.constraints)
    x = np.random.default_rng(11).normal(size=len(model.variables))
    by_rows = (
        np.bincount(rows, weights=vals * x[cols], minlength=n)
        + np.bincount(qr, weights=qc * x[qa] * x[qb], minlength=n)
        + consts
    )
    point = dict(zip(model.variables, x))
    assert [loaded.label(i) for i in range(n)] == [c.label for c in model.constraints]
    assert loaded.sense == [c.sense for c in model.constraints]
    for con, got in zip(model.constraints, by_rows):
        want = con.expr.value(point)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), con.label


@pytest.mark.parametrize("name", SOC_FIXTURES)
def test_row_arrays_reject_cones(name):
    # the cone rows the reader stamps from an artifact refuse the lift too
    text = model_json_text(build_opf_socbfm(load_network(name)))
    with pytest.raises(ValueError, match=r"^cone:[^ ]+: a conic constraint has no row form$"):
        model_from_json_dict(json.loads(text)).rows.arrays()


@pytest.mark.parametrize("name", SOC_FIXTURES)
def test_row_builder_arrays_reject_cones(name):
    # the first cone row is a branch's rank coupling
    with pytest.raises(ValueError, match=r"^cone:[^ ]+: a conic constraint has no row form$"):
        stamp_opf_socbfm(load_network(name)).arrays()


@pytest.mark.parametrize(
    "build,name",
    [(build_pf_ivr, n) for n in ALL_FIXTURES]
    + [(build_opf_acr, n) for n in ALL_FIXTURES]
    + [(build_opf_socbfm, n) for n in SOC_FIXTURES]
    + [(build_opf_lindistflow, n) for n in RADIAL_FIXTURES],
)
def test_benchmark_trace_counts_match_stats(build, name):
    # the benchmark's traced run counts a built model by walking its
    # constraint classes; that walk must agree with the model's own stats
    model = build(load_network(name))
    stats = model.stats()
    assert model_counts(model) == {
        "formulations.variables": stats["variables"],
        "formulations.constraints": stats["constraints"],
        "formulations.terms": stats["terms"],
    }
