"""Expression arithmetic, cone rewrites, residual evaluation, the index
arrays shared by the solvers, and the JSON model/solution round trip."""

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
    EQ,
    GE,
    LE,
    INF,
    LinExpr,
    LinearCon,
    MathModel,
    QuadCon,
    QuadExpr,
    SocCon,
    bound_violation,
    constraint_residual,
    evaluate_residuals,
    model_from_json_dict,
    model_json_text,
    json_text,
    rotated_soc_to_soc,
    row_arrays,
    solution_to_json_dict,
)

from feederflow.dss import build_data_model, tokenize
from feederflow.network import from_dss

from conftest import ALL_FIXTURES, RADIAL_FIXTURES, SOC_FIXTURES, load_network
from feeders import FeederSpec, feeder_dss


# -- expressions ---------------------------------------------------------


def test_linexpr_arithmetic():
    e = LinExpr.term("x", 2.0).add_term("y", -1.0)
    e = e.add(LinExpr.constant(3.0))
    assert e.value({"x": 1.0, "y": 4.0}) == pytest.approx(2.0 - 4.0 + 3.0)
    assert e.scaled(2.0).value({"x": 1.0, "y": 4.0}) == pytest.approx(2.0)
    assert e.variables() == {"x", "y"}
    assert e.coeffs == {"x": 2.0, "y": -1.0} and e.const == 3.0


def test_linexpr_add_with_scale_and_copy_isolation():
    a = LinExpr.term("x")
    b = a.copy().add(LinExpr.term("x"), scale=-1.0)
    # cancelled terms leave an empty dict, which the export writes as is
    assert b.coeffs == {} and b.const == 0.0
    assert a.value({"x": 5.0}) == 5.0


def test_quadexpr_value_and_gradient():
    q = QuadExpr()
    q.add_quad_term("x", "x", 2.0)
    q.add_quad_term("x", "y", 1.0)
    q.add_lin_term("y", -3.0)
    pt = {"x": 1.5, "y": -2.0}
    want = 2.0 * 1.5**2 + 1.5 * -2.0 - 3.0 * -2.0
    assert q.value(pt) == pytest.approx(want)


def test_quad_key_symmetry():
    q = QuadExpr()
    q.add_quad_term("a", "b", 1.0)
    q.add_quad_term("b", "a", 2.0)
    assert len(q.quad) == 1
    assert q.value({"a": 2.0, "b": 3.0}) == pytest.approx(18.0)


def test_quadexpr_is_linear_degrades():
    q = QuadExpr()
    q.add_lin_term("x", 1.0)
    assert q.is_linear()
    lin = q.as_linexpr()
    assert lin.value({"x": 2.0}) == 2.0
    q.add_quad_term("x", "x", 1.0)
    assert not q.is_linear()


# -- model construction --------------------------------------------------


def test_duplicate_variable_rejected():
    m = MathModel()
    m.add_var("x")
    with pytest.raises(ValueError):
        m.add_var("x")


def test_constraint_on_unknown_variable_rejected():
    m = MathModel()
    m.add_var("x")
    with pytest.raises(ValueError, match="ghost"):
        m.add_linear("c", LinExpr.term("ghost"))


def test_set_bounds_and_start():
    m = MathModel()
    m.add_var("x", lb=-1.0, ub=1.0, start=0.25)
    m.set_bounds("x", lb=0.0)
    assert m.variables["x"].lb == 0.0
    assert m.variables["x"].ub == 1.0
    assert m.variables["x"].start == 0.25


def test_quadratic_degrades_to_linear_constraint():
    m = MathModel()
    m.add_var("x")
    q = QuadExpr()
    q.add_lin_term("x", 1.0)
    con = m.add_quadratic("c", q, LE)
    assert isinstance(con, LinearCon)
    q2 = QuadExpr()
    q2.add_quad_term("x", "x", 1.0)
    con2 = m.add_quadratic("c2", q2, LE)
    assert isinstance(con2, QuadCon)


def test_stats_counts_by_type():
    m = MathModel()
    for n in ("a", "b", "c"):
        m.add_var(n)
    m.add_linear("l", LinExpr.term("a"), EQ)
    q = QuadExpr()
    q.add_quad_term("a", "a", 1.0)
    m.add_quadratic("q", q, LE)
    m.add_soc("s", [LinExpr.term("a")], LinExpr.term("b"))
    m.add_rotated_soc("r", LinExpr.term("b"), LinExpr.term("c"), [LinExpr.term("a")])
    s = m.stats()
    assert s["variables"] == 3
    assert s["linear"] == 1 and s["quadratic"] == 1
    assert s["soc"] == 1 and s["rotated_soc"] == 1
    assert m.equality_count() == 1


# -- residuals -----------------------------------------------------------


def test_linear_residual_by_sense():
    e = LinExpr.term("x", 1.0).add(LinExpr.constant(-1.0))
    pt_hi = {"x": 1.5}
    pt_lo = {"x": 0.5}
    assert constraint_residual(LinearCon("c", e, EQ), pt_hi) == pytest.approx(0.5)
    assert constraint_residual(LinearCon("c", e, LE), pt_hi) == pytest.approx(0.5)
    assert constraint_residual(LinearCon("c", e, LE), pt_lo) == 0.0
    assert constraint_residual(LinearCon("c", e, GE), pt_lo) == pytest.approx(0.5)
    assert constraint_residual(LinearCon("c", e, GE), pt_hi) == 0.0


def test_soc_residual_matches_hand_norm():
    con = SocCon("s", [LinExpr.term("a"), LinExpr.term("b")], LinExpr.term("t"))
    pt = {"a": 3.0, "b": 4.0, "t": 4.0}
    assert constraint_residual(con, pt) == pytest.approx(1.0)
    pt["t"] = 6.0
    assert constraint_residual(con, pt) == 0.0


def test_bound_violation_and_report():
    m = MathModel()
    m.add_var("x", lb=0.0, ub=1.0)
    m.add_var("y", lb=-1.0, ub=1.0)
    m.add_linear("bal:x", LinExpr.term("x").add(LinExpr.constant(-0.25)), EQ)
    m.add_linear("lim:y", LinExpr.term("y").add(LinExpr.constant(-0.5)), LE)
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


# -- rotated cone rewrite ------------------------------------------------


def _membership(residual: float, tol: float = 1e-12) -> bool:
    return residual <= tol


def test_rotated_rewrite_norm_identity():
    # sum a^2 <= x*y  <=>  ||(2a, x - y)|| <= x + y, checked pointwise
    rng = np.random.default_rng(11)
    con_r = None
    names = ["x", "y", "a1", "a2"]
    from feederflow.mathir import RotatedSocCon

    con_r = RotatedSocCon(
        "r",
        LinExpr.term("x"),
        LinExpr.term("y"),
        [LinExpr.term("a1"), LinExpr.term("a2")],
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
    from feederflow.mathir import RotatedSocCon

    con_r = RotatedSocCon(
        "r", LinExpr.term("x"), LinExpr.term("y"), [LinExpr.term("a1"), LinExpr.term("a2")]
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


def _demo_model() -> MathModel:
    m = MathModel("demo")
    m.add_var("x", lb=0.0, ub=2.0, start=1.0)
    m.add_var("y", lb=-INF, ub=INF)
    m.add_var("t", lb=0.0)
    m.add_linear("bal", LinExpr({"x": 1.0, "y": -2.0}, 0.5), EQ)
    q = QuadExpr()
    q.add_quad_term("x", "y", 1.0)
    q.add_lin_term("x", -1.0)
    m.add_quadratic("quad", q, LE)
    m.add_soc("cone", [LinExpr.term("x"), LinExpr.term("y")], LinExpr.term("t"))
    m.add_rotated_soc("rcone", LinExpr.term("x"), LinExpr.term("t"), [LinExpr.term("y")])
    obj = QuadExpr()
    obj.add_quad_term("x", "x", 1.0)
    obj.add_lin_term("y", 3.0)
    m.set_objective(obj)
    m.meta["note"] = "demo"
    return m


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
    m = MathModel('any "name" \u00e9')
    for k, n in enumerate(names):
        m.add_var(n, lb=min(values[k % len(values)], 0.0), start=finite[k % len(finite)])
    row = LinExpr({n: finite[(k + 1) % len(finite)] for k, n in enumerate(names)}, finite[0])
    m.add_linear("row:\u00e9\n\\", row, LE)
    q = QuadExpr(lin=dict(row.coeffs), const=finite[-1])
    q.add_quad_term(names[0], names[-1], finite[-1] or 1.0)
    m.add_quadratic("quad:\t", q, GE)
    m.add_soc("soc", [row, LinExpr()], row)
    m.set_objective(q)
    assert_canonical_export(m)


def test_export_text_writes_numpy_and_int_numbers_like_json():
    m = _demo_model()
    m.variables["x"].start = np.float64(0.1)
    m.variables["t"].lb = 0  # an int stays an int, as json.dumps writes it
    m.constraints[0].expr.coeffs["x"] = np.float64(1.0) / 3.0
    m.meta["sizes"] = [1, 2.5, None, True]
    text = model_json_text(m)
    assert json_text(json.loads(text)) == text
    assert '"start": 0.1' in text and '"lb": 0,' in text and '"x": 0.3333333333333333' in text


@pytest.mark.parametrize("bad", [math.nan, INF, -INF])
@pytest.mark.parametrize("where", ["coefficient", "constant", "start", "quad", "cone", "objective"])
def test_export_text_rejects_non_finite_numbers(where, bad):
    m = _demo_model()
    if where == "coefficient":
        m.constraints[0].expr.coeffs["y"] = bad
    elif where == "constant":
        m.constraints[0].expr.const = bad
    elif where == "start":
        m.variables["y"].start = bad
    elif where == "quad":
        m.constraints[1].expr.quad[("x", "y")] = bad
    elif where == "cone":
        m.constraints[3].args[0].const = bad
    else:
        m.objective.lin["y"] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        model_json_text(m)


def test_export_text_rejects_nan_bound():
    m = _demo_model()
    m.variables["x"].lb = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        model_json_text(m)


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
    model = build(load_network(name))
    labels, senses, consts, (rows, cols, vals), (qr, qa, qb, qc) = row_arrays(model)
    x = np.random.default_rng(11).normal(size=len(model.variables))
    by_rows = (
        np.bincount(rows, weights=vals * x[cols], minlength=len(labels))
        + np.bincount(qr, weights=qc * x[qa] * x[qb], minlength=len(labels))
        + consts
    )
    point = dict(zip(model.variables, x))
    assert labels == [c.label for c in model.constraints]
    assert senses == [c.sense for c in model.constraints]
    for con, got in zip(model.constraints, by_rows):
        want = con.expr.value(point)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), con.label


@pytest.mark.parametrize("name", SOC_FIXTURES)
def test_row_arrays_reject_cones(name):
    with pytest.raises(ValueError, match="conic"):
        row_arrays(build_opf_socbfm(load_network(name)))


@pytest.mark.parametrize("name", SOC_FIXTURES)
def test_row_builder_arrays_reject_cones(name):
    # the first cone row is a branch's rank coupling
    with pytest.raises(ValueError, match=r"^cone:[^ ]+: a conic constraint has no row form$"):
        stamp_opf_socbfm(load_network(name)).arrays()
