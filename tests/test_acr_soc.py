"""Cross-formulation checks: the rectangular power-voltage form agrees
with converged current-voltage solutions, the lifted branch-flow
relaxation contains every exact operating point, and its rotated minors
close at rank-1."""

import copy

import numpy as np
import pytest

from feederflow.formulations.acr import build_opf_acr, map_solution_to_acr
from feederflow.formulations.common import FormulationError
from feederflow.formulations.lindistflow import build_opf_lindistflow
from feederflow.formulations.socbfm import build_opf_socbfm, map_solution_to_socbfm
from feederflow.mathir import RotatedSocCon, evaluate_residuals
from feederflow.network.components import Generator, Load, Shunt, Storage

from conftest import (
    ALL_FIXTURES,
    SOC_FIXTURES,
    cone_membership_mismatches,
    load_network,
    newton_solution,
)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_ivr_solution_satisfies_rectangular_form(name):
    net = load_network(name)
    sol = newton_solution(name)
    model = build_opf_acr(net)
    point = map_solution_to_acr(net, sol)
    rep = evaluate_residuals(model, point)
    assert rep.max_violation <= 1e-8, f"{name}: {rep.worst(3)}"
    assert rep.max_bound_violation <= 1e-8


@pytest.mark.parametrize("name", SOC_FIXTURES)
def test_exact_lift_is_cone_feasible(name):
    net = load_network(name)
    sol = newton_solution(name)
    model = build_opf_socbfm(net)
    point = map_solution_to_socbfm(net, sol)
    rep = evaluate_residuals(model, point)
    assert rep.max_violation <= 1e-8, f"{name}: {rep.worst(3)}"
    assert rep.max_bound_violation <= 1e-8


@pytest.mark.parametrize("name", SOC_FIXTURES)
def test_rotated_minors_close_at_rank_one(name):
    # products of a rank-1 Hermitian lift meet every minor with equality
    net = load_network(name)
    model = build_opf_socbfm(net)
    point = map_solution_to_socbfm(net, newton_solution(name))
    checked = 0
    for con in model.constraints:
        if not isinstance(con, RotatedSocCon):
            continue
        lhs = sum(a.value(point) ** 2 for a in con.args)
        gap = abs(lhs - con.x.value(point) * con.y.value(point))
        assert gap <= 1e-10, f"{name}/{con.label}: gap {gap:.3e}"
        checked += 1
    if name != "zero_load":
        assert checked > 0


@pytest.mark.parametrize("name", SOC_FIXTURES)
def test_cone_membership_rotated_vs_norm(name):
    net = load_network(name)
    model = build_opf_socbfm(net)
    point = map_solution_to_socbfm(net, newton_solution(name))
    assert cone_membership_mismatches(model, point, n=1000, seed=1) == 0


def test_delta_load_fixture_rejected_by_lift():
    net = load_network("feeder3_unbalanced")
    with pytest.raises(FormulationError, match="delta"):
        build_opf_socbfm(net)


def test_meshed_rejected_by_lift():
    with pytest.raises(FormulationError, match="radial required"):
        build_opf_socbfm(load_network("meshed"))


def test_meshed_rejected_by_socbfm_map():
    net = load_network("meshed")
    with pytest.raises(FormulationError, match="radial required"):
        map_solution_to_socbfm(net, newton_solution("meshed"))


@pytest.mark.parametrize(
    "collection,element",
    [
        ("shunts", Shunt("sh9", "tx1.internal", (1, 2, 3), np.eye(3) * 0.01)),
        ("loads", Load("ld9", "tx1.internal", (1, 2, 3), "wye", np.full(3, 0.01))),
        ("generators", Generator("g9", "tx1.internal", (1, 2, 3), p_set=np.full(3, 0.01))),
        ("storages", Storage("st9", "tx1.internal", (1, 2, 3), 1.0, 0.5, 0.1, 0.1)),
    ],
    ids=["shunt", "load", "generator", "storage"],
)
@pytest.mark.parametrize("build", [build_opf_socbfm, build_opf_lindistflow], ids=["socbfm", "lindistflow"])
def test_element_on_absorbed_transformer_bus_is_rejected(collection, element, build):
    net = copy.deepcopy(load_network("four_bus"))
    getattr(net, collection)[element.id] = element
    with pytest.raises(
        FormulationError,
        match=r"transformer 'tx1': internal bus 'tx1\.internal' carries other elements",
    ):
        build(net)


def test_two_bus_relaxation_lower_bounds_exact_cost():
    # single-phase DistFlow solved by hand: with the source magnitude
    # pinned at 1, feasibility in the squared current l reduces to
    # (p + r l)^2 + (q + x l)^2 <= l, and cost grows with l, so the
    # relaxed optimum sits at the smaller root
    r = x = 0.01
    p, q = 0.1, 0.05
    c1 = 10.0
    coeffs = [
        r * r + x * x,
        2.0 * (p * r + q * x) - 1.0,
        p * p + q * q,
    ]
    roots = np.roots(coeffs)
    l_min = float(min(rt.real for rt in roots if abs(rt.imag) < 1e-12 and rt.real >= 0))
    soc_cost = c1 * (p + r * l_min)

    sol = newton_solution("two_bus")
    i = sol.branch_current["main"][0]
    p_exact = float((sol.voltages["src"][1] * np.conj(i)).real)
    exact_cost = c1 * p_exact

    assert soc_cost <= exact_cost + 1e-9
    assert soc_cost == pytest.approx(exact_cost, abs=1e-8)


def test_acr_objective_prices_generator_dispatch():
    # at the mapped operating point the objective equals marginal cost
    # times slack injection (the only generator on this fixture)
    net = load_network("two_bus")
    sol = newton_solution("two_bus")
    model = build_opf_acr(net)
    point = map_solution_to_acr(net, sol)
    i = sol.branch_current["main"][0]
    p_exact = float((sol.voltages["src"][1] * np.conj(i)).real)
    assert model.objective.value(point) == pytest.approx(10.0 * p_exact, rel=1e-9)


def test_soc_objective_matches_acr_objective_at_lift():
    net = load_network("four_bus")
    sol = newton_solution("four_bus")
    acr = build_opf_acr(net)
    soc = build_opf_socbfm(net)
    v_acr = acr.objective.value(map_solution_to_acr(net, sol))
    v_soc = soc.objective.value(map_solution_to_socbfm(net, sol))
    assert v_acr == pytest.approx(v_soc, rel=1e-9)
