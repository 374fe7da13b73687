"""DSS-to-network conversion: per-unit scaling, transformer decomposition,
Kron reduction and structural validation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feederflow.dss import build_data_model, tokenize
from feederflow.network import (
    NetworkConversionError,
    from_dss,
    kron_reduce,
    validate,
)
from feederflow.network.components import PHASE_ANGLES, walk

from conftest import RADIAL_FIXTURES, fixture_path, load_network


def net_from(text: str, **kw):
    return from_dss(build_data_model(tokenize(text)), **kw)


BASE3 = """
new circuit.t basekv=12.47 pu=1.0 phases=3 bus1=root
new linecode.lc nphases=3 units=none
~ rmatrix=(0.09 | 0.03 0.09 | 0.03 0.03 0.09)
~ xmatrix=(0.2 | 0.06 0.2 | 0.06 0.06 0.2)
"""


# -- per-unit anchors ---------------------------------------------------------


def test_line_r_per_unit_anchor():
    # 0.09 ohm on a 2.4 kV L-N, 1 MVA base: r_pu = 0.09 * 1e6 / 2400^2
    net = net_from(
        """
new circuit.a basekv=2.4 pu=1.0 phases=1 bus1=s.1
new line.l bus1=s.1 bus2=e.1 phases=1 length=1 units=none rmatrix=(0.09) xmatrix=(0.0)
"""
    )
    r_pu = net.branches["l"].z[0, 0].real
    assert r_pu == pytest.approx(0.09 * 1e6 / 2400.0**2, rel=1e-12)
    assert r_pu == pytest.approx(0.015625, rel=1e-3)


def test_per_unit_round_trip():
    net = load_network("four_bus")
    br = net.branches["l1"]
    z_ohm = br.z * net.buses[br.f_bus].vbase ** 2 / net.sbase
    # forward: 0.12 ohm/km * 0.6 km self term
    assert z_ohm[0, 0].real == pytest.approx(0.12 * 0.6, rel=1e-12)
    s_va = net.loads["ld4"].s_nom * net.sbase
    assert s_va.real.sum() == pytest.approx(45.0e3, rel=1e-12)


def test_sbase_override_scales_powers():
    net = load_network("two_bus")
    net10 = from_dss(
        __import__("feederflow.dss", fromlist=["parse_file"]).parse_file(
            fixture_path("two_bus")
        ),
        sbase=10.0e6,
    )
    assert net10.sbase == 10.0e6
    assert net10.loads["l1"].s_nom[0] == pytest.approx(net.loads["l1"].s_nom[0] / 10.0)
    assert net10.branches["main"].z[0, 0] == pytest.approx(net.branches["main"].z[0, 0] * 10.0)


def test_zero_power_load_valid():
    net = net_from(BASE3 + "new load.z bus1=root.1.2.3 phases=3 conn=wye kv=12.47 kw=0 kvar=0")
    assert np.all(net.loads["z"].s_nom == 0)


# -- slack bus ------------------------------------------------------------------


def test_slack_phasors():
    net = load_network("feeder3_unbalanced")
    (slack,) = net.slack_buses()
    assert slack.id == "sub"
    u = slack.slack_voltage()
    assert abs(u[0] - 1.01) < 1e-12
    assert u[1] == pytest.approx(1.01 * np.exp(-2j * np.pi / 3), rel=1e-12)
    assert u[2] == pytest.approx(1.01 * np.exp(+2j * np.pi / 3), rel=1e-12)


def test_four_bus_shape():
    net = load_network("four_bus")
    assert sorted(b.id for b in net.terminal_buses()) == ["b1", "b2", "b3", "b4"]
    assert len([b for b in net.branches.values() if b.kind == "line"]) == 3
    assert len(net.transformers) == 1
    (slack,) = net.slack_buses()
    assert slack.id == "b1"
    assert net.branches["tie"].status is False


# -- voltage bases ---------------------------------------------------------------


def test_vbase_propagates_across_transformer():
    net = load_network("four_bus")
    assert net.buses["b3"].vbase == pytest.approx(12.47e3 / np.sqrt(3.0), rel=1e-12)
    assert net.buses["b4"].vbase == pytest.approx(0.48e3 / np.sqrt(3.0), rel=1e-12)
    internal = net.buses["tx1.internal"]
    assert internal.is_internal
    assert internal.vbase == net.buses["b4"].vbase


# -- transformer decomposition -----------------------------------------------------


def test_yy_transformer_is_scalar_ratio():
    net = load_network("four_bus")
    tf = net.transformers["tx1"]
    assert tf.scalar_ratio is not None
    np.testing.assert_allclose(tf.T, tf.scalar_ratio * np.eye(3), atol=1e-14)
    leak = net.branches["tx1.leakage"]
    assert leak.kind == "transformer_leakage"
    # xhl=4%, %rs=0.6+0.6 on 300 kVA, converted to the 1 MVA system base
    z = leak.z[0, 0]
    assert z.real == pytest.approx(0.012 * 1e6 / 300e3, rel=1e-9)
    assert z.imag == pytest.approx(0.04 * 1e6 / 300e3, rel=1e-9)


def test_leakage_base_change_anchor():
    # 1% load loss on a 100 kVA unit against a 1 MVA system base gives 0.1 pu
    net = net_from(
        BASE3
        + """
new transformer.t phases=3 windings=2 buses=[root, low] conns=[wye, wye]
~ kvs=[12.47, 0.48] kvas=[100, 100] xhl=8 %loadloss=1
"""
    )
    z = net.branches["t.leakage"].z[0, 0]
    assert z.real == pytest.approx(0.01 * (1e6 / 1e5), rel=1e-9)
    assert z.imag == pytest.approx(0.08 * (1e6 / 1e5), rel=1e-9)


def test_dy_transformer_vector_group_shift():
    """Positive-sequence excitation through a delta primary lands the
    secondary 30 degrees ahead of the plain ratio."""
    net = net_from(
        BASE3
        + """
new transformer.t phases=3 windings=2 buses=[root, low] conns=[delta, wye]
~ kvs=[12.47, 0.48] kvas=[300, 300] xhl=4
"""
    )
    tf = net.transformers["t"]
    assert tf.scalar_ratio is None
    a = np.exp(2j * np.pi / 3)
    u_pos = np.array([1.0, a**2, a])  # balanced positive sequence, pu
    # the ideal coupling maps primary terminal voltage to the internal side
    u_from = tf.T @ u_pos
    shift = np.angle(u_from[0] / u_pos[0])
    assert abs(abs(shift) - np.pi / 6) < 1e-12


def test_ideal_power_conservation():
    """For any assignment satisfying the coupling equations, the ideal part
    transfers power without loss: U_f^H I_f + U_t^H I_t = 0."""
    rng = np.random.default_rng(3)
    net = load_network("feeder3_unbalanced")
    for tf in net.transformers.values():
        t = tf.T
        n = t.shape[0]
        u_t = rng.normal(size=n) + 1j * rng.normal(size=n)
        i_f = rng.normal(size=n) + 1j * rng.normal(size=n)
        u_f = t @ u_t
        i_t = -t.conj().T @ i_f
        s = u_f.conj() @ i_f + u_t.conj() @ i_t
        assert abs(s) < 1e-12


def test_open_delta_load_rejected():
    with pytest.raises(NetworkConversionError):
        net_from(BASE3 + "new load.d bus1=root.1.2 phases=2 conn=delta kv=12.47 kw=10")


def test_missing_linecode_rejected():
    with pytest.raises(NetworkConversionError):
        net_from("new circuit.t basekv=12.47 phases=3 bus1=a\nnew line.l bus1=a bus2=b linecode=ghost")


def test_load_on_undefined_bus_rejected():
    with pytest.raises(NetworkConversionError):
        net_from(BASE3 + "new load.x bus1=nowhere.1 phases=1 conn=wye kv=7.2 kw=5")


# -- kron reduction ------------------------------------------------------------


def test_kron_identity_when_keeping_all():
    z = np.array([[1 + 1j, 0.2], [0.2, 1 - 0.5j]])
    np.testing.assert_array_equal(kron_reduce(z, [0, 1]), z)


def test_kron_diagonal():
    z = np.diag([1.0 + 0j, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(kron_reduce(z, [0, 1, 2]), np.diag([1.0 + 0j, 2.0, 3.0]))


def test_kron_two_by_two_schur():
    zs, zm = 1.0 + 2.0j, 0.3 + 0.4j
    z = np.array([[zs, zm], [zm, zs]])
    got = kron_reduce(z, [0])
    assert got[0, 0] == pytest.approx(zs - zm**2 / zs, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_kron_composition_property(n, seed):
    """Eliminating conductors one at a time equals eliminating them at once."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    z = a + a.T + (2.0 * n) * np.eye(n)  # symmetric, diagonally dominant
    keep = list(range(n - 1))
    direct = kron_reduce(z, keep[:-1] if n > 2 else keep)
    step1 = kron_reduce(z, keep)
    two_step = kron_reduce(step1, keep[:-1]) if n > 2 else step1
    np.testing.assert_allclose(two_step, direct, rtol=1e-10, atol=1e-12)


def test_four_wire_line_reduced_to_three():
    net = net_from(
        """
new circuit.t basekv=12.47 pu=1.0 phases=3 bus1=root
new line.l4 bus1=root.1.2.3.0 bus2=end.1.2.3.0 phases=4 length=1 units=none
~ rmatrix=(0.3 | 0.05 0.3 | 0.05 0.05 0.3 | 0.08 0.08 0.08 0.5)
~ xmatrix=(0.7 | 0.2 0.7 | 0.2 0.2 0.7 | 0.25 0.25 0.25 0.9)
"""
    )
    br = net.branches["l4"]
    assert br.z.shape == (3, 3)
    zbase = net.buses["root"].vbase ** 2 / net.sbase
    z_ohm = br.z * zbase
    znn = 0.5 + 0.9j
    zkn = 0.08 + 0.25j
    expect_self = (0.3 + 0.7j) - zkn * zkn / znn
    assert z_ohm[0, 0] == pytest.approx(expect_self, rel=1e-10)


# -- shunts, generators, storage --------------------------------------------------


def test_capacitor_becomes_shunt():
    net = load_network("feeder3_unbalanced")
    sh = net.shunts["cap1"]
    y = sh.y
    # 150 kvar three-phase on 1 MVA: b = 0.15/3 per phase at v_nom = 1
    assert y[0, 0] == pytest.approx(1j * 0.05, rel=1e-9)
    assert np.allclose(y, y.T)


def test_pvsystem_becomes_generator():
    net = load_network("feeder3_unbalanced")
    pv = net.generators["pv1"]
    assert pv.bus == "sec"
    assert pv.p_set.sum() == pytest.approx(0.04, rel=1e-9)


def test_storage_parameters():
    net = load_network("storage_two_period")
    s = net.storages["batt"]
    assert s.p_charge_max == pytest.approx(0.2)
    assert s.p_discharge_max == pytest.approx(0.2)
    assert s.energy_max == pytest.approx(0.4)
    assert s.energy_init == 0.0
    assert s.eta_charge == pytest.approx(0.9)
    assert s.eta_discharge == pytest.approx(0.9)


# -- validation -----------------------------------------------------------------


@pytest.mark.parametrize("name", RADIAL_FIXTURES + ["meshed"])
def test_fixtures_validate_clean(name):
    diags = validate(load_network(name))
    errors = [d for d in diags if d.severity == "error"]
    assert errors == []


def test_validate_flags_missing_bus():
    net = load_network("two_bus")
    import copy

    broken = copy.deepcopy(net)
    broken.branches["main"].t_bus = "ghost"
    diags = validate(broken)
    assert any(d.severity == "error" and "main" in d.component for d in diags)


def test_validate_flags_two_slacks():
    import copy

    net = copy.deepcopy(load_network("two_bus"))
    net.buses["load"].bus_type = "slack"
    diags = validate(net)
    assert any("slack" in d.message.lower() for d in diags if d.severity == "error")


def test_phase_angles_structure():
    assert PHASE_ANGLES[1] == 0.0
    assert PHASE_ANGLES[2] == pytest.approx(-2 * np.pi / 3)
    assert PHASE_ANGLES[3] == pytest.approx(2 * np.pi / 3)


# -- graph walk -------------------------------------------------------------------


def test_walk_is_breadth_first_in_adjacency_order():
    adj = {"r": [("b", "rb"), ("a", "ra")], "a": [("r", "ra"), ("c", "ac")],
           "b": [("r", "rb")], "c": [("a", "ac")], "x": []}
    order, via, back = walk(adj, ["r", "a", "x"])
    assert order == ["r", "b", "a", "c", "x"]  # "a" is reached from "r", not grown again
    assert via == {"r": None, "b": ("r", "rb"), "a": ("r", "ra"), "c": ("a", "ac"), "x": None}
    assert back == []


def test_walk_reports_every_entry_closing_a_loop():
    par = object()  # a second edge between r and a
    loop = object()  # an edge from a to itself
    adj = {"r": [("a", "ra"), ("a", par)], "a": [("r", "ra"), ("r", par), ("a", loop), ("a", loop)]}
    order, via, back = walk(adj, ["r"])
    assert order == ["r", "a"]
    assert via["a"] == ("r", "ra")
    assert back == [("r", "a", par), ("a", "r", par), ("a", "a", loop), ("a", "a", loop)]


def test_walk_follows_directed_adjacency():
    adj = {"t": [("f", "e")], "f": []}
    assert walk(adj, ["f"])[0] == ["f"]
    assert walk(adj, ["t"])[0] == ["t", "f"]
