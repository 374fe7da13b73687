"""Object database assembly, editing, and round trips."""
import json

import pytest

from feederflow.dss import (
    DssParseError,
    build_data_model,
    model_from_json_dict,
    model_to_json_dict,
    parse_file,
    tokenize,
)
from feederflow.dss.datamodel import model_to_dss_text, models_equal

from conftest import ALL_FIXTURES, fixture_path


def _model(text: str):
    return build_data_model(tokenize(text))


def test_circuit_becomes_vsource():
    m = _model("new circuit.demo basekv=12.47 pu=1.02 phases=3 bus1=root")
    assert m.circuit_name == "demo"
    src = m.get("vsource", "source")
    assert src.properties["basekv"] == 12.47
    assert src.properties["pu"] == 1.02
    assert src.properties["bus1"].name == "root"


def test_two_circuits_rejected():
    with pytest.raises(DssParseError):
        _model("new circuit.a basekv=1\nnew circuit.b basekv=2")


def test_duplicate_new_rejected():
    with pytest.raises(DssParseError):
        _model("new load.a bus1=x kv=1 kw=1\nnew load.a bus1=y kv=1 kw=2")


def test_edit_merges():
    m = _model("new load.a bus1=x kv=12.47 kw=10\nedit load.a kw=25 kvar=5")
    obj = m.get("load", "a")
    assert obj.properties["kw"] == 25.0
    assert obj.properties["kvar"] == 5.0
    assert obj.properties["bus1"].name == "x"


def test_edit_undefined_rejected():
    with pytest.raises(DssParseError):
        _model("edit load.ghost kw=1")


def test_positional_linecode_properties():
    m = _model("new linecode.lc 2 (1 | .2 1) (2 | .3 2)")
    obj = m.get("linecode", "lc")
    assert obj.properties["nphases"] == 2
    assert obj.properties["rmatrix"] == [[1.0, 0.2], [0.2, 1.0]]


def test_unsupported_class_warns():
    m = _model("new relay.r1 monitoredobj=line.l1")
    assert any("relay" in w and w.endswith("ignored") for w in m.warnings)


def test_set_options_collected():
    m = _model("set voltagebases=[12.47, 0.48]\nset tolerance=1e-8")
    assert m.options["voltagebases"] == [12.47, 0.48]
    assert m.options["tolerance"] == 1e-8


def test_four_bus_object_counts():
    m = parse_file(fixture_path("four_bus"))
    cc = m.class_counts()
    assert cc["line"] == 3
    assert cc["load"] == 3
    assert cc["transformer"] == 1
    assert cc["vsource"] == 1


def test_edit_applied_in_fixture():
    m = parse_file(fixture_path("four_bus"))
    assert m.get("load", "ld2").properties["kw"] == 90.0


def test_disabled_element_kept():
    m = parse_file(fixture_path("four_bus"))
    assert m.get("line", "tie").properties["enabled"] is False


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_json_round_trip(name):
    m = parse_file(fixture_path(name))
    doc = json.loads(json.dumps(model_to_json_dict(m)))
    m2 = model_from_json_dict(doc)
    assert models_equal(m, m2)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_dss_text_round_trip_idempotent(name):
    """Writing the model back out as feeder text and reparsing is a fixed
    point: the second generation equals the first."""
    m1 = parse_file(fixture_path(name))
    text1 = model_to_dss_text(m1)
    m2 = build_data_model(tokenize(text1))
    assert models_equal(m1, m2)
    text2 = model_to_dss_text(m2)
    assert text1 == text2
