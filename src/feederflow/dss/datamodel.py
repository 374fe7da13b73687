"""Typed object database built from tokenized DSS statements.

Applies New/Edit semantics, ``like=`` inheritance, per-class property name
abbreviation, positional property resolution, and the transformer ``wdg=``
sequential syntax. Values are typed according to a documented per-class
property whitelist; unknown properties and unsupported classes are collected
as warnings rather than errors.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from .lexer import DssParseError, DssStatement
from .values import (
    BusRef,
    DssValueError,
    parse_array_numbers,
    parse_array_strings,
    parse_bool,
    parse_bus,
    parse_int,
    parse_matrix,
    parse_number,
    strip_brackets,
)

SCHEMA_DSS_MODEL = "feederflow-dss-model/1"

# Property whitelist per supported class. Ordering doubles as the positional
# property order. Kinds: number, int, bool, string, array_num, array_str,
# array_bus, bus, matrix. Matrix values stay raw until the owning object is
# finalized because their size depends on nphases/phases.
CLASS_PROPERTIES: dict[str, dict[str, str]] = {
    "vsource": {
        "bus1": "bus",
        "basekv": "number",
        "pu": "number",
        "angle": "number",
        "phases": "int",
        "frequency": "number",
        "cost": "array_num",
    },
    "linecode": {
        "nphases": "int",
        "rmatrix": "matrix",
        "xmatrix": "matrix",
        "cmatrix": "matrix",
        "units": "string",
        "basefreq": "number",
    },
    "line": {
        "bus1": "bus",
        "bus2": "bus",
        "linecode": "string",
        "length": "number",
        "phases": "int",
        "rmatrix": "matrix",
        "xmatrix": "matrix",
        "cmatrix": "matrix",
        "units": "string",
        "switch": "bool",
        "enabled": "bool",
        "normamps": "number",
    },
    "load": {
        "bus1": "bus",
        "phases": "int",
        "kv": "number",
        "kw": "number",
        "kvar": "number",
        "conn": "string",
        "model": "int",
        "vminpu": "number",
        "vmaxpu": "number",
        "zip": "array_num",
        "enabled": "bool",
    },
    "capacitor": {
        "bus1": "bus",
        "phases": "int",
        "kvar": "number",
        "kv": "number",
        "conn": "string",
        "enabled": "bool",
    },
    "reactor": {
        "bus1": "bus",
        "bus2": "bus",
        "phases": "int",
        "kv": "number",
        "kvar": "number",
        "r": "number",
        "x": "number",
        "conn": "string",
        "enabled": "bool",
    },
    "transformer": {
        "phases": "int",
        "windings": "int",
        "buses": "array_bus",
        "conns": "array_str",
        "kvs": "array_num",
        "kvas": "array_num",
        "taps": "array_num",
        "xhl": "number",
        "%rs": "array_num",
        "%loadloss": "number",
        "%noloadloss": "number",
        "enabled": "bool",
        # wdg-style sequential aliases, rewritten into the plural arrays
        "wdg": "int",
        "bus": "bus",
        "conn": "string",
        "kv": "number",
        "kva": "number",
        "tap": "number",
        "%r": "number",
    },
    "generator": {
        "bus1": "bus",
        "phases": "int",
        "kv": "number",
        "kw": "number",
        "kvar": "number",
        "conn": "string",
        "model": "int",
        "cost": "array_num",
        "enabled": "bool",
    },
    "pvsystem": {
        "bus1": "bus",
        "phases": "int",
        "kv": "number",
        "kva": "number",
        "pmpp": "number",
        "kvar": "number",
        "conn": "string",
        "cost": "array_num",
        "enabled": "bool",
    },
    "storage": {
        "bus1": "bus",
        "phases": "int",
        "kv": "number",
        "kwrated": "number",
        "kwhrated": "number",
        "kwhstored": "number",
        "%effcharge": "number",
        "%effdischarge": "number",
        "kva": "number",
        "conn": "string",
        "enabled": "bool",
    },
}

# circuit statements define the voltage source; they share the vsource table
CLASS_PROPERTIES["circuit"] = CLASS_PROPERTIES["vsource"]

# Properties that participate in the wdg= sequential rewrite, keyed by the
# singular name with the plural array they map into.
_WINDING_SINGULAR = {
    "bus": "buses",
    "conn": "conns",
    "kv": "kvs",
    "kva": "kvas",
    "tap": "taps",
    "%r": "%rs",
}

_MATRIX_PROPS = ("rmatrix", "xmatrix", "cmatrix")


@dataclass
class DssObject:
    """One named object: typed properties plus raw matrix strings."""

    object_class: str
    name: str
    properties: dict[str, Any] = field(default_factory=dict)
    raw_matrices: dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return self.name.lower()


@dataclass
class DssDataModel:
    """The fully merged object database for one circuit description."""

    circuit_name: str = ""
    objects: dict[str, dict[str, DssObject]] = field(default_factory=dict)
    options: dict[str, Any] = field(default_factory=dict)
    source_order: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def get(self, object_class: str, name: str) -> DssObject:
        return self.objects[object_class][name.lower()]

    def by_class(self, object_class: str) -> dict[str, DssObject]:
        return self.objects.get(object_class, {})

    def class_counts(self) -> dict[str, int]:
        return {cls: len(objs) for cls, objs in self.objects.items() if objs}


def _resolve_property_name(object_class: str, key: str, line: int) -> str | None:
    """Resolve a possibly abbreviated property name against the class table.

    Returns None for unknown names (caller records a warning). Ambiguous
    abbreviations are an error.
    """
    table = CLASS_PROPERTIES[object_class]
    if key in table:
        return key
    matches = [p for p in table if p.startswith(key)]
    if len(matches) > 1:
        raise DssParseError(
            f"ambiguous property abbreviation {key!r} for class {object_class!r}: "
            f"matches {sorted(matches)}",
            line,
        )
    if len(matches) == 1:
        return matches[0]
    return None


def _type_value(kind: str, raw: str, prop: str, line: int) -> Any:
    try:
        if kind == "number":
            return parse_number(raw)
        if kind == "int":
            return parse_int(raw)
        if kind == "bool":
            return parse_bool(raw)
        if kind == "string":
            return strip_brackets(raw).lower()
        if kind == "array_num":
            return parse_array_numbers(raw)
        if kind == "array_str":
            return [s.lower() for s in parse_array_strings(raw)]
        if kind == "array_bus":
            return [parse_bus(b) for b in parse_array_strings(raw)]
        if kind == "bus":
            return parse_bus(raw)
    except DssValueError as exc:
        raise DssParseError(f"property {prop!r}: {exc}", line) from exc
    raise DssParseError(f"internal: unknown property kind {kind!r}", line)


def _apply_statement_properties(
    obj: DssObject,
    object_class: str,
    stmt: DssStatement,
    model: DssDataModel,
) -> None:
    table = CLASS_PROPERTIES[object_class]
    order = [p for p in table]
    position = -1
    current_wdg = 1
    seen_keys: set[str] = set()

    for key, raw in stmt.properties:
        if isinstance(key, int):
            # Positional values fill the documented property order, resuming
            # after the most recent named property.
            position += 1
            if position >= len(order):
                raise DssParseError(
                    f"too many positional properties for class {object_class!r}", stmt.line
                )
            prop = order[position]
        else:
            if key == "like":
                src_name = strip_brackets(raw).lower()
                cls_objs = model.objects.get(object_class, {})
                if src_name not in cls_objs:
                    raise DssParseError(
                        f"like= references undefined {object_class}.{raw}", stmt.line
                    )
                src = cls_objs[src_name]
                # copy-then-override: later keys in this statement win
                merged = copy.deepcopy(src.properties)
                merged.update(obj.properties)
                obj.properties = merged
                raw_m = dict(src.raw_matrices)
                raw_m.update(obj.raw_matrices)
                obj.raw_matrices = raw_m
                continue
            prop = _resolve_property_name(object_class, key, stmt.line)
            if prop is None:
                model.warnings.append(
                    f"line {stmt.line}: unknown property {key!r} for class "
                    f"{object_class!r}, ignored"
                )
                continue
            position = order.index(prop)

        if prop in seen_keys:
            raise DssParseError(
                f"duplicate property {prop!r} in one statement for "
                f"{object_class}.{stmt.object_name}",
                stmt.line,
            )

        if object_class == "transformer" and prop == "wdg":
            current_wdg = _type_value("int", raw, prop, stmt.line)
            if current_wdg < 1:
                raise DssParseError(f"wdg index must be >= 1, got {current_wdg}", stmt.line)
            continue
        if object_class == "transformer" and prop in _WINDING_SINGULAR:
            plural = _WINDING_SINGULAR[prop]
            kind = table[plural].replace("array_num", "number").replace(
                "array_str", "string"
            ).replace("array_bus", "bus")
            value = _type_value(kind, raw, prop, stmt.line)
            arr = list(obj.properties.get(plural, []))
            while len(arr) < current_wdg:
                arr.append(None)
            arr[current_wdg - 1] = value
            obj.properties[plural] = arr
            continue

        seen_keys.add(prop)
        kind = table[prop]
        if kind == "matrix":
            obj.raw_matrices[prop] = raw
            obj.properties.pop(prop, None)
        else:
            value = _type_value(kind, raw, prop, stmt.line)
            obj.properties[prop] = value
            if prop in _MATRIX_PROPS:
                obj.raw_matrices.pop(prop, None)


def _guess_option_value(raw: str) -> Any:
    try:
        return parse_number(raw)
    except DssValueError:
        pass
    t = raw.strip()
    if t.startswith("[") or "," in t:
        try:
            return parse_array_numbers(raw)
        except DssValueError:
            pass
    return strip_brackets(raw).lower()


def _finalize_matrices(model: DssDataModel) -> None:
    for cls, objs in model.objects.items():
        for obj in objs.values():
            if not obj.raw_matrices:
                continue
            n = obj.properties.get("nphases", obj.properties.get("phases", 3))
            for prop, raw in list(obj.raw_matrices.items()):
                try:
                    obj.properties[prop] = parse_matrix(raw, int(n))
                except DssValueError as exc:
                    raise DssParseError(
                        f"{cls}.{obj.name}: matrix property {prop!r}: {exc}"
                    ) from exc
            obj.raw_matrices = {}


def build_data_model(statements: list[DssStatement]) -> DssDataModel:
    """Merge tokenized statements into a typed :class:`DssDataModel`.

    New defines an object (a second New with the same class and name is an
    error), Edit merges into an existing one, Set collects options. A circuit
    statement defines the voltage source object ``vsource.source``.
    Unsupported classes are ignored and reported in ``warnings``.
    """
    model = DssDataModel()

    for stmt in statements:
        if stmt.verb == "set":
            for k, v in stmt.properties:
                model.options[k] = _guess_option_value(v)
            continue
        if stmt.verb == "redirect":
            raise DssParseError(
                "unresolved redirect statement; expand with resolve_redirects first",
                stmt.line,
            )
        if stmt.verb == "other":
            model.warnings.append(
                f"line {stmt.line}: unsupported statement ignored: {stmt.raw!r}"
            )
            continue

        cls = stmt.object_class
        name = stmt.object_name
        key = name.lower()

        if cls == "circuit":
            if model.circuit_name:
                raise DssParseError("more than one circuit statement", stmt.line)
            model.circuit_name = name
            cls = "vsource"
            name = "source"
            key = "source"
            if stmt.verb != "new":
                raise DssParseError("circuit must be defined with New", stmt.line)

        if cls not in CLASS_PROPERTIES:
            model.warnings.append(
                f"line {stmt.line}: unsupported class {cls!r} "
                f"({stmt.verb} {cls}.{name}) ignored"
            )
            continue

        cls_objs = model.objects.setdefault(cls, {})
        if stmt.verb == "new":
            if key in cls_objs:
                raise DssParseError(
                    f"object {cls}.{name} defined twice with New", stmt.line
                )
            obj = DssObject(object_class=cls, name=name)
            cls_objs[key] = obj
            model.source_order.append((cls, key))
            if stmt.object_class == "circuit":
                obj.properties.setdefault("bus1", BusRef("sourcebus"))
        else:
            if key not in cls_objs:
                raise DssParseError(
                    f"edit of undefined object {cls}.{name}", stmt.line
                )
            obj = cls_objs[key]

        _apply_statement_properties(obj, cls, stmt, model)

    _finalize_matrices(model)
    return model


# --------------------------------------------------------------------------
# Serialization


def _value_to_json(v: Any) -> Any:
    if isinstance(v, BusRef):
        return v.canonical()
    if isinstance(v, list):
        if v and isinstance(v[0], BusRef):
            return [b.canonical() for b in v]
        return v
    return v


def _value_from_json(kind: str, v: Any) -> Any:
    if kind == "bus":
        return parse_bus(v)
    if kind == "array_bus":
        return [parse_bus(b) for b in v]
    if kind == "matrix":
        return [[float(x) for x in row] for row in v]
    if kind == "array_num":
        return [float(x) for x in v]
    if kind == "int":
        return int(v)
    if kind == "number":
        return float(v)
    return v


def model_to_json_dict(model: DssDataModel) -> dict:
    """Canonical JSON form: objects keyed by class then lowercase name."""
    objects = {}
    for cls in sorted(model.objects):
        if not model.objects[cls]:
            continue
        objects[cls] = {}
        for key in sorted(model.objects[cls]):
            obj = model.objects[cls][key]
            objects[cls][key] = {
                "name": obj.name,
                "properties": {
                    p: _value_to_json(v) for p, v in sorted(obj.properties.items())
                },
            }
    return {
        "schema": SCHEMA_DSS_MODEL,
        "circuit": model.circuit_name,
        "options": {k: _value_to_json(v) for k, v in sorted(model.options.items())},
        "objects": objects,
        "order": [[c, n] for c, n in model.source_order],
        "warnings": list(model.warnings),
    }


def model_from_json_dict(data: dict) -> DssDataModel:
    if data.get("schema") != SCHEMA_DSS_MODEL:
        raise DssParseError(
            f"unsupported data model schema {data.get('schema')!r}, "
            f"expected {SCHEMA_DSS_MODEL!r}"
        )
    model = DssDataModel(circuit_name=data.get("circuit", ""))
    model.options = dict(data.get("options", {}))
    for cls, objs in data.get("objects", {}).items():
        table = CLASS_PROPERTIES.get(cls, {})
        for key, entry in objs.items():
            obj = DssObject(object_class=cls, name=entry.get("name", key))
            for p, v in entry.get("properties", {}).items():
                obj.properties[p] = _value_from_json(table.get(p, "string"), v)
            model.objects.setdefault(cls, {})[key] = obj
    model.source_order = [(c, n) for c, n in data.get("order", [])]
    model.warnings = list(data.get("warnings", []))
    return model


def _value_to_dss(v: Any) -> str:
    if isinstance(v, BusRef):
        return v.canonical()
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        if v and isinstance(v[0], list):
            rows = [" ".join(repr(float(x)) for x in row) for row in v]
            return "[" + " | ".join(rows) + "]"
        return "[" + " ".join(_value_to_dss(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def model_to_dss_text(model: DssDataModel) -> str:
    """Emit the model back as canonical New/Set statements.

    Parsing the emitted text reproduces the model property for property,
    which is the round-trip idempotence contract.
    """
    lines = []
    for cls, key in model.source_order:
        obj = model.objects[cls][key]
        parts = [f"New {cls}.{obj.name}"]
        for p, v in obj.properties.items():
            parts.append(f"{p}={_value_to_dss(v)}")
        lines.append(" ".join(parts))
    for k, v in model.options.items():
        lines.append(f"Set {k}={_value_to_dss(v)}")
    return "\n".join(lines) + "\n"


def models_equal(a: DssDataModel, b: DssDataModel) -> bool:
    """Structural equality over classes, names, and typed properties."""
    if set(a.objects) != set(b.objects):
        return False
    for cls in a.objects:
        if set(a.objects[cls]) != set(b.objects[cls]):
            return False
        for key in a.objects[cls]:
            if a.objects[cls][key].properties != b.objects[cls][key].properties:
                return False
    return a.options == b.options
