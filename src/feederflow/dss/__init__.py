"""DSS circuit description parsing: tokenizer, value grammar, object database."""
from .datamodel import (
    CLASS_PROPERTIES,
    DssDataModel,
    DssObject,
    build_data_model,
    model_from_json_dict,
    model_to_dss_text,
    model_to_json_dict,
    models_equal,
)
from .lexer import DssParseError, DssStatement, tokenize
from .redirects import RedirectCycleError, resolve_redirects
from .values import (
    BusRef,
    DssValueError,
    parse_bus,
    parse_matrix,
    parse_number,
    parse_rpn,
)

__all__ = [
    "CLASS_PROPERTIES",
    "BusRef",
    "DssDataModel",
    "DssObject",
    "DssParseError",
    "DssStatement",
    "DssValueError",
    "RedirectCycleError",
    "build_data_model",
    "model_from_json_dict",
    "model_to_dss_text",
    "model_to_json_dict",
    "models_equal",
    "parse_bus",
    "parse_matrix",
    "parse_number",
    "parse_rpn",
    "resolve_redirects",
    "tokenize",
]


def parse_file(path: str) -> DssDataModel:
    """Convenience wrapper: expand redirects from ``path`` and build the model."""
    return build_data_model(resolve_redirects(path))
