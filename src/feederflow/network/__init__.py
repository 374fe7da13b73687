"""Per-unit multi-conductor network model and DSS conversion."""
from .components import (
    PHASE_ANGLES,
    Branch,
    Bus,
    Diagnostic,
    Generator,
    IdealTransformer,
    Load,
    Network,
    Shunt,
    Storage,
    TimeSeries,
    find_cycle,
    ungrounded_buses,
    validate,
)
from .convert import NetworkConversionError, decompose_transformer, from_dss, kron_reduce

__all__ = [
    "PHASE_ANGLES",
    "Branch",
    "Bus",
    "Diagnostic",
    "Generator",
    "IdealTransformer",
    "Load",
    "Network",
    "Shunt",
    "Storage",
    "TimeSeries",
    "NetworkConversionError",
    "decompose_transformer",
    "find_cycle",
    "from_dss",
    "kron_reduce",
    "ungrounded_buses",
    "validate",
]
