"""Every name a subpackage exports in ``__all__`` resolves on import."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    ["feederflow.dss", "feederflow.network", "feederflow.pf", "feederflow.formulations"],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
