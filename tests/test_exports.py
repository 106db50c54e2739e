import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    ["fixpairs", "fixpairs.space", "fixpairs.operators", "fixpairs.bvp", "fixpairs.solver"],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
