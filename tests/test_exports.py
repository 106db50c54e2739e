import importlib
import subprocess
import sys

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "fixpairs",
        "fixpairs.space",
        "fixpairs.operators",
        "fixpairs.bvp",
        "fixpairs.solver",
        "fixpairs.hypotheses",
        "fixpairs.models",
        "fixpairs.problems",
    ],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    # scipy is imported lazily by the few functions that need it
    code = "import sys, fixpairs, fixpairs.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
