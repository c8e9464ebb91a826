"""Import-time and tooling guards."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_els_leaves_scipy_optimize_unloaded():
    # scipy.optimize dominates import time; only the multiplier fit needs it
    code = "import sys, els; print('scipy.optimize' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_benchmark_tracer_names_exist():
    # perfbench/tracing.py wraps these public functions by name; a rename
    # would make `perfbench/run.py --trace 1` fail with AttributeError
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for layer, names in tracing.WRAPPED.items():
        module = importlib.import_module(f"els.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"els.{layer}.{name} is missing"
