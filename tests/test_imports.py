"""Import-time and tooling guards."""

import importlib
import json
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


_LIST_SCIPY = (
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')), file=sys.stderr)"
)


def test_import_els_leaves_scipy_optimize_unloaded():
    # els runs on numpy alone; scipy would dominate the import time
    res = subprocess.run(
        [sys.executable, "-c", f"import sys, els; {_LIST_SCIPY}"], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip() == "[]"


def test_certified_solve_loads_no_scipy():
    # example-5.1 is exact and reaches the certificate's multiplier fit
    code = f"import sys; from els.cli import main; rc = main(sys.argv[1:]); {_LIST_SCIPY}; sys.exit(rc)"
    fixture = ROOT / "fixtures" / "example-5.1.json"
    res = subprocess.run(
        [sys.executable, "-c", code, "solve", str(fixture)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert "certificate" in report["timings"] and report["certificate"]["global"]
    assert res.stderr.strip() == "[]"


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
