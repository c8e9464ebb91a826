"""Write the canonical benchmark reports of a checkout, or compare two such files.

    python3 tools/report_diff.py write OUT.json [--root CHECKOUT]
    python3 tools/report_diff.py diff OLD.json NEW.json

``write`` runs ``els.pipeline.solve_report`` on every instance of the three
benchmark workloads (``perfbench/workloads.py``) at seeds 301 and 501, in
one process with one BLAS thread, exactly as ``perfbench/run.py`` calls it:
54 reports.  Each is stored without its ``timings`` block, together with the
messages of ``perfbench/checks.py``.  ``--root`` names the checkout whose
``src/`` and ``perfbench/`` are imported (default: this one), so the same
script writes the reports of an older commit checked out elsewhere.

``diff`` lists every field that changed, with the number of reports it
changed in and the largest numeric difference, and exits with status 1
when a change matters: a relaxation status, a reduction rank or
``null_dim``, the reduction outcome, ``exact_recovery``, a certificate
verdict or ``jacobian_rank``, the oracle's ``starts`` or
``feasible_starts`` or whether it found a value differs, a recovered
objective moves by more than 1e-5, an oracle value moves by more than
1e-9 (1 + |value|), a report's check messages differ, or the two files do
not hold the same reports.  The oracle's point,
``max_residual`` and ``winner`` are listed only: where several starts reach
the same minimizer, which of them is lowest is a matter of rounding.  So
are the descent counters ``oracle.descent.{rounds,gradients,trials}``,
which record how the search ran, not what it found.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (301, 501)
OBJECTIVE_TOL = 1e-5
ORACLE_VALUE_TOL = 1e-9  # relative to 1 + |value|

# Fields that must not change; a leaf path matches after list indices are
# replaced by [*].
VERDICT_FIELDS = (
    "relaxation.status",
    "reduction.attempted",
    "reduction.succeeded",
    "reduction.trace.length",
    "reduction.trace[*].rank",
    "reduction.trace[*].null_dim",
    "exact_recovery",
    "recovered.exact",
    "certificate.present",
    "certificate.kkt_ok",
    "certificate.lambda_psd",
    "certificate.licq",
    "certificate.second_order_ok",
    "certificate.global",
    "certificate.route",
    "certificate.jacobian_rank",
    "oracle.starts",
    "oracle.feasible_starts",
    "oracle.value.present",
    "oracle.error.present",
    "checks",
)


def write(out: Path, root: Path) -> int:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import checks
    import workloads
    from els.pipeline import solve_report

    entries = []
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, seed)
            for index, inst in enumerate(workload.instances):
                report = solve_report(
                    inst.problem, with_oracle=workload.with_oracle, restarts=workload.restarts, seed=0
                )
                entries.append(
                    {
                        "workload": name,
                        "seed": seed,
                        "index": index,
                        "instance": inst.name,
                        "report": json.loads(checks.canonical(report)),
                        "checks": checks.check_report(inst, report, workload.with_oracle),
                    }
                )
    out.write_text(json.dumps({"root": str(root), "reports": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} reports to {out}")
    return 0


def _is_number_array(value) -> bool:
    if isinstance(value, list):
        return all(_is_number_array(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(value, path: str, out: dict) -> dict:
    """Flatten dicts and lists of dicts into {path: leaf}; number arrays
    (points, multipliers) stay one leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and value and not _is_number_array(value):
        out[f"{path}.length"] = len(value)
        for i, item in enumerate(value):
            _leaves(item, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def _difference(old, new) -> float | None:
    """Largest absolute entry difference of two equally shaped number
    leaves, or None when they are not comparable numbers."""
    import numpy as np

    if not (_is_number_array(old) and _is_number_array(new)):
        return None
    a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if a.shape != b.shape:
        return None
    return float(np.abs(a - b).max(initial=0.0))


def _flat(entry: dict) -> dict:
    leaves = _leaves(entry["report"], "", {})
    leaves["checks"] = entry["checks"]
    leaves["certificate.present"] = entry["report"].get("certificate") is not None
    oracle = entry["report"].get("oracle") or {}
    leaves["oracle.value.present"] = oracle.get("value") is not None
    leaves["oracle.error.present"] = "error" in oracle
    return leaves


def diff(old_path: Path, new_path: Path) -> int:
    old = json.loads(old_path.read_text())["reports"]
    new = json.loads(new_path.read_text())["reports"]
    problems = []
    key = lambda e: (e["workload"], e["seed"], e["index"])  # noqa: E731
    old_by, new_by = {key(e): e for e in old}, {key(e): e for e in new}
    if old_by.keys() != new_by.keys():
        problems.append(
            f"report sets differ: {len(old_by)} old, {len(new_by)} new, "
            f"{len(old_by.keys() & new_by.keys())} shared"
        )

    changed: dict[str, list] = {}  # field pattern -> [reports, largest difference]
    for k in sorted(old_by.keys() & new_by.keys()):
        a, b = _flat(old_by[k]), _flat(new_by[k])
        label = f"{k[0]} seed {k[1]} #{k[2]} ({old_by[k]['instance']})"
        for path in sorted(a.keys() | b.keys()):
            va, vb = a.get(path), b.get(path)
            if va == vb:
                continue
            pattern = re.sub(r"\[\d+\]", "[*]", path)
            delta = _difference(va, vb)
            record = changed.setdefault(pattern, [0, None])
            record[0] += 1
            if delta is not None:
                record[1] = max(record[1] or 0.0, delta)
            if pattern in VERDICT_FIELDS:
                problems.append(f"{label}: {path} {va!r} -> {vb!r}")
            elif pattern == "recovered.objective" and (delta is None or delta > OBJECTIVE_TOL):
                problems.append(f"{label}: recovered objective {va!r} -> {vb!r}")
            elif pattern == "oracle.value" and (
                delta is None or delta > ORACLE_VALUE_TOL * (1.0 + abs(va))
            ):
                problems.append(f"{label}: oracle value {va!r} -> {vb!r}")

    print(f"{len(old_by.keys() & new_by.keys())} reports compared")
    if changed:
        print("changed fields (reports changed, largest difference):")
        for pattern, (count, delta) in sorted(changed.items()):
            size = "" if delta is None else f", {delta:.3g}"
            print(f"  {pattern}: {count}{size}")
    else:
        print("no field changed")
    for line in problems:
        print(f"MISMATCH {line}")
    return 1 if problems else 0


def main(argv=None) -> int:
    # One BLAS thread, as in the benchmark; set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write the canonical reports of a checkout")
    w.add_argument("out", type=Path)
    w.add_argument("--root", type=Path, default=ROOT, help="checkout to import (default: this one)")
    d = sub.add_parser("diff", help="compare two files written by 'write'")
    d.add_argument("old", type=Path)
    d.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.out, args.root.resolve())
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
