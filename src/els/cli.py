"""Command-line driver.

One verb per pipeline stage:

  els solve PROBLEM            full pipeline (relax, reduce, certify)
  els relax PROBLEM            relaxation only
  els certify PROBLEM --point POINT
  els oracle PROBLEM           multistart search oracle
  els range QUERY              joint-range membership / recovery probe
  els minimax PROBLEM          pointwise-max objective by decomposition
  els check-conditions --n N --p P --k K
  els batch DIR                solve every *.json problem in DIR

Reports are single JSON documents written to --out (default: stdout).
Exit codes: 0 success, 1 infeasible, 2 numerical failure, 3 usage error.
The environment variable ELS_SEED overrides the default --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ElsError, Infeasible, InvalidInput, NoFeasiblePoint
from .lift import exactness_conditions
from .linalg import DEFAULT_TOL
from .minimax import solve_minimax
from .oracle import oracle_solve
from .pipeline import certify_report, problem_digest, solve_report
from .problem import parse_minimax_problem, parse_point, parse_problem
from .rangeprobe import RangeQuery, probe_rows
from .solver import STATUS_FAILURE, STATUS_INFEASIBLE, SolverConfig

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3


def _default_seed() -> int:
    raw = os.environ.get("ELS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidInput(f"ELS_SEED must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="els", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_problem=True):
        if with_problem:
            sp.add_argument("problem", help="problem file (JSON)")
        sp.add_argument("--tol", type=float, default=1e-8, help="duality-gap tolerance")
        sp.add_argument("--rank-tol", type=float, default=DEFAULT_TOL, help="rank threshold")
        sp.add_argument("--seed", type=int, default=None, help="seed (default: ELS_SEED or 0)")
        sp.add_argument("--restarts", type=int, default=40, help="oracle restarts")
        sp.add_argument("--out", default=None, help="report file (default: stdout)")

    sp = sub.add_parser("solve", help="full pipeline")
    common(sp)
    sp.add_argument("--with-oracle", action="store_true", help="also run the search oracle")

    common(sub.add_parser("relax", help="relaxation only"))

    sp = sub.add_parser("certify", help="certificate for a point")
    common(sp)
    sp.add_argument("--point", required=True, help="point file (JSON with field X)")

    common(sub.add_parser("oracle", help="multistart search oracle"))
    common(sub.add_parser("range", help="joint-range probe"))
    common(sub.add_parser("minimax", help="pointwise-max objective"))

    sp = sub.add_parser("check-conditions", help="exactness thresholds for (n, p, k)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("batch", help="solve every *.json problem in a directory")
    common(sp, with_problem=False)
    sp.add_argument("directory", help="directory of problem files")
    sp.add_argument("--with-oracle", action="store_true")

    return parser


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ElsError(f"cannot read {path}: {exc}") from exc


def _config(args) -> SolverConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    return SolverConfig(tol=args.tol, seed=seed)


def _status_exit(status: str) -> int:
    """Exit code of a relaxation status."""
    return {STATUS_INFEASIBLE: EXIT_INFEASIBLE, STATUS_FAILURE: EXIT_NUMERICAL}.get(status, EXIT_OK)


def _cmd_solve(args) -> int:
    prob = parse_problem(_read(args.problem))
    cfg = _config(args)
    report = solve_report(
        prob,
        cfg,
        rank_tol=args.rank_tol,
        with_oracle=args.with_oracle,
        restarts=args.restarts,
        seed=cfg.seed,
    )
    _emit(report, args.out)
    return _status_exit(report["relaxation"]["status"])


def _cmd_relax(args) -> int:
    from .solver import solve_cr

    prob = parse_problem(_read(args.problem))
    sol = solve_cr(prob, _config(args))
    doc = {
        "schema": "els-relax/1",
        "problem": {"n": prob.n, "p": prob.p, "k": prob.k, "digest": problem_digest(prob)},
        "status": sol.status,
        "value": None if math.isnan(sol.value) else (sol.value if math.isfinite(sol.value) else "inf"),
        "gap_estimate": sol.gap_estimate if math.isfinite(sol.gap_estimate) else "inf",
        "X": sol.X.tolist(),
    }
    _emit(doc, args.out)
    return _status_exit(sol.status)


def _cmd_certify(args) -> int:
    prob = parse_problem(_read(args.problem))
    X = parse_point(_read(args.point), prob)
    _emit(certify_report(prob, X), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    prob = parse_problem(_read(args.problem))
    cfg = _config(args)
    doc = {
        "schema": "els-oracle/1",
        "problem": {"n": prob.n, "p": prob.p, "k": prob.k, "digest": problem_digest(prob)},
    }
    try:
        value, point, diagnostics = oracle_solve(prob, restarts=args.restarts, seed=cfg.seed)
    except NoFeasiblePoint as exc:
        _emit({**doc, "value": None, "error": str(exc), **exc.diagnostics.as_dict()}, args.out)
        return EXIT_INFEASIBLE
    doc = {
        **doc,
        "value": value,
        "X": point.X.tolist(),
        "max_residual": point.max_residual,
        **diagnostics.as_dict(),
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_range(args) -> int:
    doc = json.loads(_read(args.problem))
    matrices = [np.array(A, dtype=float) for A in doc["matrices"]]
    targets = doc["targets"] if "targets" in doc else [doc["target"]]
    queries = [RangeQuery(matrices=matrices, target=np.array(t, dtype=float)) for t in targets]
    rows = probe_rows(queries, _config(args), rank_tol=args.rank_tol)
    for row in rows:
        if not math.isfinite(row["residual"]):
            row["residual"] = None
    _emit({"schema": "els-range/1", "rows": rows}, args.out)
    return EXIT_OK


def _cmd_minimax(args) -> int:
    mm = parse_minimax_problem(_read(args.problem))
    try:
        sol = solve_minimax(mm, _config(args), rank_tol=args.rank_tol)
    except Infeasible as exc:
        _emit({"schema": "els-minimax/1", "error": str(exc)}, args.out)
        return EXIT_INFEASIBLE
    doc = {
        "schema": "els-minimax/1",
        "value": sol.value,
        "piece": sol.piece,
        "exact": sol.exact,
        "branch_values": [v if math.isfinite(v) else "inf" for v in sol.branch_values],
        "X": sol.point.X.tolist() if sol.point is not None else None,
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_check_conditions(args) -> int:
    cond = exactness_conditions(args.n, args.p, args.k)
    _emit({"n": args.n, "p": args.p, "k": args.k, **cond.as_dict()}, args.out)
    return EXIT_OK


def _cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ElsError(f"{directory} is not a directory")
    cfg = _config(args)
    rows = []
    for path in sorted(directory.glob("*.json")):
        row = {"file": path.name}
        try:
            prob = parse_problem(path.read_text())
            report = solve_report(
                prob,
                cfg,
                rank_tol=args.rank_tol,
                with_oracle=args.with_oracle,
                restarts=args.restarts,
                seed=cfg.seed,
            )
            row.update(
                status=report["relaxation"]["status"],
                value=report["relaxation"]["value"],
                exact_recovery=report["exact_recovery"],
            )
        except ElsError as exc:
            row.update(status="error", error=str(exc))
        rows.append(row)
    _emit({"schema": "els-batch/1", "instances": rows}, args.out)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "relax": _cmd_relax,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "range": _cmd_range,
    "minimax": _cmd_minimax,
    "check-conditions": _cmd_check_conditions,
    "batch": _cmd_batch,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ElsError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"els: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
