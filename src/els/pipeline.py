"""Full solve pipeline and report assembly.

A solve runs: relaxation -> rank reduction -> certificate on the
recovered point (optionally an independent oracle), and emits a single
JSON-ready report.  Reports are byte-identical across runs with the same
inputs and seed except for the "timings" block.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace

import numpy as np

from .certificate import certify_global
from .errors import InvalidInput, NoFeasiblePoint
from .lift import exactness_conditions
from .linalg import DEFAULT_TOL
from .oracle import oracle_solve
from .problem import ElsProblem, StiefelPoint
from .reduction import InexactnessReport, reduce_to_stiefel
from .solver import STATUS_OPTIMAL, CrSolution, SolverConfig, solve_cr

# The reduction inherits the solver's optimality gap as objective drift, so
# the relaxation feeding it is solved tighter than the user-facing default.
_PIPELINE_TOL = 1e-10

_EXACT_MATCH_TOL = 1e-5  # recovered objective flagged exact within this, relative


def problem_digest(prob: ElsProblem) -> str:
    """First 16 hex digits of the SHA-256 of a fixed byte layout: (n, p, k)
    as little-endian int64, then A0, each A_i, the k lower bounds and the k
    upper bounds as C-order little-endian float64.  A -0.0 entry is hashed
    as 0.0, so problems that compare equal share a digest."""
    lower, upper = prob.bounds()
    digest = hashlib.sha256(np.array([prob.n, prob.p, prob.k], dtype="<i8").tobytes())
    for block in (prob.A0, prob.constraint_matrices(), lower, upper):
        digest.update(np.ascontiguousarray(block + 0.0, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


def _json_float(x: float):
    if x is None or math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _relaxation_block(sol: CrSolution) -> dict:
    return {
        "status": sol.status,
        "value": _json_float(sol.value),
        "gap_estimate": _json_float(sol.gap_estimate),
        "newton_steps": {"phase1": sol.phase1_newton, "phase2": sol.phase2_newton},
    }


def _point_block(prob: ElsProblem, point: StiefelPoint, relax_value: float) -> dict:
    objective = prob.objective(point.X)
    gap = abs(objective - relax_value)
    return {
        "X": point.X.tolist(),
        "orth_residual": point.orth_residual,
        "lin_residuals": point.lin_residuals.tolist(),
        "objective": objective,
        "objective_gap": gap,
        "exact": bool(gap <= _EXACT_MATCH_TOL * (1.0 + abs(relax_value))),
    }


def solve_report(
    prob: ElsProblem,
    cfg: SolverConfig | None = None,
    rank_tol: float = DEFAULT_TOL,
    with_oracle: bool = False,
    restarts: int = 40,
    seed: int = 0,
) -> dict:
    """Run the full pipeline and assemble the report document.

    Raises InvalidInput, before any solve, for negative ``restarts`` when
    the oracle is to run.
    """
    if with_oracle and restarts < 0:
        raise InvalidInput(f"restarts must be nonnegative, got {restarts}")
    cfg = cfg or SolverConfig(seed=seed)
    solve_cfg = replace(cfg, tol=min(cfg.tol, _PIPELINE_TOL))
    timings: dict[str, float] = {}
    report: dict = {
        "schema": "els-report/1",
        "problem": {
            "n": prob.n,
            "p": prob.p,
            "k": prob.k,
            "digest": problem_digest(prob),
        },
        "config": {
            "tol": cfg.tol,
            "feas_tol": cfg.feas_tol,
            "barrier_mu": cfg.barrier_mu,
            "max_newton": cfg.max_newton,
            "rank_tol": rank_tol,
            "seed": seed,
            "restarts": restarts,
            "with_oracle": with_oracle,
        },
        "conditions": exactness_conditions(prob.n, prob.p, prob.k).as_dict(),
    }

    t0 = time.perf_counter()
    sol = solve_cr(prob, solve_cfg)
    timings["relaxation"] = time.perf_counter() - t0
    report["relaxation"] = _relaxation_block(sol)
    report["reduction"] = {"attempted": False, "succeeded": False, "reason": None, "trace": []}
    report["recovered"] = None
    report["certificate"] = None
    report["exact_recovery"] = None

    if sol.status == STATUS_OPTIMAL:
        t0 = time.perf_counter()
        outcome = reduce_to_stiefel(prob, sol.X, rank_tol)
        timings["reduction"] = time.perf_counter() - t0
        if isinstance(outcome, InexactnessReport):
            report["reduction"] = {
                "attempted": True,
                "succeeded": False,
                "reason": outcome.reason,
                "trace": [s.as_dict() for s in outcome.trace],
            }
            report["exact_recovery"] = False
        else:
            point, trace = outcome
            report["reduction"] = {
                "attempted": True,
                "succeeded": True,
                "reason": None,
                "trace": [s.as_dict() for s in trace],
            }
            block = _point_block(prob, point, sol.value)
            report["recovered"] = block
            feasible = point.feasible(1e-6)
            report["exact_recovery"] = bool(block["exact"] and feasible)
            if feasible:
                t0 = time.perf_counter()
                verdict = certify_global(prob, point.X)
                timings["certificate"] = time.perf_counter() - t0
                report["certificate"] = verdict.as_dict()

    report["oracle"] = None
    if with_oracle:
        t0 = time.perf_counter()
        try:
            value, point, diagnostics = oracle_solve(prob, restarts=restarts, seed=seed)
            report["oracle"] = {
                "value": value,
                "X": point.X.tolist(),
                "max_residual": point.max_residual,
                **diagnostics.as_dict(),
            }
        except NoFeasiblePoint as exc:
            report["oracle"] = {"value": None, "error": str(exc), **exc.diagnostics.as_dict()}
        timings["oracle"] = time.perf_counter() - t0

    report["timings"] = timings
    return report


def certify_report(prob: ElsProblem, X: np.ndarray) -> dict:
    """Certificate-only report for a user-supplied point."""
    verdict = certify_global(prob, X)
    return {
        "schema": "els-certificate/1",
        "problem": {"n": prob.n, "p": prob.p, "k": prob.k, "digest": problem_digest(prob)},
        "certificate": verdict.as_dict(),
    }
