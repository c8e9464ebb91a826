"""Correctness checks for solve reports, recomputed from the instance data.

Nothing here calls into ``els``: every value is recomputed with plain numpy
from the instance (the matrices, the bounds, the generator's feasible point
``Xbar``) and from the points the report returns, and is compared with
bounds that hold whatever the solver does:

* the relaxation value lies in ``[-||A0||_*, tr(A0 Xbar)]``;
* in the exact regime ``p <= n - k`` the recovered point is orthonormal,
  satisfies every bound and attains the relaxation value;
* the certificate's multipliers give a dual bound that closes on the
  recovered objective (weak duality);
* the reduction trace drops the rank strictly, to ``n``, in at most ``p``
  steps, with drift at most 1e-8;
* instances beyond ``+/- ||A_i||_*`` are infeasible;
* the paper's gap instances keep their relaxation values and manifold
  optima and are never marked exact;
* oracle points are feasible and never beat the relaxation.

Each ``check_*`` function returns a list of messages, empty when the report
passes.
"""

from __future__ import annotations

import json
import math

import numpy as np

FEAS_TOL = 1e-6    # orthonormality and bounds, relative to 1 + |bound|
MATCH_TOL = 1e-5   # objective against relaxation value, relative to 1 + |v|
VALUE_TOL = 1e-6   # relaxation value against its bounds and the paper's values
DRIFT_TOL = 1e-8   # reduction-trace constraint drift

FAILED_STATUS = "numerical-failure"


def nuclear_norm(A) -> float:
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False).sum())


def trace_value(A, X) -> float:
    """tr(A @ X) for A of shape (p, n) and X of shape (n, p)."""
    return float(np.sum(np.asarray(A) * np.asarray(X).T))


def canonical(report: dict) -> str:
    """The report as text with the wall-clock ``timings`` block removed."""
    body = {key: value for key, value in report.items() if key != "timings"}
    return json.dumps(body, sort_keys=True)


def point_problems(prob, X, what: str) -> list[str]:
    """Orthonormality and every bound of ``prob`` at the point ``X``."""
    X = np.asarray(X, dtype=float)
    if X.shape != (prob.n, prob.p):
        return [f"{what}: shape {X.shape}, expected {(prob.n, prob.p)}"]
    bad = []
    orth = float(np.abs(X.T @ X - np.eye(prob.p)).max())
    if orth > FEAS_TOL:
        bad.append(f"{what}: orthonormality residual {orth:.3e}")
    for i, con in enumerate(prob.constraints):
        v = trace_value(con.A, X)
        if math.isfinite(con.lower) and v < con.lower - FEAS_TOL * (1.0 + abs(con.lower)):
            bad.append(f"{what}: constraint {i} value {v!r} below lower {con.lower!r}")
        if math.isfinite(con.upper) and v > con.upper + FEAS_TOL * (1.0 + abs(con.upper)):
            bad.append(f"{what}: constraint {i} value {v!r} above upper {con.upper!r}")
    return bad


def check_value_bounds(prob, value: float, Xbar) -> list[str]:
    """The relaxation value lies between -||A0||_* and tr(A0 Xbar)."""
    slack = VALUE_TOL * (1.0 + abs(value))
    bad = []
    ceiling = trace_value(prob.A0, Xbar)
    if value > ceiling + slack:
        bad.append(f"relaxation value {value!r} exceeds tr(A0 Xbar) = {ceiling!r}")
    floor = -nuclear_norm(prob.A0)
    if value < floor - slack:
        bad.append(f"relaxation value {value!r} below -||A0||_* = {floor!r}")
    return bad


def check_recovered(prob, value: float, recovered: dict | None) -> list[str]:
    """Exact regime: a feasible manifold point attaining the relaxation value."""
    if recovered is None:
        return ["no recovered point in the exact regime p <= n - k"]
    X = np.asarray(recovered["X"], dtype=float)
    bad = point_problems(prob, X, "recovered point")
    obj = trace_value(prob.A0, X)
    if abs(obj - value) > MATCH_TOL * (1.0 + abs(value)):
        bad.append(f"recovered objective {obj!r} differs from relaxation value {value!r}")
    return bad


def dual_bound(prob, X, lam) -> tuple[float | None, list[str]]:
    """Lagrangian dual value of the multipliers ``lam`` and sign problems.

    A positive multiplier prices an upper bound and a negative one a lower
    bound, and either must belong to a bound that is active at ``X``.  The
    dual value is ``-||A0 + sum_i lam_i A_i||_* - sum_i lam_i b_i``, where
    ``b_i`` is the priced bound; by weak duality it never exceeds the
    optimum.
    """
    bad = []
    M = np.array(prob.A0, dtype=float)
    offset = 0.0
    for i, (con, li) in enumerate(zip(prob.constraints, lam)):
        if li == 0.0:
            continue
        b = con.upper if li > 0.0 else con.lower
        side = "upper" if li > 0.0 else "lower"
        if not math.isfinite(b):
            bad.append(f"multiplier {i} = {li!r} prices an infinite {side} bound")
            continue
        v = trace_value(con.A, X)
        if abs(v - b) > FEAS_TOL * (1.0 + abs(b)):
            bad.append(f"multiplier {i} = {li!r} on an inactive {side} bound")
        M = M + li * np.asarray(con.A, dtype=float)
        offset += li * b
    if bad:
        return None, bad
    return -nuclear_norm(M) - offset, []


def check_duality(prob, value: float, recovered: dict, certificate: dict | None) -> list[str]:
    """The certificate's multipliers close the duality gap."""
    if certificate is None or "lambda" not in certificate:
        return ["no certificate multipliers at the recovered point"]
    lam = [float(x) for x in certificate["lambda"]]
    if len(lam) != prob.k:
        return [f"{len(lam)} multipliers for {prob.k} constraints"]
    X = np.asarray(recovered["X"], dtype=float)
    d, bad = dual_bound(prob, X, lam)
    if bad:
        return bad
    obj = trace_value(prob.A0, X)
    if abs(d - obj) > MATCH_TOL * (1.0 + abs(value)):
        return [f"dual bound {d!r} does not close on the recovered objective {obj!r}"]
    return []


def check_trace(prob, reduction: dict) -> list[str]:
    """Strictly decreasing ranks ending at n within p steps, small drift."""
    trace = reduction.get("trace") or []
    if not reduction.get("succeeded") or not trace:
        return [f"reduction did not succeed: {reduction.get('reason')}"]
    ranks = [step["rank"] for step in trace]
    bad = []
    if any(a <= b for a, b in zip(ranks, ranks[1:])):
        bad.append(f"reduction ranks not strictly decreasing: {ranks}")
    if ranks[-1] != prob.n:
        bad.append(f"reduction ends at rank {ranks[-1]}, expected n = {prob.n}")
    if len(trace) - 1 > prob.p:
        bad.append(f"reduction took {len(trace) - 1} steps, more than p = {prob.p}")
    drift = max(step["max_drift"] for step in trace)
    if drift > DRIFT_TOL:
        bad.append(f"reduction drift {drift:.3e} exceeds {DRIFT_TOL:.0e}")
    return bad


def check_oracle(prob, value: float | None, oracle: dict | None) -> list[str]:
    """Oracle points are feasible, their values match, and never beat the
    relaxation."""
    if oracle is None:
        return ["oracle requested but absent from the report"]
    if oracle.get("value") is None:
        return [f"oracle found no feasible point: {oracle.get('error')}"]
    X = np.asarray(oracle["X"], dtype=float)
    bad = point_problems(prob, X, "oracle point")
    ov = float(oracle["value"])
    if abs(trace_value(prob.A0, X) - ov) > VALUE_TOL * (1.0 + abs(ov)):
        bad.append(f"oracle value {ov!r} is not the objective of its point")
    if value is not None and ov < value - VALUE_TOL:
        bad.append(f"oracle value {ov!r} below the relaxation value {value!r}")
    return bad


def check_report(inst, report: dict, with_oracle: bool) -> list[str]:
    """Every check that applies to ``inst``; see the module docstring.

    A ``numerical-failure`` status is a failed operation, not a wrong
    answer, and is counted by the caller.
    """
    prob = inst.problem
    relax = report["relaxation"]
    status = relax["status"]
    if inst.expect == "infeasible":
        return [] if status == "infeasible" else [f"status {status!r}, expected 'infeasible'"]
    if status != "optimal":
        return [f"status {status!r}, expected 'optimal'"]
    value = float(relax["value"])
    bad = []
    if inst.expect == "gap":
        if abs(value - inst.relax_value) > VALUE_TOL:
            bad.append(f"relaxation value {value!r}, paper value {inst.relax_value!r}")
        if report["exact_recovery"] is not False:
            bad.append(f"gap instance has exact_recovery = {report['exact_recovery']!r}")
    else:
        bad += check_value_bounds(prob, value, inst.Xbar)
        if inst.exact_regime:
            bad += check_trace(prob, report["reduction"])
            bad += check_recovered(prob, value, report["recovered"])
            if report["recovered"] is not None:
                if report["exact_recovery"] is not True:
                    bad.append("exact regime but exact_recovery is not true")
                if not bad:
                    bad += check_duality(prob, value, report["recovered"], report["certificate"])
    if with_oracle:
        bad += check_oracle(prob, value, report["oracle"])
        if inst.expect == "gap" and report["oracle"] and report["oracle"].get("value") is not None:
            ov = float(report["oracle"]["value"])
            if ov < inst.manifold_value - VALUE_TOL:
                bad.append(f"oracle value {ov!r} below the paper's optimum {inst.manifold_value!r}")
    return bad
