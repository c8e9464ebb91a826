"""Tests for multiplier fitting, LICQ and the global certificate."""

from pathlib import Path

import numpy as np
import pytest

from els.certificate import (
    KktFit,
    _critical_form,
    active_set,
    certify_global,
    critical_subspace,
    fit_multipliers,
    licq_check,
    second_order_check,
)
from els.errors import InvalidInput
from els.fixtures import build_fixture
from els.linalg import random_stiefel, symmetric_basis, thin_svd
from els.pipeline import solve_report
from els.problem import ElsProblem, LinearConstraint, parse_problem, residuals
from els.solver import solve_ls_svd
from tests.test_linalg import _brute_signed_lstsq

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_fit_multipliers_global_point():
    # hand solve of (-1,-2)^T + lam (1,0)^T + (0,1)^T L = 0 gives lam=1, L=2
    prob = build_fixture("example-5.1")
    X = np.array([[0.0], [1.0]])
    fit = fit_multipliers(prob, X, active_set(prob, X))
    assert fit.lam[0] == pytest.approx(1.0, abs=1e-8)
    assert fit.Lambda[0, 0] == pytest.approx(2.0, abs=1e-8)
    assert fit.stationarity_residual <= 1e-10
    assert fit.complementarity_residual <= 1e-12
    assert fit.kkt_ok


def test_fit_multipliers_local_nonglobal_point():
    prob = build_fixture("example-5.1")
    X = np.array([[0.0], [-1.0]])
    fit = fit_multipliers(prob, X, active_set(prob, X))
    assert fit.lam[0] == pytest.approx(1.0, abs=1e-8)
    assert fit.Lambda[0, 0] == pytest.approx(-2.0, abs=1e-8)
    assert fit.kkt_ok


def test_fit_multipliers_svd_route():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n, p = 6, 3
        A0 = rng.standard_normal((p, n))
        prob = ElsProblem(n=n, p=p, A0=A0)
        point, _ = solve_ls_svd(A0)
        fit = fit_multipliers(prob, point.X, active_set(prob, point.X))
        assert fit.stationarity_residual <= 1e-9
        Q, sigma, _ = thin_svd(A0)
        assert np.allclose(fit.Lambda, Q @ np.diag(sigma) @ Q.T, atol=1e-8)
        assert np.linalg.eigvalsh(fit.Lambda).min() >= -1e-10


def test_fit_multipliers_rejects_infeasible_point():
    prob = build_fixture("example-5.1")
    with pytest.raises(InvalidInput):
        fit_multipliers(prob, np.array([[0.5], [0.5]]), active_set(prob, np.array([[0.5], [0.5]])))


def test_fit_scaling_covariance():
    # scaling the objective scales the fitted multipliers, verdicts unchanged
    prob = build_fixture("example-5.1")
    scaled = ElsProblem(n=2, p=1, A0=3.0 * prob.A0, constraints=prob.constraints)
    X = np.array([[0.0], [1.0]])
    f1 = fit_multipliers(prob, X, active_set(prob, X))
    f3 = fit_multipliers(scaled, X, active_set(scaled, X))
    assert np.allclose(3.0 * f1.lam, f3.lam, atol=1e-8)
    assert np.allclose(3.0 * f1.Lambda, f3.Lambda, atol=1e-8)
    assert certify_global(prob, X).is_global == certify_global(scaled, X).is_global


def test_licq_rank_change_instance():
    prob = build_fixture("example-5.2")
    Xbar = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    Xtil = np.array(
        [
            [0.5, 0.0],
            [0.5, np.sqrt(2.0) / 2.0],
            [0.0, 0.5],
            [np.sqrt(2.0) / 2.0, -0.5],
        ]
    )
    for X in (Xbar, Xtil):
        assert residuals(prob, X).feasible(1e-9)
    licq_bar, rank_bar = licq_check(prob, Xbar, active_set(prob, Xbar))
    licq_til, rank_til = licq_check(prob, Xtil, active_set(prob, Xtil))
    assert rank_bar == 3 and not licq_bar
    assert rank_til == 4 and licq_til


def test_licq_unconstrained_always_holds():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        prob = ElsProblem(n=n, p=p, A0=rng.standard_normal((p, n)))
        X = random_stiefel(n, p, rng)
        licq, rank = licq_check(prob, X, active_set(prob, X))
        assert licq and rank == p * (p + 1) // 2


def test_licq_invariant_under_orthogonal_column_mixing():
    rng = np.random.default_rng(2)
    prob = build_fixture("example-5.2")
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    Q = random_stiefel(2, 2, rng)
    # rotating the columns together with the constraint matrix preserves
    # the constraint values and the Jacobian rank
    rotated = ElsProblem(
        n=prob.n,
        p=prob.p,
        A0=prob.A0,
        constraints=[
            LinearConstraint(A=Q.T @ c.A, lower=c.lower, upper=c.upper)
            for c in prob.constraints
        ],
    )
    _, rank0 = licq_check(prob, X, active_set(prob, X))
    _, rank1 = licq_check(rotated, X @ Q, active_set(rotated, X @ Q))
    assert rank0 == rank1


def test_second_order_vacuous_on_zero_subspace():
    prob = build_fixture("example-5.1")
    X = np.array([[0.0], [1.0]])
    act = active_set(prob, X)
    assert critical_subspace(prob, X, act).shape[1] == 0
    fit = fit_multipliers(prob, X, act)
    assert second_order_check(prob, X, act, fit)


def test_second_order_psd_lambda_always_passes():
    rng = np.random.default_rng(3)
    n, p = 6, 2
    prob = ElsProblem(n=n, p=p, A0=rng.standard_normal((p, n)))
    point, _ = solve_ls_svd(prob.A0)
    act = active_set(prob, point.X)
    fit = fit_multipliers(prob, point.X, act)
    assert second_order_check(prob, point.X, act, fit)


def test_second_order_detects_indefinite_lambda():
    rng = np.random.default_rng(4)
    n, p = 5, 2
    prob = ElsProblem(n=n, p=p, A0=np.zeros((p, n)))
    X = random_stiefel(n, p, rng)
    fake = KktFit(
        lam=np.zeros(0),
        Lambda=np.diag([1.0, -1.0]),
        stationarity_residual=0.0,
        complementarity_residual=0.0,
        kkt_ok=True,
    )
    assert not second_order_check(prob, X, active_set(prob, X), fake)


def test_certify_global_routes():
    prob = build_fixture("example-5.1")
    up = certify_global(prob, np.array([[0.0], [1.0]]))
    assert up.is_global and up.route == "lemma-5.1"
    down = certify_global(prob, np.array([[0.0], [-1.0]]))
    assert not down.is_global and down.route == "none"
    assert not down.lambda_psd
    # the local route is unavailable: p + 1 = 2 > n - k = 1
    assert down.kkt_ok and down.licq


def test_certify_svd_solution_global():
    rng = np.random.default_rng(5)
    A0 = rng.standard_normal((2, 5))
    prob = ElsProblem(n=5, p=2, A0=A0)
    point, _ = solve_ls_svd(A0)
    verdict = certify_global(prob, point.X)
    assert verdict.is_global and verdict.route == "lemma-5.1"


def test_certificate_soundness_against_search():
    # any point certified global must match the best value the search finds
    from els.oracle import oracle_solve
    from tests.test_solver import random_feasible_problem

    rng = np.random.default_rng(6)
    checked = 0
    while checked < 5:
        prob, _ = random_feasible_problem(rng, n_max=5, k_max=2)
        from els.reduction import InexactnessReport, reduce_to_stiefel
        from els.solver import SolverConfig, solve_cr

        sol = solve_cr(prob, SolverConfig(tol=1e-10))
        outcome = reduce_to_stiefel(prob, sol.X)
        if isinstance(outcome, InexactnessReport):
            continue
        point, _ = outcome
        verdict = certify_global(prob, point.X)
        if not verdict.is_global:
            continue
        value, _, _ = oracle_solve(prob, restarts=20, seed=checked)
        assert prob.objective(point.X) <= value + 1e-5
        checked += 1


def test_critical_form_matches_kronecker_product():
    rng = np.random.default_rng(40)
    for n, p, d in ((3, 1, 2), (6, 2, 5), (12, 4, 30)):
        Z = np.linalg.qr(rng.standard_normal((n * p, d)))[0]
        Lambda = rng.standard_normal((p, p))
        reference = Z.T @ np.kron(Lambda, np.eye(n)) @ Z
        assert np.allclose(_critical_form(Z, Lambda), reference, rtol=0.0, atol=1e-12)


def _explicit_columns(prob, X, act):
    """The fit as one least-squares system over explicit unknowns: a column
    A_i.T per active row (negated for lower-only rows, so every signed
    unknown is nonnegative) and X S per symmetric basis matrix S."""
    up = set(act.upper_active) | set(act.equality_active)
    lo = set(act.lower_active) | set(act.equality_active)
    flips = [-1.0 if i in lo and i not in up else 1.0 for i in act.indices]
    cols = [f * prob.constraints[i].A.T.ravel() for f, i in zip(flips, act.indices)]
    cols += [(X @ S).ravel() for S in symmetric_basis(prob.p)]
    signed = np.zeros(len(cols), dtype=bool)
    signed[: len(flips)] = [(i in up) != (i in lo) for i in act.indices]
    return np.array(cols).T, -prob.A0.T.ravel(), signed


def _bound(value, side):
    return {
        "upper": dict(upper=value),
        "lower": dict(lower=value),
        "equality": dict(lower=value, upper=value),
        "both": dict(lower=value - 1e-9, upper=value + 1e-9),
    }[side]


def test_fit_closed_form_lambda_at_non_orthonormal_point():
    # certify accepts points feasible to 1e-6; the closed-form Lambda is the
    # exact least-squares one there, not only at orthonormal X
    rng = np.random.default_rng(80)
    n, p = 6, 3
    X = random_stiefel(n, p, rng)
    X = X + 1e-7 * rng.standard_normal((n, p))
    assert 1e-8 < np.linalg.norm(X.T @ X - np.eye(p)) < 1e-6
    mats = rng.standard_normal((2, p, n))
    prob = ElsProblem(
        n=n,
        p=p,
        A0=rng.standard_normal((p, n)),
        constraints=[LinearConstraint(A=A, **_bound(np.trace(A @ X), "equality")) for A in mats],
    )
    fit = fit_multipliers(prob, X, active_set(prob, X))
    M, rhs, _ = _explicit_columns(prob, X, active_set(prob, X))
    z = np.linalg.lstsq(M, rhs, rcond=None)[0]
    Lambda = sum(c * S for c, S in zip(z[2:], symmetric_basis(p)))
    assert np.allclose(fit.lam, z[:2], rtol=0.0, atol=1e-10)
    assert np.allclose(fit.Lambda, Lambda, rtol=0.0, atol=1e-10)
    assert fit.stationarity_residual == pytest.approx(np.linalg.norm(M @ z - rhs), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_fit_with_more_unknowns_than_equations(n):
    # p = n as in example-4.3; with four active rows the p(p+1)/2 + 4
    # unknowns outnumber the n p equations
    rng = np.random.default_rng(81 + n)
    p = n
    X = random_stiefel(n, p, rng)
    sides = ("upper", "lower", "equality", "both")
    prob = ElsProblem(
        n=n,
        p=p,
        A0=rng.standard_normal((p, n)),
        constraints=[
            LinearConstraint(A=A, **_bound(np.trace(A @ X), side))
            for A, side in zip(rng.standard_normal((4, p, n)), sides)
        ],
    )
    act = active_set(prob, X)
    M, rhs, signed = _explicit_columns(prob, X, act)
    assert M.shape[1] > M.shape[0]
    fit = fit_multipliers(prob, X, act)
    assert fit.stationarity_residual == pytest.approx(_brute_signed_lstsq(M, rhs, signed), abs=1e-10)
    assert all(fit.lam[i] >= 0.0 for i in act.upper_active if i not in act.lower_active)
    assert all(fit.lam[i] <= 0.0 for i in act.lower_active if i not in act.upper_active)


@pytest.mark.parametrize("side", ["upper", "equality"])
def test_fit_duplicated_row_takes_the_minimum_norm_split(side):
    # example-5.1 with its row twice: lambda_1 + lambda_2 = 1 is all the fit
    # determines; the answer is the even split, the same on every call
    base = build_fixture("example-5.1")
    row = base.constraints[0]
    prob = ElsProblem(
        n=2, p=1, A0=base.A0, constraints=[LinearConstraint(A=row.A, **_bound(0.0, side))] * 2
    )
    X = np.array([[0.0], [1.0]])
    fit = fit_multipliers(prob, X, active_set(prob, X))
    assert np.allclose(fit.lam, [0.5, 0.5], rtol=0.0, atol=1e-12)
    assert fit.Lambda[0, 0] == pytest.approx(2.0, abs=1e-12)
    again = fit_multipliers(prob, X, active_set(prob, X))
    assert np.array_equal(fit.lam, again.lam) and np.array_equal(fit.Lambda, again.Lambda)
    assert certify_global(prob, X).is_global


# The certificate blocks of `els solve` on the fixture files that reach it.
FIXTURE_VERDICTS = {
    "dispersion-example": (True, True, True, True, True, "lemma-5.1", 1),
    "example-5.1": (True, True, True, True, True, "lemma-5.1", 2),
    "example-5.2": (True, True, True, True, True, "lemma-5.1", 4),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_VERDICTS))
def test_fixture_certificate_verdicts(name):
    prob = parse_problem((FIXDIR / f"{name}.json").read_text())
    cert = solve_report(prob)["certificate"]
    fields = ("kkt_ok", "lambda_psd", "licq", "second_order_ok", "global", "route", "jacobian_rank")
    assert tuple(cert[f] for f in fields) == FIXTURE_VERDICTS[name]
