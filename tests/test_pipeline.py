"""Tests for report assembly."""

import json

import numpy as np
import pytest

from els.fixtures import build_fixture
from els.pipeline import certify_report, solve_report
from els.problem import ElsProblem
from tests.test_solver import random_feasible_problem


def test_solve_report_exact_instance():
    rng = np.random.default_rng(0)
    prob, _ = random_feasible_problem(rng, n_max=5, k_max=2)
    report = solve_report(prob, with_oracle=True, restarts=15, seed=3)
    assert report["problem"]["n"] == prob.n
    assert report["conditions"]["exact"] is True
    assert report["relaxation"]["status"] == "optimal"
    assert report["reduction"]["succeeded"] is True
    assert report["exact_recovery"] is True
    rec = report["recovered"]
    assert rec["objective_gap"] <= 1e-5 * (1.0 + abs(report["relaxation"]["value"]))
    assert report["certificate"] is not None
    assert report["oracle"]["value"] == pytest.approx(rec["objective"], abs=1e-5)
    oracle_block = report["oracle"]
    assert oracle_block["starts"] >= 15
    assert 1 <= oracle_block["feasible_starts"] <= oracle_block["starts"]
    assert oracle_block["winner"]["kind"] in ("restart", "grid")
    assert json.dumps(report)  # JSON-serializable end to end


def test_solve_report_gap_instance_flags():
    report = solve_report(build_fixture("example-4.3"))
    assert report["relaxation"]["value"] == pytest.approx(-2.0, abs=1e-6)
    assert report["exact_recovery"] is False
    assert report["reduction"]["succeeded"] is False
    assert report["recovered"] is None
    assert report["certificate"] is None


def test_solve_report_infeasible():
    from els.problem import LinearConstraint

    prob = ElsProblem(
        n=2,
        p=1,
        A0=np.array([[1.0, 0.0]]),
        constraints=[LinearConstraint(A=np.array([[1.0, 0.0]]), lower=2.0)],
    )
    report = solve_report(prob)
    assert report["relaxation"]["status"] == "infeasible"
    assert report["relaxation"]["value"] == "inf"
    assert report["reduction"]["attempted"] is False


def test_certify_report_shape():
    prob = build_fixture("example-5.1")
    doc = certify_report(prob, np.array([[0.0], [1.0]]))
    assert doc["certificate"]["global"] is True
    assert doc["certificate"]["lambda"] == pytest.approx([1.0], abs=1e-8)
    assert json.dumps(doc)
