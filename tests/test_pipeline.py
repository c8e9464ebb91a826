"""Tests for report assembly."""

import json
import math

import numpy as np
import pytest

from els.fixtures import build_fixture
from els.pipeline import certify_report, problem_digest, solve_report
from els.problem import ElsProblem, LinearConstraint, parse_problem, serialize_problem
from tests.test_solver import random_feasible_problem


def test_solve_report_exact_instance():
    rng = np.random.default_rng(0)
    prob, _ = random_feasible_problem(rng, n_max=5, k_max=2)
    report = solve_report(prob, with_oracle=True, restarts=15, seed=3)
    assert report["problem"]["n"] == prob.n
    assert report["conditions"]["exact"] is True
    assert report["relaxation"]["status"] == "optimal"
    steps = report["relaxation"]["newton_steps"]
    assert set(steps) == {"phase1", "phase2"} and steps["phase2"] > 0
    assert solve_report(prob)["relaxation"]["newton_steps"] == steps
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
    # a bound beyond the reach ||A_1||_* = 1 is decided before any Newton step
    assert report["relaxation"]["newton_steps"] == {"phase1": 0, "phase2": 0}
    assert report["reduction"]["attempted"] is False


def test_certify_report_shape():
    prob = build_fixture("example-5.1")
    doc = certify_report(prob, np.array([[0.0], [1.0]]))
    assert doc["certificate"]["global"] is True
    assert doc["certificate"]["lambda"] == pytest.approx([1.0], abs=1e-8)
    assert json.dumps(doc)


def _digest_problem():
    rng = np.random.default_rng(41)
    cons = [
        LinearConstraint(A=rng.standard_normal((2, 4)), lower=-0.5, upper=0.5),
        LinearConstraint(A=rng.standard_normal((2, 4)), upper=1.0),
        LinearConstraint(A=rng.standard_normal((2, 4)), lower=0.25, upper=0.25),
    ]
    return ElsProblem(n=4, p=2, A0=rng.standard_normal((2, 4)), constraints=cons)


def test_problem_digest_equal_problems():
    prob, same = _digest_problem(), _digest_problem()
    digest = problem_digest(prob)
    assert len(digest) == 16 and int(digest, 16) >= 0
    assert problem_digest(same) == digest
    # -0.0 compares equal to 0.0, and so does its digest
    signed = _digest_problem()
    prob.A0[0, 0] = 0.0
    signed.A0[0, 0] = -0.0
    assert signed == prob
    assert problem_digest(signed) == problem_digest(prob)


def test_problem_digest_survives_file_round_trip():
    prob = _digest_problem()
    assert problem_digest(parse_problem(serialize_problem(prob))) == problem_digest(prob)
    empty = ElsProblem(n=3, p=1, A0=np.zeros((1, 3)))
    assert problem_digest(parse_problem(serialize_problem(empty))) == problem_digest(empty)


def test_problem_digest_sees_every_entry_and_bound():
    base = problem_digest(_digest_problem())
    seen = {base}

    def changed(edit):
        prob = _digest_problem()
        edit(prob)
        digest = problem_digest(prob)
        assert digest not in seen
        seen.add(digest)

    for i in range(2):
        for j in range(4):
            changed(lambda prob: prob.A0.__setitem__((i, j), prob.A0[i, j] + 1e-12))
            for c in range(3):
                changed(lambda prob: prob.constraints[c].A.__setitem__((i, j), 2.0))
    for c in range(3):
        changed(lambda prob: setattr(prob.constraints[c], "upper", math.inf))
        changed(lambda prob: setattr(prob.constraints[c], "lower", -2.0))
    changed(lambda prob: prob.constraints.pop())
    changed(lambda prob: prob.constraints.append(prob.constraints[0]))
    # the same eight zeros under another shape
    wide = ElsProblem(n=4, p=2, A0=np.zeros((2, 4)))
    long = ElsProblem(n=8, p=1, A0=np.zeros((1, 8)))
    assert problem_digest(wide) != problem_digest(long)
