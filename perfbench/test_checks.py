"""The benchmark's checks accept real reports and reject wrong ones.

    python3 -m pytest -q perfbench/test_checks.py

Each test takes a report the pipeline really produced, breaks one thing in
it, and asserts that the matching check rejects it, so that no check is
vacuous.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from els.pipeline import solve_report  # noqa: E402


@pytest.fixture(scope="module")
def slack():
    inst = workloads._slack_instance(np.random.default_rng(7), 6, 2, 2)
    return inst, solve_report(inst.problem)


@pytest.fixture(scope="module")
def feasibility():
    inst = workloads._feasibility_instance(np.random.default_rng(7), 6, 2, 2)
    return inst, solve_report(inst.problem)


@pytest.fixture(scope="module")
def gap():
    inst = workloads.gap_instances()[0]
    return inst, solve_report(inst.problem)


def test_real_reports_pass(slack, feasibility, gap):
    for inst, report in (slack, feasibility, gap):
        assert checks.check_report(inst, report, with_oracle=False) == []
    assert len(feasibility[1]["reduction"]["trace"]) > 1  # the trace check has steps to judge


def test_perturbed_point_is_rejected(slack):
    inst, report = slack
    bad = copy.deepcopy(report)
    bad["recovered"]["X"][0][0] += 1e-3
    assert any("orthonormality" in m for m in checks.check_report(inst, bad, False))


def test_point_outside_a_bound_is_rejected(slack):
    inst, report = slack
    con = inst.problem.constraints[0]
    X = np.array(report["recovered"]["X"])
    assert checks.point_problems(inst.problem, X, "x") == []
    shifted = copy.deepcopy(inst)
    width = con.upper - con.lower
    shifted.problem.constraints[0].upper = checks.trace_value(con.A, X) - 0.1 * width
    assert any("above upper" in m for m in checks.point_problems(shifted.problem, X, "x"))


def test_value_below_the_dual_bound_is_rejected(slack):
    inst, report = slack
    bad = copy.deepcopy(report)
    bad["relaxation"]["value"] = -checks.nuclear_norm(inst.problem.A0) - 0.01
    problems = checks.check_report(inst, bad, False)
    assert any("below -||A0||_*" in m for m in problems)


def test_value_above_the_feasible_point_is_rejected(slack):
    inst, report = slack
    bad = copy.deepcopy(report)
    bad["relaxation"]["value"] = checks.trace_value(inst.problem.A0, inst.Xbar) + 0.01
    assert any("exceeds tr(A0 Xbar)" in m for m in checks.check_report(inst, bad, False))


def test_recovered_objective_off_the_relaxation_value_is_rejected(slack):
    inst, report = slack
    bad = copy.deepcopy(report)
    bad["relaxation"]["value"] -= 1e-3
    assert any("differs from relaxation value" in m for m in checks.check_report(inst, bad, False))


def test_multipliers_that_do_not_close_the_gap_are_rejected(slack):
    inst, report = slack
    lam = report["certificate"]["lambda"]
    assert any(x != 0.0 for x in lam), "the instance should have an active bound"
    scaled = copy.deepcopy(report)
    scaled["certificate"]["lambda"] = [2.0 * x for x in lam]
    assert any("does not close" in m for m in checks.check_report(inst, scaled, False))
    flipped = copy.deepcopy(report)
    flipped["certificate"]["lambda"] = [-x for x in lam]
    assert any("bound" in m for m in checks.check_report(inst, flipped, False))


def test_gap_instance_marked_exact_is_rejected(gap):
    inst, report = gap
    bad = copy.deepcopy(report)
    bad["exact_recovery"] = True
    assert any("exact_recovery" in m for m in checks.check_report(inst, bad, False))
    bad = copy.deepcopy(report)
    bad["relaxation"]["value"] = inst.manifold_value
    assert any("paper value" in m for m in checks.check_report(inst, bad, False))


def test_non_monotone_trace_is_rejected(feasibility):
    inst, report = feasibility
    bad = copy.deepcopy(report)
    trace = bad["reduction"]["trace"]
    trace[0]["rank"], trace[1]["rank"] = trace[1]["rank"], trace[0]["rank"]
    assert any("strictly decreasing" in m for m in checks.check_report(inst, bad, False))
    bad = copy.deepcopy(report)
    bad["reduction"]["trace"][-1]["max_drift"] = 1e-6
    assert any("drift" in m for m in checks.check_report(inst, bad, False))


def test_infeasible_instance_reported_optimal_is_rejected(slack):
    inst, report = slack
    beyond = copy.deepcopy(inst)
    beyond.expect = "infeasible"
    assert any("expected 'infeasible'" in m for m in checks.check_report(beyond, report, False))


def test_oracle_point_below_the_relaxation_or_infeasible_is_rejected(slack):
    inst, report = slack
    value = report["relaxation"]["value"]
    X = np.array(report["recovered"]["X"])
    good = {"value": checks.trace_value(inst.problem.A0, X), "X": X.tolist()}
    assert checks.check_oracle(inst.problem, value, good) == []
    assert any("below the relaxation" in m for m in checks.check_oracle(inst.problem, value + 1.0, good))
    skewed = dict(good, X=(1.01 * X).tolist())
    assert any("orthonormality" in m for m in checks.check_oracle(inst.problem, value, skewed))


def test_canonical_ignores_only_timings(slack):
    _, report = slack
    other = copy.deepcopy(report)
    other["timings"] = {"relaxation": 123.0}
    assert checks.canonical(other) == checks.canonical(report)
    other["relaxation"]["gap_estimate"] = 1.0
    assert checks.canonical(other) != checks.canonical(report)
