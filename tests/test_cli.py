"""Tests for the command-line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from els.fixtures import build_fixture
from els.pipeline import problem_digest
from els.problem import parse_problem, serialize_minimax_problem, serialize_problem

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "els.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_check_conditions_json():
    res = run_cli("check-conditions", "--n", "6", "--p", "2", "--k", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc == {
        "n": 6,
        "p": 2,
        "k": 3,
        "beck": True,
        "exact": True,
        "no_local_nonglobal": True,
    }


def test_solve_flags_inexactness(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("solve", str(FIXDIR / "example-4.1.json"), "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert abs(doc["relaxation"]["value"]) <= 1e-6
    assert doc["relaxation"]["newton_steps"] == {"phase1": 4, "phase2": 91}
    assert doc["exact_recovery"] is False
    assert doc["reduction"]["attempted"] and not doc["reduction"]["succeeded"]
    assert doc["conditions"]["exact"] is False


def test_solve_with_oracle_reports_gap(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "solve", str(FIXDIR / "example-4.1.json"), "--with-oracle", "--restarts", "8",
        "--out", str(out),
    )
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"]["value"] == pytest.approx(1.0, abs=1e-8)


def test_certify_local_nonglobal_point(tmp_path):
    point = tmp_path / "neg.json"
    point.write_text('{"X": [[0.0], [-1.0]]}')
    res = run_cli("certify", str(FIXDIR / "example-5.1.json"), "--point", str(point))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["certificate"]["global"] is False
    assert doc["certificate"]["Lambda"][0][0] == pytest.approx(-2.0, abs=1e-8)

    point.write_text('{"X": [[0.0], [1.0]]}')
    res = run_cli("certify", str(FIXDIR / "example-5.1.json"), "--point", str(point))
    doc = json.loads(res.stdout)
    assert doc["certificate"]["global"] is True
    assert doc["certificate"]["route"] == "lemma-5.1"


def test_relax_exit_codes(tmp_path):
    bad = tmp_path / "infeasible.json"
    bad.write_text(
        json.dumps(
            {
                "n": 2,
                "p": 1,
                "A0": [[1.0, 0.0]],
                "constraints": [{"A": [[1.0, 0.0]], "lower": 2.0, "upper": "inf"}],
            }
        )
    )
    res = run_cli("relax", str(bad))
    assert res.returncode == 1

    res = run_cli("relax", str(FIXDIR / "example-4.3.json"))
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == pytest.approx(-2.0, abs=1e-6)


def test_usage_errors(tmp_path):
    res = run_cli("solve", str(tmp_path / "missing.json"))
    assert res.returncode == 3
    assert "error" in res.stderr

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    res = run_cli("solve", str(broken))
    assert res.returncode == 3

    res = run_cli("frobnicate")
    assert res.returncode == 3


def test_reports_byte_identical_modulo_timings(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        res = run_cli("solve", str(FIXDIR / "example-4.2.json"), "--seed", "5", "--out", str(out))
        assert res.returncode == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1.pop("timings"), d2.pop("timings")
    assert d1["relaxation"]["newton_steps"]["phase2"] > 0
    assert json.dumps(d1) == json.dumps(d2)


def test_seed_env_override(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli(
        "solve", str(FIXDIR / "example-5.1.json"), "--out", str(out),
        env_extra={"ELS_SEED": "31"},
    )
    assert res.returncode == 0
    assert json.loads(out.read_text())["config"]["seed"] == 31


def test_oracle_command():
    res = run_cli("oracle", str(FIXDIR / "example-4.3.json"), "--restarts", "8")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["value"] == pytest.approx(-1.0, abs=1e-8)
    assert doc["starts"] > 8  # restarts plus the angular-grid starts
    assert 1 <= doc["feasible_starts"] <= doc["starts"]
    assert doc["winner"]["kind"] in ("restart", "grid")


def test_oracle_command_without_feasible_point(tmp_path):
    prob = tmp_path / "far.json"
    prob.write_text(
        json.dumps({"n": 2, "p": 1, "A0": [[1.0, 0.0]], "constraints": [{"A": [[1.0, 0.0]], "lower": 2.0}]})
    )
    res = run_cli("oracle", str(prob), "--restarts", "4")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["value"] is None and "inconclusive" in doc["error"]
    assert doc["starts"] >= 4 and doc["feasible_starts"] == 0 and doc["winner"] is None
    digest = problem_digest(parse_problem(prob.read_text()))
    assert doc["problem"] == {"n": 2, "p": 1, "k": 1, "digest": digest}


def test_oracle_command_with_no_starts_reports_the_problem():
    # no restarts, and (4, 2) has no angular grid: nothing to polish
    res = run_cli("oracle", str(FIXDIR / "example-5.2.json"), "--restarts", "0")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["problem"]["n"] == 4 and doc["problem"]["p"] == 2 and doc["problem"]["k"] == 1
    assert len(doc["problem"]["digest"]) == 16
    assert doc["value"] is None and doc["starts"] == 0 and doc["winner"] is None


@pytest.mark.parametrize(
    "args",
    [
        ("oracle", str(FIXDIR / "example-4.2.json"), "--restarts", "-3"),
        ("solve", str(FIXDIR / "example-4.2.json"), "--with-oracle", "--restarts", "-3"),
    ],
    ids=["oracle", "solve"],
)
def test_negative_restarts_are_a_usage_error(args):
    res = run_cli(*args)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.startswith("els: error:") and "restarts" in res.stderr


def test_range_command(tmp_path):
    query = tmp_path / "query.json"
    query.write_text(
        json.dumps(
            {
                "matrices": [[[1.0, 0.0]], [[0.0, 1.0]]],
                "targets": [[-0.3, -0.3], [0.6, 0.8]],
            }
        )
    )
    res = run_cli("range", str(query))
    assert res.returncode == 0
    rows = json.loads(res.stdout)["rows"]
    assert rows[0]["g2_feasible"] and not rows[0]["g1_recovered"]
    assert rows[1]["g2_feasible"] and rows[1]["g1_recovered"]
    assert rows[1]["residual"] <= 1e-6


def test_minimax_command(tmp_path):
    mm = build_fixture("dispersion", w=[1.0, 1.0], d=[[1.0, 0.0], [-1.0, 0.0]])
    path = tmp_path / "mm.json"
    path.write_text(serialize_minimax_problem(mm))
    res = run_cli("minimax", str(path))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["value"] == pytest.approx(-2.0, abs=1e-6)
    assert doc["exact"] is True


def test_batch_continues_past_failures(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "a.json").write_text(serialize_problem(build_fixture("example-5.1")))
    (d / "b.json").write_text("{broken")
    (d / "c.json").write_text(serialize_problem(build_fixture("example-4.1")))
    res = run_cli("batch", str(d))
    assert res.returncode == 0
    rows = json.loads(res.stdout)["instances"]
    assert [r["file"] for r in rows] == ["a.json", "b.json", "c.json"]
    assert rows[0]["status"] == "optimal"
    assert rows[1]["status"] == "error"
    assert rows[2]["status"] == "optimal"


def test_batch_reports_ragged_rows_per_file(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    for name in ("example-4.1.json", "example-4.2.json"):
        (d / name).write_text((FIXDIR / name).read_text())
    (d / "ragged.json").write_text(json.dumps({"n": 3, "p": 2, "A0": [[1, 0, 0], [0, 1]]}))
    out = tmp_path / "summary.json"
    res = run_cli("batch", str(d), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = json.loads(out.read_text())["instances"]
    assert [r["file"] for r in rows] == ["example-4.1.json", "example-4.2.json", "ragged.json"]
    assert rows[0]["status"] == "optimal" and rows[1]["status"] == "optimal"
    assert rows[2]["status"] == "error"
    assert "equal lengths" in rows[2]["error"]


def test_seed_env_rejects_non_integer():
    res = run_cli(
        "solve", str(FIXDIR / "example-5.1.json"), env_extra={"ELS_SEED": "abc"},
    )
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == ["els: error: ELS_SEED must be an integer, got 'abc'"]
    # an explicit --seed does not read the variable
    res = run_cli(
        "relax", str(FIXDIR / "example-5.1.json"), "--seed", "2", env_extra={"ELS_SEED": "abc"},
    )
    assert res.returncode == 0


def test_range_command_honours_rank_tol(tmp_path):
    # zero target for one functional on R^{3x1}: the ball witness sits near
    # the origin with rank excess 1.  A threshold above every eigenvalue of
    # I - X.T X declares it rank n already, so no reduction step is taken
    # and the returned point is far from the sphere.
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"matrices": [[[1.0, 0.0, 0.0]]], "target": [0.0]}))
    res = run_cli("range", str(query))
    assert res.returncode == 0
    assert json.loads(res.stdout)["rows"][0]["residual"] <= 1e-6
    res = run_cli("range", str(query), "--rank-tol", "2.0")
    assert res.returncode == 0
    assert json.loads(res.stdout)["rows"][0]["residual"] >= 0.5
