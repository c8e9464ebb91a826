"""Tests for the canonical-report comparison in tools/report_diff.py."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_diff = _load_tool()


def _entry(index=0):
    report = {
        "problem": {"n": 4, "p": 2, "k": 1, "digest": "0123456789abcdef"},
        "relaxation": {"status": "optimal", "value": 0.0, "gap_estimate": 0.0},
        "reduction": {
            "attempted": True,
            "succeeded": True,
            "reason": None,
            "trace": [
                {"rank": 6, "objective": 0.0, "max_drift": 0.0, "null_dim": 5},
                {"rank": 5, "objective": 0.0, "max_drift": 1e-16, "null_dim": 1},
                {"rank": 4, "objective": 0.0, "max_drift": 2e-16, "null_dim": 0},
            ],
        },
        "recovered": {"X": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], "objective": 0.0, "exact": True},
        "certificate": {"global": True, "licq": True, "route": "psd", "jacobian_rank": 4, "lambda": [0.0]},
        "exact_recovery": True,
        "oracle": {
            "value": -1.0,
            "X": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "max_residual": 1e-15,
            "starts": 60,
            "feasible_starts": 58,
            "winner": {"kind": "restart", "index": 3},
        },
    }
    return {"workload": "w", "seed": 301, "index": index, "instance": "i", "report": report, "checks": []}


def _diff(tmp_path, capsys, edit):
    old = [_entry(0), _entry(1)]
    new = copy.deepcopy(old)
    edit(new[1]["report"])
    (tmp_path / "old.json").write_text(json.dumps({"reports": old}))
    (tmp_path / "new.json").write_text(json.dumps({"reports": new}))
    code = report_diff.diff(tmp_path / "old.json", tmp_path / "new.json")
    return code, capsys.readouterr().out


def test_identical_reports_pass(tmp_path, capsys):
    code, out = _diff(tmp_path, capsys, lambda r: None)
    assert code == 0
    assert "2 reports compared" in out and "no field changed" in out


def test_point_and_rounding_changes_are_listed_not_failed(tmp_path, capsys):
    def edit(r):
        r["problem"]["digest"] = "fedcba9876543210"
        r["recovered"]["X"][0] = [0.0, 1.0]
        r["recovered"]["X"][1] = [1.0, 0.0]
        r["recovered"]["objective"] = 4e-6
        r["reduction"]["trace"][2]["max_drift"] = 3e-16

    code, out = _diff(tmp_path, capsys, edit)
    assert code == 0
    assert "problem.digest: 1" in out
    assert "recovered.X: 1, 1" in out
    assert "reduction.trace[*].max_drift: 1, 1e-16" in out
    assert "MISMATCH" not in out


def test_oracle_point_and_winner_changes_are_listed_not_failed(tmp_path, capsys):
    def edit(r):
        r["oracle"]["X"][0] = [1.0, 0.0]
        r["oracle"]["X"][1] = [0.0, 1.0]
        r["oracle"]["max_residual"] = 9e-13
        r["oracle"]["winner"] = {"kind": "grid", "index": 15}
        r["oracle"]["value"] = -1.0 - 1.5e-9  # within 1e-9 * (1 + |v|) = 2e-9

    code, out = _diff(tmp_path, capsys, edit)
    assert code == 0
    assert "oracle.X: 1, 1" in out
    assert "oracle.winner.kind: 1" in out and "oracle.winner.index: 1, 12" in out
    assert "oracle.value: 1" in out
    assert "MISMATCH" not in out


def _no_oracle_value(r):
    r["oracle"] = {"value": None, "error": "no feasible point found (inconclusive)",
                   "starts": 60, "feasible_starts": 0, "winner": None}


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["relaxation"].update(status="numerical-failure"),
        lambda r: r["oracle"].update(starts=61),
        lambda r: r["oracle"].update(feasible_starts=57),
        lambda r: r["oracle"].update(value=-1.0 - 3e-9),
        _no_oracle_value,
        lambda r: r["reduction"]["trace"][1].update(null_dim=2),
        lambda r: r["reduction"]["trace"][1].update(rank=4),
        lambda r: r["reduction"]["trace"].pop(),
        lambda r: r.update(exact_recovery=False),
        lambda r: r["certificate"].update({"global": False}),
        lambda r: r.update(certificate=None),
        lambda r: r["recovered"].update(objective=2e-5),
        lambda r: r["certificate"].update(jacobian_rank=3),
    ],
)
def test_verdict_changes_fail(tmp_path, capsys, edit):
    code, out = _diff(tmp_path, capsys, edit)
    assert code == 1
    assert "MISMATCH w seed 301 #1" in out


def test_missing_report_fails(tmp_path, capsys):
    (tmp_path / "old.json").write_text(json.dumps({"reports": [_entry(0), _entry(1)]}))
    (tmp_path / "new.json").write_text(json.dumps({"reports": [_entry(0)]}))
    code = report_diff.diff(tmp_path / "old.json", tmp_path / "new.json")
    assert code == 1
    assert "report sets differ" in capsys.readouterr().out
