"""Tests for joint-range membership and recovery."""

import numpy as np

import els.rangeprobe
from els.linalg import random_stiefel, thin_svd
from els.problem import StiefelPoint
from els.rangeprobe import RangeQuery, membership_g2, probe_rows, recover_g1
from els.reduction import InexactnessReport
from els.solver import SolverConfig

CFG = SolverConfig(tol=1e-10)


def image(matrices, X):
    return np.array([float(np.trace(A @ X)) for A in matrices])


def test_membership_image_of_stiefel_point():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n, p, k = 5, 2, 2
        matrices = [rng.standard_normal((p, n)) for _ in range(k)]
        X = random_stiefel(n, p, rng)
        q = RangeQuery(matrices=matrices, target=image(matrices, X))
        member = membership_g2(q, CFG)
        assert member.feasible
        assert member.max_residual <= 1e-7


def test_membership_rejects_out_of_reach_target():
    # |tr(A X)| over the ball is at most the singular-value sum, here 1
    A = np.array([[1.0, 0.0]])
    assert thin_svd(A)[1].sum() == 1.0
    q = RangeQuery(matrices=[A], target=np.array([2.0]))
    assert not membership_g2(q, CFG).feasible


def test_membership_zero_target_trivial():
    rng = np.random.default_rng(1)
    matrices = [rng.standard_normal((2, 4)) for _ in range(3)]
    q = RangeQuery(matrices=matrices, target=np.zeros(3))
    member = membership_g2(q, CFG)
    assert member.feasible and member.max_residual <= 1e-9


def test_recover_midpoints_in_guarantee_regime():
    rng = np.random.default_rng(2)
    for n, p, k in ((4, 1, 2), (5, 2, 2)):
        for _ in range(5):
            matrices = [rng.standard_normal((p, n)) for _ in range(k)]
            X1 = random_stiefel(n, p, rng)
            X2 = random_stiefel(n, p, rng)
            t = float(rng.uniform(0.0, 1.0))
            target = t * image(matrices, X1) + (1.0 - t) * image(matrices, X2)
            outcome = recover_g1(RangeQuery(matrices=matrices, target=target), CFG)
            assert isinstance(outcome, StiefelPoint)
            assert outcome.orth_residual <= 1e-6
            assert np.abs(image(matrices, outcome.X) - target).max() <= 1e-6


def test_recover_fails_off_the_circle():
    # fixing both coordinates at -0.3 is inside the disc but off the circle,
    # so membership holds while recovery must fail (p=1, n=2, k=2: outside
    # the guarantee regime); the circle equation 0.3^2 + 0.3^2 != 1 is the
    # oracle here
    matrices = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
    target = np.array([-0.3, -0.3])
    assert not np.isclose(np.sum(target**2), 1.0)
    q = RangeQuery(matrices=matrices, target=target)
    assert membership_g2(q, CFG).feasible
    outcome = recover_g1(q, CFG)
    assert isinstance(outcome, InexactnessReport)


def test_recover_with_vacuous_functional():
    # a zero functional constrains nothing, so recovery amounts to producing
    # any point with orthonormal columns
    A = np.zeros((2, 4))
    outcome = recover_g1(RangeQuery(matrices=[A], target=np.zeros(1)), CFG)
    assert isinstance(outcome, StiefelPoint)
    assert outcome.orth_residual <= 1e-6


def test_images_of_stiefel_samples_always_members():
    rng = np.random.default_rng(4)
    n, p, k = 4, 2, 3
    matrices = [rng.standard_normal((p, n)) for _ in range(k)]
    for _ in range(10):
        X = random_stiefel(n, p, rng)
        q = RangeQuery(matrices=matrices, target=image(matrices, X))
        assert membership_g2(q, CFG).feasible


def test_probe_rows_shape():
    rng = np.random.default_rng(5)
    matrices = [rng.standard_normal((1, 3)) for _ in range(2)]
    X = random_stiefel(3, 1, rng)
    rows = probe_rows(
        [
            RangeQuery(matrices=matrices, target=image(matrices, X)),
            RangeQuery(matrices=matrices, target=np.array([10.0, 10.0])),
        ],
        CFG,
    )
    assert rows[0]["g2_feasible"] and rows[0]["g1_recovered"]
    assert rows[0]["residual"] <= 1e-6
    assert not rows[1]["g2_feasible"] and not rows[1]["g1_recovered"]


def test_probe_rows_solves_each_query_once(monkeypatch):
    rng = np.random.default_rng(6)
    matrices = [rng.standard_normal((2, 5)) for _ in range(2)]
    query = RangeQuery(matrices=matrices, target=image(matrices, random_stiefel(5, 2, rng)))
    member = membership_g2(query, CFG)
    outcome = recover_g1(query, CFG)
    assert member.feasible and isinstance(outcome, StiefelPoint)
    expected = {
        "target": query.target.tolist(),
        "g2_feasible": True,
        "g1_recovered": True,
        "residual": outcome.max_residual,
    }

    calls = []
    solve_cr = els.rangeprobe.solve_cr

    def counting_solve_cr(*args, **kwargs):
        calls.append(args)
        return solve_cr(*args, **kwargs)

    monkeypatch.setattr(els.rangeprobe, "solve_cr", counting_solve_cr)
    assert probe_rows([query], CFG) == [expected]
    assert len(calls) == 1
