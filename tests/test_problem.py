"""Tests for the problem model, file format and fixtures."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from els.errors import ParseError, UnknownFixture, ValidationError
from els.fixtures import build_fixture
from els.problem import (
    ElsProblem,
    LinearConstraint,
    MinimaxPiece,
    MinimaxProblem,
    parse_minimax_problem,
    parse_point,
    parse_problem,
    residuals,
    serialize_minimax_problem,
    serialize_problem,
)


def test_parse_example_4_1_file():
    text = json.dumps(
        {
            "n": 2,
            "p": 1,
            "A0": [[-1.0, -1.0]],
            "constraints": [
                {"A": [[1.0, 0.0]], "lower": "-inf", "upper": 0.0},
                {"A": [[0.0, 1.0]], "lower": "-inf", "upper": 0.0},
            ],
        }
    )
    prob = parse_problem(text)
    assert (prob.n, prob.p, prob.k) == (2, 1, 2)
    assert prob == build_fixture("example-4.1")


def test_parse_empty_constraints():
    prob = parse_problem('{"n": 3, "p": 2, "A0": [[0, 0, 0], [1, 0, 0]]}')
    assert prob.k == 0


def test_parse_rejects_p_greater_than_n():
    with pytest.raises(ValidationError):
        parse_problem('{"n": 1, "p": 2, "A0": [[0], [0]]}')


def test_parse_rejects_malformed():
    with pytest.raises(ParseError, match="line"):
        parse_problem("{not json")
    with pytest.raises(ParseError, match="A0"):
        parse_problem('{"n": 2, "p": 1}')
    with pytest.raises(ParseError):
        parse_problem('{"n": 2, "p": 1, "A0": [[1, 2]], "constraints": [{"A": [[1, 0]], "lower": "oops"}]}')
    with pytest.raises(ParseError, match="A0 rows must have equal lengths"):
        parse_problem('{"n": 3, "p": 2, "A0": [[1, 0, 0], [0, 1]]}')
    with pytest.raises(ParseError, match="constraint 0 matrix rows"):
        parse_problem('{"n": 2, "p": 2, "A0": [[1, 0], [0, 1]], "constraints": [{"A": [[1], [0, 1]]}]}')
    with pytest.raises(ParseError, match="piece 0 rows"):
        parse_minimax_problem('{"n": 2, "p": 2, "A0": [[0, 0], [0, 0]], "pieces": [{"A": [[1], [1, 0]]}]}')


def test_parse_rejects_bad_bounds():
    with pytest.raises(ValidationError):
        parse_problem(
            '{"n": 2, "p": 1, "A0": [[1, 2]],'
            ' "constraints": [{"A": [[1, 0]], "lower": 2.0, "upper": 1.0}]}'
        )


def test_roundtrip_is_identity():
    prob = build_fixture("partition", a=[3.0, 1.0, -2.0])
    text = serialize_problem(prob)
    again = parse_problem(text)
    assert again == prob
    assert serialize_problem(again) == text


def test_roundtrip_preserves_awkward_floats():
    prob = ElsProblem(
        n=2,
        p=1,
        A0=np.array([[0.1, 1.0 / 3.0]]),
        constraints=[LinearConstraint(A=np.array([[math.pi, -0.3]]), lower=-1e-17, upper=2.5)],
    )
    assert parse_problem(serialize_problem(prob)) == prob


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1e-300, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def problems(draw):
    """Problems with awkward entries, k = 0 included, and +-inf and -0.0
    bounds."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, n))
    k = draw(st.integers(0, 3))

    def matrix():
        return np.array(draw(st.lists(_ENTRIES, min_size=p * n, max_size=p * n))).reshape(p, n)

    constraints = []
    for _ in range(k):
        lower = draw(st.one_of(st.just(-math.inf), _ENTRIES))
        upper = draw(st.one_of(st.just(math.inf), _ENTRIES))
        if lower > upper:
            lower, upper = upper, lower
        constraints.append(LinearConstraint(A=matrix(), lower=lower, upper=upper))
    return ElsProblem(n=n, p=p, A0=matrix(), constraints=constraints)


def _bits(prob):
    """Every number of the problem as raw bytes, so -0.0 differs from 0.0."""
    arrays = [prob.A0] + [c.A for c in prob.constraints] + list(prob.bounds())
    return (prob.n, prob.p, prob.k, [np.asarray(a).tobytes() for a in arrays])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(prob=problems())
def test_property_parse_serialize_is_identity(prob):
    text = serialize_problem(prob)
    again = parse_problem(text)
    assert again == prob
    assert _bits(again) == _bits(prob)
    assert serialize_problem(again) == text


def test_residuals_active_constraint():
    prob = build_fixture("example-5.1")
    point = residuals(prob, np.array([[0.0], [1.0]]))
    assert point.orth_residual == 0.0
    assert point.lin_residuals.tolist() == [0.0]
    assert point.feasible(1e-12)


def test_residuals_zero_matrix():
    prob = ElsProblem(n=4, p=2, A0=np.zeros((2, 4)))
    point = residuals(prob, np.zeros((4, 2)))
    assert abs(point.orth_residual - math.sqrt(2)) <= 1e-15


def test_residuals_relaxation_feasible_point():
    # the witness of the p=2, n=3 gap instance: feasible for the relaxation
    # but one orthonormality defect of size 1
    prob = build_fixture("example-4.2")
    Xbar = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    gram = Xbar.T @ Xbar
    assert np.allclose(gram, np.diag([0.0, 1.0]))
    point = residuals(prob, Xbar)
    assert abs(point.orth_residual - np.linalg.norm(gram - np.eye(2))) <= 1e-15
    assert point.orth_residual == pytest.approx(1.0)
    assert np.all(point.lin_residuals == 0.0)


def test_residuals_shape_check():
    prob = build_fixture("example-4.2")
    with pytest.raises(ValidationError):
        residuals(prob, np.zeros((2, 3)))


def test_residuals_ignore_infinite_bounds_constraint():
    base = build_fixture("example-5.1")
    extended = ElsProblem(
        n=base.n,
        p=base.p,
        A0=base.A0,
        constraints=list(base.constraints) + [LinearConstraint(A=np.ones((1, 2)))],
    )
    X = np.array([[0.0], [1.0]])
    r0 = residuals(base, X)
    r1 = residuals(extended, X)
    assert r1.lin_residuals.size == r0.lin_residuals.size + 1
    assert r1.lin_residuals[-1] == 0.0
    assert np.array_equal(r0.lin_residuals, r1.lin_residuals[:-1])


def test_fixture_example_5_1():
    prob = build_fixture("example-5.1")
    assert (prob.n, prob.p, prob.k) == (2, 1, 1)
    assert np.array_equal(prob.A0, [[-1.0, -2.0]])
    c = prob.constraints[0]
    assert np.array_equal(c.A, [[1.0, 0.0]]) and c.upper == 0.0 and c.lower == -math.inf


def test_fixture_partition_counts():
    prob = build_fixture("partition", a=(1.0, 1.0))
    assert (prob.n, prob.p, prob.k) == (2, 1, 3)
    bound = 1.0 / math.sqrt(2.0)
    assert prob.constraints[1].upper == pytest.approx(bound)
    # a feasible sign corner scaled to the sphere
    X = np.array([[bound], [-bound]])
    assert residuals(prob, X).feasible(1e-12)


def test_fixture_assignment():
    prob = build_fixture("assignment", A0=np.eye(2))
    assert (prob.n, prob.p, prob.k) == (2, 2, 4)
    for P in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])):
        assert residuals(prob, P).feasible(1e-12)


def test_fixture_binary_lp_feasible_corner():
    A = np.array([[1.0, 1.0]])
    prob = build_fixture("binary-lp", A=A, a=[1.0, -1.0], b=[0.0])
    assert prob.k == 1 + 2
    X = np.array([[-0.5], [0.5]]) * math.sqrt(2.0)  # y = (-1, 1) rescaled
    assert residuals(prob, X).feasible(1e-12)


def test_fixture_dispersion_is_minimax():
    mm = build_fixture("dispersion", w=[1.0, 2.0], d=[[1.0, 0.0], [0.0, 1.0]])
    assert isinstance(mm, MinimaxProblem)
    assert mm.m == 2
    # on the sphere each piece equals -w * ||x - d||^2
    x = np.array([[0.6], [0.8]])
    for piece, w, d in zip(mm.pieces, [1.0, 2.0], [np.array([1.0, 0.0]), np.array([0.0, 1.0])]):
        val = float(np.trace(piece.A @ x)) + piece.c
        assert val == pytest.approx(-w * np.linalg.norm(x.ravel() - d) ** 2)


def test_fixture_unknown_name():
    with pytest.raises(UnknownFixture):
        build_fixture("example-9.9")


def test_minimax_file_roundtrip():
    mm = build_fixture("dispersion", w=[1.0], d=[[0.5, 0.5, 0.0]])
    text = serialize_minimax_problem(mm)
    again = parse_minimax_problem(text)
    assert again.base == mm.base
    assert len(again.pieces) == 1
    assert np.array_equal(again.pieces[0].A, mm.pieces[0].A)
    assert again.pieces[0].c == mm.pieces[0].c


def test_point_file_parsing():
    prob = build_fixture("example-5.1")
    X = parse_point('{"X": [[0.0], [1.0]]}', prob)
    assert X.shape == (2, 1)
    with pytest.raises(ValidationError):
        parse_point('{"X": [[0.0, 1.0]]}', prob)
    with pytest.raises(ParseError):
        parse_point('{"Y": []}')


def test_stacked_values_match_per_constraint_loop():
    # The stacked (k, p, n) trace is bit-identical to one np.trace per row.
    rng = np.random.default_rng(270)
    shapes = [(2, 1, 2), (3, 2, 1), (6, 2, 3), (12, 4, 4), (20, 6, 6), (30, 10, 8), (60, 15, 10)]
    cases = 0
    for n, p, k in shapes:
        for _ in range(270 // len(shapes) + 1):
            X = rng.standard_normal((n, p))
            cons = []
            for i in range(k):
                lo, up = sorted(rng.standard_normal(2))
                lower, upper = [(lo, up), (lo, lo), (-math.inf, up), (lo, math.inf)][i % 4]
                cons.append(LinearConstraint(A=rng.standard_normal((p, n)), lower=lower, upper=upper))
            prob = ElsProblem(n=n, p=p, A0=rng.standard_normal((p, n)), constraints=cons)
            loop = np.array([float(np.trace(c.A @ X)) for c in cons])
            assert np.array_equal(prob.constraint_values(X), loop)
            point = residuals(prob, X)
            assert np.array_equal(point.lin_residuals, [c.violation(v) for c, v in zip(cons, loop)])
            mm = MinimaxProblem(base=prob, pieces=[MinimaxPiece(A=c.A, c=c.upper) for c in cons[:1]])
            if cons:
                assert np.array_equal(mm.piece_values(X), [float(np.trace(cons[0].A @ X)) + cons[0].upper])
            cases += 1
    assert cases >= 270


def test_values_read_bounds_at_call_time():
    prob = ElsProblem(n=2, p=1, A0=np.zeros((1, 2)), constraints=[LinearConstraint(A=np.array([[1.0, 0.0]]))])
    X = np.array([[1.0], [0.0]])
    assert residuals(prob, X).lin_residuals.tolist() == [0.0]
    prob.constraints[0].upper = 0.25  # set after the problem is built
    assert residuals(prob, X).lin_residuals.tolist() == [0.75]
    assert prob.constraint_values(np.zeros((2, 1))).shape == (1,)
    assert ElsProblem(n=2, p=1, A0=np.zeros((1, 2))).constraint_values(X).shape == (0,)
