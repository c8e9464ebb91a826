"""Instance data model, file format, validation and feasibility residuals.

An instance asks to minimize tr(A0 @ X) over n x p matrices with orthonormal
columns, subject to k two-sided linear constraints
``lower_i <= tr(A_i @ X) <= upper_i``.  Equality constraints are encoded as
``lower == upper``; infinite bounds are serialized as the literal tokens
"-inf"/"inf".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import as_matrix


@dataclass
class LinearConstraint:
    """One two-sided trace constraint lower <= tr(A @ X) <= upper."""

    A: np.ndarray  # p x n
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        self.A = as_matrix(self.A, "constraint matrix")
        self.lower = float(self.lower)
        self.upper = float(self.upper)
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValidationError("constraint bounds must not be NaN")
        if self.lower == math.inf or self.upper == -math.inf:
            raise ValidationError("constraint bounds describe an empty interval")
        if self.lower > self.upper:
            raise ValidationError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    @property
    def is_equality(self) -> bool:
        return math.isfinite(self.lower) and self.lower == self.upper

    def violation(self, value: float) -> float:
        """Nonnegative amount by which ``value`` leaves [lower, upper]."""
        return max(self.lower - value, value - self.upper, 0.0)


@dataclass
class ElsProblem:
    """Problem data: dimensions, objective matrix and constraint list."""

    n: int
    p: int
    A0: np.ndarray  # p x n
    constraints: list[LinearConstraint] = field(default_factory=list)

    def __post_init__(self):
        self.n = int(self.n)
        self.p = int(self.p)
        if self.n < 1 or self.p < 1:
            raise ValidationError("dimensions must be positive")
        if self.p > self.n:
            raise ValidationError(f"p={self.p} exceeds n={self.n}")
        self.A0 = as_matrix(self.A0, "A0")
        if self.A0.shape != (self.p, self.n):
            raise ValidationError(f"A0 has shape {self.A0.shape}, expected {(self.p, self.n)}")
        for i, c in enumerate(self.constraints):
            if c.A.shape != (self.p, self.n):
                raise ValidationError(
                    f"constraint {i} has shape {c.A.shape}, expected {(self.p, self.n)}"
                )

    @property
    def k(self) -> int:
        return len(self.constraints)

    def objective(self, X) -> float:
        return float(np.trace(self.A0 @ np.asarray(X, dtype=float)))

    def constraint_values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.trace(self.constraint_matrices() @ X, axis1=1, axis2=2)

    def constraint_matrices(self) -> np.ndarray:
        """The constraint matrices stacked as a (k, p, n) array."""
        if not self.constraints:
            return np.zeros((0, self.p, self.n))
        return np.stack([c.A for c in self.constraints])

    def trace_matrices(self) -> np.ndarray:
        """A0 and the constraint matrices stacked as a (k+1, p, n) array."""
        return np.stack([self.A0] + [c.A for c in self.constraints])

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The lower and upper bounds as two length-k arrays."""
        lower = np.array([c.lower for c in self.constraints], dtype=float)
        upper = np.array([c.upper for c in self.constraints], dtype=float)
        return lower, upper

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElsProblem):
            return NotImplemented
        if (self.n, self.p, self.k) != (other.n, other.p, other.k):
            return False
        if not np.array_equal(self.A0, other.A0):
            return False
        return all(
            np.array_equal(a.A, b.A) and a.lower == b.lower and a.upper == b.upper
            for a, b in zip(self.constraints, other.constraints)
        )


@dataclass
class StiefelPoint:
    """A candidate point together with its feasibility residuals."""

    X: np.ndarray
    orth_residual: float
    lin_residuals: np.ndarray  # one nonnegative violation per constraint

    def feasible(self, tol: float) -> bool:
        if self.orth_residual > tol:
            return False
        return bool(self.lin_residuals.size == 0 or np.all(self.lin_residuals <= tol))

    @property
    def max_residual(self) -> float:
        lin = float(self.lin_residuals.max()) if self.lin_residuals.size else 0.0
        return max(self.orth_residual, lin)


def residuals(prob: ElsProblem, X) -> StiefelPoint:
    """Orthonormality and per-constraint violations of ``X``."""
    X = as_matrix(X, "X")
    if X.shape != (prob.n, prob.p):
        raise ValidationError(f"X has shape {X.shape}, expected {(prob.n, prob.p)}")
    orth = float(np.linalg.norm(X.T @ X - np.eye(prob.p)))
    return StiefelPoint(X, orth, bound_violations(prob.constraint_values(X), *prob.bounds()))


def bound_violations(values, lower, upper) -> np.ndarray:
    """Nonnegative amounts by which ``values`` leave [lower, upper], elementwise."""
    return np.maximum(np.maximum(lower - values, values - upper), 0.0)


# ---------------------------------------------------------------------------
# Problem files.  UTF-8 JSON text:
#   {"n": int, "p": int, "A0": [[p x n reals]],
#    "constraints": [{"A": [[p x n]], "lower": real|"-inf", "upper": real|"inf"}]}
# ---------------------------------------------------------------------------

def _bound_from_json(raw, what: str) -> float:
    if raw == "-inf":
        return -math.inf
    if raw == "inf":
        return math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{what} must be a number or 'inf'/'-inf', got {raw!r}")
    return float(_floats(raw, what))


def _floats(raw, what: str) -> np.ndarray:
    """``raw`` as a float array; an integer literal beyond the float range
    is a ParseError naming ``what``."""
    try:
        return np.array(raw, dtype=float)
    except OverflowError:
        raise ParseError(f"{what} holds an integer too large for a float") from None


def _bound_to_json(b: float):
    if b == -math.inf:
        return "-inf"
    if b == math.inf:
        return "inf"
    return b


def _rows_from_json(raw, what: str) -> np.ndarray:
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ParseError(f"{what} must be a list of rows")
    for r in raw:
        for x in r:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ParseError(f"{what} entries must be numbers, got {x!r}")
    lengths = sorted({len(r) for r in raw})
    if len(lengths) > 1:
        raise ParseError(f"{what} rows must have equal lengths, got lengths {lengths}")
    return _floats(raw, what)


def parse_problem(text: str) -> ElsProblem:
    """Parse a problem file; see the module docstring for the format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("n", "p", "A0"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    if any(isinstance(doc[key], bool) or not isinstance(doc[key], int) for key in ("n", "p")):
        raise ParseError("fields 'n' and 'p' must be integers")
    raw_constraints = doc.get("constraints", [])
    if not isinstance(raw_constraints, list):
        raise ParseError("field 'constraints' must be a list")
    constraints = []
    for i, raw in enumerate(raw_constraints):
        if not isinstance(raw, dict) or "A" not in raw:
            raise ParseError(f"constraint {i} must be an object with field 'A'")
        try:
            constraints.append(
                LinearConstraint(
                    A=_rows_from_json(raw["A"], f"constraint {i} matrix"),
                    lower=_bound_from_json(raw.get("lower", "-inf"), f"constraint {i} lower"),
                    upper=_bound_from_json(raw.get("upper", "inf"), f"constraint {i} upper"),
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"constraint {i}: {exc}") from exc
    A0 = _rows_from_json(doc["A0"], "A0")
    return ElsProblem(n=doc["n"], p=doc["p"], A0=A0, constraints=constraints)


def serialize_problem(prob: ElsProblem) -> str:
    """Canonical text form; parse(serialize(p)) reproduces p bit-exactly."""
    doc = {
        "n": prob.n,
        "p": prob.p,
        "A0": prob.A0.tolist(),
        "constraints": [
            {"A": c.A.tolist(), "lower": _bound_to_json(c.lower), "upper": _bound_to_json(c.upper)}
            for c in prob.constraints
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_point(text: str, prob: ElsProblem | None = None) -> np.ndarray:
    """Parse a point file {"X": [[n x p reals]]} and optionally check shape."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "X" not in doc:
        raise ParseError("point file must be an object with field 'X'")
    X = _rows_from_json(doc["X"], "X")
    if prob is not None and X.shape != (prob.n, prob.p):
        raise ValidationError(f"point has shape {X.shape}, expected {(prob.n, prob.p)}")
    return X


@dataclass
class MinimaxPiece:
    """One affine piece tr(A @ X) + c of a pointwise-maximum objective."""

    A: np.ndarray  # p x n
    c: float = 0.0

    def __post_init__(self):
        self.A = as_matrix(self.A, "piece matrix")
        self.c = float(self.c)


@dataclass
class MinimaxProblem:
    """Minimize max_i (tr(A_i @ X) + c_i) over the feasible set of ``base``.

    ``base.A0`` is ignored; the pieces define the objective.
    """

    base: ElsProblem
    pieces: list[MinimaxPiece]

    def __post_init__(self):
        if not self.pieces:
            raise ValidationError("minimax problem needs at least one piece")
        for i, piece in enumerate(self.pieces):
            if piece.A.shape != (self.base.p, self.base.n):
                raise ValidationError(
                    f"piece {i} has shape {piece.A.shape}, "
                    f"expected {(self.base.p, self.base.n)}"
                )

    @property
    def m(self) -> int:
        return len(self.pieces)

    def piece_values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        mats = np.stack([piece.A for piece in self.pieces])
        offsets = np.array([piece.c for piece in self.pieces])
        return np.trace(mats @ X, axis1=1, axis2=2) + offsets


def parse_minimax_problem(text: str) -> MinimaxProblem:
    """Parse a minimax file: base problem fields plus "pieces"."""
    base = parse_problem(text)
    doc = json.loads(text)
    raw_pieces = doc.get("pieces")
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise ParseError("minimax file needs a non-empty 'pieces' list")
    pieces = []
    for i, raw in enumerate(raw_pieces):
        if not isinstance(raw, dict) or "A" not in raw:
            raise ParseError(f"piece {i} must be an object with field 'A'")
        c = raw.get("c", 0.0)
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ParseError(f"piece {i} offset must be a number")
        pieces.append(
            MinimaxPiece(A=_rows_from_json(raw["A"], f"piece {i}"), c=float(_floats(c, f"piece {i} offset")))
        )
    return MinimaxProblem(base=base, pieces=pieces)


def serialize_minimax_problem(mm: MinimaxProblem) -> str:
    doc = json.loads(serialize_problem(mm.base))
    doc["pieces"] = [{"A": p.A.tolist(), "c": p.c} for p in mm.pieces]
    return json.dumps(doc, indent=2) + "\n"
