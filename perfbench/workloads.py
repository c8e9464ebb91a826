"""Seeded instance generators for the three benchmark workloads.

Every instance is built here from ``--seed`` with numpy's default generator;
nothing is read from the repository's tests or fixtures.  Each instance
carries what the correctness checks need to judge it without trusting the
program: the generator's feasible point ``Xbar`` (when one exists), the
expected status, and, for the paper's gap instances, the known relaxation
value and manifold optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from checks import nuclear_norm
from els.problem import ElsProblem, LinearConstraint

WORKLOADS = ("relax-ladder", "feasibility-reduction", "oracle-small")

# (n, p, k) ladders.  The relax ladder stops at (40,10,10): one (60,15,10)
# solve takes about 18 s on a 2-vCPU Xeon, longer than half a run.  The rung
# that holds the median solve time of a pass (the four infeasible relax
# instances are the fastest) comes five times with different numbers: a
# sub-second solve varies by a third from one call to the next here, so
# the median rests on five solves per pass instead of one.
RELAX_SIZES = ((6, 2, 2),) * 5 + ((12, 4, 4), (20, 6, 6), (30, 10, 8), (40, 10, 10))
FEASIBILITY_SIZES = ((6, 2, 2), (12, 4, 4)) + ((16, 5, 5),) * 5 + ((20, 6, 6), (30, 10, 5))

# Criterion-5 style shapes (n <= 6, k <= 3, p <= n - k) with one bound type
# per constraint: 0 equality, 1 upper only, 2 lower only, 3 two-sided.  The
# shapes are fixed so that only the numbers change with the seed; together
# they use all four bound types.  With the oracle these two take 2.5-3.9 s
# whatever the seed, while smaller shapes such as (4,2,2) swing from 0.3 to
# 5.6 s between seeds, which would make the workload's times follow the seed.
ORACLE_SHAPES = (((6, 2, 2), (1, 3)), ((6, 2, 3), (2, 3, 0)))
ORACLE_RESTARTS = 40

# A lower bound of 1e16 lies far beyond ||A||_* yet loses the phase-I
# start's +1 margin in floating point (1e16 + 1 == 1e16), while 9e15 < 2**53
# keeps it.  Both instances share fixed data, independent of the seed.
HUGE_BOUND = 1e16
_HUGE_SEED = 20230117


@dataclass
class Instance:
    """One benchmark instance and the facts its checks rely on."""

    name: str
    problem: ElsProblem
    expect: str                      # "optimal" | "infeasible" | "gap"
    Xbar: np.ndarray | None = None   # a feasible manifold point, when known
    relax_value: float | None = None  # gap instances: the paper's values
    manifold_value: float | None = None

    @property
    def exact_regime(self) -> bool:
        prob = self.problem
        return prob.p <= prob.n - prob.k


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    with_oracle: bool = False
    restarts: int = ORACLE_RESTARTS

    def smallest(self) -> Instance:
        """The instance the CLI and the warm-up solve use."""
        return min(self.instances, key=lambda inst: (inst.problem.n * inst.problem.p, inst.problem.k))


def stiefel(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, p)))
    return Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)


def _slack_instance(rng, n, p, k) -> Instance:
    """Gaussian objective, two-sided slack bounds around a Stiefel point."""
    Xbar = stiefel(rng, n, p)
    A0 = rng.standard_normal((p, n))
    cons = []
    for _ in range(k):
        A = rng.standard_normal((p, n))
        v = float(np.sum(A.T * Xbar))
        cons.append(
            LinearConstraint(A=A, lower=v - rng.uniform(0.1, 1.0), upper=v + rng.uniform(0.1, 1.0))
        )
    prob = ElsProblem(n=n, p=p, A0=A0, constraints=cons)
    return Instance(f"slack-{n}-{p}-{k}", prob, "optimal", Xbar=Xbar)


def _beyond_nuclear(rng, n, p, k, side: str, bound: float | None = None) -> Instance:
    """Slack instance whose first constraint asks for a value beyond
    +/- ||A_1||_*, which no point of the ball can reach."""
    inst = _slack_instance(rng, n, p, k)
    first = inst.problem.constraints[0]
    reach = nuclear_norm(first.A)
    if side == "lower":
        b = bound if bound is not None else 1.5 * reach
        first.lower, first.upper = b, math.inf
    else:
        b = bound if bound is not None else -1.5 * reach
        first.lower, first.upper = -math.inf, b
    tag = f"{b:.0e}" if bound is not None else side
    return Instance(f"beyond-{tag}-{n}-{p}-{k}", inst.problem, "infeasible")


def _feasibility_instance(rng, n, p, k) -> Instance:
    """A0 = 0 with k equality rows valued at a random Stiefel point."""
    Xbar = stiefel(rng, n, p)
    cons = []
    for _ in range(k):
        A = rng.standard_normal((p, n))
        v = float(np.sum(A.T * Xbar))
        cons.append(LinearConstraint(A=A, lower=v, upper=v))
    prob = ElsProblem(n=n, p=p, A0=np.zeros((p, n)), constraints=cons)
    return Instance(f"feasibility-{n}-{p}-{k}", prob, "optimal", Xbar=Xbar)


def _criterion5_instance(rng, n, p, k, types) -> Instance:
    Xbar = stiefel(rng, n, p)
    A0 = rng.standard_normal((p, n))
    cons = []
    for typ in types:
        A = rng.standard_normal((p, n))
        v = float(np.sum(A.T * Xbar))
        if typ == 0:
            cons.append(LinearConstraint(A=A, lower=v, upper=v))
        elif typ == 1:
            cons.append(LinearConstraint(A=A, upper=v + rng.uniform(0.0, 0.6)))
        elif typ == 2:
            cons.append(LinearConstraint(A=A, lower=v - rng.uniform(0.0, 0.6)))
        else:
            cons.append(
                LinearConstraint(A=A, lower=v - rng.uniform(0.05, 0.5), upper=v + rng.uniform(0.05, 0.5))
            )
    prob = ElsProblem(n=n, p=p, A0=A0, constraints=cons)
    return Instance(f"criterion5-{n}-{p}-{k}", prob, "optimal", Xbar=Xbar)


def _unit(p, n, row, col) -> np.ndarray:
    A = np.zeros((p, n))
    A[row, col] = 1.0
    return A


def gap_instances() -> list[Instance]:
    """The paper's three small instances where the relaxation is not exact.

    Relaxation values 0, -1, -2 against manifold optima 1, 0, -1.
    """
    ex41 = ElsProblem(
        n=2, p=1, A0=np.array([[-1.0, -1.0]]),
        constraints=[
            LinearConstraint(A=_unit(1, 2, 0, 0), upper=0.0),
            LinearConstraint(A=_unit(1, 2, 0, 1), upper=0.0),
        ],
    )
    ex42 = ElsProblem(
        n=3, p=2, A0=_unit(2, 3, 1, 2),
        constraints=[
            LinearConstraint(A=_unit(2, 3, 0, 0), lower=0.0, upper=0.0),
            LinearConstraint(A=_unit(2, 3, 0, 1), lower=0.0, upper=0.0),
        ],
    )
    ex43 = ElsProblem(
        n=3, p=3, A0=np.diag([0.0, 1.0, 1.0]),
        constraints=[LinearConstraint(A=np.diag([1.0, 0.0, 0.0]), lower=0.0, upper=0.0)],
    )
    return [
        Instance("example-4.1", ex41, "gap", relax_value=0.0, manifold_value=1.0),
        Instance("example-4.2", ex42, "gap", relax_value=-1.0, manifold_value=0.0),
        Instance("example-4.3", ex43, "gap", relax_value=-2.0, manifold_value=-1.0),
    ]


def huge_bound_instance(bound: float) -> Instance:
    """Fixed instance, independent of the seed, whose lower bound lies far
    beyond ||A||_*; only the bound differs between calls."""
    rng = np.random.default_rng(_HUGE_SEED)
    return _beyond_nuclear(rng, 6, 2, 2, "lower", bound=bound)


def build(name: str, seed: int) -> Workload:
    """The workload's instance set for ``seed``, in pass order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "relax-ladder":
        insts = [_slack_instance(rng, *size) for size in RELAX_SIZES]
        insts.append(_beyond_nuclear(rng, 6, 2, 2, "lower"))
        insts.append(_beyond_nuclear(rng, 12, 4, 4, "upper"))
        insts.append(huge_bound_instance(9e15))
        insts.append(huge_bound_instance(HUGE_BOUND))
        return Workload(name, insts)
    if name == "feasibility-reduction":
        return Workload(name, [_feasibility_instance(rng, *size) for size in FEASIBILITY_SIZES])
    if name == "oracle-small":
        insts = [_criterion5_instance(rng, *shape, types) for shape, types in ORACLE_SHAPES]
        return Workload(name, insts + gap_instances(), with_oracle=True)
    raise ValueError(f"unknown workload {name!r}")
