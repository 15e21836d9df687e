"""Exact variance of the reliability estimator and its allocation-free lower bounds.

For a fixed allocation M (M_ij Bernoulli observations of component i in
block j) the estimator is the product over blocks of the plug-in block
reliabilities built from sample means. Its variance has a closed form:

    Var(block j) = (1 - R_j)^2 * [ prod_i (1 + u_ij / M_ij) - 1 ]
    Var(system)  = prod_j (Var(block j) + R_j^2) - prod_j R_j^2

where u_ij = R_ij / (1 - R_ij) is the squared inverse coefficient of
variation. Both formulas are exact under independence, not asymptotic.

The lower bounds ``lower_bound_subsystem`` and ``lower_bound_system`` hold
for every allocation with the same budget and follow from the Lagrange
identity implemented by ``lagrange_decomposition``.

The variances and the lower bounds each take R_j, u_ij and sum_i 1/c_ij
from one call of ``system_model.block_constants``, and the system bound its
block weights from ``system_model.block_weights``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .system_model import (
    ReliabilityAssignment,
    SystemTopology,
    block_constants,
    block_weights,
    ordered_sum,
)


class AllocationError(ValueError):
    """Allocation is malformed or infeasible for the requested operation."""


@dataclass(frozen=True)
class Allocation:
    """Nonnegative integer sample sizes per component slot, block-major."""

    topology: SystemTopology
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        counts = tuple(tuple(map(int, block)) for block in self.counts)
        shape = tuple(map(len, counts))
        if shape != self.topology.block_sizes:
            raise AllocationError(
                f"allocation shape {shape} does not match topology {self.topology.block_sizes}"
            )
        if min(map(min, counts)) < 0:
            raise AllocationError("sample counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_blocks(cls, blocks) -> "Allocation":
        blocks = [list(b) for b in blocks]
        topo = SystemTopology(tuple(len(b) for b in blocks))
        return cls(topo, tuple(tuple(b) for b in blocks))

    def block(self, j: int) -> tuple[int, ...]:
        self.topology.check_subsystem(j)
        return self.counts[j]

    @property
    def block_totals(self) -> tuple[int, ...]:
        return tuple(sum(block) for block in self.counts)

    @property
    def total(self) -> int:
        return sum(self.block_totals)

    def require_positive(self, j: int | None = None) -> None:
        """Variance formulas divide by each count; zero counts are infeasible."""
        blocks = [j] if j is not None else range(len(self.counts))
        for jj in blocks:
            if min(self.counts[jj]) < 1:
                raise AllocationError(
                    f"subsystem {jj + 1} has a zero sample count; every slot needs >= 1"
                )


def lagrange_decomposition(
    numerators: Sequence[float], sizes: Sequence[float]
) -> tuple[float, float]:
    """Split sum(a_i / N_i) into a size-only leading term plus a mismatch penalty.

    With N = sum(N_i):

        leading   = (sum_i sqrt(a_i))^2 / N
        remainder = (1/N) * sum_{i<j} (N_i sqrt(a_j) - N_j sqrt(a_i))^2 / (N_i N_j)

    and leading + remainder == sum(a_i / N_i) identically. The remainder
    vanishes exactly when the N_i are proportional to sqrt(a_i), which is
    what makes the leading term an allocation-independent lower bound.
    """
    if len(numerators) != len(sizes):
        raise ValueError("numerators and sizes must have equal length")
    if len(numerators) < 1:
        raise ValueError("need at least one term")
    if any(a <= 0 for a in numerators) or any(n <= 0 for n in sizes):
        raise ValueError("all entries must be strictly positive")
    roots = [math.sqrt(a) for a in numerators]
    big_n = ordered_sum(sizes)
    leading = ordered_sum(roots) ** 2 / big_n
    terms = []
    for i, j in itertools.combinations(range(len(sizes)), 2):
        diff = sizes[i] * roots[j] - sizes[j] * roots[i]
        terms.append(diff * diff / (sizes[i] * sizes[j]))
    return leading, ordered_sum(terms) / big_n


def _block_variance(r_j: float, u: Sequence[float], counts: Sequence[int]) -> float:
    prod = 1.0
    for x, m in zip(u, counts):
        prod *= 1.0 + x / m
    return (1.0 - r_j) ** 2 * (prod - 1.0)


def subsystem_variance(
    assignment: ReliabilityAssignment, j: int, allocation: Allocation
) -> float:
    """Exact variance of the block-j reliability estimate under a fixed allocation."""
    if allocation.topology.block_sizes != assignment.topology.block_sizes:
        raise AllocationError("allocation and assignment shapes differ")
    allocation.require_positive(j)
    assignment.topology.check_subsystem(j)
    r_j, u, _, _ = block_constants(assignment.values)[j]
    return _block_variance(r_j, u, allocation.counts[j])


def system_variance(assignment: ReliabilityAssignment, allocation: Allocation) -> float:
    """Exact variance of the system reliability estimate under a fixed allocation."""
    if allocation.topology.block_sizes != assignment.topology.block_sizes:
        raise AllocationError("allocation and assignment shapes differ")
    allocation.require_positive()
    prod = 1.0
    base = 1.0
    for (r_j, u, _, _), counts in zip(block_constants(assignment.values), allocation.counts):
        prod *= _block_variance(r_j, u, counts) + r_j * r_j
        base *= r_j * r_j
    return prod - base


def lower_bound_subsystem(
    assignment: ReliabilityAssignment, j: int, total: float
) -> float:
    """Allocation-independent floor on the block-j estimator variance.

    Q_j = (1 - R_j)^2 * (sum_i 1/c_ij)^2 / T_j for any split of T_j
    observations over the block. Real-valued totals are accepted for
    interpolation; callers pass integers everywhere else.
    """
    if total < 1:
        raise AllocationError(f"block budget must be >= 1, got {total}")
    assignment.topology.check_subsystem(j)
    r_j, _, _, inv_sum = block_constants(assignment.values)[j]
    return (1.0 - r_j) ** 2 * inv_sum * inv_sum / total


def lower_bound_system(assignment: ReliabilityAssignment, total: float) -> float:
    """Allocation-independent floor on the system estimator variance.

    Q = (R^2 / T) * [ sum_j (1 - R_j)/R_j * sum_i 1/c_ij ]^2 for any
    allocation with grand total T.
    """
    if total < 1:
        raise AllocationError(f"total budget must be >= 1, got {total}")
    blocks = block_constants(assignment.values)
    r = 1.0
    for r_j, _, _, _ in blocks:
        r *= r_j
    weight = ordered_sum(block_weights(blocks))
    return r * r * weight * weight / total


def excess_variance(assignment: ReliabilityAssignment, variance: float, total: float) -> float:
    """Optimality gap T * (Var - Q) of an exact or Monte Carlo variance
    measured at budget T."""
    variance = float(variance)
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    return total * (variance - lower_bound_system(assignment, total))
