"""Shared differential-evolution primitives.

Box bounds, population initialisation, boundary repair, binomial crossover
and partner sampling, kept free of any parameter-adaptation logic so every
optimizer in this package builds on the same pieces. All randomness flows
through an explicit numpy Generator: the same seed reproduces the same run,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# current-to-pbest/1 and trigonometric mutation both need three distinct
# non-target members, so populations below four individuals are rejected
MIN_POP_SIZE = 4


@dataclass(frozen=True)
class Bounds:
    """Per-dimension box constraints with strictly positive width."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or upper.ndim != 1 or lower.size != upper.size:
            raise ValueError("lower and upper must be 1-d vectors of equal length")
        if lower.size < 1:
            raise ValueError("bounds need at least one dimension")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must lie strictly below its upper bound")

    @property
    def dimension(self) -> int:
        return int(self.lower.size)

    @classmethod
    def cube(cls, lower: float, upper: float, dimension: int) -> "Bounds":
        return cls(np.full(dimension, float(lower)), np.full(dimension, float(upper)))


@dataclass
class Individual:
    """A decision vector with its objective value."""

    x: np.ndarray
    fitness: float


@dataclass(frozen=True)
class ObjectiveSpec:
    """Minimization objective over a box-bounded real vector.

    The evaluator must be pure: identical inputs yield identical outputs.
    ``batch_evaluator`` optionally maps an (n, dimension) matrix to n values
    in one call, any sequence that converts to a float array of shape
    ``(n,)``; ``evaluate_many`` raises ``ValueError`` on any other shape.
    When absent, rows are evaluated one by one.
    """

    dimension: int
    bounds: Bounds
    evaluator: Callable[[np.ndarray], float]
    batch_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dimension != self.bounds.dimension:
            raise ValueError("objective dimension must match its bounds")

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.batch_evaluator is None:
            return np.array([float(self.evaluator(row)) for row in xs], dtype=float)
        values = np.asarray(self.batch_evaluator(xs), dtype=float)
        if values.shape != (len(xs),):
            raise ValueError(f"the batch evaluator returned shape {values.shape}, expected ({len(xs)},)")
        return values


def init_population(spec: ObjectiveSpec, pop_size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``pop_size`` points uniformly within bounds and evaluate them.
    Returns ``(x, fitness)``; a non-finite fitness raises ``ValueError``."""
    if pop_size < MIN_POP_SIZE:
        raise ValueError(f"pop_size must be at least {MIN_POP_SIZE}, got {pop_size}")
    x = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(pop_size, spec.dimension))
    fitness = spec.evaluate_many(x)
    if not np.isfinite(fitness).all():
        raise ValueError("the initial population needs a finite fitness for every member")
    return x, fitness


def replace_rows(state, accepted: np.ndarray, x: np.ndarray, fitness: np.ndarray) -> None:
    """Write the rows of ``x`` and ``fitness``, one candidate per population
    row, into the population of ``state`` (anything with ``x``, ``fitness``,
    ``best_x`` and ``best_fitness``) where the boolean vector ``accepted``
    holds. The best-so-far moves only on a strict improvement, to the first
    row that holds the population's new minimum."""
    np.copyto(state.x, x, where=accepted[:, None])
    np.copyto(state.fitness, fitness, where=accepted)
    best = int(state.fitness.argmin())
    if state.fitness[best] < state.best_fitness:
        state.best_fitness = float(state.fitness[best])
        state.best_x = state.x[best].copy()


def repair_bounds_matrix(v: np.ndarray, bounds: Bounds, base: np.ndarray) -> np.ndarray:
    """Row-wise midpoint repair: a violated coordinate moves to the midpoint
    between the violated bound and the base vector's coordinate, which must
    lie within bounds. ``v`` and ``base`` are float arrays; ``v`` itself
    comes back when no coordinate is violated, the common case."""
    # count_nonzero tests a mask at a fraction of the cost of any()
    low = v < bounds.lower
    if np.count_nonzero(low):
        v = np.where(low, 0.5 * (bounds.lower + base), v)
    high = v > bounds.upper
    if np.count_nonzero(high):
        v = np.where(high, 0.5 * (bounds.upper + base), v)
    return v


def uniform_index(u, m):
    """``floor(u * m)`` of uniforms in [0, 1), clamped to ``m - 1`` so the
    bound holds whatever the rounding; ``m`` broadcasts against ``u``. The
    clamp comes before the truncation, on the float product: the same
    values for a whole-number ``m`` up to 2**53. A float ``m`` spares numpy
    a cast of an integer block on every call."""
    return np.minimum(u * m, m - 1.0).astype(np.intp)


def binomial_crossover_matrix(
    targets: np.ndarray, donors: np.ndarray, cr: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise binomial crossover: each coordinate comes from the donor with
    the row's probability ``cr``, and one random coordinate per row always
    does. ``targets``, ``donors`` and ``cr`` are float arrays; ``targets``
    broadcasts against ``donors``. One ``rng.random((n, dim + 1))`` call
    draws the mask and, last, ``j_rand``."""
    n, dim = donors.shape
    u = rng.random((n, dim + 1))
    mask = u[:, :dim] < cr[:, None]
    mask[np.arange(n), uniform_index(u[:, dim], dim)] = True
    return np.where(mask, donors, targets)


# Distinct picks without redraws. A pick v, drawn uniformly below the count
# of indices left to it, skips an excluded index x by ``v += v >= x``, which
# makes it the v-th index, from 0, of those other than x. Chained skips, the
# latest exclusion first, keep picks distinct: the second pick skips the
# first pick's place among the indices other than i, then i itself. Every
# ordered tuple of distinct picks comes from exactly one tuple of v's.

# per pick, the count of indices it cannot take: the row, then each earlier
# pick; floats, so the counts below are a float block (see uniform_index)
_TRIPLET_TAKEN = np.array([[1.0], [2.0], [3.0]])


def sample_distinct_triplets(pop_size: int, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each row index i, r1, r2, r3 mutually distinct and distinct from
    i, uniformly over the population, from a ``(3, rows.size)`` block of
    uniforms, one row of it per pick (see the skips above). Returns the
    picks as one ``(3, rows.size)`` block, r1 first. Raises ``ValueError``
    below ``MIN_POP_SIZE``, where no such triplet exists."""
    if pop_size < MIN_POP_SIZE:
        raise ValueError(f"distinct triplets need a population of at least {MIN_POP_SIZE}, got {pop_size}")
    v = uniform_index(u, pop_size - _TRIPLET_TAKEN)
    # v3 skips v2, then v2 and v3 skip v1, then all three skip i
    v[2] += v[2] >= v[1]
    v[1:] += v[1:] >= v[0]
    v += v >= rows
    return v
