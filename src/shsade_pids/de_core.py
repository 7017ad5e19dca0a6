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
    in one call; when absent, rows are evaluated one by one.
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
        if self.batch_evaluator is not None:
            return np.asarray(self.batch_evaluator(xs), dtype=float)
        return np.array([float(self.evaluator(row)) for row in xs], dtype=float)


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


def replace_rows(state, rows, x: np.ndarray, fitness: np.ndarray) -> None:
    """Write ``x`` and ``fitness`` into the population rows ``rows`` of
    ``state`` (anything with ``x``, ``fitness``, ``best_x`` and
    ``best_fitness``). The best-so-far moves only on a strict improvement,
    to the first row that holds the population's new minimum."""
    state.x[rows] = x
    state.fitness[rows] = fitness
    best = int(np.argmin(state.fitness))
    if state.fitness[best] < state.best_fitness:
        state.best_fitness = float(state.fitness[best])
        state.best_x = state.x[best].copy()


def repair_bounds_matrix(v: np.ndarray, bounds: Bounds, base: np.ndarray) -> np.ndarray:
    """Row-wise midpoint repair: a violated coordinate moves to the midpoint
    between the violated bound and the base vector's coordinate, which must
    lie within bounds. ``v`` and ``base`` are float arrays."""
    out = np.where(v < bounds.lower, 0.5 * (bounds.lower + base), v)
    out = np.where(out > bounds.upper, 0.5 * (bounds.upper + base), out)
    return out


def uniform_index(u, m):
    """``floor(u * m)`` of uniforms in [0, 1), clamped to ``m - 1`` so the
    bound holds whatever the rounding; ``m`` broadcasts against ``u``."""
    return np.minimum((u * m).astype(np.intp), m - 1)


def skip(v: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """The ``v``-th index, from 0, of those other than ``excluded``. Chained
    skips pick distinct indices without redraws: ``skip(skip(v2, v1), i)``
    skips the first pick's place ``v1`` among the indices other than i,
    then i. Uniform ``v``s below the count of indices left give every
    ordered tuple of distinct picks exactly once."""
    return v + (v >= excluded)


def binomial_crossover_matrix(
    targets: np.ndarray, donors: np.ndarray, cr: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise binomial crossover: each coordinate comes from the donor with
    the row's probability ``cr``, and one random coordinate per row always
    does. ``targets``, ``donors`` and ``cr`` are float arrays. One
    ``rng.random((n, dim + 1))`` call draws the mask and, last, ``j_rand``."""
    n, dim = targets.shape
    u = rng.random((n, dim + 1))
    mask = u[:, :dim] < cr[:, None]
    mask[np.arange(n), uniform_index(u[:, dim], dim)] = True
    return np.where(mask, donors, targets)


def sample_distinct_triplets(
    pop_size: int, rows: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row index i, r1, r2, r3 mutually distinct and distinct from
    i, uniformly over the population, from a ``(3, rows.size)`` block of
    uniforms, one row of it per pick (see ``skip``). Needs pop_size >= 4."""
    v1, v2, v3 = uniform_index(u, pop_size - np.array([[1], [2], [3]]))
    return skip(v1, rows), skip(skip(v2, v1), rows), skip(skip(skip(v3, v2), v1), rows)
