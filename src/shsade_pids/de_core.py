"""Shared differential-evolution primitives.

Populations, box bounds, boundary repair, binomial crossover and greedy
selection, kept free of any parameter-adaptation logic so every optimizer
in this package builds on the same pieces. All randomness flows through an
explicit numpy Generator: the same seed reproduces the same run, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# current-to-pbest/1 and trigonometric mutation both need three distinct
# non-target members, so populations below four individuals are rejected
MIN_POP_SIZE = 4


def ensure_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Pass Generators through, seed a fresh PCG64 otherwise."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


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

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass
class Individual:
    """A decision vector with its cached objective value."""

    x: np.ndarray
    fitness: float = math.nan
    evaluated: bool = False

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.evaluated and not math.isfinite(self.fitness):
            raise ValueError("evaluated individuals need a finite fitness")

    @property
    def dimension(self) -> int:
        return int(self.x.size)


@dataclass
class Population:
    members: list[Individual]

    def __post_init__(self):
        if len(self.members) < MIN_POP_SIZE:
            raise ValueError(f"population needs at least {MIN_POP_SIZE} members")
        dim = self.members[0].dimension
        if any(m.dimension != dim for m in self.members):
            raise ValueError("all members must share one dimension")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dimension(self) -> int:
        return self.members[0].dimension

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.array([m.x for m in self.members], dtype=float)
        fitness = np.array([m.fitness for m in self.members], dtype=float)
        return x, fitness

    @classmethod
    def from_arrays(cls, x: np.ndarray, fitness: np.ndarray) -> "Population":
        members = [
            Individual(np.array(row, dtype=float), float(f), True)
            for row, f in zip(np.asarray(x, dtype=float), np.asarray(fitness, dtype=float))
        ]
        return cls(members)

    def best(self) -> Individual:
        _, fitness = self.as_arrays()
        return self.members[int(np.argmin(fitness))]


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

    def evaluate(self, x) -> float:
        return float(self.evaluator(np.asarray(x, dtype=float)))

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.batch_evaluator is not None:
            return np.asarray(self.batch_evaluator(xs), dtype=float)
        return np.array([float(self.evaluator(row)) for row in xs], dtype=float)


def init_population(spec: ObjectiveSpec, pop_size: int, rng) -> Population:
    """Sample ``pop_size`` individuals uniformly within bounds and evaluate them."""
    if pop_size < MIN_POP_SIZE:
        raise ValueError(f"pop_size must be at least {MIN_POP_SIZE}, got {pop_size}")
    rng = ensure_rng(rng)
    x = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(pop_size, spec.dimension))
    fitness = spec.evaluate_many(x)
    return Population.from_arrays(x, fitness)


def repair_bounds_matrix(v: np.ndarray, bounds: Bounds, base: np.ndarray) -> np.ndarray:
    """Row-wise midpoint repair: a violated coordinate moves to the midpoint
    between the violated bound and the base vector's coordinate. ``v`` and
    ``base`` are float arrays; ``repair_bounds`` checks and converts."""
    out = np.where(v < bounds.lower, 0.5 * (bounds.lower + base), v)
    out = np.where(out > bounds.upper, 0.5 * (bounds.upper + base), out)
    return out


def repair_bounds(v, bounds: Bounds, base) -> np.ndarray:
    """Repair one vector; ``base`` must already lie within bounds."""
    v = np.asarray(v, dtype=float)
    base = np.asarray(base, dtype=float)
    if v.shape != base.shape or v.size != bounds.dimension:
        raise ValueError("v, base and bounds must share one dimension")
    if not bounds.contains(base):
        raise ValueError("base vector must lie within bounds")
    return repair_bounds_matrix(v, bounds, base)


def binomial_crossover_matrix(
    targets: np.ndarray, donors: np.ndarray, cr: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise binomial crossover with one forced donor coordinate per row.
    ``targets``, ``donors`` and ``cr`` are float arrays; ``binomial_crossover``
    checks and converts."""
    n, dim = targets.shape
    mask = rng.random((n, dim)) < cr[:, None]
    j_rand = rng.integers(0, dim, size=n)
    mask[np.arange(n), j_rand] = True
    return np.where(mask, donors, targets)


def binomial_crossover(target, donor, cr: float, rng) -> np.ndarray:
    """Take each coordinate from the donor with probability ``cr``; one random
    coordinate always comes from the donor."""
    if not 0.0 <= cr <= 1.0:
        raise ValueError("cr must lie in [0, 1]")
    target = np.asarray(target, dtype=float)
    donor = np.asarray(donor, dtype=float)
    if target.shape != donor.shape:
        raise ValueError("target and donor must share one dimension")
    rng = ensure_rng(rng)
    return binomial_crossover_matrix(target[None, :], donor[None, :], np.array([cr]), rng)[0]


def greedy_select(target: Individual, trial: Individual) -> tuple[Individual, bool]:
    """Return the trial iff it is no worse than the target (ties accept the trial)."""
    if not (target.evaluated and trial.evaluated):
        raise ValueError("greedy selection requires evaluated individuals")
    if trial.fitness <= target.fitness:
        return trial, True
    return target, False


def redraw_clashes(values: np.ndarray, clashes: Callable, draw: Callable) -> np.ndarray:
    """Redraw the entries of ``values`` where ``clashes(values)`` holds until
    none do; each round redraws every clashing entry with one ``draw(count)``."""
    bad = clashes(values)
    count = np.count_nonzero(bad)
    while count:
        values[bad] = draw(count)
        bad = clashes(values)
        count = np.count_nonzero(bad)
    return values


def sample_distinct_triplets(
    pop_size: int, rows: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row index i, draw r1, r2, r3 mutually distinct and distinct
    from i, uniformly over the population. Needs pop_size >= 4."""

    def draw(count):
        return rng.integers(0, pop_size, size=count)

    r1 = redraw_clashes(draw(rows.size), lambda r: r == rows, draw)
    r2 = redraw_clashes(draw(rows.size), lambda r: (r == rows) | (r == r1), draw)
    r3 = redraw_clashes(draw(rows.size), lambda r: (r == rows) | (r == r1) | (r == r2), draw)
    return r1, r2, r3
