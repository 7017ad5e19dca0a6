"""Comparison baselines: fixed-parameter DE and aging (regularized) evolution.

Both emit traces schema-identical to the adaptive optimizer's so convergence
curves line up point for point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .de_core import (
    MIN_POP_SIZE,
    Individual,
    ObjectiveSpec,
    binomial_crossover_matrix,
    ensure_rng,
    init_population,
    repair_bounds_matrix,
    sample_distinct_triplets,
)
from .discrete_codec import DiscreteSpace, Genotype
from .nas_search import BiObjectiveConfig, BudgetedScorer, PredictorInterface
from .shsade import Termination, drive
from .trace import SearchTrace

# aging evolution stops after this many steps per budget unit even when
# mutations keep landing on cached genotypes
REA_STEPS_PER_BUDGET_UNIT = 40


@dataclass(frozen=True)
class VanillaDeConfig:
    """Classic rand/1/bin with fixed control parameters."""

    f: float = 0.5
    cr: float = 0.9
    pop_size: int = 50
    max_generations: int = 1000

    def __post_init__(self):
        if not 0 < self.f <= 1:
            raise ValueError("f must lie in (0, 1]")
        if not 0 <= self.cr <= 1:
            raise ValueError("cr must lie in [0, 1]")
        if self.pop_size < MIN_POP_SIZE:
            raise ValueError(f"pop_size must be at least {MIN_POP_SIZE}")
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")


@dataclass
class VanillaDeState:
    """The population, its counters and the best point it has held."""

    x: np.ndarray
    fitness: np.ndarray
    generation: int
    evaluations: int
    best_x: np.ndarray
    best_fitness: float


def vanilla_de_run(
    config: VanillaDeConfig,
    spec: ObjectiveSpec,
    termination: Termination | None = None,
    rng=None,
) -> tuple[Individual, SearchTrace]:
    """Fixed-parameter DE sharing the core primitives and trace format."""
    rng = ensure_rng(rng)
    x, fitness = init_population(spec, config.pop_size, rng)
    best_idx = int(np.argmin(fitness))
    state = VanillaDeState(x, fitness, 0, config.pop_size, x[best_idx].copy(), float(fitness[best_idx]))
    rows = np.arange(config.pop_size)
    cr = np.full(config.pop_size, config.cr)

    def ask():
        r1, r2, r3 = sample_distinct_triplets(config.pop_size, rows, rng)
        donors = state.x[r1] + config.f * (state.x[r2] - state.x[r3])
        trials = binomial_crossover_matrix(state.x, donors, cr, rng)
        return repair_bounds_matrix(trials, spec.bounds, state.x)

    def tell(trials, trial_fitness, _evaluated):
        # greedy selection; ties accept the trial
        accepted = trial_fitness <= state.fitness
        state.x[accepted] = trials[accepted]
        state.fitness[accepted] = trial_fitness[accepted]
        state.evaluations += config.pop_size
        state.generation += 1
        idx = int(np.argmin(state.fitness))
        if state.fitness[idx] < state.best_fitness:
            state.best_fitness = float(state.fitness[idx])
            state.best_x = state.x[idx].copy()

    trace = drive(
        state,
        ask,
        evaluate=lambda trials: (spec.evaluate_many(trials), None),
        tell=tell,
        algorithm="vanilla_de",
        max_generations=config.max_generations,
        termination=termination,
    )
    return Individual(state.best_x, state.best_fitness), trace


@dataclass(frozen=True)
class RegularizedEaConfig:
    """Aging evolution: tournament parent selection, a one-axis mutation,
    and removal of the oldest individual."""

    population_size: int = 25
    tournament_size: int = 5
    budget: int = 500

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be positive")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must lie in [1, population_size]")
        if self.budget < self.population_size:
            raise ValueError("budget must cover the initial population")


def mutate_one_axis(genotype: Genotype, space: DiscreteSpace, rng) -> Genotype:
    """Replace one uniformly chosen axis with a uniform draw from its values."""
    rng = ensure_rng(rng)
    axis_idx = int(rng.integers(space.num_axes))
    axis = space.axes[axis_idx]
    choices = list(genotype.choices)
    choices[axis_idx] = axis.values[int(rng.integers(axis.size))]
    return Genotype(tuple(choices))


def regularized_ea_run(
    space: DiscreteSpace,
    predictor: PredictorInterface,
    config: RegularizedEaConfig,
    biobjective: BiObjectiveConfig,
    rng=None,
) -> tuple[Genotype, SearchTrace]:
    """Aging-evolution search with the same budget accounting as the
    evolutionary pipeline: memoized scores, one budget unit per distinct
    genotype. The population is a FIFO queue of constant size after warm-up."""
    rng = ensure_rng(rng)
    scorer = BudgetedScorer(predictor, biobjective, config.budget)

    population: list[tuple[Genotype, float]] = []
    for _ in range(config.population_size):
        genotype = space.random_genotype(rng)
        value = scorer.try_score(genotype)
        assert value is not None  # budget >= population_size
        population.append((genotype, value))

    trace = SearchTrace(metadata={"algorithm": "regularized_ea"})
    mean = float(np.mean([v for _, v in population]))
    trace.append(0, scorer.evaluations, scorer.best_score, mean)

    steps = 0
    max_steps = REA_STEPS_PER_BUDGET_UNIT * config.budget
    while (
        scorer.evaluations < config.budget
        and scorer.evaluations < space.size
        and steps < max_steps
    ):
        picks = rng.choice(config.population_size, size=config.tournament_size, replace=False)
        parent = min((population[int(i)] for i in picks), key=lambda item: item[1])
        child = mutate_one_axis(parent[0], space, rng)
        value = scorer.try_score(child)
        assert value is not None  # loop guard leaves budget for one new genotype
        population.append((child, value))
        population.pop(0)  # oldest dies
        steps += 1
        mean = float(np.mean([v for _, v in population]))
        trace.append(steps, scorer.evaluations, scorer.best_score, mean)

    assert scorer.best_genotype is not None
    return scorer.best_genotype, trace
