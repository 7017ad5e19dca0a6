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
# aging-evolution steps whose uniforms are drawn in one call
REA_DRAW_BLOCK = 64


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
        r1, r2, r3 = sample_distinct_triplets(config.pop_size, rows, rng.random((3, config.pop_size)))
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


def mutate_one_axis(genotype: Genotype, space: DiscreteSpace, axis_idx: int, offset: int) -> Genotype:
    """Move axis ``axis_idx`` of ``genotype`` to a different value: the
    ``offset``-th, in axis order, of the values other than the current one,
    so ``offset`` lies in [0, size - 2]. A single-value axis keeps its value."""
    if not 0 <= axis_idx < space.num_axes:
        raise ValueError(f"axis index {axis_idx} is outside [0, {space.num_axes - 1}]")
    axis = space.axes[axis_idx]
    if not 0 <= offset < max(axis.size - 1, 1):
        raise ValueError(f"offset {offset} is outside [0, {max(axis.size - 2, 0)}] on axis {axis.name!r}")
    choices = list(genotype.choices)
    if axis.size > 1:
        current = axis.index_of(choices[axis_idx])
        choices[axis_idx] = axis.values[offset + (offset >= current)]
    return Genotype(tuple(choices))


@dataclass
class RegularizedEaState:
    """The population in age order, oldest first, with its genotypes beside
    its fitness, the step count and the best score found so far."""

    genotypes: list[Genotype]
    fitness: np.ndarray
    generation: int
    best_fitness: float


def regularized_ea_run(
    space: DiscreteSpace,
    predictor: PredictorInterface,
    config: RegularizedEaConfig,
    biobjective: BiObjectiveConfig,
    rng=None,
) -> tuple[Genotype, SearchTrace]:
    """Aging-evolution search with the same budget accounting as the
    evolutionary pipeline: memoized scores, one budget unit per distinct
    genotype. The population is a FIFO queue of constant size after warm-up.

    Each step is one ``drive`` generation: the fittest of a uniform
    tournament (ties to the oldest) is mutated on one uniform axis to a
    uniform different value, the child is scored and joins the population,
    and the oldest member dies. Steps draw their uniforms in blocks of
    ``REA_DRAW_BLOCK`` rows of ``population_size + 2``: the tournament is
    the ``tournament_size`` smallest of a row's first ``population_size``,
    the axis ``floor(u * num_axes)`` and the offset ``floor(u * (size - 1))``.
    The run stops once the budget is spent, the whole space has been scored,
    or after ``REA_STEPS_PER_BUDGET_UNIT * budget`` steps.
    """
    rng = ensure_rng(rng)
    scorer = BudgetedScorer(predictor, biobjective, config.budget)
    pop_size = config.population_size
    genotypes = [space.random_genotype(rng) for _ in range(pop_size)]
    fitness = np.array([scorer.try_score(g) for g in genotypes])  # budget >= population_size
    state = RegularizedEaState(genotypes, fitness, 0, scorer.best_score)
    draws = _step_draws(space, config, rng)

    def ask():
        picks, axis_idx, offset = next(draws)
        parent = picks[state.fitness[picks].argmin()]
        return mutate_one_axis(state.genotypes[parent], space, axis_idx, offset)

    def tell(child, value, _evaluated):
        del state.genotypes[0]  # oldest dies
        state.genotypes.append(child)
        state.fitness[:-1] = state.fitness[1:]
        state.fitness[-1] = value
        state.generation += 1
        state.best_fitness = scorer.best_score

    # a step starts while one unit of budget is left, so every child is scored
    trace = drive(
        state,
        ask,
        evaluate=lambda child: (scorer.try_score(child), None),
        tell=tell,
        algorithm="regularized_ea",
        max_generations=REA_STEPS_PER_BUDGET_UNIT * config.budget,
        termination=Termination(max_evaluations=min(config.budget, space.size)),
        room=1,
        spent=lambda: scorer.evaluations,
    )
    assert scorer.best_genotype is not None
    return scorer.best_genotype, trace


def _step_draws(space: DiscreteSpace, config: RegularizedEaConfig, rng):
    """Yield each step's tournament (population slots in age order, sorted),
    axis index and value offset, drawing a block of steps at a time."""
    pop_size, tournament_size = config.population_size, config.tournament_size
    num_axes = space.num_axes
    spans = np.array(space.sizes) - 1  # the values an axis can move to
    while True:
        u = rng.random((REA_DRAW_BLOCK, pop_size + 2))
        smallest = np.argpartition(u[:, :pop_size], tournament_size - 1, axis=1)[:, :tournament_size]
        tournaments = np.sort(smallest, axis=1)
        # floor(u * n) of a u just below 1 can round up to n
        axes = np.minimum((u[:, pop_size] * num_axes).astype(np.intp), num_axes - 1)
        span = spans[axes]
        offsets = np.minimum((u[:, pop_size + 1] * span).astype(np.intp), np.maximum(span - 1, 0))
        yield from zip(tournaments, axes.tolist(), offsets.tolist())
