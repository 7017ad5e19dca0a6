"""Comparison baselines: fixed-parameter DE and aging (regularized) evolution.

Both emit traces schema-identical to the adaptive optimizer's so convergence
curves line up point for point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .de_core import (
    MIN_POP_SIZE,
    Individual,
    ObjectiveSpec,
    binomial_crossover_matrix,
    init_population,
    repair_bounds_matrix,
    replace_rows,
    sample_distinct_triplets,
    uniform_index,
)
from .discrete_codec import DiscreteSpace, Genotype
from .nas_search import BiObjectiveConfig, BudgetedScorer, PredictorInterface
from .shsade import Termination, drive
from .trace import SearchTrace

# aging evolution stops after this many steps per budget unit even when
# mutations keep landing on cached genotypes
REA_STEPS_PER_BUDGET_UNIT = 40
# aging-evolution steps whose uniforms are drawn in one call; a block's
# numpy calls cost about 35 us, so a memo-hit step of under 1 us pays for
# them only when they are spread over many steps
REA_DRAW_BLOCK = 256


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
    rng = np.random.default_rng(rng)
    x, fitness = init_population(spec, config.pop_size, rng)
    state = VanillaDeState(x, fitness, 0, config.pop_size, None, math.inf)
    replace_rows(state, np.ones(config.pop_size, dtype=bool), x, fitness)
    rows = np.arange(config.pop_size)
    cr = np.full(config.pop_size, config.cr)

    def ask():
        picks = sample_distinct_triplets(config.pop_size, rows, rng.random((3, config.pop_size)))
        # take() gathers the same rows as fancy indexing, without its overhead
        x1, x2, x3 = state.x.take(picks, axis=0)
        donors = x1 + config.f * (x2 - x3)
        trials = binomial_crossover_matrix(state.x, donors, cr, rng)
        return repair_bounds_matrix(trials, spec.bounds, state.x)

    def tell(trials, trial_fitness):
        # greedy selection; ties accept the trial. A NaN or +inf trial fails
        # the test, and a -inf one is kept out; fmin skips NaN, so one
        # reduction finds it anywhere
        accepted = trial_fitness <= state.fitness
        if np.fmin.reduce(trial_fitness) == -np.inf:
            accepted &= trial_fitness > -np.inf
        replace_rows(state, accepted, trials, trial_fitness)
        state.evaluations += config.pop_size
        state.generation += 1

    trace = drive(
        state,
        ask,
        evaluate=spec.evaluate_many,
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
    so ``offset`` lies in [0, size - 2]. A single-value axis keeps its value.
    Aging evolution's step makes the same move on a row-major flat index."""
    if not 0 <= axis_idx < space.num_axes:
        raise ValueError(f"axis index {axis_idx} is outside [0, {space.num_axes - 1}]")
    axis = space.axes[axis_idx]
    if not 0 <= offset < max(axis.size - 1, 1):
        raise ValueError(f"offset {offset} is outside [0, {max(axis.size - 2, 0)}] on axis {axis.name!r}")
    indices = space.indices_of(genotype).tolist()
    if axis.size > 1:
        old = indices[axis_idx]
        indices[axis_idx] = offset + (offset >= old)
    return space.genotype_from_indices(indices)


@dataclass
class RegularizedEaState:
    """The population in age order, oldest first: each member's row-major
    flat index (an ``int``, the scorer's memo key) and, in ``fitness``, its
    score; the step count, the best score found so far and, in ``best``,
    the flat index of the first genotype that scored it. ``held`` is the
    next step's child, drawn ahead because the memo does not know it."""

    population: list[int]
    fitness: list[float]
    generation: int
    best_fitness: float
    best: int
    held: int | None = None


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

    Each step takes the fittest of a uniform tournament, mutates it on one
    uniform axis to a uniform different value, appends the child and drops
    the oldest member. The winner is found by a loop over the tournament's
    slots in age order in which only a strictly lower score replaces the
    leader, so ties go to the oldest. Steps draw their uniforms in blocks
    of ``REA_DRAW_BLOCK`` (256) rows of ``population_size + 2``, one row per
    step: the tournament is the ``tournament_size`` smallest of a row's first
    ``population_size``, the axis ``floor(u * num_axes)`` and the offset
    ``floor(u * (size - 1))``. The run stops once the budget is spent, the
    whole space has been scored, or after ``REA_STEPS_PER_BUDGET_UNIT *
    budget`` steps, capped at ``sys.maxsize``. A NaN or infinite score fails
    the run with ``TraceError`` at the trace row after it enters the
    population.

    Members are the space's flat indices (``DiscreteSpace.strides``), the
    scorer's memo keys, so a step moves an axis with integer arithmetic on
    the parent's index and looks the child up as it is. A child turns back
    into a row of value indices, by ``space.unravel``, only when it is scored.

    One ``drive`` generation covers one newly scored genotype: ``ask``
    returns the held child's row, ``score_rows`` scores it, and ``tell``
    commits it, runs the following steps whose child the memo knows (they
    spend nothing), and holds the first child it does not know. A block is
    drawn only when the run reaches its first step, so the trace and the
    best genotype are those of one generation per step, whose rows ``drive``
    collapses at unchanged evaluation counts, whatever the block size. The
    generator ends after the last block drawn: past the last step taken, it
    has drawn the rows of up to ``REA_DRAW_BLOCK - 1`` steps the run did not
    take. The state keeps the best member, which the run returns; only a
    newly scored child can beat it.
    """
    rng = np.random.default_rng(rng)
    scorer = BudgetedScorer(space, predictor, biobjective, config.budget)
    rows = rng.integers(space.sizes, size=(config.population_size, space.num_axes))
    values, _ = scorer.score_rows(rows)  # budget >= population_size
    population = (rows @ space.strides).tolist()
    best = int(values.argmin())
    state = RegularizedEaState(population, values.tolist(), 0, values.item(best), population[best])
    draws = _step_draws(space, config, rng)
    # capped where islice's stop argument ends; no run reaches that many steps
    max_steps = min(REA_STEPS_PER_BUDGET_UNIT * config.budget, sys.maxsize)

    def run_hits(finite):
        """Run the steps whose child the memo knows and hold the first child
        it does not. A step starts while budget is left and the space is not
        all scored, which no hit changes; no step follows a non-finite score,
        because it fails the next row."""
        population, scores = state.population, state.fitness
        step = state.generation
        if finite and scorer.evaluations < scorer.budget:
            lookup, join, record = scorer.scores.get, population.append, scores.append
            # islice draws no step beyond the cap
            for picks, stride, offset, size in islice(draws, max_steps - step):
                # the tournament's winner: picks are in age order and only a
                # strictly lower score replaces the leader, so ties go to the
                # oldest; inline, it makes no call per pick
                winner = picks[0]
                low = scores[winner]
                for slot in picks:
                    if scores[slot] < low:
                        winner, low = slot, scores[slot]
                child = population[winner]
                if size > 1:  # mutate_one_axis's move, on the flat index
                    old = child // stride % size
                    child += (offset + (offset >= old) - old) * stride
                value = lookup(child)
                if value is None:
                    state.held = child
                    break
                del population[0], scores[0]  # oldest dies
                join(child)
                record(value)
                step += 1
        state.generation = step

    def tell(_row, scored):
        child, value = state.held, scored[0].item()
        del state.population[0], state.fitness[0]  # oldest dies
        state.population.append(child)
        state.fitness.append(value)
        state.generation += 1
        if value < state.best_fitness:
            state.best_fitness, state.best = value, child
        run_hits(math.isfinite(value))

    run_hits(all(map(math.isfinite, state.fitness)))
    # a step starts while one unit of budget is left, so every held child is scored
    trace = scorer.search(
        state,
        ask=lambda: space.unravel(state.held),
        evaluate=scorer.score_rows,
        tell=tell,
        algorithm="regularized_ea",
        max_generations=max_steps,
    )
    return space.genotype_from_indices(space.unravel(state.best)[0]), trace


def _step_draws(space: DiscreteSpace, config: RegularizedEaConfig, rng):
    """An iterator over each step's tournament (population slots in age
    order, sorted), the stride of its axis in ``space.strides``, its value
    offset and the axis size. It draws a block of steps when it reaches one,
    not before."""
    pop_size, tournament_size = config.population_size, config.tournament_size
    sizes = np.array(space.sizes)

    def block(_):
        u = rng.random((REA_DRAW_BLOCK, pop_size + 2))
        smallest = np.argpartition(u[:, :pop_size], tournament_size - 1, axis=1)[:, :tournament_size]
        tournaments = np.sort(smallest, axis=1)
        axes = uniform_index(u[:, pop_size], len(sizes))
        size = sizes[axes]
        # over the values an axis can move to; -1 on a single-value axis,
        # which the step leaves where it is
        offsets = uniform_index(u[:, pop_size + 1], size - 1)
        return zip(tournaments.tolist(), space.strides.take(axes).tolist(), offsets.tolist(), size.tolist())

    return chain.from_iterable(map(block, repeat(None)))
