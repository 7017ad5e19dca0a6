"""The generation loops of ``shsade.run``, ``baselines.vanilla_de_run`` and
``nas_search.nas_evolve`` (with ``shsade.init_state``) as they were written
before ``shsade.drive`` took them over.

Kept verbatim as the reference that the drivers must match row for row and
draw for draw. The only edits: ``init_population`` returns ``(x, fitness)``
instead of a population object, ``Individual`` takes no ``evaluated``
flag, ``sample_distinct_triplets`` takes a block of uniforms, a seed
becomes a ``Generator`` through ``np.random.default_rng``, and
``nas_evolve`` draws its initial population as one block of uniform value
indices and one block of normal noise, and redraws all rows but the first
the same way once every row decodes to one genotype. The SHSADE states start
from an empty ``(0, dimension)`` archive array, and vanilla DE's selection
keeps a -inf trial out, as NaN and +inf ones already were. ``regularized_ea_run`` is aging
evolution written as a plain list loop over the block-drawn stream that
``baselines.regularized_ea_run`` consumes. Both searches score through
``ReferenceScorer``, the one-genotype memo keyed by choices that
``nas_search.BudgetedScorer.try_score`` was before the scorer's batch path
became its only path. Nothing here is used outside the tests.
"""

import math

import numpy as np

from shsade_pids.de_core import (
    Bounds,
    Individual,
    binomial_crossover_matrix,
    init_population,
    repair_bounds_matrix,
    sample_distinct_triplets,
)
from shsade_pids.baselines import REA_DRAW_BLOCK, REA_STEPS_PER_BUDGET_UNIT
from shsade_pids.discrete_codec import Genotype, decode_indices
from shsade_pids.nas_search import score
from shsade_pids.shsade import (
    CURRENT_TO_PBEST,
    ParameterMemories,
    ShsadeState,
    StrategyState,
    Termination,
    build_trials,
    commit_generation,
    shsade_generation,
)
from shsade_pids.trace import SearchTrace


class ReferenceScorer:
    """Memoizing scorer keyed by a genotype's choices, one genotype at a
    time; each distinct genotype costs one budget unit."""

    def __init__(self, predictor, biobjective, budget):
        self.predictor = predictor
        self.biobjective = biobjective
        self.budget = int(budget)
        self.scores = {}
        self.evaluations = 0
        self.best_genotype = None
        self.best_score = math.inf

    def try_score(self, genotype):
        key = genotype.choices
        cached = self.scores.get(key)
        if cached is not None:
            return cached
        if self.evaluations >= self.budget:
            return None
        value = score(genotype, self.predictor, self.biobjective)
        self.scores[key] = value
        self.evaluations += 1
        if value < self.best_score:
            self.best_score = value
            self.best_genotype = genotype
        return value

    def score_rows(self, space, indices):
        """``try_score`` of each row's genotype in row order: the scores,
        +inf where the budget ran out, and a mask of the rows scored."""
        values = np.full(len(indices), np.inf)
        scored = np.zeros(len(indices), dtype=bool)
        for k, row in enumerate(indices):
            value = self.try_score(space.genotype_from_indices(row))
            if value is not None:
                values[k], scored[k] = value, True
        return values, scored


def init_state(config, spec, rng):
    rng = np.random.default_rng(rng)
    x, fitness = init_population(spec, config.pop_size, rng)
    best_idx = int(np.argmin(fitness))
    strategy = (
        StrategyState.uniform()
        if config.use_trigonometric
        else StrategyState.single(CURRENT_TO_PBEST)
    )
    return ShsadeState(
        x=x,
        fitness=fitness,
        bounds=spec.bounds,
        memories=ParameterMemories.initial(config.memory_size, freq=config.freq_init),
        strategy=strategy,
        archive=np.empty((0, spec.dimension)),
        generation=0,
        evaluations=config.pop_size,
        best_x=x[best_idx].copy(),
        best_fitness=float(fitness[best_idx]),
        config=config,
    )


def run(config, spec, termination=None, rng=None):
    term = termination or Termination()
    rng = np.random.default_rng(rng)
    state = init_state(config, spec, rng)
    trace = SearchTrace(metadata={"algorithm": "shsade"})
    trace.append(0, state.evaluations, state.best_fitness, float(np.mean(state.fitness)))
    while state.generation < config.max_generations:
        if term.target_fitness is not None and state.best_fitness <= term.target_fitness:
            break
        if (
            term.max_evaluations is not None
            and state.evaluations + config.pop_size > term.max_evaluations
        ):
            break
        shsade_generation(state, spec, rng)
        trace.append(
            state.generation, state.evaluations, state.best_fitness, float(np.mean(state.fitness))
        )
    return state.best, trace


def vanilla_de_run(config, spec, termination=None, rng=None):
    term = termination or Termination()
    rng = np.random.default_rng(rng)
    x, fitness = init_population(spec, config.pop_size, rng)
    pop_size = config.pop_size
    rows = np.arange(pop_size)
    cr = np.full(pop_size, config.cr)

    best_idx = int(np.argmin(fitness))
    best_x = x[best_idx].copy()
    best_fitness = float(fitness[best_idx])
    evaluations = pop_size
    generation = 0

    trace = SearchTrace(metadata={"algorithm": "vanilla_de"})
    trace.append(0, evaluations, best_fitness, float(np.mean(fitness)))

    while generation < config.max_generations:
        if term.target_fitness is not None and best_fitness <= term.target_fitness:
            break
        if term.max_evaluations is not None and evaluations + pop_size > term.max_evaluations:
            break
        r1, r2, r3 = sample_distinct_triplets(pop_size, rows, rng.random((3, pop_size)))
        donors = x[r1] + config.f * (x[r2] - x[r3])
        trials = binomial_crossover_matrix(x, donors, cr, rng)
        trials = repair_bounds_matrix(trials, spec.bounds, x)
        trial_fitness = spec.evaluate_many(trials)
        accepted = (trial_fitness <= fitness) & (trial_fitness > -np.inf)
        x[accepted] = trials[accepted]
        fitness[accepted] = trial_fitness[accepted]
        evaluations += pop_size
        generation += 1
        idx = int(np.argmin(fitness))
        if fitness[idx] < best_fitness:
            best_fitness = float(fitness[idx])
            best_x = x[idx].copy()
        trace.append(generation, evaluations, best_fitness, float(np.mean(fitness)))

    return Individual(best_x, best_fitness), trace


def nas_evolve(space, predictor, config, rng=None):
    rng = np.random.default_rng(rng)
    sh = config.shsade
    scorer = ReferenceScorer(predictor, config.biobjective, config.budget)
    m = space.num_axes
    bounds = Bounds(np.zeros(m), np.ones(m))

    def random_rows(rows):
        # a uniform value index per axis, its encoding, then clamped Gaussian noise
        u = rng.random((rows, m))
        noise = rng.standard_normal((rows, m))
        x = np.empty((rows, m))
        for i in range(rows):
            for a, axis in enumerate(space.axes):
                k = min(int(u[i, a] * axis.size), axis.size - 1)
                encoded = 0.5 if axis.size == 1 else k / (axis.size - 1)
                x[i, a] = min(max(encoded + config.sigma_init_noise * noise[i, a], 0.0), 1.0)
        return x

    x0 = random_rows(sh.pop_size)
    f0, scored = scorer.score_rows(space, decode_indices(x0, space))
    assert scored.all()  # budget >= pop_size makes initialization affordable

    best_idx = int(np.argmin(f0))
    strategy = (
        StrategyState.uniform() if sh.use_trigonometric else StrategyState.single(CURRENT_TO_PBEST)
    )
    state = ShsadeState(
        x=x0,
        fitness=f0,
        bounds=bounds,
        memories=ParameterMemories.initial(sh.memory_size, freq=sh.freq_init),
        strategy=strategy,
        archive=np.empty((0, m)),
        generation=0,
        evaluations=sh.pop_size,
        best_x=x0[best_idx].copy(),
        best_fitness=float(f0[best_idx]),
        config=sh,
    )

    trace = SearchTrace(metadata={"algorithm": "shsade_pids"})
    trace.append(0, scorer.evaluations, scorer.best_score, float(np.mean(f0)))

    while (
        state.generation < sh.max_generations
        and scorer.evaluations < config.budget
        and scorer.evaluations < space.size
    ):
        batch = build_trials(state, rng)
        if config.sigma_trial_noise > 0:
            batch.x = np.clip(
                batch.x + rng.normal(0.0, config.sigma_trial_noise, size=batch.x.shape), 0.0, 1.0
            )
        # rows left unscored once the budget is spent keep +inf and are not
        # evaluated, so their parents survive unchallenged
        trial_fitness, evaluated = scorer.score_rows(space, decode_indices(batch.x, space))
        commit_generation(state, batch, trial_fitness, rng, evaluated)
        genotypes = {tuple(row) for row in decode_indices(state.x, space).tolist()}
        if len(genotypes) == 1:
            x = random_rows(sh.pop_size - 1)
            f, scored = scorer.score_rows(space, decode_indices(x, space))
            for i in range(sh.pop_size - 1):
                if scored[i]:
                    state.x[i + 1] = x[i]
                    state.fitness[i + 1] = f[i]
        trace.append(
            state.generation, scorer.evaluations, scorer.best_score, float(np.mean(state.fitness))
        )

    assert scorer.best_genotype is not None
    return scorer.best_genotype, trace


def regularized_ea_run(space, predictor, config, biobjective, rng=None):
    rng = np.random.default_rng(rng)
    scorer = ReferenceScorer(predictor, biobjective, config.budget)
    pop_size = config.population_size

    population = []  # (genotype, score), oldest first
    for _ in range(pop_size):
        genotype = space.random_genotype(rng)
        population.append((genotype, scorer.try_score(genotype)))

    trace = SearchTrace(metadata={"algorithm": "regularized_ea"})
    trace.append(0, scorer.evaluations, scorer.best_score, float(np.mean([v for _, v in population])))

    steps = 0
    while (
        scorer.evaluations < config.budget
        and scorer.evaluations < space.size
        and steps < REA_STEPS_PER_BUDGET_UNIT * config.budget
    ):
        if steps % REA_DRAW_BLOCK == 0:
            block = rng.random((REA_DRAW_BLOCK, pop_size + 2)).tolist()
        u = block[steps % REA_DRAW_BLOCK]
        # the tournament_size members with the smallest uniforms; the first
        # fittest in age order wins
        picks = sorted(sorted(range(pop_size), key=lambda i: u[i])[: config.tournament_size])
        parent = min((population[i] for i in picks), key=lambda item: item[1])[0]
        axis_idx = min(int(u[pop_size] * space.num_axes), space.num_axes - 1)
        axis = space.axes[axis_idx]
        choices = list(parent.choices)
        if axis.size > 1:
            others = [value for value in axis.values if value != choices[axis_idx]]
            choices[axis_idx] = others[min(int(u[pop_size + 1] * (axis.size - 1)), axis.size - 2)]
        child = Genotype(tuple(choices))
        population.append((child, scorer.try_score(child)))
        population.pop(0)  # oldest dies
        steps += 1
        trace.append(steps, scorer.evaluations, scorer.best_score, float(np.mean([v for _, v in population])))

    return scorer.best_genotype, trace
