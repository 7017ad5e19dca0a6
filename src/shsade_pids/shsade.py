"""Success-history adaptive differential evolution (SHSADE).

Control parameters are sampled around entries of circular success memories:
crossover rates from a normal distribution and scale factors from a Cauchy
distribution in the second half of a run, while the first half mixes two
sinusoidal scale-factor schedules (a fixed-frequency decreasing one and an
increasing one whose frequency is Cauchy-sampled around a frequency memory).
Mutation picks per individual between current-to-pbest/1 and a trigonometric
centroid move, with selection probabilities adapted to each strategy's
success rate over a sliding learning period. Replaced parents feed an
archive that widens the difference-vector pool.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .de_core import (
    MIN_POP_SIZE,
    Bounds,
    Individual,
    ObjectiveSpec,
    binomial_crossover_matrix,
    init_population,
    repair_bounds_matrix,
    replace_rows,
    sample_distinct_triplets,
    skip,
    uniform_index,
)
from .trace import SearchTrace

CURRENT_TO_PBEST = 0
TRIGONOMETRIC = 1
STRATEGY_NAMES = ("current_to_pbest", "trigonometric")

# consecutive rejected draws tolerated before a sampler falls back to the
# memory entry itself (pathological location; the run must never abort)
MAX_SAMPLE_RETRIES = 100


# ---------------------------------------------------------------------------
# state containers


@dataclass
class ParameterMemories:
    """Circular success memories for CR, F and the sinusoidal frequency."""

    mcr: np.ndarray
    mf: np.ndarray
    mfreq: np.ndarray
    next_update_index: int = 0

    def __post_init__(self):
        self.mcr = np.asarray(self.mcr, dtype=float).copy()
        self.mf = np.asarray(self.mf, dtype=float).copy()
        self.mfreq = np.asarray(self.mfreq, dtype=float).copy()
        if not (self.mcr.size == self.mf.size == self.mfreq.size >= 1):
            raise ValueError("all three memories must share one length >= 1")
        if np.any(self.mcr < 0) or np.any(self.mcr > 1):
            raise ValueError("MCR entries must lie in [0, 1]")
        if np.any(self.mf <= 0) or np.any(self.mf > 1):
            raise ValueError("MF entries must lie in (0, 1]")
        if np.any(self.mfreq <= 0) or np.any(self.mfreq > 1):
            raise ValueError("Mfreq entries must lie in (0, 1]")
        if not 0 <= self.next_update_index < self.mcr.size:
            raise ValueError("next_update_index out of range")

    @property
    def size(self) -> int:
        return int(self.mcr.size)

    @classmethod
    def initial(cls, size: int, freq: float):
        """CR and F entries start at 0.5, as in SHADE; frequencies at ``freq``."""
        return cls(np.full(size, 0.5), np.full(size, 0.5), np.full(size, freq))

    def copy(self) -> "ParameterMemories":
        return ParameterMemories(self.mcr, self.mf, self.mfreq, self.next_update_index)


@dataclass
class SuccessSets:
    """Parameter values of trials that strictly improved this generation;
    ``commit_generation`` fills them with arrays."""

    scr: Sequence[float] = field(default_factory=list)
    sf: Sequence[float] = field(default_factory=list)
    sfreq: Sequence[float] = field(default_factory=list)

    def any(self) -> bool:
        return bool(len(self.scr) or len(self.sf) or len(self.sfreq))


@dataclass
class StrategyState:
    """Selection probabilities plus success/failure tallies per strategy."""

    probabilities: np.ndarray
    success_counts: np.ndarray
    failure_counts: np.ndarray
    generations_in_window: int = 0

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float).copy()
        self.success_counts = np.asarray(self.success_counts, dtype=int).copy()
        self.failure_counts = np.asarray(self.failure_counts, dtype=int).copy()
        if abs(float(self.probabilities.sum()) - 1.0) > 1e-9:
            raise ValueError("strategy probabilities must sum to 1")

    @classmethod
    def uniform(cls) -> "StrategyState":
        n = len(STRATEGY_NAMES)
        return cls(np.full(n, 1.0 / n), np.zeros(n, int), np.zeros(n, int))

    @classmethod
    def single(cls, index: int) -> "StrategyState":
        n = len(STRATEGY_NAMES)
        p = np.zeros(n)
        p[index] = 1.0
        return cls(p, np.zeros(n, int), np.zeros(n, int))


@dataclass
class ShsadeConfig:
    pop_size: int = 50
    memory_size: int = 10
    max_generations: int = 1000
    p_best_fraction: float = 0.11
    archive_capacity: int | None = None  # None resolves to pop_size
    learning_period: int = 20
    p_min: float = 0.05
    strategy_epsilon: float = 0.01
    freq_init: float = 0.5
    sigma_cauchy_f: float = 0.1  # scale of the Cauchy F and frequency draws
    sigma_cr: float = 0.1
    crossover_target: str = "self"  # "best" recombines donors with the population best
    # ablations: each switches off one of the method's two mechanisms
    use_sinusoidal: bool = True
    use_trigonometric: bool = True

    def __post_init__(self):
        if self.pop_size < MIN_POP_SIZE:
            raise ValueError(f"pop_size must be at least {MIN_POP_SIZE}")
        if self.memory_size < 1:
            raise ValueError("memory_size must be at least 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        if self.max_generations > sys.float_info.max:
            # the sinusoidal schedules and the phase switch compute with it as a float
            raise ValueError("max_generations must not exceed the largest float")
        if not 0 < self.p_best_fraction <= 1:
            raise ValueError("p_best_fraction must lie in (0, 1]")
        if self.learning_period < 1:
            raise ValueError("learning_period must be at least 1")
        if not 0 <= self.p_min < 0.5:
            raise ValueError("p_min must lie in [0, 0.5) for a two-strategy pool")
        if not 0 < self.freq_init <= 1:
            raise ValueError("freq_init must lie in (0, 1]")
        for name in ("strategy_epsilon", "sigma_cauchy_f", "sigma_cr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.crossover_target not in ("self", "best"):
            raise ValueError("crossover_target must be 'self' or 'best'")
        if self.archive_capacity is not None and self.archive_capacity < 0:
            raise ValueError("archive_capacity must be non-negative")

    def resolved_archive_capacity(self) -> int:
        return self.pop_size if self.archive_capacity is None else int(self.archive_capacity)


@dataclass
class Termination:
    max_evaluations: int | None = None
    target_fitness: float | None = None


@dataclass
class ShsadeState:
    x: np.ndarray
    fitness: np.ndarray
    bounds: Bounds
    memories: ParameterMemories
    strategy: StrategyState
    archive: list[np.ndarray]
    generation: int
    evaluations: int
    best_x: np.ndarray
    best_fitness: float
    config: ShsadeConfig

    @classmethod
    def initial(cls, config: ShsadeConfig, x: np.ndarray, fitness: np.ndarray, bounds: Bounds) -> "ShsadeState":
        """Generation 0 of a run from an evaluated population: initial
        memories, an empty archive and the population's best point."""
        strategy = (
            StrategyState.uniform()
            if config.use_trigonometric
            else StrategyState.single(CURRENT_TO_PBEST)
        )
        state = cls(
            x=x,
            fitness=fitness,
            bounds=bounds,
            memories=ParameterMemories.initial(config.memory_size, freq=config.freq_init),
            strategy=strategy,
            archive=[],
            generation=0,
            evaluations=config.pop_size,
            best_x=None,
            best_fitness=math.inf,
            config=config,
        )
        replace_rows(state, slice(None), x, fitness)
        return state

    @property
    def best(self) -> Individual:
        return Individual(self.best_x.copy(), float(self.best_fitness))


@dataclass
class TrialBatch:
    """One generation's trial vectors plus the parameters that built them.

    ``f``, ``cr`` and ``freq`` are NaN on rows where the value was not used
    (trigonometric rows have no F/CR; only adaptive-sinusoidal rows carry a
    frequency), so success-set collection can filter on NaN.
    """

    x: np.ndarray
    strategies: np.ndarray
    f: np.ndarray
    cr: np.ndarray
    freq: np.ndarray


# ---------------------------------------------------------------------------
# parameter sampling
#
# Each individual draws one memory slot per generation and reads its CR and
# its F or frequency from that slot, as SHADE (Tanabe & Fukunaga 2013) does;
# the samplers take those slots.


def sample_cr(memories: ParameterMemories, rng, slots: np.ndarray, sigma: float) -> np.ndarray:
    """CR ~ normal(MCR[s], sigma) for each memory slot s in ``slots``, clamped to [0, 1]."""
    # min/max instead of np.clip: the same values for these never-NaN draws,
    # without np.clip's dispatch overhead
    return np.minimum(np.maximum(memories.mcr[slots] + sigma * rng.standard_normal(slots.size), 0.0), 1.0)


def _resampled(memory: np.ndarray, rng, slots, sigma: float, upper_reject: bool) -> np.ndarray:
    """``loc + sigma * rng.standard_cauchy(n)`` around the entries ``loc`` of
    ``memory`` at ``slots``, resampled while non-positive (and above 1 when
    ``upper_reject``), then truncated to 1 from above; entries still rejected
    after ``MAX_SAMPLE_RETRIES`` rounds fall back to their loc."""
    loc = memory[slots]
    values = loc + sigma * rng.standard_cauchy(slots.size)

    def bad_mask(v):
        bad = v <= 0.0
        if upper_reject:
            bad |= v > 1.0
        return bad

    bad = bad_mask(values)
    n_bad = np.count_nonzero(bad)
    retries = 0
    while n_bad:
        retries += 1
        if retries > MAX_SAMPLE_RETRIES:
            values[bad] = loc[bad]
            break
        values[bad] = loc[bad] + sigma * rng.standard_cauchy(n_bad)
        bad = bad_mask(values)
        n_bad = np.count_nonzero(bad)
    return np.minimum(values, 1.0)


def sample_f_cauchy(memories: ParameterMemories, rng, slots: np.ndarray, sigma: float) -> np.ndarray:
    """F ~ Cauchy(MF[s], sigma) for each slot s: truncated to 1 from above,
    resampled while non-positive, falling back to MF[s] after
    ``MAX_SAMPLE_RETRIES`` rejections."""
    return _resampled(memories.mf, rng, slots, sigma, False)


def sample_freq(memories: ParameterMemories, rng, slots: np.ndarray, sigma: float) -> np.ndarray:
    """freq ~ Cauchy(Mfreq[s], sigma) for each slot s, resampled into (0, 1]."""
    return _resampled(memories.mfreq, rng, slots, sigma, True)


def decreasing_sinusoidal_f(generation: int, max_generations: int, freq: float) -> float:
    """Fixed-frequency decreasing schedule; the oscillation amplitude shrinks
    linearly and vanishes at the final generation, where F = 0.5."""
    g = float(generation)
    gmax = float(max_generations)
    return 0.5 * (math.sin(2.0 * math.pi * freq * g + math.pi) * (gmax - g) / gmax + 1.0)


def adaptive_sinusoidal_f(generation: int, max_generations: int, freq):
    """Increasing schedule whose oscillation amplitude grows with g / Gmax;
    ``freq`` may be a scalar or a per-individual vector."""
    g = float(generation)
    gmax = float(max_generations)
    return 0.5 * (np.sin(2.0 * np.pi * np.asarray(freq, dtype=float) * g) * g / gmax + 1.0)


def lehmer_mean(values) -> float:
    """Contraharmonic mean sum(v^2) / sum(v); never below the arithmetic mean."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("lehmer_mean needs at least one value")
    if np.any(values <= 0):
        raise ValueError("lehmer_mean requires strictly positive values")
    return float(np.sum(values * values) / np.sum(values))


# ---------------------------------------------------------------------------
# mutation


def trigonometric_donor(x1, x2, x3, f1: float, f2: float, f3: float) -> np.ndarray:
    """Centroid of three points plus fitness-weighted leg perturbations.

    When all three |fitness| values are zero the weights are undefined and the
    donor degenerates to the plain centroid.
    """
    points = np.array([x1, x2, x3], dtype=float)
    return _trigonometric_donors(points, np.array([f1, f2, f3], dtype=float), [0], [1], [2])[0]


def _select_pbest_partners(
    fitness: np.ndarray,
    archive_size: int,
    rows: np.ndarray,
    p_best_fraction: float,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row i: a pbest index from the top ceil(p * NP) (at least 2, so an
    alternative to i always exists), r1 from the population and r2 from the
    population plus archive, all distinct from i and from each other, from a
    ``(3, rows.size)`` block of uniforms: one row of it per index."""
    pop_size = fitness.size
    k = min(pop_size, max(2, math.ceil(p_best_fraction * pop_size)))
    order = np.argsort(fitness, kind="stable")
    place = np.empty(pop_size, dtype=np.intp)
    place[order] = np.arange(pop_size)
    own = place[rows]  # i's place in the order; pbest skips it only when it lies in the top k
    pbest = order[skip(uniform_index(u[0], k - (own < k)), own)]
    v1, v2 = uniform_index(u[1:], np.array([[pop_size - 2], [pop_size + archive_size - 3]]))
    p = pbest - (pbest > rows)  # pbest's place among the indices other than i
    return pbest, skip(skip(v1, p), rows), skip(skip(skip(v2, v1), p), rows)


def _current_to_pbest_donors(
    x: np.ndarray,
    pool: np.ndarray,
    rows: np.ndarray,
    pbest: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
    f: np.ndarray,
) -> np.ndarray:
    """Donors x_i + F_i (x_pbest - x_i) + F_i (x_r1 - x_r2) for the rows i in
    ``rows``, before boundary repair; ``r2`` indexes ``pool``, the population
    followed by the archive."""
    own = x[rows]
    step = f[rows][:, None]
    return own + step * (x[pbest] - own) + step * (x[r1] - pool[r2])


def _trigonometric_donors(
    x: np.ndarray, fitness: np.ndarray, r1: np.ndarray, r2: np.ndarray, r3: np.ndarray
) -> np.ndarray:
    picks = np.array((r1, r2, r3))
    a = np.abs(fitness[picks])
    x1, x2, x3 = x[picks]
    total = a[0] + a[1] + a[2]
    centroid = (x1 + x2 + x3) / 3.0
    positive = total > 0
    w1, w2, w3 = np.where(positive, a / np.where(positive, total, 1.0), 0.0)[:, :, None]
    return centroid + (w2 - w1) * (x1 - x2) + (w3 - w2) * (x2 - x3) + (w1 - w3) * (x3 - x1)


# ---------------------------------------------------------------------------
# strategy adaptation and memory updates


def update_strategy_probs(state: StrategyState, p_min: float, epsilon: float) -> StrategyState:
    """Probability matching over the finished learning window.

    Each strategy's selection mass is p_min plus the remaining mass split in
    proportion to success_rate + epsilon; strategies without trials count a
    zero rate. With no trials at all the probabilities stay untouched.
    Tallies are reset either way.
    """
    totals = state.success_counts + state.failure_counts
    if totals.sum() > 0:
        rates = np.where(totals > 0, state.success_counts / np.maximum(totals, 1), 0.0)
        q = rates + epsilon
        n = q.size
        state.probabilities = p_min + (1.0 - n * p_min) * q / q.sum()
    state.success_counts[:] = 0
    state.failure_counts[:] = 0
    return state


def update_memories(memories: ParameterMemories, success: SuccessSets) -> ParameterMemories:
    """Fold this generation's success means into one memory slot.

    CR and F slots take the arithmetic mean of their success sets, the
    frequency slot the Lehmer mean; each replaces the old entry, as in
    SHADE. Empty success sets leave the memories bit-identical and do not
    advance the circular index.
    """
    if not success.any():
        return memories
    k = memories.next_update_index
    # np.add.reduce(v) / n: the bits of np.mean, without its Python-level wrapper
    if len(success.scr):
        memories.mcr[k] = min(max(float(np.add.reduce(success.scr) / len(success.scr)), 0.0), 1.0)
    if len(success.sf):
        memories.mf[k] = min(float(np.add.reduce(success.sf) / len(success.sf)), 1.0)
    if len(success.sfreq):
        memories.mfreq[k] = min(lehmer_mean(success.sfreq), 1.0)
    memories.next_update_index = (k + 1) % memories.size
    return memories


# ---------------------------------------------------------------------------
# generation loop


def init_state(config: ShsadeConfig, spec: ObjectiveSpec, rng) -> ShsadeState:
    x, fitness = init_population(spec, config.pop_size, np.random.default_rng(rng))
    return ShsadeState.initial(config, x, fitness, spec.bounds)


def build_trials(state: ShsadeState, rng: np.random.Generator) -> TrialBatch:
    """Construct one generation of repaired trial vectors from the current
    population snapshot, without evaluating anything.

    Draws, in order: ``rng.random((6, pop_size))``, the CR normals, the F
    or frequency draws with their resampling rounds, and one crossover
    block for both strategies. The first block's rows give each individual
    its strategy, its one memory slot (read for CR and for F or the
    frequency, as in SHADE), its sinusoid coin and three partner uniforms
    (see ``de_core.skip``). Earlier versions made about 22 calls per
    generation, redrew clashing partners and drew a slot per parameter, so
    their runs differ from these from the same seed.
    """
    cfg = state.config
    x = state.x
    fitness = state.fitness
    pop_size = fitness.size
    gen = state.generation + 1

    u = rng.random((6, pop_size))
    cdf = state.strategy.probabilities.cumsum()
    cdf /= cdf[-1]
    strategies = cdf.searchsorted(u[0], side="right")
    slots = uniform_index(u[1], state.memories.size)
    cr = sample_cr(state.memories, rng, slots, cfg.sigma_cr)

    if cfg.use_sinusoidal and gen <= cfg.max_generations / 2:
        decreasing = u[2] < 0.5
        freqs = sample_freq(state.memories, rng, slots, cfg.sigma_cauchy_f)
        f = np.where(
            decreasing,
            decreasing_sinusoidal_f(gen, cfg.max_generations, cfg.freq_init),
            adaptive_sinusoidal_f(gen, cfg.max_generations, freqs),
        )
        freq_used = np.where(decreasing, np.nan, freqs)
    else:
        f = sample_f_cauchy(state.memories, rng, slots, cfg.sigma_cauchy_f)
        freq_used = np.full(pop_size, np.nan)

    pbest_rows = np.flatnonzero(strategies == CURRENT_TO_PBEST)
    trig_rows = np.flatnonzero(strategies == TRIGONOMETRIC)
    donors = np.empty_like(x)
    if pbest_rows.size:
        pbest, r1, r2 = _select_pbest_partners(
            fitness, len(state.archive), pbest_rows, cfg.p_best_fraction, u[3:, pbest_rows]
        )
        pool = np.concatenate((x, state.archive)) if state.archive else x
        donors[pbest_rows] = _current_to_pbest_donors(x, pool, pbest_rows, pbest, r1, r2, f)
    if trig_rows.size:
        # no F is involved here. The donor recombines with the target like any
        # other: taken raw, trigonometric donors collapse the population onto
        # its centroid and stall the search
        triplets = sample_distinct_triplets(pop_size, trig_rows, u[3:, trig_rows])
        donors[trig_rows] = _trigonometric_donors(x, fitness, *triplets)

    targets = x if cfg.crossover_target == "self" else np.broadcast_to(x[int(np.argmin(fitness))], x.shape)
    trials = repair_bounds_matrix(binomial_crossover_matrix(targets, donors, cr, rng), state.bounds, x)
    # f, cr and freq_used are fresh arrays, read for the last time above
    f[trig_rows] = np.nan
    cr[trig_rows] = np.nan
    freq_used[trig_rows] = np.nan
    return TrialBatch(x=trials, strategies=strategies, f=f, cr=cr, freq=freq_used)


def _used(values: np.ndarray) -> np.ndarray:
    """The values a trial used; NaN marks a parameter the trial did not use."""
    return values[~np.isnan(values)]


def _archive_parents(state: ShsadeState, parents: np.ndarray, rng: np.random.Generator) -> None:
    """Append replaced parents to the archive in row order. Each append that
    overflows the capacity deletes a uniformly drawn row, shifting the later
    rows down, so the archive keeps its list order.

    All of a generation's deletions are drawn in one ``rng.random`` call,
    each as ``floor(u * (capacity + 1))``: a batched call yields the same
    values as one call per deletion. Capacity 0 keeps nothing and draws
    nothing.
    """
    archive = state.archive
    capacity = state.config.resolved_archive_capacity()
    if capacity == 0:
        return
    # one array per row: views of ``parents`` would keep the whole block
    # alive while any one of its rows stays archived
    rows = [row.copy() for row in parents]
    overflow = len(archive) + len(rows) - capacity
    if overflow <= 0:
        archive.extend(rows)
        return
    free = len(rows) - overflow
    archive.extend(rows[:free])
    for row, j in zip(rows[free:], uniform_index(rng.random(overflow), capacity + 1).tolist()):
        archive.append(row)
        del archive[j]


def commit_generation(
    state: ShsadeState,
    batch: TrialBatch,
    trial_fitness: np.ndarray,
    rng: np.random.Generator,
    evaluated: np.ndarray | None = None,
) -> ShsadeState:
    """Apply greedy selection and all end-of-generation bookkeeping.

    Rows with ``evaluated`` False are skipped entirely (parent survives, no
    strategy tally, no archive entry); this is how budget-limited drivers
    drop trials they could not afford to score.

    Non-finite trials: after initialisation, an evaluated trial whose
    fitness is NaN or +inf never replaces its parent. ``NaN <= parent`` is
    false, and so is ``inf <= parent`` for any parent that began finite,
    since a parent is only ever replaced by a trial at or below it. Such a
    trial enters neither the success sets nor the archive, and it counts as
    a failed try for its strategy.
    """
    cfg = state.config
    tf = np.asarray(trial_fitness, dtype=float)
    accepted = tf <= state.fitness
    improved = tf < state.fitness
    tried = batch.strategies
    if evaluated is not None:
        evaluated = np.asarray(evaluated, dtype=bool)
        accepted &= evaluated
        improved &= evaluated
        tried = tried[evaluated]

    success = SuccessSets(
        scr=_used(batch.cr[improved]), sf=_used(batch.f[improved]), sfreq=_used(batch.freq[improved])
    )
    # the archive takes the parents before the trials replace them
    _archive_parents(state, state.x[accepted], rng)
    replace_rows(state, accepted, batch.x[accepted], tf[accepted])

    n_strategies = state.strategy.success_counts.size
    won = np.bincount(batch.strategies[improved], minlength=n_strategies)
    state.strategy.success_counts += won
    state.strategy.failure_counts += np.bincount(tried, minlength=n_strategies) - won
    state.strategy.generations_in_window += 1
    if cfg.use_trigonometric and state.strategy.generations_in_window >= cfg.learning_period:
        update_strategy_probs(state.strategy, cfg.p_min, cfg.strategy_epsilon)
        state.strategy.generations_in_window = 0

    update_memories(state.memories, success)
    state.generation += 1
    state.evaluations += tried.size
    return state


def shsade_generation(state: ShsadeState, spec: ObjectiveSpec, rng) -> ShsadeState:
    """Run one full generation against a continuous objective.

    Trials are built from the generation-start snapshot and evaluated before
    any state mutation, so an evaluator failure leaves the state untouched.
    """
    rng = np.random.default_rng(rng)
    batch = build_trials(state, rng)
    trial_fitness = spec.evaluate_many(batch.x)
    return commit_generation(state, batch, trial_fitness, rng)


def drive(
    state,
    ask: Callable[[], object],
    evaluate: Callable[[object], tuple[np.ndarray, np.ndarray | None]],
    tell: Callable[[object, np.ndarray, np.ndarray | None], object],
    algorithm: str,
    max_generations: int,
    termination: Termination | None = None,
    room: int | None = None,
    spent: Callable[[], int] | None = None,
) -> SearchTrace:
    """Run generations until a termination criterion holds; return the trace.

    A generation asks for trials, evaluates them and tells the optimizer the
    results: ``ask()`` builds trials from ``state``, ``evaluate(trials)``
    returns their fitness and a mask of the rows evaluated (None: every row),
    and ``tell(trials, fitness, evaluated)`` commits them to ``state``.

    The trace has a row for generation 0 and one after each generation, read
    from ``state.generation``, ``state.best_fitness``, the mean of
    ``state.fitness`` (an array or any sequence of floats) and ``spent()``,
    the evaluations charged so far (``state.evaluations`` unless given). A
    generation starts only while the generation count is below
    ``max_generations``, the termination's target fitness is not reached, and
    ``room`` more evaluations fit within its ``max_evaluations``;
    ``room`` defaults to the population size, so only whole generations run.
    """
    term = termination or Termination()
    spent = spent or (lambda: state.evaluations)
    room = len(state.fitness) if room is None else room
    trace = SearchTrace(metadata={"algorithm": algorithm})
    while True:
        # the same bits as np.mean, without its Python-level wrapper
        mean = np.add.reduce(state.fitness) / len(state.fitness)
        trace.append(state.generation, spent(), state.best_fitness, mean)
        if state.generation >= max_generations:
            break
        if term.target_fitness is not None and state.best_fitness <= term.target_fitness:
            break
        if term.max_evaluations is not None and spent() + room > term.max_evaluations:
            break
        trials = ask()
        tell(trials, *evaluate(trials))
    return trace


def run(
    config: ShsadeConfig,
    spec: ObjectiveSpec,
    termination: Termination | None = None,
    rng=None,
) -> tuple[Individual, SearchTrace]:
    """Optimize ``spec``, stopping at the first satisfied termination criterion.

    Returns the overall best individual and a per-generation trace whose
    first row records the initialized population.
    """
    rng = np.random.default_rng(rng)
    state = init_state(config, spec, rng)
    trace = drive(
        state,
        ask=lambda: build_trials(state, rng),
        evaluate=lambda batch: (spec.evaluate_many(batch.x), None),
        tell=lambda batch, fitness, evaluated: commit_generation(state, batch, fitness, rng, evaluated),
        algorithm="shsade",
        max_generations=config.max_generations,
        termination=termination,
    )
    return state.best, trace
