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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .de_core import (
    MIN_POP_SIZE,
    Bounds,
    Individual,
    ObjectiveSpec,
    Population,
    binomial_crossover_matrix,
    ensure_rng,
    init_population,
    redraw_clashes,
    repair_bounds_matrix,
    sample_distinct_triplets,
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
    def initial(cls, size: int, cr: float = 0.5, f: float = 0.5, freq: float = 0.5):
        return cls(np.full(size, cr), np.full(size, f), np.full(size, freq))

    def copy(self) -> "ParameterMemories":
        return ParameterMemories(self.mcr, self.mf, self.mfreq, self.next_update_index)


@dataclass
class SuccessSets:
    """Parameter values of trials that strictly improved this generation."""

    scr: list[float] = field(default_factory=list)
    sf: list[float] = field(default_factory=list)
    sfreq: list[float] = field(default_factory=list)

    def any(self) -> bool:
        return bool(self.scr or self.sf or self.sfreq)


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
    def uniform(cls, n: int = 2) -> "StrategyState":
        return cls(np.full(n, 1.0 / n), np.zeros(n, int), np.zeros(n, int))

    @classmethod
    def single(cls, index: int, n: int = 2) -> "StrategyState":
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
    memory_learning_rate: float = 1.0  # 1.0 replaces a slot with the new success mean
    freq_init: float = 0.5
    sigma_gauss_f: float = 0.1
    sigma_cauchy_f: float = 0.1
    sigma_cr: float = 0.1
    f_second_half: str = "cauchy"  # "cauchy" or "gaussian"
    crossover_target: str = "self"  # "best" recombines donors with the population best
    # trigonometric donors also pass through binomial crossover; using them raw
    # collapses the population onto its centroid and stalls the search
    crossover_trigonometric: bool = True
    use_sinusoidal: bool = True
    use_trigonometric: bool = True

    def __post_init__(self):
        if self.pop_size < MIN_POP_SIZE:
            raise ValueError(f"pop_size must be at least {MIN_POP_SIZE}")
        if self.memory_size < 1:
            raise ValueError("memory_size must be at least 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        if not 0 < self.p_best_fraction <= 1:
            raise ValueError("p_best_fraction must lie in (0, 1]")
        if self.learning_period < 1:
            raise ValueError("learning_period must be at least 1")
        if not 0 <= self.p_min < 0.5:
            raise ValueError("p_min must lie in [0, 0.5) for a two-strategy pool")
        if not 0 <= self.memory_learning_rate <= 1:
            raise ValueError("memory_learning_rate must lie in [0, 1]")
        if not 0 < self.freq_init <= 1:
            raise ValueError("freq_init must lie in (0, 1]")
        if self.f_second_half not in ("cauchy", "gaussian"):
            raise ValueError("f_second_half must be 'cauchy' or 'gaussian'")
        if self.crossover_target not in ("self", "best"):
            raise ValueError("crossover_target must be 'self' or 'best'")
        if self.archive_capacity is not None and self.archive_capacity < 0:
            raise ValueError("archive_capacity must be non-negative")

    def resolved_archive_capacity(self) -> int:
        return self.pop_size if self.archive_capacity is None else int(self.archive_capacity)


@dataclass
class Termination:
    max_generations: int | None = None
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
    archive_capacity: int
    generation: int
    evaluations: int
    best_x: np.ndarray
    best_fitness: float
    config: ShsadeConfig

    @property
    def population(self) -> Population:
        return Population.from_arrays(self.x, self.fitness)

    @property
    def best(self) -> Individual:
        return Individual(self.best_x.copy(), float(self.best_fitness), True)


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


def sample_cr(memories: ParameterMemories, rng, sigma: float = 0.1, size: int | None = None):
    """CR ~ normal(MCR_r, sigma) around a random memory entry, clamped to [0, 1]."""
    n = 1 if size is None else int(size)
    r = rng.integers(0, memories.size, size=n)
    # min/max instead of np.clip: the same values for the never-NaN normal
    # draws, without np.clip's dispatch overhead
    values = np.minimum(np.maximum(_normal(memories.mcr[r], sigma, rng), 0.0), 1.0)
    return float(values[0]) if size is None else values


def _normal(loc: np.ndarray, sigma: float, rng) -> np.ndarray:
    """``rng.normal(loc, sigma)`` for a vector ``loc``, computed the way numpy
    computes it (loc + sigma * z, z standard normal): the same values and the
    same stream state, without the broadcasting set-up of an array ``loc``."""
    return loc + sigma * rng.standard_normal(loc.size)


def _resampled_cauchy(loc, sigma, rng, upper_reject: bool, max_retries: int):
    """Cauchy draws around ``loc`` resampled while non-positive (and above 1
    when ``upper_reject``); leftovers after ``max_retries`` fall back to loc."""
    values = loc + sigma * rng.standard_cauchy(loc.size)

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
        if retries > max_retries:
            values[bad] = loc[bad]
            break
        values[bad] = loc[bad] + sigma * rng.standard_cauchy(n_bad)
        bad = bad_mask(values)
        n_bad = np.count_nonzero(bad)
    return values


def sample_f_cauchy(
    memories: ParameterMemories,
    rng,
    sigma: float = 0.1,
    size: int | None = None,
    max_retries: int = MAX_SAMPLE_RETRIES,
):
    """F ~ Cauchy(MF_r, sigma): truncated to 1 from above, resampled while
    non-positive, falling back to MF_r after ``max_retries`` rejections."""
    n = 1 if size is None else int(size)
    r = rng.integers(0, memories.size, size=n)
    values = _resampled_cauchy(memories.mf[r], sigma, rng, upper_reject=False, max_retries=max_retries)
    values = np.minimum(values, 1.0)
    return float(values[0]) if size is None else values


def sample_f_gaussian(
    memories: ParameterMemories,
    rng,
    sigma: float = 0.1,
    size: int | None = None,
    max_retries: int = MAX_SAMPLE_RETRIES,
):
    """Gaussian alternative for second-half F: normal(MF_r, sigma) with the
    same resample-below-zero, truncate-above-one handling as the Cauchy form."""
    n = 1 if size is None else int(size)
    r = rng.integers(0, memories.size, size=n)
    loc = memories.mf[r]
    values = _normal(loc, sigma, rng)
    bad = values <= 0.0
    n_bad = np.count_nonzero(bad)
    retries = 0
    while n_bad:
        retries += 1
        if retries > max_retries:
            values[bad] = loc[bad]
            break
        values[bad] = _normal(loc[bad], sigma, rng)
        bad = values <= 0.0
        n_bad = np.count_nonzero(bad)
    values = np.minimum(values, 1.0)
    return float(values[0]) if size is None else values


def sample_freq(
    memories: ParameterMemories,
    rng,
    sigma: float = 0.1,
    size: int | None = None,
    max_retries: int = MAX_SAMPLE_RETRIES,
):
    """freq ~ Cauchy(Mfreq_r, sigma) resampled into (0, 1]."""
    n = 1 if size is None else int(size)
    r = rng.integers(0, memories.size, size=n)
    values = _resampled_cauchy(memories.mfreq[r], sigma, rng, upper_reject=True, max_retries=max_retries)
    values = np.minimum(values, 1.0)  # only reachable through the fallback path
    return float(values[0]) if size is None else values


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


def sample_f_sinusoidal(
    variant: str,
    generation: int,
    max_generations: int,
    freq: float,
    rng,
    memories: ParameterMemories | None = None,
    sigma: float = 0.1,
) -> tuple[float, float]:
    """Draw a first-half F value. Returns (F, frequency used).

    ``decreasing`` uses the fixed ``freq``; ``adaptive_increasing`` draws its
    frequency around a random entry of the frequency memory.
    """
    if not 1 <= generation <= max_generations / 2:
        raise ValueError("sinusoidal schedules only cover the first half of the run")
    if variant == "decreasing":
        return decreasing_sinusoidal_f(generation, max_generations, freq), freq
    if variant == "adaptive_increasing":
        if memories is None:
            raise ValueError("the adaptive variant needs the frequency memory")
        f_i = sample_freq(memories, rng, sigma)
        return float(adaptive_sinusoidal_f(generation, max_generations, f_i)), f_i
    raise ValueError(f"unknown sinusoidal variant {variant!r}")


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


def current_to_pbest_donor(x, x_pbest, x_r1, x_r2, f: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x + f * (np.asarray(x_pbest) - x) + f * (np.asarray(x_r1) - np.asarray(x_r2))


def trigonometric_donor(x1, x2, x3, f1: float, f2: float, f3: float) -> np.ndarray:
    """Centroid of three points plus fitness-weighted leg perturbations.

    When all three |fitness| values are zero the weights are undefined and the
    donor degenerates to the plain centroid.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    x3 = np.asarray(x3, dtype=float)
    centroid = (x1 + x2 + x3) / 3.0
    total = abs(f1) + abs(f2) + abs(f3)
    if total == 0.0:
        return centroid
    w1, w2, w3 = abs(f1) / total, abs(f2) / total, abs(f3) / total
    return centroid + (w2 - w1) * (x1 - x2) + (w3 - w2) * (x2 - x3) + (w1 - w3) * (x3 - x1)


def _select_pbest_partners(
    fitness: np.ndarray,
    archive_size: int,
    rows: np.ndarray,
    p_best_fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row i: a pbest index from the top ceil(p * NP) (at least 2, so an
    alternative to i always exists), r1 from the population and r2 from the
    population plus archive, all distinct from i and from each other."""
    pop_size = fitness.size
    k = min(pop_size, max(2, math.ceil(p_best_fraction * pop_size)))
    top = np.argsort(fitness, kind="stable")[:k]

    def draw_top(count):
        return top[rng.integers(0, k, size=count)]

    def draw_population(count):
        return rng.integers(0, pop_size, size=count)

    def draw_pool(count):
        return rng.integers(0, pop_size + archive_size, size=count)

    pbest = redraw_clashes(draw_top(rows.size), lambda r: r == rows, draw_top)
    r1 = redraw_clashes(draw_population(rows.size), lambda r: (r == rows) | (r == pbest), draw_population)
    r2 = redraw_clashes(draw_pool(rows.size), lambda r: (r == rows) | (r == pbest) | (r == r1), draw_pool)
    return pbest, r1, r2


def mutate_current_to_pbest(
    population: Population, archive: Sequence[np.ndarray], i: int, f: float, p: float, rng
) -> np.ndarray:
    """Donor x_i + F (x_pbest - x_i) + F (x_r1 - x_r2), r2 drawn from the
    population united with the archive. Returned before boundary repair."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    rng = ensure_rng(rng)
    x, fitness = population.as_arrays()
    rows = np.array([i])
    pbest, r1, r2 = _select_pbest_partners(fitness, len(archive), rows, p, rng)
    x_r2 = x[r2[0]] if r2[0] < population.size else np.asarray(archive[r2[0] - population.size])
    return current_to_pbest_donor(x[i], x[pbest[0]], x[r1[0]], x_r2, f)


def mutate_trigonometric(population: Population, i: int, rng) -> np.ndarray:
    """Trigonometric donor from three random members distinct from i."""
    rng = ensure_rng(rng)
    x, fitness = population.as_arrays()
    rows = np.array([i])
    r1, r2, r3 = sample_distinct_triplets(population.size, rows, rng)
    return trigonometric_donor(
        x[r1[0]], x[r2[0]], x[r3[0]], fitness[r1[0]], fitness[r2[0]], fitness[r3[0]]
    )


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


def select_strategy(state: StrategyState, rng) -> int:
    """Categorical draw over the strategy pool."""
    rng = ensure_rng(rng)
    return int(rng.choice(state.probabilities.size, p=state.probabilities))


def update_strategy_probs(
    state: StrategyState, p_min: float = 0.05, epsilon: float = 0.01
) -> StrategyState:
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


def update_memories(
    memories: ParameterMemories, success: SuccessSets, learning_rate: float = 1.0
) -> ParameterMemories:
    """Fold this generation's success means into one memory slot.

    CR and F slots take the arithmetic mean of their success sets, the
    frequency slot the Lehmer mean, each blended with the old entry by the
    learning rate (1.0 replaces outright). Empty success sets leave the
    memories bit-identical and do not advance the circular index.
    """
    if not success.any():
        return memories
    k = memories.next_update_index
    c = learning_rate
    if success.scr:
        new = (1.0 - c) * memories.mcr[k] + c * float(np.mean(success.scr))
        memories.mcr[k] = min(max(new, 0.0), 1.0)
    if success.sf:
        new = (1.0 - c) * memories.mf[k] + c * float(np.mean(success.sf))
        memories.mf[k] = min(new, 1.0)
    if success.sfreq:
        new = (1.0 - c) * memories.mfreq[k] + c * lehmer_mean(success.sfreq)
        memories.mfreq[k] = min(new, 1.0)
    memories.next_update_index = (k + 1) % memories.size
    return memories


# ---------------------------------------------------------------------------
# generation loop


def init_state(config: ShsadeConfig, spec: ObjectiveSpec, rng) -> ShsadeState:
    rng = ensure_rng(rng)
    pop = init_population(spec, config.pop_size, rng)
    x, fitness = pop.as_arrays()
    best_idx = int(np.argmin(fitness))
    strategy = (
        StrategyState.uniform(2)
        if config.use_trigonometric
        else StrategyState.single(CURRENT_TO_PBEST, 2)
    )
    return ShsadeState(
        x=x,
        fitness=fitness,
        bounds=spec.bounds,
        memories=ParameterMemories.initial(config.memory_size, freq=config.freq_init),
        strategy=strategy,
        archive=[],
        archive_capacity=config.resolved_archive_capacity(),
        generation=0,
        evaluations=config.pop_size,
        best_x=x[best_idx].copy(),
        best_fitness=float(fitness[best_idx]),
        config=config,
    )


def build_trials(state: ShsadeState, rng: np.random.Generator) -> TrialBatch:
    """Construct one generation of repaired trial vectors from the current
    population snapshot, without evaluating anything."""
    cfg = state.config
    x = state.x
    fitness = state.fitness
    pop_size, _ = x.shape
    gen = state.generation + 1

    # rng.choice(2, pop_size, p=probabilities) written out: the same draws
    # and the same stream state, without choice's argument checks
    cdf = state.strategy.probabilities.cumsum()
    cdf /= cdf[-1]
    strategies = cdf.searchsorted(rng.random(pop_size), side="right")
    cr = sample_cr(state.memories, rng, cfg.sigma_cr, size=pop_size)

    if cfg.use_sinusoidal and gen <= cfg.max_generations / 2:
        decreasing = rng.random(pop_size) < 0.5
        freqs = sample_freq(state.memories, rng, cfg.sigma_cauchy_f, size=pop_size)
        f = np.where(
            decreasing,
            decreasing_sinusoidal_f(gen, cfg.max_generations, cfg.freq_init),
            adaptive_sinusoidal_f(gen, cfg.max_generations, freqs),
        )
        freq_used = np.where(decreasing, np.nan, freqs)
    else:
        if cfg.f_second_half == "gaussian":
            f = sample_f_gaussian(state.memories, rng, cfg.sigma_gauss_f, size=pop_size)
        else:
            f = sample_f_cauchy(state.memories, rng, cfg.sigma_cauchy_f, size=pop_size)
        freq_used = np.full(pop_size, np.nan)

    trials = np.empty_like(x)
    pbest_rows = np.flatnonzero(strategies == CURRENT_TO_PBEST)
    trig_rows = np.flatnonzero(strategies == TRIGONOMETRIC)

    best = x[int(np.argmin(fitness))] if cfg.crossover_target == "best" else None

    def cross_targets(own: np.ndarray) -> np.ndarray:
        return own if best is None else np.broadcast_to(best, own.shape)

    if pbest_rows.size:
        pbest, r1, r2 = _select_pbest_partners(
            fitness, len(state.archive), pbest_rows, cfg.p_best_fraction, rng
        )
        pool = np.concatenate((x, state.archive)) if state.archive else x
        step = f[pbest_rows][:, None]
        own = x[pbest_rows]
        donors = own + step * (x[pbest] - own) + step * (x[r1] - pool[r2])
        trials[pbest_rows] = binomial_crossover_matrix(cross_targets(own), donors, cr[pbest_rows], rng)
    if trig_rows.size:
        # no F is involved here; the donor recombines with the target like any
        # other unless trigonometric crossover is switched off
        t1, t2, t3 = sample_distinct_triplets(pop_size, trig_rows, rng)
        donors = _trigonometric_donors(x, fitness, t1, t2, t3)
        if cfg.crossover_trigonometric:
            trials[trig_rows] = binomial_crossover_matrix(
                cross_targets(x[trig_rows]), donors, cr[trig_rows], rng
            )
        else:
            trials[trig_rows] = donors

    trials = repair_bounds_matrix(trials, state.bounds, x)
    # f, cr and freq_used are fresh arrays, read for the last time above
    f[trig_rows] = np.nan
    cr[trig_rows] = np.nan
    freq_used[trig_rows] = np.nan
    return TrialBatch(x=trials, strategies=strategies, f=f, cr=cr, freq=freq_used)


def _used(values: np.ndarray) -> list[float]:
    """The values a trial used; NaN marks a parameter the trial did not use."""
    return values[~np.isnan(values)].tolist()


def _archive_parents(state: ShsadeState, parents: np.ndarray, rng: np.random.Generator) -> None:
    """Append replaced parents to the archive in row order. Each append that
    overflows the capacity deletes a uniformly drawn row, shifting the later
    rows down, so the archive keeps its list order.

    All of a generation's deletions are drawn in one call. Every one of them
    has the bound capacity + 1, and a batched ``rng.integers`` yields the
    same values and leaves the stream where the scalar calls would; a bound
    of 1 (capacity 0) draws nothing.
    """
    archive = state.archive
    capacity = state.archive_capacity
    # one array per row: views of ``parents`` would keep the whole block
    # alive while any one of its rows stays archived
    rows = [row.copy() for row in parents]
    overflow = len(archive) + len(rows) - capacity
    if overflow <= 0:
        archive.extend(rows)
        return
    free = len(rows) - overflow
    archive.extend(rows[:free])
    for row, j in zip(rows[free:], rng.integers(0, capacity + 1, size=overflow).tolist()):
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
    """
    cfg = state.config
    x = state.x
    fitness = state.fitness
    tf = np.asarray(trial_fitness, dtype=float)
    accepted = tf <= fitness
    improved = tf < fitness
    tried = batch.strategies
    if evaluated is not None:
        evaluated = np.asarray(evaluated, dtype=bool)
        accepted &= evaluated
        improved &= evaluated
        tried = tried[evaluated]

    success = SuccessSets(
        scr=_used(batch.cr[improved]), sf=_used(batch.f[improved]), sfreq=_used(batch.freq[improved])
    )
    _archive_parents(state, x[accepted], rng)

    x[accepted] = batch.x[accepted]
    fitness[accepted] = tf[accepted]

    n_strategies = state.strategy.success_counts.size
    won = np.bincount(batch.strategies[improved], minlength=n_strategies)
    state.strategy.success_counts += won
    state.strategy.failure_counts += np.bincount(tried, minlength=n_strategies) - won
    state.strategy.generations_in_window += 1
    if cfg.use_trigonometric and state.strategy.generations_in_window >= cfg.learning_period:
        update_strategy_probs(state.strategy, cfg.p_min, cfg.strategy_epsilon)
        state.strategy.generations_in_window = 0

    update_memories(state.memories, success, cfg.memory_learning_rate)

    best_idx = int(np.argmin(fitness))
    if fitness[best_idx] < state.best_fitness:
        state.best_fitness = float(fitness[best_idx])
        state.best_x = x[best_idx].copy()
    state.generation += 1
    state.evaluations += tried.size
    return state


def shsade_generation(state: ShsadeState, spec: ObjectiveSpec, rng) -> ShsadeState:
    """Run one full generation against a continuous objective.

    Trials are built from the generation-start snapshot and evaluated before
    any state mutation, so an evaluator failure leaves the state untouched.
    """
    rng = ensure_rng(rng)
    batch = build_trials(state, rng)
    trial_fitness = spec.evaluate_many(batch.x)
    return commit_generation(state, batch, trial_fitness, rng)


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
    term = termination or Termination()
    rng = ensure_rng(rng)
    state = init_state(config, spec, rng)
    trace = SearchTrace(metadata={"algorithm": "shsade"})
    trace.append(0, state.evaluations, state.best_fitness, float(np.mean(state.fitness)))
    gen_limit = config.max_generations
    if term.max_generations is not None:
        gen_limit = min(gen_limit, term.max_generations)
    while state.generation < gen_limit:
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
