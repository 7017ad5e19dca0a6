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
    uniform_index,
)
from .trace import SearchTrace

CURRENT_TO_PBEST = 0
TRIGONOMETRIC = 1
STRATEGY_NAMES = ("current_to_pbest", "trigonometric")

# consecutive rejected draws tolerated before a sampler falls back to the
# memory entry itself (pathological location; the run must never abort)
MAX_SAMPLE_RETRIES = 100

# the largest generation cap: the sinusoidal schedules compute with it as a float
MAX_GENERATIONS = int(sys.float_info.max)

# the partner rows that make a trigonometric donor's points: x1, x2, x3, x1
_TRIGONOMETRIC_LEGS = np.array([0, 1, 2, 0])


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
        if self.max_generations > MAX_GENERATIONS:
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
    archive: np.ndarray  # (n, dimension) replaced parents in archive order, n <= capacity
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
            archive=np.empty((0, x.shape[1])),
            generation=0,
            evaluations=config.pop_size,
            best_x=None,
            best_fitness=math.inf,
            config=config,
        )
        replace_rows(state, np.ones(len(fitness), dtype=bool), x, fitness)
        return state

    @property
    def best(self) -> Individual:
        return Individual(self.best_x.copy(), float(self.best_fitness))


@dataclass
class TrialBatch:
    """One generation's trial vectors plus the parameters that built them.

    ``f``, ``cr`` and ``freq`` hold every row's sampled value, used or not
    (``freq`` is NaN where none was sampled, in the second half of a run).
    Only current-to-pbest rows use their F and CR, so only they enter the
    success sets; ``adaptive`` marks the current-to-pbest rows whose F
    followed the adaptive sinusoid, the only rows whose frequency counts.
    """

    x: np.ndarray
    strategies: np.ndarray
    f: np.ndarray
    cr: np.ndarray
    freq: np.ndarray
    adaptive: np.ndarray


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
    loc = memory.take(slots)
    values = loc + sigma * rng.standard_cauchy(slots.size)
    for retry in range(MAX_SAMPLE_RETRIES + 1):
        bad = values <= 0.0
        if upper_reject:
            bad |= values > 1.0
        n_bad = np.count_nonzero(bad)
        if not n_bad:
            break
        values[bad] = loc[bad] if retry == MAX_SAMPLE_RETRIES else loc[bad] + sigma * rng.standard_cauchy(n_bad)
    return np.minimum(values, 1.0, out=values)


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
    if np.count_nonzero(values <= 0):
        raise ValueError("lehmer_mean requires strictly positive values")
    # np.add.reduce: the bits of np.sum, without its Python-level wrapper
    return float(np.add.reduce(values * values) / np.add.reduce(values))


# ---------------------------------------------------------------------------
# mutation


def trigonometric_donor(x1, x2, x3, f1: float, f2: float, f3: float) -> np.ndarray:
    """Centroid of three points plus fitness-weighted leg perturbations.

    When all three |fitness| values are zero the weights are undefined and the
    donor degenerates to the plain centroid.
    """
    points = np.array([[x1], [x2], [x3], [x1]], dtype=float)
    return _trigonometric_donors(points, np.array([[f1], [f2], [f3], [f1]], dtype=float))[0]


def _select_partners(
    fitness: np.ndarray,
    archive_size: int,
    rows: np.ndarray,
    pbest: np.ndarray,
    p_best_fraction: float,
    u: np.ndarray,
) -> np.ndarray:
    """Per row i of ``rows``: three partners, distinct from i and from each
    other, as a ``(3, rows.size)`` array, from a ``(3, rows.size)`` block of
    uniforms, one row of it per pick (see the skips in ``de_core``).

    On current-to-pbest rows (``pbest`` True) the first pick comes from the
    top ceil(p * NP) (at least 2, so an alternative to i always exists), the
    second from the population and the third from the population followed
    by the archive. On trigonometric rows all three come from the
    population, uniformly over its distinct triplets.
    """
    pop_size = fitness.size
    k = min(pop_size, max(2, math.ceil(p_best_fraction * pop_size)))
    order = fitness.argsort(kind="stable")
    # i's place in the order; a scatter, since sorting an integer array would
    # fault in numpy's integer sort code, about 0.3 MB of resident memory
    place = np.empty(pop_size, dtype=np.intp)
    place[order] = np.arange(pop_size)
    # the first pick reads the first k places of the order on
    # current-to-pbest rows and all places of the identity on trigonometric
    # ones, skipping i's own place when it lies among them
    own = np.where(pbest, place.take(rows), rows)
    # per pick and row, the count of indices to choose from (the first
    # pick's less i's own place, when among them): column 0 of the table
    # for trigonometric rows, column 1 for current-to-pbest ones. Floats,
    # so uniform_index multiplies without a cast
    counts = np.array(
        ((pop_size, k), (pop_size - 2, pop_size - 2), (pop_size - 3, pop_size + archive_size - 3)), dtype=float
    ).take(pbest, axis=1)
    counts[0] -= own < counts[0]
    v = uniform_index(u, counts)
    # one pick at a time: on single rows the skips cost less than on the
    # (2, n) block
    first, second, third = v
    first += first >= own
    np.copyto(first, order.take(first), where=pbest)
    p = first - (first > rows)  # the first pick's place among the indices other than i
    third += third >= second
    second += second >= p
    third += third >= p
    second += second >= rows
    third += third >= rows
    return v


def _current_to_pbest_donors(points: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Donors x_i + F_i (x_pbest - x_i) + F_i (x_r1 - x_r2), before boundary
    repair, from ``points``, x_pbest, x_r1, x_r2 and x_i stacked as four
    ``(n, dimension)`` blocks; one subtract forms both differences."""
    legs = points[:2] - points[:1:-1]
    legs *= f[:, None]
    donors = points[3] + legs[0]
    donors += legs[1]
    return donors


def _trigonometric_donors(points: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """Trigonometric donors from ``points``, x1, x2, x3 and x1 again stacked
    as four ``(n, dimension)`` blocks, and ``fitness``, their ``(4, n)``
    finite objective values:
    (x1 + x2 + x3) / 3 + (w2 - w1) (x1 - x2) + (w3 - w2) (x2 - x3) + (w1 - w3) (x3 - x1),
    summed left to right. The repeated x1 makes the three legs, and their
    weight differences, one subtract each."""
    a = np.abs(fitness)
    total = a[0] + a[1]
    total += a[2]
    # a zero total means three zero |fitness| values, and so zero weights
    w = a / np.where(total > 0, total, 1.0)
    legs = points[:3] - points[1:]
    legs *= (w[1:] - w[:3])[:, :, None]
    donors = points[0] + points[1]
    donors += points[2]
    donors /= 3.0
    donors += legs[0]
    donors += legs[1]
    donors += legs[2]
    return donors


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
    SHADE. When all three success sets are empty the memories stay
    bit-identical and the circular index does not advance.
    """
    if not (len(success.scr) or len(success.sf) or len(success.sfreq)):
        return memories
    k = memories.next_update_index
    # np.add.reduce(v) / n: the bits of np.mean, without its Python-level wrapper
    if len(success.scr):
        memories.mcr[k] = min(max(float(np.add.reduce(success.scr) / len(success.scr)), 0.0), 1.0)
    if len(success.sf):
        memories.mf[k] = min(float(np.add.reduce(success.sf) / len(success.sf)), 1.0)
    if len(success.sfreq):
        memories.mfreq[k] = min(lehmer_mean(success.sfreq), 1.0)
    memories.next_update_index = (k + 1) % memories.mcr.size
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
    (see the skips in ``de_core``), which pick the partners of both
    strategies in one pass; one gather per strategy then reads its rows'
    points from the population and the archive. Earlier versions made
    about 22 calls per generation, redrew clashing partners and drew a slot
    per parameter, so their runs differ from these from the same seed.
    """
    cfg = state.config
    x = state.x
    fitness = state.fitness
    pop_size = fitness.size
    gen = state.generation + 1

    u = rng.random((6, pop_size))
    # the strategy whose slot of the probabilities' normalised running sum
    # (p0 / (p0 + p1), 1) holds u: TRIGONOMETRIC (1) from the first entry
    # up, CURRENT_TO_PBEST (0) below it
    p0, p1 = state.strategy.probabilities.tolist()
    trigonometric = u[0] >= p0 / (p0 + p1)
    strategies = trigonometric.astype(np.intp)
    pbest = ~trigonometric
    slots = uniform_index(u[1], state.memories.mcr.size)
    cr = sample_cr(state.memories, rng, slots, cfg.sigma_cr)

    if cfg.use_sinusoidal and gen <= cfg.max_generations / 2:
        increasing = u[2] >= 0.5
        freq = sample_freq(state.memories, rng, slots, cfg.sigma_cauchy_f)
        f = np.where(
            increasing,
            adaptive_sinusoidal_f(gen, cfg.max_generations, freq),
            decreasing_sinusoidal_f(gen, cfg.max_generations, cfg.freq_init),
        )
        adaptive = pbest & increasing
    else:
        f = sample_f_cauchy(state.memories, rng, slots, cfg.sigma_cauchy_f)
        freq = np.full(pop_size, np.nan)
        adaptive = np.zeros(pop_size, dtype=bool)

    # the population followed by the archive; only current-to-pbest rows
    # draw their third partner beyond the population
    pool = np.concatenate((x, state.archive))
    picks = _select_partners(fitness, len(state.archive), np.arange(pop_size), pbest, cfg.p_best_fraction, u[3:])
    pbest_rows = pbest.nonzero()[0]
    trig_rows = trigonometric.nonzero()[0]
    donors = np.empty_like(x)
    # one gather per strategy reads its rows' points; take() gathers the
    # same rows as fancy indexing, without its overhead
    if pbest_rows.size:
        # x_pbest, x_r1, x_r2, then the row itself
        index = np.concatenate((picks.take(pbest_rows, axis=1), pbest_rows[None]))
        donors[pbest_rows] = _current_to_pbest_donors(pool.take(index, axis=0), f.take(pbest_rows))
    if trig_rows.size:
        # no F is involved here. The donor recombines with the target like any
        # other: taken raw, trigonometric donors collapse the population onto
        # its centroid and stall the search
        index = picks.take(trig_rows, axis=1).take(_TRIGONOMETRIC_LEGS, axis=0)
        donors[trig_rows] = _trigonometric_donors(pool.take(index, axis=0), fitness.take(index))

    # the best row broadcasts against the donors
    targets = x if cfg.crossover_target == "self" else x[fitness.argmin()][None]
    trials = repair_bounds_matrix(binomial_crossover_matrix(targets, donors, cr, rng), state.bounds, x)
    return TrialBatch(x=trials, strategies=strategies, f=f, cr=cr, freq=freq, adaptive=adaptive)


def _archive_parents(state: ShsadeState, parents: np.ndarray, rng: np.random.Generator) -> None:
    """Append replaced parents to the archive in row order. Each append that
    overflows the capacity deletes a uniformly drawn row, shifting the later
    rows down, so the archive keeps its list order.

    The deletions run on a list of row indices into the old archive followed
    by all of ``parents``: each deletion takes a place among the first
    ``capacity + 1`` entries left, which are the rows that appending one
    parent at a time would hold at that deletion, with the parents still to
    come behind them. One gather builds the new ``(n, dimension)`` array.
    All of a generation's deletions are drawn in one ``rng.random`` call,
    each as ``floor(u * (capacity + 1))``: a batched call yields the same
    values as one call per deletion. The capacity is the config's
    ``archive_capacity``, or ``pop_size`` when that is None; capacity 0
    keeps nothing and draws nothing.
    """
    capacity = state.config.archive_capacity
    capacity = state.config.pop_size if capacity is None else int(capacity)
    if capacity == 0:
        return
    combined = np.concatenate((state.archive, parents))
    overflow = len(combined) - capacity
    if overflow <= 0:
        state.archive = combined
        return
    kept = list(range(len(combined)))
    for j in uniform_index(rng.random(overflow), capacity + 1).tolist():
        del kept[j]
    state.archive = combined.take(kept, axis=0)


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
    fitness is NaN, +inf or -inf never replaces its parent. ``NaN <=
    parent`` is false, and so is ``inf <= parent`` for any parent that
    began finite, since a parent is only ever replaced by a trial at or
    below it; a -inf trial is read as NaN. Such a trial enters neither the
    success sets nor the archive, and it counts as a failed try for its
    strategy.
    """
    cfg = state.config
    tf = np.asarray(trial_fitness, dtype=float)
    # fmin skips NaN, so one reduction finds a -inf trial anywhere
    if np.fmin.reduce(tf) == -np.inf:
        tf = np.where(tf == -np.inf, np.nan, tf)
    accepted = tf <= state.fitness
    improved = tf < state.fitness
    pbest = batch.strategies == CURRENT_TO_PBEST
    tried = tf.size
    if evaluated is not None:
        evaluated = np.asarray(evaluated, dtype=bool)
        accepted &= evaluated
        improved &= evaluated
        pbest &= evaluated
        tried = np.count_nonzero(evaluated)

    # compress() picks the same entries as a boolean index, at less overhead
    uses_f = improved & pbest
    success = SuccessSets(
        scr=batch.cr.compress(uses_f), sf=batch.f.compress(uses_f), sfreq=batch.freq.compress(improved & batch.adaptive)
    )
    # the archive takes the parents before the trials replace them
    _archive_parents(state, state.x.compress(accepted, axis=0), rng)
    replace_rows(state, accepted, batch.x, tf)

    # the tallies from the masks: trigonometric rows are the tried rows
    # that are not current-to-pbest ones
    tally = state.strategy
    won = np.count_nonzero(uses_f)
    won_trig = np.count_nonzero(improved) - won
    tried_pbest = np.count_nonzero(pbest)
    tally.success_counts[CURRENT_TO_PBEST] += won
    tally.success_counts[TRIGONOMETRIC] += won_trig
    tally.failure_counts[CURRENT_TO_PBEST] += tried_pbest - won
    tally.failure_counts[TRIGONOMETRIC] += tried - tried_pbest - won_trig
    tally.generations_in_window += 1
    if cfg.use_trigonometric and tally.generations_in_window >= cfg.learning_period:
        update_strategy_probs(tally, cfg.p_min, cfg.strategy_epsilon)
        tally.generations_in_window = 0

    update_memories(state.memories, success)
    state.generation += 1
    state.evaluations += tried
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
    counter=None,
) -> SearchTrace:
    """Run generations until a termination criterion holds; return the trace.

    A generation asks for trials, evaluates them and tells the optimizer the
    results: ``ask()`` builds trials from ``state``, ``evaluate(trials)``
    returns their fitness and a mask of the rows evaluated (None: every row),
    and ``tell(trials, fitness, evaluated)`` commits them to ``state``.

    The trace has a row for generation 0 and one after each generation, read
    from ``state.generation``, ``state.best_fitness``, the mean of
    ``state.fitness`` (an array or any sequence of floats) and the
    evaluations charged so far, ``counter.evaluations`` (``counter``
    defaults to ``state``). A generation starts only while the generation
    count is below ``max_generations``, the termination's target fitness is
    not reached, and ``room`` more evaluations fit within its ``max_evaluations``;
    ``room`` defaults to the population size, so only whole generations run.
    """
    term = termination or Termination()
    room = len(state.fitness) if room is None else room
    counter = state if counter is None else counter
    trace = SearchTrace(metadata={"algorithm": algorithm})
    while True:
        # the same bits as np.mean, without its Python-level wrapper
        mean = np.add.reduce(state.fitness) / len(state.fitness)
        evaluations = counter.evaluations
        trace.append(state.generation, evaluations, state.best_fitness, mean)
        if state.generation >= max_generations:
            break
        if term.target_fitness is not None and state.best_fitness <= term.target_fitness:
            break
        if term.max_evaluations is not None and evaluations + room > term.max_evaluations:
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
