"""The SHSADE generation step as it was written before it became array code:
per-row loops for the success sets and the archive, one random draw per
archive deletion, ``rng.choice`` for the strategies, ``rng.normal`` and
``np.clip`` for CR, ``bad.any()`` resampling loops and ``np.where`` rebuilds.

Kept verbatim as the reference that ``shsade.build_trials``,
``shsade.commit_generation`` and the ``de_core`` kernels must match bit for
bit, draw for draw. Nothing here is used outside the tests.
"""

import math

import numpy as np

from shsade_pids.shsade import (
    CURRENT_TO_PBEST,
    TRIGONOMETRIC,
    SuccessSets,
    TrialBatch,
    adaptive_sinusoidal_f,
    decreasing_sinusoidal_f,
    update_memories,
    update_strategy_probs,
)

MAX_SAMPLE_RETRIES = 100


def repair_bounds_matrix(v, bounds, base):
    v = np.asarray(v, dtype=float)
    base = np.asarray(base, dtype=float)
    out = np.where(v < bounds.lower, 0.5 * (bounds.lower + base), v)
    out = np.where(out > bounds.upper, 0.5 * (bounds.upper + base), out)
    return out


def binomial_crossover_matrix(targets, donors, cr, rng):
    targets = np.asarray(targets, dtype=float)
    donors = np.asarray(donors, dtype=float)
    n, dim = targets.shape
    mask = rng.random((n, dim)) < np.asarray(cr, dtype=float)[:, None]
    j_rand = rng.integers(0, dim, size=n)
    mask[np.arange(n), j_rand] = True
    return np.where(mask, donors, targets)


def sample_distinct_triplets(pop_size, rows, rng):
    r1 = rng.integers(0, pop_size, size=rows.size)
    bad = r1 == rows
    while bad.any():
        r1[bad] = rng.integers(0, pop_size, size=int(bad.sum()))
        bad = r1 == rows
    r2 = rng.integers(0, pop_size, size=rows.size)
    bad = (r2 == rows) | (r2 == r1)
    while bad.any():
        r2[bad] = rng.integers(0, pop_size, size=int(bad.sum()))
        bad = (r2 == rows) | (r2 == r1)
    r3 = rng.integers(0, pop_size, size=rows.size)
    bad = (r3 == rows) | (r3 == r1) | (r3 == r2)
    while bad.any():
        r3[bad] = rng.integers(0, pop_size, size=int(bad.sum()))
        bad = (r3 == rows) | (r3 == r1) | (r3 == r2)
    return r1, r2, r3


def sample_cr(memories, rng, sigma=0.1, size=None):
    n = 1 if size is None else int(size)
    r = rng.integers(0, memories.size, size=n)
    values = np.clip(rng.normal(memories.mcr[r], sigma), 0.0, 1.0)
    return float(values[0]) if size is None else values


def _resampled_cauchy(loc, sigma, rng, upper_reject, max_retries):
    values = loc + sigma * rng.standard_cauchy(loc.size)

    def bad_mask(v):
        bad = v <= 0.0
        if upper_reject:
            bad |= v > 1.0
        return bad

    bad = bad_mask(values)
    retries = 0
    while bad.any():
        retries += 1
        if retries > max_retries:
            values[bad] = loc[bad]
            break
        values[bad] = loc[bad] + sigma * rng.standard_cauchy(int(bad.sum()))
        bad = bad_mask(values)
    return values


def sample_f_cauchy(memories, rng, sigma=0.1, size=None, max_retries=MAX_SAMPLE_RETRIES):
    n = 1 if size is None else int(size)
    r = rng.integers(0, memories.size, size=n)
    values = _resampled_cauchy(memories.mf[r], sigma, rng, upper_reject=False, max_retries=max_retries)
    values = np.minimum(values, 1.0)
    return float(values[0]) if size is None else values


def sample_f_gaussian(memories, rng, sigma=0.1, size=None, max_retries=MAX_SAMPLE_RETRIES):
    n = 1 if size is None else int(size)
    r = rng.integers(0, memories.size, size=n)
    loc = memories.mf[r]
    values = rng.normal(loc, sigma)
    bad = values <= 0.0
    retries = 0
    while bad.any():
        retries += 1
        if retries > max_retries:
            values[bad] = loc[bad]
            break
        values[bad] = rng.normal(loc[bad], sigma)
        bad = values <= 0.0
    values = np.minimum(values, 1.0)
    return float(values[0]) if size is None else values


def sample_freq(memories, rng, sigma=0.1, size=None, max_retries=MAX_SAMPLE_RETRIES):
    n = 1 if size is None else int(size)
    r = rng.integers(0, memories.size, size=n)
    values = _resampled_cauchy(memories.mfreq[r], sigma, rng, upper_reject=True, max_retries=max_retries)
    values = np.minimum(values, 1.0)
    return float(values[0]) if size is None else values


def select_pbest_partners(fitness, archive_size, rows, p_best_fraction, rng):
    pop_size = fitness.size
    k = min(pop_size, max(2, math.ceil(p_best_fraction * pop_size)))
    top = np.argsort(fitness, kind="stable")[:k]
    pbest = top[rng.integers(0, k, size=rows.size)]
    bad = pbest == rows
    while bad.any():
        pbest[bad] = top[rng.integers(0, k, size=int(bad.sum()))]
        bad = pbest == rows
    r1 = rng.integers(0, pop_size, size=rows.size)
    bad = (r1 == rows) | (r1 == pbest)
    while bad.any():
        r1[bad] = rng.integers(0, pop_size, size=int(bad.sum()))
        bad = (r1 == rows) | (r1 == pbest)
    r2 = rng.integers(0, pop_size + archive_size, size=rows.size)
    bad = (r2 == rows) | (r2 == pbest) | (r2 == r1)
    while bad.any():
        r2[bad] = rng.integers(0, pop_size + archive_size, size=int(bad.sum()))
        bad = (r2 == rows) | (r2 == pbest) | (r2 == r1)
    return pbest, r1, r2


def trigonometric_donors(x, fitness, r1, r2, r3):
    a1, a2, a3 = np.abs(fitness[r1]), np.abs(fitness[r2]), np.abs(fitness[r3])
    total = a1 + a2 + a3
    centroid = (x[r1] + x[r2] + x[r3]) / 3.0
    safe = np.where(total > 0, total, 1.0)
    w1 = np.where(total > 0, a1 / safe, 0.0)[:, None]
    w2 = np.where(total > 0, a2 / safe, 0.0)[:, None]
    w3 = np.where(total > 0, a3 / safe, 0.0)[:, None]
    return (
        centroid
        + (w2 - w1) * (x[r1] - x[r2])
        + (w3 - w2) * (x[r2] - x[r3])
        + (w1 - w3) * (x[r3] - x[r1])
    )


def build_trials(state, rng):
    cfg = state.config
    x = state.x
    fitness = state.fitness
    pop_size, _ = x.shape
    gen = state.generation + 1

    strategies = rng.choice(len(state.strategy.probabilities), size=pop_size, p=state.strategy.probabilities)
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

    def cross_targets(rows):
        if cfg.crossover_target == "best":
            return np.broadcast_to(x[int(np.argmin(fitness))], (rows.size, x.shape[1]))
        return x[rows]

    if pbest_rows.size:
        pbest, r1, r2 = select_pbest_partners(fitness, len(state.archive), pbest_rows, cfg.p_best_fraction, rng)
        pool = x if not state.archive else np.vstack([x, np.asarray(state.archive)])
        step = f[pbest_rows][:, None]
        donors = x[pbest_rows] + step * (x[pbest] - x[pbest_rows]) + step * (x[r1] - pool[r2])
        trials[pbest_rows] = binomial_crossover_matrix(cross_targets(pbest_rows), donors, cr[pbest_rows], rng)
    if trig_rows.size:
        t1, t2, t3 = sample_distinct_triplets(pop_size, trig_rows, rng)
        donors = trigonometric_donors(x, fitness, t1, t2, t3)
        if cfg.crossover_trigonometric:
            trials[trig_rows] = binomial_crossover_matrix(cross_targets(trig_rows), donors, cr[trig_rows], rng)
        else:
            trials[trig_rows] = donors

    trials = repair_bounds_matrix(trials, state.bounds, x)
    trig = strategies == TRIGONOMETRIC
    return TrialBatch(
        x=trials,
        strategies=strategies,
        f=np.where(trig, np.nan, f),
        cr=np.where(trig, np.nan, cr),
        freq=np.where(trig, np.nan, freq_used),
    )


def commit_generation(state, batch, trial_fitness, rng, evaluated=None):
    cfg = state.config
    x = state.x
    fitness = state.fitness
    pop_size = fitness.size
    tf = np.asarray(trial_fitness, dtype=float)
    if evaluated is None:
        evaluated = np.ones(pop_size, dtype=bool)
    else:
        evaluated = np.asarray(evaluated, dtype=bool)
    safe_tf = np.where(evaluated, tf, np.inf)
    accepted = evaluated & (safe_tf <= fitness)
    improved = evaluated & (safe_tf < fitness)

    success = SuccessSets()
    for i in np.flatnonzero(improved):
        if not np.isnan(batch.cr[i]):
            success.scr.append(float(batch.cr[i]))
        if not np.isnan(batch.f[i]):
            success.sf.append(float(batch.f[i]))
        if not np.isnan(batch.freq[i]):
            success.sfreq.append(float(batch.freq[i]))

    for i in np.flatnonzero(accepted):
        state.archive.append(x[i].copy())
        while len(state.archive) > state.archive_capacity:
            del state.archive[int(rng.integers(0, len(state.archive)))]

    x[accepted] = batch.x[accepted]
    fitness[accepted] = safe_tf[accepted]

    for s in (CURRENT_TO_PBEST, TRIGONOMETRIC):
        attempted = evaluated & (batch.strategies == s)
        state.strategy.success_counts[s] += int(np.count_nonzero(attempted & improved))
        state.strategy.failure_counts[s] += int(np.count_nonzero(attempted & ~improved))
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
    state.evaluations += int(np.count_nonzero(evaluated))
    return state
