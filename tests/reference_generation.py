"""The SHSADE generation step written as per-row Python loops over its
random draws.

Each generation draws one ``rng.random((6, pop_size))`` block (strategy,
memory slot, sinusoid coin and three partner uniforms per row), the CR
normals, the F or frequency draws with their resampling rounds, and one
``rng.random((pop_size, dim + 1))`` crossover block. An index below m is
``min(floor(u * m), m - 1)``, and a pick that must differ from earlier ones
is the v-th element of the list of indices still allowed, built as a list.
Only current-to-pbest rows use their F and CR, and only those whose F
follows the adaptive sinusoid their frequency. The commit side appends
replaced parents to a list one at a time, each overflow deleting a row
drawn with its own ``rng.random()``; a trial whose fitness is NaN or -inf
competes as +inf, so no non-finite trial replaces its parent.

This is the reference that ``shsade.build_trials``,
``shsade.commit_generation``, the samplers and the ``de_core`` kernels must
match bit for bit, draw for draw. Nothing here is used outside the tests.
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


def index(u, m):
    """A uniform index below m from a uniform u in [0, 1)."""
    return min(int(u * m), m - 1)


def nth_allowed(v, m, excluded):
    """The v-th element of the indices below m that are not excluded."""
    return [j for j in range(m) if j not in excluded][v]


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
    u = rng.random((n, dim + 1))
    out = np.empty((n, dim))
    for i in range(n):
        j_rand = index(u[i, dim], dim)
        for j in range(dim):
            out[i, j] = donors[i, j] if u[i, j] < cr[i] or j == j_rand else targets[i, j]
    return out


def _distinct_triplet(pop_size, i, u):
    taken = [i]
    for t in range(3):
        v = index(u[t], pop_size - len(taken))
        taken.append(nth_allowed(v, pop_size, taken))
    return tuple(taken[1:])


def sample_distinct_triplets(pop_size, rows, u):
    picks = [_distinct_triplet(pop_size, int(i), u[:, c]) for c, i in enumerate(rows)]
    return tuple(np.array(column, dtype=np.intp) for column in zip(*picks))


def sample_cr(memories, rng, slots, sigma):
    z = rng.standard_normal(len(slots))
    return np.array([min(max(memories.mcr[s] + sigma * z[c], 0.0), 1.0) for c, s in enumerate(slots)])


def _resampled(memory, slots, sigma, draw, upper_reject):
    loc = [float(memory[s]) for s in slots]

    def rejected(v):
        return v <= 0.0 or (upper_reject and v > 1.0)

    values = [loc[c] + sigma * float(z) for c, z in enumerate(draw(len(loc)))]
    bad = [c for c, v in enumerate(values) if rejected(v)]
    for _ in range(MAX_SAMPLE_RETRIES):
        if not bad:
            break
        for c, z in zip(bad, draw(len(bad))):
            values[c] = loc[c] + sigma * float(z)
        bad = [c for c in bad if rejected(values[c])]
    for c in bad:
        values[c] = loc[c]
    return np.array([min(v, 1.0) for v in values])


def sample_f_cauchy(memories, rng, slots, sigma):
    return _resampled(memories.mf, slots, sigma, rng.standard_cauchy, False)


def sample_freq(memories, rng, slots, sigma):
    return _resampled(memories.mfreq, slots, sigma, rng.standard_cauchy, True)


def _top(fitness, p_best_fraction):
    pop_size = fitness.size
    k = min(pop_size, max(2, math.ceil(p_best_fraction * pop_size)))
    return sorted(range(pop_size), key=lambda j: fitness[j])[:k]


def _pbest_partners(top, pop_size, archive_size, i, u):
    candidates = [j for j in top if j != i]
    pbest = candidates[index(u[0], len(candidates))]
    r1 = nth_allowed(index(u[1], pop_size - 2), pop_size, [i, pbest])
    r2 = nth_allowed(index(u[2], pop_size + archive_size - 3), pop_size + archive_size, [i, pbest, r1])
    return pbest, r1, r2


def select_partners(fitness, archive_size, rows, pbest, p_best_fraction, u):
    top = _top(fitness, p_best_fraction)
    picks = [
        _pbest_partners(top, fitness.size, archive_size, int(i), u[:, c])
        if pbest[c]
        else _distinct_triplet(fitness.size, int(i), u[:, c])
        for c, i in enumerate(rows)
    ]
    return tuple(np.array(column, dtype=np.intp) for column in zip(*picks))


def trigonometric_donor(x, fitness, t1, t2, t3):
    a1, a2, a3 = abs(float(fitness[t1])), abs(float(fitness[t2])), abs(float(fitness[t3]))
    total = a1 + a2 + a3
    w1, w2, w3 = (a1 / total, a2 / total, a3 / total) if total > 0 else (0.0, 0.0, 0.0)
    centroid = (x[t1] + x[t2] + x[t3]) / 3.0
    return centroid + (w2 - w1) * (x[t1] - x[t2]) + (w3 - w2) * (x[t2] - x[t3]) + (w1 - w3) * (x[t3] - x[t1])


def build_trials(state, rng):
    cfg = state.config
    x = state.x
    fitness = state.fitness
    pop_size, dim = x.shape
    gen = state.generation + 1

    u = rng.random((6, pop_size))
    total = 0.0
    cumulative = []
    for p in state.strategy.probabilities:
        total += p
        cumulative.append(total)
    cumulative = [c / total for c in cumulative]
    strategies = np.array([next(s for s, c in enumerate(cumulative) if u[0][i] < c) for i in range(pop_size)])
    slots = [index(u[1][i], state.memories.mcr.size) for i in range(pop_size)]
    cr = sample_cr(state.memories, rng, slots, cfg.sigma_cr)

    adaptive = np.zeros(pop_size, dtype=bool)
    if cfg.use_sinusoidal and gen <= cfg.max_generations / 2:
        freq = sample_freq(state.memories, rng, slots, cfg.sigma_cauchy_f)
        increasing = adaptive_sinusoidal_f(gen, cfg.max_generations, freq)
        f = np.empty(pop_size)
        for i in range(pop_size):
            if u[2][i] < 0.5:
                f[i] = decreasing_sinusoidal_f(gen, cfg.max_generations, cfg.freq_init)
            else:
                f[i] = increasing[i]
                adaptive[i] = strategies[i] == CURRENT_TO_PBEST
    else:
        f = sample_f_cauchy(state.memories, rng, slots, cfg.sigma_cauchy_f)
        freq = np.full(pop_size, np.nan)

    top = _top(fitness, cfg.p_best_fraction)
    pool = list(x) + list(state.archive)
    best = x[int(np.argmin(fitness))]
    donors = np.empty_like(x)
    targets = np.empty_like(x)
    for i in range(pop_size):
        if strategies[i] == CURRENT_TO_PBEST:
            pbest, r1, r2 = _pbest_partners(top, pop_size, len(state.archive), i, u[3:, i])
            donors[i] = x[i] + f[i] * (x[pbest] - x[i]) + f[i] * (x[r1] - pool[r2])
        else:
            t1, t2, t3 = _distinct_triplet(pop_size, i, u[3:, i])
            donors[i] = trigonometric_donor(x, fitness, t1, t2, t3)
        targets[i] = best if cfg.crossover_target == "best" else x[i]

    trials = repair_bounds_matrix(binomial_crossover_matrix(targets, donors, cr, rng), state.bounds, x)
    return TrialBatch(x=trials, strategies=strategies, f=f, cr=cr, freq=freq, adaptive=adaptive)


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
    # a trial that is not evaluated, or whose fitness is NaN or -inf, competes as +inf
    safe_tf = np.where(evaluated & (tf > -np.inf), tf, np.inf)
    accepted = evaluated & (safe_tf <= fitness)
    improved = evaluated & (safe_tf < fitness)

    success = SuccessSets()
    for i in np.flatnonzero(improved):
        # only current-to-pbest rows use F and CR, only adaptive ones their frequency
        if batch.strategies[i] == CURRENT_TO_PBEST:
            success.scr.append(float(batch.cr[i]))
            success.sf.append(float(batch.f[i]))
        if batch.adaptive[i]:
            success.sfreq.append(float(batch.freq[i]))

    # capacity 0 keeps nothing and draws nothing
    capacity = state.config.pop_size if state.config.archive_capacity is None else state.config.archive_capacity
    if capacity > 0:
        archive = list(state.archive)
        for i in np.flatnonzero(accepted):
            archive.append(x[i].copy())
            if len(archive) > capacity:
                del archive[index(rng.random(), len(archive))]
        state.archive = np.array(archive).reshape(-1, x.shape[1])

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

    update_memories(state.memories, success)

    best_idx = int(np.argmin(fitness))
    if fitness[best_idx] < state.best_fitness:
        state.best_fitness = float(fitness[best_idx])
        state.best_x = x[best_idx].copy()
    state.generation += 1
    state.evaluations += int(np.count_nonzero(evaluated))
    return state
