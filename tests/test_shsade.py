"""Tests for the adaptive optimizer: sampling, mutation, memories, the
generation loop and full seeded runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shsade_pids.de_core import Bounds, ObjectiveSpec, sample_distinct_triplets
from shsade_pids.objectives import make_benchmark
from shsade_pids.shsade import (
    TRIGONOMETRIC,
    ParameterMemories,
    ShsadeConfig,
    StrategyState,
    SuccessSets,
    Termination,
    _current_to_pbest_donors,
    _select_pbest_partners,
    _trigonometric_donors,
    adaptive_sinusoidal_f,
    build_trials,
    commit_generation,
    decreasing_sinusoidal_f,
    init_state,
    lehmer_mean,
    run,
    sample_cr,
    sample_f_cauchy,
    sample_f_gaussian,
    sample_freq,
    shsade_generation,
    trigonometric_donor,
    update_memories,
    update_strategy_probs,
)

import reference_generation


def memories_all(value_cr=0.5, value_f=0.5, value_freq=0.5, size=5):
    return ParameterMemories(
        np.full(size, value_cr), np.full(size, value_f), np.full(size, value_freq)
    )


def sphere_spec(dim):
    return make_benchmark("sphere", dim).to_objective_spec()


class _AlwaysNegativeCauchyRng:
    """Minimal generator stand-in whose Cauchy draws never become positive."""

    def integers(self, low, high, size):
        return np.zeros(size, dtype=int)

    def standard_cauchy(self, size):
        return -1000.0 * np.ones(size)


class TestSampleCr:
    def test_zero_sigma_returns_memory_entry(self):
        values = sample_cr(memories_all(0.5), np.random.default_rng(0), 20, sigma=0.0)
        assert values.tolist() == [0.5] * 20

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        values = sample_cr(memories_all(value_cr=1.0), rng, 10_000)
        assert np.all(values <= 1.0) and np.all(values >= 0.0)
        assert np.any(values == 1.0)  # draws above 1 clamp onto the bound

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(2)
        values = sample_cr(memories_all(0.5), rng, 100_000)
        assert 0.49 <= values.mean() <= 0.51


class TestSampleFCauchy:
    def test_range(self):
        rng = np.random.default_rng(3)
        values = sample_f_cauchy(memories_all(), rng, 50_000)
        assert np.all(values > 0.0) and np.all(values <= 1.0)

    def test_truncation_hits_upper_bound(self):
        rng = np.random.default_rng(4)
        values = sample_f_cauchy(memories_all(value_f=1.0), rng, 1_000)
        assert np.any(values == 1.0)

    def test_monte_carlo_median(self):
        rng = np.random.default_rng(5)
        values = sample_f_cauchy(memories_all(value_f=0.5), rng, 100_000)
        assert 0.48 <= np.median(values) <= 0.52

    def test_fallback_after_exhausted_retries(self):
        values = sample_f_cauchy(memories_all(value_f=0.37), _AlwaysNegativeCauchyRng(), 3)
        assert values.tolist() == [0.37] * 3

    def test_gaussian_variant_range(self):
        rng = np.random.default_rng(6)
        values = sample_f_gaussian(memories_all(), rng, 20_000)
        assert np.all(values > 0.0) and np.all(values <= 1.0)


class TestSampleFreq:
    def test_range(self):
        rng = np.random.default_rng(7)
        values = sample_freq(memories_all(), rng, 50_000)
        assert np.all(values > 0.0) and np.all(values <= 1.0)

    def test_fallback(self):
        assert sample_freq(memories_all(value_freq=0.25), _AlwaysNegativeCauchyRng(), 3).tolist() == [0.25] * 3


class TestSinusoidal:
    def test_decreasing_vanishes_at_final_generation(self):
        assert decreasing_sinusoidal_f(1000, 1000, 0.37) == pytest.approx(0.5, abs=1e-12)

    def test_decreasing_half_frequency_pins_integer_generations(self):
        for g in (2, 4, 10, 400):
            assert decreasing_sinusoidal_f(g, 1000, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_adaptive_hand_value(self):
        # sin term hits 1 at the half-way generation: F = (1 * 1/2 + 1) / 2
        assert adaptive_sinusoidal_f(1, 2, 0.25) == pytest.approx(0.75, abs=1e-12)

    def test_sampler_rejects_second_half(self):
        # past the half-way generation F comes from the memory, not a schedule
        cfg = ShsadeConfig(pop_size=40, max_generations=100)
        state = init_state(cfg, sphere_spec(2), np.random.default_rng(0))
        state.generation = 49  # builds generation 50, the last of the first half
        assert not np.isnan(build_trials(state, np.random.default_rng(1)).freq).all()
        state.generation = 50
        assert np.isnan(build_trials(state, np.random.default_rng(1)).freq).all()

    def test_sampler_decreasing_passes_frequency_through(self):
        # first-half rows without an adapted frequency follow the decreasing
        # schedule at the fixed initial frequency
        cfg = ShsadeConfig(pop_size=40, max_generations=100, freq_init=0.3)
        state = init_state(cfg, sphere_spec(2), np.random.default_rng(0))
        state.generation = 9
        batch = build_trials(state, np.random.default_rng(1))
        decreasing = np.isnan(batch.freq) & (batch.strategies != TRIGONOMETRIC)
        assert decreasing.any()
        assert np.all(batch.f[decreasing] == decreasing_sinusoidal_f(10, 100, 0.3))

    def test_sampler_adaptive_draws_frequency_from_memory(self):
        cfg = ShsadeConfig(pop_size=40, max_generations=100)
        state = init_state(cfg, sphere_spec(2), np.random.default_rng(8))
        state.generation = 9
        batch = build_trials(state, np.random.default_rng(9))
        adaptive = ~np.isnan(batch.freq)
        assert adaptive.any()
        assert np.all((batch.freq[adaptive] > 0.0) & (batch.freq[adaptive] <= 1.0))
        assert np.array_equal(batch.f[adaptive], adaptive_sinusoidal_f(10, 100, batch.freq[adaptive]))


class TestLehmerMean:
    def test_single_element(self):
        assert lehmer_mean([0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_two_elements(self):
        assert lehmer_mean([2.0, 4.0]) == pytest.approx(20.0 / 6.0, abs=1e-12)

    def test_constant_list(self):
        for x in (0.1, 1.0, 7.5):
            assert lehmer_mean([x, x, x]) == pytest.approx(x, abs=1e-12)

    def test_dominates_arithmetic_mean(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            values = rng.uniform(0.01, 5.0, size=int(rng.integers(1, 10)))
            assert lehmer_mean(values) >= values.mean() - 1e-12

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            lehmer_mean([])
        with pytest.raises(ValueError):
            lehmer_mean([0.5, 0.0])


class TestCurrentToPbest:
    def test_donor_hand_value(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        pool = np.vstack([x, [[0.0, 2.0]]])  # the archive row is pool index 3
        rows, pbest, r1, r2 = np.array([0]), np.array([1]), np.array([2]), np.array([3])
        donor = _current_to_pbest_donors(x, pool, rows, pbest, r1, r2, np.full(3, 0.5))
        assert np.allclose(donor, [[1.5, -0.5]], atol=1e-15)

    def test_zero_step_returns_target(self):
        x = np.arange(8.0).reshape(4, 2)
        rows = np.arange(4)
        pbest, r1, r2 = _select_pbest_partners(np.arange(4.0), 0, rows, 0.5, np.random.default_rng(0))
        donors = _current_to_pbest_donors(x, x, rows, pbest, r1, r2, np.zeros(4))
        assert np.array_equal(donors, x)

    def test_identical_population_returns_target(self):
        x = np.tile([1.5, -2.0], (5, 1))
        rows = np.arange(5)
        pbest, r1, r2 = _select_pbest_partners(np.full(5, 3.0), 0, rows, 0.3, np.random.default_rng(1))
        donors = _current_to_pbest_donors(x, x, rows, pbest, r1, r2, np.full(5, 0.7))
        assert np.allclose(donors, x, atol=1e-15)

    def test_archive_member_can_be_drawn(self):
        x = np.tile([0.0, 0.0], (4, 1))
        pool = np.vstack([x, [[10.0, 10.0]]])
        rows = np.zeros(200, dtype=int)  # row 0, drawn for 200 times over
        fitness = np.array([1.0, 2.0, 3.0, 4.0])
        pbest, r1, r2 = _select_pbest_partners(fitness, 1, rows, 0.5, np.random.default_rng(2))
        donors = _current_to_pbest_donors(x, pool, rows, pbest, r1, r2, np.ones(4))
        assert any(np.allclose(d, [-10.0, -10.0]) for d in donors)


class TestTrigonometric:
    def test_identical_points_return_the_point(self):
        donor = trigonometric_donor([2.0, 3.0], [2.0, 3.0], [2.0, 3.0], 1.0, 2.0, 3.0)
        assert np.allclose(donor, [2.0, 3.0], atol=1e-12)

    def test_equal_fitness_returns_centroid(self):
        donor = trigonometric_donor([0.0], [3.0], [6.0], 2.0, 2.0, 2.0)
        assert donor[0] == pytest.approx(3.0, abs=1e-12)

    def test_one_dimensional_hand_value(self):
        donor = trigonometric_donor([0.0], [3.0], [6.0], 1.0, 2.0, 3.0)
        assert donor[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_sum_falls_back_to_centroid(self):
        donor = trigonometric_donor([0.0], [3.0], [6.0], 0.0, 0.0, 0.0)
        assert donor[0] == pytest.approx(3.0, abs=1e-12)

    def test_mutation_on_constant_population(self):
        x = np.tile([4.0, -1.0], (6, 1))
        rows = np.arange(6)
        triplets = sample_distinct_triplets(6, rows, np.random.default_rng(3))
        donors = _trigonometric_donors(x, np.arange(6.0) + 1, *triplets)
        assert np.allclose(donors, x, atol=1e-12)

    def test_mutation_matches_some_triplet(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2))
        f = np.full(5, 2.0)  # equal fitness: the donor is a plain centroid
        donor = _trigonometric_donors(x, f, *sample_distinct_triplets(5, np.array([0]), rng))[0]
        candidates = [
            (x[a] + x[b] + x[c]) / 3.0
            for a in range(1, 5)
            for b in range(1, 5)
            for c in range(1, 5)
            if len({a, b, c}) == 3
        ]
        assert any(np.allclose(donor, cand, atol=1e-12) for cand in candidates)

    def test_donor_within_extreme_point_bounding_box(self):
        # the donor is affine in the weight simplex, so it stays inside the
        # triangle spanned by the three extreme-weight images
        rng = np.random.default_rng(5)
        for _ in range(300):
            pts = rng.normal(size=(3, 3))
            fs = rng.uniform(0.1, 5.0, size=3)
            donor = trigonometric_donor(pts[0], pts[1], pts[2], *fs)
            extremes = [
                trigonometric_donor(pts[0], pts[1], pts[2], *w) for w in np.eye(3)
            ]
            lo = np.min(extremes, axis=0) - 1e-9
            hi = np.max(extremes, axis=0) + 1e-9
            assert np.all(donor >= lo) and np.all(donor <= hi)


class TestStrategyAdaptation:
    def test_degenerate_probabilities(self):
        state = init_state(ShsadeConfig(pop_size=100), sphere_spec(1), np.random.default_rng(6))
        state.strategy = StrategyState(np.array([1.0, 0.0]), np.zeros(2, int), np.zeros(2, int))
        assert not build_trials(state, np.random.default_rng(6)).strategies.any()

    def test_monte_carlo_frequencies(self):
        # build_trials draws one strategy per row from the uniform start
        state = init_state(ShsadeConfig(pop_size=100_000), sphere_spec(1), np.random.default_rng(7))
        share = build_trials(state, np.random.default_rng(7)).strategies.mean()
        assert 0.49 <= share <= 0.51

    def test_equal_rates_return_to_uniform(self):
        state = StrategyState(np.array([0.9, 0.1]), np.array([5, 5]), np.array([5, 5]))
        update_strategy_probs(state, p_min=0.05, epsilon=0.01)
        assert np.allclose(state.probabilities, [0.5, 0.5], atol=1e-12)

    def test_lopsided_rates_hand_values(self):
        state = StrategyState(np.array([0.5, 0.5]), np.array([10, 0]), np.array([0, 10]))
        update_strategy_probs(state, p_min=0.05, epsilon=0.01)
        assert state.probabilities[0] == pytest.approx(0.9411764705882354, abs=1e-12)
        assert state.probabilities[1] == pytest.approx(0.05882352941176471, abs=1e-12)
        assert state.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(state.probabilities >= 0.05)

    def test_zero_trials_leave_probabilities_unchanged(self):
        state = StrategyState(np.array([0.7, 0.3]), np.zeros(2, int), np.zeros(2, int))
        update_strategy_probs(state)
        assert np.allclose(state.probabilities, [0.7, 0.3])

    def test_counts_reset_after_update(self):
        state = StrategyState(np.array([0.5, 0.5]), np.array([3, 1]), np.array([2, 4]))
        update_strategy_probs(state)
        assert state.success_counts.sum() == 0 and state.failure_counts.sum() == 0


class TestUpdateMemories:
    def test_empty_success_sets_leave_memories_bit_identical(self):
        memories = memories_all()
        before = memories.copy()
        update_memories(memories, SuccessSets())
        assert np.array_equal(memories.mcr, before.mcr)
        assert np.array_equal(memories.mf, before.mf)
        assert np.array_equal(memories.mfreq, before.mfreq)
        assert memories.next_update_index == before.next_update_index

    def test_arithmetic_mean_replacement(self):
        memories = memories_all()
        update_memories(memories, SuccessSets(scr=[0.2, 0.4], sf=[0.3, 0.5]))
        assert memories.mcr[0] == pytest.approx(0.3, abs=1e-12)
        assert memories.mf[0] == pytest.approx(0.4, abs=1e-12)
        assert memories.next_update_index == 1

    def test_lehmer_mean_clamped_into_range(self):
        memories = memories_all()
        update_memories(memories, SuccessSets(sfreq=[2.0, 4.0]))
        assert memories.mfreq[0] == 1.0  # 10/3 before the range clamp

    def test_partial_sets_update_only_their_memory(self):
        memories = memories_all()
        update_memories(memories, SuccessSets(scr=[0.8]))
        assert memories.mcr[0] == pytest.approx(0.8)
        assert memories.mf[0] == 0.5
        assert memories.next_update_index == 1

    def test_learning_rate_blends(self):
        memories = memories_all()
        update_memories(memories, SuccessSets(scr=[1.0]), learning_rate=0.5)
        assert memories.mcr[0] == pytest.approx(0.75, abs=1e-12)

    def test_circular_index(self):
        memories = memories_all(size=2)
        for _ in range(3):
            update_memories(memories, SuccessSets(scr=[0.9]))
        assert memories.next_update_index == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterMemories(np.array([1.5]), np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            ParameterMemories(np.array([0.5]), np.array([0.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            ParameterMemories(np.array([0.5]), np.array([0.5]), np.array([0.5, 0.5]))


class TestGenerationLoop:
    def test_one_generation_never_worsens_best(self):
        spec = sphere_spec(2)
        cfg = ShsadeConfig(pop_size=10, max_generations=50)
        rng = np.random.default_rng(7)
        state = init_state(cfg, spec, rng)
        initial_best = state.best_fitness
        shsade_generation(state, spec, rng)
        assert state.best_fitness <= initial_best

    def test_evaluations_increase_by_population_size(self):
        spec = sphere_spec(3)
        cfg = ShsadeConfig(pop_size=12, max_generations=50)
        rng = np.random.default_rng(8)
        state = init_state(cfg, spec, rng)
        for expected in (24, 36, 48):
            shsade_generation(state, spec, rng)
            assert state.evaluations == expected

    def test_failed_evaluation_leaves_state_untouched(self):
        calls = {"n": 0}

        def exploding_batch(xs):
            calls["n"] += 1
            if calls["n"] > 1:  # succeed for the initial population only
                raise RuntimeError("evaluator down")
            return np.sum(xs * xs, axis=1)

        spec = ObjectiveSpec(
            2, Bounds.cube(-1, 1, 2), lambda x: float(np.sum(x * x)), exploding_batch
        )
        cfg = ShsadeConfig(pop_size=6, max_generations=50)
        rng = np.random.default_rng(9)
        state = init_state(cfg, spec, rng)
        snapshot = (
            state.x.copy(),
            state.fitness.copy(),
            state.memories.copy(),
            list(state.archive),
            state.generation,
            state.evaluations,
            state.strategy.probabilities.copy(),
        )
        with pytest.raises(RuntimeError):
            shsade_generation(state, spec, rng)
        assert np.array_equal(state.x, snapshot[0])
        assert np.array_equal(state.fitness, snapshot[1])
        assert np.array_equal(state.memories.mcr, snapshot[2].mcr)
        assert state.archive == snapshot[3]
        assert state.generation == snapshot[4]
        assert state.evaluations == snapshot[5]
        assert np.array_equal(state.strategy.probabilities, snapshot[6])

    def test_archive_respects_capacity(self):
        spec = sphere_spec(3)
        cfg = ShsadeConfig(pop_size=8, max_generations=200, archive_capacity=5)
        rng = np.random.default_rng(10)
        state = init_state(cfg, spec, rng)
        for _ in range(60):
            shsade_generation(state, spec, rng)
            assert len(state.archive) <= 5

    def test_state_invariants_hold_across_generations(self):
        spec = sphere_spec(4)
        cfg = ShsadeConfig(pop_size=8, max_generations=200, learning_period=5)
        rng = np.random.default_rng(11)
        state = init_state(cfg, spec, rng)
        for _ in range(120):
            shsade_generation(state, spec, rng)
            assert np.all(state.memories.mcr >= 0) and np.all(state.memories.mcr <= 1)
            assert np.all(state.memories.mf > 0) and np.all(state.memories.mf <= 1)
            assert np.all(state.memories.mfreq > 0) and np.all(state.memories.mfreq <= 1)
            assert abs(state.strategy.probabilities.sum() - 1.0) <= 1e-12
            assert state.best_fitness == state.fitness.min()

    def test_trials_respect_bounds(self):
        spec = sphere_spec(3)
        cfg = ShsadeConfig(pop_size=8, max_generations=100)
        rng = np.random.default_rng(12)
        state = init_state(cfg, spec, rng)
        for _ in range(30):
            batch = build_trials(state, rng)
            assert np.all(batch.x >= spec.bounds.lower) and np.all(batch.x <= spec.bounds.upper)
            trial_fitness = spec.evaluate_many(batch.x)
            commit_generation(state, batch, trial_fitness, rng)

    def test_trial_metadata_is_nan_exactly_on_trigonometric_rows(self):
        spec = sphere_spec(3)
        cfg = ShsadeConfig(pop_size=30, max_generations=100)
        rng = np.random.default_rng(13)
        state = init_state(cfg, spec, rng)
        batch = build_trials(state, rng)
        trig = batch.strategies == TRIGONOMETRIC
        assert np.all(np.isnan(batch.f[trig])) and np.all(np.isnan(batch.cr[trig]))
        assert not np.any(np.isnan(batch.f[~trig]))
        assert not np.any(np.isnan(batch.cr[~trig]))


class TestRun:
    def test_infinite_target_stops_after_initialization(self):
        cfg = ShsadeConfig(pop_size=8, max_generations=100)
        _, trace = run(cfg, sphere_spec(2), Termination(target_fitness=math.inf), 0)
        assert len(trace) == 1
        assert trace.rows[0].generation == 0

    def test_trace_length_bounded_by_generations(self):
        cfg = ShsadeConfig(pop_size=8, max_generations=12)
        _, trace = run(cfg, sphere_spec(2), rng=1)
        assert len(trace) <= 13

    def test_max_evaluations_respected(self):
        cfg = ShsadeConfig(pop_size=10, max_generations=1000)
        _, trace = run(cfg, sphere_spec(3), Termination(max_evaluations=105), 2)
        assert trace.final_evaluations == 100  # only whole generations run

    def test_seeded_determinism(self):
        cfg = ShsadeConfig(pop_size=10, max_generations=40)
        best_a, trace_a = run(cfg, sphere_spec(4), rng=np.random.default_rng(33))
        best_b, trace_b = run(cfg, sphere_spec(4), rng=np.random.default_rng(33))
        assert best_a.fitness == best_b.fitness
        assert np.array_equal(best_a.x, best_b.x)
        assert [r.as_tuple() for r in trace_a.rows] == [r.as_tuple() for r in trace_b.rows]

    def test_hundred_generation_regression(self):
        cfg = ShsadeConfig(pop_size=50, max_generations=100)
        _, trace = run(cfg, sphere_spec(10), rng=np.random.default_rng(11))
        initial = trace.rows[0].best_fitness
        final = trace.final_best
        assert initial == pytest.approx(34.869110687217606, rel=1e-12)
        assert final == pytest.approx(1.2031772704882933e-11, rel=1e-9)
        assert initial / final >= 1e3

    def test_reduces_to_plain_success_history_de(self):
        # trigonometric strategy off, sinusoidal schedules off: the loop is a
        # current-to-pbest/1 optimizer with Cauchy/normal parameter sampling
        cfg = ShsadeConfig(
            pop_size=30,
            max_generations=300,
            use_sinusoidal=False,
            use_trigonometric=False,
        )
        best, trace = run(cfg, sphere_spec(5), rng=4)
        assert best.fitness < 1e-6
        values = [r.best_fitness for r in trace.rows]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShsadeConfig(pop_size=2)
        with pytest.raises(ValueError):
            ShsadeConfig(p_best_fraction=0.0)
        with pytest.raises(ValueError):
            ShsadeConfig(f_second_half="levy")
        with pytest.raises(ValueError):
            ShsadeConfig(crossover_target="worst")
        with pytest.raises(ValueError):
            ShsadeConfig(p_min=0.6)

    @pytest.mark.parametrize("name", ["strategy_epsilon", "sigma_gauss_f", "sigma_cauchy_f", "sigma_cr"])
    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite_scales(self, name, value):
        # a zero strategy_epsilon turns a learning period without a success
        # into 0/0 strategy probabilities
        with pytest.raises(ValueError, match=name):
            ShsadeConfig(**{name: value})

    def test_gaussian_second_half_switch_runs(self):
        cfg = ShsadeConfig(pop_size=10, max_generations=30, f_second_half="gaussian")
        best, _ = run(cfg, sphere_spec(3), rng=5)
        assert math.isfinite(best.fitness)


# ---------------------------------------------------------------------------
# bit identity with the loop-written generation step in reference_generation


def _plateau_batch(xs):
    # whole-number plateaus: many ties, so most trials are accepted and the
    # archive overflows in nearly every generation
    return np.floor(np.sum(xs * xs, axis=1))


def _state_snapshot(state):
    return (
        state.x.tobytes(),
        state.fitness.tobytes(),
        state.memories.mcr.tobytes(),
        state.memories.mf.tobytes(),
        state.memories.mfreq.tobytes(),
        state.memories.next_update_index,
        state.strategy.probabilities.tobytes(),
        state.strategy.success_counts.tolist(),
        state.strategy.failure_counts.tolist(),
        state.strategy.generations_in_window,
        [row.tobytes() for row in state.archive],
        state.generation,
        state.evaluations,
        state.best_x.tobytes(),
        state.best_fitness,
    )


def _batch_snapshot(batch):
    return (
        batch.x.tobytes(),
        batch.strategies.tolist(),
        batch.f.tobytes(),
        batch.cr.tobytes(),
        batch.freq.tobytes(),
    )


@settings(max_examples=60, deadline=None)
@given(
    pop_size=st.integers(4, 20),
    dim=st.integers(1, 12),
    archive_capacity=st.sampled_from([0, 1, None, 3, 40]),
    crossover_target=st.sampled_from(["self", "best"]),
    use_trigonometric=st.booleans(),
    crossover_trigonometric=st.booleans(),
    use_sinusoidal=st.booleans(),
    f_second_half=st.sampled_from(["cauchy", "gaussian"]),
    plateaus=st.booleans(),
    drop_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_generation_step_matches_loop_reference(
    pop_size, dim, archive_capacity, crossover_target, use_trigonometric, crossover_trigonometric,
    use_sinusoidal, f_second_half, plateaus, drop_rows, seed,
):
    generations = 10
    cfg = ShsadeConfig(
        pop_size=pop_size,
        max_generations=generations,
        memory_size=3,
        learning_period=3,
        archive_capacity=archive_capacity,
        crossover_target=crossover_target,
        use_trigonometric=use_trigonometric,
        crossover_trigonometric=crossover_trigonometric,
        use_sinusoidal=use_sinusoidal,
        f_second_half=f_second_half,
    )
    batch_evaluator = _plateau_batch if plateaus else lambda xs: np.sum(xs * xs, axis=1)
    spec = ObjectiveSpec(dim, Bounds.cube(-3, 3, dim), lambda x: float(batch_evaluator(x[None])[0]), batch_evaluator)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new, ref = init_state(cfg, spec, rng_new), init_state(cfg, spec, rng_ref)
    masks = np.random.default_rng(seed + 1)
    for _ in range(generations):
        batch_new = build_trials(new, rng_new)
        batch_ref = reference_generation.build_trials(ref, rng_ref)
        assert _batch_snapshot(batch_new) == _batch_snapshot(batch_ref)
        trial_fitness = spec.evaluate_many(batch_new.x)
        # rows left unevaluated carry a value that would win, so a row that
        # is wrongly committed shows up in the state
        evaluated = masks.random(pop_size) < 0.7 if drop_rows else None
        if evaluated is not None:
            trial_fitness = np.where(evaluated, trial_fitness, -np.inf)
        commit_generation(new, batch_new, trial_fitness, rng_new, evaluated)
        reference_generation.commit_generation(ref, batch_ref, trial_fitness.copy(), rng_ref, evaluated)
        assert _state_snapshot(new) == _state_snapshot(ref)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    pop_size=st.integers(4, 20),
    archive_size=st.integers(0, 25),
    p_best_fraction=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pbest_partners_match_loop_reference(pop_size, archive_size, p_best_fraction, seed, data):
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, pop_size - 1), min_size=1))))
    fitness = np.random.default_rng(seed).integers(0, 3, size=pop_size).astype(float)  # with ties
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new = _select_pbest_partners(fitness, archive_size, rows, p_best_fraction, rng_new)
    ref = reference_generation.select_pbest_partners(fitness, archive_size, rows, p_best_fraction, rng_ref)
    assert [a.tolist() for a in new] == [a.tolist() for a in ref]
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 60),
    memory=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    sigma=st.sampled_from([0.0, 0.1, 0.37, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_parameter_samplers_match_loop_reference(size, memory, sigma, seed):
    positive = [min(max(v, 1e-3), 1.0) for v in memory]
    memories = ParameterMemories(memory, positive, positive)
    for name in ("sample_cr", "sample_f_cauchy", "sample_f_gaussian", "sample_freq"):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        new = globals()[name](memories, rng_new, size, sigma)
        ref = getattr(reference_generation, name)(memories, rng_ref, sigma, size=size)
        assert new.tobytes() == ref.tobytes(), name
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state, name


class TestNumpyStreamAssumptions:
    """The array code draws in fewer or cheaper calls than the code it
    replaced, relying on numpy producing the same values and leaving the
    stream in the same state. A numpy upgrade that breaks one of these
    breaks bit-identical trajectories, and must fail here first."""

    @settings(max_examples=100, deadline=None)
    @given(
        bound=st.sampled_from([1, 2, 7, 51, 101, 2**20]) | st.integers(1, 10**6),
        size=st.integers(1, 333),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_integers_equal_scalar_calls(self, bound, size, seed):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        values = batched.integers(0, bound, size=size).tolist()
        assert values == [int(scalar.integers(0, bound)) for _ in range(size)]
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_bound_one_draws_nothing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert rng.integers(0, 1, size=7).tolist() == [0] * 7
        assert int(rng.integers(0, 1)) == 0
        assert rng.bit_generator.state == before

    @settings(max_examples=100, deadline=None)
    @given(
        p0=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]) | st.floats(0.0, 1.0),
        size=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cdf_searchsorted_equals_choice(self, p0, size, seed):
        probabilities = np.array([p0, 1.0 - p0])
        by_choice, by_cdf = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = by_choice.choice(2, size=size, p=probabilities)
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        drawn = cdf.searchsorted(by_cdf.random(size), side="right")
        assert drawn.dtype == expected.dtype and drawn.tolist() == expected.tolist()
        assert by_choice.bit_generator.state == by_cdf.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(
        loc=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=60),
        sigma=st.sampled_from([0.0, 0.1, 0.37, 1e-3, 2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_normal_equals_shifted_standard_normal(self, loc, sigma, seed):
        loc = np.array(loc)
        direct, shifted = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = direct.normal(loc, sigma)
        assert (loc + sigma * shifted.standard_normal(loc.size)).tobytes() == expected.tobytes()
        assert direct.bit_generator.state == shifted.bit_generator.state
