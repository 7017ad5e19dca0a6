"""Unit tests for the shared DE primitives."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shsade_pids import baselines, shsade
from shsade_pids.de_core import (
    Bounds,
    ObjectiveSpec,
    binomial_crossover_matrix,
    init_population,
    repair_bounds_matrix,
    replace_rows,
    sample_distinct_triplets,
    uniform_index,
)

import reference_generation


def sphere_spec(dim=2, lo=0.0, hi=1.0):
    bounds = Bounds.cube(lo, hi, dim)
    return ObjectiveSpec(dim, bounds, lambda x: float(np.sum(x * x)))


class TestBounds:
    def test_valid(self):
        b = Bounds([0.0, -1.0], [1.0, 2.0])
        assert b.dimension == 2

    def test_rejects_degenerate_width(self):
        with pytest.raises(ValueError):
            Bounds([0.0, 0.0], [1.0, 0.0])

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Bounds([1.0], [0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Bounds([0.0], [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Bounds(np.array([]), np.array([]))

    def test_an_objective_must_match_its_bounds(self):
        with pytest.raises(ValueError, match="dimension must match its bounds"):
            ObjectiveSpec(3, Bounds.cube(0, 1, 2), lambda x: float(np.sum(x * x)))


class TestInitPopulation:
    def test_containment_and_evaluation(self):
        x, fitness = init_population(sphere_spec(), 4, np.random.default_rng(0))
        assert x.shape == (4, 2) and fitness.shape == (4,)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        assert np.array_equal(fitness, [float(np.sum(row**2)) for row in x])

    def test_rejects_small_population(self):
        with pytest.raises(ValueError):
            init_population(sphere_spec(), 3, np.random.default_rng(0))

    def test_seeded_determinism(self):
        xa, fa = init_population(sphere_spec(5), 10, np.random.default_rng(42))
        xb, fb = init_population(sphere_spec(5), 10, np.random.default_rng(42))
        assert np.array_equal(xa, xb)
        assert np.array_equal(fa, fb)

    def test_non_finite_initial_fitness_is_rejected(self):
        # NaN wherever x[0] > 0.5: some member of a 20-point population hits it
        def batch(xs):
            return np.where(xs[:, 0] > 0.5, np.nan, np.sum(xs * xs, axis=1))

        spec = ObjectiveSpec(3, Bounds.cube(0, 1, 3), lambda x: float(batch(x[None])[0]), batch)
        # the population's own check, not the trace's, which would also fail
        with pytest.raises(ValueError, match="initial population needs a finite fitness"):
            shsade.run(shsade.ShsadeConfig(pop_size=20), spec, rng=0)
        with pytest.raises(ValueError, match="initial population needs a finite fitness"):
            baselines.vanilla_de_run(baselines.VanillaDeConfig(pop_size=20), spec, rng=0)


def _squares(xs):
    return np.sum(xs * xs, axis=1)


# batch evaluators of the wrong shape, with the shape they return for 8 rows of 3
WRONG_BATCHES = {
    "column": (lambda xs: _squares(xs)[:, None], (8, 1)),
    "short": (lambda xs: _squares(xs)[:-1], (7,)),
    "scalar": (lambda xs: np.sum(xs * xs), ()),
}


class TestEvaluateMany:
    @pytest.mark.parametrize("wrong", sorted(WRONG_BATCHES))
    @pytest.mark.parametrize("good_calls", [0, 1])  # wrong from the initial population, or from the first generation
    @pytest.mark.parametrize("algorithm", ["shsade", "vanilla_de"])
    def test_a_batch_of_the_wrong_shape_is_rejected(self, wrong, good_calls, algorithm):
        batch, shape = WRONG_BATCHES[wrong]
        calls = []

        def evaluator(xs):
            calls.append(len(xs))
            return _squares(xs) if len(calls) <= good_calls else batch(xs)

        spec = ObjectiveSpec(3, Bounds.cube(-1, 1, 3), lambda x: float(np.sum(x * x)), evaluator)
        with pytest.raises(ValueError, match=re.escape(f"returned shape {shape}, expected (8,)")):
            if algorithm == "shsade":
                shsade.run(shsade.ShsadeConfig(pop_size=8, max_generations=3), spec, rng=0)
            else:
                baselines.vanilla_de_run(baselines.VanillaDeConfig(pop_size=8, max_generations=3), spec, rng=0)
        assert len(calls) == good_calls + 1

    def test_a_list_of_floats_is_accepted(self):
        def as_list(xs):
            return [float(v) for v in _squares(xs)]

        runs = [
            shsade.run(
                shsade.ShsadeConfig(pop_size=8, max_generations=5),
                ObjectiveSpec(3, Bounds.cube(-1, 1, 3), lambda x: float(np.sum(x * x)), batch),
                rng=0,
            )
            for batch in (_squares, as_list)
        ]
        (best_array, trace_array), (best_list, trace_list) = runs
        assert best_list.x.tobytes() == best_array.x.tobytes()
        assert [row.best_fitness for row in trace_list.rows] == [row.best_fitness for row in trace_array.rows]


class TestPopulation:
    def test_array_round_trip_and_best(self):
        # an SHSADE run starts from the evaluated arrays as given
        x = np.arange(8.0).reshape(4, 2)
        f = np.array([3.0, 1.0, 2.0, 4.0])
        state = shsade.ShsadeState.initial(shsade.ShsadeConfig(pop_size=4), x, f, Bounds.cube(0, 8, 2))
        assert state.x is x and state.fitness is f
        assert (state.best.fitness, state.best.x.tolist()) == (1.0, [2.0, 3.0])
        assert (state.generation, state.evaluations, state.archive.shape) == (0, 4, (0, 2))


def rows_state(fitness, best_fitness):
    """A population whose row i sits at x = i, with its best-so-far at x = -1."""
    fitness = np.array(fitness, dtype=float)
    x = np.arange(float(fitness.size))[:, None]
    return SimpleNamespace(x=x, fitness=fitness, best_x=np.array([-1.0]), best_fitness=best_fitness)


class TestReplaceRows:
    def test_writes_the_rows(self):
        state = rows_state([5.0, 6.0, 7.0, 8.0], 5.0)
        accepted = np.array([False, True, False, True])
        replace_rows(state, accepted, np.array([[-5.0], [10.0], [-7.0], [30.0]]), np.array([1.0, 9.0, 1.0, 5.5]))
        assert state.x[:, 0].tolist() == [0.0, 10.0, 2.0, 30.0]
        assert state.fitness.tolist() == [5.0, 9.0, 7.0, 5.5]

    def test_a_tie_with_the_best_leaves_it_unchanged(self):
        state = rows_state([5.0, 6.0, 7.0, 8.0], 4.0)
        accepted = np.array([False, False, True, True])
        replace_rows(state, accepted, np.array([[0.0], [0.0], [20.0], [30.0]]), np.array([1.0, 1.0, 4.0, 4.0]))
        assert (state.best_fitness, state.best_x.tolist()) == (4.0, [-1.0])

    def test_a_strict_improvement_picks_the_first_row_of_the_new_minimum(self):
        state = rows_state([5.0, 6.0, 7.0, 8.0], 4.0)
        accepted = np.array([False, True, True, True])
        replace_rows(state, accepted, np.array([[0.0], [10.0], [20.0], [30.0]]), np.array([1.0, 3.0, 2.0, 2.0]))
        assert (state.best_fitness, state.best_x.tolist()) == (2.0, [20.0])
        # a copy: later writes to the row do not move the best
        state.x[2] = 99.0
        assert state.best_x.tolist() == [20.0]

    def test_an_initial_state_takes_the_first_row_of_its_minimum(self):
        state = rows_state([3.0, 1.0, 1.0, 2.0], np.inf)
        replace_rows(state, np.ones(4, dtype=bool), state.x, state.fitness)
        assert (state.best_fitness, state.best_x.tolist()) == (1.0, [1.0])


def one_row(values):
    return np.array([values], dtype=float)


class TestRepairBounds:
    def test_in_bounds_identity(self):
        out = repair_bounds_matrix(one_row([0.5]), Bounds([0.0], [1.0]), one_row([0.2]))
        assert out[0, 0] == 0.5

    def test_lower_violation_midpoint(self):
        out = repair_bounds_matrix(one_row([-0.4]), Bounds([0.0], [1.0]), one_row([0.2]))
        assert out[0, 0] == pytest.approx(0.1, abs=1e-15)

    def test_upper_violation_midpoint(self):
        out = repair_bounds_matrix(one_row([1.6]), Bounds([0.0], [1.0]), one_row([0.8]))
        assert out[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_fuzz_always_lands_in_bounds(self):
        rng = np.random.default_rng(7)
        bounds = Bounds([0.0, -2.0, 1.0], [1.0, 2.0, 3.0])
        v = rng.uniform(-5.0, 8.0, size=(10_000, 3))
        base = rng.uniform(bounds.lower, bounds.upper, size=(10_000, 3))
        out = repair_bounds_matrix(v, bounds, base)
        assert np.all(out >= bounds.lower) and np.all(out <= bounds.upper)


class TestBinomialCrossover:
    def test_cr_one_copies_donor(self):
        rng = np.random.default_rng(0)
        targets = np.zeros((3, 6))
        donors = np.arange(18.0).reshape(3, 6)
        out = binomial_crossover_matrix(targets, donors, np.ones(3), rng)
        assert np.array_equal(out, donors)

    def test_cr_zero_changes_exactly_one_coordinate(self):
        rng = np.random.default_rng(1)
        targets = np.zeros((50, 8))
        out = binomial_crossover_matrix(targets, np.ones((50, 8)), np.zeros(50), rng)
        assert np.array_equal(np.sum(out != targets, axis=1), np.ones(50))

    def test_identical_vectors_are_fixed_point(self):
        rng = np.random.default_rng(2)
        v = np.array([[0.3, -1.0, 2.5], [4.0, 0.0, -7.5]])
        out = binomial_crossover_matrix(v, v.copy(), np.full(2, 0.4), rng)
        assert np.array_equal(out, v)

    def test_coordinates_come_from_target_or_donor(self):
        rng = np.random.default_rng(3)
        targets = np.tile(rng.normal(size=5), (200, 1))
        donors = np.tile(rng.normal(size=5), (200, 1))
        out = binomial_crossover_matrix(targets, donors, np.full(200, 0.5), rng)
        assert np.all((out == targets) | (out == donors))


def selection_state(fitness):
    """An SHSADE state whose rows i sit at x = i with the given fitness."""
    fitness = np.array(fitness, dtype=float)
    x = np.arange(float(fitness.size))[:, None]
    config = shsade.ShsadeConfig(pop_size=fitness.size, archive_capacity=0)
    return shsade.ShsadeState.initial(config, x, fitness, Bounds.cube(-100, 100, 1))


def select(state, trial_fitness, evaluated=None):
    """Commit trials at x = -1 - i with the given fitness; returns which rows
    took their trial."""
    n = state.fitness.size
    trials = -1.0 - np.arange(float(n))[:, None]
    half, unused = np.full(n, 0.5), np.full(n, np.nan)
    batch = shsade.TrialBatch(trials, np.zeros(n, dtype=int), f=half, cr=half, freq=unused, adaptive=np.zeros(n, bool))
    trial_fitness = np.array(trial_fitness, dtype=float)
    shsade.commit_generation(state, batch, trial_fitness, np.random.default_rng(0), evaluated)
    return state.x[:, 0] < 0


class TestGreedySelect:
    """Greedy selection as ``shsade.commit_generation`` applies it."""

    def test_strict_improvement(self):
        state = selection_state([2.0, 2.0, 2.0, 2.0])
        assert select(state, [1.0, 3.0, 3.0, 3.0]).tolist() == [True, False, False, False]
        assert state.fitness[0] == 1.0

    def test_tie_accepts_trial(self):
        state = selection_state([2.0, 2.0, 2.0, 2.0])
        assert select(state, [2.0, 3.0, 3.0, 3.0]).tolist() == [True, False, False, False]

    def test_worse_trial_rejected(self):
        state = selection_state([2.0, 2.0, 2.0, 2.0])
        assert not select(state, [3.0, 3.0, 3.0, 3.0]).any()
        assert state.fitness.tolist() == [2.0, 2.0, 2.0, 2.0]

    def test_rejects_unevaluated(self):
        # a row not evaluated keeps its parent, whatever its trial fitness reads
        state = selection_state([2.0, 2.0, 2.0, 2.0])
        taken = select(state, [-np.inf, 1.0, 1.0, 1.0], evaluated=np.array([False, True, True, True]))
        assert taken.tolist() == [False, True, True, True]
        assert state.fitness[0] == 2.0

    def test_non_finite_trials_lose_and_count_as_failed_tries(self):
        # after initialisation a NaN or +inf trial keeps its parent, enters
        # neither the success sets nor the archive, and fails its strategy
        config = shsade.ShsadeConfig(pop_size=4)
        state = shsade.ShsadeState.initial(config, np.arange(4.0)[:, None], np.full(4, 2.0), Bounds.cube(-100, 100, 1))
        batch = shsade.TrialBatch(
            -1.0 - np.arange(4.0)[:, None],
            strategies=np.array([1, 1, 0, 0]),
            f=np.array([0.1, 0.2, 0.8, 0.4]),
            cr=np.array([0.1, 0.2, 0.9, 0.4]),
            freq=np.full(4, np.nan),
            adaptive=np.zeros(4, dtype=bool),
        )
        shsade.commit_generation(state, batch, np.array([np.nan, np.inf, 1.0, 3.0]), np.random.default_rng(0))
        assert state.x[:, 0].tolist() == [0.0, 1.0, -3.0, 3.0]
        assert state.fitness.tolist() == [2.0, 2.0, 1.0, 2.0]
        assert [row.tolist() for row in state.archive] == [[2.0]]
        assert (state.memories.mcr[0], state.memories.mf[0]) == (0.9, 0.8)
        assert state.strategy.success_counts.tolist() == [1, 0]
        assert state.strategy.failure_counts.tolist() == [1, 2]

    def test_a_minus_inf_trial_loses_like_a_nan_one(self):
        # -inf passes both comparisons with the parent, so the commit reads
        # it as NaN: the parent stays, and nothing enters the archive, the
        # success sets or the best
        config = shsade.ShsadeConfig(pop_size=4)
        state = shsade.ShsadeState.initial(config, np.arange(4.0)[:, None], np.full(4, 2.0), Bounds.cube(-100, 100, 1))
        batch = shsade.TrialBatch(
            -1.0 - np.arange(4.0)[:, None],
            strategies=np.array([0, 1, 0, 0]),
            f=np.array([0.1, 0.2, 0.8, 0.4]),
            cr=np.array([0.1, 0.2, 0.9, 0.4]),
            freq=np.full(4, np.nan),
            adaptive=np.zeros(4, dtype=bool),
        )
        shsade.commit_generation(state, batch, np.array([-np.inf, -np.inf, 1.0, 3.0]), np.random.default_rng(0))
        assert state.x[:, 0].tolist() == [0.0, 1.0, -3.0, 3.0]
        assert state.fitness.tolist() == [2.0, 2.0, 1.0, 2.0]
        assert (state.best_fitness, state.best_x.tolist()) == (1.0, [-3.0])
        assert [row.tolist() for row in state.archive] == [[2.0]]
        assert (state.memories.mcr[0], state.memories.mf[0]) == (0.9, 0.8)
        assert state.strategy.success_counts.tolist() == [1, 0]
        assert state.strategy.failure_counts.tolist() == [2, 1]

    def test_never_increases_best_fitness(self):
        rng = np.random.default_rng(5)
        state = selection_state(rng.uniform(0, 10, size=20))
        best = state.fitness.min()
        select(state, rng.uniform(0, 10, size=20))
        assert state.fitness.min() <= best


def test_sample_distinct_triplets():
    rng = np.random.default_rng(9)
    rows = np.arange(6)
    for _ in range(200):
        r1, r2, r3 = sample_distinct_triplets(6, rows, rng.random((3, 6)))
        for i in range(6):
            picks = {int(r1[i]), int(r2[i]), int(r3[i])}
            assert len(picks) == 3
            assert i not in picks


@pytest.mark.parametrize("pop_size", [0, 1, 2, 3])
def test_sample_distinct_triplets_reject_populations_below_four(pop_size):
    # no triplet distinct from i exists; the third pick used to come back
    # as -1, which a gather wraps to the last row
    with pytest.raises(ValueError, match="at least 4"):
        sample_distinct_triplets(pop_size, np.arange(pop_size), np.full((3, pop_size), 0.5))


@settings(max_examples=100, deadline=None)
@given(pop_size=st.integers(4, 20), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sample_distinct_triplets_match_loop_reference(pop_size, seed, data):
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, pop_size - 1), min_size=1))))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new = sample_distinct_triplets(pop_size, rows, rng_new.random((3, rows.size)))
    ref = reference_generation.sample_distinct_triplets(pop_size, rows, rng_ref.random((3, rows.size)))
    assert [a.tolist() for a in new] == [a.tolist() for a in ref]
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 20),
    dim=st.integers(1, 12),
    cr=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_crossover_and_repair_match_loop_reference(rows, dim, cr, seed):
    values = np.random.default_rng(seed)
    targets = values.uniform(-1, 1, size=(rows, dim))
    donors = values.uniform(-3, 3, size=(rows, dim))  # many out of bounds
    rates = np.minimum(values.random(rows), cr)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new = binomial_crossover_matrix(targets, donors, rates, rng_new)
    ref = reference_generation.binomial_crossover_matrix(targets, donors, rates, rng_ref)
    assert new.tobytes() == ref.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    bounds = Bounds.cube(-1, 1, dim)
    repaired = repair_bounds_matrix(new, bounds, targets)
    assert repaired.tobytes() == reference_generation.repair_bounds_matrix(ref, bounds, targets).tobytes()
    assert np.all((repaired >= -1) & (repaired <= 1))


@settings(max_examples=100, deadline=None)
@given(bounds=st.lists(st.integers(0, 2**53), min_size=1, max_size=20), seed=st.integers(0, 2**32 - 1))
def test_uniform_index_clamps_the_product_like_the_truncated_index(bounds, seed):
    # clamping the float product before truncating it gives the indices that
    # truncating first gave, for integer bounds up to 2**53 (0, a
    # single-value axis, gives -1 both ways), as scalars, as an integer
    # block and as a float block
    m = np.array(bounds)
    u = np.random.default_rng(seed).random(m.size)
    u[::3] = 1.0 - 2.0**-53
    expected = np.minimum((u * m).astype(np.intp), m - 1).tolist()
    assert uniform_index(u, m).tolist() == expected
    assert uniform_index(u, m.astype(float)).tolist() == expected
    assert [int(uniform_index(v, b)) for v, b in zip(u.tolist(), bounds)] == expected


def test_uniform_index_keeps_the_largest_uniform_below_the_bound():
    largest = 1.0 - 2.0**-53  # the largest double below 1
    bounds = np.array([1, 2, 3, 7, 10, 49, 50, 51, 100, 1023, 12345, 2**20 - 1, 2**20])
    assert uniform_index(np.full(bounds.size, largest), bounds).tolist() == (bounds - 1).tolist()
    every = np.arange(1, 2**20 + 1)
    assert np.array_equal(uniform_index(largest, every), every - 1)
    assert uniform_index(np.zeros(3), np.array([1, 5, 2**20])).tolist() == [0, 0, 0]
