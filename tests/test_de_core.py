"""Unit tests for the shared DE primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shsade_pids.de_core import (
    Bounds,
    Individual,
    ObjectiveSpec,
    Population,
    binomial_crossover,
    binomial_crossover_matrix,
    greedy_select,
    init_population,
    redraw_clashes,
    repair_bounds,
    repair_bounds_matrix,
    sample_distinct_triplets,
)

import reference_generation


def sphere_spec(dim=2, lo=0.0, hi=1.0):
    bounds = Bounds.cube(lo, hi, dim)
    return ObjectiveSpec(dim, bounds, lambda x: float(np.sum(x * x)))


class TestBounds:
    def test_valid(self):
        b = Bounds([0.0, -1.0], [1.0, 2.0])
        assert b.dimension == 2
        assert b.contains([0.5, 0.0])
        assert not b.contains([0.5, 3.0])

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


class TestInitPopulation:
    def test_containment_and_evaluation(self):
        pop = init_population(sphere_spec(), 4, np.random.default_rng(0))
        assert pop.size == 4
        for member in pop.members:
            assert member.evaluated
            assert np.all(member.x >= 0.0) and np.all(member.x <= 1.0)
            assert member.fitness == pytest.approx(float(np.sum(member.x**2)))

    def test_rejects_small_population(self):
        with pytest.raises(ValueError):
            init_population(sphere_spec(), 3, np.random.default_rng(0))

    def test_seeded_determinism(self):
        a = init_population(sphere_spec(5), 10, np.random.default_rng(42))
        b = init_population(sphere_spec(5), 10, np.random.default_rng(42))
        xa, fa = a.as_arrays()
        xb, fb = b.as_arrays()
        assert np.array_equal(xa, xb)
        assert np.array_equal(fa, fb)


class TestRepairBounds:
    def test_in_bounds_identity(self):
        out = repair_bounds([0.5], Bounds([0.0], [1.0]), [0.2])
        assert out[0] == 0.5

    def test_lower_violation_midpoint(self):
        out = repair_bounds([-0.4], Bounds([0.0], [1.0]), [0.2])
        assert out[0] == pytest.approx(0.1, abs=1e-15)

    def test_upper_violation_midpoint(self):
        out = repair_bounds([1.6], Bounds([0.0], [1.0]), [0.8])
        assert out[0] == pytest.approx(0.9, abs=1e-15)

    def test_rejects_out_of_bounds_base(self):
        with pytest.raises(ValueError):
            repair_bounds([0.5], Bounds([0.0], [1.0]), [2.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            repair_bounds([0.5, 0.5], Bounds([0.0], [1.0]), [0.2])

    def test_fuzz_always_lands_in_bounds(self):
        rng = np.random.default_rng(7)
        bounds = Bounds([0.0, -2.0, 1.0], [1.0, 2.0, 3.0])
        for _ in range(10_000):
            v = rng.uniform(-5.0, 8.0, size=3)
            base = rng.uniform(bounds.lower, bounds.upper)
            out = repair_bounds(v, bounds, base)
            assert np.all(out >= bounds.lower) and np.all(out <= bounds.upper)


class TestBinomialCrossover:
    def test_cr_one_copies_donor(self):
        rng = np.random.default_rng(0)
        target = np.zeros(6)
        donor = np.arange(1.0, 7.0)
        out = binomial_crossover(target, donor, 1.0, rng)
        assert np.array_equal(out, donor)

    def test_cr_zero_changes_exactly_one_coordinate(self):
        rng = np.random.default_rng(1)
        target = np.zeros(8)
        donor = np.ones(8)
        for _ in range(50):
            out = binomial_crossover(target, donor, 0.0, rng)
            assert int(np.sum(out != target)) == 1

    def test_identical_vectors_are_fixed_point(self):
        rng = np.random.default_rng(2)
        v = np.array([0.3, -1.0, 2.5])
        out = binomial_crossover(v, v.copy(), 0.4, rng)
        assert np.array_equal(out, v)

    def test_coordinates_come_from_target_or_donor(self):
        rng = np.random.default_rng(3)
        target = rng.normal(size=5)
        donor = rng.normal(size=5)
        for _ in range(200):
            out = binomial_crossover(target, donor, 0.5, rng)
            for d in range(5):
                assert out[d] in (target[d], donor[d])

    def test_rejects_bad_cr(self):
        with pytest.raises(ValueError):
            binomial_crossover([0.0], [1.0], 1.5, np.random.default_rng(0))


class TestGreedySelect:
    def test_strict_improvement(self):
        target = Individual(np.zeros(2), 2.0, True)
        trial = Individual(np.ones(2), 1.0, True)
        winner, success = greedy_select(target, trial)
        assert winner is trial and success

    def test_tie_accepts_trial(self):
        target = Individual(np.zeros(2), 2.0, True)
        trial = Individual(np.ones(2), 2.0, True)
        winner, success = greedy_select(target, trial)
        assert winner is trial and success

    def test_worse_trial_rejected(self):
        target = Individual(np.zeros(2), 2.0, True)
        trial = Individual(np.ones(2), 3.0, True)
        winner, success = greedy_select(target, trial)
        assert winner is target and not success

    def test_rejects_unevaluated(self):
        with pytest.raises(ValueError):
            greedy_select(Individual(np.zeros(1)), Individual(np.ones(1), 1.0, True))

    def test_never_increases_best_fitness(self):
        rng = np.random.default_rng(5)
        fitness = rng.uniform(0, 10, size=20)
        best = fitness.min()
        for i in range(20):
            trial = Individual(np.zeros(1), float(rng.uniform(0, 10)), True)
            winner, _ = greedy_select(Individual(np.zeros(1), float(fitness[i]), True), trial)
            fitness[i] = winner.fitness
        assert fitness.min() <= best


class TestPopulation:
    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            Population([Individual(np.zeros(2), 0.0, True)] * 3)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            Population(
                [Individual(np.zeros(2), 0.0, True)] * 3 + [Individual(np.zeros(3), 0.0, True)]
            )

    def test_array_round_trip_and_best(self):
        x = np.arange(8.0).reshape(4, 2)
        f = np.array([3.0, 1.0, 2.0, 4.0])
        pop = Population.from_arrays(x, f)
        x2, f2 = pop.as_arrays()
        assert np.array_equal(x, x2) and np.array_equal(f, f2)
        assert pop.best().fitness == 1.0

    def test_individual_rejects_non_finite_fitness(self):
        with pytest.raises(ValueError):
            Individual(np.zeros(2), float("nan"), True)


def test_sample_distinct_triplets():
    rng = np.random.default_rng(9)
    rows = np.arange(6)
    for _ in range(200):
        r1, r2, r3 = sample_distinct_triplets(6, rows, rng)
        for i in range(6):
            picks = {int(r1[i]), int(r2[i]), int(r3[i])}
            assert len(picks) == 3
            assert i not in picks


@settings(max_examples=100, deadline=None)
@given(pop_size=st.integers(4, 20), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sample_distinct_triplets_match_loop_reference(pop_size, seed, data):
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, pop_size - 1), min_size=1))))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new = sample_distinct_triplets(pop_size, rows, rng_new)
    ref = reference_generation.sample_distinct_triplets(pop_size, rows, rng_ref)
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


def test_redraw_clashes_redraws_only_clashing_entries():
    draws = iter([np.array([7, 8])])
    values = redraw_clashes(np.array([1, 5, 5]), lambda v: v == 5, lambda count: next(draws)[:count])
    assert values.tolist() == [1, 7, 8]
    draws = iter([np.array([5, 3]), np.array([4])])  # the first round clashes again
    values = redraw_clashes(np.array([5, 5]), lambda v: v == 5, lambda count: next(draws)[:count])
    assert values.tolist() == [4, 3]
