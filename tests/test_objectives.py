"""Benchmark functions and the seeded tabular surrogate."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shsade_pids.discrete_codec import Axis, DiscreteSpace, Genotype
from shsade_pids.nas_search import pids_space
from shsade_pids.objectives import (
    BENCHMARK_NAMES,
    TabularSurrogate,
    make_benchmark,
)


from space_strategies import index_rows, spaces


def grid_space(num_axes=5, values=(0, 1, 2, 3)):
    return DiscreteSpace(tuple(Axis(f"a{i}", values) for i in range(num_axes)))


def predict(surrogate, genotype):
    return surrogate.predict_accuracy(genotype), surrogate.predict_cost(genotype)


class LoopSurrogate:
    """The surrogate's original tables and one-genotype loops, kept as the
    reference: the same seeded draws in the same order, summed term by term."""

    BLOCK_AXIS = re.compile(r"^(?P<block>.+)_(?P<role>width|expansion|depth)$")

    def __init__(self, space, seed):
        self.space = space
        rng = np.random.default_rng(seed)
        m = space.num_axes
        n_pairs = max(1, m * (m - 1) // 2)
        main_sd = 2.0 / np.sqrt(m)
        pair_sd = 1.6 / np.sqrt(n_pairs)
        self.axis_weights = [rng.normal(0.0, main_sd, size=a.size) for a in space.axes]
        self.pair_tables = {}
        for i in range(m):
            for j in range(i + 1, m):
                self.pair_tables[(i, j)] = rng.normal(
                    0.0, pair_sd, size=(space.axes[i].size, space.axes[j].size)
                )
        self.cost_weights = rng.uniform(0.5, 1.5, size=m)
        self.blocks = {}
        self.additive_axes = []
        for i, axis in enumerate(space.axes):
            match = self.BLOCK_AXIS.match(axis.name)
            if match:
                self.blocks.setdefault(match.group("block"), []).append(i)
            else:
                self.additive_axes.append(i)

    @staticmethod
    def cost_factor(axis, index):
        value = axis.values[index]
        if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0:
            return float(value)
        return float(index + 1)

    def predict_accuracy(self, genotype):
        idx = self.space.indices_of(genotype)
        z = 0.0
        for i, weights in enumerate(self.axis_weights):
            z += weights[idx[i]]
        for (i, j), table in self.pair_tables.items():
            z += table[idx[i], idx[j]]
        return float(1.0 / (1.0 + np.exp(-z)))

    def predict_cost(self, genotype):
        idx = self.space.indices_of(genotype)
        cost = 0.0
        for axes in self.blocks.values():
            product = 1.0
            for i in axes:
                product *= self.cost_factor(self.space.axes[i], idx[i])
            cost += product
        for i in self.additive_axes:
            cost += self.cost_weights[i] * (idx[i] + 1)
        return float(cost)


class TestBenchmarks:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_known_optimum(self, name):
        bench = make_benchmark(name, 6)
        assert abs(bench.evaluate(bench.optimum_x) - bench.optimum_value) <= 1e-12

    def test_rosenbrock_values(self):
        bench = make_benchmark("rosenbrock", 2)
        assert bench.evaluate([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
        assert bench.evaluate([0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_and_rastrigin_nonnegative(self):
        rng = np.random.default_rng(0)
        sphere = make_benchmark("sphere", 5)
        rastrigin = make_benchmark("rastrigin", 5)
        for _ in range(2000):
            x = rng.uniform(-5.12, 5.12, size=5)
            assert sphere.evaluate(x) >= 0.0
            assert rastrigin.evaluate(x) >= -1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        for name in BENCHMARK_NAMES:
            bench = make_benchmark(name, 4)
            xs = rng.uniform(bench.bounds.lower, bench.bounds.upper, size=(50, 4))
            batch = bench.evaluate_many(xs)
            scalar = np.array([bench.evaluate(row) for row in xs])
            assert np.allclose(batch, scalar, rtol=0, atol=0)

    def test_conventional_domains(self):
        assert make_benchmark("sphere", 3).bounds.lower[0] == -5.12
        assert make_benchmark("rosenbrock", 3).bounds.upper[0] == 10.0
        assert make_benchmark("ackley", 3).bounds.upper[0] == 32.768

    def test_spec_round_trip(self):
        spec = make_benchmark("sphere", 3).to_objective_spec()
        assert spec.evaluate_many([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]]).tolist() == pytest.approx([14.0, 1.0])
        assert spec.evaluator([1.0, 2.0, 3.0]) == pytest.approx(14.0)
        assert make_benchmark("sphere", 3).evaluate([1.0, 2.0, 3.0]) == pytest.approx(14.0)

    def test_rejects_unknown_and_bad_dimension(self):
        with pytest.raises(ValueError):
            make_benchmark("griewank", 3)
        with pytest.raises(ValueError):
            make_benchmark("rosenbrock", 1)
        with pytest.raises(ValueError):
            make_benchmark("sphere", 0)


class TestTabularSurrogate:
    def test_seed_determinism(self):
        space = grid_space()
        rng = np.random.default_rng(0)
        a = TabularSurrogate(space, seed=5)
        b = TabularSurrogate(space, seed=5)
        for _ in range(100):
            g = space.random_genotype(rng)
            assert predict(a, g) == predict(b, g)

    def test_different_seeds_differ(self):
        space = grid_space()
        g = space.genotype_from_indices([0, 1, 2, 3, 0])
        assert TabularSurrogate(space, 1).predict_accuracy(g) != TabularSurrogate(
            space, 2
        ).predict_accuracy(g)

    def test_accuracy_range_and_positive_cost(self):
        space = grid_space()
        surrogate = TabularSurrogate(space, seed=3)
        rng = np.random.default_rng(1)
        for _ in range(300):
            accuracy, cost = predict(surrogate, space.random_genotype(rng))
            assert 0.0 <= accuracy <= 1.0
            assert cost > 0.0

    def test_cost_strictly_increasing_in_width(self):
        space = pids_space(num_blocks=2)
        surrogate = TabularSurrogate(space, seed=9)
        rng = np.random.default_rng(2)
        widths = space.axes[0].values
        for _ in range(50):
            base = list(space.random_genotype(rng).choices)
            costs = []
            for w in widths:
                base[0] = w
                costs.append(surrogate.predict_cost(Genotype(tuple(base))))
            assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_cost_monotone_on_generic_axes(self):
        space = grid_space(3, (0, 1, 2, 3))
        surrogate = TabularSurrogate(space, seed=4)
        for axis in range(3):
            indices = [1, 1, 1]
            costs = []
            for j in range(4):
                indices[axis] = j
                costs.append(surrogate.predict_cost(space.genotype_from_indices(indices)))
            assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_rejects_invalid_genotype(self):
        surrogate = TabularSurrogate(grid_space(), seed=5)
        with pytest.raises(ValueError):
            surrogate.predict_accuracy(Genotype((9, 9, 9, 9, 9)))
        with pytest.raises(ValueError):
            surrogate.predict_cost(Genotype((0, 0)))

    def test_predict_many_shape_and_validation(self):
        space = grid_space(3)
        surrogate = TabularSurrogate(space, seed=1)
        accuracy, cost = surrogate.predict_many(np.zeros((0, 3), dtype=int))
        assert accuracy.shape == cost.shape == (0,)
        rows = np.array([[3, 0, 2], [1, 1, 1]])
        for dtype in (np.uint8, np.int16, np.int32):
            narrow = surrogate.predict_many(rows.astype(dtype))
            assert all(np.array_equal(a, b) for a, b in zip(narrow, surrogate.predict_many(rows)))
        for bad in (np.zeros((2, 4), dtype=int), np.zeros(3, dtype=int), np.full((1, 3), 4),
                    np.full((1, 3), -1), np.zeros((1, 3))):
            with pytest.raises(ValueError):
                surrogate.predict_many(bad)

    def test_argmax_fixture_stable(self):
        """Frozen exhaustive argmax of the seed-2024 surrogate on the 1024-config grid."""
        space = grid_space()
        surrogate = TabularSurrogate(space, seed=2024)
        best = max(space.iter_genotypes(), key=surrogate.predict_accuracy)
        assert best.choices == (0, 3, 2, 2, 1)
        assert surrogate.predict_accuracy(best) == pytest.approx(0.9967563759834734, rel=1e-12)


class TestSurrogateKernelsBitIdentical:
    """Batch rows, one-genotype calls and the original loops agree exactly."""

    @settings(max_examples=80, deadline=None)
    @given(
        space=spaces(),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        row_seed=st.integers(0, 2**32 - 1),
    )
    def test_random_spaces(self, space, seed, rows, row_seed):
        surrogate = TabularSurrogate(space, seed)
        reference = LoopSurrogate(space, seed)
        indices = index_rows(space, rows, row_seed)
        accuracy, cost = surrogate.predict_many(indices)
        for k, row in enumerate(indices):
            genotype = space.genotype_from_indices(row)
            expected = (reference.predict_accuracy(genotype), reference.predict_cost(genotype))
            assert (accuracy[k], cost[k]) == expected
            assert predict(surrogate, genotype) == expected

    @pytest.mark.parametrize("space", [pids_space(7), grid_space()], ids=["pids7", "grid1024"])
    def test_workload_spaces(self, space):
        surrogate = TabularSurrogate(space, 2024)
        reference = LoopSurrogate(space, 2024)
        indices = index_rows(space, 2000, 0)
        accuracy, cost = surrogate.predict_many(indices)
        for k, row in enumerate(indices):
            genotype = space.genotype_from_indices(row)
            assert accuracy[k] == reference.predict_accuracy(genotype)
            assert cost[k] == reference.predict_cost(genotype)

    def test_float_block_factors_multiply_in_axis_order(self):
        # non-integer factors round differently when a product changes order
        space = DiscreteSpace((
            Axis("b0_width", (0.1, 0.3, 0.7)),
            Axis("mode", ("p", "q")),
            Axis("b0_expansion", (1.1, 2.3, 3.7)),
            Axis("b0_depth", (0.9, 1.3, 2.9)),
            Axis("b1_width", (0.7, 1.9)),
        ))
        surrogate = TabularSurrogate(space, 8)
        reference = LoopSurrogate(space, 8)
        indices = np.array(list(np.ndindex(*space.sizes)))
        _, cost = surrogate.predict_many(indices)
        assert cost.tolist() == [reference.predict_cost(g) for g in space.iter_genotypes()]

    def test_many_rows_split_into_gathers_agree(self):
        space = pids_space(7)
        surrogate = TabularSurrogate(space, 2024)
        indices = index_rows(space, 3000, 1)  # several (terms, rows) gathers
        accuracy, cost = surrogate.predict_many(indices)
        for lo in range(0, 3000, 700):
            part_accuracy, part_cost = surrogate.predict_many(indices[lo : lo + 700])
            assert np.array_equal(part_accuracy, accuracy[lo : lo + 700])
            assert np.array_equal(part_cost, cost[lo : lo + 700])
