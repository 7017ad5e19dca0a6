"""Benchmark functions and the seeded tabular surrogate."""

import re
import tracemalloc

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

    def test_gather_boundaries_match_the_loop_reference(self):
        # chunk + 1 and 2 * chunk + 1 rows end on a one-row gather, which
        # sums differently from the gathers before it
        space = pids_space(7)
        surrogate = TabularSurrogate(space, 2024)
        reference = LoopSurrogate(space, 2024)
        chunk = surrogate._chunk
        indices = index_rows(space, 2 * chunk + 1, 3)
        expected = [
            (reference.predict_accuracy(g), reference.predict_cost(g))
            for g in map(space.genotype_from_indices, indices)
        ]
        for rows in (0, 1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            accuracy, cost = surrogate.predict_many(indices[:rows])
            assert list(zip(accuracy.tolist(), cost.tolist())) == expected[:rows], rows

    def test_index_layouts_give_the_same_bytes(self):
        space = pids_space(7)
        surrogate = TabularSurrogate(space, 2024)
        rows = surrogate._chunk + 1
        indices = index_rows(space, rows, 4)
        expected = [a.tobytes() for a in surrogate.predict_many(np.ascontiguousarray(indices))]
        wide = np.zeros((2 * rows, 2 * space.num_axes), dtype=indices.dtype)
        wide[::2, ::2] = indices
        for layout in (wide[::2, ::2], np.asfortranarray(indices)):
            assert [a.tobytes() for a in surrogate.predict_many(layout)] == expected


class TestKernelBuffers:
    """The kernel gathers into buffers it keeps between calls: they grow to
    the largest batch, the results never alias them, and the table holds
    each entry once."""

    def test_a_later_call_leaves_earlier_results_unchanged(self):
        space = pids_space(7)
        surrogate = TabularSurrogate(space, 2024)
        for rows in (1, 50, surrogate._chunk + 1):
            first = surrogate.predict_many(index_rows(space, rows, 5))
            kept = [a.copy() for a in first]
            surrogate.predict_many(index_rows(space, rows, 6))
            assert [a.tobytes() for a in first] == [a.tobytes() for a in kept], rows

    def test_a_50_row_batch_allocates_little_once_warm(self):
        space = pids_space(7)
        surrogate = TabularSurrogate(space, 2024)
        indices = index_rows(space, 50, 7)
        surrogate.predict_many(indices)  # the buffers grow here
        tracemalloc.start()
        try:
            surrogate.predict_many(indices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # two (448, 50) gathers alone would take 358,400

    def test_the_buffers_grow_to_the_largest_batch_only(self):
        space = pids_space(7)
        surrogate = TabularSurrogate(space, 2024)
        terms = len(surrogate._first)
        for rows, capacity in ((50, 50), (1, 50), (0, 50), (3 * surrogate._chunk, surrogate._chunk)):
            surrogate.predict_many(index_rows(space, rows, rows))
            assert [buffer.size for buffer in surrogate._buffers[1:]] == [terms * capacity] * 2

    def test_the_table_holds_each_entry_once_on_a_skewed_space(self):
        space = DiscreteSpace(
            (Axis("wide", tuple(range(5000))),) + tuple(Axis(f"x{k}", tuple(range(n))) for k, n in enumerate((2, 3, 4)))
        )
        surrogate = TabularSurrogate(space, 3)
        sizes = space.sizes
        pairs = sum(sizes[i] * sizes[j] for i in range(4) for j in range(i + 1, 4))
        # axis weights, pair weights, cost factors, and the ones that pad
        # short blocks, read through axis 0
        assert surrogate._table.size == sum(sizes) + pairs + sum(sizes) + sizes[0]
        reference = LoopSurrogate(space, 3)
        indices = index_rows(space, 200, 8)
        accuracy, cost = surrogate.predict_many(indices)
        for k, genotype in enumerate(map(space.genotype_from_indices, indices)):
            assert (accuracy[k], cost[k]) == (reference.predict_accuracy(genotype), reference.predict_cost(genotype))

    @pytest.mark.parametrize(
        "space",
        [
            DiscreteSpace((Axis("x0", (1, 2, 3)),)),
            DiscreteSpace((Axis("b0_width", (16, 32)),)),
            DiscreteSpace((Axis("b0_width", (16, 32)), Axis("b0_depth", (1, 2, 3)))),
        ],
        ids=["one-axis", "one-block-axis", "blocks-only"],
    )
    def test_small_spaces_across_batch_sizes(self, space):
        # no pairs, no additive axis, and a 0-row batch after larger ones
        surrogate = TabularSurrogate(space, 11)
        reference = LoopSurrogate(space, 11)
        indices = index_rows(space, 3, 9)
        for rows in (3, 0, 1, 2, 0, 3):
            accuracy, cost = surrogate.predict_many(indices[:rows])
            expected = [
                (reference.predict_accuracy(g), reference.predict_cost(g))
                for g in map(space.genotype_from_indices, indices[:rows])
            ]
            assert list(zip(accuracy.tolist(), cost.tolist())) == expected


def left_fold(values) -> float:
    """Python's sum from the first value, one addition at a time."""
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def canary_block(terms: int, rows: int, seed: int) -> np.ndarray:
    """A ``(terms, rows)`` block whose columns a pairwise sum and a left fold
    add up differently: small terms of mixed sign around a +1e16 / -1e16
    pair, which a left fold rounds while the large term is in the sum."""
    rng = np.random.default_rng(seed)
    block = rng.choice([-1.0, 0.5, 1.0, 3.0], size=(terms, rows))
    columns = np.arange(rows)
    block[columns % 7, columns] = 1e16
    block[terms // 2 + columns % 11, columns] = -1e16
    return block


def block_kernel(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``TabularSurrogate._predict`` on tables rigged so that its gather
    reads exactly ``block``, as the accuracy terms and as the one cost
    factor: the returned cost is each column's sum of ``block``."""
    terms, rows = block.shape
    surrogate = TabularSurrogate(grid_space(2), seed=0)
    # term t of column r reads the flat table at r * terms + t: index row 0
    # holds r at position r, which looks up r * terms, and index row 1 + t
    # holds 0 at position t. Term t adds row 0's lookup (source row
    # terms + 1, after the terms + 1 positions) to row 1 + t's position
    surrogate._table = block.T.ravel()
    surrogate._col = np.arange(-1, terms)[:, None].clip(0)
    surrogate._lookup = np.arange(max(rows, terms)) * terms
    surrogate._first = np.full(terms, terms + 1, dtype=np.intp)
    surrogate._second = np.arange(1, terms + 1, dtype=np.intp)
    surrogate._accuracy_terms = terms
    surrogate._factor_slices = [slice(0, terms)]
    cols = np.zeros((terms + 1, rows), dtype=np.intp)
    cols[0] = np.arange(rows)
    return surrogate._predict(cols)


class TestReductionOrderCanary:
    """The kernel sums each column of a ``(terms, rows)`` gather with an
    axis-0 reduce when it has two or more rows, and with an accumulate when
    it has one. Both must add term by term from the first: numpy is not
    pinned, and an upgrade that reorders either sum fails here."""

    TERMS = 448  # the gather's terms on pids_space(7)

    def check(self, block):
        sums = [left_fold(column) for column in block.T.tolist()]
        accuracy, cost = block_kernel(block)
        assert cost.tobytes() == np.array(sums).tobytes()
        assert accuracy.tobytes() == np.reciprocal(np.exp(np.array(sums)) + 1.0).tobytes()

    def test_the_block_tells_pairwise_from_left_fold(self):
        # without this the canary has no teeth: numpy's pairwise sum of one
        # contiguous column must differ from the left fold somewhere
        block = canary_block(self.TERMS, 64, 0)
        pairwise = [np.add.reduce(np.ascontiguousarray(column)) for column in block.T]
        assert pairwise != [left_fold(column) for column in block.T.tolist()]

    def test_two_to_64_rows(self):
        for rows in range(2, 65):
            self.check(canary_block(self.TERMS, rows, rows))

    def test_a_chunk_of_rows(self):
        rows = TabularSurrogate(pids_space(7), 2024)._chunk
        self.check(canary_block(self.TERMS, rows, 1))

    def test_one_row(self):
        for seed in range(20):
            self.check(canary_block(self.TERMS, 1, seed))
