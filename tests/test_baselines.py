"""Fixed-parameter DE and aging-evolution baselines."""

import itertools

import numpy as np
import pytest

from shsade_pids.baselines import (
    RegularizedEaConfig,
    VanillaDeConfig,
    _move_axis,
    mutate_one_axis,
    regularized_ea_run,
    vanilla_de_run,
)
from shsade_pids.discrete_codec import Axis, DiscreteSpace
from shsade_pids.nas_search import BiObjectiveConfig, NasConfig, nas_evolve
from shsade_pids.objectives import TabularSurrogate, make_benchmark
from shsade_pids.shsade import Termination
from shsade_pids.trace import COLUMNS, SearchTrace


def grid_space(num_axes=5, values=(0, 1, 2, 3)):
    return DiscreteSpace(tuple(Axis(f"a{i}", values) for i in range(num_axes)))


def surrogate_setup(seed=2024):
    space = grid_space()
    surrogate = TabularSurrogate(space, seed=seed)
    mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
    bio = BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0)
    return space, surrogate, bio


class TestVanillaDe:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            VanillaDeConfig(f=0.0)
        with pytest.raises(ValueError):
            VanillaDeConfig(cr=1.5)
        with pytest.raises(ValueError):
            VanillaDeConfig(pop_size=3)

    def test_seeded_determinism(self):
        spec = make_benchmark("sphere", 4).to_objective_spec()
        cfg = VanillaDeConfig(pop_size=10, max_generations=30)
        best_a, trace_a = vanilla_de_run(cfg, spec, rng=np.random.default_rng(5))
        best_b, trace_b = vanilla_de_run(cfg, spec, rng=np.random.default_rng(5))
        assert best_a.fitness == best_b.fitness
        assert [r.as_tuple() for r in trace_a.rows] == [r.as_tuple() for r in trace_b.rows]

    def test_best_is_non_increasing(self):
        spec = make_benchmark("rastrigin", 4).to_objective_spec()
        cfg = VanillaDeConfig(pop_size=12, max_generations=80)
        _, trace = vanilla_de_run(cfg, spec, rng=1)
        values = [r.best_fitness for r in trace.rows]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_termination_by_evaluations(self):
        spec = make_benchmark("sphere", 4).to_objective_spec()
        cfg = VanillaDeConfig(pop_size=10, max_generations=1000)
        _, trace = vanilla_de_run(cfg, spec, Termination(max_evaluations=230), 2)
        assert trace.final_evaluations == 230

    def test_sphere_median_convergence(self):
        # 50k-evaluation budget per run; over 30 seeds the median final best
        # of fixed-parameter rand/1/bin lands far below 1e-3 on the sphere
        spec = make_benchmark("sphere", 10).to_objective_spec()
        cfg = VanillaDeConfig(pop_size=50, max_generations=1000)
        term = Termination(max_evaluations=50_000)
        finals = [
            vanilla_de_run(cfg, spec, term, np.random.default_rng(seed))[0].fitness
            for seed in range(30)
        ]
        assert float(np.median(finals)) < 1e-3


class TestMutateOneAxis:
    def test_changes_at_most_one_axis(self):
        # exactly the chosen axis moves, unless it has a single value
        space = DiscreteSpace(
            (Axis("a", (0, 1, 2, 3)), Axis("only", ("x",)), Axis("b", ("p", "q")), Axis("c", (1.5, 2.5, 3.5)))
        )
        rng = np.random.default_rng(3)
        for _ in range(300):
            parent = space.random_genotype(rng)
            axis_idx = int(rng.integers(space.num_axes))
            size = space.axes[axis_idx].size
            child = mutate_one_axis(parent, space, axis_idx, int(rng.integers(max(size - 1, 1))))
            space.indices_of(child)
            changed = [k for k, (a, b) in enumerate(zip(parent.choices, child.choices)) if a != b]
            assert changed == ([axis_idx] if size > 1 else [])

    def test_agrees_with_the_kernel_the_run_uses(self):
        # the run moves tuples of value indices; the child's value on the
        # axis is the offset-th of the other values, in axis order
        space = DiscreteSpace(
            (Axis("a", (0, 1, 2, 3)), Axis("only", ("x",)), Axis("b", ("p", "q", "r")), Axis("c", ("s", "t")))
        )
        for indices in itertools.product(*(range(size) for size in space.sizes)):
            parent = space.genotype_from_indices(indices)
            for axis_idx, axis in enumerate(space.axes):
                others = [value for value in axis.values if value != parent.choices[axis_idx]] or list(axis.values)
                for offset in range(max(axis.size - 1, 1)):
                    moved = _move_axis(indices, axis_idx, offset, axis.size)
                    child = mutate_one_axis(parent, space, axis_idx, offset)
                    assert moved == tuple(space.indices_of(child).tolist())
                    expected = parent.choices[:axis_idx] + (others[offset],) + parent.choices[axis_idx + 1 :]
                    assert child.choices == expected

    def test_offsets_enumerate_the_other_values_in_axis_order(self):
        space = grid_space(2)
        parent = space.genotype_from_indices([2, 0])
        assert [mutate_one_axis(parent, space, 0, k).choices for k in range(3)] == [(0, 0), (1, 0), (3, 0)]
        assert [mutate_one_axis(parent, space, 1, k).choices for k in range(3)] == [(2, 1), (2, 2), (2, 3)]
        for axis_idx, offset in [(-1, 0), (2, 0), (0, -1), (0, 3)]:
            with pytest.raises(ValueError):
                mutate_one_axis(parent, space, axis_idx, offset)


class TestRegularizedEa:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegularizedEaConfig(population_size=5, tournament_size=6, budget=100)
        with pytest.raises(ValueError):
            RegularizedEaConfig(population_size=10, tournament_size=2, budget=5)

    def test_singleton_space(self):
        space = DiscreteSpace((Axis("only", ("x",)),))
        _, surrogate, bio = surrogate_setup()

        class Const:
            def predict_accuracy(self, g):
                return 0.5

            def predict_cost(self, g):
                return 1.0

        cfg = RegularizedEaConfig(population_size=2, tournament_size=2, budget=4)
        best, trace = regularized_ea_run(space, Const(), cfg, bio, np.random.default_rng(0))
        assert best.choices == ("x",)

    def test_population_equals_budget_is_pure_random_search(self):
        space, surrogate, bio = surrogate_setup()
        cfg = RegularizedEaConfig(population_size=25, tournament_size=5, budget=25)
        # seed chosen so the 25 initial draws are distinct genotypes
        best, trace = regularized_ea_run(space, surrogate, cfg, bio, np.random.default_rng(0))
        assert trace.final_evaluations == 25
        assert len(trace) == 1  # no evolution steps after warm-up

    def test_budget_bound_and_determinism(self):
        space, surrogate, bio = surrogate_setup()
        cfg = RegularizedEaConfig(population_size=25, tournament_size=5, budget=120)
        best_a, trace_a = regularized_ea_run(space, surrogate, cfg, bio, np.random.default_rng(4))
        best_b, trace_b = regularized_ea_run(space, surrogate, cfg, bio, np.random.default_rng(4))
        assert trace_a.final_evaluations <= 120
        assert best_a == best_b
        assert [r.as_tuple() for r in trace_a.rows] == [r.as_tuple() for r in trace_b.rows]

    def test_trace_schema_matches_other_algorithms(self, tmp_path):
        space, surrogate, bio = surrogate_setup()
        cfg = RegularizedEaConfig(population_size=10, tournament_size=3, budget=40)
        _, trace = regularized_ea_run(space, surrogate, cfg, bio, np.random.default_rng(6))
        path = tmp_path / "trace_seed6.csv"
        trace.write_csv(path)
        back = SearchTrace.read_csv(path)
        assert tuple(path.read_text().splitlines()[1].split(",")) == COLUMNS
        assert back.final_best == trace.final_best

    def test_median_never_beats_the_adaptive_search_after_warmup(self):
        # matched seeds, matched budget accounting; compare step-function
        # medians at every 25-evaluation checkpoint from 300 onward
        space, surrogate, bio = surrogate_setup()
        nas_cfg = NasConfig(biobjective=bio, budget=500)
        ea_cfg = RegularizedEaConfig(population_size=25, tournament_size=5, budget=500)
        nas_traces = []
        ea_traces = []
        for seed in range(20):
            _, t = nas_evolve(space, surrogate, nas_cfg, np.random.default_rng(seed))
            nas_traces.append(t)
            _, t = regularized_ea_run(space, surrogate, ea_cfg, bio, np.random.default_rng(seed))
            ea_traces.append(t)
        for checkpoint in range(300, 501, 25):
            nas_median = float(np.median([t.best_at(checkpoint) for t in nas_traces]))
            ea_median = float(np.median([t.best_at(checkpoint) for t in ea_traces]))
            assert nas_median <= ea_median
