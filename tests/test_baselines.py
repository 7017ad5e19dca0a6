"""Fixed-parameter DE and aging-evolution baselines."""

import numpy as np
import pytest

from shsade_pids.baselines import (
    RegularizedEaConfig,
    VanillaDeConfig,
    mutate_one_axis,
    regularized_ea_run,
    vanilla_de_run,
)
from shsade_pids.discrete_codec import Axis, DiscreteSpace
from shsade_pids.nas_search import BiObjectiveConfig, NasConfig, nas_evolve, pids_space
from shsade_pids.objectives import TabularSurrogate, make_benchmark
from shsade_pids.shsade import Termination
from shsade_pids.trace import COLUMNS, SearchTrace

from package_calls import package_calls
from predictors import constant


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
        with pytest.raises(ValueError, match="max_generations"):
            VanillaDeConfig(max_generations=0)

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


# Python-level calls into the package per vanilla DE generation at D=10,
# pop 50, from one ask to the next: the ask with its partner draws,
# crossover and repair, the objective, the tell and the trace row. 14 while
# drive read the evaluation count through a default lambda, 13 until the
# benchmark's kernel was handed to the spec without a pass-through method,
# 12 since, on every generation of seeds 0-2. SHSADE's overhead is measured
# against this
MAX_PACKAGE_CALLS_PER_DE_GENERATION = 12


def test_package_calls_per_de_generation_stay_bounded():
    spec = make_benchmark("rastrigin", 10).to_objective_spec()
    cfg = VanillaDeConfig(pop_size=50, max_generations=40)
    with package_calls(split="ask") as counts:
        _, trace = vanilla_de_run(cfg, spec, rng=np.random.default_rng(0))
    per_generation = counts[1:]  # counts[0] is the initial population
    assert len(per_generation) == trace.rows[-1].generation == cfg.max_generations
    assert max(per_generation) <= MAX_PACKAGE_CALLS_PER_DE_GENERATION, counts.worst(1)


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
        # the child's value on the axis is the offset-th of the other values,
        # in axis order, as in the run's flat-index step
        space = DiscreteSpace(
            (Axis("a", (0, 1, 2, 3)), Axis("only", ("x",)), Axis("b", ("p", "q", "r")), Axis("c", ("s", "t")))
        )
        for flat in range(space.size):
            indices = np.unravel_index(flat, space.sizes)
            parent = space.genotype_from_indices(indices)
            for axis_idx, axis in enumerate(space.axes):
                others = [value for value in axis.values if value != parent.choices[axis_idx]] or list(axis.values)
                for offset in range(max(axis.size - 1, 1)):
                    child = mutate_one_axis(parent, space, axis_idx, offset)
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
        with pytest.raises(ValueError, match="population_size must be positive"):
            RegularizedEaConfig(population_size=0, tournament_size=1, budget=5)

    def test_singleton_space(self):
        space = DiscreteSpace((Axis("only", ("x",)),))
        _, surrogate, bio = surrogate_setup()
        cfg = RegularizedEaConfig(population_size=2, tournament_size=2, budget=4)
        best, trace = regularized_ea_run(space, constant(space), cfg, bio, np.random.default_rng(0))
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

    @pytest.mark.parametrize("budget", [10**18, 10**400], ids=["1e18", "1e400"])
    def test_a_budget_past_the_step_cap_runs(self, budget):
        # REA_STEPS_PER_BUDGET_UNIT * budget steps pass sys.maxsize, where
        # the step count is capped; the budget clamps to the 16 genotypes
        space = grid_space(2)
        cfg = RegularizedEaConfig(population_size=10, tournament_size=3, budget=budget)
        bio = BiObjectiveConfig(cost_budget=1.0)
        _, trace = regularized_ea_run(space, TabularSurrogate(space, seed=12), cfg, bio, np.random.default_rng(5))
        assert trace.final_evaluations == space.size == 16

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


# Python-level calls into the package from one aging-evolution child new to
# the memo to the next: its tell, the step that draws the following child,
# the trace row, and scoring that child as a one-row batch through
# score_rows and predict_many. 51 before the one-row path was cut (20 when
# the best did not move), then 17 (14 to 15 when it did not), 16 (13 to 14)
# once the step moved a flat index inline, 14 (11 to 12) once score_rows
# scored new rows in its own body and predict_many validated its input in
# its own, and 11 since the scorer keeps no best (11 on each of seeds 0-2,
# whether the best moves or not)
MAX_PACKAGE_CALLS_PER_NEW_CHILD = 11


def test_package_calls_per_new_child_stay_bounded():
    space = pids_space(7)  # 120**7 genotypes, so few children are memo hits
    surrogate = TabularSurrogate(space, seed=2024)
    mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
    bio = BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0)
    cfg = RegularizedEaConfig(population_size=25, tournament_size=5, budget=60)
    with package_calls(split="tell") as counts:
        _, trace = regularized_ea_run(space, surrogate, cfg, bio, np.random.default_rng(1))
    # seed 1 takes no memo-hit step: each of its 35 steps scores a new child
    assert trace.final_evaluations == cfg.budget
    assert trace.rows[-1].generation == cfg.budget - cfg.population_size
    per_child = counts[1:]  # from one tell to the next; counts[0] is the warm-up
    assert max(per_child) <= MAX_PACKAGE_CALLS_PER_NEW_CHILD, counts.worst(1)


# Python-level calls into the package per aging-evolution memo-hit step,
# besides run_hits' own call per new child. A hit step makes none of its
# own: it moves an axis of a flat index inline and reads the memo. It only
# shares a draw block, whose block and two uniform_index calls cover
# REA_DRAW_BLOCK steps. Measured 0.0489 to 0.0491 on seeds 0-2
MAX_PACKAGE_CALLS_PER_MEMO_HIT_STEP = 0.05


def test_package_calls_per_memo_hit_step_stay_bounded():
    space, surrogate, bio = surrogate_setup()  # 1024 genotypes, so most steps are memo hits
    cfg = RegularizedEaConfig(population_size=25, tournament_size=5, budget=500)
    for seed in range(3):
        with package_calls(split="run_hits", within="run_hits") as counts:
            _, trace = regularized_ea_run(space, surrogate, cfg, bio, np.random.default_rng(seed))
        hits = trace.rows[-1].generation - (trace.final_evaluations - trace.rows[0].evaluations)
        assert hits > 10 * cfg.budget
        calls = sum(counts) - (len(counts) - 1)  # less one run_hits call per entry
        assert calls / hits <= MAX_PACKAGE_CALLS_PER_MEMO_HIT_STEP, (seed, calls, hits, counts.worst(1))
