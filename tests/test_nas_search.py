"""Architecture-search pipeline: scoring, budget accounting, the evolve loop
and its brute-force oracle."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shsade_pids.discrete_codec import Axis, DiscreteSpace, Genotype
from shsade_pids.nas_search import (
    BiObjectiveConfig,
    BudgetedScorer,
    NasConfig,
    brute_force_optimum,
    nas_evolve,
    pids_space,
    rank_space,
    result_document,
    score,
    score_many,
)
from shsade_pids.objectives import TabularSurrogate
from shsade_pids.shsade import ShsadeConfig
from space_strategies import index_rows, spaces

import reference_drivers


def grid_space(num_axes=5, values=(0, 1, 2, 3)):
    return DiscreteSpace(tuple(Axis(f"a{i}", values) for i in range(num_axes)))


class TablePredictor:
    """Accuracy looked up from an explicit table; constant unit cost."""

    def __init__(self, table, cost=1.0):
        self.table = table
        self.cost = cost
        self.calls = 0

    def predict_accuracy(self, genotype):
        self.calls += 1
        return self.table[genotype.choices]

    def predict_cost(self, genotype):
        return self.cost


class ConstPredictor:
    def __init__(self, accuracy=0.5, cost=1.0):
        self.accuracy = accuracy
        self.cost = cost

    def predict_accuracy(self, genotype):
        return self.accuracy

    def predict_cost(self, genotype):
        return self.cost


class LoggingPredictor:
    """One-genotype predictor (no predict_many) over a surrogate that logs
    every call in order."""

    def __init__(self, surrogate):
        self.surrogate = surrogate
        self.log = []

    def predict_accuracy(self, genotype):
        self.log.append(("accuracy", genotype.choices))
        return self.surrogate.predict_accuracy(genotype)

    def predict_cost(self, genotype):
        self.log.append(("cost", genotype.choices))
        return self.surrogate.predict_cost(genotype)


class BatchLoggingPredictor:
    """Surrogate whose predict_many logs the rows of every call."""

    def __init__(self, surrogate):
        self.surrogate = surrogate
        self.batches = []

    def predict_many(self, indices):
        self.batches.append(np.array(indices))
        return self.surrogate.predict_many(indices)

    def predict_accuracy(self, genotype):
        raise AssertionError("a batch predictor should not be called per genotype")

    predict_cost = predict_accuracy


def loop_score(accuracy, cost, config):
    """The original one-genotype scalarization, kept as the reference."""
    accuracy = float(accuracy)
    cost = float(cost)
    if cost <= config.cost_budget:
        penalty = 1.0
    else:
        penalty = (config.cost_budget / cost) ** config.omega
    return -accuracy * penalty


def loop_brute_force(space, predictor, config):
    """The original enumerate-score-sort oracle, kept as the reference."""
    scored = []
    for indices in itertools.product(*(range(a.size) for a in space.axes)):
        genotype = space.genotype_from_indices(indices)
        value = loop_score(predictor.predict_accuracy(genotype), predictor.predict_cost(genotype), config)
        scored.append((value, indices, genotype))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [(genotype, value) for value, _, genotype in scored]


class TestScore:
    def test_at_budget_no_penalty(self):
        cfg = BiObjectiveConfig(cost_budget=4.0, omega=3.0)
        assert score(Genotype((0,)), ConstPredictor(0.9, 4.0), cfg) == pytest.approx(-0.9)

    def test_omega_zero_ignores_cost(self):
        cfg = BiObjectiveConfig(cost_budget=1.0, omega=0.0)
        assert score(Genotype((0,)), ConstPredictor(0.8, 500.0), cfg) == pytest.approx(-0.8)

    def test_over_budget_penalty(self):
        cfg = BiObjectiveConfig(cost_budget=2.0, omega=1.0)
        assert score(Genotype((0,)), ConstPredictor(0.9, 4.0), cfg) == pytest.approx(-0.45)

    def test_under_budget_no_bonus(self):
        cfg = BiObjectiveConfig(cost_budget=10.0, omega=2.0)
        assert score(Genotype((0,)), ConstPredictor(0.6, 1.0), cfg) == pytest.approx(-0.6)

    @settings(max_examples=200, deadline=None)
    @given(
        accuracy=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        costs=st.lists(st.floats(1e-3, 1e4), min_size=20, max_size=20),
        cost_budget=st.floats(1e-2, 1e3),
        omega=st.floats(0.0, 4.0),
    )
    def test_score_many_matches_the_loop_bit_for_bit(self, accuracy, costs, cost_budget, omega):
        cfg = BiObjectiveConfig(cost_budget=cost_budget, omega=omega)
        cost = costs[: len(accuracy)]
        values = score_many(accuracy, cost, cfg)
        for k, (a, c) in enumerate(zip(accuracy, cost)):
            assert values[k] == loop_score(a, c, cfg)
            assert score(Genotype((0,)), ConstPredictor(a, c), cfg) == values[k]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BiObjectiveConfig(cost_budget=0.0)
        with pytest.raises(ValueError):
            BiObjectiveConfig(cost_budget=1.0, omega=-1.0)
        with pytest.raises(ValueError):
            BiObjectiveConfig(cost_budget=1.0, omega=math.nan)


class TestBruteForce:
    def test_singleton_space(self):
        space = DiscreteSpace((Axis("only", (7,)),))
        best, ranking = brute_force_optimum(
            space, ConstPredictor(), BiObjectiveConfig(cost_budget=1.0)
        )
        assert best.choices == (7,)
        assert len(ranking) == 1

    def test_hand_built_table(self):
        space = grid_space(2, (0, 1))
        table = {(0, 0): 0.1, (0, 1): 0.4, (1, 0): 0.3, (1, 1): 0.2}
        predictor = TablePredictor(table)
        cfg = BiObjectiveConfig(cost_budget=1.0, omega=0.0)
        best, ranking = brute_force_optimum(space, predictor, cfg)
        assert best.choices == (0, 1)
        assert [g.choices for g, _ in ranking] == [(0, 1), (1, 0), (1, 1), (0, 0)]

    def test_ties_break_lexicographically(self):
        space = grid_space(2, (0, 1))
        best, ranking = brute_force_optimum(
            space, ConstPredictor(), BiObjectiveConfig(cost_budget=1.0)
        )
        assert best.choices == (0, 0)
        assert [g.choices for g, _ in ranking] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rejects_oversized_space(self):
        space = grid_space(12, tuple(range(8)))  # 8^12 configurations
        with pytest.raises(ValueError):
            brute_force_optimum(space, ConstPredictor(), BiObjectiveConfig(cost_budget=1.0))

    @settings(max_examples=30, deadline=None)
    @given(space=spaces(max_axes=5), seed=st.integers(0, 2**32 - 1), omega=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    def test_matches_the_loop_oracle(self, space, seed, omega):
        surrogate = TabularSurrogate(space, seed)
        mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
        cfg = BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=omega)
        expected = loop_brute_force(space, surrogate, cfg)
        best, ranking = brute_force_optimum(space, surrogate, cfg)
        assert ranking == expected
        assert best == expected[0][0]
        # the one-genotype path gives the same ranking, ties included
        assert brute_force_optimum(space, LoggingPredictor(surrogate), cfg)[1] == expected

    def test_rank_space_columns(self):
        space = grid_space(3)
        surrogate = TabularSurrogate(space, seed=5)
        cfg = BiObjectiveConfig(cost_budget=20.0)
        order, accuracy, cost, scores = rank_space(space, surrogate, cfg)
        genotypes = list(space.iter_genotypes())
        assert [genotypes[i] for i in order] == [g for g, _ in brute_force_optimum(space, surrogate, cfg)[1]]
        for g, a, c, v in zip(genotypes, accuracy, cost, scores):
            assert (a, c) == (surrogate.predict_accuracy(g), surrogate.predict_cost(g))
            assert v == score(g, surrogate, cfg)

    def test_chunked_enumeration_matches_the_loop(self, monkeypatch):
        import shsade_pids.nas_search as nas_search

        monkeypatch.setattr(nas_search, "ENUMERATION_CHUNK", 7)  # many partial chunks
        space = DiscreteSpace((Axis("b0_width", (8, 16, 32)), Axis("x", ("p", "q")), Axis("y", (1, 2, 3, 4))))
        surrogate = TabularSurrogate(space, seed=3)
        cfg = BiObjectiveConfig(cost_budget=30.0)
        assert brute_force_optimum(space, surrogate, cfg)[1] == loop_brute_force(space, surrogate, cfg)


class TestBudgetedScorer:
    def test_memoizes_and_counts_once(self):
        predictor = TablePredictor({(0,): 0.5, (1,): 0.6})
        scorer = BudgetedScorer(grid_space(1, (0, 1)), predictor, BiObjectiveConfig(cost_budget=1.0, omega=0.0), 10)
        g = Genotype((1,))
        first = scorer.try_score(g)
        second = scorer.try_score(g)
        assert first == second == pytest.approx(-0.6)
        assert scorer.evaluations == 1
        assert predictor.calls == 1

    def test_budget_exhaustion_returns_none(self):
        scorer = BudgetedScorer(grid_space(1, (0, 1)), ConstPredictor(), BiObjectiveConfig(cost_budget=1.0), 1)
        assert scorer.try_score(Genotype((0,))) is not None
        assert scorer.try_score(Genotype((1,))) is None
        assert scorer.try_score(Genotype((0,))) is not None  # memoized stays free

    def test_tracks_best(self):
        table = {(0,): 0.2, (1,): 0.9, (2,): 0.5}
        scorer = BudgetedScorer(
            grid_space(1, (0, 1, 2)), TablePredictor(table), BiObjectiveConfig(cost_budget=1.0, omega=0.0), 10
        )
        for c in ((0,), (1,), (2,)):
            scorer.try_score(Genotype(c))
        assert scorer.best_genotype.choices == (1,)
        assert scorer.best_score == pytest.approx(-0.9)


class TestScoreRows:
    def scorer(self, space, predictor, budget=100):
        return BudgetedScorer(space, predictor, BiObjectiveConfig(cost_budget=1.0, omega=0.0), budget)

    def test_in_batch_duplicates_pay_once(self):
        space = grid_space(1, (0, 1, 2))
        predictor = TablePredictor({(0,): 0.1, (1,): 0.5, (2,): 0.3})
        scorer = self.scorer(space, predictor)
        values, scored = scorer.score_rows(np.array([[1], [2], [1], [0], [2]]))
        assert values.tolist() == [-0.5, -0.3, -0.5, -0.1, -0.3]
        assert scored.all()
        assert predictor.calls == 3
        assert scorer.evaluations == 3
        # a second batch only hits the memo
        values, scored = scorer.score_rows(np.array([[0], [1]]))
        assert values.tolist() == [-0.1, -0.5] and scored.all()
        assert predictor.calls == 3 and scorer.evaluations == 3

    def test_budget_runs_out_mid_batch(self):
        space = grid_space(1, (0, 1, 2, 3))
        predictor = TablePredictor({(i,): 0.1 * (i + 1) for i in range(4)})
        scorer = self.scorer(space, predictor, budget=2)
        values, scored = scorer.score_rows(np.array([[0], [1], [0], [2], [3], [1], [2]]))
        assert scored.tolist() == [True, True, True, False, False, True, False]
        assert values[scored].tolist() == [-0.1, -0.2, -0.1, -0.2]
        assert np.isinf(values[~scored]).all() and (values[~scored] > 0).all()
        assert scorer.evaluations == 2 and predictor.calls == 2
        assert scorer.best_genotype.choices == (1,)

    def test_tie_keeps_the_first_best(self):
        space = grid_space(1, (0, 1, 2, 3))
        predictor = TablePredictor({(0,): 0.2, (1,): 0.7, (2,): 0.7, (3,): 0.7})
        scorer = self.scorer(space, predictor)
        scorer.score_rows(np.array([[0], [2], [1]]))
        assert scorer.best_genotype.choices == (2,)
        assert scorer.best_score == -0.7
        scorer.score_rows(np.array([[3]]))
        assert scorer.best_genotype.choices == (2,)

    def test_predict_many_once_per_batch_on_new_rows_only(self):
        space = grid_space(3)
        predictor = BatchLoggingPredictor(TabularSurrogate(space, seed=4))
        scorer = self.scorer(space, predictor, budget=4)
        scorer.score_rows(np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0]]))
        scorer.score_rows(np.array([[1, 1, 1], [2, 2, 2], [3, 3, 3], [2, 2, 2], [0, 1, 2]]))
        scorer.score_rows(np.array([[0, 0, 0]]))  # all hits: no call
        assert [b.tolist() for b in predictor.batches] == [
            [[0, 0, 0], [1, 1, 1]],
            [[2, 2, 2], [3, 3, 3]],
        ]

    def test_one_genotype_fallback_calls_in_row_order(self):
        space = grid_space(2, (0, 1, 2))
        predictor = LoggingPredictor(TabularSurrogate(space, seed=2))
        scorer = self.scorer(space, predictor)
        scorer.score_rows(np.array([[2, 1], [0, 0], [2, 1], [1, 2]]))
        assert predictor.log == [
            ("accuracy", (2, 1)), ("cost", (2, 1)),
            ("accuracy", (0, 0)), ("cost", (0, 0)),
            ("accuracy", (1, 2)), ("cost", (1, 2)),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        space=spaces(max_axes=4),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 40),
        batches=st.lists(st.integers(1, 25), min_size=1, max_size=6),
        batch_predictor=st.booleans(),
    )
    def test_matches_try_score_row_by_row(self, space, seed, budget, batches, batch_predictor):
        # the reference is the one-genotype scorer keyed by choices
        surrogate = TabularSurrogate(space, seed)
        mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
        cfg = BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0)
        predictor = surrogate if batch_predictor else LoggingPredictor(surrogate)
        batched = BudgetedScorer(space, predictor, cfg, budget)
        reference = reference_drivers.ReferenceScorer(surrogate, cfg, budget)
        for k, rows in enumerate(batches):
            indices = index_rows(space, rows, seed + k)
            values, scored = batched.score_rows(indices)
            for row, value, ok in zip(indices, values.tolist(), scored.tolist()):
                expected = reference.try_score(space.genotype_from_indices(row))
                assert (value if ok else None) == expected
            assert batched.evaluations == reference.evaluations
            assert batched.best_score == reference.best_score
            assert batched.best_genotype == reference.best_genotype
        # the same genotypes and scores, in the order they were first scored
        assert list(batched.scores.items()) == [
            (tuple(space.indices_of(Genotype(choices)).tolist()), value)
            for choices, value in reference.scores.items()
        ]


class TestNasEvolve:
    @pytest.mark.parametrize("name", ["sigma_init_noise", "sigma_trial_noise"])
    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_noise(self, name, value):
        with pytest.raises(ValueError, match=name):
            NasConfig(biobjective=BiObjectiveConfig(cost_budget=1.0), **{name: value})

    def test_rejects_budget_below_population(self):
        with pytest.raises(ValueError):
            NasConfig(
                biobjective=BiObjectiveConfig(cost_budget=1.0),
                shsade=ShsadeConfig(pop_size=50, max_generations=10),
                budget=20,
            )

    def test_singleton_space_returns_sole_genotype(self):
        space = DiscreteSpace((Axis("only", (7,)),))
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=1.0),
            shsade=ShsadeConfig(pop_size=4, max_generations=10),
            budget=10,
        )
        best, trace = nas_evolve(space, ConstPredictor(0.9, 1.0), cfg, np.random.default_rng(0))
        assert best.choices == (7,)
        assert trace.final_evaluations == 1  # one distinct architecture exists

    def test_flat_landscape_terminates_at_budget(self):
        space = grid_space(5)
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=1.0, omega=0.0),
            shsade=ShsadeConfig(pop_size=20, max_generations=500, crossover_target="best"),
            budget=100,
        )
        best, trace = nas_evolve(space, ConstPredictor(0.5, 1.0), cfg, np.random.default_rng(3))
        assert trace.final_evaluations == 100
        assert trace.final_best == pytest.approx(-0.5)

    def test_budget_never_exceeded_and_all_genotypes_valid(self):
        space = grid_space(4)
        surrogate = TabularSurrogate(space, seed=1)

        class CheckingPredictor:
            def __init__(self):
                self.seen = []

            def predict_accuracy(self, genotype):
                space.indices_of(genotype)  # membership check
                self.seen.append(genotype.choices)
                return surrogate.predict_accuracy(genotype)

            def predict_cost(self, genotype):
                return surrogate.predict_cost(genotype)

        checker = CheckingPredictor()
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=10.0),
            shsade=ShsadeConfig(pop_size=10, max_generations=60, crossover_target="best"),
            budget=80,
        )
        _, trace = nas_evolve(space, checker, cfg, np.random.default_rng(5))
        assert trace.final_evaluations <= 80
        assert len(set(checker.seen)) == len(checker.seen) == trace.final_evaluations

    def test_returned_best_minimizes_over_everything_scored(self):
        space = grid_space(4)
        surrogate = TabularSurrogate(space, seed=2)
        scores = []
        real_score = score

        class RecordingPredictor:
            def predict_accuracy(self, genotype):
                return surrogate.predict_accuracy(genotype)

            def predict_cost(self, genotype):
                return surrogate.predict_cost(genotype)

        bio = BiObjectiveConfig(cost_budget=20.0)
        predictor = RecordingPredictor()
        cfg = NasConfig(
            biobjective=bio,
            shsade=ShsadeConfig(pop_size=10, max_generations=40, crossover_target="best"),
            budget=60,
        )
        rng = np.random.default_rng(6)
        best, trace = nas_evolve(space, predictor, cfg, rng)
        # replay: every genotype's score is deterministic, so the best found
        # must equal the trace's final best and be reachable from the space
        assert real_score(best, predictor, bio) == pytest.approx(trace.final_best)
        values = [r.best_fitness for r in trace.rows]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_seeded_determinism(self):
        space = grid_space(4)
        surrogate = TabularSurrogate(space, seed=3)
        mid = space.genotype_from_indices([1, 1, 1, 1])
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid)),
            shsade=ShsadeConfig(pop_size=10, max_generations=30, crossover_target="best"),
            budget=60,
        )
        best_a, trace_a = nas_evolve(space, surrogate, cfg, np.random.default_rng(9))
        best_b, trace_b = nas_evolve(space, surrogate, cfg, np.random.default_rng(9))
        assert best_a == best_b
        assert [r.as_tuple() for r in trace_a.rows] == [r.as_tuple() for r in trace_b.rows]

    def test_batch_and_one_genotype_predictors_give_the_same_run(self):
        space = pids_space(num_blocks=2)
        surrogate = TabularSurrogate(space, seed=4)
        mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid)),
            shsade=ShsadeConfig(pop_size=16, max_generations=25, crossover_target="best"),
            budget=200,
        )
        best_a, trace_a = nas_evolve(space, surrogate, cfg, np.random.default_rng(3))
        best_b, trace_b = nas_evolve(space, LoggingPredictor(surrogate), cfg, np.random.default_rng(3))
        assert best_a == best_b
        assert [r.as_tuple() for r in trace_a.rows] == [r.as_tuple() for r in trace_b.rows]

    def test_near_exhaustive_budget_finds_the_optimum(self):
        space = grid_space(3)  # 64 configurations
        surrogate = TabularSurrogate(space, seed=7)
        mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
        bio = BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0)
        optimum, _ = brute_force_optimum(space, surrogate, bio)
        cfg = NasConfig(biobjective=bio, budget=3 * space.size)
        hits = sum(
            nas_evolve(space, surrogate, cfg, np.random.default_rng(seed))[0] == optimum
            for seed in range(20)
        )
        assert hits >= 19  # at least 95 percent of seeds

    def test_collapsed_population_is_redrawn(self):
        # without trial noise a population whose rows all decode to one
        # genotype proposes only that genotype; redrawing it lets the run
        # score the whole space (about half of it otherwise)
        space = grid_space(3)
        surrogate = TabularSurrogate(space, seed=7)
        mid = space.genotype_from_indices([1, 1, 1])
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid)),
            shsade=ShsadeConfig(pop_size=20, max_generations=200, crossover_target="best"),
            budget=space.size,
            sigma_trial_noise=0.0,
        )
        for seed in range(5):
            best, trace = nas_evolve(space, surrogate, cfg, np.random.default_rng(seed))
            assert trace.final_evaluations == space.size
            assert best == brute_force_optimum(space, surrogate, cfg.biobjective)[0]

    def test_mutation_fraction_limits_trials_per_generation(self):
        space = grid_space(4)
        surrogate = TabularSurrogate(space, seed=10)

        class CountingPredictor:
            def __init__(self):
                self.calls = 0

            def predict_accuracy(self, genotype):
                self.calls += 1
                return surrogate.predict_accuracy(genotype)

            def predict_cost(self, genotype):
                return surrogate.predict_cost(genotype)

        counter = CountingPredictor()
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=10.0),
            shsade=ShsadeConfig(pop_size=20, max_generations=10, crossover_target="best"),
            budget=250,
            mutation_fraction=0.25,
        )
        _, trace = nas_evolve(space, counter, cfg, np.random.default_rng(7))
        # 20 initial individuals plus at most 5 challenged slots per generation
        assert counter.calls <= 20 + 10 * 5

    def test_omega_zero_ranking_matches_pure_accuracy(self):
        space = grid_space(3)
        surrogate = TabularSurrogate(space, seed=8)
        _, ranking = brute_force_optimum(
            space, surrogate, BiObjectiveConfig(cost_budget=1.0, omega=0.0)
        )
        by_accuracy = sorted(
            space.iter_genotypes(), key=lambda g: -surrogate.predict_accuracy(g)
        )
        assert [g.choices for g, _ in ranking][:10] == [g.choices for g in by_accuracy][:10]


class TestPidsSpace:
    def test_default_shape(self):
        space = pids_space()
        assert space.num_axes == 28
        assert space.axes[0].name == "block0_width"
        assert space.axes[0].values == (16, 24, 32, 48, 64)
        assert space.axes[1].values == (1, 2, 3, 4)
        assert space.axes[2].values == (1, 2, 3)
        assert space.axes[3].values == (1, 2)
        assert space.axes[27].name == "block6_interaction"

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            pids_space(num_blocks=0)

    def test_searchable_end_to_end(self):
        space = pids_space(num_blocks=2)
        surrogate = TabularSurrogate(space, seed=4)
        mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid)),
            shsade=ShsadeConfig(pop_size=16, max_generations=25, crossover_target="best"),
            budget=200,
        )
        best, trace = nas_evolve(space, surrogate, cfg, np.random.default_rng(1))
        space.indices_of(best)
        assert trace.final_evaluations <= 200


def test_result_document_schema():
    space = grid_space(2, (0, 1))
    cfg = NasConfig(
        biobjective=BiObjectiveConfig(cost_budget=1.0, omega=0.0),
        shsade=ShsadeConfig(pop_size=4, max_generations=5, crossover_target="best"),
        budget=4,
    )
    best, trace = nas_evolve(space, ConstPredictor(0.7, 1.0), cfg, np.random.default_rng(2))
    doc = result_document(best, trace.final_best, trace.final_evaluations, trace, space)
    assert set(doc) == {"best_genotype", "best_score", "evaluations", "trace"}
    assert set(doc["best_genotype"]) == {"a0", "a1"}
    assert doc["best_score"] == pytest.approx(-0.7)
    assert doc["evaluations"] == trace.final_evaluations
    assert all(len(row) == 4 for row in doc["trace"])
    json.dumps(doc)  # JSON-serializable end to end
