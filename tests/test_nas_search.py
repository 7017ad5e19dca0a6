"""Architecture-search pipeline: scoring, budget accounting, the evolve loop
and its brute-force oracle."""

import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shsade_pids import baselines, nas_search
from shsade_pids.baselines import RegularizedEaConfig, regularized_ea_run
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
from shsade_pids.trace import TraceError
from space_strategies import index_rows, spaces

import reference_drivers
from package_calls import package_calls
from predictors import RowPredictor, SurrogateLog, constant


def grid_space(num_axes=5, values=(0, 1, 2, 3)):
    # with values 0, 1, 2, ..., a row of value indices is also a genotype's choices
    return DiscreteSpace(tuple(Axis(f"a{i}", values) for i in range(num_axes)))


SINGLE = grid_space(1, (0,))  # one genotype, (0,)


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
        assert score(Genotype((0,)), constant(SINGLE, 0.9, 4.0), cfg) == pytest.approx(-0.9)

    def test_omega_zero_ignores_cost(self):
        cfg = BiObjectiveConfig(cost_budget=1.0, omega=0.0)
        assert score(Genotype((0,)), constant(SINGLE, 0.8, 500.0), cfg) == pytest.approx(-0.8)

    def test_over_budget_penalty(self):
        cfg = BiObjectiveConfig(cost_budget=2.0, omega=1.0)
        assert score(Genotype((0,)), constant(SINGLE, 0.9, 4.0), cfg) == pytest.approx(-0.45)

    def test_under_budget_no_bonus(self):
        cfg = BiObjectiveConfig(cost_budget=10.0, omega=2.0)
        assert score(Genotype((0,)), constant(SINGLE, 0.6, 1.0), cfg) == pytest.approx(-0.6)

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
            assert score(Genotype((0,)), constant(SINGLE, a, c), cfg) == values[k]

    @pytest.mark.parametrize("omega", [0.0, 1.0, 2.5])
    def test_non_finite_costs_match_the_loop(self, omega):
        # a NaN cost is not within budget, so it takes the penalty
        cfg = BiObjectiveConfig(cost_budget=2.0, omega=omega)
        accuracy = [0.5, 0.25, 0.75, 0.5]
        cost = [math.nan, math.inf, 1.0, 3.0]
        expected = [loop_score(a, c, cfg) for a, c in zip(accuracy, cost)]
        assert np.array_equal(score_many(accuracy, cost, cfg), expected, equal_nan=True)

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
        best, ranking = brute_force_optimum(space, constant(space), BiObjectiveConfig(cost_budget=1.0))
        assert best.choices == (7,)
        assert len(ranking) == 1

    def test_hand_built_table(self):
        space = grid_space(2, (0, 1))
        table = {(0, 0): 0.1, (0, 1): 0.4, (1, 0): 0.3, (1, 1): 0.2}
        predictor = RowPredictor(space, table.__getitem__)
        cfg = BiObjectiveConfig(cost_budget=1.0, omega=0.0)
        best, ranking = brute_force_optimum(space, predictor, cfg)
        assert best.choices == (0, 1)
        assert [g.choices for g, _ in ranking] == [(0, 1), (1, 0), (1, 1), (0, 0)]

    def test_ties_break_lexicographically(self):
        space = grid_space(2, (0, 1))
        best, ranking = brute_force_optimum(space, constant(space), BiObjectiveConfig(cost_budget=1.0))
        assert best.choices == (0, 0)
        assert [g.choices for g, _ in ranking] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rejects_oversized_space(self):
        space = grid_space(12, tuple(range(8)))  # 8^12 configurations
        with pytest.raises(ValueError):
            brute_force_optimum(space, constant(space), BiObjectiveConfig(cost_budget=1.0))

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
        space = grid_space(1, (0, 1))
        predictor = RowPredictor(space, {(0,): 0.5, (1,): 0.6}.__getitem__)
        scorer = BudgetedScorer(space, predictor, BiObjectiveConfig(cost_budget=1.0, omega=0.0), 10)
        g = Genotype((1,))
        first = scorer.try_score(g)
        second = scorer.try_score(g)
        assert first == second == pytest.approx(-0.6)
        assert scorer.evaluations == 1
        assert len(predictor.rows) == 1

    def test_budget_exhaustion_returns_none(self):
        space = grid_space(1, (0, 1))
        scorer = BudgetedScorer(space, constant(space), BiObjectiveConfig(cost_budget=1.0), 1)
        assert scorer.try_score(Genotype((0,))) is not None
        assert scorer.try_score(Genotype((1,))) is None
        assert scorer.try_score(Genotype((0,))) is not None  # memoized stays free

    @pytest.mark.parametrize("budget", [-1, -3])
    def test_a_negative_budget_raises(self, budget):
        # a negative budget once sliced a batch from its end: -3 scored and
        # charged 7 rows of 10
        space = grid_space(1, tuple(range(10)))
        with pytest.raises(ValueError, match="budget"):
            BudgetedScorer(space, constant(space), BiObjectiveConfig(cost_budget=1.0), budget)

    def test_budget_zero_scores_nothing(self):
        space = grid_space(1, tuple(range(10)))
        predictor = constant(space)
        scorer = BudgetedScorer(space, predictor, BiObjectiveConfig(cost_budget=1.0), 0)
        values, scored = scorer.score_rows(np.arange(10)[:, None])
        assert not scored.any() and np.isposinf(values).all()
        assert scorer.evaluations == 0 and scorer.scores == {} and predictor.batches == []


class TestScoreRows:
    def scorer(self, space, predictor, budget=100):
        return BudgetedScorer(space, predictor, BiObjectiveConfig(cost_budget=1.0, omega=0.0), budget)

    def test_in_batch_duplicates_pay_once(self):
        space = grid_space(1, (0, 1, 2))
        predictor = RowPredictor(space, {(0,): 0.1, (1,): 0.5, (2,): 0.3}.__getitem__)
        scorer = self.scorer(space, predictor)
        values, scored = scorer.score_rows(np.array([[1], [2], [1], [0], [2]]))
        assert values.tolist() == [-0.5, -0.3, -0.5, -0.1, -0.3]
        assert scored.all()
        assert len(predictor.rows) == 3
        assert scorer.evaluations == 3
        # a second batch only hits the memo
        values, scored = scorer.score_rows(np.array([[0], [1]]))
        assert values.tolist() == [-0.1, -0.5] and scored.all()
        assert len(predictor.rows) == 3 and scorer.evaluations == 3

    def test_budget_runs_out_mid_batch(self):
        space = grid_space(1, (0, 1, 2, 3))
        predictor = RowPredictor(space, {(i,): 0.1 * (i + 1) for i in range(4)}.__getitem__)
        scorer = self.scorer(space, predictor, budget=2)
        values, scored = scorer.score_rows(np.array([[0], [1], [0], [2], [3], [1], [2]]))
        assert scored.tolist() == [True, True, True, False, False, True, False]
        assert values[scored].tolist() == [-0.1, -0.2, -0.1, -0.2]
        assert np.isinf(values[~scored]).all() and (values[~scored] > 0).all()
        assert scorer.evaluations == 2 and len(predictor.rows) == 2

    def test_predict_many_once_per_batch_on_new_rows_only(self):
        space = grid_space(3)
        predictor = SurrogateLog(TabularSurrogate(space, seed=4))
        scorer = self.scorer(space, predictor, budget=4)
        scorer.score_rows(np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0]]))
        scorer.score_rows(np.array([[1, 1, 1], [2, 2, 2], [3, 3, 3], [2, 2, 2], [0, 1, 2]]))
        scorer.score_rows(np.array([[0, 0, 0]]))  # all hits: no call
        assert [b.tolist() for b in predictor.batches] == [
            [[0, 0, 0], [1, 1, 1]],
            [[2, 2, 2], [3, 3, 3]],
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        space=spaces(max_axes=4),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 40),
        batches=st.lists(st.integers(1, 25), min_size=1, max_size=6),
    )
    def test_matches_try_score_row_by_row(self, space, seed, budget, batches):
        # the reference is the one-genotype scorer keyed by choices
        surrogate = TabularSurrogate(space, seed)
        mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
        cfg = BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0)
        batched = BudgetedScorer(space, surrogate, cfg, budget)
        reference = reference_drivers.ReferenceScorer(surrogate, cfg, budget)
        for k, rows in enumerate(batches):
            indices = index_rows(space, rows, seed + k)
            values, scored = batched.score_rows(indices)
            for row, value, ok in zip(indices, values.tolist(), scored.tolist()):
                expected = reference.try_score(space.genotype_from_indices(row))
                assert (value if ok else None) == expected
            assert batched.evaluations == reference.evaluations
        # the same genotypes and scores, in the order they were first scored
        assert list(batched.scores.items()) == [
            (np.ravel_multi_index(space.indices_of(Genotype(choices)), space.sizes), value)
            for choices, value in reference.scores.items()
        ]

    # rows a predictor that does not validate would score: each must raise
    # before any lookup, charge or memo write
    BAD_ROWS = {
        "negative_index": np.array([[0, 0, -1]]),
        "index_at_size": np.array([[0, 4, 0]]),
        "bad_row_first": np.array([[9, 0, -1], [0, 0, 0]]),
        "bad_row_last": np.array([[1, 1, 1], [0, 0, 4]]),
        "huge_unsigned": np.array([[0, 0, 2**64 - 1]], dtype=np.uint64),
        "float_dtype": np.array([[0.0, 0.0, 0.0]]),
        "bool_dtype": np.array([[False, True, False]]),
        "object_dtype": np.array([[0, 0, 0]], dtype=object),
        "one_dimensional": np.array([0, 0, 0]),
        "three_dimensional": np.zeros((1, 1, 3), dtype=int),
        "short_row": np.array([[0, 0]]),
        "long_row": np.array([[0, 0, 0, 0]]),
    }

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "after_a_batch"])
    @pytest.mark.parametrize("name", sorted(BAD_ROWS))
    def test_rows_outside_the_space_raise_and_change_nothing(self, name, fresh):
        space = grid_space(3)
        predictor = RowPredictor(space, lambda row: 0.1 * sum(row))
        scorer = self.scorer(space, predictor, budget=10)
        if not fresh:
            scorer.score_rows(np.array([[0, 0, 0], [1, 2, 3]]))
        before = (dict(scorer.scores), scorer.evaluations)
        batches = len(predictor.batches)
        with pytest.raises(ValueError):
            scorer.score_rows(self.BAD_ROWS[name])
        assert (dict(scorer.scores), scorer.evaluations) == before
        assert len(predictor.batches) == batches

    def test_an_empty_batch_returns_empty_arrays(self):
        space = grid_space(3)
        predictor = RowPredictor(space, lambda row: 0.5)
        scorer = self.scorer(space, predictor)
        values, scored = scorer.score_rows(np.empty((0, 3), dtype=int))
        assert values.shape == scored.shape == (0,)
        assert values.dtype == float and scored.dtype == bool
        assert scorer.evaluations == 0 and scorer.scores == {} and predictor.batches == []

    @settings(max_examples=60, deadline=None)
    @given(space=spaces(), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30))
    def test_memo_keys_are_row_major_flat_indices(self, space, seed, rows):
        indices = index_rows(space, rows, seed)
        scorer = self.scorer(space, constant(space), budget=space.size)
        scorer.score_rows(indices)
        flat = np.ravel_multi_index(indices.T, space.sizes).tolist()
        assert list(scorer.scores) == list(dict.fromkeys(flat))
        assert all(type(key) is int for key in scorer.scores)

    @pytest.mark.parametrize(
        "space",
        [grid_space(63, (0, 1)), pids_space(12)],
        ids=["two_to_the_63", "pids12"],
    )
    def test_memo_keys_are_exact_past_int64(self, space):
        # spaces of 2**63 and 120**12 genotypes key through Python int
        # strides; a key must equal the exact flat index, however large
        strides = [math.prod(space.sizes[k + 1 :]) for k in range(space.num_axes)]
        tops = [size - 1 for size in space.sizes]
        indices = np.vstack([index_rows(space, 20, 5), np.zeros(space.num_axes, dtype=int), tops])
        scorer = self.scorer(space, constant(space), budget=100)
        assert space.strides.dtype == object
        values, scored = scorer.score_rows(indices)
        expected = [sum(i * stride for i, stride in zip(row, strides)) for row in indices.tolist()]
        assert list(scorer.scores) == list(dict.fromkeys(expected))
        assert expected[-1] == space.size - 1
        # the memo answers the same rows again without a predictor call
        predictor_batches = len(scorer.predictor.batches)
        assert scorer.score_rows(indices)[0].tolist() == values.tolist()
        assert len(scorer.predictor.batches) == predictor_batches


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
        with pytest.raises(ValueError, match="budget must be positive"):
            NasConfig(biobjective=BiObjectiveConfig(cost_budget=1.0), budget=0)

    def test_singleton_space_returns_sole_genotype(self):
        space = DiscreteSpace((Axis("only", (7,)),))
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=1.0),
            shsade=ShsadeConfig(pop_size=4, max_generations=10),
            budget=10,
        )
        best, trace = nas_evolve(space, constant(space, 0.9, 1.0), cfg, np.random.default_rng(0))
        assert best.choices == (7,)
        assert trace.final_evaluations == 1  # one distinct architecture exists

    def test_flat_landscape_terminates_at_budget(self):
        space = grid_space(5)
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=1.0, omega=0.0),
            shsade=ShsadeConfig(pop_size=20, max_generations=500, crossover_target="best"),
            budget=100,
        )
        best, trace = nas_evolve(space, constant(space, 0.5, 1.0), cfg, np.random.default_rng(3))
        assert trace.final_evaluations == 100
        assert trace.final_best == pytest.approx(-0.5)

    def test_budget_never_exceeded_and_all_genotypes_valid(self):
        space = grid_space(4)
        checker = SurrogateLog(TabularSurrogate(space, seed=1))
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=10.0),
            shsade=ShsadeConfig(pop_size=10, max_generations=60, crossover_target="best"),
            budget=80,
        )
        _, trace = nas_evolve(space, checker, cfg, np.random.default_rng(5))
        assert trace.final_evaluations <= 80
        # the surrogate rejects index rows outside the space
        assert len(set(checker.rows)) == len(checker.rows) == trace.final_evaluations

    def test_rows_the_budget_cannot_pay_for_are_not_evaluated(self, monkeypatch):
        # the budget runs out within a generation: its unscored rows reach
        # the commit as not evaluated, so they count as no strategy's try
        space = grid_space(4)
        commits = []
        commit = nas_search.commit_generation

        def spy(state, batch, fitness, rng, evaluated):
            commits.append((fitness.copy(), evaluated.copy()))
            return commit(state, batch, fitness, rng, evaluated)

        monkeypatch.setattr(nas_search, "commit_generation", spy)
        cfg = NasConfig(
            biobjective=BiObjectiveConfig(cost_budget=10.0),
            shsade=ShsadeConfig(pop_size=10, max_generations=60, crossover_target="best"),
            budget=41,
        )
        _, trace = nas_evolve(space, TabularSurrogate(space, seed=1), cfg, np.random.default_rng(5))
        assert trace.final_evaluations == 41
        fitness, evaluated = commits[-1]
        assert not evaluated.all()
        assert np.array_equal(np.isinf(fitness), ~evaluated)

    def test_returned_best_minimizes_over_everything_scored(self):
        space = grid_space(4)
        predictor = TabularSurrogate(space, seed=2)
        bio = BiObjectiveConfig(cost_budget=20.0)
        cfg = NasConfig(
            biobjective=bio,
            shsade=ShsadeConfig(pop_size=10, max_generations=40, crossover_target="best"),
            budget=60,
        )
        rng = np.random.default_rng(6)
        best, trace = nas_evolve(space, predictor, cfg, rng)
        # replay: every genotype's score is deterministic, so the best found
        # must equal the trace's final best and be reachable from the space
        assert score(best, predictor, bio) == pytest.approx(trace.final_best)
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


def tied_accuracy(seed, levels, nan_share):
    """An accuracy of a row of value indices: one of ``levels`` values, so
    many genotypes tie, or NaN on about ``nan_share`` of them."""

    def accuracy(row):
        u = random.Random(repr((seed, row))).random()
        return math.nan if u < nan_share else (1 + int(u * levels)) / (levels + 1)

    return accuracy


# the population each search runs with in run_search
POPULATION = {"nas_evolve": 8, "regularized_ea_run": 6}


def run_search(name, space, predictor, bio, budget, seed):
    """Run ``nas_evolve`` or ``regularized_ea_run`` on ``budget`` evaluations."""
    if name == "nas_evolve":
        nas_config = NasConfig(bio, nas_search.search_shsade_config(budget, pop_size=POPULATION[name]), budget)
        return nas_evolve(space, predictor, nas_config, seed)
    ea_config = RegularizedEaConfig(population_size=POPULATION[name], tournament_size=3, budget=budget)
    return regularized_ea_run(space, predictor, ea_config, bio, seed)


@pytest.mark.parametrize("search", ["nas_evolve", "regularized_ea_run"])
class TestSearchBest:
    """Each search keeps its best in its own state: the genotype it returns,
    rescored by ``score``, reads the trace's final best. A run may instead
    fail with ``TraceError``, but only once a NaN was scored."""

    # drawn spaces hold more genotypes than either search's population, so
    # the start-up cannot score them all and the run can reach a generation;
    # smaller spaces are the explicit examples
    @settings(max_examples=60, deadline=None)
    @given(
        space=spaces(max_axes=4, min_genotypes=max(POPULATION.values()) + 1),
        seed=st.integers(0, 2**32 - 1),
        levels=st.integers(1, 3),
        nan_share=st.sampled_from([0.0, 0.1, 0.3]),
        budget=st.integers(8, 60),
    )
    @example(space=DiscreteSpace((Axis("x0", ("only",)),)), seed=0, levels=1, nan_share=0.0, budget=8)
    @example(space=DiscreteSpace((Axis("x0", (0, 1)),)), seed=1, levels=2, nan_share=0.0, budget=9)
    @example(space=grid_space(3, (0, 1)), seed=2, levels=3, nan_share=0.1, budget=20)
    def test_the_returned_genotype_scores_the_final_best(self, search, space, seed, levels, nan_share, budget):
        predictor = RowPredictor(space, tied_accuracy(seed, levels, nan_share))
        bio = BiObjectiveConfig(cost_budget=1.0)
        try:
            best, trace = run_search(search, space, predictor, bio, budget, seed)
        except TraceError:
            assert any(math.isnan(predictor.accuracy(row)) for row in predictor.rows)
            return
        assert score(best, predictor, bio) == trace.final_best

    @pytest.mark.parametrize("seed", range(3))
    def test_a_tie_keeps_the_first_scored_genotype(self, search, seed):
        # every genotype scores the same, so no later one beats the first
        space = grid_space(3)
        predictor = constant(space)
        best, trace = run_search(search, space, predictor, BiObjectiveConfig(cost_budget=1.0), 30, seed)
        assert trace.final_evaluations == 30
        assert best.choices == predictor.rows[0]


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
    best, trace = nas_evolve(space, constant(space, 0.7, 1.0), cfg, np.random.default_rng(2))
    doc = result_document(best, trace, space)
    assert set(doc) == {"best_genotype", "best_score", "evaluations", "trace"}
    assert set(doc["best_genotype"]) == {"a0", "a1"}
    assert doc["best_score"] == pytest.approx(-0.7)
    assert doc["evaluations"] == trace.final_evaluations
    assert all(len(row) == 4 for row in doc["trace"])
    json.dumps(doc)  # JSON-serializable end to end


class WrongShapePredictor:
    """A batch predictor whose ``predict_many`` returns ``array`` (accuracy
    or cost) in the wrong shape, from call ``first_bad`` (from 0) on."""

    def __init__(self, surrogate, array, wrong, first_bad=0):
        self.surrogate = surrogate
        self.array = array
        self.wrong = wrong
        self.first_bad = first_bad
        self.calls = 0

    def predict_many(self, indices):
        accuracy, cost = self.surrogate.predict_many(indices)
        self.calls += 1
        if self.calls > self.first_bad:
            if self.array == "accuracy":
                accuracy = self.wrong(accuracy)
            else:
                cost = self.wrong(cost)
        return accuracy, cost


WRONG_SHAPES = {"one_row_short": lambda values: values[:-1], "column": lambda values: values[:, None]}


class TestPredictorResultShapes:
    """A ``predict_many`` result of the wrong shape raises ValueError naming
    both shapes, before anything is charged to the budget or memoized."""

    space = grid_space(3)  # 64 genotypes
    surrogate = TabularSurrogate(space, seed=3)
    config = BiObjectiveConfig(cost_budget=surrogate.predict_cost(Genotype((1, 1, 1))), omega=1.0)

    def message(self, array, wrong, rows):
        received = WRONG_SHAPES[wrong](np.zeros(rows)).shape
        return re.escape(f"{array} of shape {received}") + r".*" + re.escape(f"expected ({rows},) each")

    @pytest.mark.parametrize("wrong", sorted(WRONG_SHAPES))
    @pytest.mark.parametrize("array", ["accuracy", "cost"])
    def test_score_rows(self, array, wrong):
        predictor = WrongShapePredictor(self.surrogate, array, WRONG_SHAPES[wrong])
        scorer = BudgetedScorer(self.space, predictor, self.config, budget=10)
        with pytest.raises(ValueError, match=self.message(array, wrong, 3)):
            scorer.score_rows(np.array([[0, 1, 2], [3, 3, 3], [0, 1, 2], [1, 0, 0]]))
        assert scorer.evaluations == 0 and scorer.scores == {}

    @pytest.mark.parametrize("first_bad", [0, 1], ids=["initial_population", "first_generation"])
    @pytest.mark.parametrize("wrong", sorted(WRONG_SHAPES))
    @pytest.mark.parametrize("array", ["accuracy", "cost"])
    def test_nas_evolve(self, array, wrong, first_bad):
        predictor = WrongShapePredictor(self.surrogate, array, WRONG_SHAPES[wrong], first_bad)
        cfg = NasConfig(biobjective=self.config, shsade=ShsadeConfig(pop_size=8, max_generations=20), budget=40)
        with pytest.raises(ValueError, match=r"expected \(\d+,\) each"):
            nas_evolve(self.space, predictor, cfg, np.random.default_rng(0))
        assert predictor.calls == first_bad + 1

    @pytest.mark.parametrize("first_bad", [0, 1], ids=["initial_population", "first_child"])
    @pytest.mark.parametrize("wrong", sorted(WRONG_SHAPES))
    @pytest.mark.parametrize("array", ["accuracy", "cost"])
    def test_regularized_ea_run(self, array, wrong, first_bad):
        predictor = WrongShapePredictor(self.surrogate, array, WRONG_SHAPES[wrong], first_bad)
        cfg = RegularizedEaConfig(population_size=6, tournament_size=2, budget=30)
        # seed 0 draws six distinct genotypes, and each child is one row
        rows = 6 if first_bad == 0 else 1
        with pytest.raises(ValueError, match=self.message(array, wrong, rows)):
            regularized_ea_run(self.space, predictor, cfg, self.config, np.random.default_rng(0))
        assert predictor.calls == first_bad + 1

    @pytest.mark.parametrize("wrong", sorted(WRONG_SHAPES))
    @pytest.mark.parametrize("array", ["accuracy", "cost"])
    def test_rank_space(self, array, wrong):
        predictor = WrongShapePredictor(self.surrogate, array, WRONG_SHAPES[wrong])
        with pytest.raises(ValueError, match=self.message(array, wrong, 64)):
            rank_space(self.space, predictor, self.config)


class OneGenotypePredictor:
    """A predictor with the one-genotype methods and no ``predict_many``."""

    def predict_accuracy(self, genotype):
        return 0.5

    def predict_cost(self, genotype):
        return 1.0


class TestPredictorWithoutPredictMany:
    """The searches and the oracle score only through ``predict_many``: a
    predictor without it fails at the first batch, before anything is
    charged to the budget or memoized."""

    space = grid_space(3)
    config = BiObjectiveConfig(cost_budget=1.0)

    @pytest.mark.parametrize("search", ["score_rows", "nas_evolve", "regularized_ea_run"])
    def test_searches(self, search, monkeypatch):
        scorers = []

        class KeptScorer(BudgetedScorer):
            def __init__(self, *args):
                super().__init__(*args)
                scorers.append(self)

        monkeypatch.setattr(nas_search, "BudgetedScorer", KeptScorer)
        monkeypatch.setattr(baselines, "BudgetedScorer", KeptScorer)
        predictor = OneGenotypePredictor()
        with pytest.raises(AttributeError, match="predict_many"):
            if search == "score_rows":
                KeptScorer(self.space, predictor, self.config, 10).score_rows(np.array([[0, 1, 2], [3, 3, 3]]))
            elif search == "nas_evolve":
                nas_evolve(self.space, predictor, NasConfig(self.config, ShsadeConfig(pop_size=8), budget=40), 0)
            else:
                regularized_ea_run(self.space, predictor, RegularizedEaConfig(6, 2, 30), self.config, 0)
        [scorer] = scorers
        assert scorer.evaluations == 0 and scorer.scores == {}

    def test_rank_space(self):
        with pytest.raises(AttributeError, match="predict_many"):
            rank_space(self.space, OneGenotypePredictor(), self.config)


# Python-level calls into the package for a score_rows batch whose rows all
# hit the memo: 3 while the output arrays came from two comprehensions, 1
# since
MAX_PACKAGE_CALLS_PER_MEMO_HIT_BATCH = 1


def test_package_calls_for_a_batch_of_memo_hits_stay_bounded():
    space = pids_space(7)
    surrogate = TabularSurrogate(space, seed=2024)
    mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
    scorer = BudgetedScorer(space, surrogate, BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid)), 100)
    rows = index_rows(space, 50, 0)
    first, _ = scorer.score_rows(rows)
    with package_calls() as counts:
        values, scored = scorer.score_rows(rows)
    assert scored.all() and values.tobytes() == first.tobytes() and scorer.evaluations == 50
    assert counts[0] <= MAX_PACKAGE_CALLS_PER_MEMO_HIT_BATCH, counts.worst()


# Python-level calls into the package per nas_evolve generation on
# pids_space(7), from one ask to the next: building the trials, decoding and
# scoring them through score_rows and predict_many, committing them and the
# trace row. 51 while the partner picks skipped through a helper, then 47,
# 45 once score_rows scored new rows in its own body and predict_many
# validated its input in its own, 39 once the sampler's reject mask, the
# success-set test and the archive capacity were computed in their callers
# (seed 0; 40 and 39 on seeds 1 and 2), and 37 since score_rows keeps no
# best and drive reads the scorer's count without a lambda. That 37 was the
# last entry, which also holds the one decode of the result; generations
# read 33, 33 and 32 on seeds 0-2, and the last entry, bounded on its own,
# 37 on seed 0 (38 and 37 on seeds 1 and 2)
MAX_PACKAGE_CALLS_PER_NAS_GENERATION = 33
MAX_PACKAGE_CALLS_IN_THE_LAST_NAS_ENTRY = 37


def test_package_calls_per_nas_generation_stay_bounded():
    space = pids_space(7)  # nearly every trial is new, so every batch calls the predictor
    surrogate = TabularSurrogate(space, seed=2024)
    mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
    bio = BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid))
    with package_calls(split="ask") as counts:
        _, trace = nas_evolve(space, surrogate, NasConfig(bio, budget=2000), np.random.default_rng(0))
    # counts[0] is the initial population, counts[-1] the last generation
    # with the result's decode
    assert len(counts) - 1 == trace.rows[-1].generation > 30
    assert max(counts[1:-1]) <= MAX_PACKAGE_CALLS_PER_NAS_GENERATION, counts.worst(1, len(counts) - 1)
    assert counts[-1] <= MAX_PACKAGE_CALLS_IN_THE_LAST_NAS_ENTRY, counts.worst(len(counts) - 1)


# blocks b0 and b1 take one and two padding slots in the surrogate's cost
# products; "b1_depth" and "fixed" have a single value
UNEVEN_BLOCKS = DiscreteSpace((
    Axis("b0_width", (16, 32, 64)),
    Axis("b0_depth", (1, 2, 3)),
    Axis("mode", ("p", "q", "r")),
    Axis("b1_width", (8, 24)),
    Axis("b1_depth", (2,)),
    Axis("b2_width", (4, 8, 12)),
    Axis("b2_expansion", (1, 3, 6)),
    Axis("b2_depth", (1, 2)),
    Axis("fixed", (0.5,)),
))


class TestRowInvariance:
    """A row alone gets the same bits from ``predict_many``, ``score_many``
    and ``score_rows`` as inside a batch of 200 rows."""

    def check(self, space, seed, omega):
        surrogate = TabularSurrogate(space, seed)
        batch = index_rows(space, 200, seed)
        accuracy, cost = surrogate.predict_many(batch)
        # about half the rows over budget, when the costs differ at all
        config = BiObjectiveConfig(cost_budget=float(np.median(cost)), omega=omega)
        scores = score_many(accuracy, cost, config)
        values, _ = BudgetedScorer(space, surrogate, config, len(batch)).score_rows(batch)
        assert values.tobytes() == scores.tobytes()
        alone = BudgetedScorer(space, surrogate, config, len(batch))
        for k in range(len(batch)):
            row = slice(k, k + 1)
            one_accuracy, one_cost = surrogate.predict_many(batch[row])
            assert one_accuracy.tobytes() == accuracy[row].tobytes()
            assert one_cost.tobytes() == cost[row].tobytes()
            assert score_many(one_accuracy, one_cost, config).tobytes() == scores[row].tobytes()
            value, scored = alone.score_rows(batch[row])
            assert value.tobytes() == scores[row].tobytes() and scored.all()
        return cost > config.cost_budget

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    @pytest.mark.parametrize("space", [UNEVEN_BLOCKS, pids_space(3), grid_space()], ids=["uneven", "pids3", "grid"])
    def test_fixed_spaces(self, space, omega):
        over = self.check(space, 7, omega)
        assert over.any() and not over.all()  # rows under and over the cost budget

    @settings(max_examples=40, deadline=None)
    @given(space=spaces(), seed=st.integers(0, 2**32 - 1), omega=st.sampled_from([0.0, 1.0]))
    def test_random_spaces(self, space, seed, omega):
        self.check(space, seed, omega)
