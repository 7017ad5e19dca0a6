"""``shsade.drive`` against the generation loops it replaced.

``run``, ``vanilla_de_run``, ``nas_evolve`` and ``regularized_ea_run`` each
supply ask, evaluate and tell steps to the one driver loop.
``reference_drivers`` keeps hand-written loops for them; both sides start
from one seed and must agree with ``==`` on every trace row, the best result
and the generator state after the run.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shsade_pids import baselines, nas_search, objectives, shsade
from shsade_pids.de_core import Bounds, ObjectiveSpec
from shsade_pids.discrete_codec import Axis, DiscreteSpace
from shsade_pids.trace import TraceError
from space_strategies import spaces

import reference_drivers
from predictors import RowPredictor, SurrogateLog, constant


def _rows(trace):
    return [row.as_tuple() for row in trace.rows]


def _plateau_batch(xs):
    # whole-number plateaus give ties, so the target and the best can sit
    # still for several generations
    return np.floor(np.sum(xs * xs, axis=1))


@st.composite
def terminations(draw, pop_size):
    """No criterion, or one of: an evaluation cap that is not a multiple of
    the population size, a target fitness. The config draws the generation cap."""
    kind = draw(st.sampled_from(["none", "evaluations", "target"]))
    if kind == "evaluations":
        whole = draw(st.integers(1, 20))
        return shsade.Termination(max_evaluations=whole * pop_size + draw(st.integers(1, pop_size - 1)))
    if kind == "target":
        return shsade.Termination(target_fitness=draw(st.sampled_from([0.0, 0.5, 2.0, 5.0, -math.inf, math.inf])))
    return None


@settings(max_examples=80, deadline=None)
@given(
    optimizer=st.sampled_from(["shsade", "vanilla_de"]),
    pop_size=st.integers(4, 12),
    dim=st.integers(1, 6),
    max_generations=st.integers(1, 25),
    plateaus=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_continuous_runs_match_the_loop_reference(optimizer, pop_size, dim, max_generations, plateaus, seed, data):
    termination = data.draw(terminations(pop_size))
    batch = _plateau_batch if plateaus else (lambda xs: np.sum(xs * xs, axis=1))
    spec = ObjectiveSpec(dim, Bounds.cube(-2, 2, dim), lambda x: float(batch(x[None])[0]), batch)
    if optimizer == "shsade":
        config = shsade.ShsadeConfig(pop_size=pop_size, max_generations=max_generations, learning_period=3)
        new, ref = shsade.run, reference_drivers.run
    else:
        config = baselines.VanillaDeConfig(pop_size=pop_size, max_generations=max_generations)
        new, ref = baselines.vanilla_de_run, reference_drivers.vanilla_de_run
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    best_new, trace_new = new(config, spec, termination, rng_new)
    best_ref, trace_ref = ref(config, spec, termination, rng_ref)
    assert _rows(trace_new) == _rows(trace_ref)
    assert trace_new.metadata == trace_ref.metadata
    assert (best_new.x.tobytes(), best_new.fitness) == (best_ref.x.tobytes(), best_ref.fitness)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("optimizer", ["shsade", "vanilla_de"])
def test_a_minus_inf_trial_never_replaces_its_parent(optimizer):
    # minimizing -x0 drives the search to the edge x0 > 4.9, where the
    # objective reads -inf; such trials lose like NaN and +inf ones, so the
    # run finishes with a finite trace, and it matches the loop reference
    minus_inf = []

    def batch(xs):
        values = -xs[:, 0]
        edge = xs[:, 0] > 4.9
        minus_inf.append(np.count_nonzero(edge))
        return np.where(edge, -math.inf, values)

    spec = ObjectiveSpec(3, Bounds.cube(-5, 5, 3), lambda x: float(batch(x[None])[0]), batch)
    if optimizer == "shsade":
        config = shsade.ShsadeConfig(pop_size=10, max_generations=60)
        new, ref = shsade.run, reference_drivers.run
    else:
        config = baselines.VanillaDeConfig(pop_size=10, max_generations=60)
        new, ref = baselines.vanilla_de_run, reference_drivers.vanilla_de_run
    best_new, trace_new = new(config, spec, None, np.random.default_rng(0))
    assert minus_inf[0] == 0 and sum(minus_inf) > 0  # a finite start, then -inf trials
    best_ref, trace_ref = ref(config, spec, None, np.random.default_rng(0))
    assert trace_new.rows[-1].generation == config.max_generations
    assert _rows(trace_new) == _rows(trace_ref)
    assert (best_new.x.tobytes(), best_new.fitness) == (best_ref.x.tobytes(), best_ref.fitness)
    assert math.isfinite(best_new.fitness) and best_new.x[0] <= 4.9


# a one-genotype space, where the run ends at generation 0; spaces of two
# and four genotypes, which a start-up population may score whole
ONE_GENOTYPE = DiscreteSpace((Axis("x0", ("only",)),))
TWO_GENOTYPES = DiscreteSpace((Axis("x0", (0, 1)),))
FOUR_GENOTYPES = DiscreteSpace((Axis("b0_width", (16, 32)), Axis("x0", ("p", "q"))))


def above(pop_size):
    """Spaces of more genotypes than a population of ``pop_size``, so the
    start-up cannot score them all and the run can reach a generation; the
    smaller spaces are explicit examples."""
    return spaces(max_axes=5, min_genotypes=pop_size + 1)


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(4, 10).flatmap(lambda pop: st.tuples(st.just(pop), above(pop))),
    # from 1: a budget equal to the population ends the run at generation 0,
    # which the examples below cover
    extra_budget=st.integers(1, 60),
    max_generations=st.integers(1, 30),
    sigma_trial_noise=st.sampled_from([0.0, 0.15]),
    use_trigonometric=st.booleans(),
    surrogate_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    case=(4, ONE_GENOTYPE),
    extra_budget=0,
    max_generations=1,
    sigma_trial_noise=0.15,
    use_trigonometric=False,
    surrogate_seed=0,
    seed=0,
)
@example(
    case=(4, FOUR_GENOTYPES),
    extra_budget=3,
    max_generations=5,
    sigma_trial_noise=0.15,
    use_trigonometric=True,
    surrogate_seed=1,
    seed=1,
)
@example(
    case=(10, TWO_GENOTYPES),
    extra_budget=0,
    max_generations=3,
    sigma_trial_noise=0.0,
    use_trigonometric=False,
    surrogate_seed=2,
    seed=2,
)
def test_nas_runs_match_the_loop_reference(
    case, extra_budget, max_generations, sigma_trial_noise, use_trigonometric, surrogate_seed, seed,
):
    # budgets that run out mid-generation, and spaces smaller than the budget
    pop_size, space = case
    surrogate = objectives.TabularSurrogate(space, surrogate_seed)
    mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
    config = nas_search.NasConfig(
        biobjective=nas_search.BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0),
        shsade=shsade.ShsadeConfig(
            pop_size=pop_size,
            max_generations=max_generations,
            crossover_target="best",
            use_trigonometric=use_trigonometric,
        ),
        budget=pop_size + extra_budget,
        sigma_trial_noise=sigma_trial_noise,
    )
    _assert_nas_matches_reference(space, surrogate, config, seed)


@pytest.mark.parametrize("flat", [False, True])
def test_nas_redraws_of_a_collapsed_population_match_the_loop_reference(flat):
    # without trial noise the population collapses within a few generations
    # and is redrawn; on a flat landscape every row scores the same, so equal
    # scores alone must not count as a collapse
    space = DiscreteSpace(tuple(Axis(f"a{i}", (0, 1, 2, 3)) for i in range(3)))
    surrogate = objectives.TabularSurrogate(space, 7)
    mid = space.genotype_from_indices([1, 1, 1])
    config = nas_search.NasConfig(
        biobjective=nas_search.BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid)),
        shsade=shsade.ShsadeConfig(pop_size=20, max_generations=200, crossover_target="best"),
        budget=space.size,
        sigma_trial_noise=0.0,
    )
    for seed in range(5):
        _assert_nas_matches_reference(space, constant(space) if flat else surrogate, config, seed)


def _assert_nas_matches_reference(space, predictor, config, seed):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    best_new, trace_new = nas_search.nas_evolve(space, predictor, config, rng_new)
    best_ref, trace_ref = reference_drivers.nas_evolve(space, predictor, config, rng_ref)
    assert _rows(trace_new) == _rows(trace_ref)
    assert trace_new.metadata == trace_ref.metadata
    assert best_new.choices == best_ref.choices
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_nas_defaults_state_the_generation_cap_once():
    bio = nas_search.BiObjectiveConfig(cost_budget=1.0)
    assert nas_search.NasConfig(biobjective=bio, budget=500).shsade == nas_search.search_shsade_config(500)
    config = nas_search.search_shsade_config(500, pop_size=20)
    assert (config.max_generations, config.crossover_target) == (250, "best")
    assert nas_search.search_shsade_config(15, pop_size=20).max_generations == 10
    assert nas_search.search_shsade_config(500, max_generations=7).max_generations == 7


def _assert_rea_matches_reference(space, predictor, config, seed):
    bio = nas_search.BiObjectiveConfig(cost_budget=1e9)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    best_new, trace_new = baselines.regularized_ea_run(space, predictor, config, bio, rng_new)
    best_ref, trace_ref = reference_drivers.regularized_ea_run(space, predictor, config, bio, rng_ref)
    assert _rows(trace_new) == _rows(trace_ref)
    assert trace_new.metadata == trace_ref.metadata
    assert best_new.choices == best_ref.choices
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return trace_new


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(1, 8).flatmap(
        lambda pop: st.tuples(st.just(pop), st.just(pop) | st.integers(1, pop), above(pop))
    ),
    # from 1: a budget equal to the population ends the run at generation 0
    # unless the start-up draws a repeat, which the first example and
    # test_regularized_ea_run_with_budget_equal_to_the_population_... cover
    extra_budget=st.just(1) | st.integers(1, 40),
    surrogate_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=(1, 1, ONE_GENOTYPE), extra_budget=0, surrogate_seed=0, seed=0)
@example(case=(4, 2, FOUR_GENOTYPES), extra_budget=6, surrogate_seed=1, seed=1)
@example(case=(8, 8, TWO_GENOTYPES), extra_budget=1, surrogate_seed=2, seed=2)
def test_regularized_ea_runs_match_the_loop_reference(case, extra_budget, surrogate_seed, seed):
    # single-value axes, whole-population tournaments, budgets one above the
    # population size and spaces smaller than the budget
    pop_size, tournament_size, space = case  # the tournament fits in the population
    config = baselines.RegularizedEaConfig(pop_size, tournament_size, pop_size + extra_budget)
    _assert_rea_matches_reference(space, objectives.TabularSurrogate(space, surrogate_seed), config, seed)


def test_regularized_ea_run_with_tied_scores_matches_the_loop_reference():
    space = DiscreteSpace((Axis("a", (0, 1)),) + tuple(Axis(f"b{i}", (0, 1, 2, 3)) for i in range(4)))
    config = baselines.RegularizedEaConfig(population_size=8, tournament_size=4, budget=100)
    # accuracy read from the first axis alone, so distinct genotypes tie and
    # tournaments must break ties the same way on both sides
    predictor = RowPredictor(space, lambda row: (1 + row[0]) / (1 + space.axes[0].size))
    _assert_rea_matches_reference(space, predictor, config, seed=0)


def test_regularized_ea_run_stopped_by_the_step_cap_matches_the_loop_reference():
    # mostly single-value axes: most mutations cannot move, and the
    # tournament keeps proposing the scored neighbours of the best
    space = DiscreteSpace(
        tuple(Axis(f"x{i}", (0, 1, 2)) for i in range(2)) + tuple(Axis(f"s{i}", ("only",)) for i in range(10))
    )
    config = baselines.RegularizedEaConfig(population_size=5, tournament_size=2, budget=12)
    trace = _assert_rea_matches_reference(space, objectives.TabularSurrogate(space, 3), config, seed=1)
    assert trace.rows[-1].generation == baselines.REA_STEPS_PER_BUDGET_UNIT * config.budget
    assert trace.final_evaluations < min(config.budget, space.size)


# two three-value axes and ten single-value ones: most mutations land on a
# genotype the memo already holds
_HIT_HEAVY_SPACE = DiscreteSpace(
    tuple(Axis(f"x{i}", (0, 1, 2)) for i in range(2)) + tuple(Axis(f"s{i}", ("only",)) for i in range(10))
)


def test_regularized_ea_run_on_a_space_the_initial_population_covers_matches_the_loop_reference():
    space = DiscreteSpace((Axis("a", (0, 1)), Axis("s", ("only",))))
    config = baselines.RegularizedEaConfig(population_size=8, tournament_size=3, budget=20)
    trace = _assert_rea_matches_reference(space, objectives.TabularSurrogate(space, 5), config, seed=0)
    assert _rows(trace) == [(0, space.size, trace.final_best, trace.rows[0].mean_fitness)]


@pytest.mark.parametrize("seed", [0, 1, 3, 8])
def test_regularized_ea_run_with_memo_hits_before_the_first_new_child_matches_the_loop_reference(seed):
    config = baselines.RegularizedEaConfig(population_size=5, tournament_size=2, budget=12)
    surrogate = objectives.TabularSurrogate(_HIT_HEAVY_SPACE, 3)
    trace = _assert_rea_matches_reference(_HIT_HEAVY_SPACE, surrogate, config, seed)
    assert trace.rows[0].generation > 0


@pytest.mark.parametrize("seed", range(6))
def test_regularized_ea_run_with_budget_equal_to_the_population_matches_the_loop_reference(seed):
    # steps run only when the initial population holds duplicates
    config = baselines.RegularizedEaConfig(population_size=5, tournament_size=2, budget=5)
    surrogate = objectives.TabularSurrogate(_HIT_HEAVY_SPACE, 3)
    trace = _assert_rea_matches_reference(_HIT_HEAVY_SPACE, surrogate, config, seed)
    assert trace.final_evaluations == config.budget


@pytest.mark.parametrize("search", ["nas_evolve", "regularized_ea"])
def test_searches_on_a_space_past_int64_match_the_loop_reference(search):
    # 120**12 genotypes: the memo keys and aging evolution's members are
    # flat indices beyond int64
    space = nas_search.pids_space(12)
    surrogate = objectives.TabularSurrogate(space, 2024)
    for seed in range(2):
        if search == "nas_evolve":
            mid = space.genotype_from_indices([(a.size - 1) // 2 for a in space.axes])
            bio = nas_search.BiObjectiveConfig(cost_budget=surrogate.predict_cost(mid), omega=1.0)
            config = nas_search.NasConfig(biobjective=bio, budget=300)
            _assert_nas_matches_reference(space, surrogate, config, seed)
        else:
            config = baselines.RegularizedEaConfig(population_size=25, tournament_size=5, budget=300)
            _assert_rea_matches_reference(space, surrogate, config, seed)


def test_regularized_ea_runs_one_generation_per_scored_genotype(monkeypatch):
    # aging evolution's memo hits run inside the tell: a later edit that
    # goes back to one drive generation per step fails here
    tells, calls = [], []
    drive = nas_search.drive

    def spy_drive(state, ask, evaluate, tell, **kwargs):
        def counted_tell(*args):
            tells.append(args[0])
            return tell(*args)

        return drive(state, ask, evaluate, counted_tell, **kwargs)

    class SpyScorer(nas_search.BudgetedScorer):
        def score_rows(self, indices):
            keys = np.ravel_multi_index(np.asarray(indices).T, self.space.sizes).tolist()
            calls.append([key in self.scores for key in keys])
            values, scored = super().score_rows(indices)
            # the spy reads the memo's own keys: every row scored is in it now
            assert all(key in self.scores for key in np.compress(scored, keys).tolist())
            return values, scored

    monkeypatch.setattr(nas_search, "drive", spy_drive)
    monkeypatch.setattr(baselines, "BudgetedScorer", SpyScorer)
    space = DiscreteSpace(tuple(Axis(f"a{i}", (0, 1, 2, 3)) for i in range(5)))
    config = baselines.RegularizedEaConfig(population_size=25, tournament_size=5, budget=500)
    trace = _assert_rea_matches_reference(space, objectives.TabularSurrogate(space, 2024), config, seed=0)
    scored = trace.final_evaluations - trace.rows[0].evaluations
    # one call for the initial population, then one one-row call per tell
    # for a child the memo does not know
    assert len(calls[0]) == config.population_size
    assert len(tells) == scored == len(calls) - 1
    assert all(hits == [False] for hits in calls[1:])
    assert trace.rows[-1].generation > 5 * scored  # most steps were memo hits


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["new child", "memo hit"])
def test_regularized_ea_run_fails_on_a_non_finite_score_like_the_loop_reference(where, value):
    bio = nas_search.BiObjectiveConfig(cost_budget=1e9)
    surrogate = objectives.TabularSurrogate(_HIT_HEAVY_SPACE, 3)
    config = baselines.RegularizedEaConfig(population_size=5, tournament_size=2, budget=12)
    seed = 0
    if where == "new child":
        recorder = SurrogateLog(surrogate)
        _, trace = baselines.regularized_ea_run(_HIT_HEAVY_SPACE, recorder, config, bio, np.random.default_rng(seed))
        # the third genotype scored after initialisation; on a finite
        # landscape more memo hits than the population size follow it, so
        # a hit loop that did not stop would let it age out unrecorded
        first = trace.rows[0].evaluations
        target = recorder.rows[first + 2]
        assert trace.rows[3].generation - trace.rows[2].generation - 1 > config.population_size
    else:
        # a non-finite child fails the row after it enters, so only the
        # initial population can hit a non-finite score in the memo
        rng = np.random.default_rng(seed)
        initial = [tuple(_HIT_HEAVY_SPACE.indices_of(_HIT_HEAVY_SPACE.random_genotype(rng)).tolist())
                   for _ in range(config.population_size)]
        target = next(row for row in initial if initial.count(row) > 1)
    predictor = SurrogateLog(surrogate, {target: value})
    outcomes = []
    for run in (baselines.regularized_ea_run, reference_drivers.regularized_ea_run):
        rng = np.random.default_rng(seed)
        with pytest.raises(TraceError) as failure:
            run(_HIT_HEAVY_SPACE, predictor, config, bio, rng)
        outcomes.append((str(failure.value), rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]
