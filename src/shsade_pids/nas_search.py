"""Architecture search over discrete spaces through continuous encodings.

Genotypes are mapped into the unit cube, evolved with the adaptive DE core
(donors recombine with the current best encoding), decoded back and scored
through a predictor. Scores are memoized per genotype and every distinct
genotype counts exactly once against the sampled-architecture budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .de_core import Bounds, replace_rows, uniform_index
from .discrete_codec import DiscreteSpace, Axis, Genotype, decode, decode_indices, encode_indices, genotype_to_dict, perturb
from .shsade import MAX_GENERATIONS, ShsadeConfig, ShsadeState, Termination, build_trials, commit_generation, drive
from .trace import SearchTrace

MAX_ENUMERATION = 10**6
# rows of value indices scored per predictor call while enumerating a space
ENUMERATION_CHUNK = 1 << 16


class PredictorInterface(Protocol):
    """Pure, total estimators of a genotype's accuracy and cost.

    ``predict_many(indices) -> (accuracy, cost)`` scores a ``(rows,
    num_axes)`` integer matrix of value indices into the space being
    searched and returns two float arrays of shape ``(rows,)``; any other
    shape raises ``ValueError``. It is how the searches and the oracle
    score: ``BudgetedScorer.score_rows`` (and so ``nas_evolve`` and aging
    evolution) calls it once per batch of new genotypes, and ``rank_space``
    once per enumeration chunk. The one-genotype helper ``score`` calls
    ``predict_accuracy`` and ``predict_cost``.
    """

    def predict_many(self, indices) -> tuple[np.ndarray, np.ndarray]: ...

    def predict_accuracy(self, genotype: Genotype) -> float: ...

    def predict_cost(self, genotype: Genotype) -> float: ...


@dataclass(frozen=True)
class BiObjectiveConfig:
    """Scalarization of the accuracy/cost trade-off.

    Fitness is -accuracy * min(1, cost_budget / cost) ** omega: architectures
    at or under budget pay no penalty, over-budget ones are discounted, and
    omega = 0 reduces to pure accuracy maximization.
    """

    cost_budget: float
    omega: float = 1.0

    def __post_init__(self):
        if not self.cost_budget > 0:
            raise ValueError("cost_budget must be positive")
        if not self.omega >= 0:
            raise ValueError("omega must be non-negative")


def score_many(accuracy, cost, config: BiObjectiveConfig) -> np.ndarray:
    """Minimization fitness of accuracy and cost arrays: lower is better.

    Over-budget penalties are raised to omega by Python's float power, one
    at a time, because numpy's vectorized power may round the last bit
    differently.
    """
    scores = -np.asarray(accuracy, dtype=float)
    cost = np.asarray(cost, dtype=float)
    over = (~(cost <= config.cost_budget)).nonzero()[0]
    if len(over):
        budget, omega = config.cost_budget, config.omega
        scores[over] *= [(budget / c) ** omega for c in cost.take(over).tolist()]
    return scores


def score(genotype: Genotype, predictor: PredictorInterface, config: BiObjectiveConfig) -> float:
    """Minimization fitness of one genotype: lower is better."""
    accuracy = float(predictor.predict_accuracy(genotype))
    cost = float(predictor.predict_cost(genotype))
    return float(score_many([accuracy], [cost], config)[0])


def _predict_rows(predictor: PredictorInterface, indices) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy and cost arrays for rows of value indices, from one
    ``predict_many`` call whose result shapes are checked."""
    accuracy, cost = predictor.predict_many(indices)
    accuracy = np.asarray(accuracy, dtype=float)
    cost = np.asarray(cost, dtype=float)
    expected = (len(indices),)
    if accuracy.shape != expected or cost.shape != expected:
        raise ValueError(
            f"predict_many returned accuracy of shape {accuracy.shape} and cost of shape "
            f"{cost.shape}, expected {expected} each"
        )
    return accuracy, cost


@dataclass
class NasConfig:
    biobjective: BiObjectiveConfig
    shsade: ShsadeConfig | None = None
    budget: int = 500
    sigma_init_noise: float = 0.05
    # exploration noise re-applied to every trial encoding; without it a
    # converged population sits inside one decode rounding cell and stops
    # proposing new genotypes long before the budget is spent
    sigma_trial_noise: float = 0.15

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be positive")
        for name in ("sigma_init_noise", "sigma_trial_noise"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if self.shsade is None:
            self.shsade = search_shsade_config(self.budget)
        if self.budget < self.shsade.pop_size:
            raise ValueError("budget must cover at least one full population")


def search_shsade_config(budget: int, **fields) -> ShsadeConfig:
    """The SHSADE settings of a search with this budget: donors recombine
    with the best encoding, and unless ``fields`` set it, the generation cap
    is max(10, 10 * budget // pop_size), at most ``MAX_GENERATIONS``."""
    config = ShsadeConfig(crossover_target="best", **fields)
    if "max_generations" in fields:
        return config
    return replace(config, max_generations=min(max(10, (10 * budget) // config.pop_size), MAX_GENERATIONS))


class BudgetedScorer:
    """Memoizing scorer over one space; each distinct genotype costs one
    budget unit. ``budget`` is clamped to the size of the space, so a search
    whose evaluations reach it has spent its budget or scored every genotype.

    The memo maps a genotype's flat index (``DiscreteSpace.strides``), a
    Python ``int``, to its score. ``score_rows`` is the only code that
    writes the memo or checks the budget; ``try_score`` is a one-row call
    into it. A batch whose rows all hit the memo costs one lookup per row
    and no predictor call; otherwise the first row of each new genotype, as
    many as the budget pays for, goes to one ``predict_many`` call, and the
    scorer never calls the predictor's one-genotype methods. A negative
    ``budget`` raises ``ValueError``. Aging evolution keeps its population
    as flat indices, scores each new child as a one-row batch, and its
    memo-hit steps read ``scores`` directly, since a hit spends nothing.
    ``search`` runs a search on ``drive`` under the budget. The scorer keeps
    no best: each search's state keeps its own.
    """

    def __init__(
        self, space: DiscreteSpace, predictor: PredictorInterface, biobjective: BiObjectiveConfig, budget: int
    ):
        self.space = space
        self.predictor = predictor
        self.biobjective = biobjective
        self.budget = min(int(budget), space.size)
        if self.budget < 0:
            raise ValueError("budget must not be negative")
        self.scores: dict[int, float] = {}
        self.evaluations = 0
        # one unsigned comparison checks both ends of each index's range
        self._sizes = np.array(space.sizes, dtype=np.uintp)

    def try_score(self, genotype: Genotype) -> float | None:
        """Score a genotype, or return None when it is unseen and the budget
        is spent. Repeated genotypes never consume budget."""
        values, scored = self.score_rows(self.space.indices_of(genotype)[None])
        return values.item() if scored.item() else None

    def score_rows(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Score rows of value indices into the space in row order, in one
        pass: a memo lookup, one ``predict_many`` call on the first row of
        each new genotype while budget is left, one memo update and a second
        lookup. Repeated genotypes never consume budget. Returns the scores
        and a mask of the rows scored; a row left unscored for want of
        budget reads +inf. ``indices`` must be a ``(rows, num_axes)`` integer
        array of indices into each axis's values; anything else raises
        ``ValueError`` before any lookup, charge or memo write."""
        indices = np.asarray(indices)
        if indices.ndim != 2 or indices.shape[1] != len(self._sizes):
            raise ValueError(f"index rows of shape {indices.shape} do not match the space's {len(self._sizes)} axes")
        if indices.dtype.kind not in "iu":
            raise ValueError(f"value indices must be integers, not {indices.dtype}")
        indices = indices.astype(np.intp, copy=False)
        if np.count_nonzero(indices.view(np.uintp) >= self._sizes):
            raise ValueError("value index out of range for the space")
        keys = (indices @ self.space.strides).tolist()
        memo = self.scores
        found = list(map(memo.get, keys))  # None: not in the memo
        if None in found:
            fresh: dict[int, int] = {}  # genotype new to the memo -> its first row
            for k, value in enumerate(found):
                if value is None:
                    fresh.setdefault(keys[k], k)
            rows = list(fresh.values())[: self.budget - self.evaluations]
            if rows:
                accuracy, cost = _predict_rows(self.predictor, indices.take(rows, axis=0))
                scores = score_many(accuracy, cost, self.biobjective).tolist()
                memo.update(zip(fresh, scores))  # zip stops at the last row paid for
                self.evaluations += len(rows)
            found = list(map(memo.get, keys))
            if None in found:  # rows the budget could not pay for
                values = np.array([math.inf if value is None else value for value in found])
                return values, np.array([value is not None for value in found])
        return np.array(found, dtype=float), np.ones(len(found), dtype=bool)

    def search(self, state, ask, evaluate, tell, algorithm: str, max_generations: int):
        """Run a search that scores through this scorer on ``drive`` and
        return its trace; ``state`` keeps the search's best. The evaluation
        count is the budget spent, read from this scorer, and a generation
        starts while one unit of it is left, so a generation drops the rows
        it cannot afford."""
        return drive(
            state,
            ask,
            evaluate,
            tell,
            algorithm=algorithm,
            max_generations=max_generations,
            termination=Termination(max_evaluations=self.budget),
            room=1,
            counter=self,
        )


def nas_evolve(
    space: DiscreteSpace,
    predictor: PredictorInterface,
    config: NasConfig,
    rng=None,
) -> tuple[Genotype, SearchTrace]:
    """Evolve continuous encodings of a discrete space against a predictor.

    The population starts from random genotypes (one uniform block of value
    indices), encoded with Gaussian exploration noise (one normal block).
    Each generation mutates every individual, recombines donors with the
    current best encoding, decodes the trials and scores them under the
    architecture budget; trials that would exceed the budget are dropped
    and their parents survive. When every row of the population decodes to
    one genotype, all rows but the first are redrawn as at initialization.
    The run stops once the budget is spent, the whole space has been
    scored, or the generation cap is reached, and returns the best genotype
    ever scored (the state's ``best_x``, decoded) and the trace.
    """
    rng = np.random.default_rng(rng)
    sh = config.shsade
    scorer = BudgetedScorer(space, predictor, config.biobjective, config.budget)
    m = space.num_axes

    def random_encodings(rows):
        seeds = uniform_index(rng.random((rows, m)), np.array(space.sizes))
        return perturb(encode_indices(seeds, space), config.sigma_init_noise, rng)

    x0 = random_encodings(sh.pop_size)
    f0, scored = scorer.score_rows(decode_indices(x0, space))
    assert scored.all()  # budget >= pop_size makes initialization affordable
    state = ShsadeState.initial(sh, x0, f0, Bounds(np.zeros(m), np.ones(m)))

    def ask():
        batch = build_trials(state, rng)
        if config.sigma_trial_noise > 0:
            batch.x = perturb(batch.x, config.sigma_trial_noise, rng)
        return batch

    def evaluate(batch):
        # rows left unscored once the budget is spent are not evaluated, so
        # their parents survive unchallenged
        return scorer.score_rows(decode_indices(batch.x, space))

    def tell(batch, fitness, evaluated):
        commit_generation(state, batch, fitness, rng, evaluated)
        # equal scores are cheap to test and necessary for a collapse
        if state.fitness.min() < state.fitness.max():
            return
        indices = decode_indices(state.x, space)
        if (indices != indices[0]).any():
            return
        # every row decodes to one genotype: donor differences are zero, so
        # only trial noise could still move the search, and it rarely leaves
        # the neighbourhood of that genotype. Keep row 0 and redraw the rest
        # as at initialization; rows the budget cannot pay for stay as they are.
        x = random_encodings(sh.pop_size - 1)
        f, scored = scorer.score_rows(decode_indices(x, space))
        # row 0 stays: its candidate is itself, and never accepted
        replace_rows(
            state,
            np.concatenate(([False], scored)),
            np.concatenate((state.x[:1], x)),
            np.concatenate((state.fitness[:1], f)),
        )

    trace = scorer.search(state, ask, evaluate, tell, algorithm="shsade_pids", max_generations=sh.max_generations)
    return decode(state.best_x, space), trace


def brute_force_optimum(
    space: DiscreteSpace,
    predictor: PredictorInterface,
    config: BiObjectiveConfig,
) -> tuple[Genotype, list[tuple[Genotype, float]]]:
    """Exhaustively score every genotype; ties break by lexicographic index
    order. Test oracle for the evolutionary pipeline, guarded to 10^6 configs."""
    order, _, _, scores = rank_space(space, predictor, config)
    choices = space.choices_from_indices(space.unravel(order))
    ranking = [(Genotype(c), value) for c, value in zip(choices, scores[order].tolist())]
    return ranking[0][0], ranking


def rank_space(
    space: DiscreteSpace,
    predictor: PredictorInterface,
    config: BiObjectiveConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score every genotype of a space of at most 10^6 configurations.

    Returns ``(order, accuracy, cost, scores)``: the last three hold one entry
    per genotype in flat-index order (``space.unravel`` turns a position
    into its row), and ``order`` lists those positions from the best score
    to the worst, ties in flat-index order.
    """
    if space.size > MAX_ENUMERATION:
        raise ValueError(f"space has {space.size} configurations, enumeration caps at {MAX_ENUMERATION}")
    accuracy = np.empty(space.size)
    cost = np.empty(space.size)
    scores = np.empty(space.size)
    for start in range(0, space.size, ENUMERATION_CHUNK):
        stop = min(start + ENUMERATION_CHUNK, space.size)
        indices = space.unravel(np.arange(start, stop))
        accuracy[start:stop], cost[start:stop] = _predict_rows(predictor, indices)
        # scored per chunk: score_many's over-budget penalties go through a
        # Python list, which for a whole space would dwarf the arrays
        scores[start:stop] = score_many(accuracy[start:stop], cost[start:stop], config)
    return np.argsort(scores, kind="stable"), accuracy, cost, scores


def pids_space(num_blocks: int = 7) -> DiscreteSpace:
    """Joint interaction/width/depth/expansion space: per block, one axis for
    the channel width, the expansion ratio, the depth multiplier and the
    point-interaction order."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be positive")
    axes = []
    for b in range(num_blocks):
        axes.append(Axis(f"block{b}_width", (16, 24, 32, 48, 64)))
        axes.append(Axis(f"block{b}_expansion", (1, 2, 3, 4)))
        axes.append(Axis(f"block{b}_depth", (1, 2, 3)))
        axes.append(Axis(f"block{b}_interaction", (1, 2)))
    return DiscreteSpace(tuple(axes))


def result_document(best: Genotype, trace: SearchTrace, space: DiscreteSpace) -> dict:
    """JSON-ready search result: the best genotype keyed by axis name, the
    trace's final best score and evaluations (the budget consumed), and its
    full rows."""
    return {
        "best_genotype": genotype_to_dict(best, space),
        "best_score": float(trace.final_best),
        "evaluations": int(trace.final_evaluations),
        "trace": [list(row.as_tuple()) for row in trace.rows],
    }
