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
from .discrete_codec import DiscreteSpace, Axis, Genotype, decode_indices, encode_indices, genotype_to_dict, perturb
from .shsade import ShsadeConfig, ShsadeState, Termination, build_trials, commit_generation, drive
from .trace import SearchTrace

MAX_ENUMERATION = 10**6
# rows of value indices scored per predictor call while enumerating a space
ENUMERATION_CHUNK = 1 << 16


class PredictorInterface(Protocol):
    """Pure, total estimators of a genotype's accuracy and cost.

    A predictor may also offer ``predict_many(indices) -> (accuracy, cost)``
    over a ``(rows, num_axes)`` integer matrix of value indices into the
    space being searched; ``BudgetedScorer.score_rows``, which both searches
    score through, then scores each batch of new genotypes with one call.
    Without it, every new genotype goes through the two methods below, one
    genotype after another in row order. Both paths must give the same
    scores.
    """

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
    accuracy = np.asarray(accuracy, dtype=float)
    cost = np.asarray(cost, dtype=float)
    penalty = np.ones_like(cost)
    over = ~(cost <= config.cost_budget)
    penalty[over] = [(config.cost_budget / c) ** config.omega for c in cost[over].tolist()]
    return -accuracy * penalty


def score(genotype: Genotype, predictor: PredictorInterface, config: BiObjectiveConfig) -> float:
    """Minimization fitness of one genotype: lower is better."""
    accuracy = float(predictor.predict_accuracy(genotype))
    cost = float(predictor.predict_cost(genotype))
    return float(score_many([accuracy], [cost], config)[0])


def _predict_rows(predictor: PredictorInterface, space: DiscreteSpace, indices) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy and cost arrays for rows of value indices into ``space``:
    one ``predict_many`` call when the predictor has it, otherwise its
    one-genotype methods in row order."""
    predict_many = getattr(predictor, "predict_many", None)
    if predict_many is not None:
        accuracy, cost = predict_many(indices)
        return np.asarray(accuracy, dtype=float), np.asarray(cost, dtype=float)
    accuracy = np.empty(len(indices))
    cost = np.empty(len(indices))
    for k, row in enumerate(indices):
        genotype = space.genotype_from_indices(row)
        accuracy[k] = float(predictor.predict_accuracy(genotype))
        cost[k] = float(predictor.predict_cost(genotype))
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
    is max(10, 10 * budget // pop_size)."""
    config = ShsadeConfig(crossover_target="best", **fields)
    if "max_generations" in fields:
        return config
    return replace(config, max_generations=max(10, (10 * budget) // config.pop_size))


class BudgetedScorer:
    """Memoizing scorer over one space; each distinct genotype costs one
    budget unit. ``budget`` is clamped to the size of the space, so a search
    whose evaluations reach it has spent its budget or scored every genotype.

    The memo maps a genotype's value indices, as a tuple, to its score.
    ``score_rows`` is the only code that writes it, checks the budget or
    updates the best; ``try_score`` is a one-row call into it. Aging
    evolution's memo-hit steps also read ``scores`` directly, since a hit
    spends nothing. ``search`` runs a search on ``drive`` under the budget.
    """

    def __init__(
        self, space: DiscreteSpace, predictor: PredictorInterface, biobjective: BiObjectiveConfig, budget: int
    ):
        self.space = space
        self.predictor = predictor
        self.biobjective = biobjective
        self.budget = min(int(budget), space.size)
        self.scores: dict[tuple, float] = {}
        self.evaluations = 0
        self.best_genotype: Genotype | None = None
        self.best_score = math.inf

    def try_score(self, genotype: Genotype) -> float | None:
        """Score a genotype, or return None when it is unseen and the budget
        is spent. Repeated genotypes never consume budget."""
        values, scored = self.score_rows(self.space.indices_of(genotype)[None])
        return values.item() if scored.item() else None

    def score_rows(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Score rows of value indices into the space in row order, with one
        predictor call for the rows new to the memo. Repeated genotypes
        never consume budget; a new one is scored while budget is left.
        Returns the scores and a mask of the rows scored; a row left
        unscored for want of budget reads +inf. The best is the first row
        of the lowest new score."""
        indices = np.asarray(indices)
        keys = list(map(tuple, indices.tolist()))
        found = list(map(self.scores.get, keys))  # None: not in the memo
        room = self.budget - self.evaluations
        fresh: dict[tuple, int] = {}  # genotype new to the memo -> its first row
        for k, key in enumerate(keys):
            if found[k] is None and key not in fresh and len(fresh) < room:
                fresh[key] = k
        if fresh:
            rows = list(fresh.values())
            new = indices if len(rows) == len(keys) else indices[rows]
            accuracy, cost = _predict_rows(self.predictor, self.space, new)
            best_row = None
            for key, row, value in zip(fresh, rows, score_many(accuracy, cost, self.biobjective).tolist()):
                self.scores[key] = found[row] = value
                if value < self.best_score:
                    self.best_score = value
                    best_row = row
            self.evaluations += len(fresh)
            if best_row is not None:
                self.best_genotype = self.space.genotype_from_indices(keys[best_row])
            # the later rows of a genotype new to the memo
            found = [self.scores.get(key) if value is None else value for key, value in zip(keys, found)]
        values = np.array([math.inf if value is None else value for value in found])
        return values, np.array([value is not None for value in found])

    def search(self, state, ask, evaluate, tell, algorithm: str, max_generations: int):
        """Run a search that scores through this scorer on ``drive`` and
        return ``(best_genotype, trace)``. The evaluation count is the budget
        spent, and a generation starts while one unit of it is left, so a
        generation drops the rows it cannot afford."""
        trace = drive(
            state,
            ask,
            evaluate,
            tell,
            algorithm=algorithm,
            max_generations=max_generations,
            termination=Termination(max_evaluations=self.budget),
            room=1,
            spent=lambda: self.evaluations,
        )
        assert self.best_genotype is not None
        return self.best_genotype, trace


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
    ever scored.
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
        replace_rows(state, 1 + np.flatnonzero(scored), x[scored], f[scored])

    return scorer.search(state, ask, evaluate, tell, algorithm="shsade_pids", max_generations=sh.max_generations)


def brute_force_optimum(
    space: DiscreteSpace,
    predictor: PredictorInterface,
    config: BiObjectiveConfig,
) -> tuple[Genotype, list[tuple[Genotype, float]]]:
    """Exhaustively score every genotype; ties break by lexicographic index
    order. Test oracle for the evolutionary pipeline, guarded to 10^6 configs."""
    order, _, _, scores = rank_space(space, predictor, config)
    choices = space.choices_from_indices(np.stack(np.unravel_index(order, space.sizes), axis=1))
    ranking = [(Genotype(c), value) for c, value in zip(choices, scores[order].tolist())]
    return ranking[0][0], ranking


def rank_space(
    space: DiscreteSpace,
    predictor: PredictorInterface,
    config: BiObjectiveConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score every genotype of a space of at most 10^6 configurations.

    Returns ``(order, accuracy, cost, scores)``: the last three hold one entry
    per genotype in lexicographic index order (that of ``np.unravel_index``
    over ``space.sizes``), and ``order`` lists those positions from
    the best score to the worst, ties in lexicographic index order.
    """
    if space.size > MAX_ENUMERATION:
        raise ValueError(f"space has {space.size} configurations, enumeration caps at {MAX_ENUMERATION}")
    accuracy = np.empty(space.size)
    cost = np.empty(space.size)
    scores = np.empty(space.size)
    for start in range(0, space.size, ENUMERATION_CHUNK):
        stop = min(start + ENUMERATION_CHUNK, space.size)
        indices = np.stack(np.unravel_index(np.arange(start, stop), space.sizes), axis=1)
        accuracy[start:stop], cost[start:stop] = _predict_rows(predictor, space, indices)
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


def result_document(
    best: Genotype, best_score: float, evaluations: int, trace: SearchTrace, space: DiscreteSpace
) -> dict:
    """JSON-ready search result: best genotype keyed by axis name, its score,
    the budget consumed and the full trace rows."""
    return {
        "best_genotype": genotype_to_dict(best, space),
        "best_score": float(best_score),
        "evaluations": int(evaluations),
        "trace": [list(row.as_tuple()) for row in trace.rows],
    }
