"""Validation objectives: analytic benchmarks and seeded tabular surrogates.

The benchmarks carry known optima so optimizer runs can be checked against
ground truth; the surrogates give architecture spaces an enumerable, fully
deterministic accuracy/cost landscape with pairwise interactions, standing in
for a trained performance predictor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .de_core import Bounds, ObjectiveSpec
from .discrete_codec import DiscreteSpace, Genotype


def _sphere(xs: np.ndarray) -> np.ndarray:
    return np.sum(xs * xs, axis=1)


def _rosenbrock(xs: np.ndarray) -> np.ndarray:
    a = xs[:, :-1]
    b = xs[:, 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=1)


def _rastrigin(xs: np.ndarray) -> np.ndarray:
    return 10.0 * xs.shape[1] + np.sum(xs * xs - 10.0 * np.cos(2.0 * np.pi * xs), axis=1)


def _ackley(xs: np.ndarray) -> np.ndarray:
    d = xs.shape[1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(xs * xs, axis=1) / d))
        - np.exp(np.sum(np.cos(2.0 * np.pi * xs), axis=1) / d)
        + 20.0
        + np.exp(1.0)
    )


# conventional CEC-style domains per function
_BENCHMARKS = {
    "sphere": (_sphere, (-5.12, 5.12)),
    "rosenbrock": (_rosenbrock, (-5.0, 10.0)),
    "rastrigin": (_rastrigin, (-5.12, 5.12)),
    "ackley": (_ackley, (-32.768, 32.768)),
}

BENCHMARK_NAMES = tuple(sorted(_BENCHMARKS))


@dataclass(frozen=True)
class BenchmarkFunction:
    name: str
    dimension: int
    bounds: Bounds
    optimum_x: np.ndarray
    optimum_value: float

    def evaluate(self, x) -> float:
        batch = _BENCHMARKS[self.name][0]
        return float(batch(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate_many(self, xs) -> np.ndarray:
        return _BENCHMARKS[self.name][0](np.asarray(xs, dtype=float))

    def to_objective_spec(self) -> ObjectiveSpec:
        return ObjectiveSpec(
            dimension=self.dimension,
            bounds=self.bounds,
            evaluator=self.evaluate,
            batch_evaluator=self.evaluate_many,
        )


def make_benchmark(name: str, dimension: int) -> BenchmarkFunction:
    if name not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if name == "rosenbrock" and dimension < 2:
        raise ValueError("rosenbrock needs at least two dimensions")
    lo, hi = _BENCHMARKS[name][1]
    optimum = np.ones(dimension) if name == "rosenbrock" else np.zeros(dimension)
    return BenchmarkFunction(
        name=name,
        dimension=dimension,
        bounds=Bounds.cube(lo, hi, dimension),
        optimum_x=optimum,
        optimum_value=0.0,
    )


# elements of one (terms, rows) gather in TabularSurrogate._accuracy
_GATHER_ELEMENTS = 1 << 18

_BLOCK_AXIS = re.compile(r"^(?P<block>.+)_(?P<role>width|expansion|depth)$")


def _cost_factor(axis, index: int) -> float:
    value = axis.values[index]
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0:
        return float(value)
    return float(index + 1)


class TabularSurrogate:
    """Deterministic accuracy/cost tables over a discrete space.

    Accuracy is the logistic of a sum of seeded per-axis weights plus seeded
    pairwise interaction terms, so axis-wise greedy search is not optimal and
    a searcher has to combine choices. Cost sums a width * expansion * depth
    product per block for axes named ``<block>_width`` (and so on) and a
    seeded positive per-axis term for everything else; it strictly increases
    along every axis's value order. Rebuilding from the same seed reproduces
    identical tables.

    ``predict_many`` scores a matrix of value indices at once, and the
    one-genotype methods are one-row calls into the same kernels. The sums
    run term by term in a fixed order (axis weights, then pairs in ``(i, j)``
    order; block products, then additive axes), so every row's result is
    the same to the bit whatever the batch around it.
    """

    def __init__(self, space: DiscreteSpace, seed: int):
        self.space = space
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        m = space.num_axes
        sizes = space.sizes
        n_pairs = max(1, m * (m - 1) // 2)
        main_sd = 2.0 / np.sqrt(m)
        pair_sd = 1.6 / np.sqrt(n_pairs)
        # accuracy term t reads the flattened tables at
        # offset[t] + index[first[t]] * stride[t] + index[second[t]]
        tables = [rng.normal(0.0, main_sd, size=n) for n in sizes]
        first, second, stride = list(range(m)), list(range(m)), [0] * m
        for i in range(m):
            for j in range(i + 1, m):
                tables.append(rng.normal(0.0, pair_sd, size=(sizes[i], sizes[j])).ravel())
                first.append(i)
                second.append(j)
                stride.append(sizes[j])
        self._table = np.concatenate(tables)
        self._offsets = np.cumsum([0] + [t.size for t in tables[:-1]])[:, None]
        self._first = np.array(first)
        self._second = np.array(second)
        self._strides = np.array(stride)[:, None]
        cost_weights = rng.uniform(0.5, 1.5, size=m)

        # axes following the <block>_{width,expansion,depth} convention cost a
        # per-block product; any other axis contributes an additive term.
        # Each axis gets a table of its per-index factor or term.
        blocks: dict[str, list[int]] = {}
        additive: list[int] = []
        factors = []
        for i, axis in enumerate(space.axes):
            match = _BLOCK_AXIS.match(axis.name)
            if match:
                blocks.setdefault(match.group("block"), []).append(i)
                factors.append([_cost_factor(axis, k) for k in range(axis.size)])
            else:
                additive.append(i)
                factors.append(cost_weights[i] * np.arange(1, axis.size + 1))
        self._cost_table = np.concatenate(factors)
        self._cost_offsets = np.cumsum((0,) + sizes[:-1])[:, None]
        # blocks shorter than the longest are padded with row m, a row of ones
        self._block_axes = np.full((len(blocks), max(map(len, blocks.values()), default=1)), m)
        for k, axes in enumerate(blocks.values()):
            self._block_axes[k, : len(axes)] = axes
        self._additive_axes = np.array(additive, dtype=int)
        self._sizes = np.array(sizes)

    def _columns(self, indices) -> np.ndarray:
        """Validated value indices, one row per genotype, returned transposed."""
        idx = np.asarray(indices)
        if idx.ndim != 2 or idx.shape[1] != len(self._sizes):
            raise ValueError("index rows do not match the space")
        if idx.dtype.kind not in "iu":
            raise ValueError("value indices must be integers")
        if (idx < 0).any() or (idx >= self._sizes).any():
            raise ValueError("value index out of range for the space")
        return idx.astype(np.intp, copy=False).T  # offsets overflow narrow dtypes

    def _accuracy(self, cols: np.ndarray) -> np.ndarray:
        out = np.empty(cols.shape[1])
        # bounds the (terms, rows) gather when a caller passes many rows
        step = max(1, _GATHER_ELEMENTS // len(self._offsets))
        for start in range(0, cols.shape[1], step):
            part = cols[:, start : start + step]
            # in place, so no more than two (terms, rows) arrays are alive
            flat = part[self._first]
            flat *= self._strides
            flat += self._offsets
            flat += part[self._second]
            terms = self._table[flat]
            # accumulate adds row by row at every batch size; a reduce would
            # switch to pairwise summation when there is a single row
            np.add.accumulate(terms, axis=0, out=terms)
            out[start : start + step] = 1.0 / (1.0 + np.exp(-terms[-1]))
        return out

    def _cost(self, cols: np.ndarray) -> np.ndarray:
        factors = self._cost_table[self._cost_offsets + cols]
        factors = np.concatenate([factors, np.ones((1, cols.shape[1]))])
        products = np.multiply.accumulate(factors[self._block_axes], axis=1)[:, -1]
        terms = np.concatenate([products, factors[self._additive_axes]])
        return np.add.accumulate(terms, axis=0)[-1]

    def predict_many(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(accuracy, cost) arrays for a ``(rows, num_axes)`` matrix of value
        indices into ``self.space``."""
        cols = self._columns(indices)
        return self._accuracy(cols), self._cost(cols)

    # indices_of checks membership, so the one-genotype methods pass its
    # indices straight to the kernels as a one-row column matrix
    def predict_accuracy(self, genotype: Genotype) -> float:
        return float(self._accuracy(self.space.indices_of(genotype)[:, None])[0])

    def predict_cost(self, genotype: Genotype) -> float:
        return float(self._cost(self.space.indices_of(genotype)[:, None])[0])
