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
            batch_evaluator=_BENCHMARKS[self.name][0],
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


# elements of one (terms, rows) gather in TabularSurrogate._predict
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
    one-genotype methods are one-row calls into the same kernel, which reads
    every accuracy term and cost factor of a batch in one gather. The sums
    run term by term in a fixed order (axis weights, then pairs in ``(i, j)``
    order; block products, then additive axes), so every row's result is
    the same to the bit whatever the batch around it. A gather of two or
    more rows sums with an axis-0 reduce, which over a C-ordered ``(terms,
    rows)`` block is exactly that left fold per column; a one-row gather
    would reduce pairwise, so it sums with an accumulate. A numpy that
    changed either order would fail ``tests/test_objectives.py``.
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
        # accuracy weights are stored negated: a sum of negated terms is the
        # negated sum, bit for bit, so the logistic needs no negation
        tables = [-rng.normal(0.0, main_sd, size=n) for n in sizes]
        first, second, stride = list(range(m)), list(range(m)), [0] * m
        for i in range(m):
            for j in range(i + 1, m):
                tables.append(-rng.normal(0.0, pair_sd, size=(sizes[i], sizes[j])).ravel())
                first.append(i)
                second.append(j)
                stride.append(sizes[j])
        self._accuracy_terms = len(tables)
        cost_weights = rng.uniform(0.5, 1.5, size=m)

        # axes following the <block>_{width,expansion,depth} convention cost a
        # per-block product; any other axis is a block of its own, after the
        # named blocks. Each axis gets a table of its per-index factor, and a
        # block shorter than the longest is padded with ones: x * 1.0 is x.
        blocks: dict[str, list[int]] = {}
        additive: list[list[int]] = []
        for i, axis in enumerate(space.axes):
            match = _BLOCK_AXIS.match(axis.name)
            if match:
                blocks.setdefault(match.group("block"), []).append(i)
                tables.append(np.array([_cost_factor(axis, k) for k in range(axis.size)]))
            else:
                additive.append([i])
                tables.append(cost_weights[i] * np.arange(1, axis.size + 1))
        tables.append(np.ones(sizes[0]))
        reads = list(range(self._accuracy_terms))  # the table each term reads
        slots = list(blocks.values()) + additive
        width = max(map(len, slots))
        # the first factor of every block, then the second, and so on; a
        # factor reads its axis's table, or past the block's end the ones
        # table through axis 0, at index[axis] (first = second, stride 0)
        start = self._accuracy_terms
        self._factor_slices = [slice(start + k * len(slots), start + (k + 1) * len(slots)) for k in range(width)]
        for k in range(width):
            for axes in slots:
                table, axis = (start + axes[k], axes[k]) if k < len(axes) else (start + m, 0)
                reads.append(table)
                first.append(axis)
                second.append(axis)
                stride.append(0)
        # term t reads the flattened tables at
        # offset[t] + index[first[t]] * stride[t] + index[second[t]]
        self._table = np.concatenate(tables)
        self._offsets = np.cumsum([0] + [t.size for t in tables[:-1]])[reads][:, None]
        self._first = np.array(first)
        self._second = np.array(second)
        self._strides = np.array(stride)[:, None]
        # rows per gather, so one (terms, rows) gather stays bounded
        self._chunk = max(1, _GATHER_ELEMENTS // len(reads))
        # a column per axis; negative indices wrap to large unsigned ones, so
        # one comparison checks both ends of the range
        self._sizes = np.array(sizes, dtype=np.uintp)[:, None]

    def _predict(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(accuracy, cost) of the genotypes in the columns of ``cols``."""
        flat = cols.take(self._first, axis=0)
        flat *= self._strides
        flat += self._offsets
        flat += cols.take(self._second, axis=0)
        terms = self._table.take(flat)
        products = terms[self._factor_slices[0]]
        for factors in self._factor_slices[1:]:  # block products in axis order
            products = products * terms[factors]
        # each column sums its terms one by one from the first, so a row's
        # bits do not depend on its batch. Over a C-ordered (terms, rows)
        # block of two or more columns, an axis-0 reduce adds row after row
        # into one row of partial sums: that left fold, several times faster
        # than an accumulate. A single column is one contiguous run, which a
        # reduce sums pairwise, so it keeps the accumulate
        logits = terms[: self._accuracy_terms]
        if terms.shape[1] > 1:
            logits, cost = np.add.reduce(logits, axis=0), np.add.reduce(products, axis=0)
        else:
            logits, cost = np.add.accumulate(logits, axis=0)[-1], np.add.accumulate(products, axis=0)[-1]
        # the logistic of the negated logit; reciprocal rounds as 1.0 / x does
        return np.reciprocal(np.exp(logits) + 1.0), cost

    def predict_many(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(accuracy, cost) arrays for a ``(rows, num_axes)`` matrix of value
        indices into ``self.space``, each of shape ``(rows,)``; any other
        input raises ``ValueError``."""
        idx = np.asarray(indices)
        if idx.ndim != 2 or idx.shape[1] != len(self._sizes):
            raise ValueError("index rows do not match the space")
        if idx.dtype.kind not in "iu":
            raise ValueError("value indices must be integers")
        cols = idx.T.astype(np.intp, copy=False)  # offsets overflow narrow dtypes
        if np.count_nonzero(cols.view(np.uintp) >= self._sizes):
            raise ValueError("value index out of range for the space")
        rows = cols.shape[1]
        if rows <= self._chunk:
            return self._predict(cols)
        accuracy, cost = np.empty(rows), np.empty(rows)
        for start in range(0, rows, self._chunk):
            part = slice(start, start + self._chunk)
            accuracy[part], cost[part] = self._predict(cols[:, part])
        return accuracy, cost

    # indices_of checks membership, so the one-genotype methods pass its
    # indices straight to the kernel as a one-row column matrix
    def predict_accuracy(self, genotype: Genotype) -> float:
        return float(self._predict(self.space.indices_of(genotype)[:, None])[0][0])

    def predict_cost(self, genotype: Genotype) -> float:
        return float(self._predict(self.space.indices_of(genotype)[:, None])[1][0])
