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
    # 10 D + sum(x^2 - 10 cos(2 pi x)), in place; np.add.reduce gives the
    # bits of np.sum without its Python-level wrapper
    waves = xs * (2.0 * np.pi)
    np.cos(waves, out=waves)
    waves *= 10.0
    terms = xs * xs
    terms -= waves
    sums = np.add.reduce(terms, axis=1)
    sums += 10.0 * xs.shape[1]
    return sums


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

    All tables lie in one flat vector, so that every term's index is the sum
    of two per-axis parts. With ``col`` the prefix sums of the axis sizes,
    value ``b`` of axis ``j`` has the position ``col[j] + b``. The axis
    weights lie in one row indexed by position, and so do the cost factors.
    Axis ``i``'s pair tables lie row by row: row ``a`` holds row ``a`` of
    every pair ``(i, j > i)`` in turn, so pair ``(i, j)`` reads
    ``(start[i] - col[i + 1] + a * width[i]) + (col[j] + b)``, where
    ``width[i]`` sums the sizes of the axes after ``i``. The first part is a
    lookup by ``a``'s position. The table holds each seeded entry once, plus
    a row of ones that pads short blocks.

    The kernel gathers into buffers the instance keeps and grows to the
    largest batch it has seen, so one instance is not reentrant: two threads
    must not call it at once. ``run``'s seed workers are forked processes,
    each with its own copy.
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
        weights = [-rng.normal(0.0, main_sd, size=n) for n in sizes]
        # axis i's pair tables side by side: row a holds row a of every pair
        # (i, j > i), so the pairs keep their (i, j) draw order
        pair_rows = [
            np.hstack([np.empty((n, 0))] + [-rng.normal(0.0, pair_sd, size=(n, sizes[j])) for j in range(i + 1, m)])
            for i, n in enumerate(sizes)
        ]
        cost_weights = rng.uniform(0.5, 1.5, size=m)
        col = np.cumsum((0,) + sizes)
        # source rows of the index parts: the m positions, then the m pair
        # lookups, then one constant row each for the axis weights, the cost
        # factors and the ones
        main_row, cost_row, ones_row = 2 * m, 2 * m + 1, 2 * m + 2
        first, second = [main_row] * m, list(range(m))
        for i in range(m):
            first += [m + i] * (m - 1 - i)
            second += range(i + 1, m)
        self._accuracy_terms = len(first)

        # axes following the <block>_{width,expansion,depth} convention cost a
        # per-block product; any other axis is a block of its own, after the
        # named blocks. Each axis has its per-index factor in the cost row,
        # and a block shorter than the longest is padded with ones: x * 1.0
        # is x.
        blocks: dict[str, list[int]] = {}
        additive: list[list[int]] = []
        factors = []
        for i, axis in enumerate(space.axes):
            match = _BLOCK_AXIS.match(axis.name)
            if match:
                blocks.setdefault(match.group("block"), []).append(i)
                factors.append(np.array([_cost_factor(axis, k) for k in range(axis.size)]))
            else:
                additive.append([i])
                factors.append(cost_weights[i] * np.arange(1, axis.size + 1))
        slots = list(blocks.values()) + additive
        width = max(map(len, slots))
        # the first factor of every block, then the second, and so on; a
        # factor past the block's end reads the ones at axis 0's position
        start = self._accuracy_terms
        self._factor_slices = [slice(start + k * len(slots), start + (k + 1) * len(slots)) for k in range(width)]
        for k in range(width):
            for axes in slots:
                first.append(cost_row if k < len(axes) else ones_row)
                second.append(axes[k] if k < len(axes) else 0)

        tables = weights + pair_rows + factors + [np.ones(sizes[0])]
        offsets = np.cumsum([0] + [t.size for t in tables])
        self._table = np.concatenate([t.ravel() for t in tables])
        # position col[i] + a looks up start[i] - col[i + 1] + a * width[i],
        # with start[i] the offset of axis i's pair rows and width[i] their
        # length
        base, row_width = offsets[m : 2 * m] - col[1:], col[-1] - col[1:]
        self._lookup = np.concatenate(
            [base[i] + row_width[i] * np.arange(n) for i, n in enumerate(sizes)], dtype=np.intp
        )
        self._col = col[:-1, None]
        # the offsets of the axis weights, cost factors and ones rows
        self._constants = offsets[[0, 2 * m, 3 * m], None]
        self._first = np.array(first, dtype=np.intp)
        self._second = np.array(second, dtype=np.intp)
        # rows per gather, so one (terms, rows) gather stays bounded
        self._chunk = max(1, _GATHER_ELEMENTS // len(first))
        # the kernel gathers into three buffers of ``_capacity`` rows, the
        # largest batch yet; ``_views`` shows them at the last batch's rows
        self._capacity = 0
        self._buffers = np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
        self._resize(0)
        # a column per axis; negative indices wrap to large unsigned ones, so
        # one comparison checks both ends of the range
        self._sizes = np.array(sizes, dtype=np.uintp)[:, None]

    def _resize(self, rows: int) -> None:
        """Point the kernel's ``(parts, rows)`` views at ``rows`` columns of
        its buffers, grown to the largest batch yet: positions, lookups, all
        sources, indices, index scratch and terms."""
        m, count = len(self._col), len(self._first)
        if rows > self._capacity:
            self._capacity = rows
            self._buffers = (
                np.empty((2 * m + 3) * rows, np.intp), np.empty(count * rows, np.intp), np.empty(count * rows)
            )
        sources, flat, terms = self._buffers
        sources = sources[: (2 * m + 3) * rows].reshape(2 * m + 3, rows)
        sources[2 * m :] = self._constants
        flat = flat[: count * rows].reshape(count, rows)
        terms = terms[: count * rows].reshape(count, rows)
        self._rows = rows
        self._views = sources[:m], sources[m : 2 * m], sources, flat, terms.view(np.intp), terms

    def _predict(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(accuracy, cost) of the genotypes in the columns of ``cols``."""
        if cols.shape[1] != self._rows:
            self._resize(cols.shape[1])
        positions, lookups, sources, flat, scratch, terms = self._views
        # every index is in range here: predict_many and indices_of checked
        # the value indices, and the tables and lookup cover every position,
        # so mode="clip" never clips. It lets take write straight into out,
        # where the default mode would buffer and copy
        np.add(cols, self._col, out=positions)
        self._lookup.take(positions, out=lookups, mode="clip")
        sources.take(self._first, axis=0, out=flat, mode="clip")
        sources.take(self._second, axis=0, out=scratch, mode="clip")
        flat += scratch
        self._table.take(flat, out=terms, mode="clip")
        products = terms[self._factor_slices[0]]
        for factors in self._factor_slices[1:]:  # block products in axis order
            products = products * terms[factors]
        # each column sums its terms one by one from the first, so a row's
        # bits do not depend on its batch. Over a C-ordered (terms, rows)
        # block of two or more columns, an axis-0 reduce adds row after row
        # into one row of partial sums: that left fold, several times faster
        # than an accumulate. A single column is one contiguous run, which a
        # reduce sums pairwise, so it keeps the accumulate. Either way the
        # results are new arrays, never views of the buffers
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
        cols = idx.T.astype(np.intp, copy=False)  # so negative indices view as large unsigned ones
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
