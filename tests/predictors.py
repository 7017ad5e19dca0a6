"""Test predictors. The searches and the oracle score only through
``predict_many``; the one-genotype methods, which ``nas_search.score`` and
``reference_drivers`` call, are one-row calls into it, as
``TabularSurrogate``'s are. Each logs the rows of every ``predict_many``
call in ``batches``."""

import numpy as np


class LoggedPredictor:
    """``predict_many`` logs its rows, then ``_predict`` scores them."""

    def predict_many(self, indices):
        self.batches.append(np.array(indices))
        return self._predict(self.batches[-1])

    @property
    def rows(self):
        """Every row scored, as a tuple of value indices, in call order."""
        return [tuple(row) for batch in self.batches for row in batch.tolist()]

    def predict_accuracy(self, genotype):
        return self.predict_many(self.space.indices_of(genotype)[None])[0].item()

    def predict_cost(self, genotype):
        return self.predict_many(self.space.indices_of(genotype)[None])[1].item()


class RowPredictor(LoggedPredictor):
    """Accuracy ``accuracy(row)`` of each row of value indices into ``space``,
    a tuple, and one constant cost."""

    def __init__(self, space, accuracy, cost=1.0):
        self.space, self.accuracy, self.cost = space, accuracy, cost
        self.batches = []

    def _predict(self, indices):
        accuracy = [self.accuracy(row) for row in map(tuple, indices.tolist())]
        return np.array(accuracy, dtype=float), np.full(len(indices), float(self.cost))


def constant(space, accuracy=0.5, cost=1.0):
    """The same accuracy and cost for every genotype of ``space``."""
    return RowPredictor(space, lambda _row: accuracy, cost)


class SurrogateLog(LoggedPredictor):
    """A surrogate whose accuracy reads ``overrides[row]`` for the rows of
    value indices, as tuples, that ``overrides`` holds."""

    def __init__(self, surrogate, overrides=None):
        self.surrogate, self.space, self.overrides = surrogate, surrogate.space, overrides or {}
        self.batches = []

    def _predict(self, indices):
        accuracy, cost = self.surrogate.predict_many(indices)
        for k, row in enumerate(map(tuple, indices.tolist())):
            accuracy[k] = self.overrides.get(row, accuracy[k])
        return accuracy, cost
