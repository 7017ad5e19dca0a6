"""Per-generation search traces with a stable CSV on-disk form.

Every optimizer in this package emits the same four-column record so that
runs of different algorithms can be compared point for point.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

COLUMNS = ("generation", "evaluations", "best_fitness", "mean_fitness")


class TraceError(ValueError):
    """Raised when trace rows violate the trace invariants or CSV schema."""


@dataclass
class TraceRow:
    generation: int
    evaluations: int
    best_fitness: float
    mean_fitness: float

    def as_tuple(self) -> tuple:
        return (self.generation, self.evaluations, self.best_fitness, self.mean_fitness)


class SearchTrace:
    """Append-only record of (generation, evaluations, best, mean) rows.

    Two invariants hold at all times: evaluation counts strictly increase
    down the rows and the best fitness never increases. Appending a row at
    an unchanged evaluation count replaces the previous row, so generations
    that consumed no new evaluations collapse into a single record.

    Rows are stored as four typed columns; each read of ``rows`` builds a
    new list of ``TraceRow`` from them, a copy that later appends do not
    change and whose edits do not reach the trace.
    """

    def __init__(self, metadata: dict | None = None):
        self.metadata: dict[str, str] = {str(k): str(v) for k, v in (metadata or {}).items()}
        # generation, evaluations, best_fitness, mean_fitness
        self._columns = (array("q"), array("q"), array("d"), array("d"))

    @property
    def rows(self) -> list[TraceRow]:
        return [TraceRow(*values) for values in zip(*self._columns)]

    def __len__(self) -> int:
        return len(self._columns[0])

    def append(self, generation, evaluations, best_fitness, mean_fitness) -> None:
        generation, evaluations = int(generation), int(evaluations)
        best_fitness, mean_fitness = float(best_fitness), float(mean_fitness)
        if not math.isfinite(best_fitness) or not math.isfinite(mean_fitness):
            raise TraceError("trace rows require finite fitness values")
        gens, evals, best, mean = self._columns
        if evals:
            if evaluations < evals[-1]:
                raise TraceError("evaluation counts must not decrease")
            if best_fitness > best[-1]:
                raise TraceError("best fitness must not increase")
            if evaluations == evals[-1]:
                gens[-1], best[-1], mean[-1] = generation, best_fitness, mean_fitness
                return
        gens.append(generation)
        evals.append(evaluations)
        best.append(best_fitness)
        mean.append(mean_fitness)

    @property
    def final_best(self) -> float:
        if not self:
            raise TraceError("empty trace")
        return self._columns[2][-1]

    @property
    def final_evaluations(self) -> int:
        if not self:
            raise TraceError("empty trace")
        return self._columns[1][-1]

    def best_at(self, evaluations: int) -> float:
        """Best fitness recorded at or before the given evaluation count."""
        # evaluation counts strictly increase down the rows
        k = bisect_right(self._columns[1], evaluations)
        if k == 0:
            raise TraceError(f"no trace rows at or before {evaluations} evaluations")
        return self._columns[2][k - 1]

    def validate(self) -> None:
        """Raise ``TraceError`` unless the rows keep the invariants of
        ``append``: replayed through it, no row may collapse."""
        replay = SearchTrace()
        for row in zip(*self._columns):
            _append_new(replay, row)

    def write_csv(self, path) -> None:
        # every row came through append, which keeps the invariants
        lines = []
        for key in sorted(self.metadata):
            lines.append(f"# {key}: {self.metadata[key]}")
        lines.append(",".join(COLUMNS))
        for generation, evaluations, best_fitness, mean_fitness in zip(*self._columns):
            lines.append(f"{generation},{evaluations},{best_fitness!r},{mean_fitness!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    @classmethod
    def read_csv(cls, path) -> "SearchTrace":
        text = Path(path).read_text(encoding="utf-8")
        trace = cls()
        header_seen = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition(":")
                if not sep:
                    raise TraceError(f"{path}:{lineno}: malformed metadata line")
                trace.metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                if tuple(line.split(",")) != COLUMNS:
                    raise TraceError(f"{path}:{lineno}: unexpected header {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != len(COLUMNS):
                raise TraceError(f"{path}:{lineno}: expected {len(COLUMNS)} columns")
            try:
                # append parses the fields as int, int, float, float
                _append_new(trace, parts)
            except (ValueError, OverflowError) as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
        if not header_seen:
            raise TraceError(f"{path}: missing column header")
        if not trace:
            raise TraceError(f"{path}: no trace rows")
        return trace


def _append_new(trace: SearchTrace, row) -> None:
    """Append ``row`` to ``trace`` as a row of its own: one that would
    collapse into the last row, at its evaluation count, raises."""
    rows = len(trace)
    trace.append(*row)
    if len(trace) == rows:
        raise TraceError("row repeats the evaluation count of the row before it")
