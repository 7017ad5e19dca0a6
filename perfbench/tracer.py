"""Spans and counters recorded from outside the package.

The tracer never edits package source. It swaps wrappers onto module
attributes (and a few class attributes) of ``shsade_pids`` and restores
them afterwards, and it hands out proxies for the objective spec and the
predictor. Every span has a name, a start, an end, a parent and an op id.
Parent stacks are kept per thread because the CLI runs seeds on a thread
pool. Spans live in flat arrays until the run ends and are then written to
one ``.npz`` file.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter, defaultdict

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")  # summed duration of direct children
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op_id = SETUP_OP
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.child.append(0.0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        now = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.end[idx] = now
            parent = self.parent[idx]
            if parent >= 0:
                self.child[parent] += now - self.start[idx]

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[self.op_id][name] += n

    def wrap(self, fn, name: str, before=None, after=None):
        """Return ``fn`` timed as span ``name``. ``before(args)`` runs ahead
        of the call and its value reaches ``after(token, args, result)``."""

        def traced(*args, **kwargs):
            token = before(args) if before else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            self.count(name)
            if after:
                after(token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, modules, owner, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``owner.attr`` and rebind every alias of it in ``modules``
        (names imported with ``from ... import``) to the same wrapper."""
        self.replace(modules, owner, attr, self.wrap(getattr(owner, attr), name, before, after))

    def replace(self, modules, owner, attr: str, new) -> None:
        """Rebind ``owner.attr`` and every alias of it in ``modules`` to ``new``."""
        original = getattr(owner, attr)
        for target in [owner] + [m for m in modules if m is not owner]:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._restore.append((target, key, value))
                    setattr(target, key, new)

    def unpatch(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self, ops=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time its direct children cover), over the given op ids."""
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            if ops is not None and self.op[i] not in ops:
                continue
            duration = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name_id[i]], {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - self.child[i]
        return out

    def summed_counts(self, ops) -> Counter:
        total: Counter = Counter()
        for op in ops:
            total.update(self.counts.get(op, {}))
        return total

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


class SpecProxy:
    """Objective spec whose ``evaluate_many`` is a span that counts rows."""

    def __init__(self, spec, tracer: Tracer):
        self._spec = spec
        self.evaluate_many = tracer.wrap(
            spec.evaluate_many,
            "objectives.evaluate_many",
            after=lambda _token, _args, values: tracer.count("objectives.evaluations", len(values)),
        )

    def __getattr__(self, name):
        return getattr(self._spec, name)


class BenchmarkProxy:
    """Benchmark function whose objective spec comes back as a SpecProxy;
    this reaches the spec that ``cli`` builds internally."""

    def __init__(self, bench, tracer: Tracer):
        self._bench = bench
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._bench, name)

    def to_objective_spec(self):
        return SpecProxy(self._bench.to_objective_spec(), self._tracer)


class PredictorProxy:
    """Predictor whose two methods are spans."""

    def __init__(self, predictor, tracer: Tracer):
        self._predictor = predictor
        self.predict_accuracy = tracer.wrap(predictor.predict_accuracy, "objectives.predict_accuracy")
        self.predict_cost = tracer.wrap(predictor.predict_cost, "objectives.predict_cost")

    def __getattr__(self, name):
        return getattr(self._predictor, name)
