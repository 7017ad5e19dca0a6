"""Count the Python-level calls into the package's own functions while code
runs, under ``sys.setprofile``. numpy's Python wrappers, which change
between numpy versions, do not count; the package's comprehensions, lambdas
and generators do, one per entry or resumption."""

import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import shsade_pids

PACKAGE = str(Path(shsade_pids.__file__).parent) + os.sep


class CallCounts(list):
    """Call counts, one entry per split, each with a tally beside it in
    ``tallies``: the calls it counted per function, keyed ``module.qualname``."""

    def __init__(self):
        super().__init__([0])
        self.tallies = [Counter()]

    def worst(self, start: int = 0, stop: int | None = None) -> str:
        """The largest count of entries ``start`` to ``stop`` (the last, by
        default) and its tally, most frequent function first, for an
        assertion message."""
        i = max(range(start, len(self) if stop is None else stop), key=self.__getitem__)
        return f"entry {i} of {len(self)}: {self[i]} calls, {dict(self.tallies[i].most_common())}"


@contextmanager
def package_calls(split: str | None = None, within: str | None = None):
    """Yield a ``CallCounts``. The last entry counts the calls so far;
    each call of a package function named ``split`` starts a new entry.
    With ``within``, only the calls made while a package function of that
    name runs count, its own call included."""
    counts = CallCounts()
    depth = 0  # frames named ``within`` that are running

    def count(frame, event, _arg):
        nonlocal depth
        code = frame.f_code
        if event not in ("call", "return") or not code.co_filename.startswith(PACKAGE):
            return
        name = code.co_name
        if event == "return":
            depth -= name == within
            return
        depth += name == within
        if within is None or depth:
            if name == split:
                counts.append(0)
                counts.tallies.append(Counter())
            counts[-1] += 1
            counts.tallies[-1][f"{Path(code.co_filename).stem}.{code.co_qualname}"] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield counts
    finally:
        sys.setprofile(previous)
