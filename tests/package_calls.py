"""Count the Python-level calls into the package's own functions while code
runs, under ``sys.setprofile``. numpy's Python wrappers, which change
between numpy versions, do not count; the package's comprehensions, lambdas
and generators do, one per entry or resumption."""

import os
import sys
from contextlib import contextmanager
from pathlib import Path

import shsade_pids

PACKAGE = str(Path(shsade_pids.__file__).parent) + os.sep


@contextmanager
def package_calls(split: str | None = None, within: str | None = None):
    """Yield a list of call counts. The last entry counts the calls so far;
    each call of a package function named ``split`` starts a new entry.
    With ``within``, only the calls made while a package function of that
    name runs count, its own call included."""
    counts = [0]
    depth = 0  # frames named ``within`` that are running

    def count(frame, event, _arg):
        nonlocal depth
        if event not in ("call", "return") or not frame.f_code.co_filename.startswith(PACKAGE):
            return
        name = frame.f_code.co_name
        if event == "return":
            depth -= name == within
            return
        depth += name == within
        if within is None or depth:
            if name == split:
                counts.append(0)
            counts[-1] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield counts
    finally:
        sys.setprofile(previous)
