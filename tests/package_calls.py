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
def package_calls(split: str | None = None):
    """Yield a list of call counts. The last entry counts the calls so far;
    each call of a package function named ``split`` starts a new entry."""
    counts = [0]

    def count(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            if frame.f_code.co_name == split:
                counts.append(0)
            counts[-1] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield counts
    finally:
        sys.setprofile(previous)
