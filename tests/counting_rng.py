"""A ``np.random.Generator`` that counts its ``integers`` calls.

``sys.setprofile`` does not see ``Generator``'s methods, which are compiled,
so ``package_calls`` cannot count draws. This subclass counts them itself.
``np.random.default_rng`` returns any ``Generator`` it is given unchanged, so
code that takes an ``rng`` draws through it."""

import numpy as np


class CountingGenerator(np.random.Generator):
    """The stream of ``np.random.default_rng(seed)``, with the number of
    ``integers`` calls made on it in ``integers_calls``."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.integers_calls = 0

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return super().integers(*args, **kwargs)
