"""Hypothesis strategies for random discrete spaces and index batches, shared
by the codec, surrogate and search tests."""

import numpy as np
from hypothesis import assume, strategies as st

from shsade_pids.discrete_codec import Axis, DiscreteSpace

# block-style names take the surrogate's per-block cost product; the rest
# take its additive term
AXIS_NAMES = [f"b{b}_{role}" for b in range(3) for role in ("width", "expansion", "depth")] + [
    f"x{k}" for k in range(8)
]

axis_values = st.lists(
    st.one_of(
        st.integers(-3, 64),
        st.floats(0.25, 64.0, allow_nan=False),
        st.text(alphabet="abc", min_size=1, max_size=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def spaces(draw, max_axes=8, min_genotypes=1):
    """Spaces of 1 to ``max_axes`` axes with 1 to 6 values each and at least
    ``min_genotypes`` genotypes: single-value axes, non-numeric values and
    ``<block>_width``-style names included."""
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1, max_size=max_axes, unique=True))
    space = DiscreteSpace(tuple(Axis(name, tuple(draw(axis_values))) for name in names))
    assume(space.size >= min_genotypes)
    return space


def index_rows(space: DiscreteSpace, rows: int, seed: int) -> np.ndarray:
    """``rows`` uniform rows of value indices into ``space``."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, n, size=rows) for n in space.sizes], axis=1)
