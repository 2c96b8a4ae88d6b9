"""Property tests: the tiled, in-place level split == the whole-array one.

:func:`~repro.fl.aggregation.level_sums` splits its addends onto the three
summation grids a block of ``_LEVEL_BLOCK`` trailing elements at a time, in
two reused buffers.  The split is elementwise and every per-level sum is
exact, so blocking must be invisible: the reference below is the untiled
split (every level's part and residual materialised at full size, summed
once), and the two are compared byte for byte on shapes that straddle the
block edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fl import aggregation
from repro.fl.aggregation import NUM_LEVELS, level_sums

BLOCK = aggregation._LEVEL_BLOCK


def untiled_level_sums(values):
    """The three-grid split over the whole array at once."""
    residual = np.asarray(values, dtype=np.float64)
    parts = []
    for exponent in aggregation._LEVEL_EXPONENTS:
        anchor = np.ldexp(1.5, 52 + exponent)
        hi = (residual + anchor) - anchor
        parts.append(hi)
        residual = residual - hi
    return np.stack([part.sum(axis=0) for part in parts])


def _addends(seed, count, trailing, dtype):
    """Magnitudes over ~12 decades, both signs, exact zeros mixed in."""
    rng = np.random.default_rng(seed)
    shape = (count,) + trailing
    values = (rng.standard_normal(shape)
              * 10.0 ** rng.uniform(-9.0, 3.0, size=shape))
    values[rng.random(shape) < 0.05] = 0.0
    return values.astype(dtype)


@given(count=st.integers(min_value=1, max_value=40),
       width=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                              2 * BLOCK + 3]),
       lead=st.sampled_from([(), (3,)]),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_tiled_equals_untiled(count, width, lead, dtype, seed):
    values = _addends(seed, count, lead + (width,), dtype)
    tiled = level_sums(values)
    assert tiled.shape == (NUM_LEVELS,) + values.shape[1:]
    assert tiled.dtype == np.float64
    assert tiled.tobytes() == untiled_level_sums(values).tobytes()


def test_vector_of_addends():
    """A 1-D input (the fold's weight tables and loss sums) has one
    trailing element per addend row."""
    values = _addends(5, 17, (), np.float64)
    assert level_sums(values).tobytes() == \
        untiled_level_sums(values).tobytes()


def test_no_addends_sum_to_zero():
    assert not level_sums(np.empty((0, BLOCK + 1))).any()


@pytest.mark.parametrize("bad", [2.0 ** 13, -2.0 ** 14, np.inf, np.nan])
def test_domain_is_checked_in_every_block(bad):
    values = np.zeros((4, 2 * BLOCK + 1))
    values[2, BLOCK + 7] = bad  # outside the first block
    with pytest.raises(ValueError,
                       match="reproducible-summation domain"):
        level_sums(values)
