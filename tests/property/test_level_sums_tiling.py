"""Property tests: the tiled, in-place level split == the whole-array one.

:func:`~repro.fl.aggregation._fold_levels`, the one fold kernel behind
:func:`~repro.fl.aggregation.level_sums` and every fold, writes ``scale x
values`` a block of at most ``_LEVEL_BLOCK`` elements at a time into two
reused buffers and splits it onto the three summation grids there.  The
products and the split are elementwise and every per-level sum is exact,
so blocking must be invisible: the reference below is the untiled split
(every level's part and residual materialised at full size, summed
once), and the two are compared byte for byte on shapes that straddle
the block edge.
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


def _edge(count):
    """Elements of each addend row in one block of ``count`` rows."""
    return max(1, BLOCK // count)


@given(count=st.integers(min_value=1, max_value=40),
       offset=st.sampled_from([None, -1, 0, 1, 3]),
       lead=st.sampled_from([(), (3,)]),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_tiled_equals_untiled(count, offset, lead, dtype, seed):
    # Widths around one block edge (``offset``) or two (3), and empty.
    width = (0 if offset is None else
             max(0, (2 if offset == 3 else 1) * _edge(count) + offset))
    values = _addends(seed, count, lead + (width,), dtype)
    tiled = level_sums(values)
    assert tiled.shape == (NUM_LEVELS,) + values.shape[1:]
    assert tiled.dtype == np.float64
    assert tiled.tobytes() == untiled_level_sums(values).tobytes()


@given(count=st.integers(min_value=1, max_value=40),
       neuron_offset=st.sampled_from([-1, 0, 1]),
       rest=st.sampled_from([1, 7, "edge-1", "edge", "edge+1"]),
       per_neuron=st.booleans(),
       neuron_axis=st.sampled_from([0, 1]),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_scaled_kernel_equals_untiled(count, neuron_offset, rest,
                                      per_neuron, neuron_axis, dtype, seed):
    """``scale x values`` in the kernel == the untiled split of the
    float64 product, for per-update and per-neuron scales, with rows of
    neurons on both sides of a block edge and a neuron axis that is not
    the stacked layout's first (a strided view)."""
    edge = _edge(count)
    rest = {"edge-1": max(1, edge - 1), "edge": edge,
            "edge+1": edge + 1}.get(rest, rest)
    neurons = max(1, (edge // rest) * 2 + neuron_offset)
    rng = np.random.default_rng(seed)
    layout = ((count, neurons, rest) if neuron_axis == 0
              else (count, rest, neurons))
    stacked = _addends(seed, layout[0], layout[1:], dtype) / 10.0
    values = stacked if neuron_axis == 0 else stacked.transpose(0, 2, 1)
    scale = rng.uniform(0.0, 1.0, (count, neurons if per_neuron else 1))
    scale[rng.random(scale.shape) < 0.2] = 0.0
    scale = np.broadcast_to(scale, (count, neurons))  # one per update
    tiled = aggregation._fold_levels(values, scale)
    assert tiled.shape == (NUM_LEVELS,) + values.shape[1:]
    assert tiled.dtype == np.float64
    expected = untiled_level_sums(scale[:, :, None]
                                  * values.astype(np.float64))
    assert tiled.tobytes() == expected.tobytes()


def test_vector_of_addends():
    """A 1-D input (the fold's weight tables and loss sums) has one
    trailing element per addend row."""
    values = _addends(5, 17, (), np.float64)
    assert level_sums(values).tobytes() == \
        untiled_level_sums(values).tobytes()


def test_no_addends_sum_to_zero():
    assert not level_sums(np.empty((0, BLOCK + 1))).any()
    sums = aggregation._fold_levels(np.empty((0, 5, BLOCK + 1), np.float32),
                                    np.empty((0, 5)))
    assert sums.shape == (NUM_LEVELS, 5, BLOCK + 1) and not sums.any()


@pytest.mark.parametrize("bad", [2.0 ** 13, -2.0 ** 14, np.inf, np.nan])
def test_domain_is_checked_in_every_block(bad):
    values = np.zeros((4, 2 * _edge(4) + 1))
    values[2, _edge(4) + 7] = bad  # outside the first block
    with pytest.raises(ValueError,
                       match="reproducible-summation domain"):
        level_sums(values)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_domain_is_checked_after_scaling(dtype):
    """A value inside the domain whose product leaves it, in a later
    block, is refused: the check reads the products."""
    values = np.zeros((4, 3, _edge(4)), dtype=dtype)
    values[2, 2, 5] = 2.0 ** 12  # row 2 sits in the third block
    scale = np.ones((4, 3))
    aggregation._fold_levels(values, scale)
    scale[2, 2] = 4.0
    with pytest.raises(ValueError,
                       match="reproducible-summation domain"):
        aggregation._fold_levels(values, scale)
