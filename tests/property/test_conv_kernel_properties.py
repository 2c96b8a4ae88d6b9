"""Property test: the conv/pool kernels equal the kernels they replaced.

Whatever the geometry — batch 1-5, channels 1-4, non-square inputs and
kernels, stride 1-3, padding 0-2, input sizes the stride does not divide,
with and without a neuron mask (all-False included), as a compact layer
of one filter or none — ``Conv2D`` agrees with the im2col and the
channel-major reference kernels to ``allclose(rtol=1e-10, atol=1e-12)``,
``AvgPool2D`` likewise, and ``MaxPool2D`` outputs and gradient routing are
exactly equal for unpadded windows, overlapping or not, on inputs full of
ties.  The grid in ``tests/nn/test_conv_kernels.py`` pins named cases; this
file searches the space between them.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from ..nn.test_conv_kernels import (assert_avgpool_matches_reference,
                                    assert_conv_matches_reference,
                                    assert_maxpool_matches_reference)


def pairs(low, high):
    return st.tuples(st.integers(low, high), st.integers(low, high))


sizes = pairs(1, 9)
kernels = pairs(1, 4)
strides = pairs(1, 3)


def _fits(size, kernel, stride, padding):
    """Every output dimension is positive."""
    return all((dim + 2 * pad - window) // step + 1 > 0
               for dim, window, step, pad in zip(size, kernel, stride,
                                                 padding))


@settings(max_examples=120, deadline=None)
@given(batch=st.integers(1, 5), in_channels=st.integers(1, 4),
       out_channels=st.integers(1, 4), size=sizes, kernel=kernels,
       stride=strides, padding=pairs(0, 2), use_bias=st.booleans(),
       mask_bits=st.one_of(st.none(), st.integers(0, 15)),
       active=st.one_of(st.none(), st.integers(0, 1)),
       seed=st.integers(0, 2**20))
def test_conv_matches_reference(batch, in_channels, out_channels, size,
                                kernel, stride, padding, use_bias, mask_bits,
                                active, seed):
    assume(_fits(size, kernel, stride, padding))
    mask = None
    if mask_bits is not None and active is None:
        mask = np.array([bool(mask_bits >> bit & 1)
                         for bit in range(out_channels)])
    assert_conv_matches_reference(batch, in_channels, out_channels, size,
                                  kernel, stride, padding, mask=mask,
                                  use_bias=use_bias, seed=seed,
                                  active=active)


@settings(max_examples=120, deadline=None)
@given(batch=st.integers(1, 5), channels=st.integers(1, 4), size=sizes,
       kernel=kernels, stride=st.one_of(st.none(), strides),
       levels=st.one_of(st.none(), st.integers(1, 4)),
       seed=st.integers(0, 2**20))
def test_maxpool_equals_reference_exactly(batch, channels, size, kernel,
                                          stride, levels, seed):
    assume(_fits(size, kernel, stride or kernel, (0, 0)))
    rng = np.random.default_rng(seed)
    shape = (batch, channels) + size
    if levels is None:
        inputs = rng.normal(size=shape)
    else:
        # ``levels`` distinct values: 1 is an all-equal input, 2-4 leave
        # most windows with tied maxima, as a post-ReLU activation does.
        inputs = rng.integers(0, levels, size=shape).astype(np.float64) - 1.0
    assert_maxpool_matches_reference(inputs, kernel, stride, seed=seed)


@settings(max_examples=120, deadline=None)
@given(batch=st.integers(1, 5), channels=st.integers(1, 4), size=sizes,
       kernel=kernels, stride=st.one_of(st.none(), strides),
       padding=pairs(0, 2), seed=st.integers(0, 2**20))
def test_avgpool_matches_reference(batch, channels, size, kernel, stride,
                                   padding, seed):
    assume(all(pad <= window // 2 for pad, window in zip(padding, kernel)))
    assume(_fits(size, kernel, stride or kernel, padding))
    inputs = np.random.default_rng(seed).normal(
        size=(batch, channels) + size)
    assert_avgpool_matches_reference(inputs, kernel, stride, padding,
                                     seed=seed)
