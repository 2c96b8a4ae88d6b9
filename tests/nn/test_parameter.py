"""Tests for repro.nn.parameter."""

import numpy as np
import pytest

from repro.nn import Parameter


class TestParameterBasics:
    @pytest.mark.parametrize("data", [np.ones((2, 3), dtype=np.float32),
                                      np.ones((2, 3)), [[1, 2, 3]]],
                             ids=["float32", "float64", "ints"])
    def test_data_and_grad_are_float32(self, data):
        param = Parameter(data)
        assert param.data.dtype == param.grad.dtype == np.float32

    def test_copy_keeps_a_widened_dtype(self):
        param = Parameter(np.ones(3))
        param.data = param.data.astype(np.float64)
        param.zero_grad()
        clone = param.copy()
        assert clone.data.dtype == clone.grad.dtype == np.float64
        assert clone.data is not param.data

    def test_grad_initialized_to_zeros(self):
        param = Parameter(np.ones((2, 3)))
        assert np.all(param.grad == 0.0)
        assert param.grad.shape == (2, 3)

    def test_shape_and_size(self):
        param = Parameter(np.zeros((4, 5)))
        assert param.shape == (4, 5)
        assert param.size == 20

    def test_zero_grad_resets(self):
        param = Parameter(np.ones(3))
        param.accumulate(np.full(3, 5.0, np.float32))
        param.zero_grad()
        assert np.all(param.grad == 0.0)

    def test_no_gradient_buffer_until_a_gradient_arrives(self):
        """``grad`` is a read-only zero view until ``accumulate`` hands
        over a fresh array, which then *is* the gradient; the sum is the
        zeroed-buffer sum bit for bit (``-0.0`` comes out ``+0.0``)."""
        param = Parameter(np.ones(4))
        assert not param.grad.flags.writeable and param.grad.nbytes == 16
        arriving = np.array([-0.0, 1.5, -2.0, 0.0], np.float32)
        param.accumulate(arriving)
        assert param.grad is arriving
        assert param.grad.tobytes() == (np.zeros(4, np.float32)
                                        + arriving).tobytes()
        assert not np.signbit(param.grad[0])
        param.accumulate(np.ones(4, np.float32))
        np.testing.assert_array_equal(param.grad, [1.0, 2.5, -1.0, 1.0])

    def test_accumulate_keeps_dtype_and_layout(self):
        param = Parameter(np.ones((2, 3)))
        param.accumulate(np.ones((3, 2), np.float64).T)
        assert param.grad.dtype == np.float32
        assert param.grad.flags.c_contiguous
        np.testing.assert_array_equal(param.grad, np.ones((2, 3)))

    def test_default_name(self):
        param = Parameter(np.zeros(2))
        assert param.name == "param"


class TestNeuronStructure:
    def test_num_neurons_axis0(self):
        param = Parameter(np.zeros((6, 3)), neuron_axis=0)
        assert param.num_neurons == 6

    def test_num_neurons_other_axis(self):
        param = Parameter(np.zeros((6, 3)), neuron_axis=1)
        assert param.num_neurons == 3

    def test_num_neurons_unstructured(self):
        param = Parameter(np.zeros((6, 3)), neuron_axis=None)
        assert param.num_neurons == 0

    def test_neuron_slice(self):
        data = np.arange(12).reshape(4, 3)
        param = Parameter(data, neuron_axis=0)
        np.testing.assert_array_equal(param.neuron_slice(2), data[2])

    def test_neuron_slice_unstructured_raises(self):
        param = Parameter(np.zeros(3), neuron_axis=None)
        with pytest.raises(ValueError):
            param.neuron_slice(0)

    def test_neuron_norms(self):
        data = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        param = Parameter(data, neuron_axis=0)
        np.testing.assert_allclose(param.neuron_norms(), [5.0, 0.0, 1.0])

    def test_neuron_norms_respects_axis(self):
        data = np.array([[3.0, 0.0], [4.0, 1.0]])
        param = Parameter(data, neuron_axis=1)
        np.testing.assert_allclose(param.neuron_norms(), [5.0, 1.0])

    def test_neuron_norms_unstructured_raises(self):
        param = Parameter(np.zeros(3), neuron_axis=None)
        with pytest.raises(ValueError):
            param.neuron_norms()


class TestCopy:
    def test_copy_is_deep(self):
        param = Parameter(np.ones((2, 2)), name="w")
        param.accumulate(np.ones((2, 2), np.float32))
        clone = param.copy()
        clone.data[0, 0] = 99.0
        clone.grad[0, 0] = 99.0
        assert param.data[0, 0] == 1.0
        assert param.grad[0, 0] == 1.0

    def test_copy_preserves_metadata(self):
        param = Parameter(np.ones((2, 2)), name="w", neuron_axis=1)
        clone = param.copy()
        assert clone.name == "w"
        assert clone.neuron_axis == 1
