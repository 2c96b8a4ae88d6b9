"""Compact training is masked training, minus the zeros.

A masked client trains the sub-network its mask keeps
(:mod:`repro.nn.compact`) instead of the full model with masked outputs
and gradients.  Both compute the same function of the same active
weights; only the GEMMs' rounding differs, because the compact products
leave out terms that are exactly zero.  So against the dense-mask route
(:meth:`ModelMask.apply` + ``train_step``, the route every model that
cannot be cut still takes) every parameter is ``allclose``, exactly the
same entries move, the losses agree within float32 rounding and the
client's RNG ends in the same state.  A full mask is the identity: bit
for bit.  Weight decay is where the routes part on purpose: a masked full
model decays its inactive weights, a compact one leaves them untouched.
"""

import numpy as np
import pytest

from repro.core.selection import SoftTrainingSelector
from repro.data.synthetic import (SyntheticImageSpec,
                                  make_classification_images)
from repro.fl import ClientConfig, FLClient
from repro.nn import ModelMask
from repro.nn.compact import (Compaction, Scatter, compact_shape,
                              compactable)
from repro.nn.layers import (BatchNorm1D, Conv2D, Dense, Flatten,
                             GlobalAvgPool2D, ReLU, Sigmoid)
from repro.nn.model import Sequential
from repro.nn.models import build_model

from ..conftest import FAST_DEVICE

_SPEC = SyntheticImageSpec(
    name="compact", image_shape=(1, 16, 16), num_classes=4, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)


def dense_model():
    """One Dense layer: the masked layer is the output."""
    rng = np.random.default_rng(1)
    return Sequential([Flatten(name="flatten"),
                       Dense(256, 4, rng=rng, name="output")], name="dense")


def conv_model():
    """Conv2D is the last neuron layer: its Scatter fills channels."""
    rng = np.random.default_rng(2)
    return Sequential([Conv2D(1, 4, 3, padding=1, rng=rng, name="conv"),
                       ReLU(name="relu"), GlobalAvgPool2D(name="gap")],
                      name="conv")


def mlp_model():
    return build_model("mlp", (1, 16, 16), 4, width_multiplier=0.25,
                       rng=np.random.default_rng(3))


def lenet_model():
    return build_model("lenet", (1, 16, 16), 4, width_multiplier=0.5,
                       rng=np.random.default_rng(4))


MODELS = {"dense": dense_model, "conv": conv_model, "mlp": mlp_model,
          "lenet": lenet_model}


def _single_neuron(model, rng):
    """Every layer keeps one neuron."""
    masks = {}
    for layer in model.neuron_layers():
        mask = np.zeros(layer.num_neurons, bool)
        mask[rng.integers(layer.num_neurons)] = True
        masks[layer.name] = mask
    return ModelMask(masks)


def _forced_rejoins(model, rng):
    """A quarter-volume selection whose budget overdue neurons grew."""
    fractions = {layer.name: 0.25 for layer in model.neuron_layers()}
    selector = SoftTrainingSelector(model, fractions, rng=rng)
    overdue = {layer.name: np.arange(0, layer.num_neurons, 2)
               for layer in model.neuron_layers()}
    mask = selector.select(forced=overdue)
    for name, count in selector.selection_counts().items():
        assert mask.active_counts()[name] == max(count, len(overdue[name]))
    return mask


MASKS = {
    "single-neuron": _single_neuron,
    "half-with-output": lambda model, rng: ModelMask.random(
        model, {layer.name: 0.5 for layer in model.neuron_layers()}, rng),
    "hidden-only": lambda model, rng: ModelMask.random(
        model, {layer.name: 0.5 for layer in model.neuron_layers()[:-1]},
        rng),
    "forced-rejoins": _forced_rejoins,
    "full": lambda model, rng: ModelMask.full(model),
}

CONFIGS = {
    "sgd": ClientConfig(batch_size=12, local_epochs=2, learning_rate=0.1),
    "momentum": ClientConfig(batch_size=12, local_epochs=2,
                             learning_rate=0.1, momentum=0.9),
}


def make_client(factory, config):
    dataset = make_classification_images(40, _SPEC,
                                         np.random.default_rng(5))
    return FLClient(client_id=1, dataset=dataset, device=FAST_DEVICE,
                    model_factory=factory, config=config, seed=6)


def train_dense_masked(client, weights, mask):
    """The dense-mask route: the full model, outputs and gradients masked."""
    model = client.model
    model.set_weights(weights)
    mask.apply(model)
    model.train()
    loss_fn = client.loss_factory()
    optimizer = client.config.make_optimizer(model.parameters())
    losses = [model.train_step(images, labels, loss_fn, optimizer)
              for _ in range(client.config.local_epochs)
              for images, labels in client.dataset.batches(
                  client.config.batch_size, rng=client.rng)]
    model.clear_neuron_masks()
    return float(np.mean(losses)), model.get_weights()


def both_routes(model_name, mask_name, config):
    factory = MODELS[model_name]
    weights = factory().get_weights()
    mask = MASKS[mask_name](factory(), np.random.default_rng(8))
    dense_client = make_client(factory, config)
    compact_client = make_client(factory, config)
    loss, dense = train_dense_masked(dense_client, weights, mask)
    update = compact_client.local_train(weights, mask=mask)
    assert (dense_client.rng.bit_generator.state
            == compact_client.rng.bit_generator.state)
    return weights, (loss, dense), (update.train_loss, update.weights)


class TestEquivalence:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("mask_name", sorted(MASKS))
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_compact_matches_dense_mask(self, model_name, mask_name, config):
        weights, (dense_loss, dense), (compact_loss, compact) = both_routes(
            model_name, mask_name, CONFIGS[config])
        assert compact_loss == pytest.approx(dense_loss, rel=1e-5)
        for name, before in weights.items():
            assert compact[name].dtype == before.dtype
            np.testing.assert_allclose(compact[name], dense[name],
                                       rtol=1e-4, atol=1e-6, err_msg=name)
            np.testing.assert_array_equal(compact[name] != before,
                                          dense[name] != before,
                                          err_msg=name)
        if mask_name == "full":
            for name in weights:
                assert compact[name].tobytes() == dense[name].tobytes()

    def test_weight_decay_leaves_inactive_weights_untouched(self):
        config = ClientConfig(batch_size=12, local_epochs=2,
                              learning_rate=0.1, weight_decay=0.05)
        model = lenet_model()
        mask = MASKS["half-with-output"](model, np.random.default_rng(8))
        weights, (_, dense), (_, compact) = both_routes(
            "lenet", "half-with-output", config)
        compaction = Compaction(model, mask)
        # The entries the compact model holds: ones scattered into zeros.
        held = compaction.scatter(
            {name: np.ones_like(value)
             for name, value in compaction.gather(weights).items()},
            {name: np.zeros_like(value) for name, value in weights.items()})
        for name, before in weights.items():
            kept = held[name] == 1
            # Compact: every inactive entry is the global weight, bit for
            # bit.  Dense mask: weight decay moved them (0 + wd * w).
            assert compact[name][~kept].tobytes() == before[~kept].tobytes()
            nonzero = before[~kept] != 0
            assert np.all(dense[name][~kept][nonzero]
                          != before[~kept][nonzero])
            np.testing.assert_allclose(compact[name][kept], dense[name][kept],
                                       rtol=1e-4, atol=1e-6, err_msg=name)


class TestCompaction:
    def test_lenet_layers_are_cut_to_the_active_neurons(self):
        model = lenet_model()
        mask = MASKS["half-with-output"](model, np.random.default_rng(0))
        compact = Compaction(model, mask).model
        counts = mask.active_counts()
        neurons = [layer for layer in compact.layers
                   if isinstance(layer, (Dense, Conv2D))]
        assert [layer.num_neurons for layer in neurons] == [
            counts[layer.name] for layer in model.neuron_layers()]
        conv2 = neurons[1]
        fc1 = neurons[2]
        assert conv2.in_channels == counts["lenet/conv1"]
        # Behind the Flatten each active channel is a 2x2 block.
        assert fc1.in_features == counts["lenet/conv2"] * 4
        assert isinstance(compact.layers[-1], Scatter)
        assert compact.layers[-1].width == 4

    def test_gather_then_scatter_is_the_identity(self):
        model = lenet_model()
        weights = model.get_weights()
        compaction = Compaction(
            model, MASKS["single-neuron"](model, np.random.default_rng(1)))
        gathered = compaction.gather(weights)
        restored = compaction.scatter(gathered, weights)
        for name, value in weights.items():
            assert restored[name].tobytes() == value.tobytes()
            assert restored[name] is not value
            if name in gathered:
                assert gathered[name].flags.c_contiguous

    def test_unmasked_output_needs_no_scatter(self):
        model = mlp_model()
        compact = Compaction(model, MASKS["hidden-only"](
            model, np.random.default_rng(2))).model
        assert not any(isinstance(layer, Scatter) for layer in compact.layers)

    def test_refuses_what_apply_refuses(self):
        model = mlp_model()
        with pytest.raises(KeyError):
            Compaction(model, ModelMask({"nope": np.ones(3, bool)}))
        with pytest.raises(ValueError, match="mask shape"):
            Compaction(model, ModelMask({"mlp/fc1": np.ones(3, bool)}))
        compaction = Compaction(model, None)
        weights = model.get_weights()
        weights.pop("mlp/fc1/bias")
        with pytest.raises(KeyError):
            compaction.gather(weights)

    @pytest.mark.parametrize("layer", [
        lambda: Sigmoid(name="act"), lambda: BatchNorm1D(4, name="bn")])
    def test_layers_that_move_zero_are_not_compactable(self, layer):
        rng = np.random.default_rng(0)
        model = Sequential([Flatten(name="flatten"),
                            Dense(256, 4, rng=rng, name="fc"), layer(),
                            Dense(4, 4, rng=rng, name="output")])
        assert not compactable(model)
        with pytest.raises(ValueError, match="cannot train compact"):
            Compaction(model, None)
        assert compactable(mlp_model()) and compactable(lenet_model())

    def test_compact_shape_counts_active_neurons(self):
        model = mlp_model()
        full = compact_shape(model, None)
        assert full == tuple(model.neuron_counts())
        assert compact_shape(model, ModelMask.full(model)) == full
        mask = MASKS["single-neuron"](model, np.random.default_rng(0))
        assert compact_shape(model, mask) == (1,) * len(full)


class TestScatter:
    @pytest.mark.parametrize("shape", [(5, 3), (5, 3, 2, 2)],
                             ids=["features", "channels"])
    def test_twin_slices_equal_the_plain_layer(self, shape):
        rng = np.random.default_rng(0)
        index = np.stack([np.sort(rng.permutation(7)[:3])
                          for _ in range(2)])
        twin = Scatter(index[0], 7, name="s").stacked(2)
        twin.set_buffer("s/index", index)
        inputs = rng.normal(size=(2,) + shape).astype(np.float32)
        outputs = twin.forward(inputs)
        grad = rng.normal(size=outputs.shape).astype(np.float32)
        grad_in = twin.backward(grad)
        for client in range(2):
            plain = Scatter(index[client], 7)
            expected = plain.forward(inputs[client])
            assert outputs[client].tobytes() == expected.tobytes()
            axis = 1
            assert expected.shape[axis] == 7
            kept = np.zeros(7, bool)
            kept[index[client]] = True
            assert not np.take(expected, np.flatnonzero(~kept),
                               axis=axis).any()
            assert (grad_in[client].tobytes()
                    == plain.backward(grad[client]).tobytes())

    def test_refuses_backward_before_forward(self):
        with pytest.raises(RuntimeError, match="before forward"):
            Scatter(np.arange(2), 4).stacked(2).backward(np.zeros((2, 1, 4)))
