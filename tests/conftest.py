"""Shared fixtures for the test suite.

The fixtures build deliberately tiny models, datasets and fleets so every
test runs in milliseconds while still exercising the real code paths
(convolutions, partial aggregation, cost models, …).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Dataset
from repro.data.synthetic import SyntheticImageSpec, make_classification_images
from repro.fl import (ClientConfig, ClientUpdate, FLClient, FLServer,
                      FederatedSimulation, TrainingJob, finalize_partials)
from repro.hardware import DeviceProfile
from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.model import Sequential

#: A tiny image spec used across data / FL tests (fast to generate & train).
TINY_SPEC = SyntheticImageSpec(
    name="tiny", image_shape=(1, 8, 8), num_classes=4, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(1234)


def make_tiny_dataset(num_samples: int = 80, seed: int = 0) -> Dataset:
    """A small learnable 4-class image dataset (1x8x8)."""
    return make_classification_images(num_samples, TINY_SPEC,
                                      np.random.default_rng(seed))


@pytest.fixture
def tiny_dataset() -> Dataset:
    """80-sample tiny dataset."""
    return make_tiny_dataset()


def make_tiny_model(seed: int = 7) -> Sequential:
    """A small dense classifier over flattened 1x8x8 images."""
    generator = np.random.default_rng(seed)
    return Sequential([
        Flatten(name="flatten"),
        Dense(64, 16, rng=generator, name="fc1"),
        ReLU(name="relu1"),
        Dense(16, 8, rng=generator, name="fc2"),
        ReLU(name="relu2"),
        Dense(8, 4, rng=generator, name="output"),
    ], name="tiny-mlp")


@pytest.fixture
def tiny_model() -> Sequential:
    """Fresh tiny model."""
    return make_tiny_model()


def make_device(name: str = "dev", compute: float = 50.0,
                memory_bw: float = 10.0, network: float = 100.0,
                memory: float = 1024.0) -> DeviceProfile:
    """Convenience device constructor for tests."""
    return DeviceProfile(name=name, compute_gflops=compute,
                         memory_bandwidth_gbps=memory_bw,
                         network_bandwidth_mbps=network,
                         memory_capacity_mb=memory)


FAST_DEVICE = make_device("fast-node", compute=200.0)
SLOW_DEVICE = make_device("slow-node", compute=5.0, memory_bw=2.0,
                          network=20.0, memory=256.0)


def make_tiny_simulation(num_capable: int = 2, num_stragglers: int = 1,
                         samples_per_client: int = 40,
                         seed: int = 0) -> FederatedSimulation:
    """A complete small simulation: tiny model, tiny data, mixed fleet."""
    total_clients = num_capable + num_stragglers
    # One generator call so every client and the test set share the same
    # class prototypes (they solve the same task).
    pool = make_tiny_dataset(samples_per_client * total_clients + 60,
                             seed=seed)
    datasets = [pool.subset(np.arange(index * samples_per_client,
                                      (index + 1) * samples_per_client))
                for index in range(total_clients)]
    test = pool.subset(np.arange(samples_per_client * total_clients,
                                 len(pool)))
    devices = ([FAST_DEVICE.scaled(name=f"capable-{i}")
                for i in range(num_capable)]
               + [SLOW_DEVICE.scaled(name=f"straggler-{i}")
                  for i in range(num_stragglers)])
    config = ClientConfig(batch_size=20, local_epochs=1, learning_rate=0.1)
    server = FLServer(make_tiny_model, test_dataset=test)
    clients = [FLClient(client_id=index, dataset=dataset, device=device,
                        model_factory=make_tiny_model, config=config,
                        seed=seed)
               for index, (dataset, device) in enumerate(zip(datasets,
                                                             devices))]
    return FederatedSimulation(clients, server, input_shape=(1, 8, 8),
                               workload_scale=200.0, seed=seed)


@pytest.fixture
def tiny_simulation() -> FederatedSimulation:
    """2 capable + 1 straggler tiny simulation."""
    return make_tiny_simulation()


def train_clients(sim: FederatedSimulation, indices, weights=None,
                  masks=None, local_epochs=None, base_cycle=0):
    """Train each of ``indices`` from ``weights`` (default: the current
    global model) on ``sim``'s backend and read each trained update back
    through a one-job fold at factor 1, in ``indices`` order.

    No backend returns trained weights: every batch folds where it
    trains.  ``finalize_partials`` of one update folded at factor 1 gives
    back its float32 weights bit for bit (any value the summation grids
    hold exactly — zero or above ``2^-72`` in magnitude, which every
    trained weight here is), so this is how tests compare raw updates
    across backends.  Each client trains in a batch of its own; a client
    a ``degrade`` failover dropped comes back ``None``.
    """
    if weights is None:
        weights = sim.server.get_global_weights()
    masks = masks or {}
    updates = []
    for index in indices:
        job = TrainingJob(index=index, weights=weights, mask=masks.get(index),
                          local_epochs=local_epochs, base_cycle=base_cycle)
        partials, (summary,) = sim.backend.run_fold(sim.clients, [job],
                                                    [1.0])
        if summary is None:
            updates.append(None)
            continue
        updates.append(ClientUpdate(
            client_id=summary.client_id, client_name=summary.client_name,
            weights={name: value.astype(np.float32) for name, value
                     in finalize_partials(None, partials).items()},
            num_samples=summary.num_samples, train_loss=summary.train_loss,
            mask=job.mask, local_epochs=(
                local_epochs or sim.clients[index].config.local_epochs),
            base_cycle=base_cycle))
    return updates


def touch(path) -> None:
    """Create an empty file at ``path`` (a callable a peer might ship)."""
    with open(path, "w", encoding="utf-8"):
        pass


class TouchOnUnpickle:
    """Unpickling this object creates the file at ``path``: the probe of
    tests checking that a peer's bytes run no code."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return touch, (self.path,)
