"""Stacked multi-client training: which clients stack, and the fleet plumbing.

Clients of one topology train as one pass of a stacked twin of their model
(:meth:`Sequential.stacked <repro.nn.model.Sequential.stacked>`): ``nn``'s
own layers, loss and optimizers over a leading client axis.  A masked
client trains its compact sub-network (:mod:`repro.nn.compact`), so the
members of a pass are all active: masked clients stack when their masks
keep equal numbers of neurons per layer, each from its own gathered
snapshot, and each scatters its slice back into full-size weights.  The
training step is spelled once, in :mod:`repro.nn`; this module picks who
stacks, gathers each step's mini-batches from the members' own arrays and
scatters the result back.  Slice ``j`` is bit-identical to client ``j``'s
serial ``local_train`` and refuses what it refuses, with the same
exception type (``tests/fl/test_fusion.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..nn.compact import Compaction, compact_shape, compactable
from ..nn.losses import SoftmaxCrossEntropy
from ..nn.model import Sequential
from ..nn.parameter import Parameter
from .client import ClientConfig, ClientUpdate, FLClient

__all__ = ["cluster_signature", "train_cluster", "train_stacked"]


def cluster_signature(client: FLClient, group: Any,
                      weights_table: Sequence[Dict[str, np.ndarray]]
                      ) -> Optional[Tuple[Any, ...]]:
    """Stacking key of one wire group, or ``None`` if it trains alone.

    Needs a plain ``FLClient`` with the default loss, a
    :func:`~repro.nn.compact.compactable` model, one job and a C-order
    snapshot of the model's shapes.  Equal keys mean equal layers,
    settings, starting weights, schedule, dataset geometry and active
    neurons per layer; which neurons are active may differ.
    """
    model = client.model
    if (len(group.jobs) != 1 or type(client) is not FLClient
            or client.spec.loss_factory is not SoftmaxCrossEntropy
            or not compactable(model)):
        return None
    job = group.jobs[0]
    if not 0 <= job.weights_ref < len(weights_table):
        return None
    for name, param in model.named_parameters().items():
        value = weights_table[job.weights_ref].get(name)
        # Serial's set_weights keeps an F-order snapshot's layout; a twin's
        # slices are C-order, so only that layout stacks.
        if (not isinstance(value, np.ndarray)
                or value.shape != param.data.shape
                or not value.flags.c_contiguous):
            return None
    epochs = (job.local_epochs if job.local_epochs is not None
              else client.config.local_epochs)
    # Each layer's type and public settings: its math besides the weights.
    layers = tuple((type(layer),) + tuple(
        (key, value) for key, value in vars(layer).items()
        if not key.startswith("_") and not isinstance(value, Parameter))
        for layer in model.layers)
    return (job.weights_ref, epochs, client.config,
            client.dataset.images.shape, layers,
            compact_shape(model, job.mask))


def _gather(arrays: Any, picks: np.ndarray) -> np.ndarray:
    """``arrays[j][picks[j]]`` for every client ``j``, stacked."""
    if isinstance(arrays, np.ndarray):
        return arrays[np.arange(len(picks))[:, np.newaxis], picks]
    return np.stack([array[pick] for array, pick in zip(arrays, picks)])


def train_stacked(model: Sequential, snapshot: Mapping[str, np.ndarray],
                  images: Any, labels: Any,
                  rngs: Sequence[np.random.Generator], config: ClientConfig,
                  epochs: int) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Train ``C = len(rngs)`` clients of ``model``'s topology as one
    pass; returns the stacked trained parameters and the ``(C,)`` mean
    losses.  ``snapshot`` holds every client's starting weights (one
    client's shape) or client ``j``'s in slice ``j`` (``(C,) + shape``);
    ``images[j]``/``labels[j]``/``rngs[j]`` are client ``j``'s data (a
    stacked array or per-client arrays of one shape) and generator.
    """
    if not compactable(model):
        raise ValueError(f"the stacked engine cannot train model "
                         f"{model.name!r}")
    if epochs <= 0:
        raise ValueError("local_epochs must be positive")
    copies = len(rngs)
    twin = model.stacked(copies)
    twin.set_weights(snapshot)
    loss_fn = SoftmaxCrossEntropy(client_shape=(copies,))
    optimizer = config.make_optimizer(twin.parameters())
    num_samples = len(labels[0])
    # float64 like serial's list of losses; a client's mean is its row's.
    losses = np.empty((copies, epochs * -(-num_samples // config.batch_size)))
    step = 0
    for _ in range(epochs):
        orders = np.stack([rng.permutation(num_samples) for rng in rngs])
        for start in range(0, num_samples, config.batch_size):
            picks = orders[:, start:start + config.batch_size]
            losses[:, step] = twin.train_step(
                _gather(images, picks), _gather(labels, picks), loss_fn,
                optimizer)
            step += 1
    return ({name: param.data
             for name, param in twin.named_parameters().items()},
            losses.mean(axis=-1))


def train_cluster(members: Sequence[Tuple[FLClient, Any]],
                  weights_table: Sequence[Dict[str, np.ndarray]]
                  ) -> List[ClientUpdate]:
    """Train every (client, job) member — one :func:`cluster_signature`
    — as one stacked pass; returns their updates, in order, and leaves
    each replica, as serial ``local_train`` calls would.  A cluster with
    a mask trains its members' compact sub-networks."""
    clients, jobs = zip(*members)
    model, config = clients[0].model, clients[0].config
    epochs = (jobs[0].local_epochs if jobs[0].local_epochs is not None
              else config.local_epochs)
    snapshot = weights_table[jobs[0].weights_ref]
    start = snapshot
    compactions: Optional[List[Compaction]] = None
    if any(job.mask is not None for job in jobs):
        compactions = [Compaction(model, job.mask) for job in jobs]
        gathered = [compaction.gather(snapshot)
                    for compaction in compactions]
        model = compactions[0].model
        start = {name: np.stack([weights[name] for weights in gathered])
                 for name in gathered[0]}
    for client in clients:
        client.model.train()
    stacked, losses = train_stacked(
        model, start,
        [client.dataset.images for client in clients],
        [client.dataset.labels for client in clients],
        [client.rng for client in clients], config, epochs)
    updates = []
    for index, (client, job) in enumerate(members):
        trained = {name: values[index] for name, values in stacked.items()}
        if compactions is not None:
            trained = compactions[index].scatter(trained, snapshot)
        client.model.set_weights(trained)
        updates.append(client.make_update(float(losses[index]), job.mask,
                                          epochs, job.base_cycle))
    return updates
