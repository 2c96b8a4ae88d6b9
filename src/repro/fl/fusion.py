"""Fused multi-client GEMM training for worker-resident backends.

A worker that hosts several clients sharing one model topology and one
batch schedule spends most of a batch re-running the same tiny
forward/backward graph per client — Python dispatch, not FLOPs.  This
module *stacks* such clients: per-layer weights are gathered into
``(C, out, in)`` tensors and every training step runs as one batched
``matmul`` over all ``C`` clients, with per-client neuron masks applied
as multiplicative gates.

Bit-exactness contract
----------------------
The fused path must produce byte-identical results to running
:meth:`FLClient.local_train <repro.fl.client.FLClient.local_train>`
serially, because the whole substrate's trust anchor is bit-identical
histories across backends.  This holds because:

* ``np.matmul`` over a stacked ``(C, B, n)`` operand computes each
  client's slice with the same dtype, same contraction order and same
  SIMD kernels as the standalone 2-D ``matmul`` — verified per batch
  shape by the parity suite in ``tests/fl/test_fusion.py``;
* element-wise ops (bias add, activation, gates, optimizer steps)
  broadcast per client without cross-client reductions;
* the softmax cross-entropy is computed stacked with reductions along
  the last axis only: every ``max``/``sum``/``mean`` run covers exactly
  the elements of one client's slice in the same order as the serial
  2-D computation, so the per-client losses and logit gradients are
  bit-identical (the same argument the stacked ``Softmax`` layer
  rests on);
* stacked gradients are computed as ``matmul(...) + 0.0`` — serial
  accumulates into zeroed ``param.grad`` buffers (``0.0 + g``), which
  normalizes ``-0.0`` to ``+0.0``; adding ``0.0`` reproduces that
  normalization, and IEEE addition of zero is insensitive to the
  operand order;
* per-client RNG streams draw exactly the serial sequence: one
  permutation per epoch from each client's own generator, in epoch
  order;
* datasets that were themselves synthesised stacked (a virtual fleet's
  chunk, ``VirtualClientDatasets.batch``) are byte-identical to
  per-client synthesis for the same reason: each client's generator
  draws its own sequence, and every op after the draws is elementwise,
  a permutation, or a last-axis reduction over one client's elements.

One engine, two callers: :func:`train_stacked` is the array-level core;
:func:`train_cluster` wraps it for worker-resident clients (gathers
their datasets, masks and generators, writes the result back), and the
virtual-fleet path of :mod:`repro.fl.executor` feeds it one chunk of
ephemeral clients at a time.

Eligibility is *conservative*: anything the stacked engine cannot
reproduce exactly (custom client/model subclasses, layers outside the
whitelist, non-default losses, label values the serial path would
reject, mask/weight tables the serial path would reject) simply opts
the client out, and it trains through the classic per-client loop
instead.  Fusion can therefore never change semantics — only speed.
"""

from __future__ import annotations

from typing import (Any, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..nn.layers.activations import LeakyReLU, ReLU, Sigmoid, Softmax, Tanh
from ..nn.layers.dense import Dense
from ..nn.layers.reshape import Flatten
from ..nn.losses import SoftmaxCrossEntropy
from ..nn.model import Sequential
from .client import ClientConfig, ClientUpdate, FLClient

__all__ = ["FUSION_MODES", "cluster_signature", "train_cluster",
           "train_stacked"]

#: Valid ``fusion`` settings of the worker-resident backends.
FUSION_MODES = ("off", "stacked")

#: Stateless activations the stacked engine reproduces exactly.  Keys
#: are exact types — a subclass may override ``forward`` arbitrarily,
#: so it opts its client out of fusion.
_ACTIVATIONS = (ReLU, LeakyReLU, Sigmoid, Tanh, Softmax)


def _topology_signature(model: Sequential
                        ) -> Optional[Tuple[Tuple[Any, ...], ...]]:
    """Hashable layer-stack fingerprint, or ``None`` if not fusable.

    Two clients fuse only when their signatures match, so the signature
    must pin everything that affects the math: layer kinds and order,
    dense dimensions/bias, activation parameters.
    """
    if type(model) is not Sequential:
        return None
    signature: List[Tuple[Any, ...]] = []
    dense_names = set()
    for layer in model.layers:
        layer_type = type(layer)
        if layer_type is Flatten:
            signature.append(("flatten",))
        elif layer_type is Dense:
            if layer.name in dense_names:
                # Duplicate names would collide in the weights table
                # (named_parameters de-duplicates with a "#2" suffix the
                # stacked write-back cannot reproduce).
                return None
            dense_names.add(layer.name)
            signature.append(("dense", layer.name, layer.in_features,
                              layer.out_features, layer.use_bias))
        elif layer_type is ReLU:
            signature.append(("relu",))
        elif layer_type is LeakyReLU:
            signature.append(("leakyrelu", float(layer.alpha)))
        elif layer_type is Sigmoid:
            signature.append(("sigmoid",))
        elif layer_type is Tanh:
            signature.append(("tanh",))
        elif layer_type is Softmax:
            signature.append(("softmax",))
        else:
            # Dropout (own RNG stream), convolutions, composites, …:
            # the stacked engine does not model them.
            return None
    return tuple(signature)


def _feature_flow(signature: Sequence[Tuple[Any, ...]],
                  feature_shape: Tuple[int, ...]) -> Optional[int]:
    """Final logit width if the shapes compose, else ``None``.

    Mirrors the serial validation path: ``Dense.forward`` insists on 2-D
    inputs of its ``in_features``, so a topology that would make serial
    raise is simply not fusable (the classic path then raises the exact
    serial error).
    """
    shape = tuple(int(dim) for dim in feature_shape)
    for entry in signature:
        if entry[0] == "flatten":
            size = 1
            for dim in shape:
                size *= dim
            shape = (size,)
        elif entry[0] == "dense":
            if len(shape) != 1 or shape[0] != entry[2]:
                return None
            shape = (entry[3],)
        # Activations preserve the shape.
    if len(shape) != 1:
        return None
    return shape[0]


def cluster_signature(client: FLClient, group: Any,
                      weights_table: Sequence[Dict[str, np.ndarray]]
                      ) -> Optional[Tuple[Any, ...]]:
    """Fusion-cluster key for one wire group, or ``None`` if ineligible.

    Groups whose keys compare equal train bit-identically as one
    stacked pass: same topology, same starting weights (same table
    slot), same resolved epoch/batch/optimizer schedule, same dataset
    geometry.  Masks may differ per client — they become gates.
    """
    if len(group.jobs) != 1:
        # Multi-job groups interleave one client's RNG stream across
        # jobs; the classic loop already handles them.
        return None
    if type(client) is not FLClient:
        return None
    spec = client.spec
    if spec.loss_factory is not SoftmaxCrossEntropy:
        return None
    job = group.jobs[0]
    config = spec.config
    epochs = (job.local_epochs if job.local_epochs is not None
              else config.local_epochs)
    if not isinstance(epochs, int) or epochs <= 0:
        return None
    topology = _topology_signature(client.model)
    if topology is None:
        return None
    dataset = client.dataset
    feature_shape = tuple(int(dim) for dim in dataset.images.shape[1:])
    num_classes = _feature_flow(topology, feature_shape)
    if num_classes is None:
        return None
    labels = dataset.labels
    if len(labels) == 0 or labels.min() < 0 or labels.max() >= num_classes:
        # Serial raises per client inside the loss; keep that exact
        # error on the classic path.
        return None
    try:
        snapshot = weights_table[job.weights_ref]
    except (IndexError, TypeError):
        return None
    if not isinstance(snapshot, dict):
        return None
    dense_layers = {entry[1]: entry for entry in topology
                    if entry[0] == "dense"}
    for name, (_, _, in_features, out_features, use_bias) in \
            dense_layers.items():
        weight = snapshot.get(f"{name}/weight")
        if (not isinstance(weight, np.ndarray)
                or weight.shape != (out_features, in_features)
                # Serial's set_weights copies with order='K', so an
                # F-order snapshot would train on an F-order parameter;
                # the stacked engine is only parity-verified for the
                # C-order layout every real snapshot has.
                or not weight.flags.c_contiguous):
            return None
        if use_bias:
            bias = snapshot.get(f"{name}/bias")
            if (not isinstance(bias, np.ndarray)
                    or bias.shape != (out_features,)):
                return None
    if job.mask is not None:
        for name in job.mask.layer_names():
            entry = dense_layers.get(name)
            if entry is None or job.mask[name].shape != (entry[3],):
                # Serial's set_neuron_masks would raise; classic path
                # preserves that.
                return None
    return ("stacked", job.weights_ref, epochs, config.batch_size,
            config.learning_rate, config.momentum, config.weight_decay,
            len(dataset), feature_shape, topology)


def _replicated(value: np.ndarray, copies: int,
                like: np.ndarray) -> np.ndarray:
    """``copies`` writable copies of ``value``, stacked, in ``like``'s
    dtype — the parameter serial's ``set_weights`` would round it into."""
    value = np.asarray(value, dtype=like.dtype)
    return np.broadcast_to(value, (copies,) + value.shape).copy()


def train_stacked(model: Sequential, snapshot: Mapping[str, np.ndarray],
                  images: np.ndarray, labels: np.ndarray,
                  rngs: Sequence[np.random.Generator], config: ClientConfig,
                  epochs: int,
                  gates: Optional[Mapping[str, np.ndarray]] = None
                  ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Train ``C`` clients of one topology from ``snapshot`` as one pass.

    The array-level engine under :func:`train_cluster` and the virtual
    fleets' chunks: ``images`` is ``(C, n, ...)``, ``labels`` ``(C, n)``,
    ``rngs[j]`` client ``j``'s generator (it draws one permutation per
    epoch, as serial does) and ``gates[layer]`` an optional ``(C, out)``
    boolean neuron mask.  Returns the trained parameters stacked along
    the client axis, in the model's own parameter order, and the ``(C,)``
    mean training losses — slice ``j`` is bit-identical to client ``j``'s
    serial ``local_train``.  The caller vouches for eligibility (see
    :func:`cluster_signature`); what the serial path would reject raises
    here as well instead of training on garbage.
    """
    topology = _topology_signature(model)
    num_classes = (None if topology is None
                   else _feature_flow(topology, images.shape[2:]))
    if num_classes is None:
        raise ValueError("the stacked engine cannot train this model on "
                         f"inputs of shape {images.shape[2:]}")
    if epochs <= 0:
        raise ValueError("local_epochs must be positive")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("target labels out of range for logits")
    num_clients, num_samples = labels.shape
    gates = gates or {}

    # ----- stacked parameters ---------------------------------------- #
    ops: List[Dict[str, Any]] = []
    dense_ops: List[Dict[str, Any]] = []
    params = model.named_parameters()
    for entry in topology:
        op: Dict[str, Any] = {"kind": entry[0]}
        if entry[0] == "dense":
            name, use_bias = entry[1], entry[4]
            # One broadcast copy per parameter: every client starts from
            # (its own writable copy of) the same snapshot.
            op.update(name=name, gate=gates.get(name), b=None,
                      W=_replicated(snapshot[f"{name}/weight"], num_clients,
                                    params[f"{name}/weight"].data))
            if use_bias:
                op["b"] = _replicated(snapshot[f"{name}/bias"], num_clients,
                                      params[f"{name}/bias"].data)
            dense_ops.append(op)
        elif entry[0] == "leakyrelu":
            op["alpha"] = entry[1]
        ops.append(op)

    batch_size = config.batch_size
    steps_per_epoch = -(-num_samples // batch_size)
    # (C, steps): a client's losses stay contiguous, so their mean runs
    # over the same elements in the same order as serial's list mean.
    step_losses = np.empty((num_clients, epochs * steps_per_epoch))
    step = 0
    client_rows = np.arange(num_clients)[:, None]
    velocities: Dict[Tuple[int, str], np.ndarray] = {}
    # Python floats, like the optimizers: a NumPy float64 scalar would
    # upcast the products it touches.
    momentum = float(config.momentum)
    learning_rate = float(config.learning_rate)
    weight_decay = float(config.weight_decay)

    for _ in range(epochs):
        orders = np.stack([rng.permutation(num_samples) for rng in rngs])
        for start in range(0, num_samples, batch_size):
            chunk = orders[:, start:start + batch_size]
            batch_x = images[client_rows, chunk]
            batch_y = labels[client_rows, chunk]

            # forward ------------------------------------------------- #
            stash: List[Any] = []
            out = batch_x
            for op in ops:
                kind = op["kind"]
                if kind == "flatten":
                    stash.append(out.shape)
                    out = out.reshape(out.shape[0], out.shape[1], -1)
                elif kind == "dense":
                    stash.append(out)
                    out = np.matmul(out, op["W"].transpose(0, 2, 1))
                    if op["b"] is not None:
                        out = out + op["b"][:, None, :]
                    if op["gate"] is not None:
                        out = out * op["gate"][:, None, :]
                elif kind == "relu":
                    stash.append(out > 0)
                    out = np.maximum(out, 0)
                elif kind == "leakyrelu":
                    mask = out > 0
                    stash.append((mask, out))
                    out = np.where(mask, out, op["alpha"] * out)
                elif kind == "sigmoid":
                    out = 1.0 / (1.0 + np.exp(-np.clip(out, -60.0, 60.0)))
                    stash.append(out)
                elif kind == "tanh":
                    out = np.tanh(out)
                    stash.append(out)
                else:  # softmax
                    shifted = out - out.max(axis=-1, keepdims=True)
                    exps = np.exp(shifted)
                    out = exps / exps.sum(axis=-1, keepdims=True)
                    stash.append(out)

            # loss: stacked softmax cross-entropy ---------------------- #
            # Reductions run along the last axis only, so every run
            # covers one client's slice exactly as the serial 2-D loss
            # would — bit-identical losses and gradients (module doc).
            batch_len = chunk.shape[1]
            shifted = out - out.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            probs = exp / exp.sum(axis=-1, keepdims=True)
            picked = probs[client_rows, np.arange(batch_len)[None, :],
                           batch_y]
            log_likelihood = -np.log(np.clip(picked, 1e-12, None))
            step_losses[:, step] = log_likelihood.mean(axis=-1)
            step += 1
            grad = probs.copy()
            grad[client_rows, np.arange(batch_len)[None, :],
                 batch_y] -= 1.0
            grad = grad / batch_len

            # backward ------------------------------------------------ #
            for op in reversed(ops):
                saved = stash.pop()
                kind = op["kind"]
                if kind == "flatten":
                    grad = grad.reshape(saved)
                elif kind == "dense":
                    if op["gate"] is not None:
                        grad = grad * op["gate"][:, None, :]
                    # "+ 0.0": serial accumulates into zeroed grads,
                    # which maps -0.0 products to +0.0 — see module doc.
                    op["w_grad"] = np.matmul(grad.transpose(0, 2, 1), saved)
                    op["w_grad"] += 0.0
                    if op["b"] is not None:
                        op["b_grad"] = grad.sum(axis=1)
                        op["b_grad"] += 0.0
                    if op is dense_ops[0]:
                        # Like serial's ``backward_parameters``: nothing
                        # reads the gradient upstream of the first dense.
                        break
                    grad = np.matmul(grad, op["W"])
                elif kind == "relu":
                    grad = grad * saved
                elif kind == "leakyrelu":
                    mask, _ = saved
                    grad = np.where(mask, grad, op["alpha"] * grad)
                elif kind == "sigmoid":
                    grad = grad * saved * (1.0 - saved)
                elif kind == "tanh":
                    grad = grad * (1.0 - saved ** 2)
                else:  # softmax
                    inner = (grad * saved).sum(axis=-1, keepdims=True)
                    grad = saved * (grad - inner)

            # optimizer (after the full backward pass, like serial) --- #
            for op_index, op in enumerate(dense_ops):
                for slot in ("W", "b"):
                    param = op[slot]
                    if param is None:
                        continue
                    # The gradient is this step's own temporary, so the
                    # update runs in place on it (same roundings).
                    step_grad = op.pop("w_grad" if slot == "W" else "b_grad")
                    if weight_decay:
                        step_grad += weight_decay * param
                    step_grad *= learning_rate
                    if momentum > 0:
                        velocity = velocities.get((op_index, slot))
                        if velocity is None:
                            velocity = velocities[op_index, slot] = \
                                np.zeros_like(param)
                        velocity *= momentum
                        velocity -= step_grad
                        param += velocity
                    else:
                        param -= step_grad

    stacked: Dict[str, np.ndarray] = {}
    for op in dense_ops:
        stacked[f"{op['name']}/weight"] = op["W"]
        if op["b"] is not None:
            stacked[f"{op['name']}/bias"] = op["b"]
    return stacked, step_losses.mean(axis=-1)


def train_cluster(members: Sequence[Tuple[FLClient, Any]],
                  weights_table: Sequence[Dict[str, np.ndarray]]
                  ) -> List[ClientUpdate]:
    """Train every (client, job) member as one stacked pass.

    All members share one :func:`cluster_signature`; returns one
    :class:`~repro.fl.client.ClientUpdate` per member, in order,
    bit-identical to serial ``local_train`` calls.  The thin resident
    wrapper around :func:`train_stacked`: it gathers the members'
    datasets, masks and generators, and writes the result back into
    the resident replicas.
    """
    clients = [client for client, _ in members]
    jobs = [job for _, job in members]
    config = clients[0].spec.config
    epochs = (jobs[0].local_epochs if jobs[0].local_epochs is not None
              else config.local_epochs)
    gates: Dict[str, np.ndarray] = {}
    for index, job in enumerate(jobs):
        for name in (job.mask.layer_names() if job.mask is not None else ()):
            if name not in gates:
                gates[name] = np.ones((len(members),) + job.mask[name].shape,
                                      dtype=bool)
            gates[name][index] = job.mask[name]

    # Serial local_train flips the model into training mode; mirror the
    # resident objects' state even though the fused math ignores it.
    for client in clients:
        client.model.train()
    # All datasets share one geometry (pinned by the cluster signature),
    # so one stacked copy turns the per-client batch gathers into a
    # single fancy-index per step.
    stacked, losses = train_stacked(
        clients[0].model, weights_table[jobs[0].weights_ref],
        np.stack([client.dataset.images for client in clients]),
        np.stack([client.dataset.labels for client in clients]),
        [client.rng for client in clients], config, epochs, gates)

    # ----- write back + build per-client updates ---------------------- #
    updates: List[ClientUpdate] = []
    for index, (client, job) in enumerate(members):
        client.model.set_weights({name: values[index]
                                  for name, values in stacked.items()})
        client.model.clear_neuron_masks()
        updates.append(ClientUpdate(
            client_id=client.client_id,
            client_name=client.name,
            weights=client.model.get_weights(),
            num_samples=client.num_samples,
            train_loss=float(losses[index]),
            mask=job.mask.copy() if job.mask is not None else None,
            local_epochs=epochs,
            base_cycle=job.base_cycle))
    return updates
