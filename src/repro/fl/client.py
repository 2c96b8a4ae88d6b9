"""Federated-learning client.

A client owns a local dataset, a device profile and a local replica of the
training model.  Its job is purely numerical: load global weights, train the
(optionally masked) model on the local data for a number of epochs and
return the resulting weights.  A masked model trains as the sub-network
its mask keeps (:mod:`repro.nn.compact`) wherever the model can be cut,
so a shrunk model costs less host time too.  Time accounting is the
scheduler's job — the simulator derives per-cycle durations from the
hardware cost model, from the mask, never from host timing.

Spec / state split
------------------
A client is two things with very different lifetimes:

* :class:`ClientSpec` — the immutable, picklable *description*: dataset
  reference, device profile, hyper-parameters, model/loss factories and
  seed.  A spec fully determines a fresh client; execution backends ship
  specs to worker processes exactly once and keep the built client
  resident there.
* runtime state — the model replica and the RNG, which advance as the
  client trains.  :meth:`FLClient.get_state` / :meth:`FLClient.set_state`
  capture and restore it, and the RNG digest is what travels between the
  parent process and persistent workers every cycle (a few hundred bytes,
  independent of dataset or model size).

The split is also what makes shard failover recoverable: the parent-side
client always holds the last *committed* runtime state (backends mirror
post-training weights/RNG only after a batch fully succeeds), so spec +
current RNG digest form a per-client recovery snapshot from which a
replacement worker rebuilds a bit-identical resident replica after a
shard dies mid-run (see ``on_failure="rebalance"`` in
:mod:`repro.fl.executor`).

``FLClient`` keeps its historical constructor; it simply records the
arguments as a spec.  Mutating an identity attribute (``client.device =
new_profile``) replaces the spec, so a re-shipped spec always reflects the
current identity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Type

import numpy as np

from ..data.dataset import Dataset
from ..hardware.device import DeviceProfile
from ..nn.compact import Compaction, compactable
from ..nn.losses import Loss, SoftmaxCrossEntropy
from ..nn.masking import ModelMask
from ..nn.model import Sequential
from ..nn.optimizers import SGD, MomentumSGD, Optimizer
from ..nn.parameter import Parameter

__all__ = ["ClientConfig", "ClientSpec", "ClientState", "ClientUpdate",
           "FLClient", "TrainingSummary", "client_rng"]


def client_rng(seed: int, client_id: int) -> np.random.Generator:
    """The RNG client ``client_id`` of a fleet seeded ``seed`` starts from."""
    return np.random.default_rng(seed + 1000 * client_id)


@dataclass(frozen=True)
class ClientConfig:
    """Local-training hyper-parameters shared by all strategies.

    ``weight_decay`` applies to the parameters a training updates.  A
    masked client of a compactable model (:mod:`repro.nn.compact`) trains
    its active sub-network only, so its inactive neurons' weights are
    neither trained nor decayed; a masked model that cannot be cut
    (BatchNorm, Dropout, residual blocks, ``Sigmoid``) still decays them,
    ``0 + weight_decay * w``, as every masked model did before compaction.
    """

    batch_size: int = 32
    local_epochs: int = 1
    learning_rate: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        # The optimizers' own checks, made at construction: a config
        # every training route refuses before any client trains.
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")

    def make_optimizer(self, parameters: Iterable[Parameter]) -> Optimizer:
        """The optimizer local training runs over ``parameters``."""
        if self.momentum > 0:
            return MomentumSGD(parameters, lr=self.learning_rate,
                               momentum=self.momentum,
                               weight_decay=self.weight_decay)
        return SGD(parameters, lr=self.learning_rate,
                   weight_decay=self.weight_decay)


@dataclass(frozen=True, eq=False)
class ClientSpec:
    """Everything needed to (re)build one client, and nothing that moves.

    Specs are what execution backends pickle: the model and loss factories
    must therefore be module-level callables (or picklable callable
    objects such as ``SeededModelFactory``), never closures.  Building
    twice from the same spec yields bit-identical clients.
    """

    client_id: int
    dataset: Dataset
    device: DeviceProfile
    model_factory: Callable[[], Sequential]
    config: ClientConfig = field(default_factory=ClientConfig)
    loss_factory: Callable[[], Loss] = SoftmaxCrossEntropy
    seed: int = 0
    #: Concrete client class to build (``None`` = :class:`FLClient`);
    #: subclasses record themselves here so a spec round-trips the type.
    client_type: Optional[Type["FLClient"]] = None

    def __post_init__(self) -> None:
        if len(self.dataset) == 0:
            raise ValueError("client dataset must not be empty")

    def replace(self, **changes) -> "ClientSpec":
        """A copy of this spec with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def initial_rng(self) -> np.random.Generator:
        """The RNG a freshly built client starts from."""
        return client_rng(self.seed, self.client_id)

    def build(self, rng_state: Optional[dict] = None) -> "FLClient":
        """Construct a client from this spec.

        ``rng_state`` (a NumPy bit-generator state digest) optionally
        fast-forwards the fresh client's RNG — this is how a worker-resident
        replica resumes exactly where the parent-side client stopped.
        """
        cls = self.client_type or FLClient
        client = cls(client_id=self.client_id, dataset=self.dataset,
                     device=self.device, model_factory=self.model_factory,
                     config=self.config, loss_factory=self.loss_factory,
                     seed=self.seed)
        if rng_state is not None:
            client.rng.bit_generator.state = rng_state
        return client


@dataclass
class ClientState:
    """Compact digest of a client's mutable runtime state.

    ``weights`` is the model replica's parameters; ``rng_state`` is the
    NumPy bit-generator state.  Together with the spec this reconstructs a
    client exactly — it is the unit :meth:`FederatedSimulation.set_backend`
    relies on when migrating a fleet between execution backends.
    """

    weights: Dict[str, np.ndarray]
    rng_state: dict


@dataclass
class ClientUpdate:
    """What a client sends back to the server after a local training cycle."""

    client_id: int
    client_name: str
    weights: Dict[str, np.ndarray]
    num_samples: int
    train_loss: float
    mask: Optional[ModelMask] = None
    local_epochs: int = 1
    base_cycle: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def neuron_fraction(self) -> float:
        """Fraction of neurons this update actually trained."""
        return self.mask.active_fraction() if self.mask is not None else 1.0


@dataclass(frozen=True)
class TrainingSummary:
    """The weight-free residue of one training: what strategies consume.

    A client's trained weights are folded into the shard-local partial
    aggregate and never travel upstream; this is the remainder
    (:meth:`~repro.fl.simulation.FederatedSimulation.train_and_aggregate`
    returns one per trained client).
    ``index`` is the client's position in the simulation's fleet — what
    strategies key their state by; ``client_id`` is its identity, which
    need not equal it.  ``contributions`` is paper Eq. 1 (per-layer,
    per-neuron weight change, see
    :func:`~repro.fl.aggregation.neuron_contributions`) for a masked job,
    computed by the process that trained it, and ``None`` otherwise.
    """

    index: int
    client_id: int
    client_name: str
    num_samples: int
    train_loss: float
    contributions: Optional[Dict[str, np.ndarray]] = None


class FLClient:
    """One edge device participating in the collaboration.

    Identity lives in :attr:`spec`; runtime state is the model replica and
    the RNG.  Subclasses that override behavior (not construction) are
    spec-compatible automatically: the spec records the concrete type and
    :meth:`ClientSpec.build` re-instantiates it in worker processes.
    """

    def __init__(self, client_id: int, dataset: Dataset,
                 device: DeviceProfile,
                 model_factory: Callable[[], Sequential],
                 config: Optional[ClientConfig] = None,
                 loss_factory: Callable[[], Loss] = SoftmaxCrossEntropy,
                 seed: int = 0) -> None:
        self._spec_version = 0
        self.spec = ClientSpec(
            client_id=client_id, dataset=dataset, device=device,
            model_factory=model_factory, config=config or ClientConfig(),
            loss_factory=loss_factory, seed=seed,
            client_type=type(self))
        self.model = model_factory()
        self.rng = self.spec.initial_rng()

    @classmethod
    def from_spec(cls, spec: ClientSpec,
                  rng_state: Optional[dict] = None) -> "FLClient":
        """Build a client from a spec (honoring ``spec.client_type``)."""
        return spec.build(rng_state=rng_state)

    # ------------------------------------------------------------------ #
    # identity (delegated to the spec)
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> ClientSpec:
        """The client's immutable identity description."""
        return self._spec

    @spec.setter
    def spec(self, spec: ClientSpec) -> None:
        # Every identity change bumps the version; backends holding
        # worker-resident replicas compare it to decide whether a spec
        # must be re-shipped (see ShardedSocketBackend).
        self._spec = spec
        self._spec_version += 1

    @property
    def spec_version(self) -> int:
        """Monotonic counter of identity mutations (spec replacements)."""
        return self._spec_version

    @property
    def client_id(self) -> int:
        return self.spec.client_id

    @property
    def dataset(self) -> Dataset:
        return self.spec.dataset

    @dataset.setter
    def dataset(self, dataset: Dataset) -> None:
        self.spec = self.spec.replace(dataset=dataset)

    @property
    def device(self) -> DeviceProfile:
        return self.spec.device

    @device.setter
    def device(self, device: DeviceProfile) -> None:
        self.spec = self.spec.replace(device=device)

    @property
    def config(self) -> ClientConfig:
        return self.spec.config

    @config.setter
    def config(self, config: ClientConfig) -> None:
        self.spec = self.spec.replace(config=config)

    @property
    def model_factory(self) -> Callable[[], Sequential]:
        return self.spec.model_factory

    @property
    def loss_factory(self) -> Callable[[], Loss]:
        return self.spec.loss_factory

    @property
    def name(self) -> str:
        """Device name used in reports."""
        return self.device.name

    @property
    def num_samples(self) -> int:
        """Number of local training samples."""
        return len(self.dataset)

    # ------------------------------------------------------------------ #
    # runtime state
    # ------------------------------------------------------------------ #
    def get_state(self) -> ClientState:
        """Digest of the mutable runtime state (weights + RNG)."""
        return ClientState(weights=self.model.get_weights(),
                           rng_state=self.rng.bit_generator.state)

    def set_state(self, state: ClientState) -> None:
        """Restore a digest captured by :meth:`get_state`."""
        self.model.set_weights(state.weights)
        self.model.clear_neuron_masks()
        self.rng.bit_generator.state = state.rng_state

    # ------------------------------------------------------------------ #
    def local_train(self, global_weights: Dict[str, np.ndarray],
                    mask: Optional[ModelMask] = None,
                    local_epochs: Optional[int] = None,
                    base_cycle: int = 0) -> ClientUpdate:
        """Run one local training cycle and return the updated weights.

        Parameters
        ----------
        global_weights:
            The global model the server distributed for this cycle.
        mask:
            Optional neuron mask (Helios soft-training / Random baseline).
            ``None`` trains the full model.
        local_epochs:
            Override the configured number of local epochs (asynchronous
            baselines let stragglers accumulate several epochs).
        base_cycle:
            The aggregation cycle whose global weights this training is
            based on (used by staleness-aware aggregation).
        """
        epochs = local_epochs if local_epochs is not None else self.config.local_epochs
        if epochs <= 0:
            raise ValueError("local_epochs must be positive")
        compaction = None
        if mask is not None and compactable(self.model):
            # Train the sub-network the mask keeps, then write it back.
            compaction = Compaction(self.model, mask)
            model = compaction.model
            model.set_weights(compaction.gather(global_weights))
        else:
            model = self.model
            model.set_weights(global_weights)
            if mask is not None:
                mask.apply(model)
            else:
                model.clear_neuron_masks()
        model.train()
        loss_fn = self.loss_factory()
        optimizer = self.config.make_optimizer(model.parameters())
        losses = []
        for _ in range(epochs):
            for images, labels in self.dataset.batches(
                    self.config.batch_size, rng=self.rng):
                losses.append(model.train_step(
                    images, labels, loss_fn, optimizer))
        if compaction is not None:
            self.model.set_weights(compaction.scatter(
                {name: param.data
                 for name, param in model.named_parameters().items()},
                global_weights))
            self.model.train()
        return self.make_update(float(np.mean(losses)) if losses else 0.0,
                                mask, epochs, base_cycle)

    def make_update(self, train_loss: float, mask: Optional[ModelMask],
                    local_epochs: int, base_cycle: int) -> ClientUpdate:
        """The update of a finished local training, from the model."""
        # Masks are training-time only; the exchanged weights are full-size.
        self.model.clear_neuron_masks()
        return ClientUpdate(
            client_id=self.client_id,
            client_name=self.name,
            weights=self.model.get_weights(),
            num_samples=self.num_samples,
            train_loss=train_loss,
            mask=mask.copy() if mask is not None else None,
            local_epochs=local_epochs,
            base_cycle=base_cycle,
        )

    def evaluate(self, dataset: Dataset,
                 weights: Optional[Dict[str, np.ndarray]] = None) -> float:
        """Accuracy of (optionally provided) weights on ``dataset``."""
        if weights is not None:
            self.model.set_weights(weights)
        self.model.clear_neuron_masks()
        return self.model.evaluate_accuracy(dataset.images, dataset.labels)
