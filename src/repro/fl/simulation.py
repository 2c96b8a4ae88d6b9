"""The federated-learning simulation engine.

:class:`FederatedSimulation` wires together clients (with their datasets and
device profiles), the aggregation server, the hardware cost model and a
simulated clock.  Strategies (see :mod:`repro.fl.strategy`) drive it cycle
by cycle; the engine provides them with

* numerical services — training a client on given weights/mask, evaluating
  the global model;
* temporal services — how many simulated seconds a client needs for a
  (possibly shrunk) local training cycle, including communication.

Keeping numerics and timing separate is what lets a single-process NumPy
simulation reproduce the paper's wall-clock comparisons: a straggler
training a 40 %-volume model is numerically identical here and on a real
testbed, while its cycle *time* comes from the analytical cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..data.dataset import Dataset
from ..hardware.cost_model import TrainingCostModel
from ..hardware.device import DeviceProfile
from ..hardware.network import CommunicationModel
from ..nn.masking import ModelMask
from ..nn.model import Sequential
from .aggregation import collapse_levels, fold_updates, normalize_weights
from .client import (ClientConfig, ClientSpec, ClientUpdate, FLClient,
                     TrainingSummary)
from .executor import ExecutionBackend, TrainingJob, make_backend
from .history import CycleRecord, TrainingHistory
from .server import FLServer
from .strategy import CycleOutcome, FederatedStrategy

__all__ = ["FederatedSimulation", "VirtualFleet", "build_simulation",
           "make_client_specs"]

#: Cache key of one cycle-duration estimate: client index, mask signature,
#: epochs, communication toggle (see
#: :meth:`FederatedSimulation.client_cycle_seconds`).
_CostKey = Tuple[int, Optional[Tuple[Tuple[str, float], ...]], int, bool]


def _mask_signature(mask: Optional[ModelMask]
                    ) -> Optional[Tuple[Tuple[str, float], ...]]:
    """Hashable timing signature of a mask.

    Cycle duration depends only on the per-layer active *fractions*, not on
    which particular neurons are active — rotating selections of the same
    volume therefore share one cache entry.
    """
    if mask is None:
        return None
    return tuple(sorted(mask.layer_fractions().items()))


@dataclass(frozen=True)
class VirtualFleet:
    """Recipe for a fleet of logical clients materialized on demand.

    Fleet virtualization decouples the number of *logical* clients from
    the number of resident slots: instead of shipping one
    :class:`~repro.fl.client.ClientSpec` per client, the parent ships
    this O(1) recipe plus a contiguous ``[lo, hi)`` id range per slot,
    and each shard synthesises, trains and folds its clients one chunk
    at a time — two shards host 10⁶ logical clients without the parent
    ever holding per-client state.

    Logical clients are stateless across cycles: client ``i`` is rebuilt
    each cycle from ``spec_for(i)`` with a fresh deterministic RNG
    (:meth:`ClientSpec.initial_rng`), so results are bit-identical for
    any shard topology.  Because nothing but the recipe and the id range
    decides a stacked chunk's datasets and shuffle orders, a shard
    connection (``serial``: the backend) builds them once and keeps them
    read-only in a memo keyed by ``(dataset_factory, seed,
    config.local_epochs, id range)``, up to
    :data:`~repro.fl.executor._CHUNK_MEMO_BYTES` (32 MiB); chunks past
    it are built every cycle.  Only a ``dataset_factory`` with ``batch``
    is memoized.  ``dataset_factory`` and ``model_factory`` must
    be picklable (module-level callables or ``functools.partial`` of
    such) and ``dataset_factory(i)`` must be deterministic in ``i``.

    The recipe is uniform — ``spec_for(i)`` differs between clients only
    in ``client_id`` and ``dataset_factory(i)`` — which is what lets a
    shard train a chunk of 64 clients as one stacked pass instead of 64
    ``spec_for(i).build().local_train(...)`` round trips whenever the
    fleet is one :mod:`repro.fl.fusion` stacks (plain ``FLClient``s, a
    ``Sequential`` of layers with a client axis — dense, convolution,
    pooling, activations —, softmax cross-entropy, datasets of one
    geometry).  A ``dataset_factory`` with a ``batch(client_ids)`` method
    (``VirtualClientDatasets``) also has its chunk synthesised in one
    pass; any other factory is called per client.  Everything else runs
    the per-client loop; the route never shows in the results.
    """

    num_clients: int
    dataset_factory: Callable[[int], Dataset]
    device: DeviceProfile
    model_factory: Callable[[], Sequential]
    config: ClientConfig = field(default_factory=ClientConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ValueError("a virtual fleet needs at least one client")

    @property
    def uniform_factor(self) -> float:
        """Per-client aggregation weight — uniform across the fleet.

        Per-client sample counts would require the parent to know O(N)
        state, so virtual cycles weight every client equally; the same
        factor scales each client's training loss into the fleet's exact
        mean-loss accumulator.
        """
        return 1.0 / float(self.num_clients)

    def spec_for(self, client_id: int) -> ClientSpec:
        """Materialize one logical client's spec (deterministically)."""
        if not 0 <= client_id < self.num_clients:
            raise IndexError(f"no virtual client {client_id} "
                             f"(fleet size {self.num_clients})")
        return ClientSpec(client_id=client_id,
                          dataset=self.dataset_factory(client_id),
                          device=self.device,
                          model_factory=self.model_factory,
                          config=self.config, seed=self.seed)


class FederatedSimulation:
    """Discrete-event simulation of one federated collaboration."""

    def __init__(self, clients: Sequence[FLClient], server: FLServer,
                 input_shape: Tuple[int, ...],
                 comm_model: Optional[CommunicationModel] = None,
                 workload_scale: float = 1.0,
                 seed: int = 0,
                 backend: Union[None, str, ExecutionBackend] = None) -> None:
        if not clients:
            raise ValueError("a simulation needs at least one client")
        if workload_scale <= 0:
            raise ValueError("workload_scale must be positive")
        self.clients: List[FLClient] = list(clients)
        self.server = server
        self.input_shape = tuple(input_shape)
        self.comm_model = comm_model or CommunicationModel()
        #: Multiplier applied to every client's per-cycle sample count when
        #: estimating *simulated* durations.  The numerical training uses a
        #: reduced synthetic dataset; setting ``workload_scale`` to the
        #: ratio between the paper's real local dataset size and the
        #: synthetic one makes the simulated clock reflect full-size
        #: workloads without paying their NumPy training cost.
        self.workload_scale = workload_scale
        self.clock_s = 0.0
        self.rng = np.random.default_rng(seed)
        #: Execution backend running each batch of client trainings (see
        #: :mod:`repro.fl.executor`).  All backends are bit-identical under
        #: a fixed seed; they differ only in wall-clock behavior.
        self.backend: ExecutionBackend = make_backend(backend)
        # A caller-provided instance may have served another fleet: drop
        # any worker-resident replicas so our clients' specs are shipped.
        self.backend.invalidate_client()
        self._cost_models: Dict[int, TrainingCostModel] = {}
        self._cycle_cost_cache: Dict[_CostKey, float] = {}
        #: Client indices currently churned out of the collaboration
        #: (scenario fleet churn) — excluded from :meth:`client_indices`
        #: but never removed from :attr:`clients`, so indices stay
        #: stable and a departed client can rejoin with its state.
        self._departed: set = set()

    # ------------------------------------------------------------------ #
    # client access
    # ------------------------------------------------------------------ #
    def num_clients(self) -> int:
        """Number of clients in the collaboration."""
        return len(self.clients)

    def client(self, index: int) -> FLClient:
        """Client by index."""
        return self.clients[index]

    def client_indices(self) -> List[int]:
        """Indices of the clients currently in the collaboration.

        Excludes clients churned out via :meth:`deactivate_client`
        (scenario fleet churn); with no churn this is every client.
        """
        return [index for index in range(len(self.clients))
                if index not in self._departed]

    def deactivate_client(self, index: int) -> None:
        """Churn a client out of the collaboration (scenario churn).

        The client object stays in the fleet (stable indices, state
        preserved for a later :meth:`reactivate_client`); it simply
        stops appearing in :meth:`client_indices`, so strategies skip
        it.  Refuses to empty the fleet — a collaboration of zero
        clients cannot aggregate anything.
        """
        if not 0 <= index < len(self.clients):
            raise IndexError(f"no client with index {index} "
                             f"(fleet size {len(self.clients)})")
        remaining = set(self.client_indices()) - {index}
        if not remaining:
            raise ValueError("cannot deactivate the last active client")
        self._departed.add(index)

    def reactivate_client(self, index: int) -> None:
        """Churn a previously deactivated client back in."""
        if not 0 <= index < len(self.clients):
            raise IndexError(f"no client with index {index} "
                             f"(fleet size {len(self.clients)})")
        self._departed.discard(index)

    def client_specs(self) -> List[ClientSpec]:
        """The picklable spec of every fleet member (current identities)."""
        return [client.spec for client in self.clients]

    def add_client(self, client: FLClient) -> int:
        """Register a new client mid-collaboration (scalability path)."""
        self.clients.append(client)
        index = len(self.clients) - 1
        self.invalidate_cost_caches(index)
        return index

    def set_client_device(self, index: int, device: DeviceProfile) -> None:
        """Swap one client's device profile mid-collaboration.

        Routes the mutation through both cache layers: the timing caches
        (the estimate depends on the device) and the execution backend
        (a worker-resident replica carries the old spec until re-shipped).
        """
        self.clients[index].device = device
        self.invalidate_cost_caches(index)

    def set_backend(self,
                    backend: Union[None, str, ExecutionBackend],
                    aggregation: Optional[str] = None,
                    **options: Any) -> ExecutionBackend:
        """Swap the execution backend, closing the previous one.

        ``backend`` and ``options`` are forwarded to
        :func:`~repro.fl.executor.make_backend` — the one place that
        documents and validates the backend options (``max_workers``,
        ``shards``, ``on_shard_failure``).

        The old backend is always closed unless the caller passed the
        *same instance* back in — in particular, passing the same *name*
        twice builds a fresh pool and shuts the old one down rather than
        leaking its workers.  Swapping keeps every client's RNG stream:
        each backend leaves the post-training RNG state in the
        parent-side :class:`FLClient` objects after each batch, and a
        resident backend rebuilds its replicas from the current specs
        and RNG digests on first use.  Trained weights are not mirrored
        (resident slots keep them); every training starts from the
        snapshot its job ships, so the new backend picks the fleet up
        exactly where the old one left it.
        """
        # Every backend folds hierarchically; ``aggregation`` survives
        # for benchmarks/e2e/workloads.py:151-158 and probes.py:88.
        if aggregation not in (None, "hierarchical"):
            raise ValueError(f"unknown aggregation mode {aggregation!r}; "
                             f"every backend folds hierarchically")
        new_backend = make_backend(backend, **options)
        if new_backend is self.backend:
            return new_backend
        old_backend = self.backend
        self.backend = new_backend
        # The adopted backend may hold replicas of another fleet; force a
        # spec re-ship so resident state always matches *our* clients.
        new_backend.invalidate_client()
        old_backend.close()
        return new_backend

    def close(self) -> None:
        """Release the execution backend's worker resources (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "FederatedSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # timing services
    # ------------------------------------------------------------------ #
    def invalidate_cost_caches(self, index: Optional[int] = None) -> None:
        """Drop cached cost models / cycle estimates.

        ``index`` restricts the invalidation to one client (used by
        :meth:`add_client` so a rejoining index never inherits estimates
        from a previously removed fleet member); ``None`` clears
        everything (call after mutating ``workload_scale``, the
        communication model or a client's device in place).

        The invalidation is also forwarded to the execution backend:
        backends keeping worker-resident client replicas re-ship the
        affected client's spec before its next training, so fleet
        mutations never leave a stale replica behind.
        """
        self.backend.invalidate_client(index)
        if index is None:
            self._cost_models.clear()
            self._cycle_cost_cache.clear()
            return
        self._cost_models.pop(index, None)
        for key in [key for key in self._cycle_cost_cache
                    if key[0] == index]:
            del self._cycle_cost_cache[key]

    def cost_model_for(self, index: int) -> TrainingCostModel:
        """Per-epoch training cost model of one client (cached)."""
        if index not in self._cost_models:
            client = self.clients[index]
            scaled_samples = max(1, int(round(client.num_samples
                                              * self.workload_scale)))
            self._cost_models[index] = TrainingCostModel(
                self.server.global_model, self.input_shape,
                samples_per_cycle=scaled_samples,
                batch_size=client.config.batch_size)
        return self._cost_models[index]

    def client_cycle_seconds(self, index: int,
                             mask: Optional[ModelMask] = None,
                             local_epochs: Optional[int] = None,
                             include_communication: bool = True) -> float:
        """Simulated duration of one local training cycle for a client.

        The compute and memory terms come from the analytical cost model
        evaluated on the (possibly shrunk) model; the communication term
        charges the upload of the trained parameters plus the download of
        the full global model.

        Estimates are cached by ``(client, mask signature, epochs,
        communication)`` — strategies re-query the same volumes every
        cycle, and rotating masks of equal volume cost the same.  The
        cache is dropped via :meth:`invalidate_cost_caches`.
        """
        client = self.clients[index]
        epochs_key = (local_epochs if local_epochs is not None
                      else client.config.local_epochs)
        key: _CostKey = (index, _mask_signature(mask), epochs_key,
                         include_communication)
        cached = self._cycle_cost_cache.get(key)
        if cached is not None:
            return cached
        cost_model = self.cost_model_for(index)
        fractions = mask.layer_fractions() if mask is not None else None
        estimate = cost_model.estimate(client.device, fractions)
        duration = ((estimate.compute_seconds + estimate.memory_seconds)
                    * epochs_key)
        if include_communication:
            model_cost = cost_model.model_cost(fractions)
            upload_values = model_cost.parameters
            download_values = cost_model.full_model_cost.parameters
            duration += self.comm_model.round_trip_seconds(
                client.device, upload_values, download_values)
        self._cycle_cost_cache[key] = duration
        return duration

    def slowest_full_cycle_seconds(self) -> float:
        """Duration of a synchronous cycle with every client training fully."""
        return max(self.client_cycle_seconds(index)
                   for index in self.client_indices())

    def fastest_full_cycle_seconds(self) -> float:
        """Cycle duration of the fastest (capable) device."""
        return min(self.client_cycle_seconds(index)
                   for index in self.client_indices())

    # ------------------------------------------------------------------ #
    # numerical services
    # ------------------------------------------------------------------ #
    def train_and_aggregate(self, indices: Sequence[int],
                            masks: Optional[Mapping[int, ModelMask]] = None,
                            client_weights: Optional[Sequence[float]] = None,
                            local_epochs: Optional[int] = None,
                            base_cycle: int = 0,
                            partial: bool = True,
                            stale: Sequence[TrainingJob] = (),
                            keep_global: float = 0.0
                            ) -> List[TrainingSummary]:
        """Train a batch of clients and fold their updates into the server.

        ``indices`` train from one snapshot of the current global model;
        ``stale`` jobs (asynchronous strategies' deliveries) each train
        from the snapshot they carry, after them in the batch.  Each slot
        folds its residents' updates locally and ships one partial
        aggregate (upstream bytes O(weights x slots), not O(weights x
        clients)), and the parent combines them via
        :meth:`FLServer.install_partials
        <repro.fl.server.FLServer.install_partials>`.  The fold's
        factors are ``client_weights`` (parallel to ``indices`` then
        ``stale``) or sample counts, normalized together with
        ``keep_global`` — the share of the current global model the new
        one keeps, folded in here as one more addend.  The per-level sums
        are exact, so every backend and slot topology installs the same
        bits as :meth:`FLServer.aggregate
        <repro.fl.server.FLServer.aggregate>` over the same updates and
        factors; the masked/unmasked decision (``partial and`` any mask
        present) is made before dispatch, as that method makes it.

        Returns one :class:`~repro.fl.client.TrainingSummary` per
        trained job, in batch order, each naming its fleet index; a
        client a ``degrade`` failover dropped has none, and its share
        spreads over the survivors and the kept global in proportion to
        their factors (the finalize divides by the summed weight).
        Trained *weights* never come back (that is the point): a masked
        job's Eq. 1 contributions are computed where it trained and ride
        on its summary.  Parent-side client replicas keep their RNG
        streams in sync.
        """
        weights = self.server.get_global_weights()
        masks = masks or {}
        jobs = [TrainingJob(index=index, weights=weights,
                            mask=masks.get(index),
                            local_epochs=local_epochs,
                            base_cycle=base_cycle)
                for index in indices] + list(stale)
        if not jobs:
            raise ValueError("cannot aggregate an empty training batch")
        if client_weights is not None and len(client_weights) != len(jobs):
            raise ValueError("client_weights length must match the batch")
        for job in jobs:
            if not 0 <= job.index < len(self.clients):
                raise IndexError(f"no client with index {job.index} "
                                 f"(fleet size {len(self.clients)})")
        # The floats FLServer.aggregate folds with: ``client_weights``
        # normalized (again, for Helios' already normalized ones), or
        # the same floats as ``sample_count_weights`` over the updates —
        # an update's sample count IS its client's dataset size.
        shares = (list(client_weights) if client_weights is not None else
                  [float(self.clients[job.index].num_samples)
                   for job in jobs])
        factors = normalize_weights(shares + ([keep_global] if keep_global
                                              else []))
        fold_partial = partial and any(job.mask is not None for job in jobs)
        structure = self.server.structure
        partials, summaries = self.backend.run_fold(
            self.clients, jobs, factors[:len(jobs)], structure=structure,
            partial=fold_partial)
        if partials and keep_global:
            partials.append(fold_updates(
                [ClientUpdate(client_id=-1, client_name="global",
                              weights=weights, num_samples=0,
                              train_loss=0.0)],
                factors[len(jobs):], structure=structure,
                partial=fold_partial))
        if partials:
            self.server.install_partials(partials)
        return [summary for summary in summaries if summary is not None]

    def run_virtual_cycle(self, fleet: VirtualFleet) -> Tuple[float, int]:
        """Train every logical client of ``fleet`` and aggregate uniformly.

        One synchronous FedAvg cycle over a :class:`VirtualFleet`,
        starting from (and installing back into) the server's global
        model: each slot ships one partial aggregate for its whole id
        range.

        Returns ``(mean train loss, clients trained)``; the mean is an
        exact pre-rounded sum of ``loss_i / num_clients`` terms, so it
        too is independent of the shard topology.
        """
        partials, loss_levels, count = self.backend.run_virtual_fold(
            fleet, self.server.get_global_weights(),
            structure=self.server.structure)
        self.server.install_partials(partials)
        return float(collapse_levels(loss_levels)), count

    def evaluate_global(self) -> float:
        """Accuracy of the current global model on the server's test set."""
        return self.server.evaluate()

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self, strategy: FederatedStrategy, num_cycles: int,
            eval_every: int = 1,
            target_accuracy: Optional[float] = None,
            verbose: bool = False) -> TrainingHistory:
        """Run ``num_cycles`` aggregation cycles under ``strategy``.

        Parameters
        ----------
        strategy:
            The collaboration strategy to execute.
        num_cycles:
            Number of parameter-aggregation cycles (of the capable devices,
            matching the paper's x-axes).
        eval_every:
            Evaluate the global model every this many cycles (the last
            cycle is always evaluated).
        target_accuracy:
            Stop early once the global accuracy reaches this value.
        verbose:
            Print a one-line summary per evaluated cycle.
        """
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        if eval_every <= 0:
            raise ValueError("eval_every must be positive")
        history = TrainingHistory(strategy_name=strategy.name)
        strategy.setup(self)
        last_accuracy = 0.0
        for cycle in range(1, num_cycles + 1):
            outcome = strategy.execute_cycle(cycle, self)
            self.clock_s += outcome.duration_s
            should_eval = (cycle % eval_every == 0) or (cycle == num_cycles)
            if should_eval:
                last_accuracy = self.evaluate_global()
            history.append(CycleRecord(
                cycle=cycle,
                sim_time_s=self.clock_s,
                global_accuracy=last_accuracy,
                mean_train_loss=outcome.mean_train_loss,
                participating_clients=outcome.participating_clients,
                straggler_fraction_trained=outcome.straggler_fraction_trained,
                extra=dict(outcome.extra),
                # Degrade-mode audit trail: exactly which clients sat
                # this cycle out because their shard was down.
                dropped_clients=self.backend.consume_dropped_clients(),
            ))
            if verbose:
                print(f"[{strategy.name}] cycle {cycle:3d} "
                      f"t={self.clock_s:9.1f}s acc={last_accuracy:.4f} "
                      f"loss={outcome.mean_train_loss:.4f}")
            if target_accuracy is not None and last_accuracy >= target_accuracy:
                break
        return history


def make_client_specs(model_factory: Callable[[], Sequential],
                      client_datasets: Sequence[Dataset],
                      devices: Sequence,
                      client_config=None,
                      seed: int = 0) -> List[ClientSpec]:
    """One picklable :class:`ClientSpec` per (dataset, device) pair.

    Specs are the unit worker-resident execution backends ship to worker
    processes; building the fleet through them keeps the description and
    the runtime state cleanly separated.
    """
    if len(client_datasets) != len(devices):
        raise ValueError("need exactly one device per client dataset")
    from .client import ClientConfig
    config = client_config or ClientConfig()
    return [
        ClientSpec(client_id=index, dataset=dataset, device=device,
                   model_factory=model_factory, config=config, seed=seed)
        for index, (dataset, device) in enumerate(zip(client_datasets,
                                                      devices))
    ]


def build_simulation(model_factory: Callable[[], Sequential],
                     client_datasets: Optional[Sequence[Dataset]] = None,
                     devices: Optional[Sequence] = None,
                     test_dataset: Optional[Dataset] = None,
                     input_shape: Tuple[int, ...] = (),
                     client_config=None,
                     comm_model: Optional[CommunicationModel] = None,
                     workload_scale: float = 1.0,
                     seed: int = 0,
                     backend: Union[None, str, ExecutionBackend] = None,
                     client_specs: Optional[Sequence[ClientSpec]] = None
                     ) -> FederatedSimulation:
    """Convenience constructor used by experiments and examples.

    Builds one :class:`FLClient` per (dataset, device) pair — or from
    prebuilt ``client_specs`` — an :class:`FLServer` around
    ``model_factory`` and wires them into a :class:`FederatedSimulation`.
    """
    if client_specs is None:
        if client_datasets is None or devices is None:
            raise ValueError("pass either client_specs or both "
                             "client_datasets and devices")
        client_specs = make_client_specs(model_factory, client_datasets,
                                         devices, client_config=client_config,
                                         seed=seed)
    elif client_datasets is not None or devices is not None:
        raise ValueError("client_specs is mutually exclusive with "
                         "client_datasets/devices")
    server = FLServer(model_factory, test_dataset=test_dataset)
    clients = [FLClient.from_spec(spec) for spec in client_specs]
    return FederatedSimulation(clients, server, input_shape,
                               comm_model=comm_model,
                               workload_scale=workload_scale, seed=seed,
                               backend=backend)
