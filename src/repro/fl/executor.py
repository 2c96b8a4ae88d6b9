"""Execution backends: how a cycle's client trainings actually run.

The simulation engine hands every aggregation cycle's local trainings to an
:class:`ExecutionBackend` as a batch of :class:`TrainingJob` descriptions.
Two implementations serve three backend names:

* :class:`SerialBackend` (``serial``) — the batch trains and folds in
  the calling thread, on the caller's clients.  Nothing is encoded or
  shipped; always available.
* :class:`ShardedSocketBackend` (``persistent`` and ``sharded``) —
  clients live *resident* in shard servers, the fleet partitioned
  across slots.  A ``persistent`` slot is a forked child of this
  process serving one end of a ``socket.socketpair()``; a ``sharded``
  slot is a ``repro shard-worker`` process, spawned on localhost or
  reached at an address (``shards=["host:port", ...]``), so the fleet
  can span machines.  Each slot builds its clients once from their
  picklable :class:`~repro.fl.client.ClientSpec` and keeps them across
  cycles; per batch the parent ships only the weights snapshot (once
  per slot), per-job masks and a per-client RNG digest.  Dispatch cost
  is therefore O(weights), independent of dataset size.

Every slot speaks the same protocol over the same transport
(:mod:`repro.fl.transport`) and ships its per-cycle payloads through the
wire codec of :mod:`repro.fl.codec`: zero-copy out-of-band ndarray
framing of self-contained frames — the arrays travel as they are, so
the codec cannot perturb the determinism guarantees below.  Every
backend trains a batch through one function, :func:`_train_batch_groups`:
the clients that share a model topology and schedule train as stacked
passes (:mod:`repro.fl.fusion`), the rest one by one.  There is no
option, and both routes are bit-identical to the per-client loop.

Determinism
-----------
All backends are *bit-identical* to each other under a fixed seed:

* every client owns its RNG and model replica, so trainings of distinct
  clients share no mutable state;
* jobs for the *same* client are chained sequentially in submission order
  (never interleaved), preserving the client's RNG consumption order; the
  resident backends additionally pin each client to one worker (sticky
  placement) so its resident replica is never duplicated;
* results are re-ordered to match the submitted job order before they are
  returned, regardless of completion order;
* the resident backends ship the client's post-training RNG state back
  to the parent so the in-process client objects' streams advance
  exactly as if they had trained locally (trained weights stay in the
  slot: every training starts from the shipped snapshot).

A worker that raises propagates its exception to the caller — the batch
fails loudly rather than silently dropping a client's update.

Fault tolerance
---------------
A worker/shard *dying* (as opposed to a training raising) is a transport
failure; the resident backends' policy for it is
:class:`BackendConfig`'s ``on_failure``.  Every wire batch carries the
clients' starting weights and pre-batch RNG digests and parent-side
state is mirrored only after a batch succeeds, so a retried batch is
bit-identical to an undisturbed run: a killed shard costs wall-clock
time, never reproducibility (see :class:`ShardedSocketBackend`).
"""

from __future__ import annotations

import atexit
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..nn.masking import ModelMask
from ..nn.model import Sequential
from . import codec as wire_codec
from .aggregation import (NUM_LEVELS, ModelStructure, PartialAggregate,
                          fold_stacked, fold_updates, level_sums,
                          merge_partials, neuron_contributions,
                          normalize_weights)
from .client import (ClientSpec, ClientUpdate, FLClient, TrainingSummary,
                     client_rng)
from .codec import (KIND_ERROR, KIND_FOLD, KIND_PING, KIND_PONG,
                    KIND_RESULTS, KIND_SHUTDOWN, KIND_VFOLD)
from .fusion import cluster_signature, train_cluster, train_stacked
from .transport import (DEFAULT_MAX_FRAME_BYTES, DEFAULT_READ_DEADLINE_S,
                        HANDSHAKE_TIMEOUT_S, ConnectionClosedError,
                        MessageChannel, ProtocolError, ShardServer,
                        TransportError, _picklable_exception,
                        connect_to_shard, format_address, handshake,
                        parse_address)

__all__ = [
    "TrainingJob",
    "ExecutionBackend",
    "SerialBackend",
    "ShardedSocketBackend",
    "ShardError",
    "REPLY_DEADLINE_S",
    "RECONNECT_ATTEMPTS",
    "FAILURE_POLICIES",
    "BackendConfig",
    "BackendOptionError",
    "available_backends",
    "make_backend",
    "summarize_update",
]

#: Transport failures that mean "the worker/shard is gone" (or its reply
#: stream is unusable), as opposed to an exception the remote training
#: itself raised.  Codec decode failures count: a garbled reply leaves
#: the request/reply stream in an unknowable state, exactly like a
#: truncated frame.
_TRANSPORT_FAILURES = (EOFError, OSError, TransportError,
                       wire_codec.CodecError)

#: Control messages, encoded once at import time so that closing a
#: backend never needs to encode anything — ``close()`` stays safe even
#: during interpreter shutdown, when module globals may be torn down.
_SHUTDOWN_FRAME = wire_codec.encode_message((KIND_SHUTDOWN, None))
_PING_FRAME = wire_codec.encode_message((KIND_PING, None))


def _note_swallowed(context: str, exc: BaseException) -> None:
    """One-line stderr note for an error a teardown path survives.

    Teardown must stay idempotent and safe during interpreter shutdown,
    so these paths never re-raise — but silently eating the error makes
    dead-worker bugs undiagnosable.  stderr itself may already be torn
    down when this runs, so the write is best-effort.
    """
    try:
        print(f"repro: swallowed while {context}: {exc!r}",
              file=sys.stderr)
    except Exception:  # lint: allow[swallow]
        pass

#: Policies of the worker-resident backends when a slot's transport dies
#: mid-operation: ``abort`` (historical behavior — fail the batch, close
#: the backend, raise the slot-identified error), ``rebalance`` (repair
#: the topology and retry the batch bit-identically) or ``degrade``
#: (finish the cycle without the dead slot: its clients are dropped,
#: aggregation re-weights over the survivors, and the dropped-client
#: set is recorded in the run history — see
#: :class:`ShardedSocketBackend`).
FAILURE_POLICIES = ("abort", "rebalance", "degrade")


#: Seconds the parent waits on any one exchange with a slot — a batch's
#: reply, a drained reply, a pong, a frame it sends — before the slot
#: counts as failed and the failure policy takes over.  It is the
#: timeout of the slot's socket, set once when the slot connects, so a
#: slot that is alive but silent (stopped, hung, cut off without a FIN)
#: fails through the same path as a dead one.  A slot that *closed* its
#: end is found sooner, before the next batch is sent (see
#: :meth:`ShardedSocketBackend._prepare_slots`).  The longest reply
#: measured here is one shard's fold of a 10^6-client virtual fleet,
#: ≈ 60 s on two shards; the deadline is ten times that, and the same
#: number as the shard's own mid-frame read deadline.
REPLY_DEADLINE_S = DEFAULT_READ_DEADLINE_S

#: Reconnects an externally addressed shard gets, after the failure
#: that cost its connection, before its slot is declared dead and its
#: clients move to the survivors (a local slot is respawned instead).
#: A reconnect to a shard that is gone is refused at once, so a second
#: attempt would only add a round trip.
RECONNECT_ATTEMPTS = 1


@dataclass(eq=False)
class _Slot:
    """Everything the backend knows about one slot, in one record.

    ``state`` is the slot's place in the failure policies:

    * ``"up"`` — may host clients;
    * ``"out"`` — failed during this batch under ``degrade``: its
      clients sit the batch out; back to ``"up"`` when the next batch
      starts, which probes it again;
    * ``"dead"`` — an external shard that failed more than
      :data:`RECONNECT_ATTEMPTS` times in a row under ``rebalance``:
      its clients move to the survivors until :meth:`close`.

    ``failures`` counts transport failures since the last committed
    batch.  ``channel``, ``proc`` and ``address`` are the live
    transport: the hello'd connection, the local process (a
    :class:`_ForkedSlot` or a spawned ``repro shard-worker``, ``None``
    for an external shard) and the address it is reached at.
    """

    channel: Optional[MessageChannel] = None
    proc: Any = None
    address: Optional[Tuple[str, int]] = None
    state: str = "up"
    failures: int = 0


class _SlotFailed(Exception):
    """Internal: a slot's transport died during ``context``.

    Raised by :meth:`ShardedSocketBackend._dispatch` /
    :meth:`_collect_reply` *instead of* closing the backend, so the
    retry loop in :meth:`_with_failover` can decide between aborting (close +
    raise the slot-identified error) and failing over.  ``pending``
    names the surviving slots that still owe a reply for the aborted
    batch — the failover drains them so their request/reply streams
    return to idle.  Never escapes the backend.
    """

    def __init__(self, slot: int, context: str,
                 cause: Optional[BaseException] = None,
                 pending: Sequence[int] = ()) -> None:
        super().__init__(f"slot {slot} failed while {context}")
        self.slot = slot
        self.context = context
        self.cause = cause
        self.pending = tuple(pending)


@dataclass
class TrainingJob:
    """One client-local training to execute within a batch.

    Attributes
    ----------
    index:
        Client index within the simulation's fleet.
    weights:
        The starting weights the client trains from (typically a snapshot
        of the global model; asynchronous strategies pass stale snapshots).
    mask:
        Optional neuron mask (soft-training / partial-model baselines).
    local_epochs:
        Optional override of the client's configured local epochs.
    base_cycle:
        Aggregation cycle the ``weights`` snapshot was taken at (staleness
        bookkeeping).
    """

    index: int
    weights: Dict[str, np.ndarray]
    mask: Optional[ModelMask] = None
    local_epochs: Optional[int] = None
    base_cycle: int = 0


def summarize_update(index: int, update: ClientUpdate,
                     start: Dict[str, np.ndarray],
                     model: Sequential) -> TrainingSummary:
    """The :class:`~repro.fl.client.TrainingSummary` of one trained job.

    Called by whichever process holds the trained weights: for a masked
    job it carries paper Eq. 1 between the job's starting weights
    ``start`` and the update's (``model`` gives the layer structure).
    """
    return TrainingSummary(
        index=index, client_id=update.client_id,
        client_name=update.client_name, num_samples=update.num_samples,
        train_loss=update.train_loss,
        contributions=(None if update.mask is None else
                       neuron_contributions(model, start, update.weights)))


def _group_jobs(jobs: Sequence[TrainingJob]
                ) -> List[Tuple[int, List[int], List[TrainingJob]]]:
    """Group jobs by client index, preserving submission order.

    Returns ``(client_index, positions, client_jobs)`` triples where
    ``positions`` are the indices of the jobs in the original batch.  Jobs
    of the same client stay in submission order so its RNG consumption is
    identical to a serial run.
    """
    groups: Dict[int, Tuple[List[int], List[TrainingJob]]] = {}
    for position, job in enumerate(jobs):
        positions, client_jobs = groups.setdefault(job.index, ([], []))
        positions.append(position)
        client_jobs.append(job)
    return [(index, positions, client_jobs)
            for index, (positions, client_jobs) in groups.items()]


class ExecutionBackend:
    """Abstract batch executor for client-local trainings."""

    #: Identifier used by :func:`make_backend` and the CLI.
    name: str = "backend"

    #: Every backend folds where it trains; the constant is read by
    #: ``benchmarks/e2e/child.py:86``.
    aggregation: str = "hierarchical"

    def run_jobs(self, clients: Sequence[FLClient],
                 jobs: Sequence[TrainingJob]) -> List[ClientUpdate]:
        """Train a batch in this process and return updates in job order.

        Only :class:`SerialBackend` trains here, and its :meth:`run_fold`
        reads the updates through this method.  The name resolves on
        every backend because ``benchmarks/e2e/child.py:90-92`` wraps it
        on whatever backend a traced run uses.
        """
        raise NotImplementedError

    def run_fold(self, clients: Sequence[FLClient],
                 jobs: Sequence[TrainingJob],
                 weight_factors: Sequence[float],
                 structure: Optional[ModelStructure] = None,
                 partial: bool = True
                 ) -> Tuple[List[PartialAggregate],
                            List[Optional[TrainingSummary]]]:
        """Train a batch and reduce it into partial aggregates.

        The hierarchical-aggregation entry point: instead of returning
        every update, the batch is folded into one or more
        :class:`~repro.fl.aggregation.PartialAggregate` objects that the
        caller combines via
        :meth:`~repro.fl.server.FLServer.install_partials`.

        ``weight_factors`` are the **globally normalized** per-job
        aggregation weights (normalized over the whole batch, so every
        slot folds with the floats one in-process fold would use);
        ``partial`` selects neuron-granular folding.  Because the fold is
        partition-independent, every backend and slot topology
        finalizes to the bit-identical global model.  A job a
        ``degrade`` failover dropped leaves its factor out of the fold:
        :func:`~repro.fl.aggregation.finalize_partials` divides by the
        summed weight of what was folded, so the dropped share spreads
        over the survivors (and whatever partial the caller merges in
        beside them) in proportion to their factors.

        Returns ``(partials, summaries)`` where ``summaries`` holds one
        :class:`~repro.fl.client.TrainingSummary` per job, in job order
        (``None`` for a job a ``degrade`` failover dropped); a masked
        job's summary carries its Eq. 1 contributions.  Every backend
        trains the batch through :func:`_train_batch_groups`.
        """
        raise NotImplementedError

    def run_virtual_fold(self, template: Any,
                         weights: Dict[str, np.ndarray],
                         structure: Optional[ModelStructure] = None
                         ) -> Tuple[List[PartialAggregate], np.ndarray, int]:
        """Train one cycle of a virtualized fleet and fold it in-slot.

        ``template`` describes the logical fleet by recipe (see
        :class:`~repro.fl.simulation.VirtualFleet`): clients are
        materialized on demand a chunk at a time, trained once on
        ``weights`` and folded immediately — nothing per-client is ever
        shipped, which is how two shards host 10^6 logical clients.
        Virtual clients are *stateless*: each cycle rebuilds them from
        their spec (fresh per-cycle RNG), and every client carries the
        same uniform aggregation weight ``template.uniform_factor``.
        What a chunk's clients are built from — its stacked datasets
        and shuffle orders — depends only on the recipe and the id
        range, so each shard connection (``serial``: the backend, until
        :meth:`close`) keeps it in a :class:`_ChunkMemo` keyed by
        ``(dataset_factory, fleet seed, local_epochs, id range)``, up to
        :data:`_CHUNK_MEMO_BYTES`; past that, chunks are built every
        cycle.

        Returns ``(partials, loss_levels, count)``: the
        :class:`~repro.fl.aggregation.PartialAggregate` of every slot
        that trained clients, and the exact per-level sums of
        ``train_loss x uniform_factor`` — collapse them for the cycle's
        mean loss.
        """
        raise NotImplementedError

    def invalidate_client(self, index: Optional[int] = None) -> None:
        """Client lifecycle notification (added / mutated / removed).

        The simulation routes fleet mutations — :meth:`add_client`, device
        swaps, cost-cache invalidations — through this hook so backends
        holding worker-resident replicas re-ship the client's spec before
        its next training.  ``None`` invalidates the whole fleet.  The
        serial backend shares the caller's client objects and needs no
        action.
        """

    def attach_chaos(self, controller: Any) -> None:
        """Adopt a :class:`~repro.fl.chaos.ChaosController`.

        Only the worker-resident backends have a substrate to injure
        (worker processes to kill, sockets to sever, wire frames to
        corrupt); everything else rejects the attachment loudly so a
        scenario never *silently* runs without its faults.
        """
        raise RuntimeError(
            f"backend {self.name!r} does not support fault injection; "
            f"use a worker-resident backend ('persistent', 'sharded')")

    def consume_dropped_clients(self) -> Tuple[int, ...]:
        """Clients dropped by ``degrade`` failovers since the last call.

        Drained by :meth:`FederatedSimulation.run` after every cycle and
        recorded in the cycle's :class:`~repro.fl.history.CycleRecord`,
        which is what keeps degraded runs auditable.  Backends without a
        degrade mode never drop anyone.
        """
        return ()

    def dispatch_payload_bytes(self, clients: Sequence[FLClient],
                               jobs: Sequence[TrainingJob],
                               structure: Optional[ModelStructure] = None
                               ) -> int:
        """Bytes this backend would put on the wire to fold ``jobs`` now.

        Diagnostic used by the substrate benchmark and the traced e2e
        probe to compare dispatch cost across backends.  The serial
        backend ships nothing (0); the resident backends ship
        weights/masks/RNG digests only (plus specs for clients their
        workers have not built yet).
        """
        return 0

    def close(self) -> None:
        """Release worker resources (the serial backend: its virtual
        chunks' memo).

        Closing is idempotent, and a closed backend may be used again:
        pools are re-created lazily on the next batch.
        """

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r})"


class SerialBackend(ExecutionBackend):
    """Train a batch in the calling thread and fold it there.

    The caller's clients are the resident fleet: the batch trains
    through :func:`_train_batch_groups`, the function every slot runs,
    so ``serial`` stacks exactly what a slot stacks, and nothing is
    encoded or shipped.
    """

    name = "serial"

    def __init__(self) -> None:
        self._chunk_memo = _ChunkMemo()

    def run_jobs(self, clients: Sequence[FLClient],
                 jobs: Sequence[TrainingJob]) -> List[ClientUpdate]:
        """Updates in job order; a failing batch raises the error of its
        first failing client, in first-submission order (as every slot
        batch does)."""
        weights_table: List[Dict[str, np.ndarray]] = []
        refs: Dict[int, int] = {}
        grouped = _group_jobs(jobs)
        groups = [_wire_group(index, None, clients[index], client_jobs,
                              weights_table, refs)
                  for index, _, client_jobs in grouped]
        outcomes = _train_batch_groups(
            {index: clients[index] for index, _, _ in grouped},
            weights_table, groups)
        updates: List[Optional[ClientUpdate]] = [None] * len(jobs)
        for (_, positions, _), outcome in zip(grouped, outcomes):
            if outcome[0] == "error":
                raise outcome[1]
            for position, update in zip(positions, outcome[1]):
                updates[position] = update
        return updates  # type: ignore[return-value]

    def run_fold(self, clients: Sequence[FLClient],
                 jobs: Sequence[TrainingJob],
                 weight_factors: Sequence[float],
                 structure: Optional[ModelStructure] = None,
                 partial: bool = True
                 ) -> Tuple[List[PartialAggregate],
                            List[Optional[TrainingSummary]]]:
        # Through run_jobs, not _run_fold_batch: the traced e2e probe
        # reads a serial fold's updates off this method.
        updates = self.run_jobs(clients, jobs)
        if not updates:
            return [], []
        factors = np.asarray(weight_factors, dtype=np.float64)
        partials = [fold_updates(updates, factors, structure=structure,
                                 partial=partial)]
        summaries = [summarize_update(job.index, update, job.weights,
                                      clients[job.index].model)
                     for job, update in zip(jobs, updates)]
        return partials, summaries

    def run_virtual_fold(self, template: Any,
                         weights: Dict[str, np.ndarray],
                         structure: Optional[ModelStructure] = None
                         ) -> Tuple[List[PartialAggregate], np.ndarray, int]:
        batch = _WireVirtualBatch(
            weights_table=[weights], template=template, lo=0,
            hi=template.num_clients, factor=template.uniform_factor,
            loss_scale=template.uniform_factor)
        payload, loss_levels, count = _run_virtual_batch(batch,
                                                         self._chunk_memo)
        return (([payload] if payload is not None else []),
                loss_levels, count)

    def close(self) -> None:
        """Drop the virtual chunks' memo."""
        self._chunk_memo.clear()


# --------------------------------------------------------------------- #
# wire batches and the request handler every slot runs
# --------------------------------------------------------------------- #

@dataclass
class _WireJob:
    """One job as shipped to a resident slot.

    ``weights_ref`` indexes the worker batch's weights table — a shared
    global snapshot travels once per worker however many clients train
    from it.
    """

    weights_ref: int
    mask: Optional[ModelMask]
    local_epochs: Optional[int]
    base_cycle: int


@dataclass
class _WireGroup:
    """One client's chained jobs within a worker batch.

    ``spec`` is only present the first time the worker sees the client (or
    after an invalidation); afterwards the resident replica is reused and
    only the RNG digest travels.
    """

    index: int
    spec: Optional[ClientSpec]
    rng_state: dict
    jobs: List[_WireJob]


def _wire_group(index: int, spec: Optional[ClientSpec], client: FLClient,
                client_jobs: Sequence[TrainingJob],
                weights_table: List[Dict[str, np.ndarray]],
                refs: Dict[int, int]) -> _WireGroup:
    """``client``'s chained jobs as one group, from its current RNG state.

    Each distinct starting snapshot joins ``weights_table`` once
    (``refs`` maps its ``id`` to its row), so a global snapshot that
    many clients train from is held, and shipped, once.
    """
    jobs = []
    for job in client_jobs:
        ref = refs.get(id(job.weights))
        if ref is None:
            ref = refs[id(job.weights)] = len(weights_table)
            weights_table.append(job.weights)
        jobs.append(_WireJob(weights_ref=ref, mask=job.mask,
                             local_epochs=job.local_epochs,
                             base_cycle=job.base_cycle))
    return _WireGroup(index=index, spec=spec,
                      rng_state=client.rng.bit_generator.state, jobs=jobs)


@dataclass
class _WireFoldBatch:
    """Everything one resident slot needs for one cycle.

    ``weights_table`` holds every starting snapshot the slot's jobs
    train from (a fresh global and an asynchronous strategy's stale
    bases travel side by side, each once); ``factors`` carries, parallel
    to ``groups``, each group's jobs' globally normalized aggregation
    weights; ``partial``/``structure`` pin the fold mode so every slot
    takes the same numerical route.  The reply ships one partial
    aggregate plus a :class:`~repro.fl.client.TrainingSummary` per job
    (with Eq. 1 for a masked one) — O(weights) upstream however many
    clients trained.  ``straggle_s`` is an injected slowdown slept
    inside the worker before training (chaos scenarios' straggler
    waves; 0 in production).
    """

    weights_table: List[Dict[str, np.ndarray]]
    groups: List[_WireGroup]
    factors: List[List[float]]
    partial: bool
    structure: Optional[ModelStructure]
    straggle_s: float = 0.0


@dataclass
class _WireVirtualBatch:
    """One slot's contiguous id-range of a virtualized fleet cycle.

    Virtual clients are never resident: the slot materializes the
    clients ``[lo, hi)`` of ``template`` a chunk at a time, trains them
    on the (single-entry) weights table and folds the chunk
    immediately.  The batch carries no routing switch: whether a chunk
    runs as one stacked pass or client by client through
    ``template.spec_for(client_id)`` is decided on the slot from what
    the template holds (see :func:`_run_virtual_batch`) and is invisible
    in the reply.  ``lo``/``hi`` are validated against
    ``template.num_clients`` before any work.  ``factor`` is the uniform
    per-client aggregation weight; ``loss_scale`` (``1/num_clients``)
    keeps the loss-mean reduction inside the reproducible-summation
    domain at fleet sizes where a plain loss sum would not be.
    """

    weights_table: List[Dict[str, np.ndarray]]
    template: Any
    lo: int
    hi: int
    factor: float
    loss_scale: float


def _handle_resident_request(kind: str, payload: Any,
                             residents: Dict[int, "FLClient"],
                             memo: "_ChunkMemo") -> Tuple[str, Any]:
    """Serve one ``fold``/``vfold`` request.

    This is the protocol core every shard server runs, a forked local
    slot and a ``repro shard-worker`` alike.  ``residents`` is the
    resident fleet of the connection the server is serving and ``memo``
    its virtual chunks' inputs (see
    :class:`~repro.fl.transport.ShardServer`).  A request whose handling
    blows up degrades to an ``("error", ...)`` reply instead of killing
    the worker — only ``Exception``, though, so Ctrl-C still stops a
    foreground shard mid-batch.
    """
    if kind == KIND_FOLD:
        try:
            return (KIND_RESULTS, _run_fold_batch(residents, payload))
        except Exception as exc:
            return (KIND_ERROR, _picklable_exception(exc))
    if kind == KIND_VFOLD:
        try:
            return (KIND_RESULTS, _run_virtual_batch(payload, memo))
        except Exception as exc:
            return (KIND_ERROR, _picklable_exception(exc))
    return (KIND_ERROR, ProtocolError(f"unknown message kind {kind!r}"))


def _ensure_resident(residents: Dict[int, FLClient],
                     group: _WireGroup) -> Tuple:
    """Build or fetch a group's resident client.

    Returns ``("ok", client)`` or ``("error", exc)``; build failures
    drop any stale replica so the parent re-ships a clean spec.
    """
    if group.spec is not None:
        # A spec that cannot build on this host (import error, missing
        # file) fails its own group, not the whole worker/shard.
        try:
            residents[group.index] = group.spec.build()
        except Exception as exc:
            residents.pop(group.index, None)
            return ("error", exc)
    client = residents.get(group.index)
    if client is None:  # pragma: no cover - protocol invariant guard
        return ("error", RuntimeError(
            f"worker has no resident client {group.index} and "
            f"received no spec"))
    return ("ok", client)


def _train_resident_group(residents: Dict[int, FLClient],
                          client: FLClient,
                          weights_table: List[Dict[str, np.ndarray]],
                          group: _WireGroup) -> Tuple:
    """Train one ensured client's chained jobs through the classic loop.

    Returns ``("ok", updates, rng_state)`` or ``("error", exc)``; the
    error case drops the resident replica so the parent re-ships a clean
    spec before the client's next batch.
    """
    client.rng.bit_generator.state = group.rng_state
    try:
        updates = [client.local_train(
            weights_table[job.weights_ref], mask=job.mask,
            local_epochs=job.local_epochs, base_cycle=job.base_cycle)
            for job in group.jobs]
    except Exception as exc:
        # The replica may be mid-training; drop it so the parent
        # re-ships a clean spec before the client's next batch.
        residents.pop(group.index, None)
        return ("error", exc)
    return ("ok", updates, client.rng.bit_generator.state)


def _straggle(batch: Any) -> None:
    """Sleep out a batch's injected straggler delay (worker side).

    Chaos scenarios' straggler waves ride inside the wire batch, so the
    parent genuinely blocks on a slow slot — the same shape an
    overloaded shard produces.  Pure wall-clock: nothing numerical ever
    depends on it.
    """
    if batch.straggle_s > 0:
        time.sleep(batch.straggle_s)


#: Clients per stacked pass — of a cluster or a virtual fleet's id range.
#: Bounds a pass's stacked temporaries (the twin's activations and
#: gradients, a virtual chunk's datasets) at chunk x one client's,
#: however many clients share the signature.
_STACK_CHUNK = 64


def _train_stacked_chunk(chunk: List[Tuple[int, FLClient, _WireGroup]],
                         weights_table: List[Dict[str, np.ndarray]]
                         ) -> Optional[List[ClientUpdate]]:
    """One stacked pass over ``chunk``'s members, or ``None`` if it raised."""
    for _, client, group in chunk:
        client.rng.bit_generator.state = group.rng_state
    try:
        return train_cluster(
            [(client, group.jobs[0]) for _, client, group in chunk],
            weights_table)
    except (ValueError, KeyError):
        # What the stacked pass refuses (labels outside the logits, a
        # mask or snapshot of the wrong shape) the classic loop refuses
        # per client: the caller re-runs the members there, each to its
        # own outcome and error.
        return None


def _train_batch_groups(residents: Dict[int, FLClient],
                        weights_table: List[Dict[str, np.ndarray]],
                        groups: List[_WireGroup]) -> List[Tuple]:
    """Per-group training outcomes of one batch, in group order.

    The one function that trains a batch: a slot runs it on its resident
    fleet, :class:`SerialBackend` on the caller's clients.  Groups
    sharing a :func:`~repro.fl.fusion.cluster_signature` train as
    stacked passes of up to :data:`_STACK_CHUNK` clients; a group of its
    own, an ineligible group and the members of a pass that raised run
    the classic per-client loop.  Outcomes are bit-identical to the
    classic loop's — clients share no state and every group's RNG is
    restored from its digest, so neither the cluster-first order nor the
    route shows in the results.  An error outcome carries the exception
    as raised (see :func:`_train_resident_group`).
    """
    outcomes: List[Optional[Tuple]] = [None] * len(groups)
    clusters: Dict[Any, List[Tuple[int, FLClient, _WireGroup]]] = {}
    for position, group in enumerate(groups):
        ensured = _ensure_resident(residents, group)
        if ensured[0] == "error":
            outcomes[position] = ensured
            continue
        signature = cluster_signature(ensured[1], group, weights_table)
        # An ineligible group is a cluster of its own (keyed by position).
        clusters.setdefault(position if signature is None else signature,
                            []).append((position, ensured[1], group))
    for members in clusters.values():
        for start in range(0, len(members), _STACK_CHUNK):
            chunk = members[start:start + _STACK_CHUNK]
            # A pass of one gains nothing from stacking.
            updates = (_train_stacked_chunk(chunk, weights_table)
                       if len(chunk) > 1 else None)
            for row, (position, client, group) in enumerate(chunk):
                outcomes[position] = (
                    _train_resident_group(residents, client, weights_table,
                                          group) if updates is None
                    else ("ok", [updates[row]],
                          client.rng.bit_generator.state))
    return outcomes


def _run_fold_batch(residents: Dict[int, FLClient],
                    batch: _WireFoldBatch
                    ) -> Tuple[List[Tuple], Optional[PartialAggregate]]:
    """Train a fold batch and reduce it into one partial aggregate.

    A group that failed to build or train is an ``(index, "error",
    exc)`` entry; success entries carry only the post-training RNG
    digest and per-job :class:`~repro.fl.client.TrainingSummary`
    objects, Eq. 1 computed here, where the trained weights are.  The fold is skipped (``None``)
    when any group failed — the parent raises the group error anyway,
    and a partial aggregate over a *subset* of the batch must never look
    like a finished one.
    """
    _straggle(batch)
    results: List[Tuple] = []
    folded_updates: List[ClientUpdate] = []
    folded_factors: List[float] = []
    failed = False
    outcomes = _train_batch_groups(residents, batch.weights_table,
                                   batch.groups)
    for group, group_factors, outcome in zip(batch.groups, batch.factors,
                                             outcomes):
        if outcome[0] == "error":
            results.append((group.index, "error",
                            _picklable_exception(outcome[1])))
            failed = True
            continue
        _, updates, rng_state = outcome
        model = residents[group.index].model
        results.append((group.index, "ok", rng_state, [
            summarize_update(group.index, update,
                             batch.weights_table[job.weights_ref], model)
            for job, update in zip(group.jobs, updates)]))
        folded_updates.extend(updates)
        folded_factors.extend(group_factors)
    aggregate: Optional[PartialAggregate] = None
    if not failed and folded_updates:
        aggregate = fold_updates(
            folded_updates,
            np.asarray(folded_factors, dtype=np.float64),
            structure=batch.structure, partial=batch.partial)
    return results, aggregate


def _virtual_stacked_probe(batch: _WireVirtualBatch) -> Optional[FLClient]:
    """The range's first client if the stacked engine can stand in for
    the per-client loop on this fleet, else ``None``.

    Decided once per batch, by the eligibility rules resident clusters
    use (:func:`~repro.fl.fusion.cluster_signature` on a client built
    the classic way): plain ``FLClient``, a ``Sequential`` of stackable
    layers, softmax cross-entropy, a C-order snapshot of its shapes.  The
    stacked route then reads the rest of the range from the recipe —
    ``template.dataset_factory`` plus this client's spec with another
    ``client_id`` — which is what a virtual fleet's ``spec_for`` means.
    """
    if getattr(batch.template, "dataset_factory", None) is None:
        return None
    probe = batch.template.spec_for(batch.lo).build()
    group = _WireGroup(index=batch.lo, spec=None, rng_state={},
                       jobs=[_WireJob(weights_ref=0, mask=None,
                                      local_epochs=None, base_cycle=0)])
    if cluster_signature(probe, group, batch.weights_table) is None:
        return None
    return probe


#: Bytes of virtual-chunk inputs one :class:`_ChunkMemo` keeps: a shard
#: connection's, or an in-process backend's.  A chunk of the benchmark
#: recipe (64 ids x 8 samples of 1 x 8 x 8) holds 136 KiB, so 10^4 such
#: clients (157 chunks, 20.9 MiB) fit in one serial memo — the smallest
#: power of two that does — and 10^5 on two shards (782 chunks, 104 MiB
#: a shard) run past it.
_CHUNK_MEMO_BYTES = 32 << 20


class _ChunkMemo:
    """A virtual fleet's chunk inputs, built once and kept.

    Maps ``(dataset_factory, fleet seed, local_epochs, ids, geometry)``
    to a chunk's read-only ``(images, labels, orders)``: its stacked
    datasets and every epoch's ``(C, n)`` shuffle orders, which depend on
    nothing but the key, since virtual clients are stateless.  The memo
    fills up to :data:`_CHUNK_MEMO_BYTES` and never evicts (under LRU a
    cyclic scan over a range larger than the memo would never hit);
    past the budget a chunk is built every cycle.
    """

    def __init__(self) -> None:
        self._entries: Dict[Any, Tuple[np.ndarray, ...]] = {}
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[Tuple[np.ndarray, ...]]:
        return self._entries.get(key)

    def keep(self, key: Any, arrays: Tuple[np.ndarray, ...]) -> None:
        """Store ``arrays`` read-only under ``key`` if they fit."""
        size = sum(array.nbytes for array in arrays)
        if self.nbytes + size > _CHUNK_MEMO_BYTES:
            return
        for array in arrays:
            array.flags.writeable = False
        self._entries[key] = arrays
        self.nbytes += size

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


def _build_chunk_inputs(factory: Any, seed: int, epochs: int,
                        client_ids: range, geometry: Tuple[int, ...]
                        ) -> Optional[Tuple[Any, Any, np.ndarray]]:
    """A chunk's ``(images, labels, orders)``, drawn from the recipe, or
    ``None`` when its datasets do not stack to ``geometry``.

    Each client's generator draws its epochs' shuffles in a row, the
    stream its own ``local_train`` draws; ``orders[e]`` is epoch ``e``'s
    ``(C, n)`` permutation.
    """
    if hasattr(factory, "batch"):
        images, labels = factory.batch(client_ids)
        if images.shape[1:] != geometry or labels.shape != images.shape[:2]:
            return None
    else:
        # Per-client arrays: the stacked pass gathers its mini-batches
        # from them, with no stacked copy of the datasets.
        datasets = [factory(client_id) for client_id in client_ids]
        if any(dataset.images.shape != geometry for dataset in datasets):
            return None
        images = [dataset.images for dataset in datasets]
        labels = [dataset.labels for dataset in datasets]
    rngs = [client_rng(seed, client_id) for client_id in client_ids]
    draws = [[rng.permutation(len(labels[0])) for _ in range(epochs)]
             for rng in rngs]
    return images, labels, np.array([np.stack(epoch)
                                     for epoch in zip(*draws)])


def _memoizable(factory: Any) -> bool:
    """Whether a :class:`_ChunkMemo` keeps ``factory``'s chunks: it has
    ``batch`` and a value hash (a frozen recipe such as
    ``VirtualClientDatasets``).  A per-client callable unpickles as a new
    object every cycle and would only fill the memo."""
    if not hasattr(factory, "batch"):
        return False
    try:
        hash(factory)
    except TypeError:
        return False
    return True


def _virtual_chunk_inputs(batch: _WireVirtualBatch, probe: FLClient,
                          client_ids: range, memo: Optional[_ChunkMemo]
                          ) -> Optional[Tuple[Any, Any, np.ndarray]]:
    """A chunk's ``(images, labels, orders)``, from ``memo`` when it has
    them; the memo's key is the builder's arguments."""
    factory = batch.template.dataset_factory
    key = (factory, probe.spec.seed, probe.config.local_epochs, client_ids,
           probe.dataset.images.shape)
    if memo is None or not _memoizable(factory):
        return _build_chunk_inputs(*key)
    inputs = memo.get(key)
    if inputs is None:
        inputs = _build_chunk_inputs(*key)
        if inputs is not None:
            memo.keep(key, inputs)
    return inputs


def _stacked_virtual_chunk(batch: _WireVirtualBatch, probe: FLClient,
                           client_ids: range, memo: Optional[_ChunkMemo]
                           ) -> Optional[Tuple[np.ndarray, PartialAggregate]]:
    """One chunk as a stacked pass: ``(losses, fold)``, or ``None``
    when the chunk's datasets do not stack to the probe's geometry (the
    caller then runs it through :func:`_classic_virtual_chunk`).  The
    stacked result goes straight onto the summation grids.
    """
    inputs = _virtual_chunk_inputs(batch, probe, client_ids, memo)
    if inputs is None:
        return None
    stacked, losses = train_stacked(probe.model, batch.weights_table[0],
                                    *inputs, probe.config)
    return losses, fold_stacked(
        stacked, np.full(len(client_ids), batch.factor))


def _classic_virtual_chunk(batch: _WireVirtualBatch, client_ids: range
                           ) -> Tuple[np.ndarray, PartialAggregate]:
    """One chunk client by client — the reference route, and the one
    every fleet the stacked engine does not cover takes."""
    updates = [batch.template.spec_for(client_id).build()
               .local_train(batch.weights_table[0])
               for client_id in client_ids]
    losses = np.asarray([update.train_loss for update in updates])
    return losses, fold_updates(
        updates, np.full(len(updates), batch.factor), structure=None,
        partial=False)


def _run_virtual_batch(batch: _WireVirtualBatch,
                       memo: Optional[_ChunkMemo] = None) -> Tuple:
    """Train one id-range of a virtual fleet, folding incrementally.

    Clients are ephemeral and the unit of work is a chunk of
    :data:`_STACK_CHUNK` ids: its datasets are synthesised
    stacked (or taken from ``memo``, with their shuffle orders), trained
    as one :func:`~repro.fl.fusion.train_stacked` pass and folded
    straight onto the summation grids
    (:func:`~repro.fl.aggregation.fold_stacked`).  A
    fleet the stacked engine cannot reproduce exactly (see
    :func:`_virtual_stacked_probe`), or a chunk whose datasets do not
    stack, trains client by client (:func:`_classic_virtual_chunk`,
    each ``spec_for(i)`` built and trained on ``weights``) instead; both
    routes are bit-identical and chunked folds merge exactly, so neither
    the route nor the chunk size is visible in the result.  Returns
    ``(partial, loss_levels, count)``; ``partial`` is ``None`` for an
    empty range.
    """
    lo, hi, fleet_size = batch.lo, batch.hi, batch.template.num_clients
    if not (isinstance(lo, int) and isinstance(hi, int)
            and 0 <= lo <= hi <= fleet_size):
        # The range came over the wire: refuse it before any work.
        raise ValueError(f"virtual batch range lo={lo!r}, hi={hi!r} is not "
                         f"inside a fleet of {fleet_size!r} clients")
    loss_levels = np.zeros(NUM_LEVELS, dtype=np.float64)
    folded: Optional[PartialAggregate] = None
    probe = _virtual_stacked_probe(batch) if lo < hi else None
    for start in range(lo, hi, _STACK_CHUNK):
        client_ids = range(start, min(start + _STACK_CHUNK, hi))
        outcome = (None if probe is None else
                   _stacked_virtual_chunk(batch, probe, client_ids, memo))
        losses, payload = outcome or _classic_virtual_chunk(batch,
                                                            client_ids)
        loss_levels += level_sums(losses * batch.loss_scale)
        # Level sums add exactly: merging as we go keeps one partial
        # however long the range is.
        folded = (payload if folded is None
                  else merge_partials([folded, payload]))
    return folded, loss_levels, hi - lo


class ShardError(RuntimeError):
    """A resident slot failed or disconnected mid-operation.

    Carries the slot identity (``slot``, plus the shard's ``address``;
    ``None`` for a forked local slot, which has none) so a fleet
    operator can tell *which* shard to inspect or restart.
    """

    def __init__(self, message: str, slot: Optional[int] = None,
                 address: Optional[Tuple[str, int]] = None) -> None:
        super().__init__(message)
        self.slot = slot
        self.address = address


# --------------------------------------------------------------------- #
# slot processes: forked local slots and spawned shard workers
# --------------------------------------------------------------------- #

#: Slot processes this interpreter started (forked or spawned) that are
#: still alive; an atexit hook kills leftovers so an unclosed backend
#: cannot orphan them.
_SPAWNED_SHARD_PROCS: set = set()


def _kill_spawned_shards() -> None:  # pragma: no cover - interpreter exit
    for proc in list(_SPAWNED_SHARD_PROCS):
        try:
            if proc.poll() is None:
                proc.kill()
        except Exception:  # lint: allow[swallow] - atexit, stderr gone
            pass


atexit.register(_kill_spawned_shards)


def _reap_shard_process(proc, timeout: float = 5.0) -> None:
    """Wait for a slot process to exit, killing it if it must."""
    try:
        proc.wait(timeout=timeout)
    except Exception:
        try:
            proc.kill()
            proc.wait(timeout=1.0)
        except Exception:  # lint: allow[swallow] - best-effort reap
            pass
    _SPAWNED_SHARD_PROCS.discard(proc)
    try:
        if proc.stdout is not None:
            proc.stdout.close()
    except Exception:  # lint: allow[swallow] - best-effort reap
        pass


#: Announce line a shard worker prints once it is listening.
SHARD_ANNOUNCE_PREFIX = "SHARD_LISTENING"


def _read_shard_announce(proc, timeout: float) -> Tuple[str, int]:
    """Read ``SHARD_LISTENING host port`` from a spawned shard's stdout.

    Reads the raw fd directly (``os.read`` after ``select``) instead of
    the buffered stream: mixing ``select`` with ``readline`` would lose
    the announce whenever it arrives in the same pipe chunk as earlier
    output (an import-time warning, a sitecustomize print) — the chunk
    lands in the stream's buffer, the fd never polls readable again, and
    the spawn would time out despite a live shard.
    """
    deadline = time.monotonic() + timeout  # lint: allow[determinism] - spawn timeout, not math
    fd = proc.stdout.fileno()
    pending = ""
    while True:
        while "\n" in pending:
            line, _, pending = pending.partition("\n")
            if line.startswith(SHARD_ANNOUNCE_PREFIX):
                _, host, port = line.split()
                # Keep draining the pipe in the background: a shard that
                # prints during training (verbose factories, warnings)
                # must not fill the 64 KiB pipe buffer and deadlock
                # mid-batch.
                threading.Thread(target=_drain_stream,
                                 args=(proc.stdout,),
                                 daemon=True).start()
                return host, int(port)
        remaining = deadline - time.monotonic()  # lint: allow[determinism] - spawn timeout, not math
        if remaining <= 0:
            raise ShardError(
                f"timed out after {timeout:.0f}s waiting for a local shard "
                f"worker to announce its address")
        readable, _, _ = select.select([fd], [], [], remaining)
        if not readable:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            # The pipe closes a moment before the exit status exists.
            try:
                code = proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                code = None
            raise ShardError(
                f"local shard worker exited before announcing its address "
                f"(exit code {code})")
        pending += chunk.decode("utf-8", errors="replace")


def _drain_stream(stream) -> None:
    try:
        for _ in stream:
            pass
    except Exception:  # lint: allow[swallow] - dead shard's stdout
        pass


#: Every resident backend alive in this process; a forked slot closes
#: all their channels before it serves (see :func:`_serve_forked_slot`).
_LIVE_BACKENDS: "weakref.WeakSet" = weakref.WeakSet()


def _serve_forked_slot(sock: socket.socket,
                       inherited: socket.socket) -> None:
    """Child half of a forked local slot: serve ``sock``, then exit.

    Runs right after ``fork``.  It first closes every slot channel it
    inherited — the parent's end of its own socketpair (``inherited``)
    and every live backend's channels — so no child holds a socket its
    parent may discard: a discarded slot's child, or every child of a
    dead parent, sees EOF at once.  Then it runs the shard server loop
    on ``sock`` (one connection) until the parent hangs up or sends
    ``shutdown``.  ``os._exit`` keeps the parent's atexit hooks and
    finalizers out of the child.
    """
    code = 1
    try:
        inherited.close()
        for backend in list(_LIVE_BACKENDS):
            for channel in list(backend._channels.values()):
                channel.close()
        ShardServer(connection=sock,
                    max_frame_bytes=DEFAULT_MAX_FRAME_BYTES).serve_forever()
        code = 0
    finally:
        os._exit(code)


class _ForkedSlot:
    """Popen-shaped handle (``pid``/``poll``/``wait``/``kill``) of a
    forked local slot, so forked and spawned slots are reaped, killed
    and fault-injected by the same code.

    A local slot forks rather than exec'ing a fresh interpreter: the
    child inherits every import.  On ``fleet32_persistent`` (2 slots, 2
    vCPUs) the first cycle took 86-143 ms on forked slots and 294-328
    ms on ``repro shard-worker`` spawns started together.
    """

    stdout = None

    def __init__(self, sock: socket.socket,
                 inherited: socket.socket) -> None:
        # Unflushed parent output must not be duplicated by the child.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        self.returncode: Optional[int] = None
        self.pid = os.fork()
        if self.pid == 0:
            _serve_forked_slot(sock, inherited)

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:  # reaped elsewhere: nothing to wait for
                pid, status = self.pid, 0
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        slept = 0.0
        while self.poll() is None:
            if timeout is not None and slept >= timeout:
                raise subprocess.TimeoutExpired(f"slot {self.pid}", timeout)
            time.sleep(0.005)
            slept += 0.005
        return self.returncode

    def kill(self) -> None:
        if self.poll() is None:
            os.kill(self.pid, signal.SIGKILL)


# --------------------------------------------------------------------- #
# the resident backends
# --------------------------------------------------------------------- #

class ShardedSocketBackend(ExecutionBackend):
    """The fleet partitioned across slots, each a shard server holding
    resident clients.

    One class serves both resident backend names (options and failure
    policies: :class:`BackendConfig`).  Every slot speaks one protocol
    over one transport (:mod:`repro.fl.transport`); the names differ
    only in where a slot's shard server comes from:

    * ``persistent`` — a forked child of this process serving one end of
      a ``socket.socketpair()``: no exec, no port, no announce line.
    * ``sharded`` — a ``repro shard-worker`` spawned on localhost (it
      inherits the parent's ``sys.path`` so specs unpickle identically),
      or an externally started one at a ``host:port``, possibly on
      another machine.  ``close()`` disconnects from an external shard;
      it keeps running, drops the residents the connection built, and a
      reused backend reconnects and re-ships specs.  A shard serves one
      parent at a time: while this backend is connected, another is
      refused ``shard busy`` (see :class:`~repro.fl.transport.ShardServer`).

    Every slot channel bounds a frame at
    :data:`~repro.fl.transport.DEFAULT_MAX_FRAME_BYTES`, read when the
    slot starts.  Slots start on a batch's first use, every slot the
    batch needs in one step (:meth:`_start_slots`), so N spawned shards
    cost about one interpreter start: on ``fleet32_persistent`` (2
    slots, 2 vCPUs) the first cycle took 294-328 ms on spawned shards
    started together, 519-567 ms started one after another, and 86-143
    ms on forked slots.  ``close()`` shuts local slots down and reaps
    their processes (an ``atexit`` hook kills any leftovers); a reused
    backend starts them again.

    This class owns everything determinism-critical: sticky
    client→slot placement (round-robin on first appearance), spec-
    version residency tracking, per-slot weight-snapshot dedup, ordered
    reply collection and parent-side state mirroring.  The first batch
    that touches a client ships its :class:`ClientSpec`; afterwards the
    slot reuses its resident replica and the parent sends only the
    starting-weights snapshot (once per slot per batch), per-job masks
    and a per-client RNG digest.  The parent mirrors the returned RNG
    digests into its own client objects, so migrating to another backend
    via :meth:`FederatedSimulation.set_backend` keeps every client's
    stream; trained weights stay in the slot, which never matters
    because every training starts from the shipped snapshot.

    Failures (README § Failure semantics).  Every slot's state lives in
    one :class:`_Slot` record; a slot fails when its channel breaks,
    when it closed its end before a batch (a zero-timeout readability
    check before anything is sent), or when a reply does not arrive
    within :data:`REPLY_DEADLINE_S`.  A batch gets ``max(4 x slots, 8)``
    recovery attempts, retried at once.  A retry is bit-identical by
    construction: every wire group ships the client's starting weights
    and pre-batch RNG digest, and the parent mirrors post-training state
    into its own clients only after **all** replies arrived, so the
    parent-side clients and their immutable specs are the snapshot a
    replacement slot rebuilds its residents from.  ``rebalance`` drains
    the surviving slots' owed replies (resetting their connections could
    cascade the failure onto slots merely still busy), discards the dead
    slot's channel and process — a local slot respawns on next use, an
    external one gets :data:`RECONNECT_ATTEMPTS` reconnects before its
    clients move onto the survivors — and re-dispatches the whole batch.
    """

    name = "sharded"

    def __init__(self, shards: Union[None, str, Sequence[Any]] = None,
                 max_workers: Optional[int] = None,
                 on_failure: str = "abort",
                 name: str = "sharded") -> None:
        #: The validated options (see :class:`BackendConfig`).
        self.config = BackendConfig(name, max_workers, shards, on_failure)
        self.name = name
        #: What a dead slot does to the run (:data:`FAILURE_POLICIES`).
        self.on_failure = on_failure
        self._addresses: Optional[List[Tuple[str, int]]] = (
            None if self.config.shards is None
            else [parse_address(shard) for shard in self.config.shards])
        self._num_shards = self.config.num_slots
        #: One record per slot: transport, process, address, health
        #: (see :class:`_Slot`).  Replaced wholesale by :meth:`close`.
        self._slots: List[_Slot] = [_Slot() for _ in range(self._num_shards)]
        self._placement: Dict[int, int] = {}
        #: index → spec_version of the replica resident in its slot; a
        #: client whose current spec_version differs (any identity
        #: mutation: dataset, device, config, …) gets its spec re-shipped.
        self._resident: Dict[int, int] = {}
        self._next_slot = 0
        #: Client indices dropped by the current batch attempt (filled
        #: while payloads are built under ``degrade``).
        self._attempt_dropped: List[int] = []
        #: Client indices dropped by *committed* batches since the last
        #: :meth:`consume_dropped_clients` — the audit trail
        #: :meth:`FederatedSimulation.run` mirrors into the history.
        self._dropped_log: List[int] = []
        #: Attached :class:`~repro.fl.chaos.ChaosController` (fault
        #: injection; ``None`` in production).
        self._chaos: Optional[Any] = None
        self._close_lock = threading.Lock()
        #: Bumped by every :meth:`close`; an in-flight batch that sees
        #: the epoch move refuses to fail over (it would resurrect a
        #: backend its owner just shut down) and aborts instead.
        self._close_epoch = 0
        #: Measured wire bytes of the most recent dispatched batch.
        self.last_dispatch_bytes = 0
        #: Measured wire bytes of the most recent batch's replies (all
        #: slots) — the shard→parent direction the hierarchical fold
        #: shrinks from O(clients x weights) to O(slots x weights).
        self.last_reply_bytes = 0
        _LIVE_BACKENDS.add(self)

    @property
    def num_slots(self) -> int:
        """Number of slots the fleet is partitioned across."""
        return self._num_shards

    @property
    def autospawn(self) -> bool:
        """Whether this backend starts its own (forked or spawned) slots."""
        return self._addresses is None

    def shard_address(self, slot: int) -> Optional[Tuple[str, int]]:
        """The ``(host, port)`` a slot is (or would be) served from
        (``None`` for a forked slot)."""
        address = self._slots[slot].address
        if address is None and self._addresses is not None:
            address = self._addresses[slot]
        return address

    @property
    def _channels(self) -> Dict[int, MessageChannel]:
        """Connected slots' channels by slot (a view of the records)."""
        return {index: slot.channel for index, slot in enumerate(self._slots)
                if slot.channel is not None}

    @property
    def _procs(self) -> Dict[int, Any]:
        """Local slots' processes by slot (a view of the records)."""
        return {index: slot.proc for index, slot in enumerate(self._slots)
                if slot.proc is not None}

    # ------------------------------------------------------------------ #
    # slot transport
    # ------------------------------------------------------------------ #
    def _start_slots(self, indices: Sequence[int]
                     ) -> Dict[int, Optional[BaseException]]:
        """Bring up, in one step, every slot in ``indices`` that has no
        channel; returns each one's connect failure (``None``: it is up).

        Three phases, so that N cold local shards cost about one
        interpreter start rather than N:

        1. ``Popen`` a ``repro shard-worker`` for every spawned slot
           without a live process (one whose process survived a
           transport reset is reconnected, not respawned);
        2. read their announces in slot order, each bounded by
           :data:`HANDSHAKE_TIMEOUT_S`;
        3. connect and say hello, in slot order.  A ``persistent`` slot
           forks here, one at a time: a forked child closes the channels
           it inherits, and a socketpair is one only once its slot holds
           it.

        A worker that cannot be started, or exits or times out before
        announcing, means this host cannot run a shard at all: the
        backend closes — reaping every process of the step, announced or
        not — and a :class:`ShardError` naming the slot is raised.
        """
        slots = {index: self._slots[index] for index in indices
                 if self._slots[index].channel is None}
        spawn = [index for index, slot in slots.items()
                 if self.name == "sharded" and self.autospawn
                 and (slot.proc is None or slot.proc.poll() is not None
                      or slot.address is None)]
        try:
            for index in spawn:
                self._reap(slots[index])
                # The child must unpickle whatever the parent can import
                # (specs, model factories, virtual fleet recipes): hand
                # it the parent's sys.path.
                env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                    path for path in sys.path if path))
                slots[index].proc = proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "shard-worker",
                     "--host", "127.0.0.1", "--port", "0",
                     "--max-frame-bytes", str(DEFAULT_MAX_FRAME_BYTES)],
                    stdout=subprocess.PIPE, env=env, text=True)
                _SPAWNED_SHARD_PROCS.add(proc)
            for index in spawn:
                slots[index].address = _read_shard_announce(
                    slots[index].proc, HANDSHAKE_TIMEOUT_S)
        except (ShardError, OSError, ValueError) as exc:
            # ValueError: a racing close() reaped the process and
            # closed its stdout mid-read.
            self.close()
            raise ShardError(
                f"shard {index} (local) could not start: {exc}; the "
                f"backend has been shut down", slot=index) from exc
        failures: Dict[int, Optional[BaseException]] = {}
        for index, slot in slots.items():
            try:
                if self._slots[index] is not slot:
                    raise ConnectionClosedError("the backend was closed")
                self._connect(index)
                failures[index] = None
            except _TRANSPORT_FAILURES as exc:
                failures[index] = exc
        return failures

    @staticmethod
    def _reap(slot: _Slot) -> None:
        """Forget a slot's process, killing it if it is still running."""
        proc, slot.proc = slot.proc, None
        if proc is not None:
            _reap_shard_process(proc, timeout=0.0)

    def _fork_slot(self, index: int) -> MessageChannel:
        """Fork a fresh local slot and say hello; returns its channel.

        A forked slot serves exactly one connection, so the slot's
        previous child (if any) lost its channel and is reaped first.
        """
        slot = self._slots[index]
        self._reap(slot)
        parent_end, child_end = socket.socketpair()
        try:
            slot.proc = _ForkedSlot(child_end, parent_end)
        finally:
            child_end.close()
        _SPAWNED_SHARD_PROCS.add(slot.proc)
        channel = MessageChannel(parent_end, DEFAULT_MAX_FRAME_BYTES)
        return handshake(channel, f"local slot {index}")

    def _connect(self, index: int) -> None:
        """Connect a slot whose process (if any) is up and say hello."""
        slot = self._slots[index]
        if self.name == "persistent":
            channel = self._fork_slot(index)
        else:
            address = (slot.address if self._addresses is None
                       else self._addresses[index])
            channel = connect_to_shard(
                address, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES)
            slot.address = parse_address(address)
        # Every exchange with the slot from here on is bounded.
        channel.settimeout(REPLY_DEADLINE_S)
        if self._chaos is not None:
            # Chaos scenarios corrupt this slot's outgoing request
            # frames; installing per connection means a failover's
            # fresh channel is automatically re-armed.
            channel.fault_injector = self._chaos.frame_injector(index)
        slot.channel = channel
        # A new connection starts from an empty resident fleet, so
        # every client placed on the slot gets its spec re-shipped.
        for client, placed in self._placement.items():
            if placed == index:
                self._resident.pop(client, None)

    def _prepare_slots(self, indices: Sequence[int]) -> None:
        """Ensure a batch's slots have channels before it is sent.

        A connected slot whose channel is readable while it owes nothing
        has closed its end (a dead process, a dropped connection): it
        fails here, before any slot is sent this batch, for the price of
        one zero-timeout ``select`` instead of a ping round trip.  The
        others come up in one :meth:`_start_slots` step.
        """
        for index in indices:
            channel = self._slots[index].channel
            if channel is None:
                continue
            try:
                readable, _, _ = select.select([channel], [], [], 0)
            except _TRANSPORT_FAILURES + (ValueError,) as exc:
                raise _SlotFailed(index, "waiting for a batch", exc) from exc
            if readable:
                raise _SlotFailed(index, "waiting for a batch",
                                  ConnectionClosedError(
                                      "the slot closed its end between "
                                      "batches"))
        for index, error in self._start_slots(indices).items():
            if error is not None:
                raise _SlotFailed(index, "connecting to the shard",
                                  error) from error

    def _discard_slot_transport(self, index: int) -> None:
        """Drop one slot's channel so it is rebuilt on next use."""
        channel, self._slots[index].channel = self._slots[index].channel, None
        if channel is not None:
            channel.close()
        # Residency is purged when the slot reconnects (see _connect).

    def _drain_slot(self, index: int) -> None:
        """Consume and discard one slot's owed reply (within the
        reply deadline, like any reply)."""
        channel = self._slots[index].channel
        if channel is None:
            return
        try:
            # Consumed and discarded without decoding: nobody will
            # look at it.
            channel.recv_bytes()
        except Exception:
            self._discard_slot_transport(index)

    def _slot_error(self, slot: int, context: str) -> ShardError:
        """The error to raise when a slot's transport died."""
        address = self.shard_address(slot)
        where = (format_address(address) if address is not None
                 else "forked" if self.name == "persistent"
                 else "unknown address")
        return ShardError(
            f"shard {slot} ({where}) failed while {context}; the batch "
            f"was aborted and the backend has been shut down",
            slot=slot, address=address)

    def _no_slot_error(self, context: str) -> ShardError:
        """The error when no slot is left up to take a batch."""
        down = [index for index, slot in enumerate(self._slots)
                if slot.state != "up"]
        return self._slot_error(down[0] if down else 0,
                                f"{context} (every slot is dead)")

    def _teardown(self) -> None:
        """Release every slot's channel and process; fresh records."""
        slots, self._slots = self._slots, [_Slot() for _ in self._slots]
        for slot in slots:
            if slot.channel is None:
                continue
            # Local slots are told to exit; an external shard is only
            # hung up on (it keeps serving other runs and reconnects).
            if slot.proc is not None:
                try:
                    slot.channel.send_frame(_SHUTDOWN_FRAME)
                except Exception as exc:
                    _note_swallowed("shutting a slot down", exc)
            slot.channel.close()
        for slot in slots:
            if slot.proc is not None:
                # One that never connected was sent no shutdown, so
                # don't wait for it politely.
                _reap_shard_process(slot.proc, timeout=(
                    5.0 if slot.channel is not None else 0.0))

    # ------------------------------------------------------------------ #
    # failure policy
    # ------------------------------------------------------------------ #
    def _eligible_slots(self) -> List[int]:
        """Slots that may host clients in the current batch."""
        return [index for index, slot in enumerate(self._slots)
                if slot.state == "up"]

    def attach_chaos(self, controller: Any) -> None:
        self._chaos = controller
        controller.bind(self)

    def consume_dropped_clients(self) -> Tuple[int, ...]:
        dropped = tuple(sorted(set(self._dropped_log)))
        self._dropped_log.clear()
        return dropped

    def _attempt_limit(self) -> int:
        """Recovery attempts one batch may use: every slot may fail four
        times.  A backstop against a crash loop, not a pacing knob: the
        CI scenarios never needed a second attempt, and a 2-slot batch
        under 45 % frame faults (``tests/fl/test_chaos.py``) needed at
        most five over eight seeds."""
        return max(4 * self.num_slots, 8)

    def _recover_or_raise(self, failure: _SlotFailed,
                          attempts: int) -> None:
        """Apply the failure policy to one slot failure, or abort loudly.

        ``abort`` — and every policy once the batch has used up
        :meth:`_attempt_limit` or no slot is left up — closes the
        backend and raises the slot-identified error.  Otherwise:

        1. the survivors' owed replies for the aborted batch are
           drained and discarded, not reset: they may still be training,
           and reconnecting to a busy shard could time out at the
           handshake and cascade the failure onto healthy hosts.  A slot
           that fails *while* draining loses its channel too, and the
           retry's normal failure path judges it;
        2. the failed slot's channel is released, and its process is
           killed only if it hung (the failure was a timeout).
           :meth:`_start_slots` brings the slot back on next use: a fresh
           fork, a spawned shard reconnected if it still runs and
           respawned if not, an external shard reconnected;
        3. its record moves: under ``degrade`` to ``"out"`` for the
           rest of the batch (its placements stay, which is what makes
           its clients *dropped* rather than migrated); under
           ``rebalance`` an external shard that has failed more than
           :data:`RECONNECT_ATTEMPTS` times in a row goes ``"dead"`` and
           its clients move to the survivors.

        The caller then retries the batch at once: there is no backoff,
        because every repair above is synchronous — a respawned slot
        answers its hello before the retry sends anything.
        """
        # Build the error before any teardown wipes the slot bookkeeping
        # (it carries the slot identity, e.g. the shard's address).
        error = self._slot_error(failure.slot, failure.context)
        if self.on_failure != "abort" and attempts <= self._attempt_limit():
            for index in failure.pending:
                self._drain_slot(index)
            self._discard_slot_transport(failure.slot)
            slot = self._slots[failure.slot]
            if isinstance(failure.cause, TimeoutError):
                slot.address = None
                self._reap(slot)
            slot.failures += 1
            if self.on_failure == "degrade":
                slot.state = "out"
            elif (not self.autospawn
                  and slot.failures > RECONNECT_ATTEMPTS):
                slot.state = "dead"
                for client, placed in list(self._placement.items()):
                    if placed == failure.slot:
                        self._placement.pop(client)
                        self._resident.pop(client, None)
            if self._eligible_slots():
                return
        self.close()
        raise error from failure.cause

    def _with_failover(self, attempt: Callable[[], Any]) -> Any:
        """Run one batch attempt under the configured failure policy."""
        attempts = 0
        for slot in self._slots:
            if slot.state == "out":
                slot.state = "up"
        self._attempt_dropped = []
        while True:
            epoch = self._close_epoch
            try:
                result = attempt()
            except _SlotFailed as failure:
                if self._close_epoch != epoch:
                    # close() raced this batch: the transports died
                    # because the owner shut the backend down, and
                    # failing over would resurrect it behind their
                    # back.  Abort loudly instead (and close again so
                    # anything the attempt spawned meanwhile is
                    # reaped).
                    error = self._slot_error(failure.slot,
                                             failure.context)
                    self.close()
                    raise error from failure.cause
                attempts += 1
                self._recover_or_raise(failure, attempts)
                continue
            for slot in self._slots:
                slot.failures = 0
            if self._attempt_dropped:
                self._dropped_log.extend(self._attempt_dropped)
                self._attempt_dropped = []
            return result

    # ------------------------------------------------------------------ #
    # health checking
    # ------------------------------------------------------------------ #
    def check_health(self) -> List[int]:
        """Bring every slot up and probe it with a ping; return dead slots.

        For monitoring and measurement: the backend itself never pings
        (a closed slot is found before each batch, a silent one by the
        reply deadline, which bounds each probe too).  A slot not yet
        up is forked, spawned or connected first, exactly as a batch
        would.  Only call between batches: a shard answers requests in
        arrival order, so a ping behind an in-flight batch would wait
        for it (and its pong would interleave with the batch's
        replies).  A slot that fails its probe has its channel closed (a
        timed-out pong would desynchronize the stream) and is reported;
        the next batch reconnects it under ``on_failure``.
        """
        eligible = self._eligible_slots()
        dead = [index for index, error
                in self._start_slots(eligible).items() if error is not None]
        for index in eligible:
            channel = self._slots[index].channel
            if channel is None:
                continue
            try:
                channel.send_frame(_PING_FRAME)
                kind, _ = channel.recv()
                if kind != KIND_PONG:
                    raise ProtocolError(
                        f"shard answered a ping with {kind!r}")
            except _TRANSPORT_FAILURES:
                self._discard_slot_transport(index)
                dead.append(index)
        return sorted(dead)

    # ------------------------------------------------------------------ #
    def _dispatch(self, slot: int, frame: "wire_codec.EncodedFrame",
                  context: str, pending: Sequence[int] = ()) -> None:
        try:
            channel = self._slots[slot].channel
            if channel is None:
                raise ConnectionClosedError("the slot's channel was closed")
            channel.send_frame(frame)
        except _TRANSPORT_FAILURES as exc:
            raise _SlotFailed(slot, context, exc, pending) from exc

    def _collect_reply(self, slot: int, context: str,
                       pending: Sequence[int] = ()) -> Tuple[str, Any]:
        try:
            channel = self._slots[slot].channel
            if channel is None:
                raise ConnectionClosedError("the slot's channel was closed")
            blob = channel.recv_bytes()
            self.last_reply_bytes += len(blob)
            return wire_codec.decode_message(blob)
        except _TRANSPORT_FAILURES as exc:
            raise _SlotFailed(slot, context, exc, pending) from exc

    def _build_payloads(self, clients: Sequence[FLClient],
                        jobs: Sequence[TrainingJob],
                        weight_factors: Sequence[float],
                        structure: Optional[ModelStructure], partial: bool,
                        commit: bool
                        ) -> Tuple[Dict[int, _WireFoldBatch],
                                   List[Tuple[int, List[int]]]]:
        """Assemble per-slot fold batches for one cycle.

        Returns ``(batches keyed by slot, ordered (index, positions)
        pairs)``; a slot's factor rows line up with its groups because
        both follow the submission order.  With ``commit=False`` the
        placement bookkeeping is left untouched (used by
        :meth:`dispatch_payload_bytes`).
        """
        placement = self._placement if commit else dict(self._placement)
        next_slot = self._next_slot
        active = self._eligible_slots()
        if not active:
            raise self._no_slot_error("partitioning the fleet")
        if commit:
            self._attempt_dropped = []
        dropped: List[int] = []
        batches: Dict[int, _WireFoldBatch] = {}
        weight_refs: Dict[int, Dict[int, int]] = {}
        order: List[Tuple[int, List[int]]] = []
        for index, positions, client_jobs in _group_jobs(jobs):
            slot = placement.get(index)
            state = None if slot is None else self._slots[slot].state
            if state == "out":
                # Graceful degradation: the client's slot is down, so it
                # sits this cycle out instead of migrating — the
                # retained placement is exactly what identifies it as
                # *dropped* in the cycle's audit record, and the
                # aggregation re-weights over the survivors.
                dropped.append(index)
                continue
            if slot is None or state == "dead":
                # First appearance — or the placed slot was declared
                # dead, in which case the client moves to a survivor
                # (its spec travels again; the failover purged its
                # residency entry).
                slot = active[next_slot % len(active)]
                next_slot += 1
                placement[index] = slot
            batch = batches.setdefault(slot, _WireFoldBatch(
                weights_table=[], groups=[], factors=[], partial=partial,
                structure=structure,
                straggle_s=(self._chaos.straggle_seconds(slot)
                            if self._chaos is not None else 0.0)))
            client = clients[index]
            stale = self._resident.get(index) != client.spec_version
            batch.groups.append(_wire_group(
                index, client.spec if stale else None, client, client_jobs,
                batch.weights_table, weight_refs.setdefault(slot, {})))
            batch.factors.append([float(weight_factors[position])
                                  for position in positions])
            order.append((index, positions))
        if commit:
            self._next_slot = next_slot
            self._attempt_dropped = dropped
        return batches, order

    # ------------------------------------------------------------------ #
    def _exchange(self, batches: Dict[int, Any], wire_kind: str,
                  context: str) -> Dict[int, Any]:
        """Run one request/reply round trip with every slot in ``batches``.

        Encodes every frame before sending any, dispatches in sorted
        slot order, then collects each slot's reply.  Returns the
        ``"results"`` payloads keyed by slot.  Also refreshes
        :attr:`last_dispatch_bytes` and :attr:`last_reply_bytes` for
        this round trip.
        """
        frames = {slot: wire_codec.encode_message((wire_kind, batch))
                  for slot, batch in batches.items()}
        self.last_dispatch_bytes = sum(frame.total_bytes
                                       for frame in frames.values())
        self.last_reply_bytes = 0
        slots = sorted(frames)
        dispatched: List[int] = []
        for slot in slots:
            self._dispatch(slot, frames[slot], "dispatching a batch",
                           pending=dispatched)
            dispatched.append(slot)
        replies: Dict[int, Any] = {}
        for position, slot in enumerate(slots):
            kind, results = self._collect_reply(slot, context,
                                                pending=slots[position + 1:])
            if kind != KIND_RESULTS:
                self.close()
                if isinstance(results, BaseException):
                    raise results
                raise RuntimeError(f"unexpected batch reply {kind!r}")
            replies[slot] = results
        return replies

    # ------------------------------------------------------------------ #
    # hierarchical aggregation
    # ------------------------------------------------------------------ #
    def run_fold(self, clients: Sequence[FLClient],
                 jobs: Sequence[TrainingJob],
                 weight_factors: Sequence[float],
                 structure: Optional[ModelStructure] = None,
                 partial: bool = True
                 ) -> Tuple[List[PartialAggregate],
                            List[Optional[TrainingSummary]]]:
        if not jobs:
            # Short-circuit before any wire activity: an empty cycle must
            # not open a batch on any backend.
            return [], []
        return self._with_failover(
            lambda: self._run_fold_attempt(clients, jobs, weight_factors,
                                           structure, partial))

    def _run_fold_attempt(self, clients: Sequence[FLClient],
                          jobs: Sequence[TrainingJob],
                          weight_factors: Sequence[float],
                          structure: Optional[ModelStructure],
                          partial: bool
                          ) -> Tuple[List[PartialAggregate],
                                     List[Optional[TrainingSummary]]]:
        # Every slot that may host a client comes up *before* the
        # payloads are built: a slot on a new connection has no
        # residents and purged its residency entries, so those clients'
        # specs travel again.
        self._prepare_slots(self._eligible_slots())
        batches, order = self._build_payloads(
            clients, jobs, weight_factors, structure, partial, commit=True)
        replies = self._exchange(batches, KIND_FOLD, "running a batch")
        partials: List[PartialAggregate] = []
        outcomes: Dict[int, Tuple] = {}
        for slot in sorted(replies):
            results, aggregate = replies[slot]
            if aggregate is not None:
                partials.append(aggregate)
            for outcome in results:
                outcomes[outcome[0]] = outcome
        # Residency first, for *every* outcome: slots drop a replica whose
        # training raised, so the parent must forget it even when a
        # different group's error wins the raise below.
        for index, _ in order:
            if outcomes[index][1] == "error":
                self._resident.pop(index, None)
            else:
                self._resident[index] = clients[index].spec_version
        # Consume outcomes in first-submission order: every backend
        # raises the error of the first failing client.
        summaries: List[Optional[TrainingSummary]] = [None] * len(jobs)
        for index, positions in order:
            outcome = outcomes[index]
            if outcome[1] == "error":
                raise outcome[2]
            _, _, rng_state, group_summaries = outcome
            # Only the RNG state is mirrored back: the trained weights
            # stay shard-side (shipping them home would defeat the
            # upstream-byte win) and every training starts from the
            # dispatched snapshot anyway, so the parent-side replica's
            # weights are never consulted.
            clients[index].rng.bit_generator.state = rng_state
            for position, summary in zip(positions, group_summaries):
                summaries[position] = summary
        return partials, summaries  # type: ignore[return-value]

    def run_virtual_fold(self, template: Any,
                         weights: Dict[str, np.ndarray],
                         structure: Optional[ModelStructure] = None
                         ) -> Tuple[List[PartialAggregate], np.ndarray, int]:
        if template.num_clients <= 0:
            return [], np.zeros(NUM_LEVELS), 0
        return self._with_failover(
            lambda: self._run_virtual_attempt(template, weights))

    def _run_virtual_attempt(self, template: Any,
                             weights: Dict[str, np.ndarray]
                             ) -> Tuple[List[PartialAggregate], np.ndarray,
                                        int]:
        # Degrade never drops virtual clients: the fold is partition-
        # independent, so the fleet simply re-partitions over whatever
        # slots survive — bit-identical either way.
        active = self._eligible_slots()
        if not active:
            raise self._no_slot_error("partitioning a virtual fleet")
        # Contiguous id ranges keep the dispatch O(shards): each slot
        # receives a (lo, hi) recipe, never a client list.
        base, extra = divmod(template.num_clients, len(active))
        batches: Dict[int, _WireVirtualBatch] = {}
        lo = 0
        for position, slot in enumerate(active):
            span = base + (1 if position < extra else 0)
            if span == 0:
                continue
            batches[slot] = _WireVirtualBatch(
                weights_table=[weights], template=template,
                lo=lo, hi=lo + span, factor=template.uniform_factor,
                loss_scale=template.uniform_factor)
            lo += span
        self._prepare_slots(sorted(batches))
        replies = self._exchange(batches, KIND_VFOLD,
                                 "running a virtual fold")
        partials: List[PartialAggregate] = []
        loss_levels = np.zeros(NUM_LEVELS)
        count = 0
        for slot in sorted(replies):
            payload, slot_levels, slot_count = replies[slot]
            loss_levels = loss_levels + slot_levels
            count += slot_count
            if payload is not None:
                partials.append(payload)
        return partials, loss_levels, count

    def invalidate_client(self, index: Optional[int] = None) -> None:
        """Force a spec re-ship before the client's next training.

        Identity mutations that replace a client's spec (dataset, device,
        config, …) are detected automatically via the spec version; this
        hook covers everything the version cannot see — in-place mutation
        of a dataset's arrays, whole-fleet swaps, backend adoption.
        """
        if index is None:
            self._resident.clear()
        else:
            self._resident.pop(index, None)

    def dispatch_payload_bytes(self, clients: Sequence[FLClient],
                               jobs: Sequence[TrainingJob],
                               structure: Optional[ModelStructure] = None
                               ) -> int:
        """Wire bytes :meth:`run_fold` would dispatch for ``jobs`` now.

        Encodes the ``fold`` frames
        :meth:`~repro.fl.simulation.FederatedSimulation.train_and_aggregate`
        ships for them — sample-count factors (a factor's value does not
        change its encoded size), ``structure``, the fold mode the jobs'
        masks select — through the real codec path.  Passed the
        server's ``structure``, the number is exactly what the next batch
        puts on the wire; omitted, one is built from the first job's
        client model, equal in content but pickled without the memo it
        shares with the server's weight names (a few dozen bytes more).
        """
        factors = normalize_weights([clients[job.index].num_samples
                                     for job in jobs])
        if structure is None:
            structure = ModelStructure.from_model(
                clients[jobs[0].index].model)
        partial = any(job.mask is not None for job in jobs)
        batches, _ = self._build_payloads(clients, jobs, factors, structure,
                                          partial, commit=False)
        return sum(wire_codec.encode_message((KIND_FOLD, batch)).total_bytes
                   for batch in batches.values())

    def close(self) -> None:
        """Stop every slot; the backend re-creates them lazily if reused.

        Idempotent, safe after a worker/shard death, safe when invoked
        concurrently from several threads (serialized by a lock) and
        safe during interpreter shutdown: teardown failures are
        swallowed, the placement/residency/failure bookkeeping is
        always reset — a reused backend starts from the full topology,
        dead external shards included (they may have been restarted).
        """
        with self._close_lock:
            self._close_epoch += 1
            try:
                self._teardown()
            except Exception as exc:
                _note_swallowed("tearing down the fleet", exc)
            self._placement.clear()
            self._resident.clear()
            self._attempt_dropped = []
            self._next_slot = 0


#: Backend names accepted by :func:`make_backend` and the CLI, sorted.
_BACKEND_NAMES = ("persistent", "serial", "sharded")

#: Localhost shards a ``sharded`` backend spawns when given neither
#: addresses nor a worker count (interpreter spawns are not free).
DEFAULT_LOCAL_SHARDS = 2

#: How :func:`make_backend`, ``set_backend`` and
#: :class:`ShardedSocketBackend` spell two :class:`BackendConfig` fields.
_KEYWORDS = {"workers": "max_workers", "on_failure": "on_shard_failure"}


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`make_backend` (and the CLI ``--backend``)."""
    return _BACKEND_NAMES


class BackendOptionError(ValueError):
    """A backend option that breaks a rule of :class:`BackendConfig`;
    ``template`` names it ``{option}``, which the message spells as
    :func:`make_backend`'s keyword and :meth:`naming` as a caller's."""

    def __init__(self, option: str, template: str) -> None:
        self.option = option
        self.template = template
        super().__init__(self.naming(_KEYWORDS.get(option, option)))

    def naming(self, label: str) -> str:
        """The message with the option named ``label``."""
        return self.template.replace("{option}", label)


@dataclass(frozen=True)
class BackendConfig:
    """One validated backend description, built from ``repro run``'s
    backend flags, a scenario's ``backend`` section or
    :func:`make_backend`'s keywords; its constructor checks every rule.

    ``workers`` counts a resident backend's slots: forked children for
    ``persistent`` (default: the CPU count), spawned localhost shards
    for ``sharded`` (default 2).  ``shards`` — ``sharded`` only, instead
    of ``workers`` — names running shard workers, one slot each (a
    comma-separated string or a sequence, kept as ``host:port``).
    ``on_failure``, resident backends only, is what a slot dying
    mid-batch does to the run:

    * ``abort`` (default) — the batch fails with a :class:`ShardError`
      naming the slot, and the backend closes: no orphan processes or
      half-open sockets;
    * ``rebalance`` — the slot is repaired (respawned, reconnected, or
      its clients moved onto the survivors) and the batch retried,
      bit-identically;
    * ``degrade`` — the cycle finishes without the slot: its clients
      are dropped (recorded in the history), aggregation re-weights
      over the survivors, and the next cycle probes the slot again.
    """

    name: str = "serial"
    workers: Optional[int] = None
    shards: Optional[Tuple[str, ...]] = None
    on_failure: Optional[str] = None

    def __post_init__(self) -> None:
        if self.name not in _BACKEND_NAMES:
            raise BackendOptionError(
                "name", f"unknown execution backend {self.name!r}; "
                        f"available: {_BACKEND_NAMES}")
        workers = self.workers
        if workers is not None and (type(workers) is not int or workers < 1):
            raise BackendOptionError(
                "workers", f"{{option}} must be positive (got {workers!r})")
        if self.on_failure not in (None,) + FAILURE_POLICIES:
            raise BackendOptionError(
                "on_failure", f"unknown failure policy {self.on_failure!r}; "
                              f"available: {FAILURE_POLICIES}")
        for option in ("workers", "on_failure"):
            if self.name == "serial" and getattr(self, option) is not None:
                raise BackendOptionError(
                    option, "{option} only applies to the worker-resident "
                            "backends ('persistent', 'sharded'), not "
                            "'serial'")
        if self.shards is not None:
            self._check_shards()

    def _check_shards(self) -> None:
        if self.name != "sharded":
            raise BackendOptionError(
                "shards", f"{{option}} only applies to the 'sharded' "
                          f"backend, not {self.name!r}")
        shards = self.shards
        if isinstance(shards, str):
            shards = [part.strip() for part in shards.split(",")
                      if part.strip()]
        try:
            addresses = tuple(format_address(parse_address(shard))
                              for shard in shards)
        except (TypeError, ValueError) as error:
            raise BackendOptionError("shards", str(error)) from None
        if not addresses:
            raise BackendOptionError(
                "shards", "{option} needs at least one shard address")
        if self.workers is not None:
            raise BackendOptionError(
                "workers", f"{{option}}={self.workers!r} cannot be combined "
                           f"with explicit shard addresses (one shard per "
                           f"address)")
        object.__setattr__(self, "shards", addresses)

    @property
    def num_slots(self) -> int:
        """Slots the fleet is partitioned across (1 for ``serial``)."""
        if self.shards is not None:
            return len(self.shards)
        if self.name == "persistent":
            return self.workers or os.cpu_count() or 1
        if self.name == "sharded":
            return self.workers or DEFAULT_LOCAL_SHARDS
        return 1

    def build(self) -> "ExecutionBackend":
        """A fresh backend; resident slots start on the first batch."""
        if self.name == "serial":
            return SerialBackend()
        return ShardedSocketBackend(self.shards, self.workers,
                                    self.on_failure or "abort", self.name)


def make_backend(spec: Union[None, str, ExecutionBackend] = None,
                 max_workers: Optional[int] = None,
                 shards: Union[None, str, Sequence[Any]] = None,
                 on_shard_failure: Optional[str] = None
                 ) -> ExecutionBackend:
    """Resolve a backend specification into an :class:`ExecutionBackend`.

    ``spec`` is ``None`` (serial), a backend name or an already-built
    backend (passed through; it takes no options).  The options are
    :class:`BackendConfig`'s ``workers``, ``shards`` and ``on_failure``,
    which checks them; an explicit ``"serial"`` ignores ``max_workers``
    so a caller can sweep one worker count across backend names.
    """
    if isinstance(spec, ExecutionBackend):
        for keyword, value in (("max_workers", max_workers),
                               ("shards", shards),
                               ("on_shard_failure", on_shard_failure)):
            if value is not None:
                raise ValueError(
                    f"{keyword}={value!r} cannot be applied to an already-"
                    f"constructed backend instance {spec!r}; construct the "
                    f"backend with it instead")
        return spec
    if spec is not None and not isinstance(spec, str):
        raise TypeError(f"cannot build an execution backend from {spec!r}")
    if spec == "serial":
        max_workers = None
    return BackendConfig(spec or "serial", max_workers, shards,
                         on_shard_failure).build()
