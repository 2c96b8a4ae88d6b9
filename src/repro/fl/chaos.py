"""Deterministic chaos engine: seeded fault plans over the substrate.

A :class:`FaultPlan` describes **which** faults strike **when** (shard
kills at cycle *k*, frame delays/drops/truncations/resets on the wire,
straggler slowdowns inside the workers), and a :class:`ChaosController`
binds the plan to a live backend and executes it.

Determinism contract
--------------------
Every random decision derives from an order-independent seeded stream:
each ``(seed, domain, cycle, slot)`` tuple keys its own
``numpy.random.default_rng`` generator, so the same ``(seed, plan)``
replays the same fault sequence regardless of how the run interleaves —
there is no global RNG, no wall-clock input, and injected events are
recorded against *cycle indices*, never timestamps.  The injected
faults themselves only ever cost wall-clock time: shard kills and wire
faults funnel into the executor's failure policies (retry is
bit-identical by construction) and straggler sleeps do not touch any
numerics.

Layering
--------
This module sits *below* :mod:`repro.fl.executor` and binds to
backends purely through their public/underscore attributes at runtime —
it must never import the executor.  Frame faults are
applied by :class:`~repro.fl.transport.MessageChannel` through its
``fault_injector`` hook; the :class:`FrameFault` objects handed across
that boundary are plain data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "FRAME_FAULT_ACTIONS",
    "FrameFault",
    "ShardKill",
    "StragglerWave",
    "FaultPlan",
    "ChaosController",
]

#: Wire-level fault actions :class:`~repro.fl.transport.MessageChannel`
#: knows how to apply (see its ``fault_injector`` hook): ``delay`` stalls
#: the frame, ``drop`` closes the connection instead of sending it,
#: ``truncate`` sends the header but cuts the payload short, ``reset``
#: hard-resets the connection (RST instead of FIN).
FRAME_FAULT_ACTIONS = ("delay", "drop", "truncate", "reset")

#: Domain tags separating the independent seeded streams (a kill
#: decision must never perturb a frame-fault decision).
_DOMAIN_FRAME = 0xF7
_DOMAIN_STRAGGLE = 0x57

#: Mask keeping derived seed words inside SeedSequence's unsigned domain.
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def _derived_rng(seed: int, domain: int, *words: int) -> np.random.Generator:
    """One order-independent seeded stream per (seed, domain, words) key."""
    entropy = [(int(seed)) & _SEED_MASK, domain & _SEED_MASK]
    entropy.extend(int(word) & _SEED_MASK for word in words)
    return np.random.default_rng(entropy)


@dataclass(frozen=True)
class FrameFault:
    """One wire-level fault to apply to an outgoing frame.

    ``seconds`` is only meaningful for ``delay``; ``keep_bytes`` only
    for ``truncate`` (how much of the payload still goes out before the
    connection is cut).
    """

    action: str
    seconds: float = 0.0
    keep_bytes: int = 0

    def __post_init__(self) -> None:
        if self.action not in FRAME_FAULT_ACTIONS:
            raise ValueError(f"unknown frame fault action {self.action!r}; "
                             f"available: {FRAME_FAULT_ACTIONS}")
        if self.seconds < 0:
            raise ValueError("frame fault seconds must be non-negative")
        if self.keep_bytes < 0:
            raise ValueError("frame fault keep_bytes must be non-negative")


@dataclass(frozen=True)
class ShardKill:
    """SIGKILL (or sever) one slot's worker at the start of a cycle.

    Slots start inside cycle 1's batch, so the first kill that finds a
    worker is at cycle 2.
    """

    cycle: int
    slot: int

    def __post_init__(self) -> None:
        if self.cycle < 2:
            raise ValueError(f"cycle must be at least 2: slots start "
                             f"inside cycle 1's batch (got {self.cycle})")
        if self.slot < 0:
            raise ValueError("slot must be non-negative")


@dataclass(frozen=True)
class StragglerWave:
    """Slow the named slots down by ``seconds`` during the named cycles.

    The delay is shipped inside the wire batch and slept *inside* the
    worker, so the parent really blocks on a busy slot — the same shape
    a genuinely overloaded shard produces.
    """

    cycles: Tuple[int, ...]
    slots: Tuple[int, ...]
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("straggler wave seconds must be positive")
        if not self.cycles:
            raise ValueError("straggler wave needs at least one cycle")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of every fault a run injects.

    Scheduled faults (:class:`ShardKill`, :class:`StragglerWave`) fire
    exactly where the plan names them; probabilistic wire faults draw
    from per-``(cycle, slot)`` derived streams (see module docs), so the
    whole plan replays identically for the same ``(seed, plan)``.  A
    scenario spec's ``faults`` section is parsed into one by
    :mod:`repro.experiments.spec`.
    """

    seed: int = 0
    shard_kills: Tuple[ShardKill, ...] = ()
    straggler_waves: Tuple[StragglerWave, ...] = ()
    frame_delay_probability: float = 0.0
    frame_delay_max_s: float = 0.01
    frame_drop_probability: float = 0.0
    frame_truncate_probability: float = 0.0
    connection_reset_probability: float = 0.0

    def __post_init__(self) -> None:
        probabilities = {name: getattr(self, name) for name in vars(self)
                         if name.endswith("_probability")}
        for name, probability in probabilities.items():
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"{name} must be within [0, 1] "
                                 f"(got {probability!r})")
        total = sum(probabilities.values())
        if total > 1.0:
            raise ValueError(f"frame fault probabilities must sum to at "
                             f"most 1 (got {total:g})")
        if self.frame_delay_max_s < 0:
            raise ValueError("frame_delay_max_s must be non-negative")

    @property
    def armed(self) -> bool:
        """Whether the plan injects anything at all."""
        return bool(self.shard_kills or self.straggler_waves
                    or self.has_frame_faults)

    @property
    def has_frame_faults(self) -> bool:
        """Whether any probabilistic wire fault can ever fire."""
        return (self.frame_delay_probability > 0
                or self.frame_drop_probability > 0
                or self.frame_truncate_probability > 0
                or self.connection_reset_probability > 0)

    # ------------------------------------------------------------------ #
    # scheduled faults
    # ------------------------------------------------------------------ #
    def kills_for_cycle(self, cycle: int) -> List[int]:
        """Slots whose workers die at the start of ``cycle`` (sorted)."""
        return sorted(kill.slot for kill in self.shard_kills
                      if kill.cycle == cycle)

    def straggle_seconds(self, cycle: int, slot: int) -> float:
        """Injected in-worker delay for ``slot`` during ``cycle``."""
        return sum(wave.seconds for wave in self.straggler_waves
                   if cycle in wave.cycles and slot in wave.slots)

    # ------------------------------------------------------------------ #
    # probabilistic wire faults
    # ------------------------------------------------------------------ #
    def frame_fault_stream(self, cycle: int, slot: int
                           ) -> Callable[[], Optional[FrameFault]]:
        """One deterministic per-``(cycle, slot)`` fault decision stream.

        Each call decides the fate of one outgoing frame; consecutive
        calls consume the same derived generator, so the n-th frame a
        slot sends within a cycle always meets the same fate across
        replays.
        """
        rng = _derived_rng(self.seed, _DOMAIN_FRAME, cycle, slot)

        def next_fault() -> Optional[FrameFault]:
            if not self.has_frame_faults:
                return None
            draw = float(rng.random())
            edge = self.frame_delay_probability
            if draw < edge:
                return FrameFault(
                    "delay",
                    seconds=float(rng.random()) * self.frame_delay_max_s)
            edge += self.frame_drop_probability
            if draw < edge:
                return FrameFault("drop")
            edge += self.frame_truncate_probability
            if draw < edge:
                return FrameFault("truncate")
            edge += self.connection_reset_probability
            if draw < edge:
                return FrameFault("reset")
            return None

        return next_fault


class ChaosController:
    """Bind a :class:`FaultPlan` to a live backend and execute it.

    The controller duck-types against the worker-resident backends: it
    kills a local slot's process (``_procs`` — forked or spawned, one
    Popen-shaped handle) or severs an external shard's channel
    (``_channels``), whichever the slot actually has.  Every injected
    fault is appended to :attr:`events` — an append-only list of plain
    dicts keyed by cycle index, the replayable chaos log scenario runs
    persist.

    Install with ``backend.attach_chaos(controller)`` and call
    :meth:`begin_cycle` once per aggregation cycle (the scenario runner
    does both).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.backend: Optional[Any] = None
        #: Append-only fault log (plain dicts; cycle-indexed, never
        #: timestamped — see the module's determinism contract).
        self.events: List[Dict[str, Any]] = []
        self._cycle = 0
        self._frame_streams: Dict[int, Callable[[], Optional[FrameFault]]] = {}
        self._straggled: set = set()

    def bind(self, backend: Any) -> None:
        """Adopt the backend whose slots this controller torments."""
        self.backend = backend

    def record(self, event: str, **fields: Any) -> None:
        """Append one fault event to the chaos log."""
        entry: Dict[str, Any] = {"cycle": self._cycle, "event": event}
        entry.update(fields)
        self.events.append(entry)

    # ------------------------------------------------------------------ #
    def begin_cycle(self, cycle: int) -> None:
        """Advance to ``cycle``: rotate fault streams, execute kills."""
        self._cycle = int(cycle)
        self._frame_streams = {}
        self._straggled = set()
        for slot in self.plan.kills_for_cycle(self._cycle):
            if self._kill_slot(slot):
                self.record("shard_kill", slot=slot)

    def _kill_slot(self, slot: int) -> bool:
        """SIGKILL (or sever) whatever worker serves ``slot``."""
        backend = self.backend
        if backend is None:
            return False
        proc = getattr(backend, "_procs", {}).get(slot)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
            return True
        # External shards cannot be killed from here; severing the
        # channel models the connection loss the parent would observe.
        channel = getattr(backend, "_channels", {}).get(slot)
        if channel is not None and not channel.closed:
            channel.close()
            return True
        return False

    # ------------------------------------------------------------------ #
    def straggle_seconds(self, slot: int) -> float:
        """In-worker delay to ship with ``slot``'s next batch."""
        seconds = self.plan.straggle_seconds(self._cycle, slot)
        # Recorded once per (cycle, slot): batch rebuilds and failover
        # retries re-ask for the delay but inject the same fault.
        if seconds > 0 and slot not in self._straggled:
            self._straggled.add(slot)
            self.record("straggle", slot=slot, seconds=seconds)
        return seconds

    def frame_injector(self, slot: int
                       ) -> Callable[[str, int], Optional[FrameFault]]:
        """The ``MessageChannel.fault_injector`` callable for one slot.

        The channel consults it only for request frames (``fold`` and
        ``vfold`` dispatches), never for control frames (hellos, pings,
        byes, shutdowns) — wall-clock-paced traffic like monitoring
        pings must not consume fault-stream draws, or replays would
        diverge and a teardown could draw a fault.
        """
        def inject(frame_kind: str, num_bytes: int) -> Optional[FrameFault]:
            stream = self._frame_streams.get(slot)
            if stream is None:
                stream = self.plan.frame_fault_stream(self._cycle, slot)
                self._frame_streams[slot] = stream
            fault = stream()
            if fault is not None:
                self.record(f"frame_{fault.action}", slot=slot,
                            frame_kind=frame_kind, frame_bytes=num_bytes)
            return fault

        return inject
