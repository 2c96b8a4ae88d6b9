"""AFO — asynchronous federated optimization (Xie et al., paper ref. [6]).

AFO improves plain asynchronous FL by discounting stale updates: when an
update arrives that was computed from the global model of ``τ`` cycles ago,
it is mixed into the current global model with weight

    α_t = α · (1 + staleness)^(-a)

instead of being averaged at full strength.  Fresh updates (staleness 0)
are mixed with weight ``α``.  This reduces — but does not eliminate — the
staleness damage of asynchronous stragglers, which is how the paper
positions AFO in its comparison.

A cycle first mixes the FedAvg of its fresh updates ``s_i`` (sample
shares) in at ``α``, then each stale delivery ``u_k`` in delivery order,
``w ← (1 − m_k) w + m_k u_k``.  Unrolled, that is one weighted average
whose factors are known before anything trains —

* ``α Π_k(1 − m_k) s_i`` on fresh update ``i``,
* ``m_k Π_{j>k}(1 − m_j)`` on stale update ``u_k``,
* ``(1 − α) Π_k(1 − m_k)`` on the current global model,

summing to 1 — so a cycle is one
:meth:`~repro.fl.simulation.FederatedSimulation.train_and_aggregate`
with those factors and the global's share kept.  The fold rounds once
where the sequential mix rounded after every step: every backend is
bit-identical to ``serial``, and ``serial`` agrees with the sequential
mix to float32 rounding (``tests/fidelity/test_async_baseline_rows.py``).

Under ``on_shard_failure="degrade"`` a dropped job's share spreads over
everything that was folded — the surviving updates and the kept global —
in proportion to their factors, because the fold divides by the summed
weight of what it folded.  A dropped stale delivery stays pending and is
delivered next cycle from the same snapshot.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..fl.simulation import FederatedSimulation
from ..fl.strategy import CycleOutcome
from .async_fl import AsynchronousFLStrategy

__all__ = ["AFOStrategy"]


class AFOStrategy(AsynchronousFLStrategy):
    """Staleness-aware asynchronous aggregation."""

    name = "AFO"

    def __init__(self, mixing_alpha: float = 0.9,
                 staleness_exponent: float = 1.0, **kwargs) -> None:
        """
        Parameters
        ----------
        mixing_alpha:
            Base mixing weight ``α`` of a fresh update.
        staleness_exponent:
            Exponent ``a`` of the polynomial staleness discount.
        """
        super().__init__(**kwargs)
        if not 0.0 < mixing_alpha <= 1.0:
            raise ValueError("mixing_alpha must be in (0, 1]")
        if staleness_exponent < 0:
            raise ValueError("staleness_exponent must be non-negative")
        self.mixing_alpha = mixing_alpha
        self.staleness_exponent = staleness_exponent

    # ------------------------------------------------------------------ #
    def _staleness_weight(self, staleness: int) -> float:
        return self.mixing_alpha * (1.0 + staleness) ** (-self.staleness_exponent)

    def mixing_factors(self, fresh_samples: Sequence[float],
                       stalenesses: Sequence[int]
                       ) -> Tuple[List[float], float]:
        """The unrolled factors of one cycle (see the module docstring).

        ``fresh_samples`` are the fresh updates' sample counts,
        ``stalenesses`` the stale deliveries' in delivery order.  Returns
        ``(factors, kept)``: one factor per fresh then stale update, and
        the share of the current global model; together they sum to 1.
        """
        stale_factors: List[float] = []
        remaining = 1.0  # Π over the later deliveries' (1 − m_j)
        for staleness in reversed(stalenesses):
            mixing = self._staleness_weight(staleness)
            stale_factors.append(mixing * remaining)
            remaining *= 1.0 - mixing
        stale_factors.reverse()
        alpha = self._staleness_weight(0) if fresh_samples else 0.0
        total = float(sum(fresh_samples))
        fresh_factors = [alpha * remaining * count / total
                         for count in fresh_samples]
        return fresh_factors + stale_factors, (1.0 - alpha) * remaining

    # ------------------------------------------------------------------ #
    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        capable = self.capable_indices(sim)
        deliveries = self.due_deliveries(
            cycle, sim, sim.server.get_global_weights())
        factors, kept = self.mixing_factors(
            [sim.client(index).num_samples for index in capable],
            [cycle - job.base_cycle for job in deliveries])
        summaries = []
        if capable or deliveries:
            summaries = sim.train_and_aggregate(
                capable, client_weights=factors, base_cycle=cycle,
                stale=deliveries, keep_global=kept)
        return self.cycle_outcome(sim, capable, summaries)
