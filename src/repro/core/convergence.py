"""Convergence analysis for soft-training (paper Sec. V-B, Propositions 1–2).

The paper bounds the global convergence loss by the variance of the
(sparsified) gradient and shows that keeping the ``v`` highest-contribution
neurons every cycle, while giving the rest a non-zero selection
probability, bounds the expected number of active neurons by ``(1 + ρ) v``
and the gradient variance by ``(1 + ε) Σ g_i²``.

These functions implement the quantities of Eq. 4–9 so the optimization
benchmarks and tests can check the bound numerically and so users can size
``Ps``/``v`` for their own models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "descent_upper_bound",
    "sparsified_gradient_variance",
    "optimal_selection_probabilities",
    "select_v_for_epsilon",
    "expected_active_bound",
    "SoftTrainingConvergenceAnalysis",
    "analyze_soft_training",
]


def descent_upper_bound(loss_value: float, grad_norm_sq: float,
                        grad_second_moment: float, learning_rate: float,
                        smoothness: float) -> float:
    """Right-hand side of Proposition 1 (Eq. 4).

    ``E[f(Θ_{t+1})] ≤ f(Θ_t) − η ‖∇f‖² + (L/2) η² E‖g‖²``.
    """
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if smoothness <= 0:
        raise ValueError("smoothness must be positive")
    return (loss_value - learning_rate * grad_norm_sq
            + 0.5 * smoothness * learning_rate ** 2 * grad_second_moment)


def sparsified_gradient_variance(gradients: np.ndarray,
                                 probabilities: np.ndarray) -> float:
    """Second moment of the unbiased sparsified gradient (Eq. 6).

    ``E Σ ST(g)_i² = Σ g_i² / p_i`` for selection probabilities ``p_i``.
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if gradients.shape != probabilities.shape:
        raise ValueError("gradients and probabilities must share a shape")
    if np.any(probabilities <= 0) or np.any(probabilities > 1):
        raise ValueError("probabilities must be in (0, 1]")
    return float(np.sum(gradients ** 2 / probabilities))


def optimal_selection_probabilities(gradients: np.ndarray,
                                    epsilon: float) -> np.ndarray:
    """Solve the Eq. 7 trade-off: minimize Σ p_i s.t. Σ g_i²/p_i ≤ (1+ε) Σ g_i².

    The optimal solution (from the KKT conditions, following Wangni et al.,
    the paper's ref. [19]) sets ``p_i = min(1, |g_i| / λ)`` where ``λ`` is
    chosen so the variance constraint holds with equality (or every
    ``p_i = 1`` when ε admits it).
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    magnitudes = np.abs(gradients)
    total_sq = float(np.sum(magnitudes ** 2))
    if total_sq == 0.0:
        return np.ones_like(magnitudes)
    if epsilon == 0:
        return np.ones_like(magnitudes)

    def variance_for(lam: float) -> float:
        probs = np.minimum(1.0, magnitudes / lam)
        probs = np.where(probs <= 0, 1e-12, probs)
        return float(np.sum(magnitudes ** 2 / probs))

    budget = (1.0 + epsilon) * total_sq
    low = float(magnitudes[magnitudes > 0].min()) * 1e-6 + 1e-18
    high = float(magnitudes.max()) * 1e6 + 1.0
    # variance_for is increasing in lambda; bisect for the budget.
    for _ in range(200):
        mid = 0.5 * (low + high)
        if variance_for(mid) <= budget:
            low = mid
        else:
            high = mid
    probs = np.minimum(1.0, magnitudes / low)
    return np.where(probs <= 0, 1e-12, probs)


def select_v_for_epsilon(gradients: np.ndarray, epsilon: float
                         ) -> Tuple[int, np.ndarray]:
    """Number of always-kept neurons ``v`` implied by the ε budget (Eq. 8).

    Returns ``(v, probabilities)`` where the ``v`` largest-magnitude
    entries have probability 1.
    """
    probabilities = optimal_selection_probabilities(gradients, epsilon)
    v = int(np.sum(probabilities >= 1.0 - 1e-12))
    return v, probabilities


def expected_active_bound(v: int, rho: float) -> float:
    """Upper bound ``(1 + ρ) v`` on the expected active neurons (Eq. 9)."""
    if v < 0:
        raise ValueError("v must be non-negative")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    return (1.0 + rho) * v


@dataclass(frozen=True)
class SoftTrainingConvergenceAnalysis:
    """Summary of the Proposition-2 quantities for one gradient snapshot."""

    epsilon: float
    num_neurons: int
    v: int
    expected_active: float
    active_bound: float
    full_variance: float
    sparsified_variance: float
    variance_budget: float

    @property
    def bound_satisfied(self) -> bool:
        """Whether the sparsified variance respects the (1+ε) budget."""
        return self.sparsified_variance <= self.variance_budget * (1 + 1e-9)

    @property
    def expected_within_bound(self) -> bool:
        """Whether E[‖ST(g)‖₀] ≤ (1+ρ)v holds (with ρ = ε).

        The paper's Eq. 9 derivation assumes a concentrated ("sparsifiable")
        gradient; for flat gradient distributions the expected active count
        can exceed the nominal bound, in which case :attr:`rho_implied`
        reports the ρ that would make the bound tight.
        """
        return self.expected_active <= self.active_bound * (1 + 1e-9)

    @property
    def rho_implied(self) -> float:
        """The ρ that makes ``E[‖ST(g)‖₀] = (1+ρ)v`` hold exactly."""
        if self.v <= 0:
            return float("inf")
        return max(0.0, self.expected_active / self.v - 1.0)


def analyze_soft_training(gradients: Sequence[float], epsilon: float,
                          rho: Optional[float] = None
                          ) -> SoftTrainingConvergenceAnalysis:
    """Evaluate the Proposition-2 bound for a per-neuron gradient vector.

    Parameters
    ----------
    gradients:
        Per-neuron gradient magnitudes (e.g. Eq. 1's
        :func:`~repro.fl.aggregation.neuron_contributions` between a
        zero snapshot and a gradient snapshot).
    epsilon:
        Gradient-variance slack ``ε``.
    rho:
        The ``ρ`` of Eq. 9; the paper sets ``ρ = ε`` and so does the
        default.
    """
    gradients = np.asarray(list(gradients), dtype=np.float64)
    rho = epsilon if rho is None else rho
    v, probabilities = select_v_for_epsilon(gradients, epsilon)
    full_variance = float(np.sum(gradients ** 2))
    sparsified = sparsified_gradient_variance(gradients, probabilities)
    return SoftTrainingConvergenceAnalysis(
        epsilon=epsilon,
        num_neurons=int(gradients.size),
        v=v,
        expected_active=float(np.sum(probabilities)),
        active_bound=expected_active_bound(v, rho) if v > 0 else float(
            np.sum(probabilities)),
        full_variance=full_variance,
        sparsified_variance=sparsified,
        variance_budget=(1.0 + epsilon) * full_variance,
    )
