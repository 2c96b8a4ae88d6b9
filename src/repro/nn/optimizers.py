"""First-order optimizers operating on lists of :class:`Parameter`."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .parameter import Parameter

__all__ = ["Optimizer", "SGD", "MomentumSGD", "Adam", "get_optimizer"]


class Optimizer:
    """Base class.  Sub-classes implement :meth:`step`."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters: List[Parameter] = list(parameters)
        # Hyper-parameters are kept as Python floats: a NumPy float64
        # scalar is a strong type and would upcast every ``lr * grad``.
        self.lr = float(lr)

    def step(self) -> None:
        """Apply one update using the gradients stored on each parameter."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    def _step_gradient(self, param: Parameter,
                       weight_decay: float) -> np.ndarray:
        """``param``'s gradient plus weight decay, in a buffer the step may
        overwrite: a step consumes the gradients the backward pass handed
        over, so the update allocates no temporaries."""
        if weight_decay:
            return param.grad + weight_decay * param.data
        if not param.grad.flags.writeable:
            # No gradient arrived since zero_grad: its zero view.
            return param.grad.copy()
        return param.grad


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional weight decay."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.weight_decay = float(weight_decay)

    def step(self) -> None:
        for param in self.parameters:
            grad = self._step_gradient(param, self.weight_decay)
            grad *= self.lr
            param.data -= grad


class MomentumSGD(Optimizer):
    """SGD with classical momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.9, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.parameters:
            grad = self._step_gradient(param, self.weight_decay)
            velocity = self._velocity.get(id(param))
            if velocity is None:
                velocity = self._velocity[id(param)] = np.zeros_like(
                    param.data)
            # velocity = momentum * velocity - lr * grad, in place.
            velocity *= self.momentum
            grad *= self.lr
            velocity -= grad
            param.data += velocity


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.weight_decay = float(weight_decay)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for param in self.parameters:
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad ** 2
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / (1.0 - self.beta1 ** self._t)
            v_hat = v / (1.0 - self.beta2 ** self._t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


_REGISTRY = {
    "sgd": SGD,
    "momentum": MomentumSGD,
    "adam": Adam,
}


def get_optimizer(name: str, parameters: Iterable[Parameter],
                  **kwargs) -> Optimizer:
    """Instantiate an optimizer by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown optimizer {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name](parameters, **kwargs)
