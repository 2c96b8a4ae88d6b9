"""Baseline collaboration strategies the paper compares Helios against.

Every baseline derives from
:class:`~repro.core.straggler_aware.StragglerAwareStrategy`, the same
code Helios derives from: all methods see the same stragglers and
volumes, and the synchronous ones close a cycle through one method.
"""

from ..core.straggler_aware import StragglerAwareStrategy
from .afo import AFOStrategy
from .async_fl import AsynchronousFLStrategy, PendingJob
from .fixed_pruning import FixedPruningStrategy
from .random_masking import RandomMaskingStrategy
from .sync_fl import SynchronousFLStrategy

__all__ = [
    "StragglerAwareStrategy",
    "SynchronousFLStrategy",
    "AsynchronousFLStrategy",
    "PendingJob",
    "AFOStrategy",
    "RandomMaskingStrategy",
    "FixedPruningStrategy",
]
