"""repro — reproduction of Helios (DAC 2021).

Helios: Heterogeneity-Aware Federated Learning with Dynamically Balanced
Collaboration.  The package is organised as:

* :mod:`repro.nn` — pure-NumPy neural-network substrate,
* :mod:`repro.data` — synthetic datasets and federated partitioning,
* :mod:`repro.hardware` — device profiles and the analytical cost model,
* :mod:`repro.fl` — the federated-learning simulator,
* :mod:`repro.core` — the Helios framework (the paper's contribution),
* :mod:`repro.baselines` — Syn./Asyn. FL, AFO, Random, Fixed Pruning
  (S.T. Only is Helios with FedAvg aggregation),
* :mod:`repro.metrics` — convergence/speed-up metrics and reporting,
* :mod:`repro.experiments` — one runner per paper table/figure, the
  strategy table they share and the chaos-scenario runner.
"""

from . import baselines, core, data, fl, hardware, metrics, nn
from .core import HeliosConfig, HeliosStrategy

__version__ = "1.0.0"

__all__ = [
    "nn",
    "data",
    "hardware",
    "fl",
    "core",
    "baselines",
    "metrics",
    "HeliosConfig",
    "HeliosStrategy",
    "__version__",
]
