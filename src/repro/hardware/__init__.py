"""Hardware substrate: device profiles, cost model, profiling, communication."""

from .cost_model import TrainingCostEstimate, TrainingCostModel
from .device import DeviceProfile
from .network import CommunicationModel
from .presets import (DEEPLENS_CPU, DEEPLENS_GPU, DEVICE_PRESETS,
                      JETSON_NANO_CPU, JETSON_NANO_GPU, RASPBERRY_PI_4,
                      available_devices, build_fleet, get_device,
                      table1_stragglers)
from .profiler import DeviceProfileReport, FleetProfiler

__all__ = [
    "DeviceProfile",
    "TrainingCostModel",
    "TrainingCostEstimate",
    "CommunicationModel",
    "FleetProfiler",
    "DeviceProfileReport",
    "DEVICE_PRESETS",
    "JETSON_NANO_GPU",
    "JETSON_NANO_CPU",
    "RASPBERRY_PI_4",
    "DEEPLENS_GPU",
    "DEEPLENS_CPU",
    "available_devices",
    "get_device",
    "table1_stragglers",
    "build_fleet",
]
