"""CSI-based physical-layer authentication with polar-code reconciliation."""

__version__ = "0.1.0"

from .channel import ScenarioConfig
from .sim import ExperimentConfig, Simulator, sweep

__all__ = ["__version__", "ExperimentConfig", "ScenarioConfig", "Simulator", "sweep"]
