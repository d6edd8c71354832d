"""Network simulator: rate limiting, stochastic gates, and the probe engine."""

from .engine import AMPLIFICATION_CAP, EngineStats, SimulationEngine
from .faults import (
    ChaosEngine,
    FaultPlan,
    InjectedCrash,
    InjectedSinkError,
    truncate_tail,
)
from .pcap import PcapWriter, capture_scan, read_pcap
from .ratelimit import TokenBucket
from .stochastic import stable_bool, stable_unit

__all__ = [
    "AMPLIFICATION_CAP",
    "ChaosEngine",
    "EngineStats",
    "FaultPlan",
    "InjectedCrash",
    "InjectedSinkError",
    "PcapWriter",
    "SimulationEngine",
    "TokenBucket",
    "capture_scan",
    "read_pcap",
    "stable_bool",
    "stable_unit",
    "truncate_tail",
]
