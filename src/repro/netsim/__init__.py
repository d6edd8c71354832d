"""Network simulator: rate limiting, stochastic gates, and the probe engine."""

from .engine import AMPLIFICATION_CAP, EngineStats, SimulationEngine
from .pcap import PcapWriter, capture_scan, read_pcap
from .ratelimit import TokenBucket
from .stochastic import stable_bool, stable_unit

__all__ = [
    "AMPLIFICATION_CAP",
    "EngineStats",
    "PcapWriter",
    "SimulationEngine",
    "TokenBucket",
    "capture_scan",
    "read_pcap",
    "stable_bool",
    "stable_unit",
]
