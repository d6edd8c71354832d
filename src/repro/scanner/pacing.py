"""Shared probe-rate pacing policy.

Real scans sweep their target space slowly (the paper: 28.2 B targets in
~1.5 days); pacing each scan over a fixed *virtual* duration keeps the
per-router probe rate — and therefore RFC 4443 bucket pressure — at
realistic levels regardless of the scaled-down target count.  Both the
survey and the probing-method campaigns use this one policy.
"""

from __future__ import annotations

MIN_PPS = 100.0
# The paper's pacing: a 50 kpps line rate, each scan spread over 6 virtual
# seconds.
PAPER_PPS = 50_000.0
PAPER_SCAN_DURATION = 6.0


def paced_pps(target_count: int, duration: float, ceiling: float) -> float:
    """Probe rate that sweeps ``target_count`` targets over ``duration``
    virtual seconds, never below :data:`MIN_PPS` and capped at the
    scanner's line rate ``ceiling``.

    A non-positive ``duration`` or an empty target list disables pacing
    and returns the ceiling unchanged.  A non-positive ``ceiling`` is a
    configuration error — a scan cannot run at zero or negative rate —
    and raises :class:`ValueError` instead of propagating nonsense pps
    into the virtual clock.
    """
    if ceiling <= 0:
        raise ValueError(f"pps ceiling must be positive, got {ceiling}")
    if duration <= 0 or target_count <= 0:
        return ceiling
    return min(ceiling, max(MIN_PPS, target_count / duration))
