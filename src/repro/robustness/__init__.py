"""Fault-tolerance machinery: deterministic fault injection.

The serving stack's recovery paths — atomic ingest commit, degraded-mode
serving — are only trustworthy if every one of them can be *driven* in
tests. :mod:`repro.robustness.faultinject` is a registry of named fault
points threaded through the aggregate cache, the ingest commit and the
recovery rebuild, where the chaos suite injects exceptions and latency
on chosen invocations.
"""

from __future__ import annotations

from .faultinject import (FaultInjected, FaultSpec, clear_faults,
                          fault_point, faults, fired_counts, inject,
                          install, parse_spec)

__all__ = [
    "FaultInjected", "FaultSpec", "clear_faults", "fault_point", "faults",
    "fired_counts", "inject", "install", "parse_spec",
]
