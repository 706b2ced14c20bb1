"""The serving layer: cached, batched, multi-session explanation queries.

Turns the single-session engine into a service: an LRU
:class:`AggregateCache` memoizes roll-ups and repair predictions across
sessions and users, and carries them across ingests by patching or
retaining each entry; :class:`ExplanationService` multiplexes named
sessions, batches independent complaints per view, and reports hit rates
and per-stage timings.
"""

from .cache import (AggregateCache, CacheStats, StageTiming,
                    dataset_fingerprint)
from .concurrency import (AdmissionController, BatchWindow, DatasetLocks,
                          LatencyStats, LockTimeout, ReadWriteLock,
                          ServerOverloaded, Telemetry, set_trace_hook)
from .engine import (CachingCube, CachingRepairer, freeze_filters,
                     patch_cache_for_delta, patch_view, plan_signature,
                     repairer_signature, spec_signature)
from .server import (ReptileHTTPServer, RequestError, ServerApp,
                     parse_complaint_spec, serve_http)
from .service import (BatchItem, BatchResult, ComplaintRequest,
                      ExplanationService, ServiceError)

__all__ = [
    "AggregateCache", "CacheStats", "StageTiming", "dataset_fingerprint",
    "AdmissionController", "BatchWindow",
    "DatasetLocks", "LatencyStats", "LockTimeout", "ReadWriteLock",
    "ServerOverloaded", "Telemetry", "set_trace_hook", "CachingCube",
    "CachingRepairer", "freeze_filters", "patch_cache_for_delta",
    "patch_view", "plan_signature", "repairer_signature",
    "spec_signature", "ReptileHTTPServer", "RequestError", "ServerApp",
    "parse_complaint_spec", "serve_http", "BatchItem", "BatchResult",
    "ComplaintRequest", "ExplanationService", "ServiceError",
]
