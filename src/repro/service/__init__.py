"""The co-estimation service layer (``repro serve``).

A long-running server that turns the one-shot estimator into a shared
facility with the robustness contract of a production serving stack:

* :mod:`repro.service.queue` — bounded admission queue: explicit 429
  backpressure with ``Retry-After``, priority load shedding, never
  unbounded memory;
* :mod:`repro.service.breaker` — per-component-estimator circuit
  breakers (closed → open → half-open) that short-circuit persistently
  failing sites onto the degradation ladder instead of erroring;
* :mod:`repro.service.dedup` — idempotent in-flight coalescing keyed by
  the structural request fingerprint;
* :mod:`repro.service.api` — JSON request validation and the
  fingerprint itself;
* :mod:`repro.service.lifecycle` — SIGTERM-driven graceful drain with
  checkpointing of unstarted requests;
* :mod:`repro.service.frontend` — the ``POST /estimate`` path that
  ``serve`` and ``cluster`` share: submit, coalescing, the resolve
  funnel and the HTTP handler body;
* :mod:`repro.service.server` — the local backend (admission queue and
  worker threads), its HTTP routes, and the ``repro serve`` runner.

See ``docs/service.md`` for the API, breaker semantics, the drain
sequence, and capacity tuning.
"""

from repro.service.api import (
    PRIORITIES,
    BadRequest,
    EstimateRequest,
    parse_request,
    request_fingerprint,
    workload_signature,
)
from repro.service.breaker import (
    BREAKER_STATES,
    BreakerRegistry,
    CircuitBreaker,
    ScopedBreakers,
)
from repro.service.dedup import InflightTable
from repro.service.frontend import PendingResult, ServiceRejected
from repro.service.lifecycle import (
    DrainController,
    install_drain_signals,
    load_drain_checkpoint,
    raise_on_signals,
    service_checkpoint_signature,
    write_drain_checkpoint,
)
from repro.service.queue import AdmissionQueue, QueueClosed, QueueFull
from repro.service.server import (
    CoEstimationService,
    DrainReport,
    ServiceConfig,
    ServiceHTTPServer,
    run_server,
)

__all__ = [
    "PRIORITIES",
    "BREAKER_STATES",
    "AdmissionQueue",
    "BadRequest",
    "BreakerRegistry",
    "CircuitBreaker",
    "CoEstimationService",
    "DrainController",
    "DrainReport",
    "EstimateRequest",
    "InflightTable",
    "PendingResult",
    "QueueClosed",
    "QueueFull",
    "ScopedBreakers",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ServiceRejected",
    "install_drain_signals",
    "load_drain_checkpoint",
    "parse_request",
    "raise_on_signals",
    "request_fingerprint",
    "run_server",
    "service_checkpoint_signature",
    "workload_signature",
    "write_drain_checkpoint",
]
