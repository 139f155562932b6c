"""The one ``POST /estimate`` front end of ``serve`` and ``cluster``.

:class:`EstimateFrontEnd` owns the request path up to the point where
the work runs: refusal check, fingerprint, in-flight coalescing, and
the terminal-outcome funnel :meth:`~EstimateFrontEnd._resolve`.  A
subclass is an execution *backend*: :meth:`~EstimateFrontEnd._start`
runs an admitted primary (``serve``: the admission queue and worker
threads; the coordinator: a dispatch over the hash ring, in the
submitting thread).  :class:`EstimateHandler` holds the HTTP handler
body: parse, submit, wait.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol, Tuple

from repro.errors import ReproError
from repro.obs import Observability
from repro.obs.context import RequestContext, use_context
from repro.obs.names import EVENT_COALESCED
from repro.service.api import (
    BadRequest,
    EstimateRequest,
    parse_request,
    system_fingerprint,
)
from repro.service.dedup import InflightTable
from repro.service.httpbase import JsonRequestHandler
from repro.systems import system_names

__all__ = [
    "EstimateEntry",
    "EstimateFrontEnd",
    "EstimateHandler",
    "PendingResult",
    "ServiceRejected",
]


class ServiceRejected(ReproError):
    """A submission was refused (backpressure, drain, shed, not leader)."""

    def __init__(self, message: str, status: int, reason: str,
                 retry_after_s: Optional[int] = None,
                 fields: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s
        #: Extra reply fields (the coordinator's leader hint).
        self.fields = dict(fields or {})


class PendingResult:
    """Completion handle shared by a primary and its coalesced followers."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self.status: int = 0
        self.body: Dict[str, Any] = {}
        self.headers: Dict[str, str] = {}
        #: Correlation id of the request tree this result belongs to
        #: (set at admission; the HTTP layer echoes it as X-Trace-Id).
        self.trace_id: str = ""

    def resolve(self, status: int, body: Dict[str, Any],
                headers: Optional[Dict[str, str]] = None) -> None:
        if self._event.is_set():
            return  # first terminal outcome wins
        self.status = status
        self.body = body
        self.headers = dict(headers or {})
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)


@dataclass
class EstimateEntry:
    """One admitted request riding from submit to its resolution."""

    request: EstimateRequest
    fingerprint: str
    pending: PendingResult
    admitted_at: float
    context: RequestContext
    #: Static admission weight (:attr:`repro.lint.cost.CostReport.
    #: cost_units`); only ``serve`` prices its queue with it.
    cost: float = 1.0


class FrontEndConfig(Protocol):
    """What the front end reads from a backend's configuration."""

    default_deadline_s: float


class EstimateFrontEnd:
    """Submit, coalescing and resolve, shared by both backends.

    A subclass provides ``config``, ``obs``, ``dedup`` and ``clock`` and
    implements :meth:`_refuse` and :meth:`_start`.
    """

    config: FrontEndConfig
    obs: Observability
    dedup: InflightTable
    clock: Callable[[], float]

    #: Counter bumped per coalesced request (``None``: count nothing
    #: beyond the dedup table's own tally).
    COALESCED_COUNTER: Optional[str] = None

    def _refuse(self) -> None:
        """Raise :class:`ServiceRejected` while nothing may be admitted."""
        raise NotImplementedError

    def _start(self, entry: EstimateEntry) -> None:
        """Run or enqueue an admitted primary; the backend resolves it
        and releases its fingerprint (also before raising a refusal)."""
        raise NotImplementedError

    def submit(self, request: EstimateRequest) -> Tuple[PendingResult, bool]:
        """Admit one request; returns ``(pending, coalesced)``.

        Raises :class:`ServiceRejected` with the HTTP status to answer.
        """
        self._refuse()
        context = RequestContext.new(request.request_id)
        entry = EstimateEntry(
            request=request,
            fingerprint=system_fingerprint(request),
            pending=PendingResult(),
            admitted_at=self.clock(),
            context=context,
        )
        entry.pending.trace_id = context.trace_id
        with use_context(context):
            primary = self.dedup.admit(entry.fingerprint, entry)
            if primary is not entry:
                if self.COALESCED_COUNTER is not None:
                    self.obs.metrics.counter(self.COALESCED_COUNTER).inc()
                self.obs.event(
                    EVENT_COALESCED,
                    fingerprint=entry.fingerprint,
                    primary_trace_id=primary.context.trace_id,
                )
                return primary.pending, True
            self._start(entry)
        return entry.pending, False

    def _resolve(self, entry: EstimateEntry, status: int,
                 body: Dict[str, Any], event: str,
                 headers: Optional[Dict[str, str]] = None,
                 **event_fields: Any) -> None:
        """Terminal-outcome funnel: every answer goes through here.

        One call site per outcome keeps the observability contract
        honest — the trace id lands on the response, the SLO tracker
        and latency histogram see every terminal status, the lifecycle
        event is recorded under the request's context, and any
        server-side failure (5xx) triggers a flight-recorder dump.
        """
        headers = dict(headers or {})
        headers.setdefault("X-Trace-Id", entry.context.trace_id)
        entry.pending.resolve(status, body, headers)
        latency_s = self.clock() - entry.admitted_at
        self.obs.record_outcome(status, latency_s)
        with use_context(entry.context):
            self.obs.event(
                event, status=status,
                latency_s=round(latency_s, 6), **event_fields
            )
            # 503 is routine backpressure (shed / draining / no leader)
            # — not a postmortem; the drain path writes its own dump.
            if status >= 500 and status != 503:
                self.obs.dump_flight(str(body.get("reason") or status))


class EstimateHandler(JsonRequestHandler):
    """HTTP handler base with the shared ``POST /estimate`` body."""

    #: Grace added to a request's deadline while the handler waits for
    #: its pending result; drain always resolves earlier.
    WAIT_GRACE_S = 5.0

    def post_estimate(self, frontend: EstimateFrontEnd) -> None:
        body = self.read_json_body()
        if body is None:
            return
        try:
            request = parse_request(
                body,
                known_systems=system_names(),
                default_deadline_s=frontend.config.default_deadline_s,
            )
        except BadRequest as exc:
            self.respond_json(400, {"status": "error", "reason": str(exc)})
            return
        try:
            pending, coalesced = frontend.submit(request)
        except ServiceRejected as exc:
            headers = {}
            if exc.retry_after_s is not None:
                headers["Retry-After"] = str(exc.retry_after_s)
            self.respond_json(exc.status, dict(
                exc.fields,
                status="rejected",
                reason=exc.reason,
                request_id=request.request_id,
            ), headers)
            return
        if not pending.wait(request.deadline_s + self.WAIT_GRACE_S):
            self.respond_json(504, {
                "status": "error",
                "reason": "deadline_exceeded",
                "request_id": request.request_id,
            })
            return
        reply = dict(pending.body)
        if coalesced:
            reply["coalesced"] = True
        self.respond_json(pending.status, reply, pending.headers)
