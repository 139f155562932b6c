"""Supervised component estimators with graceful degradation.

The master's contract with its component estimators (Figure 2(b) of
the paper) is a synchronous call: prepare the state/input exchange,
invoke the ISS or the gate-level simulator, read back cycles and
energy.  This module hardens that call:

* a **watchdog** bounds its wall-clock time (a hung estimator becomes
  a :class:`WatchdogTimeout` instead of a hung run);
* a **validator** rejects corrupted results (NaN, negative, absurdly
  large energy) as :class:`CorruptedEstimate`;
* a bounded **retry** loop absorbs transient failures;
* on persistent failure, a **graceful-degradation ladder** answers the
  estimate anyway, walking the paper's own accuracy hierarchy:

  1. ``exact`` — the low-level simulation itself;
  2. ``cached`` — the Section 4.2 energy cache's converged path mean
     (a shadow cache fed by every successful exact run);
  3. ``macromodel`` — the Section 4.1 pre-characterized macro-model;
  4. ``degraded`` — a last-resort analytical estimate (one controller
     state per macro-operation at the processor's pipeline-fill
     energy), so a run *always* completes with a number and a
     provenance tag rather than aborting.

Every estimate the ladder produces is tagged with its provenance, and
all supervision events (faults, retries, timeouts, fallbacks) count
into the run's telemetry metrics registry.
"""

from __future__ import annotations

import math
import threading
import time as _time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.estimation import Estimate, EstimationJob
from repro.obs.context import emit_event
from repro.obs.names import (
    EVENT_ESTIMATOR_FAILURE,
    EVENT_ESTIMATOR_FALLBACK,
    EVENT_ESTIMATOR_SHORT_CIRCUIT,
    EVENT_ESTIMATOR_TIMEOUT,
)
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec

__all__ = [
    "PROVENANCE_LEVELS",
    "WatchdogTimeout",
    "CorruptedEstimate",
    "EstimatorUnavailable",
    "ResilienceConfig",
    "ResilientEstimator",
    "call_with_watchdog",
    "retry_backoff_s",
]

#: The degradation ladder, most to least accurate.
PROVENANCE_LEVELS = ("exact", "cached", "macromodel", "degraded")


class WatchdogTimeout(ReproError):
    """A supervised call exceeded its wall-clock budget."""


class CorruptedEstimate(ReproError):
    """A component estimator returned a non-physical result."""


class EstimatorUnavailable(ReproError):
    """A component estimator failed persistently (retries exhausted)."""


def retry_backoff_s(site: str, attempt: int, base_s: float,
                    cap_s: float) -> float:
    """Exponential backoff with deterministic per-site jitter.

    ``base_s * 2**(attempt-1)`` scaled by an equal-jitter factor in
    ``[0.5, 1.0)`` derived from ``crc32(site:attempt)`` — NOT from the
    :mod:`random` module, whose streams are seeded per job and must
    produce byte-identical results whether or not a retry slept.  The
    jitter decorrelates concurrent retries against one struggling
    estimator (or cluster worker) while staying fully reproducible:
    same site and attempt, same delay, every run.
    """
    if base_s <= 0 or attempt < 1:
        return 0.0
    raw = base_s * (2.0 ** (attempt - 1))
    unit = zlib.crc32(("%s:%d" % (site, attempt)).encode("utf-8")) / 2**32
    return min(cap_s, raw * (0.5 + unit / 2.0))


def call_with_watchdog(fn: Callable, timeout_s: float):
    """Run ``fn()`` with a wall-clock budget; returns its result.

    The call runs on a daemon worker thread; if it does not finish
    within ``timeout_s`` a :class:`WatchdogTimeout` is raised and the
    thread is *abandoned* (Python offers no safe preemption) — callers
    must treat the supervised object as suspect afterwards, which is
    exactly what the degradation ladder does.  Exceptions raised by
    ``fn`` are re-raised in the caller.
    """
    if timeout_s is None:
        return fn()
    outcome: Dict[str, object] = {}
    done = threading.Event()

    def runner() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised in the caller
            outcome["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    if not done.wait(timeout_s):
        raise WatchdogTimeout(
            "supervised call exceeded its %.3fs watchdog budget" % timeout_s
        )
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome.get("value")


@dataclass(frozen=True)
class ResilienceConfig:
    """User parameters of the resilience layer (plain, picklable data).

    Attributes:
        fault_plan: optional fault-injection plan (testing/chaos runs).
        watchdog_s: wall-clock budget per component invocation; ``None``
            disables the watchdog (and its per-call thread).
        max_retries: transient-failure retries per invocation before
            the invocation is declared persistently failed.
        degradation: when True (default), persistent failures fall down
            the cached → macromodel → degraded ladder instead of
            aborting the run.
        max_energy_j: sanity bound of the result validator — a single
            transition above this is treated as corrupted (component
            energies in this framework are nano- to micro-joules).
        backoff_base_s: first-retry backoff delay.  Retries against a
            struggling estimator sleep ``retry_backoff_s(site, attempt,
            base, cap)`` between attempts — exponential with
            deterministic per-site jitter, so the retry storm a
            transient fault can trigger is spread out without touching
            the seeded RNG streams (results stay byte-identical; only
            wall-clock changes).  0 disables backoff.
        backoff_cap_s: upper bound of one backoff sleep.
        breaker_registry: optional circuit-breaker lookup with a
            ``get(site) -> breaker`` method (see
            :mod:`repro.service.breaker`).  Breakers remember persistent
            failures *across* runs: an open breaker short-circuits the
            supervised call straight onto the degradation ladder instead
            of re-attempting a site known to be down.  Process-local
            live state — excluded from equality and never serialized
            (field is dropped when the config is pickled to workers).
    """

    fault_plan: Optional[FaultPlan] = None
    watchdog_s: Optional[float] = None
    max_retries: int = 1
    degradation: bool = True
    max_energy_j: float = 1e-3
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 0.25
    breaker_registry: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self):
        # Breakers hold locks and service-wide live state; a pickled
        # config (process-pool payloads) travels without them.
        state = {f: getattr(self, f) for f in self.__dataclass_fields__}
        state["breaker_registry"] = None
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.watchdog_s is not None and self.watchdog_s <= 0:
            raise ValueError("watchdog_s must be positive (or None)")
        if self.max_energy_j <= 0:
            raise ValueError("max_energy_j must be positive")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_cap_s < 0:
            raise ValueError("backoff_cap_s must be non-negative")


@dataclass
class _ShadowStats:
    """Running mean of exact results for one path (Welford, mean only)."""

    count: int = 0
    mean_energy: float = 0.0
    mean_cycles: float = 0.0

    def update(self, energy: float, cycles: int) -> None:
        self.count += 1
        self.mean_energy += (energy - self.mean_energy) / self.count
        self.mean_cycles += (cycles - self.mean_cycles) / self.count


class ResilientEstimator:
    """Per-run supervision state: injector, shadow cache, fallbacks.

    One instance belongs to one :class:`~repro.master.master.
    SimulationMaster`; the master wraps every ``run_low_level`` closure
    with :meth:`supervise` and routes persistent failures through
    :meth:`fallback`.
    """

    def __init__(
        self,
        config: ResilienceConfig,
        power_model,
        library=None,
        telemetry=None,
        macromodel_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        from repro.telemetry import NULL_TELEMETRY

        self.config = config
        self.power_model = power_model
        self.library = library
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.injector: Optional[FaultInjector] = (
            FaultInjector(config.fault_plan, telemetry=self.telemetry)
            if config.fault_plan is not None
            else None
        )
        self._macromodel_factory = macromodel_factory
        self._macromodel = None
        self._macromodel_failed = False
        self._shadow_by_path: Dict[Tuple, _ShadowStats] = {}
        self._shadow_by_transition: Dict[Tuple, _ShadowStats] = {}
        self.retries = 0
        self.backoff_seconds = 0.0
        self.watchdog_timeouts = 0
        self.corrupted = 0
        self.failures = 0
        self.failures_by_site: Dict[str, int] = {}
        self.short_circuits: Dict[str, int] = {}
        self.fallbacks: Dict[str, int] = {}
        self.bypasses: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Supervision of the low-level estimator call
    # ------------------------------------------------------------------

    def supervise(
        self,
        site: str,
        component: str,
        fn: Callable[[], Estimate],
        path_key: Optional[Tuple] = None,
        sim_time_ns: Optional[float] = None,
    ) -> Callable[[], Estimate]:
        """Wrap one ``run_low_level`` closure with the full treatment.

        The wrapper injects faults (when a plan is armed), enforces the
        watchdog, validates the result, feeds the shadow cache, and
        retries transient failures; after ``max_retries`` consecutive
        failures it raises :class:`EstimatorUnavailable` for the master
        to route down the degradation ladder.

        With a circuit breaker armed for ``site`` (see
        ``ResilienceConfig.breaker_registry``), an open breaker
        short-circuits the call — no low-level attempt at all — and
        every persistent outcome (success / exhausted retries) is
        reported back so the breaker learns across runs.
        """

        def attempt() -> Estimate:
            spec: Optional[FaultSpec] = (
                self.injector.draw(site) if self.injector is not None else None
            )

            def inner() -> Estimate:
                if spec is not None:
                    if spec.kind == "exception":
                        raise self.injector.make_fault(
                            spec, component=component, sim_time_ns=sim_time_ns
                        )
                    if spec.kind == "hang":
                        _time.sleep(spec.hang_s)
                estimate = fn()
                if spec is not None and spec.kind == "corrupt":
                    estimate.energy = spec.corrupt_energy(estimate.energy)
                return estimate

            estimate = call_with_watchdog(inner, self.config.watchdog_s)
            self._validate(estimate, component, sim_time_ns)
            return estimate

        def supervised() -> Estimate:
            breaker = self._breaker(site)
            if breaker is not None and not breaker.allow():
                self.short_circuits[site] = self.short_circuits.get(site, 0) + 1
                self._count("resilience.breaker.short_circuit")
                emit_event(
                    EVENT_ESTIMATOR_SHORT_CIRCUIT, site=site, component=component
                )
                raise EstimatorUnavailable(
                    "circuit breaker for %s is open — short-circuiting to "
                    "the degradation ladder" % site,
                    component=component,
                    path_id=path_key,
                    sim_time_ns=sim_time_ns,
                )
            attempts = 0
            while True:
                try:
                    estimate = attempt()
                except EstimatorUnavailable:
                    raise
                except WatchdogTimeout as exc:
                    self.watchdog_timeouts += 1
                    emit_event(
                        EVENT_ESTIMATOR_TIMEOUT, site=site, component=component
                    )
                    failure = exc
                except Exception as exc:
                    failure = exc
                else:
                    if breaker is not None:
                        breaker.record_success()
                    if path_key is not None:
                        self._record_exact(path_key, estimate)
                    return estimate
                attempts += 1
                if attempts > self.config.max_retries:
                    self.failures += 1
                    self.failures_by_site[site] = (
                        self.failures_by_site.get(site, 0) + 1
                    )
                    self._count("resilience.persistent_failures")
                    emit_event(
                        EVENT_ESTIMATOR_FAILURE,
                        site=site,
                        component=component,
                        attempts=attempts,
                        error=str(failure),
                    )
                    if breaker is not None:
                        breaker.record_failure()
                    raise EstimatorUnavailable(
                        "%s estimator failed persistently after %d attempt(s): %s"
                        % (site, attempts, failure),
                        component=component,
                        path_id=path_key,
                        sim_time_ns=sim_time_ns,
                    ) from failure
                self.retries += 1
                self._count("resilience.retries")
                # Back off before the next attempt: exponential with
                # deterministic per-site jitter, outside the watchdog
                # and outside the seeded RNG streams, so only wall
                # clock changes — never the estimate.
                delay = retry_backoff_s(
                    site, attempts,
                    self.config.backoff_base_s, self.config.backoff_cap_s,
                )
                if delay > 0:
                    self.backoff_seconds += delay
                    self._count("resilience.backoff_sleeps")
                    _time.sleep(delay)

        return supervised

    def _breaker(self, site: str):
        registry = self.config.breaker_registry
        if registry is None:
            return None
        return registry.get(site)

    def _validate(
        self, estimate: Estimate, component: str, sim_time_ns: Optional[float]
    ) -> None:
        energy = estimate.energy
        cycles = estimate.cycles
        reason = None
        if not math.isfinite(energy):
            reason = "non-finite energy %r" % energy
        elif energy < 0:
            reason = "negative energy %r" % energy
        elif energy > self.config.max_energy_j:
            reason = "energy %r above the %r J sanity bound" % (
                energy, self.config.max_energy_j,
            )
        elif not math.isfinite(cycles) or cycles < 0:
            reason = "invalid cycle count %r" % cycles
        if reason is not None:
            self.corrupted += 1
            self._count("resilience.corrupted_estimates")
            raise CorruptedEstimate(
                "corrupted estimate from %s: %s" % (component, reason),
                component=component,
                sim_time_ns=sim_time_ns,
            )

    def _record_exact(self, path_key: Tuple, estimate: Estimate) -> None:
        stats = self._shadow_by_path.get(path_key)
        if stats is None:
            stats = self._shadow_by_path[path_key] = _ShadowStats()
        stats.update(estimate.energy, estimate.cycles)
        transition_key = path_key[:2]
        stats = self._shadow_by_transition.get(transition_key)
        if stats is None:
            stats = self._shadow_by_transition[transition_key] = _ShadowStats()
        stats.update(estimate.energy, estimate.cycles)

    # ------------------------------------------------------------------
    # The degradation ladder
    # ------------------------------------------------------------------

    def fallback(self, job: EstimationJob) -> Estimate:
        """Answer ``job`` without its (failed) low-level estimator.

        Walks cached → macromodel → degraded; always returns an
        estimate, tagged with the level that produced it.
        """
        stats = self._shadow_by_path.get(job.path_key)
        if stats is None:
            stats = self._shadow_by_transition.get(
                (job.cfsm.name, job.transition.name)
            )
        if stats is not None and stats.count > 0:
            self._count_fallback("cached")
            return Estimate(
                cycles=int(round(stats.mean_cycles)),
                energy=stats.mean_energy,
                ran_low_level=False,
                provenance="cached",
            )
        macromodel = self._macromodel_strategy()
        if macromodel is not None:
            try:
                estimate = macromodel.estimate(job)
            except Exception:
                # Per-job failure only; the rung stays armed for other
                # jobs (a failed *build* disables it permanently).
                pass
            else:
                self._count_fallback("macromodel")
                estimate.provenance = "macromodel"
                return estimate
        self._count_fallback("degraded")
        return self._analytical(job)

    def _macromodel_strategy(self):
        """The lazily built Section 4.1 fallback (None if unavailable)."""
        if self._macromodel_failed:
            return None
        if self._macromodel is None:
            try:
                if self._macromodel_factory is not None:
                    self._macromodel = self._macromodel_factory()
                else:
                    # Imported lazily: repro.core imports the master
                    # package, which imports this module.
                    from repro.core.macromodel import (
                        MacromodelStrategy,
                        characterize_cached,
                    )

                    self._macromodel = MacromodelStrategy(
                        characterize_cached(self.power_model)
                    )
            except Exception:
                self._macromodel_failed = True
                return None
        return self._macromodel

    def _analytical(self, job: EstimationJob) -> Estimate:
        """Last resort: one state per macro-operation at fill energy.

        Deliberately crude — it exists so a run always terminates with
        a tagged number; the accuracy contract lives in the provenance
        counts, not in this estimate.
        """
        cycles = 2 + len(job.op_names)
        energy = self.power_model.fill_energy(cycles)
        return Estimate(
            cycles=cycles,
            energy=min(energy, self.config.max_energy_j),
            ran_low_level=False,
            provenance="degraded",
        )

    # ------------------------------------------------------------------
    # Cache / bus boundary guards
    # ------------------------------------------------------------------

    def component_ok(self, site: str) -> bool:
        """Draw the fault schedule of a non-estimator boundary.

        Cache and bus contributions are additive side effects, so their
        degradation mode is *bypass*: a faulted invocation simply
        contributes no stall cycles / bus timing (counted, so reports
        show how much accounting was lost).  Hang faults are treated as
        unavailability too — sleeping would stall the whole master.
        """
        if self.injector is None:
            return True
        spec = self.injector.draw(site)
        if spec is None:
            return True
        self.bypasses[site] = self.bypasses.get(site, 0) + 1
        self._count("resilience.bypass.%s" % site)
        return False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter(name).inc()

    def _count_fallback(self, level: str) -> None:
        self.fallbacks[level] = self.fallbacks.get(level, 0) + 1
        self._count("resilience.fallback.%s" % level)
        self._count("resilience.fallbacks")
        emit_event(EVENT_ESTIMATOR_FALLBACK, level=level)

    def statistics(self) -> Dict[str, float]:
        """Flat counters for :class:`~repro.core.report.EnergyReport`."""
        stats: Dict[str, float] = {
            "retries": float(self.retries),
            "backoff_seconds": round(self.backoff_seconds, 6),
            "watchdog_timeouts": float(self.watchdog_timeouts),
            "corrupted_estimates": float(self.corrupted),
            "persistent_failures": float(self.failures),
            "fallbacks": float(sum(self.fallbacks.values())),
        }
        for level, count in sorted(self.fallbacks.items()):
            stats["fallback.%s" % level] = float(count)
        for site, count in sorted(self.failures_by_site.items()):
            stats["failures.%s" % site] = float(count)
        for site, count in sorted(self.short_circuits.items()):
            stats["breaker_short_circuit.%s" % site] = float(count)
        for site, count in sorted(self.bypasses.items()):
            stats["bypass.%s" % site] = float(count)
        if self.injector is not None:
            for name, value in self.injector.counters.snapshot().items():
                stats["fault.%s" % name] = value
        return stats

    def publish_metrics(self) -> None:
        """End-of-run gauges (the live counters accrue during the run).

        Gauges live under ``resilience.stats.`` — the registry refuses
        to reuse a live counter's name (``resilience.retries`` etc.) as
        a gauge.
        """
        metrics = self.telemetry.metrics
        for name, value in self.statistics().items():
            metrics.gauge("resilience.stats.%s" % name).set(value)
