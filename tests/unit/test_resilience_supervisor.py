"""Supervised estimator calls: watchdog, retry, validation, ladder."""

import contextvars
import multiprocessing
import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro.estimation import Estimate
from repro.obs.context import emit_event, use_event_sink
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.supervisor import (
    CorruptedEstimate,
    EstimatorUnavailable,
    ResilienceConfig,
    ResilientEstimator,
    WatchdogTimeout,
    call_with_watchdog,
)
from repro.sw.power_model import InstructionPowerModel
from repro.telemetry import Telemetry


def _estimator(**config_kwargs):
    return ResilientEstimator(
        ResilienceConfig(**config_kwargs), power_model=InstructionPowerModel()
    )


_PROBE = contextvars.ContextVar("watchdog_probe", default=None)


class _Abort(BaseException):
    """A ``BaseException`` that is not an ``Exception``."""


def _child_calls_watchdog():
    # Exit code 0 only when the forked child's first call succeeds.
    raise SystemExit(0 if call_with_watchdog(lambda: 1, 1.0) == 1 else 1)


def _job(path_key=("cfsm", "t", ("s0", "s1")), op_names=("add", "load")):
    return SimpleNamespace(
        path_key=path_key,
        cfsm=SimpleNamespace(name=path_key[0]),
        transition=SimpleNamespace(name=path_key[1]),
        op_names=tuple(op_names),
    )


class TestWatchdog:
    def test_none_budget_calls_directly(self):
        assert call_with_watchdog(lambda: 41 + 1, None) == 42

    def test_fast_call_succeeds(self):
        assert call_with_watchdog(lambda: "ok", 5.0) == "ok"

    def test_exception_propagates(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError):
            call_with_watchdog(boom, 5.0)

    def test_slow_call_times_out(self):
        with pytest.raises(WatchdogTimeout):
            call_with_watchdog(lambda: time.sleep(5.0), 0.05)

    def test_runner_threads_are_reused(self):
        call_with_watchdog(lambda: None, 5.0)
        before = threading.active_count()
        for i in range(200):
            assert call_with_watchdog(lambda: i, 5.0) == i
        assert threading.active_count() <= before + 2

    def test_timed_out_runner_is_not_handed_the_next_call(self):
        with pytest.raises(WatchdogTimeout):
            call_with_watchdog(lambda: time.sleep(2.0), 0.05)
        started = time.monotonic()
        assert call_with_watchdog(lambda: "next", 5.0) == "next"
        assert time.monotonic() - started < 1.0

    def test_runs_in_a_copy_of_the_callers_context(self):
        token = _PROBE.set("caller")
        try:
            assert call_with_watchdog(_PROBE.get, 5.0) == "caller"
        finally:
            _PROBE.reset(token)
        call_with_watchdog(lambda: _PROBE.set("leaked"), 5.0)
        assert _PROBE.get() is None
        assert call_with_watchdog(_PROBE.get, 5.0) is None

    def test_event_sink_reaches_the_call(self):
        seen = []
        with use_event_sink(lambda name, fields: seen.append(name)):
            call_with_watchdog(lambda: emit_event("x"), 5.0)
        assert seen == ["x"]

    def test_base_exception_reaches_the_caller(self):
        def abort():
            raise _Abort()

        with pytest.raises(_Abort):
            call_with_watchdog(abort, 5.0)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_fresh_runners(self):
        call_with_watchdog(lambda: None, 5.0)  # park a runner
        child = multiprocessing.get_context("fork").Process(
            target=_child_calls_watchdog
        )
        child.start()
        child.join(30.0)
        assert not child.is_alive()
        assert child.exitcode == 0


class TestSupervision:
    def test_retry_then_success(self):
        estimator = _estimator(max_retries=2)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return Estimate(cycles=4, energy=1e-9, ran_low_level=True)

        supervised = estimator.supervise(
            "hw", "dma", flaky, path_key=("dma", "t", ())
        )
        estimate = supervised()
        assert estimate.energy == 1e-9
        assert estimator.retries == 2
        assert estimator.failures == 0

    def test_persistent_failure_raises_unavailable(self):
        estimator = _estimator(max_retries=1)

        def broken():
            raise RuntimeError("dead estimator")

        supervised = estimator.supervise(
            "iss", "producer", broken, path_key=("producer", "t", ()),
            sim_time_ns=100.0,
        )
        with pytest.raises(EstimatorUnavailable) as excinfo:
            supervised()
        assert excinfo.value.component == "producer"
        assert excinfo.value.sim_time_ns == 100.0
        assert estimator.retries == 1
        assert estimator.failures == 1

    def test_injected_exception_fault(self):
        plan = FaultPlan(specs=[FaultSpec(site="hw", schedule=(1,))])
        estimator = ResilientEstimator(
            ResilienceConfig(fault_plan=plan, max_retries=0),
            power_model=InstructionPowerModel(),
        )
        supervised = estimator.supervise(
            "hw", "dma", lambda: Estimate(1, 1e-9, True)
        )
        with pytest.raises(EstimatorUnavailable) as excinfo:
            supervised()
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        # Invocation 2 is past the schedule: succeeds.
        assert supervised().energy == 1e-9

    def test_corrupted_estimate_rejected(self):
        plan = FaultPlan(specs=[
            FaultSpec(site="hw", kind="corrupt", corruption="negative",
                      schedule=(1,)),
        ])
        estimator = ResilientEstimator(
            ResilienceConfig(fault_plan=plan, max_retries=1),
            power_model=InstructionPowerModel(),
        )
        supervised = estimator.supervise(
            "hw", "dma", lambda: Estimate(1, 1e-9, True)
        )
        # Attempt 1 corrupts (negative energy -> CorruptedEstimate),
        # retry succeeds.
        assert supervised().energy == 1e-9
        assert estimator.corrupted == 1
        assert estimator.retries == 1

    def test_validator_bounds(self):
        estimator = _estimator(max_retries=0, max_energy_j=1e-6)

        def huge():
            return Estimate(cycles=1, energy=1.0, ran_low_level=True)

        with pytest.raises(EstimatorUnavailable):
            estimator.supervise("hw", "dma", huge)()
        assert estimator.corrupted == 1

    def test_watchdog_timeout_counted(self):
        estimator = _estimator(max_retries=0, watchdog_s=0.05)
        supervised = estimator.supervise(
            "iss", "producer", lambda: time.sleep(5.0)
        )
        with pytest.raises(EstimatorUnavailable):
            supervised()
        assert estimator.watchdog_timeouts == 1


class TestDegradationLadder:
    def test_cached_rung_uses_shadow_mean(self):
        estimator = _estimator()
        key = ("cfsm", "t", ("s0", "s1"))
        supervised = estimator.supervise(
            "iss", "cfsm", lambda: Estimate(10, 2e-9, True), path_key=key
        )
        supervised()
        supervised = estimator.supervise(
            "iss", "cfsm", lambda: Estimate(14, 4e-9, True), path_key=key
        )
        supervised()

        estimate = estimator.fallback(_job(path_key=key))
        assert estimate.provenance == "cached"
        assert estimate.energy == pytest.approx(3e-9)
        assert estimate.cycles == 12
        assert not estimate.ran_low_level

    def test_cached_rung_falls_back_to_transition_mean(self):
        estimator = _estimator()
        seen_key = ("cfsm", "t", ("s0",))
        estimator.supervise(
            "iss", "cfsm", lambda: Estimate(8, 5e-9, True), path_key=seen_key
        )()
        # Same (cfsm, transition) but an unseen path: transition-level
        # shadow mean answers.
        estimate = estimator.fallback(_job(path_key=("cfsm", "t", ("s9",))))
        assert estimate.provenance == "cached"
        assert estimate.energy == pytest.approx(5e-9)

    def test_macromodel_rung(self):
        fake = SimpleNamespace(
            estimate=lambda job: Estimate(cycles=7, energy=6e-10,
                                          ran_low_level=False)
        )
        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=lambda: fake,
        )
        estimate = estimator.fallback(_job())
        assert estimate.provenance == "macromodel"
        assert estimate.energy == 6e-10
        assert estimator.fallbacks == {"macromodel": 1}

    def test_degraded_rung_when_macromodel_build_fails(self):
        def broken_factory():
            raise RuntimeError("no characterization data")

        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=broken_factory,
        )
        job = _job(op_names=("add", "load", "store"))
        estimate = estimator.fallback(job)
        assert estimate.provenance == "degraded"
        assert estimate.cycles == 2 + 3
        assert 0 < estimate.energy <= estimator.config.max_energy_j
        # The failed build is permanent; no second factory call.
        estimator.fallback(job)
        assert estimator.fallbacks == {"degraded": 2}

    def test_per_job_macromodel_failure_keeps_rung_armed(self):
        calls = {"n": 0}

        def sometimes(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("this job only")
            return Estimate(cycles=3, energy=1e-10, ran_low_level=False)

        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=lambda: SimpleNamespace(estimate=sometimes),
        )
        assert estimator.fallback(_job()).provenance == "degraded"
        assert estimator.fallback(_job()).provenance == "macromodel"

    def test_full_ladder_order(self):
        """cached beats macromodel beats degraded."""
        fake = SimpleNamespace(
            estimate=lambda job: Estimate(3, 1e-10, False)
        )
        estimator = ResilientEstimator(
            ResilienceConfig(),
            power_model=InstructionPowerModel(),
            macromodel_factory=lambda: fake,
        )
        key = ("cfsm", "t", ("s0",))
        # No shadow data yet: macromodel answers.
        assert estimator.fallback(_job(path_key=key)).provenance == "macromodel"
        # After one exact run the cached rung takes precedence.
        estimator.supervise(
            "iss", "cfsm", lambda: Estimate(5, 2e-9, True), path_key=key
        )()
        assert estimator.fallback(_job(path_key=key)).provenance == "cached"


class TestBypassAndAccounting:
    def test_component_ok_without_plan(self):
        estimator = _estimator()
        assert estimator.component_ok("cache")
        assert estimator.bypasses == {}

    def test_component_ok_counts_bypasses(self):
        plan = FaultPlan(specs=[FaultSpec(site="bus", schedule=(1, 3))])
        estimator = ResilientEstimator(
            ResilienceConfig(fault_plan=plan),
            power_model=InstructionPowerModel(),
        )
        results = [estimator.component_ok("bus") for _ in range(4)]
        assert results == [False, True, False, True]
        assert estimator.bypasses == {"bus": 2}

    def test_statistics_and_metrics(self):
        plan = FaultPlan(specs=[FaultSpec(site="hw", schedule=(1,))])
        telemetry = Telemetry.metrics_only()
        estimator = ResilientEstimator(
            ResilienceConfig(fault_plan=plan, max_retries=1),
            power_model=InstructionPowerModel(),
            telemetry=telemetry,
        )
        supervised = estimator.supervise(
            "hw", "dma", lambda: Estimate(1, 1e-9, True)
        )
        supervised()  # attempt 1 faults, retry succeeds
        stats = estimator.statistics()
        assert stats["retries"] == 1.0
        # Each attempt draws the schedule once: two invocations total.
        assert stats["fault.invocations.hw"] == 2.0
        assert stats["fault.injected.hw.exception"] == 1.0
        estimator.publish_metrics()
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["gauges"]["resilience.stats.retries"] == 1.0
        assert snapshot["counters"]["resilience.retries"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(watchdog_s=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_energy_j=-1.0)
