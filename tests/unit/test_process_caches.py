"""Unit tests for the process-wide hot-path caches.

Six caches accelerate repeated co-estimation: compiled s-graph bodies,
compiled-simulator, synthesis, codegen, ISS decode, and the exact-state
hardware run memo.
Each keeps ``Stats`` hit/miss accounting and (when telemetry is on)
mirrors it into the metrics registry.  Caching must never change a
single reported number — warm runs replay losslessly.

Two more memos keep request-independent work off the serving path: the
structural request fingerprint per bundled system, and macro-model
characterization per power model and hardware block.
"""

import dataclasses
import sys
import threading

import pytest

from repro.cfsm import sgraph
from repro.cfsm.expr import add, const, var
from repro.cfsm.model import Implementation
from repro.cfsm.sgraph import (
    SGRAPH_CACHE_STATS,
    SGraph,
    assign,
    clear_sgraph_cache,
)
from repro.core import PowerCoEstimator
from repro.core.caching import WarmStartCache
from repro.core.macromodel import (
    CHARACTERIZATION_MEMO_STATS,
    MacroCost,
    characterize_cached,
    characterize_hw_cached,
    clear_characterization_memo,
)
from repro.hw.estimator import HW_RUN_MEMO_STATS, clear_hw_run_memo
from repro.hw.logicsim import COMPILE_CACHE_STATS, clear_compile_cache
from repro.hw.synth import SYNTH_CACHE_STATS, clear_synth_cache
from repro.sw.codegen import CODEGEN_CACHE_STATS, clear_codegen_cache
from repro.sw.iss import DECODE_CACHE_STATS, clear_decode_cache
from repro.service.api import (
    parse_request,
    request_fingerprint,
    system_fingerprint,
)
from repro.sw.power_model import InstructionPowerModel
from repro.systems import build_bundle, system_names, tcpip
from repro.telemetry import Telemetry

ALL_STATS = {
    "sgraph": SGRAPH_CACHE_STATS,
    "compile": COMPILE_CACHE_STATS,
    "synth": SYNTH_CACHE_STATS,
    "codegen": CODEGEN_CACHE_STATS,
    "iss_decode": DECODE_CACHE_STATS,
    "hw_run_memo": HW_RUN_MEMO_STATS,
}

#: Metrics-registry counters each cache maintains when telemetry is on.
COUNTER_NAMES = {
    "sgraph": "cfsm.compile_cache",
    "compile": "hw.compile_cache",
    "iss_decode": "iss.decode_cache",
    "hw_run_memo": "hw.run_memo",
}


def _clear_all():
    clear_sgraph_cache()
    clear_compile_cache()
    clear_synth_cache()
    clear_codegen_cache()
    clear_decode_cache()
    clear_hw_run_memo()


def _run(telemetry=None):
    bundle = tcpip.build_system(
        dma_block_words=8, num_packets=1, packet_period_ns=30_000.0
    )
    estimator = PowerCoEstimator(bundle.network, bundle.config)
    result = estimator.estimate(
        bundle.stimuli(), strategy="caching", telemetry=telemetry
    )
    return result.report


def _canonical(report):
    """Report as a dict, wall-clock fields (nondeterministic) dropped."""
    payload = dataclasses.asdict(report)
    return {
        key: value
        for key, value in payload.items()
        if not key.endswith("_seconds")
    }


class TestColdWarm:
    def test_warm_run_hits_every_cache_and_replays_exactly(self):
        _clear_all()
        cold_report = _run()
        cold = {name: s.snapshot() for name, s in ALL_STATS.items()}
        for name, snapshot in cold.items():
            assert snapshot["misses"] > 0, name

        telemetry = Telemetry.metrics_only()
        warm_report = _run(telemetry=telemetry)
        warm = {name: s.snapshot() for name, s in ALL_STATS.items()}
        for name in ALL_STATS:
            assert warm[name]["hits"] > cold[name]["hits"], name

        # Exact replay: not a single reported number moves.
        assert _canonical(warm_report) == _canonical(cold_report)

        # The same accounting is visible through the metrics registry.
        counters = telemetry.metrics.snapshot()["counters"]
        for name, prefix in COUNTER_NAMES.items():
            assert counters.get(prefix + ".hits", 0) > 0, name

    def test_clear_resets_stats_and_forces_misses(self):
        _clear_all()
        _run()
        _clear_all()
        for name, stats in ALL_STATS.items():
            snapshot = stats.snapshot()
            assert snapshot["hits"] == 0, name
            assert snapshot["misses"] == 0, name
        _run()
        assert SGRAPH_CACHE_STATS.misses > 0
        assert COMPILE_CACHE_STATS.misses > 0
        assert DECODE_CACHE_STATS.misses > 0


class TestSGraphCompileCache:
    """Compiled transition bodies are shared by structure, not object."""

    def test_rebuilt_identical_system_hits_and_compiles_nothing(self):
        _clear_all()
        _run()
        cold = SGRAPH_CACHE_STATS.snapshot()
        assert cold["misses"] > 0
        _run()  # rebuilds every CFSM and s-graph from scratch
        warm = SGRAPH_CACHE_STATS.snapshot()
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] > cold["hits"]

    def test_changed_body_misses(self):
        clear_sgraph_cache()
        SGraph([assign("a", add(var("a"), const(1)))]).execute({"a": 0})
        SGraph([assign("a", add(var("a"), const(1)))]).execute({"a": 0})
        assert SGRAPH_CACHE_STATS.snapshot()["misses"] == 1
        SGraph([assign("a", add(var("a"), const(2)))]).execute({"a": 0})
        assert SGRAPH_CACHE_STATS.snapshot()["misses"] == 2
        # The loop bound is part of the compiled code, hence of the key.
        SGraph([assign("a", add(var("a"), const(2)))],
               max_iterations=5).execute({"a": 0})
        assert SGRAPH_CACHE_STATS.snapshot()["misses"] == 3

    def test_lru_stays_bounded(self, monkeypatch):
        clear_sgraph_cache()
        monkeypatch.setattr(sgraph, "_SGRAPH_CACHE_CAPACITY", 4)
        for step in range(10):
            env = {"a": 0}
            SGraph([assign("a", const(step))]).execute(env)
            assert env == {"a": step}
        assert len(sgraph._SGRAPH_CACHE) == 4
        assert SGRAPH_CACHE_STATS.evictions == 6
        # The oldest bodies were evicted: running one again recompiles.
        SGraph([assign("a", const(0))]).execute({"a": 0})
        assert SGRAPH_CACHE_STATS.misses == 11
        clear_sgraph_cache()


class TestWarmStartCache:
    def _build(self, dma, priorities=None):
        return tcpip.build_system(
            dma_block_words=dma,
            num_packets=1,
            packet_period_ns=30_000.0,
            priorities=priorities,
        )

    def test_same_system_adopts_cache(self):
        warm = WarmStartCache()
        bundle = self._build(8)
        first = warm.strategy_for(bundle.network, bundle.config)
        assert warm.cache is not None
        again = warm.strategy_for(bundle.network, bundle.config)
        assert again.cache is first.cache
        assert warm.adoptions >= 1
        assert warm.invalidations == 0

    def test_priority_change_keeps_cache_valid(self):
        # Bus priorities live outside the per-CFSM fingerprints: the
        # converged energy statistics stay adoptable.
        warm = WarmStartCache()
        a = self._build(8, priorities={"create_pack": 0, "ip_check": 1,
                                       "checksum": 2})
        warm.strategy_for(a.network, a.config)
        b = self._build(8, priorities={"checksum": 0, "ip_check": 1,
                                       "create_pack": 2})
        warm.strategy_for(b.network, b.config)
        assert warm.invalidations == 0
        assert warm.adoptions >= 1

    def test_dma_change_invalidates_stale_processes_only(self):
        warm = WarmStartCache()
        a = self._build(4)
        strategy = warm.strategy_for(a.network, a.config)
        # Converge some entries by actually running.
        estimator = PowerCoEstimator(a.network, a.config)
        estimator.estimate(a.stimuli(), strategy=strategy)
        fingerprints_before = warm.fingerprints

        b = self._build(16)
        warm.strategy_for(b.network, b.config)
        assert warm.invalidations == 1
        # The DMA block size is baked into the coordination logic, so at
        # least one CFSM fingerprint must differ — but not all of them.
        changed = {
            name
            for name in fingerprints_before
            if warm.fingerprints.get(name) != fingerprints_before[name]
        }
        assert changed
        assert changed != set(fingerprints_before)


class TestRunMemoExactness:
    def test_memoized_reruns_are_bit_identical(self):
        _clear_all()
        first = _run()
        replayed = _run()
        assert HW_RUN_MEMO_STATS.hits > 0
        assert _canonical(replayed) == _canonical(first)
        # Energy totals compare exactly (floats, no tolerance).
        assert replayed.total_energy_j == first.total_energy_j


class TestSystemFingerprint:
    @pytest.mark.parametrize("strategy", PowerCoEstimator.STRATEGIES)
    @pytest.mark.parametrize("system", system_names())
    def test_memo_matches_a_fresh_build(self, system, strategy):
        request = parse_request({"system": system, "strategy": strategy})
        system_fingerprint(request)  # warm the memo
        assert system_fingerprint(request) == request_fingerprint(
            build_bundle(system), request
        )

    def test_fault_plan_never_shares_a_clean_fingerprint(self):
        clean = parse_request({"system": "fig1"})
        faulted = parse_request({"system": "fig1", "fault": {
            "rate": 0.1, "sites": ["hw"], "seed": 7}})
        reseeded = parse_request({"system": "fig1", "fault": {
            "rate": 0.1, "sites": ["hw"], "seed": 8}})
        prints = {system_fingerprint(r) for r in (clean, faulted, reseeded)}
        assert len(prints) == 3


class TestCharacterizationMemo:
    def _estimator(self, power_model=None):
        bundle = tcpip.build_system(dma_block_words=8, num_packets=1)
        config = bundle.config
        if power_model is not None:
            config = dataclasses.replace(config, power_model=power_model)
        return PowerCoEstimator(bundle.network, config)

    def test_equal_power_models_hit_and_a_different_one_misses(self):
        clear_characterization_memo()
        first = self._estimator(InstructionPowerModel()).parameter_file()
        assert CHARACTERIZATION_MEMO_STATS.snapshot()["misses"] == 1
        second = self._estimator(InstructionPowerModel()).parameter_file()
        assert CHARACTERIZATION_MEMO_STATS.hits == 1
        assert second.costs == first.costs
        dsp = self._estimator(InstructionPowerModel.dsp_like())
        dsp.parameter_file()
        assert CHARACTERIZATION_MEMO_STATS.misses == 2

    def test_hw_profiles_are_characterized_once(self):
        clear_characterization_memo()
        first = self._estimator().hw_profiles()
        misses = CHARACTERIZATION_MEMO_STATS.misses
        assert misses == len(first) > 0
        assert self._estimator().hw_profiles() == first
        assert CHARACTERIZATION_MEMO_STATS.misses == misses
        assert CHARACTERIZATION_MEMO_STATS.hits == misses

    def test_set_cost_stays_in_its_own_estimator(self):
        clear_characterization_memo()
        one = self._estimator().parameter_file()
        other = self._estimator().parameter_file()
        before = other.cost("AVV")
        one.set_cost("AVV", MacroCost(time_cycles=999.0, energy_j=1.0))
        one.cost("AIVC").energy_j = 5.0
        assert other.cost("AVV") == before
        assert other.cost("AIVC").energy_j != 5.0
        assert self._estimator().parameter_file().cost("AVV") == before

    def test_clear_resets_the_memo_and_its_stats(self):
        self._estimator().parameter_file()
        self._estimator().parameter_file()
        clear_characterization_memo()
        assert CHARACTERIZATION_MEMO_STATS.snapshot() == {
            "hits": 0, "misses": 0, "evictions": 0}
        self._estimator().parameter_file()
        assert CHARACTERIZATION_MEMO_STATS.misses == 1
        assert CHARACTERIZATION_MEMO_STATS.hits == 0


class TestMemosUnderThreads:
    def test_threads_share_one_characterization_and_fingerprint(self):
        clear_characterization_memo()
        request = parse_request({"system": "tcpip", "strategy": "macromodel"})
        expected = request_fingerprint(build_bundle("tcpip"), request)
        network = tcpip.build_system(dma_block_words=8, num_packets=1).network
        hw_cfsms = [cfsm for name, cfsm in sorted(network.cfsms.items())
                    if network.implementation(name) == Implementation.HW]
        results, errors = [], []

        def work():
            try:
                for _ in range(5):
                    results.append((
                        characterize_cached().costs,
                        [characterize_hw_cached(c) for c in hw_cfsms],
                        system_fingerprint(request),
                    ))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 40
        assert all(result == results[0] for result in results)
        assert results[0][2] == expected
        keys = 1 + len(hw_cfsms)
        assert CHARACTERIZATION_MEMO_STATS.misses == keys
        assert CHARACTERIZATION_MEMO_STATS.hits == 40 * keys - keys
