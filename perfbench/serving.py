"""The ``serve`` and ``cluster`` workloads: closed-loop HTTP load.

``serve`` starts ``repro serve --workers 2``; ``cluster`` starts
``repro cluster --workers 2`` (a coordinator plus two worker
processes).  One client connection from this process keeps one request in
flight (a closed loop): on a 2-core host a second client made requests
contend for the cores, and latencies then measured the scheduler more
than the program.  Requests cycle through the 16 (system, strategy)
pairs of the four bundled systems and four strategies, so every pair is
drawn equally often.  The 16 fingerprints repeat, so the servers replay
gate-level runs from their warm memo and the time goes to the serving
layers.

Every reply must be 200 and carry exactly the energy an in-process
``PowerCoEstimator`` computes for its pair at set-up; anything else is a
failure.  Servers listen on a port the kernel picks, are polled on
``/readyz`` (no fixed sleeps), must show zero completed requests before
the first request, stop on SIGTERM with exit code 0, and have their
whole process group killed on any error.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (CLUSTER_METRICS, ROOT, SERVICE_METRICS, SRC, STRATEGIES,
                    BenchError, HostSpeed, descendants,
                    latency_summary, median, read_peak_rss_kb)
from layers import Recorder, instrument, layer_metrics, setup_metrics

WORKERS = 2
CLIENTS = 1
#: The services' default SLO latency; later replies are not goodput.
SLO_S = 5.0
#: Server start-ups per run; their median is ``setup_s``.
SETUP_PROBES = 3
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0
#: Calibrations this long before and after a request scale its latency.
LATENCY_WINDOW_S = 1.0


def pairs() -> List[Tuple[str, str]]:
    from repro.systems import system_names

    return [(system, strategy) for system in system_names()
            for strategy in STRATEGIES]


# -- in-process reference -----------------------------------------------------


def reference_energies(recorder: Optional[Recorder] = None
                       ) -> Tuple[Dict[Tuple[str, str], float], float, float,
                                  Dict]:
    """Energy of every pair, computed in this process.

    Returns the energies, the wall and reference seconds spent
    estimating, and the gate-level memo hits and misses per strategy
    (the memo is cleared before each strategy, as in ``coest``).
    """
    from repro.core import PowerCoEstimator
    from repro.hw.estimator import HW_RUN_MEMO_STATS, clear_hw_run_memo
    from repro.master.master import SimulationMaster
    from repro.systems import build_bundle, system_names

    designs = {}
    if recorder is not None:
        recorder.label = "setup"
    for system in system_names():
        if recorder is not None:
            with recorder.span("build"):
                bundle = build_bundle(system)
        else:
            bundle = build_bundle(system)
        estimator = PowerCoEstimator(bundle.network, bundle.config)
        estimator.parameter_file()
        estimator.hw_profiles()
        SimulationMaster(bundle.network, None, bundle.config)
        designs[system] = (bundle, estimator)

    energies, memo, wall, reference = {}, {}, 0.0, 0.0
    with HostSpeed() as speed:
        for strategy in STRATEGIES:
            gc.collect()
            clear_hw_run_memo()
            if recorder is not None:
                recorder.label = strategy
            for system, (bundle, estimator) in sorted(designs.items()):
                started = time.perf_counter()
                result = estimator.estimate(
                    bundle.stimuli(), strategy=strategy,
                    shared_memory_image=bundle.shared_memory_image,
                )
                ended = time.perf_counter()
                wall += ended - started
                reference += speed.reference_seconds(started, ended)
                energies[(system, strategy)] = result.report.total_energy_j
            memo[strategy] = (HW_RUN_MEMO_STATS.hits,
                              HW_RUN_MEMO_STATS.misses)
    return energies, wall, reference, memo


# -- server processes ---------------------------------------------------------


class Server:
    """One ``repro serve`` / ``repro cluster`` process group."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        # One malloc arena: with glibc's default of one per thread, which
        # threads happen to allocate moves a server's peak RSS by up to
        # 40% from start to start, hiding any change the program makes.
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1",
                   MALLOC_ARENA_MAX="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", mode, "--port", "0",
             "--workers", str(WORKERS)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.output: List[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = self._banner_port()

    def _drain(self) -> None:
        # The pipe must be read continuously or a chatty server blocks.
        for line in self.process.stdout:
            self.output.append(line)
            self.lines.put(line)
        self.lines.put("")

    def _banner_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=1.0)
            except queue.Empty:
                continue
            if not line:
                break
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1].rstrip("/"))
        raise BenchError("%s printed no banner:\n%s"
                         % (self.mode, "".join(self.output)[-2000:]))

    def request(self, method: str, path: str, body=None,
                connection: Optional[http.client.HTTPConnection] = None
                ) -> Tuple[int, bytes]:
        own = connection is None
        if own:
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request(
                method, path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            if own:
                connection.close()

    def wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            try:
                status, raw = self.request("GET", "/readyz")
                document = json.loads(raw)
            except (OSError, ValueError):
                status, document = 0, {}
            routable = document.get("routable")
            if status == 200 and (self.mode == "serve"
                                  or len(routable or ()) == WORKERS):
                return
            time.sleep(0.05)
        raise BenchError("%s never became ready:\n%s"
                         % (self.mode, "".join(self.output)[-2000:]))

    def stats(self) -> Dict:
        status, raw = self.request("GET", "/stats")
        if status != 200:
            raise BenchError("/stats answered %d" % status)
        return json.loads(raw)

    def completed(self) -> int:
        stats = self.stats()
        section = stats["service" if self.mode == "serve" else "cluster"]
        return int(section["completed"])

    def peak_rss_mb(self) -> float:
        return sum(read_peak_rss_kb(pid)
                   for pid in descendants(self.process.pid)) / 1024.0

    def stop(self) -> None:
        """SIGTERM, expect exit code 0, and wait out the whole group."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("%s did not stop on SIGTERM" % self.mode)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while _group_alive(self.process.pid):
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError("%s left processes behind" % self.mode)
            time.sleep(0.05)
        self._reader.join(STOP_TIMEOUT_S)
        if code != 0:
            raise BenchError("%s exited %d on SIGTERM:\n%s"
                             % (self.mode, code, "".join(self.output)[-2000:]))

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while _group_alive(self.process.pid) and time.monotonic() < deadline:
            time.sleep(0.05)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _check_reply(status: int, raw: bytes, pair: Tuple[str, str],
                 reference: Dict) -> Tuple[bool, Dict]:
    """Whether a reply is a 200 with the reference energy, and its body."""
    try:
        body = json.loads(raw)
    except ValueError:
        return False, {}
    ok = status == 200 and body.get("total_energy_j") == reference[pair]
    return ok, body


def start_warm(mode: str, reference: Dict) -> Tuple[Server, float, float]:
    """Start a server and answer every pair once.

    Returns the server and the wall-clock start and end of its set-up.

    The server must show zero completed requests before the first one,
    and exactly one per pair after, so a stale server is never measured.
    """
    started = time.perf_counter()
    server = Server(mode)
    try:
        server.wait_ready()
        if server.completed() != 0:
            raise BenchError("%s had completed requests before load" % mode)
        for pair in pairs():
            status, raw = server.request(
                "POST", "/estimate", {"system": pair[0], "strategy": pair[1]})
            ok, _ = _check_reply(status, raw, pair, reference)
            if not ok:
                raise BenchError("warm-up %s answered %d: %s"
                                 % (pair, status, raw[:300]))
        ended = time.perf_counter()
        if server.completed() != len(pairs()):
            raise BenchError("%s completed requests nobody sent" % mode)
    except BaseException:
        server.kill()
        raise
    return server, started, ended


def closed_loop(server: Server, reference: Dict, seed: int,
                seconds: float) -> List[Dict]:
    """``CLIENTS`` clients, one request in flight each, for ``seconds``.

    Requests go out in cycles of all 16 pairs, each cycle in a fresh
    seeded order: every pair is drawn equally often, and which pairs
    overlap in flight changes from cycle to cycle instead of being fixed
    by the seed.
    """
    rng = random.Random(seed)
    order: List[Tuple[str, str]] = []
    lock = threading.Lock()
    samples: List[Dict] = []
    errors: List[BaseException] = []

    def client() -> None:
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    if not order:
                        order.extend(pairs())
                        rng.shuffle(order)
                    pair = order.pop()
                sent = time.perf_counter()
                try:
                    status, raw = server.request(
                        "POST", "/estimate",
                        {"system": pair[0], "strategy": pair[1]}, connection)
                except (OSError, http.client.HTTPException) as exc:
                    connection.close()
                    status, raw = 0, str(exc).encode()
                latency = time.perf_counter() - sent
                ok, body = _check_reply(status, raw, pair, reference)
                sample = {
                    "system": pair[0], "strategy": pair[1], "sent": sent,
                    "status": status, "ok": ok, "latency_s": latency,
                    "bytes": len(raw),
                    "queue_s": body.get("queue_seconds"),
                    "run_s": body.get("run_seconds"),
                    "worker": (body.get("cluster") or {}).get("worker"),
                    "redispatches": (body.get("cluster") or {}).get(
                        "redispatches", 0),
                }
                with lock:
                    samples.append(sample)
        except BaseException as exc:  # re-raised in the main thread
            errors.append(exc)
        finally:
            connection.close()

    deadline = time.perf_counter() + seconds
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + REQUEST_TIMEOUT_S + 10.0)
    if any(thread.is_alive() for thread in threads):
        raise BenchError("a client did not finish")
    if errors:
        raise errors[0]
    return samples


def _front_metrics(mode: str, samples: List[Dict], coalesced: int) -> Dict:
    service = dict.fromkeys(SERVICE_METRICS, 0.0)
    cluster = dict.fromkeys(CLUSTER_METRICS, 0.0)
    done = [s for s in samples if s["ok"]]
    if not done:
        raise BenchError("no request succeeded")
    ratio = coalesced / len(samples)
    if mode == "serve":
        service.update({
            "service.queue_wait_ms": median([s["queue_s"] for s in done]) * 1e3,
            "service.run_ms": median([s["run_s"] for s in done]) * 1e3,
            "service.front_ms": median(
                [s["latency_s"] - s["queue_s"] - s["run_s"] for s in done]
            ) * 1e3,
            "service.coalesced_ratio": ratio,
            "service.response_bytes": median([s["bytes"] for s in done]),
        })
    else:
        by_worker: Dict[str, int] = {}
        for sample in done:
            by_worker[sample["worker"]] = by_worker.get(sample["worker"], 0) + 1
        cluster.update({
            "cluster.dispatch_ms": median(
                [s["latency_s"] - s["run_s"] for s in done]) * 1e3,
            "cluster.run_ms": median([s["run_s"] for s in done]) * 1e3,
            "cluster.coalesced_ratio": ratio,
            "cluster.worker_share_max": max(by_worker.values()) / len(done),
            "cluster.redispatches": float(sum(s["redispatches"]
                                              for s in samples)),
        })
    return dict(service, **cluster)


def _energy_errors(reference: Dict) -> Dict[str, float]:
    from repro.systems import system_names

    return {
        "%s_energy_err_pct" % strategy: max(
            abs(reference[(system, strategy)] - reference[(system, "full")])
            / reference[(system, "full")] * 100.0
            for system in system_names()
        )
        for strategy in STRATEGIES[1:]
    }


def pin_to_one_cpu() -> int:
    """Keep this process and every process it starts on one CPU.

    With one request in flight the client and the server processes
    take turns, so they lose little by sharing a CPU.  On a shared host
    each CPU's speed drifts on its own: on one CPU the host-speed loop
    times the same CPU the server runs on, and a cluster's hops between
    processes do not depend on where the scheduler wakes each one.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(mode: str, seed: int, seconds: float, trace: bool) -> Dict:
    cpu = pin_to_one_cpu()
    setup_recorder = Recorder() if trace else None
    if setup_recorder is not None:
        # The first, cold reference run is traced for the set-up layers.
        with instrument(setup_recorder):
            reference = reference_energies(setup_recorder)[0]
    else:
        reference = reference_energies()[0]
    servers: List[Server] = []
    setup_samples, peak_rss_mb = [], []
    try:
        with HostSpeed() as speed:
            for _ in range(SETUP_PROBES):
                server, started, ended = start_warm(mode, reference)
                servers.append(server)
                setup_samples.append([ended - started, None, started, ended])
                if len(setup_samples) < SETUP_PROBES:
                    peak_rss_mb.append(server.peak_rss_mb())
                    servers.pop().stop()
            dedup_before = int(server.stats()["dedup"]["coalesced"])
            started = time.perf_counter()
            samples = closed_loop(server, reference, seed, seconds)
            ended = time.perf_counter()
            coalesced = (int(server.stats()["dedup"]["coalesced"])
                         - dedup_before)
            peak_rss_mb.append(server.peak_rss_mb())
            servers.pop().stop()
    except BaseException:
        for server in servers:
            server.kill()
        raise

    for sample in setup_samples:
        sample[1] = speed.reference_seconds(sample[2], sample[3])
    elapsed = speed.reference_seconds(started, ended)
    # A request spans too few calibrations to be scaled by its own, and
    # the host's speed drifts within a run too much for one factor: each
    # latency is scaled by the calibrations of a window around it.
    for sample in samples:
        sample["ref_latency_s"] = speed.reference_seconds(
            sample["sent"], sample["sent"] + sample["latency_s"],
            LATENCY_WINDOW_S)
    failed = sum(1 for sample in samples if not sample["ok"])
    result = {
        "attempted": len(samples),
        "failed": failed,
        "samples": {"cpu": cpu,
                    "setup_s": [sample[:2] for sample in setup_samples],
                    "peak_rss_mb": peak_rss_mb,
                    "requests": samples,
                    "calibration": list(zip(speed.times, speed.costs))},
    }
    good = [s for s in samples if s["ok"] and s["latency_s"] <= SLO_S]
    summary = latency_summary([s["ref_latency_s"] for s in samples])
    if not trace:
        metrics = {
            "setup_s": median([sample[1] for sample in setup_samples]),
            "peak_rss_mb": median(peak_rss_mb),
            "goodput_rps": len(good) / elapsed,
            "latency_p50_ms": summary["p50_ms"],
            "latency_p95_ms": summary["p95_ms"],
        }
        for strategy in STRATEGIES:
            metrics["%s_points_per_s" % strategy] = sum(
                1 for s in good if s["strategy"] == strategy) / elapsed
        result["metrics"] = metrics
        result["derived"] = {"latency": summary,
                             "energy_err_pct": _energy_errors(reference)}
        return result

    untraced_reference, _, untraced_s, _ = reference_energies()
    recorder = Recorder()
    with instrument(recorder):
        traced_reference, traced_wall, traced_s, memo = reference_energies(
            recorder)
    result["failed"] += sum(
        1 for pair in reference
        if reference[pair] != untraced_reference[pair]
        or reference[pair] != traced_reference[pair]
    )
    metrics = setup_metrics(setup_recorder)
    for strategy in STRATEGIES:
        metrics.update(layer_metrics(recorder, strategy, 1, *memo[strategy]))
    metrics["bench.trace_overhead_pct"] = (traced_s / untraced_s
                                           - 1.0) * 100.0
    metrics["bench.layer_coverage"] = recorder.covered_seconds() / traced_wall
    metrics.update(_energy_errors(reference))
    metrics.update(_front_metrics(mode, samples, coalesced))
    result["metrics"] = metrics
    return result

