#!/usr/bin/env python3
"""End-to-end smoke test of `repro serve` — the CI service gate.

Starts the server as a subprocess, then drives the acceptance scenario
from the outside, exactly as a deployment would see it:

0. startup is gated on polling /readyz (no fixed sleeps), the same
   readiness contract a deployment's health checks would use;
1. concurrent estimates for two bundled systems answer 200 with exact
   provenance (and carry X-Trace-Id correlation headers);
2. a chaos request (100% hw faults) answers 200 *degraded*, with the
   breaker for that site open in /stats;
3. /metrics is valid Prometheus text exposition and its provenance-tier
   and breaker-state samples agree with what the fault load did;
4. a burst beyond workers+queue sees explicit 429 backpressure with a
   Retry-After header;
5. SIGTERM drains gracefully: exit code 0, a drain report, structured
   JSON log lines (--log-json, including the chaos request's
   estimator.fallback events), and a flight-recorder dump on disk
   (uploaded as a CI artifact).

Exits non-zero (with a message) on the first violated expectation.
"""

import glob
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.obs.prometheus import validate_exposition

#: Where the server dumps its flight recorder; CI uploads this
#: directory as an artifact.
FLIGHT_DIR = os.environ.get("SMOKE_FLIGHT_DIR", "smoke-flight")


def post(port, body, timeout=120):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("POST", "/estimate", body=json.dumps(body),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        headers = dict(response.getheaders())
        return response.status, headers, json.loads(response.read())
    finally:
        connection.close()


def get(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def get_text(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        headers = dict(response.getheaders())
        return response.status, headers, response.read().decode("utf-8")
    finally:
        connection.close()


def fail(message):
    print("service smoke FAILED: %s" % message, file=sys.stderr)
    sys.exit(1)


def wait_ready(port, deadline_s=30.0, expect=None):
    """Poll /readyz until it answers 200 ready (no fixed sleeps).

    ``expect`` optionally asserts on the readiness document once ready —
    the cluster smoke uses it to wait for a specific worker-set shape.
    Returns the final document; fails the smoke on deadline.
    """
    deadline = time.time() + deadline_s
    last = None
    while time.time() < deadline:
        try:
            status, body = get(port, "/readyz")
            last = (status, body)
            if status == 200 and body.get("status") == "ready" and (
                expect is None or expect(body)
            ):
                return body
        except (OSError, ValueError):
            last = ("unreachable", None)
        time.sleep(0.2)
    fail("/readyz never became ready within %.0fs (last: %s)"
         % (deadline_s, last))


def main():
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--queue-depth", "4", "--deadline-s", "60",
         "--breaker-threshold", "2", "--log-json",
         "--flight-dump-dir", FLIGHT_DIR],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=dict(os.environ, PYTHONUNBUFFERED="1"), text=True,
    )
    # --log-json streams one JSON line per request step; drain the pipe
    # continuously so a chatty run can never fill the pipe buffer and
    # deadlock the server against its own stderr.
    captured = []

    def read_output():
        for line in process.stdout:
            captured.append(line)

    try:
        banner = process.stdout.readline()
        if "listening on http://" not in banner:
            fail("no startup banner: %r" % banner)
        port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0])
        reader = threading.Thread(target=read_output, daemon=True)
        reader.start()

        wait_ready(port)

        # 1. Concurrent clean estimates for two bundled systems.
        outcomes = {}

        def run_clean(system):
            outcomes[system] = post(port, {"system": system,
                                           "strategy": "full"})

        threads = [threading.Thread(target=run_clean, args=(system,))
                   for system in ("fig1", "tcpip")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        for system, (status, headers, body) in outcomes.items():
            if status != 200:
                fail("%s answered %s: %s" % (system, status, body))
            if body["degraded"]:
                fail("clean %s run reported degraded" % system)
            if set(body["provenance"]) != {"exact"}:
                fail("clean %s run not fully exact: %s"
                     % (system, body["provenance"]))
            if not headers.get("X-Trace-Id"):
                fail("%s response missing X-Trace-Id header" % system)
        print("clean estimates OK: fig1 + tcpip, all-exact provenance, "
              "trace-correlated")

        # 2. Chaos request: 100% hw faults must trip the breaker and
        #    still be answered from the degradation ladder.
        status, _, body = post(port, {
            "system": "fig1", "strategy": "full",
            "fault": {"rate": 1.0, "sites": ["hw"], "retries": 0},
        })
        if status != 200:
            fail("chaos request answered %s: %s" % (status, body))
        if not body["degraded"]:
            fail("100%% hw faults but degraded=false")
        if not any(level != "exact" for level in body["provenance"]):
            fail("no degraded provenance tag: %s" % body["provenance"])
        if body["breakers"].get("fig1:hw") != "open":
            fail("fig1:hw breaker not open: %s" % body["breakers"])
        _, stats = get(port, "/stats")
        breaker = stats["breakers"]["fig1:hw"]
        if breaker["opens"] < 1 or breaker["short_circuits"] < 1:
            fail("breaker never short-circuited: %s" % breaker)
        print("breaker OK: fig1:hw open, %d short-circuits, provenance %s"
              % (breaker["short_circuits"], body["provenance"]))

        # 3. /metrics: valid Prometheus exposition whose samples agree
        #    with what the fault load just did.
        status, headers, exposition = get_text(port, "/metrics")
        if status != 200:
            fail("/metrics answered %s" % status)
        if not headers.get("Content-Type", "").startswith(
            "text/plain; version=0.0.4"
        ):
            fail("/metrics content type %r" % headers.get("Content-Type"))
        errors = validate_exposition(exposition)
        if errors:
            fail("/metrics is not valid exposition format: %s" % errors)
        answer_lines = [
            line for line in exposition.splitlines()
            if line.startswith("repro_service_energy_answers_total{")
        ]
        if not any('provenance="exact"' in line for line in answer_lines):
            fail("no exact-provenance answer counter: %s" % answer_lines)
        degraded_tiers = [line for line in answer_lines
                          if 'provenance="exact"' not in line
                          and 'system="fig1"' in line]
        if not degraded_tiers:
            fail("chaos load produced no non-exact provenance counters: %s"
                 % answer_lines)
        if 'repro_service_breaker_state{site="fig1:hw"} 2' not in exposition:
            fail("fig1:hw breaker-state gauge is not open(2)")
        for family in ("repro_slo_latency_burn_rate",
                       "repro_slo_error_burn_rate",
                       "repro_http_requests_total",
                       "repro_service_request_latency_seconds_count"):
            if family not in exposition:
                fail("/metrics lacks %s" % family)
        print("metrics OK: valid exposition, %d provenance tier(s) "
              "degraded, breaker gauge open" % len(degraded_tiers))

        # 4. Saturation: a burst beyond workers+queue must see 429s
        #    (and every accepted request must still complete).
        burst = []
        start_together = threading.Barrier(24)

        def run_burst(index):
            start_together.wait(30)  # maximize submission collisions
            try:
                burst.append(post(port, {
                    "system": "tcpip", "strategy": "full",
                    "fault": {"rate": 0.01, "sites": ["hw"],
                              "seed": index, "retries": 1},
                }))
            except OSError:
                # A connection reset under overload is backpressure
                # too, just the TCP-level kind; tolerated, not counted.
                burst.append(("reset", {}, {}))

        threads = [threading.Thread(target=run_burst, args=(index,))
                   for index in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180)
        statuses = sorted(str(status) for status, _, _ in burst)
        if "429" not in statuses:
            fail("24-request burst against workers=2/queue=4 saw no 429: %s"
                 % statuses)
        if statuses.count("200") < 1:
            fail("burst starved completely: %s" % statuses)
        for status, headers, _ in burst:
            if status == 429 and "Retry-After" not in headers:
                fail("429 without Retry-After header")
            if status not in (200, 429, 503, 504, "reset"):
                fail("unexpected burst status %s" % status)
        print("backpressure OK: burst statuses %s"
              % dict((status, statuses.count(status))
                     for status in sorted(set(statuses))))

        # 5. Graceful drain on SIGTERM.
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=120)
        reader.join(30)
        output = "".join(captured)
        if process.returncode != 0:
            fail("serve exited %s after SIGTERM:\n%s"
                 % (process.returncode, output))
        if "drain" not in output:
            fail("no drain report in output:\n%s" % output)

        # Structured logs: --log-json must have produced parseable,
        # trace-correlated event lines on stderr.
        events = []
        for line in output.splitlines():
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except ValueError:
                fail("unparseable --log-json line: %r" % line)
            if "event" not in record or "trace_id" not in record:
                fail("log line lacks event/trace_id: %r" % line)
            events.append(record["event"])
        for expected in ("request.admitted", "request.completed",
                         "breaker.transition", "estimator.fallback",
                         "drain.step"):
            if expected not in events:
                fail("no %s event in the JSON log (saw %s)"
                     % (expected, sorted(set(events))))
        print("structured logs OK: %d JSON lines, %d distinct events"
              % (len(events), len(set(events))))

        # Flight recorder: the drain must have dumped the event ring
        # (CI uploads the directory as a postmortem artifact).
        dumps = sorted(glob.glob(
            os.path.join(FLIGHT_DIR, "flightrecorder-*.json")
        ))
        if not dumps:
            fail("no flight-recorder dump in %s after drain" % FLIGHT_DIR)
        with open(dumps[-1]) as handle:
            document = json.load(handle)
        if not document.get("events"):
            fail("flight-recorder dump %s holds no events" % dumps[-1])
        print("flight recorder OK: %d dump(s), last holds %d events"
              % (len(dumps), len(document["events"])))
        print("drain OK: exit 0")
        print("service smoke PASSED")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    main()
