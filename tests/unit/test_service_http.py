"""The stdlib HTTP front end over a fake-executor service."""

import json
import http.client
import threading
import time
import types

import pytest

from repro.service import CoEstimationService, ServiceConfig, ServiceHTTPServer
from repro.service.httpbase import JsonRequestHandler

from tests.unit.test_service_server import FakeExecutor


@pytest.fixture
def http_service(monkeypatch):
    fake = FakeExecutor()
    monkeypatch.setattr("repro.parallel.pool.execute_spec", fake)
    service = CoEstimationService(
        ServiceConfig(workers=1, queue_depth=4, default_deadline_s=10.0,
                      drain_timeout_s=2.0)
    )
    service.start()
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield service, httpd.server_address[1], fake
    httpd.shutdown()
    httpd.server_close()
    fake.release.set()
    service.drain(timeout_s=2.0)


def call(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        payload = None if body is None else json.dumps(body)
        connection.request(method, path, body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), \
            json.loads(data) if data else {}
    finally:
        connection.close()


class TestRoutes:
    def test_healthz(self, http_service):
        _, port, _ = http_service
        status, _, body = call(port, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "alive", "draining": False}

    def test_readyz_ready_then_draining(self, http_service):
        service, port, _ = http_service
        status, _, body = call(port, "GET", "/readyz")
        assert (status, body["status"]) == (200, "ready")
        service.drain_controller.request_drain("test")
        status, _, body = call(port, "GET", "/readyz")
        assert (status, body["status"]) == (503, "draining")

    def test_stats_document(self, http_service):
        _, port, _ = http_service
        status, _, body = call(port, "GET", "/stats")
        assert status == 200
        assert set(body) >= {"service", "queue", "dedup", "breakers",
                             "provenance", "metrics"}
        assert body["queue"]["max_depth"] == 4

    def test_unknown_path_404(self, http_service):
        _, port, _ = http_service
        assert call(port, "GET", "/nope")[0] == 404
        assert call(port, "POST", "/nope")[0] == 404


class TestEstimateEndpoint:
    def test_estimate_ok(self, http_service):
        _, port, _ = http_service
        status, _, body = call(port, "POST", "/estimate",
                               {"system": "fig1", "strategy": "full"})
        assert status == 200
        assert body["status"] == "ok"
        assert body["system"] == "fig1"
        assert body["provenance"] == {"exact": 4}
        assert "fingerprint" in body

    def test_malformed_json_400(self, http_service):
        _, port, _ = http_service
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
        try:
            connection.request("POST", "/estimate", body="{not json")
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in body["reason"]
        finally:
            connection.close()

    def test_unknown_system_400(self, http_service):
        _, port, _ = http_service
        status, _, body = call(port, "POST", "/estimate",
                               {"system": "warp-core"})
        assert status == 400
        assert "unknown system" in body["reason"]

    def test_draining_503(self, http_service):
        service, port, _ = http_service
        service.drain_controller.request_drain("test")
        status, _, body = call(port, "POST", "/estimate",
                               {"system": "fig1"})
        assert status == 503
        assert body["reason"] == "draining"

    def test_coalesced_flag_surfaces(self, http_service):
        service, port, fake = http_service
        fake.release.clear()  # hold the primary in the worker
        results = []

        def post():
            results.append(call(port, "POST", "/estimate",
                                {"system": "fig1"}))

        threads = [threading.Thread(target=post) for _ in range(2)]
        for thread in threads:
            thread.start()
        assert fake.wait_for_calls(1)
        # Release the primary only once the second POST has joined it;
        # released earlier, that POST would find no run to coalesce on.
        deadline = time.monotonic() + 15.0
        while service.dedup.coalesced < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        fake.release.set()
        for thread in threads:
            thread.join(15.0)
        statuses = sorted(r[0] for r in results)
        assert statuses == [200, 200]
        assert len(fake.calls) == 1  # one run answered both clients
        assert sum(1 for r in results if r[2].get("coalesced")) == 1


class _FakeWfile:
    """Records every ``write``; optionally raises from it."""

    def __init__(self, error=None):
        self.writes = []
        self.error = error

    def write(self, data):
        self.writes.append(bytes(data))
        if self.error is not None:
            raise self.error
        return len(data)


def _handler(wfile):
    """A ``JsonRequestHandler`` mid-request, with no socket behind it."""
    handler = JsonRequestHandler.__new__(JsonRequestHandler)
    handler.server = types.SimpleNamespace(quiet=True)
    handler.wfile = wfile
    handler.request_version = "HTTP/1.1"
    handler.requestline = "POST /estimate HTTP/1.1"
    handler.command = "POST"
    handler.path = "/estimate"
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = False
    handler.date_time_string = lambda timestamp=None: "Thu, 01 Jan 2026"
    return handler


class TestSendPayload:
    def test_head_and_body_go_out_in_one_write(self):
        body = b'{"status": "ok"}'
        wfile = _FakeWfile()
        _handler(wfile).send_payload(200, body, "application/json",
                                     {"X-Trace-Id": "abc"})
        assert len(wfile.writes) == 1
        # Byte for byte what the stdlib's own head-then-body writes give.
        reference = _FakeWfile()
        expected = _handler(reference)
        expected.send_response(200)
        expected.send_header("Content-Type", "application/json")
        expected.send_header("Content-Length", str(len(body)))
        expected.send_header("X-Trace-Id", "abc")
        expected.end_headers()
        assert wfile.writes[0] == b"".join(reference.writes) + body
        head, _, sent_body = wfile.writes[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nContent-Length: %d" % len(body) in head
        assert sent_body == body

    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_client_hang_up_is_swallowed(self, error):
        wfile = _FakeWfile(error=error())
        _handler(wfile).send_payload(200, b"{}", "application/json", None)
        assert len(wfile.writes) == 1
