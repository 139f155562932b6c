"""Malformed POST bodies against a live coordinator and worker.

Every malformed body must be answered 400 on a connection that stays
usable — never a dropped connection and a handler traceback.
"""

import http.client
import threading

import pytest

from repro.cluster.coordinator import ClusterConfig, run_coordinator
from repro.cluster.worker import WorkerConfig, run_worker


def _serve(runner, *args, **kwargs):
    """Run a blocking ``run_*`` body in a thread; returns its core."""
    ready = {}
    started = threading.Event()

    def callback(core, httpd):
        ready["core"], ready["port"] = core, httpd.server_address[1]
        started.set()

    thread = threading.Thread(
        target=runner, args=args,
        kwargs=dict(kwargs, install_signals=False, quiet=True,
                    ready_callback=callback),
        daemon=True,
    )
    thread.start()
    assert started.wait(30), "%s never became ready" % runner.__name__
    return ready["core"], ready["port"], thread


@pytest.fixture(scope="module")
def ports():
    coordinator, coordinator_port, coordinator_thread = _serve(
        run_coordinator, "127.0.0.1", 0, ClusterConfig())
    worker, worker_port, worker_thread = _serve(
        run_worker, WorkerConfig(
            coordinator_url="http://127.0.0.1:%d" % coordinator_port,
            worker_id="w-bodies", warm_tier=False,
        ))
    yield {"coordinator": coordinator_port, "worker": worker_port}
    worker.drain.request_drain("test over")
    coordinator.drain_controller.request_drain("test over")
    worker_thread.join(10)
    coordinator_thread.join(10)


@pytest.mark.parametrize("node, path, body", [
    ("coordinator", "/cluster/register", "[]"),
    ("coordinator", "/cluster/heartbeat", "[]"),
    ("coordinator", "/cluster/cache", "[]"),
    ("coordinator", "/cluster/decommission", "[]"),
    ("coordinator", "/cluster/heartbeat",
     '{"worker_id": "w", "queue_depth": "x"}'),
    ("worker", "/run", "[]"),
    ("worker", "/decommission", "[]"),
    ("worker", "/run", '{"kind": "estimate", "epoch": "x"}'),
])
def test_malformed_body_answers_400_and_keeps_the_connection(
        ports, node, path, body):
    connection = http.client.HTTPConnection("127.0.0.1", ports[node],
                                            timeout=15)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        response.read()
        assert response.status == 400
        connection.request("GET", "/healthz")
        follow_up = connection.getresponse()
        follow_up.read()
        assert follow_up.status == 200
    finally:
        connection.close()
