"""Live SSE streaming: service endpoint, real server, and router proxy."""

from __future__ import annotations

import io
import json
import socket
import threading
import time
import urllib.request

import pytest

from repro import logformat
from repro.core.archive.serialize import archive_to_json
from repro.core.monitor.live import (
    LiveJobRegistry,
    iter_sse_events,
)
from repro.core.monitor.salvage import salvage_archive
from repro.service.app import ArchiveService, StreamingResponse
from repro.service.router import ClusterService, ShardPool
from repro.service.server import create_server

from tests.service.test_router import FakeSupervisor


def line(ts, event, uid, job, **extra):
    fields = {"ts": str(ts), "job": job, "event": event, "uid": uid}
    fields.update({k: str(v) for k, v in extra.items()})
    return logformat.format_line(fields)


def job_log(job):
    return [
        line(0.0, "start", "j", job, parent="-", mission="GiraphJob",
             actor="GiraphClient"),
        line(1.0, "start", "a", job, parent="j", mission="Startup",
             actor="Master"),
        line(5.0, "end", "a", job),
        line(5.0, "start", "b", job, parent="j", mission="LoadGraph",
             actor="Worker-1"),
        line(9.0, "end", "b", job),
        line(10.0, "end", "j", job),
    ]


def drain_stream(response: StreamingResponse):
    """Consume a StreamingResponse into parsed SSE events."""
    assert isinstance(response, StreamingResponse)
    assert response.content_type == "text/event-stream"
    payload = b"".join(response.chunks)
    return list(iter_sse_events(io.BytesIO(payload)))


class TestStoredStream:
    """A job without a live monitor degrades to a one-snapshot stream."""

    def test_stored_stream_is_byte_identical(self, service, store):
        response = service.handle("/jobs/alpha/live")
        events = drain_stream(response)
        assert [e.event for e in events] == ["snapshot", "complete"]
        assert events[0].event_id == 1
        assert events[0].data == store.handle("alpha").path.read_bytes()
        payload = json.loads(events[1].data)
        assert payload == {
            "job_id": "alpha", "final_seq": 1, "error": None,
        }

    def test_last_event_id_skips_delivered_snapshot(self, service):
        response = service.handle(
            "/jobs/alpha/live", headers={"Last-Event-ID": "1"}
        )
        events = drain_stream(response)
        assert [e.event for e in events] == ["complete"]

    def test_query_param_fallback_for_resume(self, service):
        response = service.handle(
            "/jobs/alpha/live", params={"last_event_id": "1"}
        )
        assert [e.event for e in drain_stream(response)] == ["complete"]

    def test_malformed_resume_id_means_from_start(self, service):
        response = service.handle(
            "/jobs/alpha/live", headers={"Last-Event-ID": "bogus"}
        )
        events = drain_stream(response)
        assert [e.event for e in events] == ["snapshot", "complete"]

    def test_unknown_job_is_404(self, service):
        response = service.handle("/jobs/nope/live")
        assert response.status == 404

    def test_unsafe_id_is_400(self, service):
        response = service.handle("/jobs/..%2fetc/live")
        assert response.status == 400

    def test_live_requests_land_in_metrics(self, service):
        service.handle("/jobs/alpha/live")
        snapshot = service.metrics.snapshot({})
        assert "/jobs/{id}/live" in json.dumps(snapshot)


@pytest.fixture()
def live_server(store):
    registry = LiveJobRegistry()
    server = create_server(
        store, port=0, cache_size=8, live=registry, live_heartbeat=0.05,
    )
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05),
        daemon=True,
    )
    thread.start()
    yield server, registry
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def open_stream(server, path, headers=None):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", headers=headers or {}
    )
    return urllib.request.urlopen(request, timeout=10)


class TestLiveStreamOverHTTP:
    def test_snapshots_stream_monotonic_then_complete(self, live_server):
        server, registry = live_server
        monitor = registry.open("run1", platform="Giraph")
        log = job_log("run1")
        archive, _ = salvage_archive(log, platform="Giraph")

        def produce():
            for i in range(len(log)):
                monitor.feed([log[i]])
                time.sleep(0.02)
            monitor.complete(archive)

        producer = threading.Thread(target=produce)
        producer.start()
        events = []
        with open_stream(server, "/jobs/run1/live") as reply:
            assert reply.headers["Content-Type"] == "text/event-stream"
            assert reply.headers["Cache-Control"] == "no-store"
            for event in iter_sse_events(reply):
                events.append(event)
                if event.event == "complete":
                    break
        producer.join(10)

        snapshots = [e for e in events if e.event == "snapshot"]
        assert snapshots, "no snapshots streamed"
        ids = [e.event_id for e in snapshots]
        assert ids == sorted(set(ids)), "event ids not strictly monotonic"
        assert snapshots[-1].data == archive_to_json(archive).encode("utf-8")
        completes = [e for e in events if e.event == "complete"]
        assert len(completes) == 1
        payload = json.loads(completes[0].data)
        assert payload["job_id"] == "run1"
        assert payload["error"] is None
        assert payload["final_seq"] == ids[-1]

    def test_last_event_id_resume_delivers_only_newer(self, live_server):
        server, registry = live_server
        monitor = registry.open("run2")
        log = job_log("run2")
        monitor.feed(log[:2])
        first = monitor.snapshot()
        monitor.feed(log[2:4])
        monitor.feed(log[4:])
        archive, _ = salvage_archive(log)
        final = monitor.complete(archive)
        assert final.seq > first.seq

        headers = {"Last-Event-ID": str(first.seq)}
        with open_stream(server, "/jobs/run2/live", headers) as reply:
            events = list(iter_sse_events(reply))
        snapshots = [e for e in events if e.event == "snapshot"]
        assert snapshots, "resume delivered nothing"
        assert all(e.event_id > first.seq for e in snapshots)
        assert snapshots[-1].data == final.body
        assert events[-1].event == "complete"

    def test_resume_at_final_seq_gets_only_complete(self, live_server):
        server, registry = live_server
        monitor = registry.open("run3")
        log = job_log("run3")
        monitor.feed(log)
        archive, _ = salvage_archive(log)
        final = monitor.complete(archive)

        headers = {"Last-Event-ID": str(final.seq)}
        with open_stream(server, "/jobs/run3/live", headers) as reply:
            events = list(iter_sse_events(reply))
        assert [e.event for e in events] == ["complete"]

    def test_aborted_run_surfaces_error_in_complete(self, live_server):
        server, registry = live_server
        monitor = registry.open("run4")
        monitor.feed(job_log("run4")[:2])
        monitor.abort("worker exploded")
        with open_stream(server, "/jobs/run4/live") as reply:
            events = list(iter_sse_events(reply))
        assert events[-1].event == "complete"
        assert json.loads(events[-1].data)["error"] == "worker exploded"

    def test_disconnect_mid_stream_releases_accounting(self, live_server):
        server, registry = live_server
        monitor = registry.open("run5")
        monitor.feed(job_log("run5")[:2])
        host, port = server.server_address[:2]
        raw = socket.create_connection((host, port), timeout=10)
        raw.sendall(
            b"GET /jobs/run5/live HTTP/1.1\r\n"
            b"Host: test\r\nAccept: text/event-stream\r\n\r\n"
        )
        # Read until the first snapshot frame is on the wire, proving
        # the stream is established, then vanish without closing it
        # politely.
        got = b""
        while b"event: snapshot" not in got:
            chunk = raw.recv(4096)
            assert chunk, "stream ended before first snapshot"
            got += chunk
        assert registry.active_streams == 1
        raw.close()
        # The server notices on its next heartbeat write and must
        # balance the stream accounting (no leaked monitor threads).
        deadline = time.monotonic() + 10.0
        while registry.active_streams and time.monotonic() < deadline:
            time.sleep(0.05)
        assert registry.active_streams == 0

    def test_stored_job_streams_over_http_too(self, live_server, store):
        server, _registry = live_server
        with open_stream(server, "/jobs/alpha/live") as reply:
            events = list(iter_sse_events(reply))
        assert [e.event for e in events] == ["snapshot", "complete"]
        assert events[0].data == store.handle("alpha").path.read_bytes()

    def test_live_endpoint_counted_in_metrics(self, live_server):
        server, _registry = live_server
        with open_stream(server, "/jobs/alpha/live") as reply:
            list(iter_sse_events(reply))
        with open_stream(server, "/metrics") as reply:
            body = reply.read().decode("utf-8")
        assert "/jobs/{id}/live" in body


class TestRouterStreaming:
    def _cluster_with(self, tmp_path, transport):
        supervisor = FakeSupervisor(1)
        return ClusterService(supervisor, transport=transport)

    def test_fake_transport_stream_passes_through(self, tmp_path, store):
        service = ArchiveService(store)

        def transport(base, path, params, headers, method, body, timeout):
            return service.handle(
                path, params, headers, method=method, body=body
            )

        cluster = self._cluster_with(tmp_path, transport)
        response = cluster.handle("/jobs/alpha/live")
        events = drain_stream(response)
        assert [e.event for e in events] == ["snapshot", "complete"]
        assert events[0].data == store.handle("alpha").path.read_bytes()

    def test_http_transport_relays_live_stream(self, live_server, store):
        server, registry = live_server
        monitor = registry.open("run6")
        log = job_log("run6")
        monitor.feed(log[:2])
        archive, _ = salvage_archive(log)

        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"

        def finish():
            time.sleep(0.1)
            monitor.feed(log[2:])
            monitor.complete(archive)

        finisher = threading.Thread(target=finish)
        finisher.start()
        pool = ShardPool()
        response = pool(
            base, "/jobs/run6/live", {}, {}, "GET", b"", 10.0,
        )
        assert isinstance(response, StreamingResponse)
        events = drain_stream(response)
        finisher.join(10)
        snapshots = [e for e in events if e.event == "snapshot"]
        assert snapshots[-1].data == archive_to_json(archive).encode("utf-8")
        assert events[-1].event == "complete"
        # A relayed stream's connection is never handed back for reuse.
        assert pool.idle(base) == 0

    def test_http_transport_forwards_last_event_id(self, live_server):
        server, registry = live_server
        monitor = registry.open("run7")
        log = job_log("run7")
        monitor.feed(log)
        archive, _ = salvage_archive(log)
        final = monitor.complete(archive)

        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        response = ShardPool()(
            base, "/jobs/run7/live", {},
            {"Last-Event-ID": str(final.seq)}, "GET", b"", 10.0,
        )
        events = drain_stream(response)
        assert [e.event for e in events] == ["complete"]


class TestWatchCli:
    def test_watch_follows_stream_to_completion(self, live_server, capsys):
        from repro.cli import main as granula_main

        server, registry = live_server
        monitor = registry.open("run8")
        log = job_log("run8")
        archive, _ = salvage_archive(log)

        def produce():
            monitor.replay(log, chunks=3, delay=0.05)
            monitor.complete(archive)

        producer = threading.Thread(target=produce)
        producer.start()
        host, port = server.server_address[:2]
        code = granula_main([
            "watch", f"http://{host}:{port}/jobs/run8/live",
            "--timeout", "30",
        ])
        producer.join(10)
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot" in out
        assert "complete" in out
