"""End-to-end tests over a real ThreadingHTTPServer."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.archive.serialize import archive_to_json
from repro.errors import ServiceError
from repro.service.server import ArchiveRequestHandler, create_server

from tests.service.conftest import make_archive


@pytest.fixture()
def server(store):
    server = create_server(store, port=0, cache_size=8)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05),
        daemon=True,
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    if server.service.ingest is not None:
        server.service.ingest.drain_and_stop(timeout=10.0)
    thread.join(timeout=10)
    assert not thread.is_alive()


def fetch(server, path, headers=None):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestHTTP:
    def test_healthz(self, server):
        status, _headers, body = fetch(server, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_jobs_roundtrip(self, server):
        status, _headers, body = fetch(server, "/jobs?platform=Giraph")
        assert status == 200
        document = json.loads(body)
        assert [j["job_id"] for j in document["jobs"]] == ["alpha", "gamma"]

    def test_query_over_http(self, server):
        status, _headers, body = fetch(
            server,
            "/jobs/alpha/query?mission=Superstep&agg=mean",
        )
        assert status == 200
        assert json.loads(body)["result"] == 2.0

    def test_conditional_get_304(self, server):
        status, headers, _body = fetch(server, "/jobs/alpha")
        assert status == 200
        etag = headers["ETag"]
        status, headers, body = fetch(
            server, "/jobs/alpha", headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_missing_job_404_and_unsafe_400(self, server):
        assert fetch(server, "/jobs/ghost")[0] == 404
        assert fetch(server, "/jobs/..")[0] == 400

    def test_report_html(self, server):
        status, headers, body = fetch(
            server, "/jobs/alpha/report?format=html"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert b"<svg" in body

    def test_delete_method_rejected(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/jobs/alpha", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405

    def test_head_request(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/jobs", method="HEAD"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.read() == b""

    def test_concurrent_clients(self, server):
        paths = [
            "/jobs",
            "/jobs/alpha",
            "/jobs/beta/query?agg=count",
            "/jobs/gamma/report",
            "/healthz",
        ]
        results: list = []
        errors: list = []

        def client(worker: int) -> None:
            try:
                for i in range(10):
                    path = paths[(worker + i) % len(paths)]
                    status, _headers, _body = fetch(server, path)
                    results.append(status)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert len(results) == 80
        assert set(results) == {200}

    def test_serves_archives_written_while_running(self, server, store):
        store.save(make_archive("late"))
        status, _headers, body = fetch(server, "/jobs/late")
        assert status == 200
        assert json.loads(body)["job_id"] == "late"

    def test_metrics_over_http(self, server):
        fetch(server, "/jobs")
        status, _headers, body = fetch(server, "/metrics")
        assert status == 200
        document = json.loads(body)
        assert document["requests_total"] >= 1
        assert "cache" in document


def raw_request(server, data: bytes, timeout: float = 10.0) -> bytes:
    """Speak raw HTTP so we can violate the protocol on purpose."""
    host, port = server.server_address[:2]
    chunks = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(data)
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
    return b"".join(chunks)


class CountingSocket:
    """A connection proxy recording every write the handler makes."""

    def __init__(self, sock):
        self._sock = sock
        self.writes: list = []

    def sendall(self, data, *args):
        self.writes.append(bytes(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self.writes.append(bytes(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def counted_connections(monkeypatch):
    """Every accepted connection, wrapped before the handler's setup."""
    connections: list = []
    original = ArchiveRequestHandler.setup

    def setup(handler):
        handler.request = CountingSocket(handler.request)
        connections.append(handler.request)
        original(handler)

    monkeypatch.setattr(ArchiveRequestHandler, "setup", setup)
    return connections


class TestTransport:
    """One send per response on a ``TCP_NODELAY`` socket: a response
    split into headers and body waits ~40 ms per request for the
    client's delayed ACK (Nagle's algorithm)."""

    def test_each_response_is_one_write(self, server, counted_connections):
        etag = fetch(server, "/jobs/alpha")[1]["ETag"]
        archive = archive_to_json(make_archive("posted")).encode("utf-8")
        requests = {
            200: b"GET /jobs/alpha HTTP/1.1\r\nHost: t\r\n",
            304: (b"GET /jobs/alpha HTTP/1.1\r\nHost: t\r\n"
                  b"If-None-Match: " + etag.encode() + b"\r\n"),
            404: b"GET /jobs/ghost HTTP/1.1\r\nHost: t\r\n",
            202: (b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                  b"Content-Length: %d\r\n" % len(archive)),
        }
        for status, head in requests.items():
            body = archive if status == 202 else b""
            response = raw_request(
                server, head + b"Connection: close\r\n\r\n" + body
            )
            assert response.startswith(b"HTTP/1.1 %d " % status)
            assert counted_connections[-1].writes == [response]

    def test_accepted_socket_sets_nodelay(self, server, counted_connections):
        host, port = server.server_address[:2]
        client = http.client.HTTPConnection(host, port, timeout=10)
        try:
            client.request("GET", "/healthz")
            assert client.getresponse().read()
            # The connection is still open: the handler awaits the next
            # request on it.
            accepted = counted_connections[-1]
            assert accepted.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ) != 0
        finally:
            client.close()

    def test_keepalive_requests_do_not_stall(self, server):
        host, port = server.server_address[:2]
        client = http.client.HTTPConnection(host, port, timeout=10)
        try:
            client.request("GET", "/jobs/alpha")  # Warm the cache.
            client.getresponse().read()
            started = time.monotonic()
            for _ in range(40):
                client.request("GET", "/jobs/alpha")
                response = client.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.monotonic() - started
        finally:
            client.close()
        # Two sends per response cost ~44 ms each here (~1.8 s).
        assert elapsed < 0.8


class TestWritePath:
    def test_post_archive_roundtrip(self, server):
        host, port = server.server_address[:2]
        payload = archive_to_json(make_archive("posted")).encode("utf-8")
        request = urllib.request.Request(
            f"http://{host}:{port}/jobs", data=payload, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 202
            tracking = json.loads(response.read())
        deadline = time.monotonic() + 10.0
        state = "pending"
        while time.monotonic() < deadline and state == "pending":
            state = json.loads(fetch(
                server, tracking["status_url"])[2])["state"]
            time.sleep(0.02)
        assert state == "ingested"
        assert fetch(server, "/jobs/posted")[0] == 200


class TestRequestHygiene:
    def test_missing_content_length_is_411(self, strict_server):
        response = raw_request(
            strict_server,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 411")

    def test_malformed_content_length_is_400(self, strict_server):
        response = raw_request(
            strict_server,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: banana\r\nConnection: close\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400")

    def test_oversized_declaration_is_413_before_body(self, strict_server):
        # Declare far more than the cap but send nothing: the server
        # must refuse from the header alone instead of reading.
        response = raw_request(
            strict_server,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 1000000\r\nConnection: close\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 413")

    def test_stalled_body_times_out_with_408(self, strict_server):
        # Send 3 of 10 promised bytes, then stall: the 1s request
        # timeout must reclaim the thread and answer 408.
        started = time.monotonic()
        response = raw_request(
            strict_server,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 10\r\nConnection: close\r\n\r\nabc",
        )
        elapsed = time.monotonic() - started
        assert response.startswith(b"HTTP/1.1 408")
        assert elapsed < 8.0  # Reclaimed by the timeout, not by recv EOF.

    def test_pipelined_delete_with_body_stays_framed(self, server):
        # A bodied DELETE on a keep-alive connection: its declared body
        # must be drained, or the body bytes get parsed as the next
        # request line and every later response answers the wrong
        # request (request desynchronization).
        import re

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"DELETE /jobs/alpha HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 16\r\n\r\n"
                b"0123456789abcdef"  # body a handler never reads
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\n\r\n"
            )
            data = b""
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            except socket.timeout:
                pass
        statuses = re.findall(rb"HTTP/1\.1 (\d{3})", data)
        # First response rejects the DELETE; the second must answer
        # the pipelined /healthz, not the drained body bytes.
        assert statuses == [b"405", b"200"]
        assert b'"status": "ok"' in data

    def test_get_with_body_drained_too(self, server):
        # Same desync guard for GET, whose body no handler ever reads.
        import re

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 5\r\n\r\n"
                b"xxxxx"
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\n\r\n"
            )
            data = b""
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            except socket.timeout:
                pass
        assert re.findall(rb"HTTP/1\.1 (\d{3})", data) == [b"200", b"200"]

    def test_partial_write_closes_connection(self, server):
        # A client that vanishes mid-response leaves a half-written
        # socket; reusing it would prefix the next response with the
        # remainder.  The handler must mark the connection closed.
        from repro.service.app import Response
        from repro.service.server import ArchiveRequestHandler

        class GoneClient:
            def write(self, data):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        handler = ArchiveRequestHandler.__new__(ArchiveRequestHandler)
        handler.request_version = "HTTP/1.1"
        handler.command = "GET"
        handler.requestline = "GET /jobs/alpha HTTP/1.1"
        handler.client_address = ("127.0.0.1", 1)
        handler.close_connection = False
        handler.wfile = GoneClient()
        handler._write(
            Response(200, b"body bytes"), include_body=True
        )
        assert handler.close_connection is True

    def test_stalled_request_line_does_not_pin_thread(self, strict_server):
        # A client that connects and never sends anything must be
        # dropped by the socket timeout; the server stays responsive.
        host, port = strict_server.server_address[:2]
        idle = socket.create_connection((host, port), timeout=10)
        try:
            time.sleep(1.2)  # Past the 1s request timeout.
            assert fetch(strict_server, "/healthz")[0] == 200
        finally:
            idle.close()


class TestCreateServer:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            create_server(tmp_path / "nope")

    def test_accepts_directory_path(self, tmp_path, store):
        server = create_server(str(store.directory), port=0)
        try:
            thread = threading.Thread(
                target=lambda: server.serve_forever(poll_interval=0.05),
                daemon=True,
            )
            thread.start()
            assert fetch(server, "/healthz")[0] == 200
        finally:
            server.shutdown()
            server.server_close()
