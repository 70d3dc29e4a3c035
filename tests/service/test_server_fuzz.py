"""Raw-socket fuzzing of the HTTP edge (:mod:`repro.service.server`).

Hypothesis builds a connection's worth of requests — pipelined, with
duplicate or conflicting ``Content-Length``, chunked bodies, oversized
request and header lines, unparseable request lines — and sends them
whole or dribbled a few bytes at a time.  The invariant: every byte the server sends parses as
a sequence of well-formed HTTP/1.1 responses, each body exactly its
``Content-Length`` long and each starting right where the previous one
ended (no leftover bytes), answering the requests in order up to the
first one that closes the connection; then the connection closes.

Both fronts are fuzzed: a single-store server (``strict_server``) and
the cluster router over two forked workers (``strict_cluster``), whose
routes answer through the pooled, concurrent shard hop.
"""

from __future__ import annotations

import json
import re
import socket
import time
from typing import List, NamedTuple, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

STATUS_LINE = re.compile(r"HTTP/1\.1 (\d{3}) [^\r\n]*")

#: GET paths over the ``store`` fixture, with the status each answers.
GETS = [
    ("/healthz", 200),
    ("/jobs", 200),
    ("/jobs/alpha", 200),
    ("/jobs/ghost", 404),
    ("/jobs/alpha/query?agg=count", 200),
    ("/nope", 404),
]

PLAN = json.dumps({
    "op": "query", "group_by": ["platform"], "aggs": ["count"],
}).encode("utf-8")

#: Longer than the 65 536 bytes the stdlib reads of one line.
OVERSIZED = b"a" * 70_000


class Sent(NamedTuple):
    """One request's bytes, the status it must get, whether it closes."""

    data: bytes
    status: int
    closes: bool


def head(request_line: str, *headers: str) -> bytes:
    lines = [request_line, "Host: t", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


@st.composite
def sent_requests(draw) -> Sent:
    kind = draw(st.sampled_from([
        "get", "post", "post", "bodied-delete", "conflicting-length",
        "chunked", "oversized-declaration", "long-request-line",
        "long-header-line", "too-many-headers", "garbage-line",
    ]))
    close = draw(st.booleans())
    connection = ("Connection: close",) if close else ()
    if kind == "get":
        path, status = draw(st.sampled_from(GETS))
        return Sent(head(f"GET {path} HTTP/1.1", *connection),
                    status, close)
    if kind == "post":
        body = draw(st.sampled_from([PLAN, b"{not json", b""]))
        copies = draw(st.integers(1, 2))  # A duplicate that agrees.
        lengths = (f"Content-Length: {len(body)}",) * copies
        status = 400 if body == b"{not json" else 200  # b"": defaults.
        return Sent(head("POST /fleet/query HTTP/1.1", *lengths,
                         *connection) + body, status, close)
    if kind == "bodied-delete":
        return Sent(head("DELETE /jobs/alpha HTTP/1.1",
                         "Content-Length: 5", *connection) + b"xxxxx",
                    405, close)
    if kind == "conflicting-length":
        lengths = [f"Content-Length: {len(PLAN)}",
                   f"Content-Length: {len(PLAN) + 1}"]
        if draw(st.booleans()):
            lengths.reverse()
        return Sent(head("POST /fleet/query HTTP/1.1", *lengths) + PLAN,
                    400, True)
    if kind == "chunked":
        extra = draw(st.sampled_from(
            [(), (f"Content-Length: {len(PLAN)}",)]
        ))
        body = b"%X\r\n%s\r\n0\r\n\r\n" % (len(PLAN), PLAN)
        return Sent(head("POST /fleet/query HTTP/1.1",
                         "Transfer-Encoding: chunked", *extra) + body,
                    411, True)
    if kind == "oversized-declaration":
        return Sent(head("POST /fleet/query HTTP/1.1",
                         "Content-Length: 4096"), 413, True)
    if kind == "long-request-line":
        return Sent(b"GET /" + OVERSIZED + b" HTTP/1.1\r\n\r\n", 414, True)
    if kind == "garbage-line":
        line = draw(st.sampled_from(["BOGUS", "GET / HTTX/1.1"]))
        return Sent(head(line), 400, True)
    if kind == "long-header-line":
        return Sent(head("GET /healthz HTTP/1.1",
                         "X-Big: " + OVERSIZED.decode()), 431, True)
    return Sent(head("GET /healthz HTTP/1.1",
                     *(f"X-H{i}: v" for i in range(101))), 431, True)


def parse_responses(data: bytes) -> List[Tuple[int, bytes]]:
    """``(status, body)`` of each response in ``data``; asserts that
    the bytes are nothing but well-formed, length-framed responses."""
    responses = []
    offset = 0
    while offset < len(data):
        end = data.find(b"\r\n\r\n", offset)
        assert end >= 0, f"unterminated head: {data[offset:offset + 80]!r}"
        lines = data[offset:end].decode("latin-1").split("\r\n")
        match = STATUS_LINE.fullmatch(lines[0])
        assert match, f"not a status line: {lines[0][:80]!r}"
        headers = {}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            assert colon and name and name == name.strip(), line
            assert name.lower() not in headers, f"repeated {name}"
            headers[name.lower()] = value.strip()
        assert "transfer-encoding" not in headers
        length = int(headers["content-length"])
        body = data[end + 4:end + 4 + length]
        assert len(body) == length, "body shorter than its Content-Length"
        if headers["content-type"] == "application/json" and body:
            json.loads(body)
        responses.append((int(match.group(1)), body))
        offset = end + 4 + length
    return responses


def exchange(server, data: bytes, piece: int = 0,
             pause: float = 0.0) -> bytes:
    """Send ``data`` (in ``piece``-byte dribbles when ``piece``), half-
    close, and read until the server closes the connection."""
    host, port = server.server_address[:2]
    received = []
    with socket.create_connection((host, port), timeout=10) as sock:
        try:
            if piece:
                for start in range(0, len(data), piece):
                    sock.sendall(data[start:start + piece])
                    time.sleep(pause)
            else:
                sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # The server closed first; read what it sent.
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received.append(chunk)
        except ConnectionResetError:
            pass  # Closed over unread request bytes: a reset, after the data.
    return b"".join(received)


def expected_statuses(requests: List[Sent]) -> List[int]:
    statuses = []
    for request in requests:
        statuses.append(request.status)
        if request.closes:
            break
    return statuses


def assert_framed(server, requests: List[Sent], dribble: int,
                  pause: float) -> None:
    data = b"".join(request.data for request in requests)
    if len(data) > 8192:
        dribble = 0  # Oversized lines go whole.
    received = exchange(server, data, dribble, pause)
    statuses = [status for status, _ in parse_responses(received)]
    assert statuses == expected_statuses(requests)


def assert_stall_dropped(server) -> None:
    # Slow-loris: one whole request, then a header that never ends.
    # The answered request's response arrives intact; the stall is
    # dropped at the 1 s request timeout without a partial response.
    host, port = server.server_address[:2]
    started = time.monotonic()
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(head("GET /healthz HTTP/1.1"))
        for byte in b"GET /jobs HTTP/1.1\r\nHost: t\r\nX-Slow: ":
            sock.sendall(bytes([byte]))
            time.sleep(0.005)
        received = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received.append(chunk)
    elapsed = time.monotonic() - started
    assert [s for s, _ in parse_responses(b"".join(received))] == [200]
    assert elapsed < 5.0


FUZZ = dict(
    requests=st.lists(sent_requests(), min_size=1, max_size=5),
    dribble=st.sampled_from([0, 1, 7, 64]),
    pause=st.sampled_from([0.0, 0.001]),
)
FUZZ_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ_SETTINGS
@given(**FUZZ)
def test_responses_stay_framed(strict_server, requests, dribble, pause):
    assert_framed(strict_server, requests, dribble, pause)


def test_stalled_header_closes_after_answered_requests(strict_server):
    assert_stall_dropped(strict_server)


@FUZZ_SETTINGS
@given(**FUZZ)
def test_router_responses_stay_framed(strict_cluster, requests, dribble,
                                      pause):
    assert_framed(strict_cluster, requests, dribble, pause)


def test_router_stalled_header_closes_after_answered_requests(
    strict_cluster,
):
    assert_stall_dropped(strict_cluster)
