"""HTTP wiring for the archive service.

A thin adapter from :class:`http.server.ThreadingHTTPServer` onto
:class:`repro.service.app.ArchiveService`: one daemon thread per
request, stdlib only.  ``serve()`` blocks until SIGINT/SIGTERM, then
shuts down gracefully — the listener closes, in-flight requests
finish, and the ingestion pipeline (when writes are enabled) drains
its queue so every acknowledged job reaches the store before exit
(anything that cannot drain in time stays safely in the WAL).

Request hygiene (the "no hung threads" rules):

- every connection carries a socket timeout
  (:attr:`ArchiveRequestHandler.timeout`), so a stalled client cannot
  pin a daemon thread forever — a read that times out answers 408 when
  the response line is still writable and drops the connection;
- a ``POST``/``PUT`` must declare ``Content-Length`` (411 otherwise)
  and stay under the configured body cap — an oversized declaration is
  refused with 413 *before* any body byte is read;
- a body whose end is unknowable — transfer-coded (411) or under
  conflicting ``Content-Length`` headers (400) — is refused and the
  connection closed, so its bytes are never parsed as a request.

Transport rule: a response leaves the handler as **one send** — status
line, headers, blank line and body joined into one buffer — on a
socket with ``TCP_NODELAY`` set.  Written as two sends (headers, then
body), the body waits under Nagle's algorithm for the ACK of the
headers, which a keep-alive client delays by ~40 ms: every request on
a persistent connection paid that stall.  Protocol-level rejections
(``send_error``) take the same path; an SSE stream writes its head and
then each chunk once.
"""

from __future__ import annotations

import logging
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs, urlsplit

from repro.core.archive.store import ArchiveStore
from repro.errors import ServiceError
from repro.core.monitor.live import LiveJobRegistry
from repro.service.app import (
    AnyResponse,
    ArchiveService,
    Response,
    StreamingResponse,
    error_response,
)
from repro.service.chaos import ChaosController, ChaosPlan
from repro.service.ingest import IngestPipeline

logger = logging.getLogger(__name__)

#: Default cap on request bodies (archives are a few MB at most).
DEFAULT_MAX_BODY_BYTES = 32 * 1024 * 1024

#: Default per-connection socket timeout in seconds.
DEFAULT_REQUEST_TIMEOUT = 30.0


class ArchiveRequestHandler(BaseHTTPRequestHandler):
    """Adapts one HTTP request onto the service's ``handle()``."""

    server: "ArchiveServer"
    protocol_version = "HTTP/1.1"
    #: Socket timeout for reads on this connection; BaseHTTPRequestHandler
    #: applies it via ``self.connection.settimeout`` in setup().  Stalled
    #: clients (half-sent request line or body) get disconnected instead
    #: of holding a thread and its resources indefinitely.
    timeout = DEFAULT_REQUEST_TIMEOUT
    #: ``TCP_NODELAY`` on every accepted connection (applied by
    #: StreamRequestHandler.setup); see the module's transport rule.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = self.server.request_timeout
        super().setup()

    def _read_body(self, method: str) -> Optional[bytes]:
        """The request body, or None after a rejection was sent.

        Enforced before any body byte is read: a missing length is 411
        (for methods that require a body), a transfer-coded body 411, a
        malformed or conflicting one 400, an oversized one 413.  A
        timeout while the client dribbles the body answers 408.

        A declared body is consumed on **every** method: a bodied
        DELETE/GET on a keep-alive connection would otherwise leave its
        unread body bytes in the socket to be parsed as the next
        request line (request desynchronization).  Methods outside
        POST/PUT have their drained body discarded — no handler reads
        it — but the connection stays framed correctly.
        """
        expects_body = method in ("POST", "PUT")
        # Where the body ends is unknowable for a transfer-coded body
        # (no chunked decoder here) or under conflicting lengths: refuse
        # and close, so the unread bytes are never parsed as a request.
        if self.headers.get("Transfer-Encoding") is not None:
            return self._refuse(
                411, "Transfer-Encoding request bodies are not "
                     "supported; send Content-Length"
            )
        if len(set(self.headers.get_all("Content-Length", ()))) > 1:
            return self._refuse(400, "conflicting Content-Length headers")
        raw = self.headers.get("Content-Length")
        if raw is None:
            if expects_body:
                self._write(error_response(
                    411, "POST requires a Content-Length header"
                ), include_body=True)
                return None
            return b""
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            return self._refuse(400, f"malformed Content-Length {raw!r}")
        if length > self.server.max_body_bytes:
            return self._refuse(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte limit",
            )
        try:
            data = self.rfile.read(length)
        except (TimeoutError, socket.timeout):
            return self._refuse(408, "timed out reading the request body")
        if len(data) < length:
            # Short read (client hung up mid-body): never reuse.
            self.close_connection = True
        return data if expects_body else b""

    def _refuse(self, status: int, message: str) -> None:
        """Answer a request whose body was not (fully) read, and close:
        the next request boundary is unknowable."""
        self._write(error_response(status, message), include_body=True)
        self.close_connection = True

    def _respond(self, method: str) -> None:
        body = self._read_body(method)
        if body is None:
            return
        split = urlsplit(self.path)
        params = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        headers = {key: value for key, value in self.headers.items()}
        try:
            response = self.server.service.handle(
                split.path, params, headers, method=method, body=body
            )
        except Exception:  # noqa: BLE001 - last-resort 500
            logger.exception("unhandled error serving %s", self.path)
            response = Response(
                500, b'{"error": "internal server error"}',
            )
        self._write(response, include_body=method != "HEAD")

    def _write(
        self, response: "AnyResponse", include_body: bool,
    ) -> None:
        if isinstance(response, StreamingResponse):
            self._write_stream(response, include_body)
            return
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self._send_once(response.body if include_body else b"")
        except (BrokenPipeError, ConnectionResetError,
                TimeoutError, socket.timeout):
            # Client went away mid-response.  The socket may hold a
            # half-written response; reusing it would let those bytes
            # prefix the next response, so this connection is done.
            self.close_connection = True

    def _send_once(self, body: bytes) -> None:
        """End the buffered head and write it together with ``body`` in
        a single send (see the module docstring's transport rule)."""
        buffered = getattr(self, "_headers_buffer", [])
        if self.request_version != "HTTP/0.9":
            buffered.append(b"\r\n")
        buffered.append(body)
        self._headers_buffer = []
        self.wfile.write(b"".join(buffered))

    def send_error(self, code, message=None, explain=None) -> None:
        """A protocol-level rejection (oversized request or header line,
        malformed request line, unsupported method): the service's JSON
        error body, one send, then the connection closes.

        The reply always carries a status line — a request line too
        broken to name its version must not be answered with the bare
        body of an HTTP/0.9 response.
        """
        code = int(code)
        if self.request_version == "HTTP/0.9":
            self.request_version = self.protocol_version
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self.log_error("code %d, message %s", code, message)
        response = error_response(code, message)
        response.headers["Connection"] = "close"
        self.close_connection = True
        self._write(response, include_body=self.command != "HEAD")

    def _write_stream(
        self, response: StreamingResponse, include_body: bool,
    ) -> None:
        """Write a :class:`StreamingResponse` as an HTTP/1.1 chunked body.

        The response length is unknowable up front (an SSE stream ends
        when the job does), so the body is chunk-framed and the
        connection is closed afterwards — no attempt to resynchronize
        keep-alive around an aborted stream.  The chunk generator is
        always ``close()``d so its ``finally`` blocks (stream
        accounting) run even on mid-stream disconnects.
        """
        self.close_connection = True
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Connection", "close")
            self.end_headers()
            if include_body:
                for chunk in response.chunks:
                    if not chunk:
                        continue
                    self.wfile.write(
                        b"%X\r\n" % len(chunk) + chunk + b"\r\n"
                    )
                    self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError,
                TimeoutError, socket.timeout):
            pass  # Disconnect mid-stream; close_connection already set.
        finally:
            response.close()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond("GET")

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        self._respond("HEAD")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._respond("POST")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._respond("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._respond("DELETE")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)


class ArchiveServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying its :class:`ArchiveService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        service: ArchiveService,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        super().__init__(address, ArchiveRequestHandler)
        self.service = service
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- what :func:`serve` asks of the thing it serves --------------------

    #: Reported on the way out.
    stopped = "stopped"

    def describe(self) -> str:
        """The startup banner's account of what is being served."""
        ingest = self.service.ingest
        mode = "read-only" if ingest is None else "writable"
        if ingest is not None and ingest.chaos is not None:
            mode += f", chaos plan {ingest.chaos.plan.signature()} armed"
        return (f"{len(self.service.store)} archived job(s) at "
                f"{self.url} ({mode}; Ctrl-C to stop)")

    def begin_stop(self) -> None:
        """On the stop signal, before the listener closes: reject writes
        while we stop."""
        if self.service.ingest is not None:
            self.service.ingest.begin_drain()

    def finish_stop(self) -> None:
        """After the listener closed: drain the ingestion queue."""
        ingest = self.service.ingest
        if ingest is not None and not ingest.drain_and_stop():
            logger.warning(
                "ingestion queue did not fully drain; %d record(s) "
                "remain in the WAL for the next start",
                ingest.wal.lag(),
            )


def create_server(
    store: Union[str, Path, ArchiveStore],
    host: str = "127.0.0.1",
    port: int = 8737,
    cache_size: int = 64,
    writable: bool = True,
    queue_size: int = 256,
    chaos: Optional[Union[ChaosPlan, ChaosController]] = None,
    wal_dir: Optional[Union[str, Path]] = None,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    recover_after: float = 5.0,
    live: Optional[LiveJobRegistry] = None,
    live_heartbeat: Optional[float] = None,
) -> ArchiveServer:
    """Build a ready-to-serve (not yet serving) archive server.

    ``port=0`` binds an ephemeral port — read the actual one off
    ``server.server_address``.  With ``writable=True`` (the default)
    the server carries an :class:`IngestPipeline`: its WAL lives under
    ``wal_dir`` (default ``<store>/.wal``), startup replays any
    unacknowledged records, and ``POST /jobs`` is live.  ``chaos``
    arms a service fault-injection plan.
    """
    if not isinstance(store, ArchiveStore):
        directory = Path(store)
        if not directory.exists():
            raise ServiceError(
                f"archive store directory {directory} does not exist"
            )
        store = ArchiveStore(directory)
    ingest = None
    if writable:
        controller = None
        if isinstance(chaos, ChaosController):
            controller = chaos
        elif isinstance(chaos, ChaosPlan):
            controller = ChaosController(chaos)
        ingest = IngestPipeline(
            store.directory,
            wal_directory=wal_dir,
            capacity=queue_size,
            chaos=controller,
            recover_after=recover_after,
        )
    service_kwargs = {}
    if live_heartbeat is not None:
        service_kwargs["live_heartbeat"] = live_heartbeat
    service = ArchiveService(
        store, cache_size=cache_size, ingest=ingest, live=live,
        **service_kwargs,
    )
    try:
        server = ArchiveServer(
            (host, port), service,
            request_timeout=request_timeout,
            max_body_bytes=max_body_bytes,
        )
    except OSError as exc:
        raise ServiceError(
            f"cannot bind {host}:{port}: {exc}"
        ) from None
    if ingest is not None:
        replayed = ingest.start()
        if replayed:
            logger.info(
                "replayed %d unacknowledged WAL record(s) at startup",
                replayed,
            )
    return server


def serve(server: ArchiveServer, banner: bool = True) -> None:
    """Serve until SIGINT/SIGTERM, then shut down gracefully.

    Shutdown order matters: the server's ``begin_stop`` runs first (a
    writable worker flips to draining, so new POSTs answer 503), the
    listener stops, then ``finish_stop`` runs — a worker drains its
    ingestion queue so every 202-acknowledged job is in the store (or
    still safe in the WAL) when the process exits; a cluster front
    stops its supervisor, which SIGTERMs every shard worker into the
    same drain.

    Signal handlers are only installed when running on the main thread
    (the CLI path); callers embedding the server elsewhere stop it with
    ``server.shutdown()``.
    """

    def request_shutdown(signum, _frame) -> None:
        logger.info("signal %s: shutting down", signum)
        server.begin_stop()
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    on_main = threading.current_thread() is threading.main_thread()
    previous = {}
    if on_main:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, request_shutdown)
    try:
        if banner:
            print(f"granula serve: {server.describe()}")
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    finally:
        server.server_close()
        server.finish_stop()
        if on_main:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        if banner:
            print(f"granula serve: {server.stopped}")


__all__ = [
    "ArchiveRequestHandler",
    "ArchiveServer",
    "create_server",
    "serve",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_REQUEST_TIMEOUT",
]
