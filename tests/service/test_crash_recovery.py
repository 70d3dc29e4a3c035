"""Crash recovery: SIGKILL a serving process mid-burst, lose nothing.

The durability contract under test: every ``POST /jobs`` answered with
``202 Accepted`` was WAL-appended and fsync'd before the response went
out, so a ``kill -9`` at any point afterwards — including between the
store save and the WAL ack — must leave the store, after a restart and
replay, with exactly the acknowledged jobs and an index equal to a
fresh rebuild that compacts to the rebuild's bytes.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.core.archive.serialize import archive_to_json
from repro.core.archive.store import ArchiveStore

from tests.conftest import assert_index_is_rebuild, folded_index
from tests.service.conftest import make_archive

REPO_ROOT = Path(__file__).resolve().parents[2]
BANNER_RE = re.compile(r"(http://[\d.]+:\d+)")
STARTUP_TIMEOUT = 30.0


def spawn_server(store_dir: Path, *extra_args: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         str(store_dir), "--port", "0", *extra_args],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_for_banner(process: subprocess.Popen) -> str:
    deadline = time.monotonic() + STARTUP_TIMEOUT
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited early (code {process.poll()})"
            )
        match = BANNER_RE.search(line)
        if match:
            return match.group(1)
    raise AssertionError("no startup banner within timeout")


def fetch_json(base: str, path: str):
    request = urllib.request.Request(f"{base}{path}")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if predicate():
                return
        except (OSError, urllib.error.URLError):
            pass
        time.sleep(0.1)
    raise AssertionError(message)


def post_job(base: str, payload: bytes):
    request = urllib.request.Request(
        f"{base}/jobs", data=payload, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestSigkillRecovery:
    def test_acked_jobs_survive_kill_dash_nine(self, tmp_path):
        store_dir = tmp_path / "store"
        store = ArchiveStore(store_dir)
        store.save(make_archive("seed"))

        # Throttle WAL acks so the kill reliably lands while acked-but-
        # undrained records sit in the WAL (the replay-critical window).
        plan_path = tmp_path / "chaos.json"
        plan_path.write_text(json.dumps({
            "events": [{"type": "latency", "op": "ack",
                        "delay_s": 0.2, "after": 0, "count": 10000}],
        }))

        process = spawn_server(store_dir, "--chaos", str(plan_path))
        acked = []
        try:
            base = wait_for_banner(process)
            wait_until(
                lambda: fetch_json(base, "/healthz")[0] == 200,
                STARTUP_TIMEOUT, "/healthz never answered",
            )
            for i in range(10):
                payload = archive_to_json(
                    make_archive(f"burst-{i:02d}")
                ).encode("utf-8")
                try:
                    status, document = post_job(base, payload)
                except (urllib.error.URLError, ConnectionError):
                    break  # Server already gone; stop the burst.
                if status == 202:
                    acked.append((f"burst-{i:02d}",
                                  document["tracking_id"]))
        finally:
            process.kill()  # SIGKILL: no drain, no WAL acks, no cleanup.
            process.wait(timeout=10)

        assert len(acked) == 10  # The burst fit well under capacity.
        wal_segments = list((store_dir / ".wal").glob("segment-*.wal"))
        assert wal_segments, "kill -9 must leave the WAL behind"

        # Restart over the same store, chaos disarmed: startup replay
        # must land every acknowledged job.
        process = spawn_server(store_dir)
        try:
            base = wait_for_banner(process)
            wait_until(
                lambda: fetch_json(base, "/healthz")[0] == 200,
                STARTUP_TIMEOUT, "/healthz never answered after restart",
            )
            wait_until(
                lambda: fetch_json(
                    base, "/healthz")[1]["writes"]["wal_lag"] == 0,
                STARTUP_TIMEOUT, "WAL never fully drained after restart",
            )

            _status, metrics = fetch_json(base, "/metrics")
            assert metrics["ingest"]["counters"]["replayed"] >= 1

            _status, listing = fetch_json(base, "/jobs?limit=500")
            job_ids = [job["job_id"] for job in listing["jobs"]]
            for job_id, _tracking in acked:
                assert job_ids.count(job_id) == 1
            assert job_ids.count("seed") == 1
            assert len(job_ids) == len(set(job_ids))

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

        # The recovered index must be a fresh rebuild over the
        # same archive files, and compact to the rebuild's exact bytes.
        assert_index_is_rebuild(store_dir, folded_index(store_dir))
