"""Fleet scans verify exactly the sidecar columns their plan reads.

A fresh ``.gcol`` carries one SHA-256 per column beside the whole data
region's.  A point query still verifies the whole region and checks
every column at open; a fleet scan opens each sidecar per column, so a
column is hashed and checked on its first read.  A job is degraded (read
from its JSON, reported in ``degraded_jobs``) when a column its plan
reads is damaged — and only then — while its answer never moves, and
``validate_sidecar`` still reports damage no plan reads.  Nothing
survives a scan: a second scan after new damage sees it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from collections import defaultdict
from pathlib import Path
from typing import Dict, Set, Tuple
from unittest import mock

import pytest

from repro.core.analysis.fleet import run_fleet_query
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.columnar import (
    SidecarError,
    _ColumnTable,
    load_sidecar,
    read_sidecar_header,
)
from repro.core.archive.integrity import validate_sidecar
from repro.core.archive.store import ArchiveStore
from tests.core.query_reference import reference_fleet_query
from tests.core.test_columnar import patched
from tests.service.conftest import make_archive

#: ``service_direct``'s plan: it reads the four timestamp columns.
COUNT_PLAN = FleetPlan.from_params(
    {"group_by": "platform", "agg": "count,p95"})
COUNT_COLUMNS = {"start", "end", "start_kind", "end_kind"}
#: Reads the tree and the mission dictionary too (filter, top paths).
MISSION_PLAN = FleetPlan.from_params(
    {"group_by": "platform", "agg": "sum,top2", "mission": "Superstep"})
#: Reads the info columns of one key.
INFO_PLAN = FleetPlan.from_params(
    {"group_by": "platform", "agg": "sum,max", "metric": "BytesRead"})


# -- sidecar byte helpers (shared with the v1 golden and property tests) ------


def _header(payload: bytes) -> Tuple[Dict, int]:
    """(JSON header, data offset) of sidecar bytes."""
    header_len = struct.unpack_from("<I", payload, 8)[0]
    header = json.loads(payload[16:16 + header_len])
    return header, (16 + header_len + 63) // 64 * 64


def column_spans(path: Path) -> Dict[str, Tuple[int, int]]:
    """Column name -> (file offset, nbytes) of a sidecar's columns."""
    header, data_offset = _header(Path(path).read_bytes())
    return {name: (data_offset + int(entry["offset"]), int(entry["nbytes"]))
            for name, entry in header["columns"].items()}


def data_region(path: Path) -> Tuple[int, int]:
    """[start, end) file offsets of a sidecar's data region."""
    payload = Path(path).read_bytes()
    return _header(payload)[1], len(payload)


def flip(path: Path, offset: int, mask: int = 0xFF) -> None:
    """XOR one byte of a file in place."""
    raw = bytearray(Path(path).read_bytes())
    raw[offset] ^= mask
    Path(path).write_bytes(bytes(raw))


def strip_column_digests(payload: bytes) -> bytes:
    """The same sidecar without ``column_sha256``: how every sidecar
    written before per-column digests looks."""
    header, data_offset = _header(payload)
    assert "column_sha256" in header
    del header["column_sha256"]
    text = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    start = (16 + len(text) + 63) // 64 * 64
    out = bytearray(payload[:16])
    struct.pack_into("<I", out, 8, len(text))
    out += text + bytes(start - 16 - len(text))
    return bytes(out + payload[data_offset:])


def rebound(payload: bytes, name: str, row: int, value: int) -> bytes:
    """``patched`` bytes with the column's digest re-bound too: the file
    passes every checksum, only the column's *contents* are wrong."""
    out = patched(payload, name, row, value)
    header, data_offset = _header(out)
    entry = header["columns"][name]
    start = data_offset + entry["offset"]
    digests = bytearray(base64.b64decode(header["column_sha256"]))
    at = 32 * list(header["columns"]).index(name)
    digests[at:at + 32] = hashlib.sha256(
        out[start:start + entry["nbytes"]]).digest()
    return out.replace(header["column_sha256"].encode(),
                       base64.b64encode(bytes(digests)))


def columns_read(store: ArchiveStore, plan: FleetPlan) -> Dict[str, Set[str]]:
    """Per job id, the sidecar columns a scan of ``plan`` reads."""
    seen: Dict[str, Set[str]] = defaultdict(set)
    original = _ColumnTable.column

    def column(self, name):
        seen[self.archive_checksum].add(name)
        return original(self, name)

    with mock.patch.object(_ColumnTable, "column", column):
        run_fleet_query(store, plan)
    return {job_id: seen[store.checksum(job_id)] for job_id in store.list()}


# -- tests --------------------------------------------------------------------


@pytest.fixture()
def store(tmp_path) -> ArchiveStore:
    store = ArchiveStore(tmp_path / "fleet")
    store.save(make_archive("alpha", platform="Giraph", supersteps=3))
    store.save(make_archive("beta", platform="Giraph", supersteps=5))
    store.save(make_archive("gamma", platform="PowerGraph", supersteps=4))
    return store


def answers(store: ArchiveStore, plan: FleetPlan) -> Dict:
    """The scan's document; asserts its values equal the reference's."""
    document = run_fleet_query(store, plan)
    assert document["jobs_failed"] == 0
    assert dict(document, degraded_jobs=[]) == \
        reference_fleet_query(store, plan)
    return document


def flip_column(store: ArchiveStore, job_id: str, name: str) -> Path:
    side = store.sidecar_path(job_id)
    offset, nbytes = column_spans(side)[name]
    assert nbytes
    flip(side, offset + nbytes // 2)
    return side


class TestPerColumnDigests:
    def test_fresh_sidecars_carry_one_digest_per_column(self, store):
        side = store.sidecar_path("alpha")
        header = read_sidecar_header(side)
        digests = base64.b64decode(header["column_sha256"])
        raw = side.read_bytes()
        spans = column_spans(side)
        assert len(digests) == 32 * len(spans)
        for i, (offset, nbytes) in enumerate(spans.values()):
            assert digests[32 * i:32 * i + 32] == \
                hashlib.sha256(raw[offset:offset + nbytes]).digest()

    def test_count_plan_reads_only_the_timestamps(self, store):
        assert columns_read(store, COUNT_PLAN) == {
            job_id: COUNT_COLUMNS for job_id in store.list()}


class TestFleetVerification:
    def test_flip_in_a_read_column_degrades_the_job(self, store, caplog):
        flip_column(store, "beta", "end")
        with caplog.at_level("WARNING"):
            assert answers(store, COUNT_PLAN)["degraded_jobs"] == ["beta"]
        assert "'end'" in caplog.text and "falling back" in caplog.text

    @pytest.mark.parametrize("name", ["uid_heap", "info_value_heap",
                                      "actor_codes", "parent"])
    def test_flip_in_an_unread_column_degrades_nothing(self, store, name):
        side = flip_column(store, "beta", name)
        assert answers(store, COUNT_PLAN)["degraded_jobs"] == []
        # A point query still verifies the whole region ...
        assert store.columnar_view("beta") is None
        # ... and validation still sees the damage, naming the column.
        findings = validate_sidecar(store.handle("beta").path)
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert f"damaged column(s): {name}" in findings[0].detail
        assert side.exists()

    @pytest.mark.parametrize("plan, name", [
        (MISSION_PLAN, "mission_codes"), (MISSION_PLAN, "parent"),
        (MISSION_PLAN, "mission_dict_heap"), (INFO_PLAN, "info_num"),
        (INFO_PLAN, "info_op"), (INFO_PLAN, "info_key_codes"),
    ])
    def test_each_plan_degrades_on_the_columns_it_reads(self, store, plan,
                                                        name):
        assert name in columns_read(store, plan)["gamma"]
        flip_column(store, "gamma", name)
        assert answers(store, plan)["degraded_jobs"] == ["gamma"]

    def test_no_state_survives_a_scan(self, store):
        assert answers(store, COUNT_PLAN)["degraded_jobs"] == []
        side = flip_column(store, "alpha", "start")
        assert answers(store, COUNT_PLAN)["degraded_jobs"] == ["alpha"]
        flip(side, column_spans(side)["start"][0]
             + column_spans(side)["start"][1] // 2)
        assert answers(store, COUNT_PLAN)["degraded_jobs"] == []

    def test_a_missing_sidecar_degrades_without_a_warning(self, store,
                                                          caplog):
        store.sidecar_path("gamma").unlink()
        with caplog.at_level("WARNING"):
            assert answers(store, COUNT_PLAN)["degraded_jobs"] == ["gamma"]
        assert caplog.text == ""


class TestCraftedColumns:
    """``TestMalformedColumns``' crafted files with their column digest
    re-bound too: the per-column open accepts them, the first read of
    the crafted column rejects them, and the fleet degrades the job."""

    CASES = [
        ("parent", 2, 5, "pre-order", MISSION_PLAN),
        ("parent", 2, 2, "pre-order", MISSION_PLAN),
        ("info_op", 0, -1, "info_op", INFO_PLAN),
        ("info_op", 0, 10 ** 6, "info_op", INFO_PLAN),
        ("mission_codes", -1, 99, "dictionary", MISSION_PLAN),
        ("mission_codes", -1, -1, "dictionary", MISSION_PLAN),
        ("info_key_codes", 0, 99, "dictionary", INFO_PLAN),
    ]

    @pytest.mark.parametrize("name, row, value, match, plan", CASES)
    def test_crafted_column_is_rejected_on_read_and_degrades(
        self, store, name, row, value, match, plan,
    ):
        side = store.sidecar_path("beta")
        side.write_bytes(rebound(side.read_bytes(), name, row, value))
        view = load_sidecar(side, lazy=True)
        try:
            with pytest.raises(SidecarError, match=match):
                view._table.column(name)
        finally:
            view.close()
        with pytest.raises(SidecarError, match=match):
            load_sidecar(side)
        assert answers(store, plan)["degraded_jobs"] == ["beta"]
        assert answers(store, COUNT_PLAN)["degraded_jobs"] == []


class TestStrippedDigests:
    """A sidecar without column digests (one written before them) is
    verified whole at open by a fleet scan too."""

    def test_any_flip_in_the_data_region_degrades(self, store):
        side = store.sidecar_path("alpha")
        side.write_bytes(strip_column_digests(side.read_bytes()))
        assert answers(store, COUNT_PLAN)["degraded_jobs"] == []
        flip(side, column_spans(side)["uid_heap"][0])
        assert answers(store, COUNT_PLAN)["degraded_jobs"] == ["alpha"]
