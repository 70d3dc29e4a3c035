"""Binary column sidecar (.gcol): write/load, damage detection, fallback.

The sidecar is an accelerator, never the truth: every form of damage —
corruption, truncation, staleness, deletion — must be *detected* (so a
damaged sidecar is never queried) and *survivable* (queries fall back
to the JSON tree path with identical results).
"""

import hashlib
import json
import math
import shutil
import struct

import numpy as np
import pytest

from repro.core.analysis.fleet import run_fleet_query
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.columnar import (
    ColumnarArchiveView,
    SidecarError,
    build_sidecar,
    document_view,
    load_sidecar,
    read_sidecar_header,
)
from repro.core.archive.integrity import validate_sidecar
from repro.core.archive.query import ArchiveQuery
from repro.core.archive.serialize import (
    archive_from_json,
    archive_to_document,
    archive_to_json,
    operations_from_columns,
    parse_document,
    payload_checksum,
)
from repro.core.archive.store import ArchiveStore
from repro.errors import ArchiveError, QueryError
from repro.service.app import ArchiveService

from tests.core.test_archive import make_archive


@pytest.fixture()
def store(tmp_path):
    return ArchiveStore(tmp_path)


@pytest.fixture()
def saved(store):
    archive = make_archive()
    store.save(archive)
    return archive


class TestSidecarWrite:
    def test_save_writes_sidecar_next_to_json(self, store, saved):
        side = store.sidecar_path(saved.job_id)
        assert side.exists()
        assert side.suffix == ".gcol"
        header = read_sidecar_header(side)
        assert header["archive_checksum"] == store.checksum(saved.job_id)

    def test_view_is_checksum_bound(self, store, saved):
        view = store.columnar_view(saved.job_id)
        assert isinstance(view, ColumnarArchiveView)
        assert view.archive_checksum == store.checksum(saved.job_id)
        view.close()

    def test_overwrite_refreshes_sidecar(self, store, saved):
        saved.root.infos["Extra"] = 7.0
        store.save(saved, overwrite=True)
        view = store.columnar_view(saved.job_id)
        assert view is not None
        assert view.values("Extra")[0] == 7.0
        view.close()


class TestQueryIdentity:
    def test_view_matches_tree_battery(self, store, saved):
        view = store.columnar_view(saved.job_id)
        tree = ArchiveQuery(store.load(saved.job_id))
        assert len(view) == len(tree)
        assert view.total("Duration") == tree.total("Duration")
        assert view.durations() == tree.durations()
        sel_v = view.mission("Superstep")
        sel_t = tree.mission("Superstep")
        assert sel_v.values("Duration") == sel_t.values("Duration")
        assert sel_v.mean("Duration") == sel_t.mean("Duration")
        assert (view.actor("Worker").total("BytesRead")
                == tree.actor("Worker").total("BytesRead"))
        assert len(view.path("Job/ProcessGraph/*")) == \
            len(tree.path("Job/ProcessGraph/*"))
        view.close()

    def test_view_reproduces_tree_error_messages(self, store):
        root = ArchivedOperation("u", "Job", "x", 0.0, 1.0,
                                 infos={"Status": "SUCCEEDED"})
        store.save(PerformanceArchive("err-job", root))
        view = store.columnar_view("err-job")
        tree = ArchiveQuery(store.load("err-job"))
        with pytest.raises(QueryError) as tree_exc:
            tree.total("Status")
        with pytest.raises(QueryError) as view_exc:
            view.total("Status")
        assert str(view_exc.value) == str(tree_exc.value)
        with pytest.raises(QueryError) as tree_mean:
            tree.mission("Nope").mean("Duration")
        with pytest.raises(QueryError) as view_mean:
            view.mission("Nope").mean("Duration")
        assert str(view_mean.value) == str(tree_mean.value)
        view.close()

    def test_repeated_info_key_last_write_wins(self, tmp_path):
        columns = dict(archive_to_document(make_archive())["operations"])
        # Operation 4 gets its Duration written twice, operation 0 a
        # Duration between them: the tree decoder keeps each op's last.
        columns["info_op"] = list(columns["info_op"]) + [4, 0, 4]
        columns["info_key"] = list(columns["info_key"]) + [
            "Duration", "Duration", "Duration"]
        columns["info_value"] = list(columns["info_value"]) + [7.5, 1, 9]
        path = tmp_path / "dup.gcol"
        path.write_bytes(build_sidecar(columns, "x"))
        tree = ArchiveQuery(PerformanceArchive(
            "dup", operations_from_columns(columns)))
        view = load_sidecar(path)
        assert view.values("Duration") == tree.values("Duration")
        assert view.values("Duration")[4] == 9
        assert view.total("Duration") == tree.total("Duration")
        view.close()

    def test_literal_infinity_string_survives_sidecar(self, store):
        root = ArchivedOperation(
            "u", "Job", "x", 0.0, 1.0,
            infos={"Label": "Infinity", "Dist": math.inf})
        store.save(PerformanceArchive("inf-job", root))
        view = store.columnar_view("inf-job")
        assert view.values("Label") == ["Infinity"]
        assert view.values("Dist") == [math.inf]
        view.close()


class TestDamageDetection:
    """Satellite: corrupt or missing sidecars are detected, queries
    fall back to JSON, and ``granula validate`` reports a finding."""

    def corrupt(self, store, job_id):
        """Flip one byte inside the sidecar's data region."""
        side = store.sidecar_path(job_id)
        raw = bytearray(side.read_bytes())
        raw[-1] ^= 0xFF
        side.write_bytes(bytes(raw))
        return side

    def test_missing_sidecar_falls_back(self, store, saved):
        store.sidecar_path(saved.job_id).unlink()
        assert store.columnar_view(saved.job_id) is None
        # The JSON is still the truth: queries stay answerable.
        assert ArchiveQuery(store.load(saved.job_id)).total() > 0

    def test_corrupt_sidecar_raises_typed_error(self, store, saved):
        side = self.corrupt(store, saved.job_id)
        with pytest.raises(SidecarError, match="checksum mismatch"):
            load_sidecar(side,
                         expected_checksum=store.checksum(saved.job_id))

    def test_corrupt_sidecar_falls_back(self, store, saved, caplog):
        self.corrupt(store, saved.job_id)
        with caplog.at_level("WARNING"):
            assert store.columnar_view(saved.job_id) is None
        assert "falling back to JSON" in caplog.text
        assert ArchiveQuery(store.load(saved.job_id)).total() > 0

    def test_stale_sidecar_falls_back(self, store, saved, tmp_path):
        side = store.sidecar_path(saved.job_id)
        stale = tmp_path / "stale.gcol"
        shutil.copy(side, stale)
        saved.root.infos["Changed"] = 1.0
        store.save(saved, overwrite=True)
        shutil.copy(stale, side)  # sidecar now from the old bytes
        assert store.columnar_view(saved.job_id) is None
        with pytest.raises(SidecarError, match="stale"):
            load_sidecar(side,
                         expected_checksum=store.checksum(saved.job_id))

    def test_truncated_sidecar_raises_typed_error(self, store, saved):
        side = store.sidecar_path(saved.job_id)
        side.write_bytes(side.read_bytes()[:10])
        with pytest.raises(SidecarError):
            load_sidecar(side)

    def test_validate_sidecar_clean(self, store, saved):
        path = store.handle(saved.job_id).path
        assert validate_sidecar(path) == []

    def test_validate_sidecar_missing_is_not_a_finding(self, store, saved):
        store.sidecar_path(saved.job_id).unlink()
        assert validate_sidecar(store.handle(saved.job_id).path) == []

    def test_validate_sidecar_reports_corruption(self, store, saved):
        self.corrupt(store, saved.job_id)
        findings = validate_sidecar(store.handle(saved.job_id).path)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "sidecar-unusable"
        assert finding.severity == "warning"
        assert "fall back" in finding.detail

    def test_cli_validate_reports_sidecar_finding(self, store, saved,
                                                  capsys):
        from repro.cli import main

        path = str(store.handle(saved.job_id).path)
        assert main(["validate", path]) == 0
        assert "no findings" in capsys.readouterr().out
        self.corrupt(store, saved.job_id)
        # Warning severity: reported, but the exit code stays 0 — the
        # JSON is intact and queries still work.
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "sidecar-unusable" in out
        assert "fall back" in out


def patched(payload, name, row, value):
    """Sidecar bytes with one cell of a column changed, checksum re-bound.

    The data SHA-256 is recomputed and swapped in place (same length),
    so the file passes every integrity check and only the column's
    *contents* are wrong — what a hand-built file can do.
    """
    header_len = struct.unpack_from("<I", payload, 8)[0]
    header = json.loads(payload[16:16 + header_len])
    data_offset = (16 + header_len + 63) // 64 * 64
    entry = header["columns"][name]
    dtype = np.dtype(entry["dtype"])
    out = bytearray(payload)
    column = np.frombuffer(out, dtype=dtype,
                           count=entry["nbytes"] // dtype.itemsize,
                           offset=data_offset + entry["offset"])
    column[row] = value
    digest = hashlib.sha256(bytes(out[data_offset:])).hexdigest()
    return bytes(out).replace(header["data_sha256"].encode(),
                              digest.encode())


class TestMalformedColumns:
    """A checksum-consistent but hand-built sidecar whose rows point
    outside their tables is rejected at load, so the store falls back
    to the tree instead of a query failing (or a parent walk looping)
    later."""

    @pytest.fixture()
    def columns(self):
        return archive_to_document(make_archive())["operations"]

    def load(self, tmp_path, payload):
        path = tmp_path / "crafted.gcol"
        path.write_bytes(payload)
        return load_sidecar(path)

    def test_well_formed_columns_load(self, tmp_path, columns):
        view = self.load(tmp_path, build_sidecar(columns, "x"))
        assert len(view) == columns["count"]
        view.close()

    def test_parent_not_in_pre_order_is_rejected(self, tmp_path, columns):
        parent = list(columns["parent"])
        parent[2] = 5  # A row whose parent comes after it.
        crafted = build_sidecar(dict(columns, parent=parent), "x")
        with pytest.raises(SidecarError, match="pre-order"):
            self.load(tmp_path, crafted)
        parent[2] = 2  # Its own parent: a walk would never end.
        crafted = build_sidecar(dict(columns, parent=parent), "x")
        with pytest.raises(SidecarError, match="pre-order"):
            self.load(tmp_path, crafted)

    @pytest.mark.parametrize("row", [-1, 10 ** 6])
    def test_info_op_outside_rows_is_rejected(self, tmp_path, columns, row):
        info_op = list(columns["info_op"])
        info_op[0] = row
        crafted = build_sidecar(dict(columns, info_op=info_op), "x")
        with pytest.raises(SidecarError, match="info_op"):
            self.load(tmp_path, crafted)

    @pytest.mark.parametrize("name", ["mission", "actor", "info_key"])
    @pytest.mark.parametrize("code", [-1, 99])
    def test_code_outside_dictionary_is_rejected(self, tmp_path, columns,
                                                 name, code):
        crafted = patched(build_sidecar(columns, "x"), f"{name}_codes",
                          -1, code)
        with pytest.raises(SidecarError, match="dictionary"):
            self.load(tmp_path, crafted)

    def test_header_without_row_counts_is_rejected(self, tmp_path, columns):
        payload = build_sidecar(columns, "x")
        crafted = payload.replace(b'"count":', b'"COUNT":', 1)
        assert crafted != payload
        with pytest.raises(SidecarError, match="row counts"):
            self.load(tmp_path, crafted)

    def test_store_falls_back_on_a_crafted_sidecar(self, store, saved):
        document = archive_to_document(saved)
        columns = dict(document["operations"])
        columns["parent"] = [0] * columns["count"]
        store.sidecar_path(saved.job_id).write_bytes(build_sidecar(
            columns, document["integrity"]["checksum"]))
        assert store.columnar_view(saved.job_id) is None



def crafted_text(document, **columns):
    """The document's JSON with some operation columns replaced and its
    checksum re-bound: valid JSON, a valid checksum, bad columns."""
    document = json.loads(json.dumps(document))
    document["operations"].update(columns)
    document["integrity"]["checksum"] = payload_checksum(document)
    return json.dumps(document)


def stored_without_sidecar(store, text):
    """Replace the stored job-x with ``text`` and delete its sidecar."""
    store.save(make_archive(), overwrite=True)
    store.handle("job-x").path.write_text(text)
    store.sidecar_path("job-x").unlink(missing_ok=True)
    return store


class TestDocumentColumns:
    """A job without a sidecar is read from its JSON document's own
    columns, under the checks the tree decoder applies: a crafted
    document is a typed error on every read path, never a quiet
    answer."""

    @pytest.fixture()
    def document(self):
        return archive_to_document(make_archive())

    CRAFTED = {
        "bad-root-parent": lambda c: {"parent": [-5] + c["parent"][1:]},
        "forest-row": lambda c: {
            "parent": c["parent"][:4] + [-1] + c["parent"][5:]},
        "count-mismatch": lambda c: {"count": c["count"] + 1},
        "length-mismatch": lambda c: {"start": c["start"][:-1]},
        "non-list-column": lambda c: {"uid": "".join(c["uid"])},
        "duplicate-uid": lambda c: {"uid": [c["uid"][1]] + c["uid"][1:]},
    }

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_crafted_document_is_a_typed_error_everywhere(
        self, store, document, case,
    ):
        text = crafted_text(document,
                            **self.CRAFTED[case](document["operations"]))
        parsed = parse_document(text)  # The envelope is sound.
        with pytest.raises(ArchiveError) as caught:
            document_view(parsed)
        assert not isinstance(caught.value, QueryError)
        with pytest.raises(ArchiveError):
            ArchiveQuery(archive_from_json(text))

        stored_without_sidecar(store, text)
        plan = FleetPlan.from_params({"group_by": "platform",
                                      "agg": "count"})
        result = run_fleet_query(store, plan)
        assert (result["jobs_scanned"], result["jobs_failed"]) == (0, 1)
        response = ArchiveService(store).handle("/jobs/job-x/query", {})
        assert response.status == 404
        assert response.json()["error"]

    @pytest.mark.parametrize("stamp", [True, 2 ** 53 + 1])
    def test_unencodable_timestamp_is_a_query_error(self, store, stamp):
        archive = make_archive()
        archive.root.children[0].start_time = stamp
        with pytest.raises(QueryError, match=repr(stamp)):
            ArchiveQuery(archive)
        text = archive_to_json(archive)
        with pytest.raises(QueryError, match=repr(stamp)):
            document_view(parse_document(text))

        stored_without_sidecar(store, text)
        response = ArchiveService(store).handle("/jobs/job-x/query", {})
        assert response.status == 400
        assert repr(stamp) in response.json()["error"]
        result = run_fleet_query(store, FleetPlan.from_params({}))
        assert (result["jobs_scanned"], result["jobs_failed"]) == (0, 1)
