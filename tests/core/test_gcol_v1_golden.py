"""Version-1 ``.gcol`` sidecars keep answering, byte for byte.

``gcol_v1/`` holds six archives (JSON + sidecar) written by the store at
commit f53a22d, when every string column of a sidecar was a per-row
UTF-8 heap (layout version 1), and ``expected.json`` holds what that
commit answered: the six-call point-query battery per job and one fleet
plan of each op.  The v1 files must load and answer those literals, and
so must a freshly written sidecar of the same archives, the other
column source (``ArchiveQuery`` over the tree and the JSON document's
own columns; for the fleet plans, a copy of the store without
sidecars), and the plain-walk reference — the dictionary-coded layout
is a faster encoding, not a different answer.
"""

import json
import shutil
import struct
from pathlib import Path

import pytest

from repro.core.analysis.fleet import run_fleet_query
from repro.core.analysis.fleetplan import FleetPlan
from repro.core.archive.columnar import (
    SIDECAR_VERSION,
    document_view,
    read_sidecar_header,
)
from repro.core.archive.query import ArchiveQuery
from repro.core.archive.store import ArchiveHandle, ArchiveStore
from tests.conftest import sidecarless_fleet_query
from tests.core.query_reference import ReferenceQuery, reference_fleet_query

FIXTURE = Path(__file__).parent / "gcol_v1"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text("utf-8"))
JOBS = sorted(EXPECTED["battery"])


def canonical(value):
    """JSON text: tells ``5`` from ``5.0`` and tuples equal lists."""
    return json.dumps(value, sort_keys=True)


def battery(query):
    """The point-query battery the literals were recorded with."""
    supersteps = query.mission("Superstep")
    return [
        len(query),
        query.total(),
        query.durations(),
        supersteps.total(),
        supersteps.values("Duration"),
        query.actor("Worker").total(),
    ]


@pytest.fixture()
def v1_store(tmp_path):
    directory = tmp_path / "v1"
    directory.mkdir()
    for path in FIXTURE.iterdir():
        if path.name != "expected.json":
            shutil.copy(path, directory / path.name)
    return ArchiveStore(directory)


@pytest.fixture()
def v2_store(tmp_path, v1_store):
    store = ArchiveStore(tmp_path / "v2")
    for job_id in v1_store.list():
        store.save(v1_store.load(job_id))
        assert store.checksum(job_id) == v1_store.checksum(job_id)
    return store


def sidecar_version(path):
    return struct.unpack_from("<I", path.read_bytes(), 4)[0]


class TestV1Fixture:
    def test_fixture_is_layout_1_and_fresh_sidecars_are_not(
        self, v1_store, v2_store,
    ):
        for job_id in JOBS:
            assert sidecar_version(v1_store.sidecar_path(job_id)) == 1
            assert sidecar_version(v2_store.sidecar_path(job_id)) == \
                SIDECAR_VERSION != 1

    @pytest.mark.parametrize(
        "surface", ["v1", "v2", "tree", "document", "reference"])
    @pytest.mark.parametrize("job_id", JOBS)
    def test_battery_answers_its_literals(self, v1_store, v2_store,
                                          surface, job_id):
        if surface == "tree":
            answer = battery(ArchiveQuery(v1_store.load(job_id)))
        elif surface == "document":
            with document_view(v1_store.handle(job_id).document) as view:
                answer = battery(view)
        elif surface == "reference":
            answer = battery(ReferenceQuery(v1_store.load(job_id)))
        else:
            store = v1_store if surface == "v1" else v2_store
            view = store.columnar_view(job_id)
            assert view is not None
            try:
                answer = battery(view)
            finally:
                view.close()
        assert canonical(answer) == canonical(EXPECTED["battery"][job_id])

    @pytest.mark.parametrize("surface", ["v1", "v2", "tree", "reference"])
    @pytest.mark.parametrize(
        "case", EXPECTED["fleet"],
        ids=[f"{c['op']}-{i}" for i, c in enumerate(EXPECTED["fleet"])],
    )
    def test_fleet_plan_answers_its_literals(self, v1_store, v2_store,
                                             surface, case):
        plan = FleetPlan.from_params(case["params"], op=case["op"])
        if surface == "tree":
            # No sidecars: every job is read from its JSON columns.
            document = sidecarless_fleet_query(v1_store, plan)
            assert document["degraded_jobs"] == JOBS
            document = dict(document, degraded_jobs=[])
        elif surface == "reference":
            document = reference_fleet_query(v1_store, plan)
        else:
            store = v2_store if surface == "v2" else v1_store
            document = run_fleet_query(store, plan)
            assert document["degraded_jobs"] == []
        assert canonical(document) == canonical(case["document"])

    def test_rebuild_index_reads_v1_headers_only(self, v1_store,
                                                 monkeypatch):
        expected = v1_store.rebuild_index()

        def no_json_parse(self):
            raise AssertionError(f"parsed {self.path.name} for its entry")

        monkeypatch.setattr(ArchiveHandle, "index_entry", no_json_parse)
        assert v1_store.rebuild_index() == expected
        assert sorted(expected) == JOBS
        for job_id in JOBS:
            header = read_sidecar_header(v1_store.sidecar_path(job_id))
            assert header["index"]["job_id"] == job_id
