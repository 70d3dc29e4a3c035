"""Tests for the iterative evaluation process (Figure 2 loop)."""

import pytest

from repro.core.archive.store import ArchiveStore
from repro.core.model.giraph_model import giraph_model
from repro.core.model.job import JobModel
from repro.core.model.operation import OperationModel
from repro.core.process import EvaluationProcess
from repro.errors import ModelValidationError
from repro.platforms.base import JobRequest
from repro.platforms.pregel.engine import GiraphPlatform

from tests.conftest import make_giraph_cluster


@pytest.fixture()
def process(tiny_graph, tmp_path):
    platform = GiraphPlatform(make_giraph_cluster())
    platform.deploy_dataset("tiny", tiny_graph)
    store = ArchiveStore(tmp_path / "archives")
    return EvaluationProcess(platform, giraph_model(), store=store)


REQUEST = JobRequest("bfs", "tiny", 8, params={"source": 0}, job_id="it")


class TestEvaluationProcess:
    def test_invalid_model_rejected(self, tiny_graph):
        platform = GiraphPlatform(make_giraph_cluster())
        bad = JobModel("Bad", OperationModel("Job", "x", level=2))
        with pytest.raises(ModelValidationError):
            EvaluationProcess(platform, bad)

    def test_full_iteration_artifacts(self, process):
        iteration = process.iterate(REQUEST)
        assert iteration.index == 1
        assert iteration.archive.size() > 100
        assert iteration.breakdown.total > 0
        assert iteration.utilization.peak > 0
        assert iteration.gantt is not None
        assert iteration.feedback == []

    def test_archive_persisted_to_store(self, process):
        iteration = process.iterate(REQUEST)
        assert iteration.archive.job_id in process.store

    def test_domain_level_iteration(self, process):
        iteration = process.iterate(REQUEST, model_level=1)
        assert iteration.model.size() == 6
        assert iteration.gantt is None  # No implementation-level ops.
        assert iteration.feedback  # Unmodeled system ops reported.

    def test_system_level_iteration(self, process):
        iteration = process.iterate(REQUEST, model_level=2)
        assert iteration.gantt is None
        missions = {m for m, _a in iteration.feedback}
        assert "LocalSuperstep" in missions

    def test_iterations_accumulate(self, process):
        first = process.iterate(REQUEST, model_level=1)
        second = process.iterate(REQUEST)
        assert [first.index, second.index] == [1, 2]

    def test_refine_adopts_new_model(self, process):
        original_version = process.model.version
        refined = giraph_model()
        process.refine(refined)
        assert process.model is refined
        assert process.model.version == original_version + 1

    def test_refine_validates(self, process):
        bad = JobModel("Bad", OperationModel("Job", "x", level=2))
        with pytest.raises(ModelValidationError):
            process.refine(bad)
