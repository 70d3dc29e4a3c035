"""Reports on archives without a positive makespan: an open root renders
over the observed span, an untimed one is a typed 422 — never a
MemoryError, a TypeError or a 500."""

from __future__ import annotations

import pytest

from repro.core.visualize.render_html import render_report_html
from repro.core.visualize.report import render_report_text
from repro.errors import VisualizationError
from tests.service.conftest import make_archive


def open_root():
    """The root never closed (a live or salvaged job)."""
    archive = make_archive("open-root")
    archive.root.end_time = None
    return archive


def zero_root():
    """The root opens and closes at one instant; its children do not."""
    archive = make_archive("zero-root")
    archive.root.end_time = archive.root.start_time
    return archive


def instant():
    """Nothing in the archive has a positive span."""
    archive = make_archive("instant")
    for op in archive.walk():
        op.start_time = op.end_time = 0.0
    return archive


def assert_bounded(text: str) -> None:
    assert len(text) < 20_000
    timeline = text.split("\n\n")[0]
    for line in timeline.splitlines():
        if line.endswith("|"):
            assert len(line.rsplit("|", 2)[1]) == 40, line


@pytest.mark.parametrize("build", [open_root, zero_root])
def test_reports_render_over_the_observed_span(build):
    archive = build()
    text = render_report_text(archive)
    assert_bounded(text)
    assert text.splitlines()[0].endswith("(10.00s, 8 operations)")
    html = render_report_html([archive])
    assert "makespan=10.00s" in html


def test_untimed_archive_is_a_typed_error():
    with pytest.raises(VisualizationError):
        render_report_text(instant())
    with pytest.raises(VisualizationError):
        render_report_html([instant()])


@pytest.mark.parametrize("fmt", ["text", "html"])
def test_service_reports_degenerate_archives(store, service, fmt):
    for archive in (open_root(), zero_root(), instant()):
        store.save(archive)
    for job in ("open-root", "zero-root"):
        response = service.handle(f"/jobs/{job}/report", {"format": fmt})
        assert response.status == 200, response.body
        assert len(response.body) < 200_000
    response = service.handle("/jobs/instant/report", {"format": fmt})
    assert response.status == 422
    assert b"no usable makespan" in response.body
