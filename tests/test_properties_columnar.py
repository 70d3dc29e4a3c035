"""Property-based tests (hypothesis): the ``.gcol`` view is the tree.

For random archives — random tree shapes, int/float/missing
timestamps, heterogeneous info values including the literal string
``"Infinity"``, missions, actors and info keys drawn from arbitrary
text (non-ASCII, empty, NUL, ``Step-007``, ``-3``, ``a--1``) and
repeated heavily — the zero-copy :class:`ColumnarArchiveView` must
answer every :class:`ArchiveQuery` selector and aggregation
*byte-identically*: equal floats (no tolerance), equal record lists,
and the same typed error with the same message where the tree path
raises.
"""

import math
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.columnar import build_sidecar, load_sidecar
from repro.core.archive.query import ArchiveQuery, translate_path_pattern
from repro.core.archive.serialize import archive_to_document
from repro.core.model.operation import split_iteration
from repro.errors import QueryError
from repro.service.app import _operation_record

# -- strategies -------------------------------------------------------------

MISSIONS = ("Load", "Compute", "Step-0", "Step-1", "Step-12", "IO-2")
ACTORS = ("Master", "Worker-1", "Worker-2", "Client")
INFO_KEYS = ("Duration", "Bytes", "Status", "Label")
#: Names whose iteration split is easy to get wrong.
AWKWARD = ("", "\x00", "Step-007", "-3", "a--1", "Step-1-2", "Wörker-2",
           "Σ-1", "a/b", "Step-", "-", "Duration")

floats = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)
timestamps = st.one_of(
    st.none(),
    st.floats(min_value=0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=0, max_value=10**9),
)
info_values = st.one_of(
    floats,
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    st.none(),
    st.sampled_from(("SUCCEEDED", "FAILED", "Infinity", "-Infinity",
                     "\\Infinity", "12.5", "")),
    st.just(float("inf")),
    st.just(float("-inf")),
    st.lists(st.integers(0, 9), max_size=3),
)


names = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=6))


@st.composite
def archives(draw, text=False):
    """Random archives; ``text`` draws names from a small pool of
    arbitrary strings, so each one repeats across many rows."""
    missions, actors, keys = MISSIONS, ACTORS, INFO_KEYS
    if text:
        missions, actors, keys = (
            draw(st.lists(names, min_size=1, max_size=4)) for _ in range(3)
        )
    count = draw(st.integers(min_value=1, max_value=12 if not text else 40))
    ops = []
    for index in range(count):
        infos = draw(st.dictionaries(
            st.sampled_from(keys), info_values, max_size=3))
        op = ArchivedOperation(
            uid=f"op{index}",
            mission=draw(st.sampled_from(missions)),
            actor=draw(st.sampled_from(actors)),
            start_time=draw(timestamps),
            end_time=draw(timestamps),
            infos=infos,
        )
        if index:
            parent = ops[draw(st.integers(0, index - 1))]
            op.parent = parent
            parent.children.append(op)
        ops.append(op)
    return PerformanceArchive("prop-job", ops[0], platform="Test")


def view_of(archive, directory):
    document = archive_to_document(archive)
    payload = build_sidecar(document["operations"],
                            document["integrity"]["checksum"])
    path = Path(directory) / "prop.gcol"
    path.write_bytes(payload)
    return load_sidecar(
        path, expected_checksum=document["integrity"]["checksum"])


def assert_same_result(compute_view, compute_tree):
    """Equal values, or the same QueryError with the same message."""
    try:
        expected = compute_tree()
    except QueryError as exc:
        with pytest.raises(QueryError) as caught:
            compute_view()
        assert str(caught.value) == str(exc)
        return
    actual = compute_view()
    assert type(actual) is type(expected)
    if isinstance(expected, float):
        # Bit-identical, which also equates the two NaNs a total of
        # +inf and -inf folds to on both paths.
        assert struct.pack("<d", actual) == struct.pack("<d", expected)
    else:
        assert actual == expected


def assert_surfaces_identical(view, tree, keys=INFO_KEYS):
    assert len(view) == len(tree)
    assert view.durations() == tree.durations()
    assert view.operation_records() == \
        [_operation_record(op) for op in tree.operations()]
    for key in keys:
        assert view.values(key) == tree.values(key)
        assert view.values(key, default=-1) == tree.values(key, default=-1)
        assert_same_result(lambda k=key: view.total(k),
                           lambda k=key: tree.total(k))
        assert_same_result(lambda k=key: view.mean(k),
                           lambda k=key: tree.mean(k))
        assert_same_result(
            lambda k=key: view.top_records(k, 3),
            lambda k=key: [
                dict(_operation_record(op), value=op.infos.get(k))
                for op in tree.top(k, 3)
            ],
        )


# -- properties -------------------------------------------------------------

class TestColumnarIdentity:
    @given(archives())
    @settings(max_examples=40, deadline=None)
    def test_every_aggregation_matches_the_tree(self, archive):
        with tempfile.TemporaryDirectory() as directory:
            view = view_of(archive, directory)
            try:
                assert_surfaces_identical(view, ArchiveQuery(archive))
            finally:
                view.close()

    @given(archives(), st.sampled_from(MISSIONS), st.sampled_from(ACTORS),
           st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_every_selector_matches_the_tree(self, archive, mission,
                                             actor, iteration):
        mission_base = mission.rsplit("-", 1)[0]
        tree = ArchiveQuery(archive)
        with tempfile.TemporaryDirectory() as directory:
            view = view_of(archive, directory)
            try:
                assert_surfaces_identical(
                    view.mission(mission_base), tree.mission(mission_base))
                assert_surfaces_identical(
                    view.actor(actor), tree.actor(actor))
                assert_surfaces_identical(
                    view.iteration(iteration), tree.iteration(iteration))
                pattern = f"{archive.root.mission}/*"
                assert_surfaces_identical(
                    view.path(pattern), tree.path(pattern))
                assert_surfaces_identical(view.path("*"), tree.path("*"))
                # The view's predicate sees service records, the
                # tree's sees operations — same selection either way.
                assert_surfaces_identical(
                    view.where(lambda r: r["duration"] is not None),
                    tree.where(lambda op: op.duration is not None))
                assert_surfaces_identical(
                    view.mission(mission_base).actor(actor),
                    tree.mission(mission_base).actor(actor))
            finally:
                view.close()


def info_keys_of(archive):
    """Every info key the archive carries, plus one it does not."""
    keys = {key for op in archive.walk() for key in op.infos}
    return sorted(keys) + ["\x00absent"]


class TestArbitraryNames:
    @given(archives(text=True), names)
    @settings(max_examples=60, deadline=None)
    def test_selectors_and_aggregations_match_the_tree(self, archive, name):
        """Every base and iteration the archive carries is selected on,
        plus one arbitrary name that may match nothing."""
        ops = list(archive.walk())
        missions = [op.mission for op in ops]
        mission_bases = {split_iteration(m)[0] for m in missions} | {name}
        actor_bases = {op.actor_base for op in ops} | {name}
        iterations = {split_iteration(m)[1] for m in missions} | {-1}
        keys = info_keys_of(archive)
        tree = ArchiveQuery(archive)
        with tempfile.TemporaryDirectory() as directory:
            view = view_of(archive, directory)
            try:
                assert_surfaces_identical(view, tree, keys)
                for base in sorted(mission_bases):
                    assert_surfaces_identical(
                        view.mission(base), tree.mission(base), keys)
                    for actor in sorted(actor_bases):
                        assert len(view.mission(base).actor(actor)) == \
                            len(tree.mission(base).actor(actor))
                for actor in sorted(actor_bases):
                    assert_surfaces_identical(
                        view.actor(actor), tree.actor(actor), keys)
                for index in sorted(iterations, key=repr):
                    assert_surfaces_identical(
                        view.iteration(index), tree.iteration(index), keys)
                for pattern in (f"{archive.root.mission}/*", "**",
                                f"**/{missions[-1]}"):
                    try:
                        translate_path_pattern(pattern)
                    except QueryError:
                        continue  # Both paths reject it before selecting.
                    assert_surfaces_identical(
                        view.path(pattern), tree.path(pattern), keys)
            finally:
                view.close()


class TestNonFiniteFold:
    def test_inf_and_minus_inf_total_to_nan_without_warning(self):
        root = ArchivedOperation("r", "Job", "Client", 0.0, 1.0,
                                 infos={"Dist": float("inf")})
        child = ArchivedOperation("c", "Step-1", "Worker-1", 0.0, 1.0,
                                  infos={"Dist": float("-inf")}, parent=root)
        root.children.append(child)
        archive = PerformanceArchive("inf-job", root, platform="Test")
        with tempfile.TemporaryDirectory() as directory:
            view = view_of(archive, directory)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    total = view.total("Dist")
                    values = view.values("Dist")
            finally:
                view.close()
        assert math.isnan(total)
        assert struct.pack("<d", total) == \
            struct.pack("<d", ArchiveQuery(archive).total("Dist"))
        assert values == [float("inf"), float("-inf")]
