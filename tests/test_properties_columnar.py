"""Property-based tests (hypothesis): every column source is the walk.

For random archives — random tree shapes, int/float/missing
timestamps, heterogeneous info values including the literal string
``"Infinity"``, missions, actors and info keys drawn from arbitrary
text (non-ASCII, empty, NUL, ``Step-007``, ``-3``, ``a--1``) and
repeated heavily — both sources of the one column core must answer
every selector and aggregation exactly as the plain-walk reference in
``tests/core/query_reference.py`` does: equal floats (bit for bit),
equal record lists, and the same typed error with the same message
where the reference raises.  The sources are the mmap'd ``.gcol``
sidecar view, ``ArchiveQuery`` over the tree, and the view over a JSON
document's own columns.
"""

import json
import math
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.columnar import (
    build_sidecar,
    document_view,
    load_sidecar,
)
from repro.core.archive.query import ArchiveQuery, translate_path_pattern
from repro.core.archive.serialize import (
    archive_to_document,
    archive_to_json,
    operations_from_columns,
)
from repro.core.model.operation import split_iteration
from repro.errors import QueryError
from tests.core.query_reference import ReferenceQuery

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


def sources(archive, directory):
    """(name, surface) of every column source over ``archive``."""
    return [
        ("sidecar", view_of(archive, directory)),
        ("tree", ArchiveQuery(archive)),
        ("document", document_view(json.loads(archive_to_json(archive)))),
    ]


def assert_same_result(compute_view, compute_reference):
    """Equal values, or the same QueryError with the same message."""
    try:
        expected = compute_reference()
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


def ids(ops):
    return [id(op) for op in ops]


def assert_surfaces_identical(view, reference, keys=INFO_KEYS):
    assert len(view) == len(reference)
    assert view.durations() == reference.durations()
    assert view.operation_records() == reference.operation_records()
    for key in keys:
        assert view.values(key) == reference.values(key)
        assert view.values(key, default=-1) == \
            reference.values(key, default=-1)
        assert_same_result(lambda k=key: view.total(k),
                           lambda k=key: reference.total(k))
        assert_same_result(lambda k=key: view.mean(k),
                           lambda k=key: reference.mean(k))
        assert_same_result(lambda k=key: view.top_records(k, 3),
                           lambda k=key: reference.top_records(k, 3))
    if isinstance(view, ArchiveQuery):
        # The tree's own operations, the reference walk's objects.
        assert ids(view.operations()) == ids(reference.operations())
        for key in keys:
            assert_same_result(lambda k=key: ids(view.top(k, 3)),
                               lambda k=key: ids(reference.top(k, 3)))
        for grouped in ("group_by_actor", "group_by_iteration"):
            assert {
                key: ids(ops)
                for key, ops in getattr(view, grouped)().items()
            } == {
                key: ids(ops)
                for key, ops in getattr(reference, grouped)().items()
            }


def each_source(archive, check):
    """Run ``check(surface, reference)`` against every column source."""
    reference = ReferenceQuery(archive)
    with tempfile.TemporaryDirectory() as directory:
        surfaces = sources(archive, directory)
        try:
            for _name, surface in surfaces:
                check(surface, reference)
        finally:
            for _name, surface in surfaces:
                surface.close()


# -- properties -------------------------------------------------------------

class TestColumnarIdentity:
    @given(archives())
    @settings(max_examples=40, deadline=None)
    def test_every_aggregation_matches_the_tree(self, archive):
        each_source(archive, assert_surfaces_identical)

    @given(archives(), st.sampled_from(MISSIONS), st.sampled_from(ACTORS),
           st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_every_selector_matches_the_tree(self, archive, mission,
                                             actor, iteration):
        mission_base = mission.rsplit("-", 1)[0]

        def check(view, reference):
            assert_surfaces_identical(
                view.mission(mission_base), reference.mission(mission_base))
            assert_surfaces_identical(
                view.actor(actor), reference.actor(actor))
            assert_surfaces_identical(
                view.iteration(iteration), reference.iteration(iteration))
            pattern = f"{archive.root.mission}/*"
            assert_surfaces_identical(
                view.path(pattern), reference.path(pattern))
            assert_surfaces_identical(view.path("*"), reference.path("*"))
            assert_surfaces_identical(
                view.mission(mission_base).actor(actor),
                reference.mission(mission_base).actor(actor))
            if isinstance(view, ArchiveQuery):
                assert_surfaces_identical(
                    view.where(lambda op: op.duration is not None),
                    reference.where(lambda op: op.duration is not None))

        each_source(archive, check)


class TestLongFolds:
    @given(st.lists(floats, min_size=8, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_total_is_the_walk_order_left_fold(self, values):
        """A long all-numeric selection takes the vectorized fold, and
        it must still be the walk's left fold, bit for bit."""
        root = ArchivedOperation("r", "Job", "Client", 0.0, 1.0,
                                 infos={"Duration": values[0]})
        for index, value in enumerate(values[1:]):
            root.children.append(ArchivedOperation(
                f"c{index}", f"Step-{index}", "Worker-1", 0.0, 1.0,
                infos={"Duration": value}, parent=root))
        archive = PerformanceArchive("fold-job", root, platform="Test")

        def check(view, reference):
            assert_same_result(view.total, reference.total)
            assert_same_result(view.mission("Step").total,
                               reference.mission("Step").total)

        each_source(archive, check)


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

        def check(view, reference):
            assert_surfaces_identical(view, reference, keys)
            for base in sorted(mission_bases):
                assert_surfaces_identical(
                    view.mission(base), reference.mission(base), keys)
                for actor in sorted(actor_bases):
                    assert len(view.mission(base).actor(actor)) == \
                        len(reference.mission(base).actor(actor))
            for actor in sorted(actor_bases):
                assert_surfaces_identical(
                    view.actor(actor), reference.actor(actor), keys)
            for index in sorted(iterations, key=repr):
                assert_surfaces_identical(
                    view.iteration(index), reference.iteration(index), keys)
            for pattern in (f"{archive.root.mission}/*", "**",
                            f"**/{missions[-1]}"):
                try:
                    translate_path_pattern(pattern)
                except QueryError:
                    continue  # Both paths reject it before selecting.
                assert_surfaces_identical(
                    view.path(pattern), reference.path(pattern), keys)

        each_source(archive, check)


class TestRewrittenInfos:
    @given(archives(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_document_columns_with_repeated_keys_match_the_tree(
        self, archive, data,
    ):
        """A hand-written document may write one operation's info key
        twice; the tree decoder keeps the last write, and so must the
        document's column view."""
        document = json.loads(archive_to_json(archive))
        columns = document["operations"]
        rewrites = data.draw(st.lists(st.tuples(
            st.integers(0, columns["count"] - 1),
            st.sampled_from(INFO_KEYS),
            st.one_of(floats, st.integers(-10**6, 10**6), st.none(),
                      st.booleans(), st.sampled_from(("12.5", "FAILED"))),
        ), min_size=1, max_size=8))
        for op_row, key, value in rewrites:
            columns["info_op"].append(op_row)
            columns["info_key"].append(key)
            columns["info_value"].append(value)
        tree = PerformanceArchive(
            document["job_id"], operations_from_columns(columns))
        with document_view(document) as view:
            assert_surfaces_identical(view, ReferenceQuery(tree))
            assert_surfaces_identical(view.mission("Step"),
                                      ReferenceQuery(tree).mission("Step"))


class TestNonFiniteFold:
    def test_inf_and_minus_inf_total_to_nan_without_warning(self):
        root = ArchivedOperation("r", "Job", "Client", 0.0, 1.0,
                                 infos={"Dist": float("inf")})
        child = ArchivedOperation("c", "Step-1", "Worker-1", 0.0, 1.0,
                                  infos={"Dist": float("-inf")}, parent=root)
        root.children.append(child)
        archive = PerformanceArchive("inf-job", root, platform="Test")
        expected = ReferenceQuery(archive).total("Dist")
        with tempfile.TemporaryDirectory() as directory:
            for _name, view in sources(archive, directory):
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        total = view.total("Dist")
                        values = view.values("Dist")
                finally:
                    view.close()
                assert math.isnan(total)
                assert struct.pack("<d", total) == struct.pack("<d", expected)
                assert values == [float("inf"), float("-inf")]
