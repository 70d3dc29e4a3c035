"""Property-based tests (hypothesis): the writers render the reference bytes.

``render_archive`` (behind ``archive_to_json`` and ``ArchiveStore.save``)
renders every column once and splices both the document text and the
hashed payload from those pieces; ``build_sidecar`` encodes info values
through exact-type fast paths.  On random archives — nan and ±inf,
the literal strings ``"Infinity"`` and ``"\\Infinity"``, bools, None,
ints beyond 2**53, ``numpy.float64``, dict infos with unsorted keys,
non-ASCII text, empty metadata, environment samples — all of it must be
byte-identical to the plain ``json.dumps`` renderings in
``tests/core/render_reference.py``, and fail the same way where those
fail.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.columnar import build_sidecar
from repro.core.archive.serialize import (
    _environment_renderings,
    archive_to_document,
    archive_to_json,
    parse_document,
    payload_checksum,
    render_archive,
)
from tests.core import render_reference as reference

SENTINELS = ("Infinity", "-Infinity", "\\Infinity", "\\\\-Infinity",
             "12.5", " 7 ", "1_000", "nan", "", "ü", "{", '"', "\n")

text = st.text(max_size=6)
scalars = st.one_of(
    st.floats(),  # nan, ±inf and -0.0 included.
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.just(np.float64("inf")),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.just(2 ** 53 + 1),
    st.booleans(),
    st.none(),
    st.sampled_from(SENTINELS),
    text,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(text, inner, max_size=3),  # Insertion order.
    ),
    max_leaves=6,
)
timestamps = st.one_of(
    st.none(),
    st.floats(allow_nan=False),
    st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
)


@st.composite
def archives(draw):
    count = draw(st.integers(min_value=1, max_value=10))
    ops = []
    for index in range(count):
        op = ArchivedOperation(
            uid=f"{index}:{draw(text)}",
            mission=draw(st.one_of(st.sampled_from(("Job", "Step-1")), text)),
            actor=draw(text),
            start_time=draw(timestamps),
            end_time=draw(timestamps),
            infos=draw(st.dictionaries(text, values, max_size=4)),
        )
        if index:
            parent = ops[draw(st.integers(0, index - 1))]
            op.parent = parent
            parent.children.append(op)
        ops.append(op)
    env = draw(st.lists(
        st.tuples(st.floats(), text, st.floats()), max_size=3))
    return PerformanceArchive(
        draw(text.filter(bool)), ops[0], platform=draw(text),
        metadata=draw(st.dictionaries(text, values, max_size=3)),
        env_samples=env,
    )


def outcome(compute):
    """The result, or the type of the error the computation raised."""
    try:
        return compute()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(archives())
def test_document_payload_and_sidecar_match_the_reference(archive):
    document, text = render_archive(archive)
    expected = reference.archive_document(archive)
    assert text == reference.archive_json(archive)
    assert archive_to_json(archive) == text
    checksum = document["integrity"]["checksum"]
    assert checksum == expected["integrity"]["checksum"]
    assert checksum == payload_checksum(archive_to_document(archive))

    extra = {"job_id": archive.job_id, "metadata": archive.metadata}
    for columns in (document["operations"],
                    parse_document(text)["operations"]):
        assert outcome(lambda: build_sidecar(columns, checksum, extra)) == \
            outcome(lambda: reference.build_sidecar(columns, checksum, extra))


@settings(max_examples=200, deadline=None)
@given(st.lists(values, max_size=8))
def test_value_heap_matches_the_reference(items):
    items = [reference.encode_value(value) for value in items]
    columns = {"count": 1, "parent": [-1], "start": [0.0], "end": [1.0],
               "uid": ["u"], "mission": ["m"], "actor": ["a"],
               "info_op": [0] * len(items), "info_key": ["k"] * len(items),
               "info_value": items}
    assert outcome(lambda: build_sidecar(columns, "c")) == \
        outcome(lambda: reference.build_sidecar(columns, "c"))


def test_edge_values_render_identically():
    root = ArchivedOperation(
        "ü", "Job", "Cliënt", 0, 5.5,
        infos={"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
               "str": "Infinity", "esc": "\\Infinity", "bool": True,
               "none": None, "big": 2 ** 60, "np": np.float64(1.5),
               "npinf": np.float64("-inf"), "nested": {"z": 1, "a": [
                   {"y": 2, "b": 3}]}, "brace": "{", "zero": -0.0},
    )
    child = ArchivedOperation("c", "Step-1", "W", None, 3, parent=root)
    root.children.append(child)
    for metadata, env in (({}, []), ({"z": 1, "a": {"q": 1, "b": 2}},
                                     [(1.0, "n1", 0.5), (2, "n2", 1)])):
        archive = PerformanceArchive("jöb", root, platform="P",
                                     metadata=metadata, env_samples=env)
        document, text = render_archive(archive)
        assert text == reference.archive_json(archive)
        checksum = document["integrity"]["checksum"]
        assert build_sidecar(document["operations"], checksum) == \
            reference.build_sidecar(document["operations"], checksum)


env_numbers = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(),  # nan, ±inf and -0.0 included.
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)
env_nodes = st.one_of(
    st.sampled_from(("node340", "nöde", 'no"de', "n\\1", "ü\n", "")),
    st.text(max_size=5),
    st.integers(0, 3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(env_numbers, env_nodes, env_numbers), max_size=6))
def test_environment_renders_by_column_like_the_reference(env):
    """The environment is rendered from its (ts, node, cpu) samples,
    not from sample objects: same bytes, same checksum, whatever the
    values — ints, floats, nan and ±inf, bools, non-ASCII and
    quote-bearing nodes, a non-str node, no samples at all."""
    root = ArchivedOperation("u", "Job", "C", 0.0, 1.0)
    archive = PerformanceArchive("j", root, platform="P", env_samples=env)
    document, text = render_archive(archive)
    assert text == reference.archive_json(archive)
    assert document["integrity"]["checksum"] == \
        reference.archive_document(archive)["integrity"]["checksum"]


def test_plain_samples_take_the_column_rendering():
    """Finite numbers and str nodes render by column; anything else is
    left to the encoder."""
    assert _environment_renderings([]) == ("[]", "[]")
    canonical, document = _environment_renderings(
        [(1, "nöde", 0.5), (2.5, 'a"b', -0.0)])
    assert canonical == ('[{"cpu":0.5,"node":"n\\u00f6de","ts":1},'
                         '{"cpu":-0.0,"node":"a\\"b","ts":2.5}]')
    assert document == ('[{"ts":1,"node":"n\\u00f6de","cpu":0.5},'
                        '{"ts":2.5,"node":"a\\"b","cpu":-0.0}]')
    for sample in ((math.nan, "n", 1.0), (1.0, "n", math.inf),
                   (True, "n", 1.0), (1.0, 7, 1.0), [1.0, "n", 1.0]):
        assert _environment_renderings([(0.0, "n", 0.0), sample]) is None
