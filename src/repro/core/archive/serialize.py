"""The standardized archive serialization format (JSON).

Archives are the shareable artifact of a performance study — the paper's
answer to "lack of reusability of results".  The format is plain JSON so
archives can be exchanged, diffed and queried outside this library.

Format version 2 embeds an ``integrity`` block: a SHA-256 checksum over
the canonical payload, so bit rot or hand-editing is detected at load
time instead of silently skewing an analysis.  Format version 3 encodes
the operation tree in **columnar** form: parallel arrays in pre-order
(``parent[i] < i``) plus a flattened info table, so encoding, decoding
and point queries over large archives cost a handful of list scans
instead of a recursive walk over nested objects.  Only version 3 is
written; version-1 (no checksum) and version-2 (nested operations)
archives remain readable.  For loading *damaged* archives without
raising, see :mod:`repro.core.archive.integrity`.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.errors import ArchiveError, ArchiveIntegrityError

#: Format versions this reader accepts.
SUPPORTED_VERSIONS = (1, 2, PerformanceArchive.FORMAT_VERSION)

#: Checksum algorithm recorded in the integrity block.
CHECKSUM_ALGORITHM = "sha256"

#: The ``layout`` marker of a columnar operations block.
COLUMNAR_LAYOUT = "columnar"

#: Column names of the columnar operations block, in document order.
OPERATION_COLUMNS = ("uid", "mission", "actor", "parent", "start", "end")
INFO_COLUMNS = ("info_op", "info_key", "info_value")


#: Strings reserved for encoded float infinities.
_INFINITY_SENTINELS = ("Infinity", "-Infinity")

#: The compact encoders behind every rendering: sorted keys for the
#: canonical payload (and the sidecar's value heap), insertion order for
#: the document text.  Both run on the C encoder.
SORTED_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DOCUMENT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode_value(value: Any) -> Any:
    """JSON-safe encoding (infinities become strings).

    Literal strings that would collide with the sentinels — including
    already-escaped ones — gain a leading backslash so decoding is a
    true inverse: the string ``"Infinity"`` and the float ``inf``
    remain distinct through a round trip.
    """
    kind = type(value)
    if kind is float:
        if value == math.inf:
            return "Infinity"
        return "-Infinity" if value == -math.inf else value
    if kind is int or kind is bool or value is None:
        return value
    if isinstance(value, float) and math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str) and value.lstrip("\\") in _INFINITY_SENTINELS:
        return "\\" + value
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, str):
        if value == "Infinity":
            return math.inf
        if value == "-Infinity":
            return -math.inf
        if value.lstrip("\\") in _INFINITY_SENTINELS:
            return value[1:]
    return value


def _operation_from_dict(data: Dict[str, Any]) -> ArchivedOperation:
    try:
        op = ArchivedOperation(
            uid=data["uid"],
            mission=data["mission"],
            actor=data["actor"],
            start_time=data["start"],
            end_time=data["end"],
            infos={k: _decode_value(v) for k, v in data["infos"].items()},
        )
    except KeyError as exc:
        raise ArchiveError(f"operation record missing field {exc}") from None
    for child_data in data.get("children", []):
        child = _operation_from_dict(child_data)
        child.parent = op
        op.children.append(child)
    return op


def operations_to_columns(root: ArchivedOperation) -> Dict[str, Any]:
    """The operation tree as parallel pre-order columns.

    ``parent`` holds the pre-order index of each operation's parent
    (``-1`` for the root); pre-order guarantees ``parent[i] < i``, so a
    decoder can rebuild the tree in one forward pass.  Infos are
    flattened into a three-column table (operation index, key, value)
    in traversal order.
    """
    ops: List[ArchivedOperation] = []
    parent: List[int] = []
    stack: List[tuple] = [(root, -1)]
    while stack:
        op, parent_index = stack.pop()
        if op.children:
            stack.extend(zip(reversed(op.children), repeat(len(ops))))
        ops.append(op)
        parent.append(parent_index)
    info_op: List[int] = []
    info_key: List[str] = []
    info_value: List[Any] = []
    for index, op in enumerate(ops):
        for key, value in op.infos.items():
            info_op.append(index)
            info_key.append(key)
            info_value.append(_encode_value(value))
    return {
        "layout": COLUMNAR_LAYOUT,
        "count": len(ops),
        "uid": [op.uid for op in ops],
        "mission": [op.mission for op in ops],
        "actor": [op.actor for op in ops],
        "parent": parent,
        "start": [op.start_time for op in ops],
        "end": [op.end_time for op in ops],
        "info_op": info_op,
        "info_key": info_key,
        "info_value": info_value,
    }


def validate_columns(data: Dict[str, Any]) -> None:
    """The strict load-time checks of a columnar operations block.

    Every column is a list, ``count`` matches their lengths and is not
    zero, the root's parent is ``-1`` and every other parent an int in
    ``0 <= parent < i``, and every ``info_op`` an int naming an
    operation.  The first violation raises :class:`ArchiveError`.
    """
    count = data.get("count")
    columns = {name: data.get(name) for name in OPERATION_COLUMNS}
    infos = {name: data.get(name) for name in INFO_COLUMNS}
    for name, column in {**columns, **infos}.items():
        if not isinstance(column, list):
            raise ArchiveError(
                f"columnar operations: {name} is "
                f"{type(column).__name__}, not a list"
            )
    if not isinstance(count, int) or any(
        len(column) != count for column in columns.values()
    ):
        raise ArchiveError(
            "columnar operations: count does not match column lengths"
        )
    if count == 0:
        raise ArchiveError("columnar operations: empty archive")
    if any(len(column) != len(infos["info_op"]) for column in infos.values()):
        raise ArchiveError(
            "columnar operations: info columns have unequal lengths"
        )
    parents = columns["parent"]
    if parents[0] != -1:
        raise ArchiveError(
            f"columnar operations: root parent is "
            f"{parents[0]!r}, expected -1"
        )
    rest = parents[1:]
    if not (_ints(rest) and all(map(operator.lt, rest, range(1, count)))
            and min(rest, default=0) >= 0):
        for i, parent_index in enumerate(rest, 1):
            if not isinstance(parent_index, int) or not (
                0 <= parent_index < i
            ):
                raise ArchiveError(
                    f"columnar operations: operation {i} has parent "
                    f"{parent_index!r}; pre-order requires 0 <= parent < {i}"
                )
    info_op = infos["info_op"]
    if info_op and not (_ints(info_op) and min(info_op) >= 0
                        and max(info_op) < count):
        for op_index, key in zip(info_op, infos["info_key"]):
            if not isinstance(op_index, int) or not (0 <= op_index < count):
                raise ArchiveError(
                    f"columnar operations: info row references operation "
                    f"{op_index!r} of {count}"
                )
            hash(key)  # The tree decoder fails on an unhashable key first.


def _ints(values: List[Any]) -> bool:
    """Whether every value is exactly an ``int`` (not a bool)."""
    return set(map(type, values)) <= {int}


def tree_of_table(data: Dict[str, Any]) -> ArchivedOperation:
    """The operation tree of a columnar block :func:`validate_columns`
    accepted."""
    ops = list(map(ArchivedOperation, data["uid"], data["mission"],
                   data["actor"], data["start"], data["end"]))
    for op, parent_index in zip(ops[1:], data["parent"][1:]):
        parent = ops[parent_index]
        op.parent = parent
        parent.children.append(op)
    for op_index, key, value in zip(
        data["info_op"], data["info_key"], data["info_value"]
    ):
        ops[op_index].infos[key] = _decode_value(value)
    return ops[0]


def operations_from_columns(data: Dict[str, Any]) -> ArchivedOperation:
    """Rebuild the operation tree from its columnar encoding (strict)."""
    validate_columns(data)
    return tree_of_table(data)


def canonical_table(data: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """A validated columnar block as :func:`operations_to_columns` would
    re-render it, or None when the re-rendering would differ.

    It differs unless ``parent`` is in pre-order (the tree walk's row
    order), info rows are grouped by operation with one row per key
    (the tree keeps one value per key), and no value is a float
    infinity (the tree re-encodes it as the string ``"Infinity"``).
    Raises :class:`ArchiveError` on a duplicate uid, as the tree does.
    """
    parents, info_op, values = data["parent"], data["info_op"], data["info_value"]
    if not (_ints(parents) and _is_preorder(parents) and _ints(info_op)
            and all(map(operator.le, info_op, info_op[1:]))
            and len(set(zip(info_op, data["info_key"]))) == len(info_op)
            and math.inf not in values and -math.inf not in values):
        return None
    uids = data["uid"]
    if len(set(uids)) != len(uids):
        seen = set()
        for uid in uids:
            if uid in seen:
                raise ArchiveError(f"duplicate operation uid {uid!r}")
            seen.add(uid)
    table = {"layout": COLUMNAR_LAYOUT, "count": len(uids)}
    for name in OPERATION_COLUMNS + INFO_COLUMNS:
        table[name] = data[name]
    return table


def _is_preorder(parents: List[int]) -> bool:
    """Whether a ``parent < i`` array lists its tree in pre-order: each
    operation's parent is on the path from the root to its predecessor."""
    path = [0]
    try:
        for i in range(1, len(parents)):
            parent = parents[i]
            while path[-1] != parent:
                path.pop()
            path.append(i)
    except IndexError:
        return False
    return True


def is_columnar(operations: Any) -> bool:
    """Whether an operations block uses the columnar (v3) layout.

    Dispatch is by shape, not by the document's declared version, so a
    mislabeled or relabeled document still decodes.
    """
    return isinstance(operations, dict) and (
        operations.get("layout") == COLUMNAR_LAYOUT
        or isinstance(operations.get("uid"), list)
    )


def payload_checksum(document: Dict[str, Any]) -> str:
    """SHA-256 over the canonical payload of an archive document.

    The payload is everything except the envelope (``format``,
    ``format_version``) and the ``integrity`` block itself, rendered
    with sorted keys and compact separators so the digest is stable
    under re-serialization.
    """
    payload = {
        key: document.get(key)
        for key in ("job_id", "platform", "metadata", "environment",
                    "operations")
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _renderings(value: Any) -> Tuple[str, str]:
    """(canonical, document) text of one piece of an archive.

    Text without a ``{`` holds no mapping, so key order cannot change
    it and the one rendering serves both.
    """
    canonical = SORTED_ENCODER.encode(value)
    if "{" in canonical:
        return canonical, _DOCUMENT_ENCODER.encode(value)
    return canonical, canonical


def _object(members: Iterable[Tuple[str, str]]) -> str:
    """A JSON object spliced from (plain key, rendered value) pairs."""
    return "{" + ",".join(f'"{key}":{text}' for key, text in members) + "}"


_SAMPLE_CANONICAL = '{{"cpu":{},"node":{},"ts":{}}}'.format
_SAMPLE_DOCUMENT = '{{"ts":{},"node":{},"cpu":{}}}'.format
#: ``repr`` of the floats JSON has no number for.
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _environment_renderings(
    samples: List[Tuple[Any, Any, Any]],
) -> Optional[Tuple[str, str]]:
    """(canonical, document) text of the environment, by column.

    Byte-identical to rendering the ``{ts, node, cpu}`` sample objects:
    numbers print as the encoder prints them (``float.__repr__``,
    ``int.__repr__``) and each distinct node is encoded once.  None when
    some sample needs the general encoder — a non-finite or non-number
    value, a node that is not a ``str``, a sample that is not a 3-tuple.
    """
    if not samples:
        return "[]", "[]"
    if set(map(type, samples)) != {tuple} or set(map(len, samples)) != {3}:
        return None
    ts, nodes, cpu = zip(*samples)
    if (not set(map(type, ts + cpu)) <= {int, float}
            or set(map(type, nodes)) != {str}):
        return None
    ts_text = list(map(repr, ts))
    cpu_text = list(map(repr, cpu))
    if not (_NON_FINITE.isdisjoint(ts_text)
            and _NON_FINITE.isdisjoint(cpu_text)):
        return None
    names = {node: encode_basestring_ascii(node) for node in set(nodes)}
    node_text = list(map(names.__getitem__, nodes))
    return (
        "[" + ",".join(map(_SAMPLE_CANONICAL, cpu_text, node_text, ts_text))
        + "]",
        "[" + ",".join(map(_SAMPLE_DOCUMENT, ts_text, node_text, cpu_text))
        + "]",
    )


def archive_columns(archive: PerformanceArchive) -> Dict[str, Any]:
    """The archive's v3 operations block: the one it holds, else its
    tree's columns."""
    table = archive.table
    return operations_to_columns(archive.root) if table is None else table


def _environment_samples(archive: PerformanceArchive) -> List[Dict[str, Any]]:
    """The archive's environment as ``{ts, node, cpu}`` sample objects."""
    return [{"ts": ts, "node": node, "cpu": cpu}
            for ts, node, cpu in archive.env_samples]


def render_archive(archive: PerformanceArchive) -> Tuple[Dict[str, Any], str]:
    """The archive's document mapping (with checksum) and its JSON text.

    Each piece — every column list, the metadata, the environment — is
    rendered once; the canonical payload that is hashed and the document
    text are both spliced from those pieces, byte-identical to
    :func:`payload_checksum` over the document and to ``json.dumps`` of
    it.  Only pieces holding a mapping (metadata, dict-valued infos) are
    rendered a second time, in insertion order; the environment samples
    are rendered by column, so the mapping's ``environment`` stays None
    unless a sample needed the general encoder (its readers go through
    :func:`archive_to_document`).  The operations are the archive's own
    table when it holds one (:func:`archive_columns`).

    ``operations`` comes before ``environment`` so the payload most
    valuable to salvage sits earliest in a crash-truncated file.
    """
    operations = archive_columns(archive)
    document = {
        "format": "granula-archive",
        "format_version": PerformanceArchive.FORMAT_VERSION,
        "job_id": archive.job_id,
        "platform": archive.platform,
        "metadata": archive.metadata,
        "operations": operations,
        "environment": None,
    }
    pieces = {key: _renderings(document[key])
              for key in ("job_id", "platform", "metadata")}
    pieces["environment"] = _environment_renderings(archive.env_samples)
    if pieces["environment"] is None:
        document["environment"] = _environment_samples(archive)
        pieces["environment"] = _renderings(document["environment"])
    columns = {name: _renderings(value)
               for name, value in operations.items()}
    pieces["operations"] = (
        _object(sorted((name, c) for name, (c, _) in columns.items())),
        _object((name, d) for name, (_, d) in columns.items()),
    )
    payload = _object(sorted((key, c) for key, (c, _) in pieces.items()))
    document["integrity"] = {
        "algorithm": CHECKSUM_ALGORITHM,
        "checksum": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }
    text = _object(
        (key, pieces[key][1] if key in pieces
         else _DOCUMENT_ENCODER.encode(value))
        for key, value in document.items()
    )
    return document, text


def archive_to_document(archive: PerformanceArchive) -> Dict[str, Any]:
    """The archive as its standardized document mapping (with checksum).

    Its column lists are copies: editing them leaves a table-born
    archive as it was.
    """
    document = render_archive(archive)[0]
    if document["environment"] is None:
        document["environment"] = _environment_samples(archive)
    document["operations"] = {
        name: list(value) if isinstance(value, list) else value
        for name, value in document["operations"].items()
    }
    return document


def archive_to_json(archive: PerformanceArchive) -> str:
    """Serialize an archive to its standardized JSON text.

    The text is compact: the format is machine oriented, and compact
    output keeps the C encoder engaged.
    """
    return render_archive(archive)[1]


def document_to_archive(document: Dict[str, Any]) -> PerformanceArchive:
    """Build the archive from an already-parsed document (no checksum).

    A v3 document whose columns re-render as they stand yields a
    table-born archive holding them (its tree is built on first use);
    anything else is decoded into a tree now.
    """
    operations = document["operations"]
    table = root = None
    if is_columnar(operations):
        validate_columns(operations)
        table = canonical_table(operations)
        if table is None:
            root = tree_of_table(operations)
    else:
        root = _operation_from_dict(operations)
    env = [
        (sample["ts"], sample["node"], sample["cpu"])
        for sample in document.get("environment", [])
    ]
    fields = dict(
        job_id=document["job_id"],
        platform=document.get("platform", ""),
        metadata=document.get("metadata", {}),
        env_samples=env,
    )
    if table is not None:
        return PerformanceArchive.from_table(table=table, **fields)
    return PerformanceArchive(root=root, **fields)


def parse_document(text: str, verify: bool = True) -> Dict[str, Any]:
    """Parse and vet archive text into its document mapping.

    Checks the envelope (format marker, supported version) and, with
    ``verify``, the integrity checksum — everything
    :func:`archive_from_json` checks short of building the operation
    tree.  Lazy consumers (the store index, point queries) use this to
    read headline fields without paying for tree construction.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"archive is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ArchiveError(
            f"archive document must be an object, got "
            f"{type(document).__name__}"
        )
    if document.get("format") != "granula-archive":
        raise ArchiveError(
            f"not a granula archive (format={document.get('format')!r})"
        )
    version = document.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise ArchiveIntegrityError(
            f"unsupported archive format version {version!r} "
            f"(supported: {list(SUPPORTED_VERSIONS)})"
        )
    if verify:
        integrity = document.get("integrity")
        if isinstance(integrity, dict) and "checksum" in integrity:
            expected = integrity["checksum"]
            actual = payload_checksum(document)
            if expected != actual:
                raise ArchiveIntegrityError(
                    f"archive payload checksum mismatch: stored "
                    f"{expected!r}, computed {actual!r} — the file was "
                    f"modified or corrupted after it was written"
                )
    return document


def archive_from_json(text: str, verify: bool = True) -> PerformanceArchive:
    """Parse the standardized JSON text back into an archive.

    Raises typed errors on damage (:class:`ArchiveIntegrityError` on a
    checksum mismatch or unsupported version); for best-effort loading
    of damaged archives use
    :func:`repro.core.archive.integrity.load_salvaged` instead.
    """
    return document_to_archive(parse_document(text, verify=verify))
