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
from itertools import repeat
from typing import Any, Dict, Iterable, List, Tuple

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


def operations_from_columns(data: Dict[str, Any]) -> ArchivedOperation:
    """Rebuild the operation tree from its columnar encoding (strict)."""
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

    ops: List[ArchivedOperation] = []
    for i in range(count):
        op = ArchivedOperation(
            uid=columns["uid"][i],
            mission=columns["mission"][i],
            actor=columns["actor"][i],
            start_time=columns["start"][i],
            end_time=columns["end"][i],
        )
        parent_index = columns["parent"][i]
        if i == 0:
            if parent_index != -1:
                raise ArchiveError(
                    f"columnar operations: root parent is "
                    f"{parent_index!r}, expected -1"
                )
        else:
            if not isinstance(parent_index, int) or not (
                0 <= parent_index < i
            ):
                raise ArchiveError(
                    f"columnar operations: operation {i} has parent "
                    f"{parent_index!r}; pre-order requires 0 <= parent < {i}"
                )
            op.parent = ops[parent_index]
            ops[parent_index].children.append(op)
        ops.append(op)
    for op_index, key, value in zip(
        infos["info_op"], infos["info_key"], infos["info_value"]
    ):
        if not isinstance(op_index, int) or not (0 <= op_index < count):
            raise ArchiveError(
                f"columnar operations: info row references operation "
                f"{op_index!r} of {count}"
            )
        ops[op_index].infos[key] = _decode_value(value)
    return ops[0]


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


def render_archive(archive: PerformanceArchive) -> Tuple[Dict[str, Any], str]:
    """The archive's document mapping (with checksum) and its JSON text.

    Each piece — every column list, the metadata, the environment — is
    rendered once; the canonical payload that is hashed and the document
    text are both spliced from those pieces, byte-identical to
    :func:`payload_checksum` over the document and to ``json.dumps`` of
    it.  Only pieces holding a mapping (metadata, environment samples,
    dict-valued infos) are rendered a second time, in insertion order.

    ``operations`` comes before ``environment`` so the payload most
    valuable to salvage sits earliest in a crash-truncated file.
    """
    operations = operations_to_columns(archive.root)
    document = {
        "format": "granula-archive",
        "format_version": PerformanceArchive.FORMAT_VERSION,
        "job_id": archive.job_id,
        "platform": archive.platform,
        "metadata": archive.metadata,
        "operations": operations,
        "environment": [
            {"ts": ts, "node": node, "cpu": cpu}
            for ts, node, cpu in archive.env_samples
        ],
    }
    pieces = {key: _renderings(document[key])
              for key in ("job_id", "platform", "metadata", "environment")}
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
    """The archive as its standardized document mapping (with checksum)."""
    return render_archive(archive)[0]


def archive_to_json(archive: PerformanceArchive) -> str:
    """Serialize an archive to its standardized JSON text.

    The text is compact: the format is machine oriented, and compact
    output keeps the C encoder engaged.
    """
    return render_archive(archive)[1]


def document_to_archive(document: Dict[str, Any]) -> PerformanceArchive:
    """Build the archive from an already-parsed document (no checksum)."""
    operations = document["operations"]
    if is_columnar(operations):
        root = operations_from_columns(operations)
    else:
        root = _operation_from_dict(operations)
    env = [
        (sample["ts"], sample["node"], sample["cpu"])
        for sample in document.get("environment", [])
    ]
    return PerformanceArchive(
        job_id=document["job_id"],
        root=root,
        platform=document.get("platform", ""),
        metadata=document.get("metadata", {}),
        env_samples=env,
    )


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
