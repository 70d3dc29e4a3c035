"""Plain ``json.dumps`` renderers: the reference the archive writers match.

``serialize.render_archive`` splices the document text and the hashed
payload from per-column renderings, and ``columnar.build_sidecar``
encodes info values through exact-type fast paths.  These are the
straightforward renderings they replace — every value through
``json.dumps``, the whole document at once — kept here so property
tests can demand byte identity with them.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.columnar import (
    _CODED,
    _PREAMBLE,
    _TS_FLOAT,
    _TS_INT,
    MAGIC,
    SIDECAR_VERSION,
    SidecarError,
    _align,
)
from repro.core.archive.serialize import (
    CHECKSUM_ALGORITHM,
    COLUMNAR_LAYOUT,
    _decode_value,
)


def encode_value(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str) and value.lstrip("\\") in (
        "Infinity", "-Infinity",
    ):
        return "\\" + value
    return value


def operations_to_columns(root: ArchivedOperation) -> Dict[str, Any]:
    columns: Dict[str, List[Any]] = {
        name: [] for name in ("uid", "mission", "actor", "parent", "start",
                              "end", "info_op", "info_key", "info_value")
    }
    stack = [(root, -1)]
    while stack:
        op, parent_index = stack.pop()
        index = len(columns["uid"])
        columns["uid"].append(op.uid)
        columns["mission"].append(op.mission)
        columns["actor"].append(op.actor)
        columns["parent"].append(parent_index)
        columns["start"].append(op.start_time)
        columns["end"].append(op.end_time)
        for key, value in op.infos.items():
            columns["info_op"].append(index)
            columns["info_key"].append(key)
            columns["info_value"].append(encode_value(value))
        stack.extend((child, index) for child in reversed(op.children))
    return {"layout": COLUMNAR_LAYOUT, "count": len(columns["uid"]),
            **columns}


def payload_text(document: Mapping[str, Any]) -> str:
    """The canonical payload whose SHA-256 is the archive checksum."""
    payload = {
        key: document.get(key)
        for key in ("job_id", "platform", "metadata", "environment",
                    "operations")
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def archive_document(archive: PerformanceArchive) -> Dict[str, Any]:
    document = {
        "format": "granula-archive",
        "format_version": PerformanceArchive.FORMAT_VERSION,
        "job_id": archive.job_id,
        "platform": archive.platform,
        "metadata": archive.metadata,
        "operations": operations_to_columns(archive.root),
        "environment": [
            {"ts": ts, "node": node, "cpu": cpu}
            for ts, node, cpu in archive.env_samples
        ],
    }
    document["integrity"] = {
        "algorithm": CHECKSUM_ALGORITHM,
        "checksum": hashlib.sha256(
            payload_text(document).encode("utf-8")).hexdigest(),
    }
    return document


def archive_json(archive: PerformanceArchive) -> str:
    return json.dumps(archive_document(archive), separators=(",", ":"))


def _heap(strings: List[str]):
    blobs = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(blobs) + 1, dtype="<i8")
    np.cumsum([len(b) for b in blobs], out=offsets[1:])
    return offsets, b"".join(blobs)


def _timestamps(values: List[Any]):
    kinds = np.zeros(len(values), dtype="|u1")
    column = np.zeros(len(values), dtype="<f8")
    for i, value in enumerate(values):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SidecarError(f"timestamp {value!r} is not encodable")
        if isinstance(value, int):
            if int(float(value)) != value:
                raise SidecarError(f"integer timestamp {value!r} inexact")
            kinds[i] = _TS_INT
        else:
            kinds[i] = _TS_FLOAT
        column[i] = float(value)
    return column, kinds


def value_heap(values: List[Any]):
    """(per-value JSON, numeric shadow, shadow mask) of info values."""
    texts = [json.dumps(value, sort_keys=True, separators=(",", ":"))
             for value in values]
    isnum = np.zeros(len(texts), dtype="|u1")
    num = np.zeros(len(texts), dtype="<f8")
    for row, value in enumerate(values):
        decoded = _decode_value(value)
        if isinstance(decoded, bool):
            continue
        try:
            num[row] = float(decoded)
        except (TypeError, ValueError):
            continue
        isnum[row] = 1
    return texts, num, isnum


def build_sidecar(columns: Mapping[str, Any], archive_checksum: str,
                  extra: Optional[Mapping[str, Any]] = None) -> bytes:
    blobs: Dict[str, np.ndarray] = {}
    blobs["parent"] = np.asarray(columns["parent"], dtype="<i8")
    blobs["start"], blobs["start_kind"] = _timestamps(list(columns["start"]))
    blobs["end"], blobs["end_kind"] = _timestamps(list(columns["end"]))
    offsets, heap = _heap(columns["uid"])
    blobs["uid_offsets"] = offsets
    blobs["uid_heap"] = np.frombuffer(heap, dtype="|u1")
    for name in _CODED:
        index: Dict[str, int] = {}
        codes = [index.setdefault(s, len(index)) for s in columns[name]]
        offsets, heap = _heap(list(index))
        blobs[f"{name}_dict_offsets"] = offsets
        blobs[f"{name}_dict_heap"] = np.frombuffer(heap, dtype="|u1")
        blobs[f"{name}_codes"] = np.asarray(codes, dtype="<i4")
    blobs["info_op"] = np.asarray(columns["info_op"], dtype="<i8")
    texts, num, isnum = value_heap(columns["info_value"])
    offsets, heap = _heap(texts)
    blobs["info_value_offsets"] = offsets
    blobs["info_value_heap"] = np.frombuffer(heap, dtype="|u1")
    blobs["info_num"] = num
    blobs["info_isnum"] = isnum
    directory: Dict[str, Dict[str, Any]] = {}
    data = bytearray()
    for name, array in blobs.items():
        offset = _align(len(data))
        data.extend(b"\x00" * (offset - len(data)))
        raw = array.tobytes()
        directory[name] = {"offset": offset, "nbytes": len(raw),
                           "dtype": array.dtype.str}
        data.extend(raw)
    header: Dict[str, Any] = {
        "archive_checksum": archive_checksum,
        "count": int(columns["count"]),
        "info_count": len(texts),
        "data_sha256": hashlib.sha256(bytes(data)).hexdigest(),
        "columns": directory,
    }
    if extra is not None:
        header["index"] = dict(extra)
    header_json = json.dumps(header, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    out = bytearray(_PREAMBLE.pack(MAGIC, SIDECAR_VERSION,
                                   len(header_json), 0))
    out.extend(header_json)
    out.extend(b"\x00" * (_align(len(out)) - len(out)))
    out.extend(data)
    return bytes(out)
