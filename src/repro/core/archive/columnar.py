"""The archive query core: column tables, ``.gcol`` sidecars, views.

Every archive query runs on :class:`_ColumnTable`, an archive's
operations as parallel pre-order column arrays, built through one
encoder (:func:`build_sidecar`) and one set of checks from either of two
sources: the mmap'd ``.gcol`` sidecar (:func:`load_sidecar`), or a v3
``operations`` mapping encoded in memory (:func:`table_of_columns`) — a
JSON document's own columns (:func:`document_view`) or a tree's
(:class:`~repro.core.archive.query.ArchiveQuery`).

The sidecar holds the columns as raw little-endian bytes: numeric
columns land as aligned numpy blobs that ``np.frombuffer`` exposes
without copying, uids and info values become offset-indexed UTF-8
heaps, and the heavily repeated missions, actors and info keys become a
per-archive dictionary plus one integer code per row.
:class:`ColumnarArchiveView` answers the archive-query surface straight
off those columns, with no
:class:`~repro.core.archive.archive.ArchivedOperation`
materialization.  Selectors evaluate once per distinct string and index
the result with the codes, so Python work scales with the dictionary,
numpy with rows.  Path patterns are segment aware
(:func:`translate_path_pattern`).

File layout (all integers little-endian)::

    0   magic  b"GCOL"
    4   u32    sidecar layout version (2)
    8   u32    header length H
    12  u32    reserved (0)
    16  JSON header, H bytes:
          archive_checksum   payload checksum of the JSON archive this
                             sidecar belongs to (binds the pair)
          count, info_count  row counts
          data_sha256        checksum over the whole data region
          column_sha256      optional: base64 of each column's 32-byte
                             SHA-256, in the order ``columns`` lists them
          columns            name -> {offset (relative), nbytes, dtype}
          index              optional store index entry + metadata
    align64(16 + H)   column blobs, each aligned to 64 bytes:
          parent <i8; start, end <f8 with start_kind, end_kind |u1
          uid_offsets <i8 + uid_heap |u1
          {mission,actor,info_key}_dict_offsets <i8 + _dict_heap |u1
              (distinct strings, first-seen order)
          {mission,actor}_codes <i4 per operation row
          info_op <i8, info_key_codes <i4 per info row
          info_value_offsets <i8 + info_value_heap |u1 (compact JSON)
          info_num <f8 + info_isnum |u1 (numeric shadow of the values)

Version 1 stored mission, actor and info_key as per-row heaps
(``{name}_offsets`` + ``{name}_heap``); such files still load — the
decoder turns each heap into the same (dictionary, codes) pair at open.

The sidecar is strictly an accelerator: the JSON archive remains the
durable truth, and any damage (bad magic, checksum mismatch, a stale
``archive_checksum``, a row pointing outside its table) makes the
loader raise :class:`SidecarError` so callers read the JSON document's
own columns instead.  Point queries verify the whole file at open;
fleet scans verify each column on its first read (:func:`load_sidecar`).
"""

from __future__ import annotations

import base64
import copy
import functools
import hashlib
import json
import mmap
import os
import re
import struct
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Pattern,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.archive.serialize import (
    INFO_COLUMNS,
    OPERATION_COLUMNS,
    SORTED_ENCODER,
    _decode_value,
    document_to_archive,
    is_columnar,
    operations_to_columns,
)
from repro.core.model.operation import split_iteration
from repro.errors import ArchiveError, QueryError
from repro.platforms.vecops import fold_add

MAGIC = b"GCOL"
SIDECAR_VERSION = 2
#: Layout versions the loader accepts (1: per-row string heaps).
READABLE_VERSIONS = (1, SIDECAR_VERSION)
ALIGNMENT = 64
SIDECAR_SUFFIX = ".gcol"

_PREAMBLE = struct.Struct("<4sIII")

#: Numeric dtypes a sidecar may carry (guards the decoder against a
#: hand-edited header smuggling object dtypes in).
_DTYPES = {"<i8": np.dtype("<i8"), "<i4": np.dtype("<i4"),
           "<f8": np.dtype("<f8"), "|u1": np.dtype("|u1")}

#: String columns stored as a dictionary plus one code per row.
_CODED = ("mission", "actor", "info_key")

#: ``split_iteration`` memoised across archives: a fleet's mission and
#: actor names repeat in every job, so each is split once per process.
_split = functools.lru_cache(maxsize=1 << 14)(split_iteration)

#: The JSON encoder's own string quoting (ASCII-escaped, as every
#: rendering here is).
_encode_string = json.encoder.encode_basestring_ascii

# Placeholders for wildcard constructs, substituted after re.escape so
# nothing in the pattern can smuggle raw regex syntax through.
_GLOBSTAR = "\x00"
_STAR = "\x01"
_QMARK = "\x02"


def translate_path_pattern(pattern: str) -> Pattern[str]:
    """Compile a mission-path glob into an anchored regex.

    ``*`` matches any run of characters within one path segment,
    ``?`` one character within a segment, and ``**`` — which must span
    a whole segment — any number of segments (including none), so
    ``Job/**/Compute-*`` selects ``Compute-*`` operations at any depth
    under ``Job``.
    """
    if not pattern:
        raise QueryError("empty path pattern")
    for segment in pattern.split("/"):
        if "**" in segment and segment != "**":
            raise QueryError(
                f"bad path pattern {pattern!r}: ** must span a whole "
                f"path segment (got {segment!r})"
            )
    escaped = (
        re.escape(pattern)
        .replace(re.escape("**"), _GLOBSTAR)
        .replace(re.escape("*"), _STAR)
        .replace(re.escape("?"), _QMARK)
    )
    # Substitution order matters: a globstar adjacent to a separator
    # absorbs that separator, so `a/**/b` also matches `a/b` and
    # `a/**` also matches `a`.
    regex = (
        escaped
        .replace(_GLOBSTAR + "/", r"(?:[^/]+/)*")
        .replace("/" + _GLOBSTAR, r"(?:/[^/]+)*")
        .replace(_GLOBSTAR, r"[^/]*(?:/[^/]+)*")
        .replace(_STAR, r"[^/]*")
        .replace(_QMARK, r"[^/]")
    )
    return re.compile(regex + r"\Z")


def _numeric(value: Any, info: str, path: str) -> float:
    """Coerce one info value for aggregation, or raise a typed error
    naming the operation's mission ``path``."""
    if isinstance(value, bool):
        raise QueryError(
            f"info {info!r} of {path} is a boolean ({value!r}), "
            f"not a number"
        )
    try:
        return float(value)
    except (TypeError, ValueError):
        raise QueryError(
            f"info {info!r} of {path} is not numeric: {value!r}"
        ) from None


class SidecarError(ArchiveError):
    """A sidecar is unreadable, damaged, or stale; use the JSON."""


def sidecar_path(archive_path: Union[str, Path]) -> Path:
    """The sidecar sibling of an archive JSON path."""
    path = Path(archive_path)
    return path.with_name(path.stem + SIDECAR_SUFFIX)


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _heap(strings: Sequence[str]) -> (np.ndarray, bytes):
    """Offset-index + UTF-8 blob encoding of a string column."""
    text = "".join(strings)
    if text.isascii():
        # One byte per character: the lengths are the byte lengths.
        lengths = list(map(len, strings))
        blob = text.encode("ascii")
    else:
        blobs = [s.encode("utf-8") for s in strings]
        lengths = list(map(len, blobs))
        blob = b"".join(blobs)
    offsets = np.zeros(len(lengths) + 1, dtype="<i8")
    np.cumsum(lengths, out=offsets[1:])
    return offsets, blob


def _decode_heap(offsets: np.ndarray, heap: np.ndarray) -> List[str]:
    """The strings of an offset-indexed UTF-8 heap."""
    blob = heap.tobytes()
    bounds = offsets.tolist()
    if blob.isascii():
        # Byte offsets are character offsets: decode the heap once and
        # slice the str instead of UTF-8-decoding every slice.
        text = blob.decode("ascii")
        return [text[bounds[i]:bounds[i + 1]]
                for i in range(len(bounds) - 1)]
    return [blob[bounds[i]:bounds[i + 1]].decode("utf-8")
            for i in range(len(bounds) - 1)]


def _dictionary(strings: Sequence[str]) -> Tuple[List[str], np.ndarray]:
    """(distinct strings in first-seen order, ``<i4`` code per string)."""
    words = list(dict.fromkeys(strings))
    code_of = {word: code for code, word in enumerate(words)}
    return words, np.fromiter(map(code_of.__getitem__, strings),
                              dtype="<i4", count=len(strings))


#: Timestamp kinds: absent, float, or int (ints round-trip exactly so
#: a ``start: 5`` renders back as ``5``, never ``5.0``).
_TS_NULL, _TS_FLOAT, _TS_INT = 0, 1, 2


def _timestamp_column(values: Sequence[Any]) -> (np.ndarray, np.ndarray):
    """(float64 column, uint8 kind mask) for optional timestamps.

    Only ``None``, floats, and exactly-representable ints are
    encodable; anything else (a bool, a string, an out-of-range int)
    raises :class:`SidecarError` naming the value, so the writer skips
    the sidecar (and an in-memory table refuses the query).
    """
    if set(map(type, values)) <= {float}:
        return (np.array(values, dtype="<f8"),
                np.full(len(values), _TS_FLOAT, dtype="|u1"))
    kinds = np.zeros(len(values), dtype="|u1")
    column = np.zeros(len(values), dtype="<f8")
    for i, value in enumerate(values):
        if value is None:
            continue
        if type(value) is float:
            kinds[i] = _TS_FLOAT
            column[i] = value
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SidecarError(
                f"timestamp {value!r} is not encodable: a timestamp is "
                f"null, a float or a (non-bool) int"
            )
        if isinstance(value, int):
            if int(float(value)) != value:
                raise SidecarError(
                    f"integer timestamp {value!r} exceeds exact "
                    f"float64 range"
                )
            kinds[i] = _TS_INT
        else:
            kinds[i] = _TS_FLOAT
        column[i] = float(value)
    return column, kinds


def _encode_values(
    values: Sequence[Any],
) -> Tuple[List[str], List[float], List[int]]:
    """(value-heap text, numeric shadow, shadow mask) of info values.

    One pass: the text is each value's compact sorted-key JSON, and the
    shadow is the decoded value as a float where aggregation's coercion
    (:func:`_numeric`) would accept it (numbers and numeric strings,
    never booleans), 0 with a clear mask elsewhere — it lets
    total/mean/top skip JSON decoding.  The exact type picks the
    encoder: a finite float is its ``repr``, a string goes through the C
    string encoder, anything else through the sorted-key encoder.
    """
    texts: List[str] = []
    numbers: List[float] = []
    flags: List[int] = []
    for value in values:
        kind = type(value)
        if kind is float and value - value == 0.0:
            texts.append(float.__repr__(value))
            numbers.append(value)
            flags.append(1)
            continue
        if kind is str:
            texts.append(_encode_string(value))
        elif kind is int:
            texts.append(int.__repr__(value))
        else:
            texts.append(SORTED_ENCODER.encode(value))
        decoded = _decode_value(value)
        if not isinstance(decoded, bool):
            try:
                numbers.append(float(decoded))
                flags.append(1)
                continue
            except (TypeError, ValueError):
                pass
        numbers.append(0.0)
        flags.append(0)
    return texts, numbers, flags


def build_sidecar(
    columns: Mapping[str, Any],
    archive_checksum: str,
    extra: Optional[Mapping[str, Any]] = None,
    checksums: bool = True,
) -> bytes:
    """Serialize a columnar operations block into sidecar bytes.

    ``columns`` is the v3 ``operations`` mapping (as produced by
    :func:`repro.core.archive.serialize.operations_to_columns` or read
    from a v3 document); info values are the JSON-encoded
    representation, stored verbatim as compact JSON in the value heap so
    they decode back to exactly the tree decoder's values.

    ``extra`` is an optional JSON-able mapping landed in the header
    under ``"index"`` — the store puts its index entry (and the
    archive's metadata) there so :meth:`ArchiveStore.rebuild_index` and
    fleet scans can skip the JSON parse entirely.  The
    ``archive_checksum`` binding makes the copy trustworthy: a header
    whose checksum matches the JSON tail describes those exact bytes.

    ``checksums`` records the data region's and every column's SHA-256
    (:func:`table_of_columns`' bytes never leave the process).
    """
    count = int(columns["count"])
    blobs: Dict[str, np.ndarray] = {}
    blobs["parent"] = np.asarray(columns["parent"], dtype="<i8")
    blobs["start"], blobs["start_kind"] = _timestamp_column(columns["start"])
    blobs["end"], blobs["end_kind"] = _timestamp_column(columns["end"])
    offsets, heap = _heap(columns["uid"])
    blobs["uid_offsets"] = offsets
    blobs["uid_heap"] = np.frombuffer(heap, dtype="|u1")
    for name in _CODED:
        words, codes = _dictionary(columns[name])
        offsets, heap = _heap(words)
        blobs[f"{name}_dict_offsets"] = offsets
        blobs[f"{name}_dict_heap"] = np.frombuffer(heap, dtype="|u1")
        blobs[f"{name}_codes"] = codes
    blobs["info_op"] = np.asarray(columns["info_op"], dtype="<i8")
    encoded_values, numbers, flags = _encode_values(columns["info_value"])
    value_offsets, value_heap = _heap(encoded_values)
    blobs["info_value_offsets"] = value_offsets
    blobs["info_value_heap"] = np.frombuffer(value_heap, dtype="|u1")
    blobs["info_num"] = np.array(numbers, dtype="<f8")
    blobs["info_isnum"] = np.array(flags, dtype="|u1")

    directory: Dict[str, Dict[str, Any]] = {}
    digests: Dict[str, bytes] = {}
    data = bytearray()
    for name, array in blobs.items():
        data.extend(bytes(_align(len(data)) - len(data)))
        raw = array.tobytes()
        directory[name] = {
            "offset": len(data),
            "nbytes": len(raw),
            "dtype": array.dtype.str,
        }
        if checksums:
            digests[name] = hashlib.sha256(raw).digest()
        data.extend(raw)
    header: Dict[str, Any] = {
        "archive_checksum": archive_checksum,
        "count": count,
        "info_count": len(encoded_values),
        "columns": directory,
    }
    if checksums:
        header["data_sha256"] = hashlib.sha256(data).hexdigest()
        # In the directory's order as written (sort_keys, below).
        header["column_sha256"] = base64.b64encode(
            b"".join(digests[name] for name in sorted(digests))
        ).decode("ascii")
    if extra is not None:
        header["index"] = dict(extra)
    header_json = json.dumps(header, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    data_offset = _align(_PREAMBLE.size + len(header_json))
    preamble = _PREAMBLE.pack(MAGIC, SIDECAR_VERSION, len(header_json), 0)
    out = bytearray(preamble)
    out.extend(header_json)
    out.extend(b"\x00" * (data_offset - len(out)))
    out.extend(data)
    return bytes(out)


# -- loading -----------------------------------------------------------------


def _parse_header(raw: Any, name: str) -> Dict[str, Any]:
    """Vet a sidecar's preamble + JSON header from its leading bytes.

    ``raw`` is any sliceable byte buffer that starts at the preamble —
    the mapped file itself, or just the bytes read up to the header's
    end.  Returns the header with ``version`` and ``data_offset``
    added.
    """
    if len(raw) < _PREAMBLE.size:
        raise SidecarError(f"sidecar {name}: truncated preamble")
    magic, version, header_len, _reserved = _PREAMBLE.unpack_from(raw)
    if magic != MAGIC:
        raise SidecarError(f"sidecar {name}: bad magic {magic!r}")
    if version not in READABLE_VERSIONS:
        raise SidecarError(f"sidecar {name}: unsupported version {version}")
    end = _PREAMBLE.size + header_len
    if len(raw) < end:
        raise SidecarError(f"sidecar {name}: truncated header")
    try:
        header = json.loads(bytes(raw[_PREAMBLE.size:end]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SidecarError(
            f"sidecar {name}: header is not valid JSON ({exc})"
        ) from None
    if not isinstance(header, dict) or not isinstance(
        header.get("columns"), dict
    ):
        raise SidecarError(f"sidecar {name}: malformed header")
    header["version"] = version
    header["data_offset"] = _align(end)
    return header


def read_sidecar_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and vet a sidecar's preamble + JSON header (no data read)."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            raw = handle.read(_PREAMBLE.size)
            if len(raw) == _PREAMBLE.size:
                raw += handle.read(_PREAMBLE.unpack(raw)[2])
    except OSError as exc:
        raise SidecarError(f"cannot read sidecar {path}: {exc}") from None
    return _parse_header(raw, path.name)


def _column_digests(header: Dict[str, Any], name: str) -> Optional[bytes]:
    """The header's packed column SHA-256s (None: not recorded)."""
    packed = header.get("column_sha256")
    try:
        digests = None if packed is None else base64.b64decode(packed)
    except (TypeError, ValueError):
        digests = b""
    if digests is not None and len(digests) != 32 * len(header["columns"]):
        raise SidecarError(f"sidecar {name}: malformed column digests")
    return digests


def load_sidecar(
    path: Union[str, Path],
    expected_checksum: Optional[str] = None,
    lazy: bool = False,
) -> "ColumnarArchiveView":
    """Memory-map a sidecar into a checksum-verified query view.

    The file is opened once: the header is parsed off the same mapping
    the columns are served from.  ``expected_checksum`` is the JSON
    archive's payload checksum; a sidecar written for different archive
    bytes is *stale* and raises :class:`SidecarError` — callers read
    the JSON document instead.  A missing file raises
    :class:`FileNotFoundError`.

    By default (a point query) the data region's SHA-256 is recomputed
    and every column checked before the view is returned.  With
    ``lazy`` (a fleet scan) each column is hashed against its digest and
    checked on its first read, which raises :class:`SidecarError` if it
    is damaged; a sidecar without column digests is hashed whole at open.
    """
    name = os.path.basename(path)
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            buffer = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise SidecarError(f"cannot map sidecar {path}: {exc}") from None
    table = None
    try:
        header = _parse_header(buffer, name)
        if expected_checksum is not None and (
            header.get("archive_checksum") != expected_checksum
        ):
            raise SidecarError(
                f"sidecar {name} is stale: written for archive "
                f"checksum {header.get('archive_checksum')!r}, the JSON "
                f"now has {expected_checksum!r}"
            )
        data_offset = header["data_offset"]
        digests = _column_digests(header, name)
        if not lazy or digests is None:
            digest = hashlib.sha256(
                memoryview(buffer)[data_offset:]
            ).hexdigest()
            if digest != header.get("data_sha256"):
                raise SidecarError(
                    f"sidecar {name}: data checksum mismatch (stored "
                    f"{header.get('data_sha256')!r}, computed {digest!r})"
                    + _damaged_columns(header, buffer, digests)
                )
            digests = None
        table = _ColumnTable(header, buffer, data_offset, digests)
        if not lazy:
            table.read_all()
    except SidecarError as exc:
        # The failed frames still view the mapping; dropping the
        # traceback frees them, so the mapping can close right away.
        error = exc.with_traceback(None)
    else:
        return ColumnarArchiveView(table)
    if table is not None:
        table.close()  # Drops the columns read so far, then the mapping.
    buffer.close()
    raise error


def _damaged_columns(header: Dict[str, Any], buffer: Any,
                     digests: Optional[bytes]) -> str:
    """The mismatch message's list of columns failing their digests."""
    damaged = []
    table = _ColumnTable(header, buffer, header["data_offset"], digests)
    for column in header["columns"] if digests else ():
        try:
            table.column(column)
        except SidecarError:
            damaged.append(column)
    return f"; damaged column(s): {', '.join(damaged)}" if damaged else ""


def table_of_columns(
    columns: Mapping[str, Any],
    extra: Optional[Mapping[str, Any]] = None,
) -> "_ColumnTable":
    """A column table over a v3 ``operations`` mapping, built in memory.

    :func:`build_sidecar` encodes it and the loader's header parse and
    :class:`_ColumnTable` decode it, so it passes every check a sidecar
    file passes (plus the tree decoder's list-column and unique-uid
    checks); only the SHA-256s are skipped, as the bytes never left
    the process.  An un-encodable timestamp (a bool, an int beyond
    2**53) raises :class:`QueryError` naming it; any other defect
    raises :class:`ArchiveError`.
    """
    for name in OPERATION_COLUMNS + INFO_COLUMNS:
        if not isinstance(columns.get(name), list):
            raise ArchiveError(f"columnar operations: {name} is not a list")
    try:
        if len(set(columns["uid"])) != len(columns["uid"]):
            raise ArchiveError("columnar operations: duplicate operation uid")
        raw = build_sidecar(columns, "", extra, checksums=False)
    except SidecarError as exc:  # The encoder's one refusal: a timestamp.
        raise QueryError(f"archive columns: {exc}") from None
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ArchiveError(
            f"archive columns are not encodable: {exc!r}") from None
    header = _parse_header(raw, "in memory")
    try:
        table = _ColumnTable(header, raw, header["data_offset"])
        table.read_all()
        return table
    except SidecarError as exc:
        raise ArchiveError(f"archive columns: {exc}") from None


def document_view(document: Mapping[str, Any]) -> "ColumnarArchiveView":
    """A query view over an archive document's own columns.

    What a job without a usable sidecar is read from.  A v3 document's
    ``operations`` block already *is* the column mapping; a v1/v2
    document's nested tree is columnised.  The document's metadata rides
    along as :attr:`ColumnarArchiveView.index_extra`, as a sidecar
    header carries it.
    """
    operations = document.get("operations")
    if not is_columnar(operations):
        operations = operations_to_columns(document_to_archive(document).root)
    metadata = document.get("metadata")
    return ColumnarArchiveView(table_of_columns(
        operations,
        {"metadata": metadata if isinstance(metadata, dict) else {}},
    ))


#: Layout 2's columns (layout 1 stores each coded name as a per-row
#: ``{name}_offsets`` + ``{name}_heap``, re-encoded at open).
_COLUMNS = ("parent", "start", "start_kind", "end", "end_kind",
            "uid_offsets", "uid_heap", "info_op", "info_value_offsets",
            "info_value_heap", "info_num", "info_isnum") + tuple(
    f"{name}_{part}" for name in _CODED
    for part in ("dict_offsets", "dict_heap", "codes"))


class _ColumnTable:
    """Sidecar columns, each read and checked on first access, plus
    lazily derived lookup structures.

    One table is shared by every view chained off it, so columns and
    derived artifacts (decoded dictionaries, per-key info row maps) are
    computed at most once per loaded sidecar.  Everything derived is
    either dictionary-sized or a numpy vector over the rows.
    """

    def __init__(self, header: Dict[str, Any], buffer: Any,
                 data_offset: int, digests: Optional[bytes] = None):
        self.archive_checksum = str(header.get("archive_checksum", ""))
        try:
            self.count = int(header["count"])
            self.info_count = int(header["info_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SidecarError(
                f"sidecar header lacks its row counts ({exc!r})"
            ) from None
        extra = header.get("index")
        #: The store's embedded index entry + metadata copy (may be
        #: absent on sidecars written before extras existed).
        self.index_extra: Optional[Dict[str, Any]] = (
            extra if isinstance(extra, dict) else None
        )
        self._buffer = buffer
        self._directory = header["columns"]
        self._data_offset = data_offset
        #: Each column's SHA-256, in directory order (None: the whole
        #: data region was verified at open).
        self._digests = digests
        # One read-only byte array over the buffer; columns are typed
        # views of slices of it.
        self._data = np.frombuffer(buffer, dtype=np.uint8)
        self._slices: Dict[str, np.ndarray] = {}
        self._dictionaries: Dict[str, List[str]] = {}
        if header["version"] == 1:
            # Per-row heaps: re-encoded at open as layout 2's columns.
            for name in _CODED:
                try:
                    words, codes = _dictionary(_decode_heap(
                        self.column(f"{name}_offsets"),
                        self.column(f"{name}_heap")))
                except UnicodeDecodeError as exc:
                    raise SidecarError(
                        f"sidecar column {name!r} is not UTF-8 ({exc})"
                    ) from None
                offsets, heap = _heap(words)
                self._slices[f"{name}_dict_offsets"] = offsets
                self._slices[f"{name}_dict_heap"] = np.frombuffer(
                    heap, dtype="|u1")
                self._slices[f"{name}_codes"] = codes
        self._uids: Optional[List[str]] = None
        #: info key -> per-operation-row info row (-1: key absent).
        self._info_rows: Dict[str, np.ndarray] = {}

    def column(self, name: str) -> np.ndarray:
        """One column as a typed view of the buffer, on its first read
        hashed against its digest (a per-column open) and checked."""
        array = self._slices.get(name)
        if array is not None:
            return array
        try:
            entry = self._directory[name]
            dtype = _DTYPES[entry["dtype"]]
            start = self._data_offset + int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SidecarError(
                f"sidecar column {name!r} missing or malformed ({exc})"
            ) from None
        if (nbytes % dtype.itemsize or start < self._data_offset
                or nbytes < 0 or start + nbytes > len(self._data)):
            raise SidecarError(f"sidecar column {name!r} out of bounds")
        raw = self._data[start:start + nbytes]
        if self._digests is not None:
            at = 32 * list(self._directory).index(name)
            if hashlib.sha256(raw).digest() != self._digests[at:at + 32]:
                raise SidecarError(
                    f"sidecar column {name!r}: checksum mismatch")
        array = raw.view(dtype)
        self._check(name, array)
        self._slices[name] = array
        return array

    def _check(self, name: str, array: np.ndarray) -> None:
        """Reject a column that is not its table's length (per operation,
        or per info row for ``info_*``), not one tree, or pointing
        outside its table.

        A checksum-consistent file can still be hand-built: one root at
        row 0 and pre-order (``0 <= parent[i] < i`` below it) are what
        make every parent walk end at the root, and in-range ``info_op``
        and codes are what make every lookup a plain index.  Viewed
        unsigned, a negative index is huge: one max() per column.
        """
        n = self.count
        if not name.endswith(("_heap", "_dict_offsets")) and len(array) != (
            self.info_count if name.startswith("info_") else n
        ) + name.endswith("_offsets"):  # An offset index has one more.
            raise SidecarError("column lengths disagree with counts")
        if name == "parent" and n and (
            array[0] != -1 or (array[1:] < 0).any()
            or (array >= np.arange(n)).any()
        ):
            raise SidecarError(
                "parent column is not one tree in pre-order (row 0 is "
                "the root, parent -1; every other row's parent precedes it)"
            )
        if name == "info_op" and len(array) and array.view("<u8").max() >= n:
            raise SidecarError(
                "info_op column points outside the operation rows"
            )
        if name.endswith("_codes") and len(array) and array.view(
            "<u4"
        ).max() >= len(self.column(name[:-5] + "dict_offsets")) - 1:
            raise SidecarError(
                f"{name[:-6]} codes point outside its dictionary")

    parent = property(lambda self: self.column("parent"))
    start = property(lambda self: self.column("start"))
    start_kind = property(lambda self: self.column("start_kind"))
    end = property(lambda self: self.column("end"))
    end_kind = property(lambda self: self.column("end_kind"))
    info_op = property(lambda self: self.column("info_op"))
    info_num = property(lambda self: self.column("info_num"))
    info_isnum = property(lambda self: self.column("info_isnum"))

    def codes(self, name: str) -> np.ndarray:
        """One code per row of a coded column, into its dictionary."""
        return self.column(f"{name}_codes")

    def read_all(self) -> None:
        """Read and check every column now (a point query's open)."""
        for name in _COLUMNS:
            self.column(name)

    @functools.cached_property
    def has_int_timestamps(self) -> bool:
        """Whether any timestamp needs int reconstruction (disables the
        vectorized float fast paths in favour of exact arithmetic)."""
        return bool((self.start_kind == _TS_INT).any()
                    or (self.end_kind == _TS_INT).any())

    def dictionary(self, name: str) -> List[str]:
        """The distinct strings of one coded column (decoded once)."""
        words = self._dictionaries.get(name)
        if words is None:
            words = self._dictionaries[name] = _decode_heap(
                self.column(f"{name}_dict_offsets"),
                self.column(f"{name}_dict_heap"))
        return words

    def lut(self, name: str, accept: Callable[[str], Any]) -> np.ndarray:
        """``accept`` of every dictionary string, indexable by code."""
        words = self.dictionary(name)
        return np.fromiter((bool(accept(word)) for word in words),
                           dtype=bool, count=len(words))

    def info_rows(self, key: str) -> np.ndarray:
        """Per operation row, its info row of ``key`` (-1 where absent).

        Last write wins, as dict assignment does in the tree decoder:
        over the key's info rows reversed, ``np.unique`` picks each
        operation's first occurrence — its last write.
        """
        cached = self._info_rows.get(key)
        if cached is not None:
            return cached
        rows = np.flatnonzero(
            self.lut("info_key", lambda word: word == key)[
                self.codes("info_key")]
        )[::-1]
        out = np.full(self.count, -1, dtype=np.int64)
        if len(rows):
            ops, first = np.unique(self.info_op[rows], return_index=True)
            out[ops] = rows[first]
            # Only keys the archive carries are cached: the cache stays
            # bounded by the dictionary whatever keys a client asks for.
            self._info_rows[key] = out
        return out

    def values_at(self, rows: np.ndarray) -> List[Any]:
        """Decoded info values of the given info rows, in order.

        Each stored value is one compact JSON document, so the wanted
        slices joined with commas form one JSON array: a single parse.
        """
        offsets = self.column("info_value_offsets")
        raw = self.column("info_value_heap").tobytes()
        starts = offsets[rows].tolist()
        ends = offsets[rows + 1].tolist()
        values = json.loads(
            b"[" + b",".join([raw[s:e] for s, e in zip(starts, ends)]) + b"]"
        )
        return [_decode_value(value) for value in values]

    def value(self, row: int) -> Any:
        """The decoded info value of one info row."""
        return self.values_at(np.asarray([row], dtype=np.int64))[0]

    def paths_at(self, rows: Iterable[int]) -> List[str]:
        """Mission paths of the given rows, walking parent pointers.

        Only the requested rows and their ancestors are visited (each
        once per call); pre-order, checked at load, bounds every walk.
        """
        names = self.dictionary("mission")
        codes = self.codes("mission")
        parent = self.parent
        memo: Dict[int, str] = {}
        out: List[str] = []
        for row in rows:
            row = int(row)
            chain: List[int] = []
            while row >= 0 and row not in memo:
                chain.append(row)
                row = int(parent[row])
            path = memo.get(row)
            for link in reversed(chain):
                name = names[codes[link]]
                path = memo[link] = (
                    name if path is None else f"{path}/{name}"
                )
            out.append(path)
        return out

    def timestamp(self, column: np.ndarray, kinds: np.ndarray,
                  i: int) -> Optional[Union[int, float]]:
        kind = kinds[i]
        if kind == _TS_NULL:
            return None
        if kind == _TS_INT:
            return int(column[i])
        return float(column[i])

    def records(self, rows: Sequence[int]) -> List[Dict[str, Any]]:
        """The service-level operation records of the given rows."""
        rows = [int(i) for i in rows]
        if self._uids is None:
            self._uids = _decode_heap(self.column("uid_offsets"),
                                      self.column("uid_heap"))
        missions = self.dictionary("mission")
        actors = self.dictionary("actor")
        mission_codes, actor_codes = self.codes("mission"), self.codes("actor")
        out: List[Dict[str, Any]] = []
        for i, path in zip(rows, self.paths_at(rows)):
            start = self.timestamp(self.start, self.start_kind, i)
            end = self.timestamp(self.end, self.end_kind, i)
            out.append({
                "uid": self._uids[i],
                "path": path,
                "mission": missions[mission_codes[i]],
                "actor": actors[actor_codes[i]],
                "start": start,
                "end": end,
                "duration": (
                    end - start if start is not None and end is not None
                    else None
                ),
            })
        return out

    def close(self) -> None:
        """Release the underlying mapping (views become invalid).

        Every numpy column exports the mmap's buffer, and
        ``mmap.close()`` raises :class:`BufferError` while any export
        is alive — so the columns are dropped first, making the close
        deterministic instead of leaking the mapping until garbage
        collection.  An in-memory table's bytes are simply dropped.
        Idempotent; queries against a closed table fail.
        """
        buffer, self._buffer = self._buffer, None
        if buffer is None:
            return
        self._data = None
        self._slices = {}
        self._dictionaries = {}
        self._uids = None
        self._info_rows = {}
        if isinstance(buffer, mmap.mmap):
            try:
                buffer.close()
            except (BufferError, OSError):  # pragma: no cover - exported refs
                pass


class ColumnarArchiveView:
    """The archive query surface over one column table.

    Selector methods narrow the (pre-order) selection and return a new
    view of the same type sharing the same column table; aggregations
    are left folds in pre-order — the order a plain walk of the tree
    visits operations — with typed :class:`QueryError`\\ s naming the
    offending operation's path, and never build an ``ArchivedOperation``.
    """

    def __init__(self, table: _ColumnTable):
        self._table = table
        self._selection = np.arange(table.count, dtype=np.int64)

    @property
    def archive_checksum(self) -> str:
        """Payload checksum of the archive a sidecar view accelerates
        (empty for a table built in memory)."""
        return self._table.archive_checksum

    @property
    def index_extra(self) -> Optional[Dict[str, Any]]:
        """The store's index entry + metadata embedded in the header.

        Checksum-bound to the JSON (the loader rejected the sidecar if
        its ``archive_checksum`` were stale), so a fleet scan can group
        by metadata keys without opening the archive JSON at all.
        ``None`` on sidecars written before extras existed.
        """
        return self._table.index_extra

    def __len__(self) -> int:
        return len(self._selection)

    def close(self) -> None:
        """Release the underlying file mapping."""
        self._table.close()

    def __enter__(self) -> "ColumnarArchiveView":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- selection ---------------------------------------------------------

    def _narrow(self, keep: np.ndarray) -> "ColumnarArchiveView":
        view = copy.copy(self)
        view._selection = self._selection[keep]
        return view

    def _coded(self, name: str,
               accept: Callable[[str], Any]) -> "ColumnarArchiveView":
        table = self._table
        return self._narrow(
            table.lut(name, accept)[table.codes(name)[self._selection]]
        )

    def path(self, pattern: str) -> "ColumnarArchiveView":
        """Narrow to rows whose mission path matches the glob."""
        regex = translate_path_pattern(pattern)
        paths = self._table.paths_at(self._selection)
        return self._narrow(np.fromiter(
            (regex.match(path) is not None for path in paths),
            dtype=bool, count=len(paths),
        ))

    def mission(self, base: str) -> "ColumnarArchiveView":
        """Narrow to rows with this mission base name."""
        return self._coded("mission", lambda word: _split(word)[0] == base)

    def actor(self, base: str) -> "ColumnarArchiveView":
        """Narrow to rows with this actor base name."""
        return self._coded("actor", lambda word: _split(word)[0] == base)

    def iteration(self, index: int) -> "ColumnarArchiveView":
        """Narrow to rows of one iteration index."""
        return self._coded("mission",
                           lambda word: _split(word)[1] == index)

    # -- aggregation -------------------------------------------------------

    def _carrying(self, info: str) -> Tuple[np.ndarray, np.ndarray]:
        """(selected operation rows carrying ``info``, their info rows)."""
        rows = self._table.info_rows(info)[self._selection]
        keep = rows >= 0
        return self._selection[keep], rows[keep]

    def _numeric_at(self, info: str, row: int, op_row: int) -> float:
        """One info value coerced for aggregation (see :func:`_numeric`)."""
        table = self._table
        if table.info_isnum[row]:
            return float(table.info_num[row])
        # Non-numeric: decode for the typed error.
        return _numeric(table.value(row), info, table.paths_at([op_row])[0])

    def total(self, info: str = "Duration") -> float:
        """Sum of a numeric info over the selection (missing counts 0).

        An all-numeric selection folds with one ``cumsum``
        (:func:`~repro.platforms.vecops.fold_add`) — the exact pre-order
        left fold, never a pairwise ``np.sum``; anything else takes a
        Python loop that skips stored nulls and raises a typed
        :class:`QueryError` naming the first non-numeric value.
        """
        table = self._table
        ops, rows = self._carrying(info)
        numeric = table.info_isnum[rows] == 1
        if numeric.all():
            return fold_add(table.info_num[rows])
        others = iter(table.values_at(rows[~numeric]))
        total = 0.0
        for op_row, row, is_number in zip(ops.tolist(), rows.tolist(),
                                          numeric.tolist()):
            if is_number:
                total += float(table.info_num[row])
                continue
            value = next(others)
            if value is None:
                continue  # A stored null counts 0.
            total += _numeric(value, info, table.paths_at([op_row])[0])
        return total

    def mean(self, info: str = "Duration") -> float:
        """Mean of a numeric info over rows that carry it."""
        table = self._table
        ops, rows = self._carrying(info)
        if not len(rows):
            raise QueryError(f"no operation in selection carries {info!r}")
        if table.info_isnum[rows].all():
            values = table.info_num[rows].tolist()
        else:
            values = [self._numeric_at(info, row, op_row)
                      for op_row, row in zip(ops.tolist(), rows.tolist())]
        # Python's ``sum``, whatever its float summation on this version
        # (the reference walk sums the same way).
        return sum(values) / len(values)

    def values(self, info: str, default: Any = None) -> List[Any]:
        """The info value of every selected row (in pre-order)."""
        rows = self._table.info_rows(info)[self._selection]
        decoded = iter(self._table.values_at(rows[rows >= 0]))
        return [default if row < 0 else next(decoded)
                for row in rows.tolist()]

    def durations(self) -> List[float]:
        """Durations of selected rows (skipping unknown ones)."""
        table = self._table
        sel = self._selection
        known = sel[
            (table.start_kind[sel] != _TS_NULL)
            & (table.end_kind[sel] != _TS_NULL)
        ]
        if not table.has_int_timestamps:
            return (table.end[known] - table.start[known]).tolist()
        # Int timestamps demand Python arithmetic: 7 - 2 must stay the
        # int 5, exactly as ``op.duration`` computes it.
        return [
            table.timestamp(table.end, table.end_kind, int(i))
            - table.timestamp(table.start, table.start_kind, int(i))
            for i in known
        ]

    def _ranked(self, info: str, n: int) -> Tuple[List[int], List[int]]:
        """(operation rows, info rows) of the ``n`` largest ``info``.

        ``sorted(..., reverse=True)`` ordering: ties keep pre-order.
        """
        if n <= 0:
            raise QueryError(f"n must be positive, got {n}")
        ops, rows = self._carrying(info)
        ops, rows = ops.tolist(), rows.tolist()
        ranked = sorted(
            range(len(ops)),
            key=lambda j: self._numeric_at(info, rows[j], ops[j]),
            reverse=True,
        )[:n]
        return [ops[j] for j in ranked], [rows[j] for j in ranked]

    def top_records(self, info: str = "Duration",
                    n: int = 5) -> List[Dict[str, Any]]:
        """Service records of the ``n`` rows with the largest info."""
        ops, rows = self._ranked(info, n)
        table = self._table
        values = table.values_at(np.asarray(rows, dtype=np.int64))
        return [dict(record, value=value)
                for record, value in zip(table.records(ops), values)]

    def operation_records(self) -> List[Dict[str, Any]]:
        """Service records of every selected row, in pre-order."""
        return self._table.records(self._selection)

    # -- fleet-scan vectors --------------------------------------------------

    @property
    def root_start(self) -> Optional[Union[int, float]]:
        """Start timestamp of the archive's root operation."""
        table = self._table
        if table.count == 0:
            return None
        return table.timestamp(table.start, table.start_kind, 0)

    def duration_vector(self) -> (np.ndarray, np.ndarray):
        """(rows, float64 durations) of selected rows with known spans.

        The subtraction runs vectorized in float64; integer timestamps
        are exactly representable by the column contract, so the result
        equals ``op.duration``'s exact Python arithmetic.
        """
        table = self._table
        sel = self._selection
        mask = (
            (table.start_kind[sel] != _TS_NULL)
            & (table.end_kind[sel] != _TS_NULL)
        )
        rows = sel[mask]
        return rows, table.end[rows] - table.start[rows]

    def numeric_info_vector(self, info: str) -> (np.ndarray, np.ndarray):
        """(rows, float64 values) of selected rows carrying ``info``.

        Only values the aggregation coercion would accept (numbers and
        numeric strings, never booleans) appear; the rest
        are skipped — a fleet scan over heterogeneous archives must not
        die on one string-valued info.
        """
        table = self._table
        ops, rows = self._carrying(info)
        keep = table.info_isnum[rows] == 1
        return ops[keep], np.asarray(table.info_num[rows[keep]],
                                     dtype="<f8")

    def paths_at(self, rows: Iterable[int]) -> List[str]:
        """Mission paths of the given rows (for top-k attribution)."""
        return self._table.paths_at(rows)

    def mission_base_codes(
        self, rows: np.ndarray,
    ) -> Tuple[List[str], np.ndarray]:
        """(mission base of every dictionary string, code of each row).

        Bases are split once per distinct mission, so grouping rows by
        base never touches a per-row string.
        """
        table = self._table
        bases = [_split(word)[0] for word in table.dictionary("mission")]
        return bases, table.codes("mission")[rows]


__all__ = [
    "ColumnarArchiveView",
    "SidecarError",
    "SIDECAR_SUFFIX",
    "build_sidecar",
    "document_view",
    "load_sidecar",
    "read_sidecar_header",
    "sidecar_path",
    "table_of_columns",
    "translate_path_pattern",
]
