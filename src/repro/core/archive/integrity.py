"""Archive integrity: validation findings, repair, and salvage loading.

The strict loader (:func:`repro.core.archive.serialize.archive_from_json`)
raises a typed error on the first sign of damage.  This module is the
tolerant counterpart for archives that must still be analyzed:

- :func:`validate_text` / :func:`validate_archive` return **typed
  findings with severities** instead of raising — checksum mismatches,
  unknown schema versions, negative durations, children outside their
  parent's interval, missing timestamps;
- :func:`repair_archive` fixes the derivable subset of those findings
  (clamping, swapping, filling from children), marking every touched
  operation with ``inferred`` provenance;
- :func:`load_salvaged` builds a best-effort archive from damaged JSON,
  recovering the valid prefix of a crash-truncated file and coercing
  malformed operation records, again reporting every concession as a
  finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.archive.archive import ArchivedOperation, PerformanceArchive
from repro.core.archive.serialize import (
    INFO_COLUMNS,
    OPERATION_COLUMNS,
    SUPPORTED_VERSIONS,
    _decode_value,
    is_columnar,
    payload_checksum,
)
from repro.core.archive.store import validate_job_id
from repro.errors import ArchiveError

#: Finding severities, most severe first.
SEVERITIES = ("critical", "error", "warning", "info")
_SEVERITY_ORDER = {name: index for index, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class ValidationFinding:
    """One integrity finding.

    Attributes:
        code: stable machine-readable kind (``checksum-mismatch``,
            ``negative-duration``, ...).
        severity: ``critical`` (data untrustworthy), ``error`` (data
            lost), ``warning`` (data suspicious) or ``info``.
        subject: what the finding is about (an operation uid, a file
            region, the document).
        detail: human-readable explanation.
    """

    code: str
    severity: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} @ {self.subject}: {self.detail}"


def sort_findings(findings: List[ValidationFinding]) -> List[ValidationFinding]:
    """Order findings most-severe-first (stable within a severity)."""
    return sorted(
        findings,
        key=lambda f: (_SEVERITY_ORDER.get(f.severity, len(SEVERITIES)),
                       f.code, f.subject),
    )


def render_validation(findings: List[ValidationFinding]) -> str:
    """Human-readable validation report."""
    if not findings:
        return "archive valid: no findings"
    lines = [f"{len(findings)} finding(s):"]
    lines.extend(f"  {finding}" for finding in sort_findings(findings))
    return "\n".join(lines)


def worst_severity(findings: List[ValidationFinding]) -> Optional[str]:
    """The most severe level present, or None for a clean report."""
    if not findings:
        return None
    return min(
        (f.severity for f in findings),
        key=lambda s: _SEVERITY_ORDER.get(s, len(SEVERITIES)),
    )


# ---------------------------------------------------------------------------
# Structural validation of in-memory archives
# ---------------------------------------------------------------------------

def validate_archive(archive: PerformanceArchive) -> List[ValidationFinding]:
    """Structural findings for an in-memory archive (never raises)."""
    findings: List[ValidationFinding] = []
    try:
        validate_job_id(archive.job_id)
    except ArchiveError as exc:
        findings.append(ValidationFinding(
            "unsafe-job-id", "error", "<document>",
            f"{exc}; an archive store would reject this id",
        ))
    for op in archive.walk():
        if op.start_time is None:
            findings.append(ValidationFinding(
                "missing-start", "warning", op.uid,
                f"{op.mission}: no start timestamp",
            ))
        if op.end_time is None:
            findings.append(ValidationFinding(
                "missing-end", "warning", op.uid,
                f"{op.mission}: no end timestamp",
            ))
        duration = op.duration
        if duration is not None and duration < 0:
            findings.append(ValidationFinding(
                "negative-duration", "error", op.uid,
                f"{op.mission}: start {op.start_time} is after "
                f"end {op.end_time}",
            ))
        for child in op.children:
            if (
                op.start_time is not None
                and child.start_time is not None
                and child.start_time < op.start_time
            ) or (
                op.end_time is not None
                and child.end_time is not None
                and child.end_time > op.end_time
            ):
                findings.append(ValidationFinding(
                    "child-outside-parent", "warning", child.uid,
                    f"{child.mission} [{child.start_time}, "
                    f"{child.end_time}] escapes {op.mission} "
                    f"[{op.start_time}, {op.end_time}]",
                ))
    return sort_findings(findings)


# ---------------------------------------------------------------------------
# Repair of the derivable subset
# ---------------------------------------------------------------------------

def repair_archive(
    archive: PerformanceArchive,
) -> Tuple[PerformanceArchive, List[ValidationFinding]]:
    """Fix what can be derived; report what was fixed.

    Repairs, in order: swapped (negative-duration) intervals, missing
    timestamps fillable from children or the enclosing parent, and
    children clamped into their parent's interval.  Every repaired
    operation is marked with ``inferred`` provenance.  Findings that are
    not derivable (e.g. an operation with no timestamps anywhere around
    it) are left in place — :func:`validate_archive` will still report
    them.

    Returns:
        (the same archive, repaired in place; findings describing each
        applied fix)
    """
    fixes: List[ValidationFinding] = []

    def fixed(code: str, op: ArchivedOperation, detail: str) -> None:
        op.mark_inferred()
        fixes.append(ValidationFinding(code, "info", op.uid, detail))

    # Bottom-up: children first, so parents can be filled from them.
    for op in _post_order(archive.root):
        if (
            op.start_time is not None
            and op.end_time is not None
            and op.end_time < op.start_time
        ):
            op.start_time, op.end_time = op.end_time, op.start_time
            fixed("negative-duration", op,
                  f"{op.mission}: swapped inverted interval")
        child_starts = [
            c.start_time for c in op.children if c.start_time is not None
        ]
        child_ends = [
            c.end_time for c in op.children if c.end_time is not None
        ]
        if op.start_time is None and child_starts:
            op.start_time = min(child_starts)
            fixed("missing-start", op,
                  f"{op.mission}: start filled from earliest child")
        if op.end_time is None and child_ends:
            op.end_time = max(child_ends)
            fixed("missing-end", op,
                  f"{op.mission}: end filled from latest child")

    # Top-down: clamp children into their (now settled) parents.
    for op in archive.walk():
        for child in op.children:
            if child.start_time is None and op.start_time is not None:
                child.start_time = op.start_time
                fixed("missing-start", child,
                      f"{child.mission}: start filled from parent")
            if child.end_time is None and op.end_time is not None:
                child.end_time = op.end_time
                fixed("missing-end", child,
                      f"{child.mission}: end filled from parent")
            clamped = False
            if (
                op.start_time is not None
                and child.start_time is not None
                and child.start_time < op.start_time
            ):
                child.start_time = op.start_time
                clamped = True
            if (
                op.end_time is not None
                and child.end_time is not None
                and child.end_time > op.end_time
            ):
                child.end_time = op.end_time
                clamped = True
            if clamped:
                if child.end_time < child.start_time:
                    child.end_time = child.start_time
                fixed("child-outside-parent", child,
                      f"{child.mission}: clamped into {op.mission}'s "
                      f"interval")

    for op in archive.walk():
        if op.duration is not None:
            op.infos["Duration"] = op.duration
    return archive, fixes


def _post_order(root: ArchivedOperation):
    for child in root.children:
        yield from _post_order(child)
    yield root


# ---------------------------------------------------------------------------
# JSON-level validation and salvage loading
# ---------------------------------------------------------------------------

def recover_json(text: str) -> Tuple[Optional[Any], int]:
    """Parse JSON, recovering the valid prefix of damaged text.

    A crash mid-write (or corruption past some offset) leaves a file
    whose prefix is still meaningful.  A single linear scan tracks the
    container stack and remembers the last position where every open
    container could be closed cleanly; the recovered document is that
    prefix plus the needed closers.

    Returns:
        (document or None, bytes dropped from the tail)
    """
    try:
        return json.loads(text), 0
    except (json.JSONDecodeError, RecursionError):
        pass
    point = _last_safe_point(text)
    if point is None:
        return None, len(text)
    pos, closers = point
    try:
        return json.loads(text[:pos] + closers), len(text) - pos
    except (json.JSONDecodeError, RecursionError):
        return None, len(text)


def _last_safe_point(text: str) -> Optional[Tuple[int, str]]:
    """Last (position, closers) where the JSON prefix completes a value."""
    stack: List[str] = []
    expect = "value"
    last: Optional[Tuple[int, str]] = None
    i, n = 0, len(text)

    def closers() -> str:
        return "".join("}" if c == "{" else "]" for c in reversed(stack))

    def complete_value(pos: int) -> str:
        # A value just ended at pos: the prefix can close cleanly here.
        nonlocal last, expect
        last = (pos, closers())
        expect = "comma"
        return "comma"

    def scan_string(start: int) -> Optional[int]:
        j = start + 1
        while j < n:
            ch = text[j]
            if ch == "\\":
                j += 2
                continue
            if ch == '"':
                return j + 1
            j += 1
        return None  # Truncated mid-string.

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if expect == "value":
            if ch == "{":
                stack.append("{")
                expect = "first-key"
                i += 1
            elif ch == "[":
                stack.append("[")
                expect = "first-value"
                i += 1
            elif ch == '"':
                end = scan_string(i)
                if end is None:
                    return last
                i = end
                complete_value(i)
            elif ch in "-0123456789tfn":
                j = i
                while j < n and text[j] not in " \t\r\n,}]":
                    j += 1
                if j == n:
                    return last  # Primitive may itself be cut short.
                i = j
                complete_value(i)
            else:
                return last
        elif expect in ("first-key", "key"):
            if ch == '"':
                end = scan_string(i)
                if end is None:
                    return last
                i = end
                expect = "colon"
            elif ch == "}" and expect == "first-key" and stack:
                stack.pop()
                i += 1
                complete_value(i)
                if not stack:
                    return last
            else:
                return last
        elif expect == "first-value":
            if ch == "]" and stack:
                stack.pop()
                i += 1
                complete_value(i)
                if not stack:
                    return last
            else:
                expect = "value"
        elif expect == "colon":
            if ch != ":":
                return last
            expect = "value"
            i += 1
        elif expect == "comma":
            if ch == ",":
                expect = "key" if stack and stack[-1] == "{" else "value"
                i += 1
            elif ch == "}" and stack and stack[-1] == "{":
                stack.pop()
                i += 1
                complete_value(i)
                if not stack:
                    return last
            elif ch == "]" and stack and stack[-1] == "[":
                stack.pop()
                i += 1
                complete_value(i)
                if not stack:
                    return last
            else:
                return last
        else:  # pragma: no cover - defensive
            return last
    return last


def _lenient_operation(
    data: Any,
    findings: List[ValidationFinding],
    seen_uids: Dict[str, int],
    depth: int = 0,
) -> Optional[ArchivedOperation]:
    """Coerce one operation record, reporting every concession."""
    if not isinstance(data, dict):
        findings.append(ValidationFinding(
            "bad-operation", "error", "<operations>",
            f"operation record is {type(data).__name__}, not an object",
        ))
        return None
    uid = data.get("uid")
    if not isinstance(uid, str) or not uid:
        uid = f"salvage:anon-{len(seen_uids) + 1}"
        findings.append(ValidationFinding(
            "bad-field", "warning", uid, "operation without uid; renamed",
        ))
    if uid in seen_uids:
        seen_uids[uid] += 1
        renamed = f"{uid}#dup{seen_uids[uid]}"
        findings.append(ValidationFinding(
            "duplicate-uid", "error", uid,
            f"uid repeated; instance renamed to {renamed!r}",
        ))
        uid = renamed
    seen_uids.setdefault(uid, 1)

    def timestamp(key: str) -> Optional[float]:
        value = data.get(key)
        if value is None or isinstance(value, (int, float)):
            return value
        findings.append(ValidationFinding(
            "bad-field", "warning", uid,
            f"{key} is {value!r}, not a timestamp; dropped",
        ))
        return None

    infos = data.get("infos")
    if not isinstance(infos, dict):
        if infos is not None:
            findings.append(ValidationFinding(
                "bad-field", "warning", uid,
                "infos is not an object; dropped",
            ))
        infos = {}
    op = ArchivedOperation(
        uid=uid,
        mission=str(data.get("mission") or "Unknown"),
        actor=str(data.get("actor") or "unknown"),
        start_time=timestamp("start"),
        end_time=timestamp("end"),
        infos={str(k): _decode_value(v) for k, v in infos.items()},
    )
    children = data.get("children", [])
    if not isinstance(children, list):
        findings.append(ValidationFinding(
            "bad-field", "warning", uid, "children is not a list; dropped",
        ))
        children = []
    for child_data in children:
        child = _lenient_operation(child_data, findings, seen_uids, depth + 1)
        if child is not None:
            child.parent = op
            op.children.append(child)
    return op


def _lenient_columnar(
    data: Dict[str, Any],
    findings: List[ValidationFinding],
    seen_uids: Dict[str, int],
) -> Optional[ArchivedOperation]:
    """Coerce a columnar operations block, reporting every concession.

    The v3 layout keeps its operation columns before the info table and
    the environment, so a crash-truncated file usually retains complete
    ``uid``/``mission``/``actor`` columns and loses the tails of the
    later ones.  Short columns are padded (``None``), invalid parents
    are reattached to the root, and damaged info rows are dropped —
    each with a finding.
    """
    columns: Dict[str, List[Any]] = {}
    for name in OPERATION_COLUMNS + INFO_COLUMNS:
        column = data.get(name)
        if not isinstance(column, list):
            if column is not None:
                findings.append(ValidationFinding(
                    "bad-field", "warning", "<operations>",
                    f"column {name} is {type(column).__name__}, "
                    f"not a list; dropped",
                ))
            column = []
        columns[name] = column
    count = max(len(columns[name]) for name in OPERATION_COLUMNS)
    if count == 0:
        findings.append(ValidationFinding(
            "bad-operation", "error", "<operations>",
            "columnar operations block carries no operations",
        ))
        return None
    declared = data.get("count")
    if declared != count:
        findings.append(ValidationFinding(
            "bad-field", "warning", "<operations>",
            f"declared count {declared!r} != longest column ({count}); "
            f"using the columns",
        ))
    padded = sum(
        count - len(columns[name])
        for name in OPERATION_COLUMNS
        if len(columns[name]) < count
    )
    if padded:
        findings.append(ValidationFinding(
            "truncated-columns", "error", "<operations>",
            f"operation columns truncated: padded {padded} missing "
            f"cell(s)",
        ))

    def cell(name: str, index: int) -> Any:
        column = columns[name]
        return column[index] if index < len(column) else None

    ops: List[ArchivedOperation] = []
    for i in range(count):
        uid = cell("uid", i)
        if not isinstance(uid, str) or not uid:
            uid = f"salvage:anon-{len(seen_uids) + 1}"
            findings.append(ValidationFinding(
                "bad-field", "warning", uid,
                "operation without uid; renamed",
            ))
        if uid in seen_uids:
            seen_uids[uid] += 1
            renamed = f"{uid}#dup{seen_uids[uid]}"
            findings.append(ValidationFinding(
                "duplicate-uid", "error", uid,
                f"uid repeated; instance renamed to {renamed!r}",
            ))
            uid = renamed
        seen_uids.setdefault(uid, 1)

        def timestamp(name: str) -> Optional[float]:
            value = cell(name, i)
            if value is None or isinstance(value, (int, float)):
                return value
            findings.append(ValidationFinding(
                "bad-field", "warning", uid,
                f"{name} is {value!r}, not a timestamp; dropped",
            ))
            return None

        op = ArchivedOperation(
            uid=uid,
            mission=str(cell("mission", i) or "Unknown"),
            actor=str(cell("actor", i) or "unknown"),
            start_time=timestamp("start"),
            end_time=timestamp("end"),
        )
        if i > 0:
            parent_index = cell("parent", i)
            if not isinstance(parent_index, int) or not (
                0 <= parent_index < i
            ):
                findings.append(ValidationFinding(
                    "bad-field", "warning", uid,
                    f"parent {parent_index!r} invalid; attached to root",
                ))
                parent_index = 0
            op.parent = ops[parent_index]
            ops[parent_index].children.append(op)
        ops.append(op)

    info_rows = max(len(columns[name]) for name in INFO_COLUMNS)
    dropped_infos = 0
    for row in range(info_rows):
        op_index = cell("info_op", row)
        key = cell("info_key", row)
        if (
            not isinstance(op_index, int)
            or not (0 <= op_index < count)
            or not isinstance(key, str)
        ):
            dropped_infos += 1
            continue
        ops[op_index].infos[key] = _decode_value(cell("info_value", row))
    if dropped_infos:
        findings.append(ValidationFinding(
            "bad-field", "warning", "<operations>",
            f"{dropped_infos} damaged info row(s) dropped",
        ))
    return ops[0]


def _document_findings(
    document: Dict[str, Any],
) -> List[ValidationFinding]:
    """Envelope findings: format, version, checksum."""
    findings: List[ValidationFinding] = []
    if document.get("format") != "granula-archive":
        findings.append(ValidationFinding(
            "not-archive", "critical", "<document>",
            f"format is {document.get('format')!r}, "
            f"expected 'granula-archive'",
        ))
        return findings
    version = document.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        findings.append(ValidationFinding(
            "unknown-version", "error", "<document>",
            f"format version {version!r} not in supported "
            f"{list(SUPPORTED_VERSIONS)}; loading best-effort",
        ))
    integrity = document.get("integrity")
    if isinstance(integrity, dict) and "checksum" in integrity:
        expected = integrity["checksum"]
        actual = payload_checksum(document)
        if expected != actual:
            findings.append(ValidationFinding(
                "checksum-mismatch", "critical", "<document>",
                f"stored {str(expected)[:16]}…, computed {actual[:16]}… — "
                f"payload was modified after writing",
            ))
    elif isinstance(version, int) and version >= 2:
        findings.append(ValidationFinding(
            "checksum-missing", "warning", "<document>",
            f"version-{version} archive without an integrity block",
        ))
    return findings


def validate_text(text: str) -> List[ValidationFinding]:
    """Validate serialized archive text end to end (never raises).

    Combines JSON-level findings (parse damage, checksum, schema
    version) with the structural findings of the decoded archive.
    """
    _archive, findings = load_salvaged(text)
    return findings


def validate_sidecar(
    archive_path: Union[str, Path],
) -> List[ValidationFinding]:
    """Findings for the ``.gcol`` sidecar next to a stored archive.

    The binary column sidecar is an optional accelerator: when absent
    there is nothing to report, and any damage merely downgrades
    queries to the JSON document's own columns — no data is lost — so
    sidecar findings are warnings, never errors.  The sidecar is cross-checked
    against the JSON's payload checksum, so a *stale* sidecar (archive
    rewritten, sidecar left behind) is reported alongside byte-level
    corruption (data-region SHA-256 mismatch, naming the damaged columns
    where the sidecar has column digests; truncated header).  Never
    raises.
    """
    # Local import: columnar depends on this module's sibling ``store``
    # for atomic writes, so a top-level import would be cyclic.
    from repro.core.archive.columnar import (
        SidecarError,
        load_sidecar,
        sidecar_path,
    )
    from repro.core.archive.serialize import parse_document

    findings: List[ValidationFinding] = []
    path = Path(archive_path)
    side = sidecar_path(path)
    if not side.exists():
        return findings
    checksum: Optional[str] = None
    try:
        document = parse_document(
            path.read_text(encoding="utf-8"), verify=False)
        checksum = payload_checksum(document)
    except (OSError, UnicodeDecodeError, ArchiveError):
        pass  # JSON-side damage carries its own findings.
    try:
        view = load_sidecar(side, expected_checksum=checksum)
        view.close()
    except SidecarError as exc:
        findings.append(ValidationFinding(
            "sidecar-unusable", "warning", side.name,
            f"{exc} — queries fall back to the JSON's columns",
        ))
    except OSError as exc:  # pragma: no cover - racing deletion
        findings.append(ValidationFinding(
            "sidecar-unusable", "warning", side.name,
            f"cannot read sidecar: {exc} — queries fall back to the "
            f"JSON's columns",
        ))
    return findings


def load_salvaged(
    text: str,
) -> Tuple[Optional[PerformanceArchive], List[ValidationFinding]]:
    """Best-effort load of possibly-damaged archive text.

    Returns the salvageable part of the archive (None only when nothing
    at all is recoverable) plus every finding, sorted most-severe first.
    Never raises on damaged input.
    """
    findings: List[ValidationFinding] = []
    document, dropped = recover_json(text)
    if document is None:
        findings.append(ValidationFinding(
            "not-json", "critical", "<file>",
            "no valid JSON prefix could be recovered",
        ))
        return None, sort_findings(findings)
    if dropped:
        findings.append(ValidationFinding(
            "truncated-json", "critical", "<file>",
            f"JSON damaged: recovered a valid prefix, dropped "
            f"{dropped} trailing byte(s)",
        ))
    if not isinstance(document, dict):
        findings.append(ValidationFinding(
            "not-archive", "critical", "<document>",
            f"document is {type(document).__name__}, not an object",
        ))
        return None, sort_findings(findings)

    findings.extend(_document_findings(document))
    if any(f.code == "not-archive" for f in findings):
        return None, sort_findings(findings)

    operations = document.get("operations")
    if operations is None:
        findings.append(ValidationFinding(
            "no-operations", "critical", "<document>",
            "document carries no operations tree",
        ))
        return None, sort_findings(findings)
    seen_uids: Dict[str, int] = {}
    if is_columnar(operations):
        root = _lenient_columnar(operations, findings, seen_uids)
    else:
        root = _lenient_operation(operations, findings, seen_uids)
    if root is None:
        return None, sort_findings(findings)

    env: List[Tuple[float, str, float]] = []
    bad_env = 0
    environment = document.get("environment", [])
    if not isinstance(environment, list):
        environment = []
        findings.append(ValidationFinding(
            "bad-field", "warning", "<environment>",
            "environment is not a list; dropped",
        ))
    for sample in environment:
        try:
            env.append((sample["ts"], sample["node"], sample["cpu"]))
        except (TypeError, KeyError):
            bad_env += 1
    if bad_env:
        findings.append(ValidationFinding(
            "bad-field", "warning", "<environment>",
            f"{bad_env} malformed environment sample(s) dropped",
        ))

    job_id = document.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        job_id = "salvaged-job"
        findings.append(ValidationFinding(
            "bad-field", "warning", "<document>",
            "document without job_id; using 'salvaged-job'",
        ))
    metadata = document.get("metadata")
    if not isinstance(metadata, dict):
        metadata = {}
    archive = PerformanceArchive(
        job_id=job_id,
        root=root,
        platform=str(document.get("platform") or ""),
        metadata=metadata,
        env_samples=env,
    )
    findings.extend(validate_archive(archive))
    return archive, sort_findings(findings)
