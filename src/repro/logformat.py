"""The GRANULA platform-log line format.

Granula's prototype instruments platforms with log statements and later
parses them back into operations (the "platform logs" of Section 3.3 P2).
This module is the single definition of that wire format, shared by the
emitting side (:mod:`repro.platforms.logging_util`) and the parsing side
(:mod:`repro.core.monitor.logparser`).

Line grammar (space-separated ``key=value`` pairs, values URL-quoted)::

    GRANULA ts=<float> job=<id> event=start uid=<uid> parent=<uid|-> \
        mission=<name> actor=<name>
    GRANULA ts=<float> job=<id> event=end uid=<uid>
    GRANULA ts=<float> job=<id> event=info uid=<uid> name=<key> value=<val>

``uid`` identifies one concrete operation instance; ``parent`` links the
operation tree.  ``mission`` carries the iteration index when relevant
(e.g. ``Compute-4``); ``actor`` names the executing resource (e.g.
``Worker-2``, ``Master``, ``GiraphClient``).
"""

from __future__ import annotations

import re
from typing import Dict
from urllib.parse import quote, unquote

#: Prefix of every Granula log line.
PREFIX = "GRANULA"

#: Recognized event kinds.
EVENT_START = "start"
EVENT_END = "end"
EVENT_INFO = "info"
EVENTS = (EVENT_START, EVENT_END, EVENT_INFO)

#: Placeholder parent for root operations.
NO_PARENT = "-"

#: Text that ``quote(text, safe='')`` returns unchanged: RFC 3986's
#: unreserved characters only.
_UNRESERVED = re.compile(r"[A-Za-z0-9_.~-]*").fullmatch


def quote_value(value: object) -> str:
    """``quote(str(value), safe='')``, skipping the quoting of text made
    only of unreserved characters (ids, numbers, names)."""
    text = str(value)
    return text if _UNRESERVED(text) else quote(text, safe="")


def format_line(fields: Dict[str, str]) -> str:
    """Render a field mapping as one GRANULA log line.

    Field order is canonical: ``ts``, ``job``, ``event``, ``uid`` first
    (when present), then the rest sorted — so output is deterministic.
    """
    head_keys = [k for k in ("ts", "job", "event", "uid") if k in fields]
    tail_keys = sorted(k for k in fields if k not in head_keys)
    parts = [PREFIX]
    for key in head_keys + tail_keys:
        parts.append(f"{key}={quote_value(fields[key])}")
    return " ".join(parts)


def parse_line(line: str) -> Dict[str, str]:
    """Parse one GRANULA line into its field mapping.

    Raises ``ValueError`` on lines that do not carry the prefix or have a
    malformed pair; callers wanting typed errors use
    :mod:`repro.core.monitor.logparser`.
    """
    stripped = line.strip()
    parts = stripped.split(" ")
    if not parts or parts[0] != PREFIX:
        raise ValueError(f"not a GRANULA line: {line!r}")
    fields: Dict[str, str] = {}
    for pair in parts[1:]:
        if not pair:
            continue
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed field {pair!r} in line {line!r}")
        fields[key] = unquote(value)
    return fields


def is_granula_line(line: str) -> bool:
    """True when the line starts with the GRANULA prefix."""
    return line.lstrip().startswith(PREFIX + " ")
