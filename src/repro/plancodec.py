"""One JSON codec for the seeded fault-injection plans.

:class:`repro.platforms.faults.FaultPlan` (faults in the simulated
platforms) and :class:`repro.service.chaos.ChaosPlan` (faults in the
archive service) are one vocabulary: a frozen dataclass holding a
``seed``, a tuple of typed ``events`` and plan-level settings, each event
a frozen dataclass registered under a type name.  Both inherit
:class:`EventPlan`, which reads and writes them as ::

    {"seed": 0, "events": [{"type": "<name>", "<field>": <value>, ...}], ...}

A plan-level field whose default is a dataclass (FaultPlan's ``retry``)
is an object of that dataclass's fields; a ``None`` plan-level field is
left out.  Decoding is strict: a plan or event that is not an object,
an unknown key, event type or field, a non-list ``events``, a value of
the wrong JSON type, a ``NaN`` or ``Infinity`` (which ``json.loads``
admits), or a value the dataclass itself rejects raises the plan's own
error and nothing else.

Field types are checked against the dataclasses' annotations, which
the plan modules keep as strings (``from __future__ import
annotations``): ``int``, ``float`` and ``str``, each possibly
``Optional[...]``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, ClassVar, Dict, Type, TypeVar, Union

from repro.errors import ReproError

P = TypeVar("P", bound="EventPlan")

#: Annotation -> the JSON values it admits (``bool`` never does).
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _fields(instance: Any) -> Dict[str, Any]:
    return {f.name: getattr(instance, f.name) for f in fields(instance)}


class EventPlan:
    """The codec of a plan dataclass with ``seed`` and ``events`` fields."""

    #: Event type name -> event class, one registry per plan.
    EVENT_TYPES: ClassVar[Dict[str, type]] = {}
    #: The error a malformed plan raises.
    ERROR: ClassVar[Type[ReproError]] = ReproError
    #: How messages name the plan.
    KIND: ClassVar[str] = "plan"

    def _check_events(self) -> None:
        """Hold ``events`` as a tuple of registered events."""
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            self.type_name(event)

    # -- encoding ------------------------------------------------------------

    @classmethod
    def type_name(cls, event: Any) -> str:
        """The registry name of one of the plan's events."""
        for name, event_cls in cls.EVENT_TYPES.items():
            if type(event) is event_cls:
                return name
        raise cls.ERROR(f"not a {cls.KIND} event: {event!r}")

    def to_dict(self) -> Dict[str, Any]:
        """The plan's JSON-ready mapping."""
        data: Dict[str, Any] = {}
        for name, value in _fields(self).items():
            if name == "events":
                value = [{"type": self.type_name(event), **_fields(event)}
                         for event in value]
            elif is_dataclass(value):
                value = _fields(value)
            elif value is None:
                continue
            data[name] = value
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def signature(self) -> str:
        """Stable short digest of the plan (banners, memo keys)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    # -- decoding ------------------------------------------------------------

    @classmethod
    def from_json(cls: Type[P], text: str) -> P:
        """Parse a plan from its :meth:`to_json` text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise cls.ERROR(f"{cls.KIND} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise cls.ERROR(
                f"{cls.KIND} must be a JSON object, got {type(data).__name__}"
            )
        kwargs = dict(data)
        events = data.get("events", [])
        if not isinstance(events, list):
            raise cls.ERROR(f"{cls.KIND} 'events' must be a list")
        kwargs["events"] = tuple(cls._event(event) for event in events)
        for f in fields(cls):
            if is_dataclass(f.default) and f.name in data:
                kwargs[f.name] = cls._build(
                    type(f.default), data[f.name], f"{cls.KIND} {f.name!r}")
        return cls._build(cls, kwargs, cls.KIND)

    @classmethod
    def load(cls: Type[P], path: Union[str, Path]) -> P:
        """Read a plan JSON file."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise cls.ERROR(f"cannot read {cls.KIND} {path}: {exc}") from None
        return cls.from_json(text)

    @classmethod
    def _event(cls, data: Any) -> Any:
        if not isinstance(data, dict):
            raise cls.ERROR(
                f"{cls.KIND} event must be a JSON object, got {data!r}")
        kind = data.get("type")
        event_cls = cls.EVENT_TYPES.get(kind) if isinstance(kind, str) else None
        if event_cls is None:
            raise cls.ERROR(
                f"unknown {cls.KIND} event type {kind!r}; expected one of "
                f"{', '.join(sorted(cls.EVENT_TYPES))}"
            )
        return cls._build(
            event_cls, {k: v for k, v in data.items() if k != "type"},
            f"{kind} event",
        )

    @classmethod
    def _build(cls, target: type, data: Any, what: str) -> Any:
        """``target(**data)`` after checking keys and JSON types."""
        if not isinstance(data, dict):
            raise cls.ERROR(
                f"{what} must be a JSON object, got {type(data).__name__}")
        declared = {f.name: f.type for f in fields(target)}
        unknown = sorted(set(data) - set(declared))
        if unknown:
            raise cls.ERROR(
                f"{what} has unknown field(s) {', '.join(unknown)}")
        for name, value in data.items():
            spec = declared[name]
            optional = spec.startswith("Optional[")
            base = spec[len("Optional["):-1] if optional else spec
            admits = _JSON_TYPES.get(base)
            if admits is None or (optional and value is None):
                continue
            if (isinstance(value, bool) or not isinstance(value, admits)
                    or isinstance(value, float) and not math.isfinite(value)):
                raise cls.ERROR(
                    f"{what} field {name!r} must be a finite {base}, "
                    f"got {value!r}")
        try:
            return target(**data)
        except cls.ERROR:
            raise
        except (TypeError, ValueError, ReproError) as exc:
            raise cls.ERROR(f"invalid {what}: {exc}") from None


__all__ = ["EventPlan"]
