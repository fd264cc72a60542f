"""Minimal RPSL (Routing Policy Specification Language) objects.

The IRR stores aut-num, as-set and route objects as attribute/value
blocks.  This module provides a small parser/serialiser for the subset
the paper touches: ``aut-num`` objects with ``import`` / ``export``
lines, and ``as-set`` objects with ``members`` lines (used to discover
route-server participants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple


@dataclass
class RPSLObject:
    """A generic RPSL object: an ordered list of (attribute, value) pairs."""

    object_class: str
    key: str
    attributes: List[Tuple[str, str]] = field(default_factory=list)
    source: str = "RIPE"

    def add(self, attribute: str, value: str) -> "RPSLObject":
        """Append an attribute line."""
        self.attributes.append((attribute.lower(), value.strip()))
        return self

    def values(self, attribute: str) -> List[str]:
        """All values of *attribute* (case-insensitive), in order."""
        wanted = attribute.lower()
        return [value for attr, value in self.attributes if attr == wanted]

    def first(self, attribute: str) -> Optional[str]:
        """The first value of *attribute*, or None."""
        values = self.values(attribute)
        return values[0] if values else None


def parse_rpsl(text: str) -> List[RPSLObject]:
    """Parse RPSL text into objects.

    Objects are separated by blank lines; the first attribute of each
    block names the object class and primary key.  Continuation lines
    (leading whitespace or ``+``) extend the previous value, per RPSL.
    """
    objects: List[RPSLObject] = []
    current: List[Tuple[str, str]] = []

    def flush() -> None:
        nonlocal current
        if not current:
            return
        object_class, key = current[0][0], current[0][1]
        obj = RPSLObject(object_class=object_class, key=key)
        for attr, value in current:
            obj.add(attr, value)
        source = obj.first("source")
        if source:
            obj.source = source
        objects.append(obj)
        current = []

    for raw_line in text.splitlines():
        line = raw_line.rstrip()
        if not line.strip():
            flush()
            continue
        if line.startswith("#") or line.startswith("%"):
            continue
        if line[0] in (" ", "\t", "+") and current:
            attr, value = current[-1]
            continuation = line.lstrip("+ \t")
            current[-1] = (attr, f"{value} {continuation}".strip())
            continue
        attr, sep, value = line.partition(":")
        if not sep:
            continue
        current.append((attr.strip().lower(), value.strip()))
    flush()
    return objects


def serialise_rpsl(objects: Iterable[RPSLObject]) -> str:
    """Serialise objects back to RPSL text (one blank line between them)."""
    blocks = []
    for obj in objects:
        lines = [f"{attr}: {value}" for attr, value in obj.attributes]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def parse_as_references(value: str) -> List[int]:
    """Extract AS numbers referenced in an RPSL policy or members value,
    e.g. ``from AS6695 accept ANY`` -> [6695]."""
    result: List[int] = []
    for token in value.replace(",", " ").split():
        token = token.strip().upper()
        if token.startswith("AS") and token[2:].isdigit():
            result.append(int(token[2:]))
    return result
