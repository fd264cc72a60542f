"""The BGP community attribute (RFC 1997).

A community is a 32-bit value conventionally written ``high:low`` where
both halves are 16 bits.  Route-server communities (the paper's key data
source) encode an action in one half and a peer ASN in the other, e.g.
``0:5410`` ("do not announce to AS5410 at DE-CIX") or ``6695:8359``
("announce to AS8359 at DE-CIX").
"""

from __future__ import annotations


class Community:
    """A single ``high:low`` BGP community value."""

    __slots__ = ("_high", "_low")

    def __init__(self, high: int, low: int) -> None:
        if not 0 <= high <= 0xFFFF:
            raise ValueError(f"community high half out of range: {high}")
        if not 0 <= low <= 0xFFFF:
            raise ValueError(f"community low half out of range: {low}")
        object.__setattr__(self, "_high", high)
        object.__setattr__(self, "_low", low)

    # -- accessors ---------------------------------------------------------

    @property
    def high(self) -> int:
        """Upper 16 bits (conventionally the operator's ASN)."""
        return self._high

    @property
    def low(self) -> int:
        """Lower 16 bits (conventionally an operator-defined value)."""
        return self._low

    @property
    def value(self) -> int:
        """Packed 32-bit integer form."""
        return (self._high << 16) | self._low

    # -- dunder ------------------------------------------------------------

    def __str__(self) -> str:
        return f"{self._high}:{self._low}"

    def __repr__(self) -> str:
        return f"Community({str(self)!r})"

    def __hash__(self) -> int:
        return hash((self._high, self._low))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Community):
            return NotImplemented
        return self._high == other._high and self._low == other._low

    def __lt__(self, other: "Community") -> bool:
        if not isinstance(other, Community):
            return NotImplemented
        return (self._high, self._low) < (other._high, other._low)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Community is immutable")

    def __reduce__(self):
        # __setattr__ is blocked, so slot-state pickling cannot restore
        # instances; rebuild through the constructor instead.
        return (Community, (self._high, self._low))
