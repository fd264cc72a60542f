"""IPv4 prefix model.

A small, hashable, allocation-friendly prefix type.  The library allocates
hundreds of thousands of route objects when simulating collector feeds, so
the prefix is a slotted immutable object built around a packed integer
network address rather than :mod:`ipaddress` objects.
"""

from __future__ import annotations


def _parse_ipv4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


class Prefix:
    """An IPv4 prefix such as ``192.0.2.0/24``.

    Instances are immutable, hashable and totally ordered (by network
    address, then by prefix length), which makes them usable as dictionary
    keys throughout RIBs, route servers and collectors.
    """

    __slots__ = ("_network", "_length")

    def __init__(self, network: int, length: int) -> None:
        if not 0 <= length <= 32:
            raise ValueError(f"invalid prefix length {length}")
        if not 0 <= network <= 0xFFFFFFFF:
            raise ValueError(f"invalid network address {network}")
        mask = self._mask(length)
        object.__setattr__(self, "_network", network & mask)
        object.__setattr__(self, "_length", length)

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` (or a bare address, meaning /32)."""
        text = text.strip()
        if "/" in text:
            addr, _, length_text = text.partition("/")
            if not length_text.isdigit():
                raise ValueError(f"invalid prefix {text!r}")
            length = int(length_text)
        else:
            addr, length = text, 32
        return cls(_parse_ipv4(addr), length)

    @classmethod
    def from_octets(cls, a: int, b: int, c: int, d: int, length: int) -> "Prefix":
        """Build a prefix from four octets and a length."""
        for octet in (a, b, c, d):
            if not 0 <= octet <= 255:
                raise ValueError("octet out of range")
        return cls((a << 24) | (b << 16) | (c << 8) | d, length)

    # -- accessors ---------------------------------------------------------

    @property
    def network(self) -> int:
        """Packed 32-bit network address (host bits zeroed)."""
        return self._network

    @staticmethod
    def _mask(length: int) -> int:
        if length == 0:
            return 0
        return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF

    # -- relations ---------------------------------------------------------

    def contains(self, other: "Prefix") -> bool:
        """Return True if *other* is equal to or more specific than self."""
        if other._length < self._length:
            return False
        return (other._network & self._mask(self._length)) == self._network

    # -- dunder ------------------------------------------------------------

    def __str__(self) -> str:
        octets = (str((self._network >> shift) & 0xFF)
                  for shift in (24, 16, 8, 0))
        return f"{'.'.join(octets)}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __hash__(self) -> int:
        return hash((self._network, self._length))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self._network == other._network and self._length == other._length

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._network, self._length) < (other._network, other._length)

    def __le__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._network, self._length) <= (other._network, other._length)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    def __reduce__(self):
        # __setattr__ is blocked, so slot-state pickling cannot restore
        # instances; rebuild through the constructor instead.
        return (Prefix, (self._network, self._length))
