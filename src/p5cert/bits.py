"""Immutable bitstrings backed by Python integers.

A ``Bits`` value holds ``length`` bits; the bit appended first is the most
significant bit of ``value``.  Index 0 therefore refers to the first bit of
the stream, which keeps encoded certificates byte-compatible with the
documented layouts (integers are packed most-significant-bit first).
"""

from __future__ import annotations

from dataclasses import dataclass

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True, slots=True)
class Bits:
    value: int
    length: int

    def __post_init__(self):
        if self.length < 0 or self.value < 0 or self.value.bit_length() > self.length:
            raise ValueError("value does not fit in length")

    @staticmethod
    def from01(s: str) -> "Bits":
        if s and set(s) - {"0", "1"}:
            raise ValueError("not a 0/1 string")
        return Bits(int(s, 2) if s else 0, len(s))

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def field(self, start: int, width: int) -> int:
        """Unsigned integer value of bits [start, start+width)."""
        if start < 0 or width < 0 or start + width > self.length:
            raise IndexError((start, width))
        return (self.value >> (self.length - start - width)) & ((1 << width) - 1)

    def __add__(self, other: "Bits") -> "Bits":
        return Bits((self.value << other.length) | other.value, self.length + other.length)

    def flip(self, i: int) -> "Bits":
        if not 0 <= i < self.length:
            raise IndexError(i)
        return Bits(self.value ^ (1 << (self.length - 1 - i)), self.length)

    def to_hex(self) -> str:
        """Hex dump, zero-padded on the right to a byte boundary."""
        nbytes = (self.length + 7) // 8
        if nbytes == 0:
            return ""
        padded = self.value << (nbytes * 8 - self.length)
        return format(padded, f"0{nbytes * 2}x")

    @staticmethod
    def from_hex(hexstr: str, bitlength: int) -> "Bits":
        nbytes = (bitlength + 7) // 8
        if len(hexstr) != nbytes * 2:
            raise ValueError("hex length does not match bit length")
        if set(hexstr) - _HEX_DIGITS:  # int(hexstr, 16) would take 0x, _ and non-ASCII digits
            raise ValueError("not a hex string")
        padded = int(hexstr, 16) if hexstr else 0
        pad = nbytes * 8 - bitlength
        if padded & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits")
        return Bits(padded >> pad, bitlength)
