"""Address decomposition for set-associative caches.

A physical address splits into ``| tag | index | offset |`` fields whose
widths follow from the cache geometry.  Placement policies consume the
tag and index fields; the offset only selects a word within the line
and never participates in placement (see paper §2.1, mbpta-p2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.common.bitops import bit_length_for, extract_bits, is_power_of_two, mask


@dataclass(frozen=True)
class DecodedAddress:
    """An address decomposed against a concrete :class:`AddressLayout`."""

    address: int
    tag: int
    index: int
    offset: int

    @property
    def line_address(self) -> int:
        """The address with offset bits cleared (identifies the cache line)."""
        return self.address - self.offset


@dataclass(frozen=True)
class AddressLayout:
    """Field layout of addresses for a cache with a given geometry.

    Parameters
    ----------
    line_size:
        Bytes per cache line; must be a power of two.
    num_sets:
        Number of cache sets; must be a power of two.
    address_bits:
        Total physical address width (default 32, as in the ARM920T
        platform modelled by the paper).
    """

    line_size: int
    num_sets: int
    address_bits: int = 32

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if not is_power_of_two(self.num_sets):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        needed = self.offset_bits + self.index_bits
        if self.address_bits <= needed:
            raise ValueError(
                f"address_bits={self.address_bits} too small for "
                f"offset({self.offset_bits}) + index({self.index_bits}) bits"
            )

    # Widths are computed once per layout: decode() runs per access.
    @cached_property
    def offset_bits(self) -> int:
        return bit_length_for(self.line_size)

    @cached_property
    def index_bits(self) -> int:
        return bit_length_for(self.num_sets)

    @cached_property
    def tag_bits(self) -> int:
        return self.address_bits - self.index_bits - self.offset_bits

    def decode(self, address: int) -> DecodedAddress:
        """Split ``address`` into tag/index/offset fields."""
        if address < 0 or address > mask(self.address_bits):
            raise ValueError(
                f"address {address:#x} outside {self.address_bits}-bit space"
            )
        offset = extract_bits(address, 0, self.offset_bits)
        index = extract_bits(address, self.offset_bits, self.index_bits)
        tag = extract_bits(
            address, self.offset_bits + self.index_bits, self.tag_bits
        )
        return DecodedAddress(address=address, tag=tag, index=index, offset=offset)

    def encode(self, tag: int, index: int, offset: int = 0) -> int:
        """Rebuild an address from its fields (inverse of :meth:`decode`)."""
        if tag > mask(self.tag_bits):
            raise ValueError(f"tag {tag:#x} wider than {self.tag_bits} bits")
        if index > mask(self.index_bits):
            raise ValueError(f"index {index:#x} wider than {self.index_bits} bits")
        if offset > mask(self.offset_bits):
            raise ValueError(f"offset {offset:#x} wider than {self.offset_bits} bits")
        return (
            (tag << (self.index_bits + self.offset_bits))
            | (index << self.offset_bits)
            | offset
        )

    def line_number(self, address: int) -> int:
        """Global line number of ``address`` (tag and index concatenated)."""
        return address >> self.offset_bits
