"""Bitmask representation of process sets.

Processes are numbered 1..n.  A set of processes is an int whose bit p-1 is
set iff process p is a member.  Subset tests against root components dominate
the refinement loop, so sets stay as plain ints throughout the core.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress


def mask_of(procs: Iterable[int]) -> int:
    m = 0
    for p in procs:
        m |= 1 << (p - 1)
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


def procs_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


# bin() digits as 0/1 bytes, to select a mask's members with compress()
_BIN_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def select(seq: Sequence, mask: int) -> Iterator:
    """The items ``seq[p-1]`` for the members p of ``mask``, ascending, in one
    C pass over the mask's binary digits, lowest first."""
    return compress(seq, bin(mask)[:1:-1].encode().translate(_BIN_DIGITS))


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def fmt(mask: int) -> str:
    """Render a process set as ``{p1,p3}`` with members in ascending order."""
    return "{" + ",".join(f"p{p}" for p in procs_of(mask)) + "}"
