"""Bitmask helpers for anticommuting index sets.

An ascending index set {i_1 < ... < i_p} (0-based) is stored as the integer
with bits i_1..i_p set.  Signs follow the Koszul rule: merging two sets costs
(-1) per transposition needed to interleave them.
"""

from __future__ import annotations


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        bit = 1 << i
        if m & bit:
            raise ValueError(f"duplicate index {i}")
        m |= bit
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def merge_sign(a: int, b: int):
    """(merged_mask, sign) for concatenating ordered sets a then b; None on overlap.

    The loop runs over the bits of a, lowest first; in a derivation a is a
    generator's image mask, so it has few bits.  Each bit of b below a bit of
    a is one transposition.
    """
    if a & b:
        return None
    swaps, rest = 0, a
    while rest:
        low = rest & -rest
        swaps += (b & (low - 1)).bit_count()
        rest ^= low
    return a | b, -1 if swaps % 2 else 1
