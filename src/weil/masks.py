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


def swap_mask(a: int) -> int:
    """The xor of (bit - 1) over the bits of a.

    A bit of b below a bit of a is one transposition of concatenating a then
    b, and a popcount's parity is linear over GF(2), so
    ``(b & swap_mask(a)).bit_count()`` has the parity of all of them.  The
    loop runs over the bits of a, lowest first; in a derivation a is a
    generator's image mask, so it has few bits, and a caller that puts one
    image in front of many masks takes it once.
    """
    out = 0
    while a:
        low = a & -a
        out ^= low - 1
        a ^= low
    return out

