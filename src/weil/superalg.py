"""Sparse super-commutative polynomials with exact coefficients.

The free graded-commutative algebra on n odd generators o_0..o_{n-1} and n
even generators e_0..e_{n-1}: odd generators anticommute, even ones commute
with everything.  The Weil algebra W(g) is this algebra with o = lam and
e = lamt, chart forms Omega(R^m) have o = dx and e = x, and the Weil model
Omega(R^m) (x) W(g) has all four (dx, lam odd; x, lamt even).

A monomial o_S e^k is keyed by (mask of S, exponent tuple k) and stands for
the odd factors in ascending order followed by the even factors; an element
maps keys to nonzero Fractions.  Every derivation used in the package (d_K,
contraction, Lie derivative, the de Rham d, the total D of the Weil model)
is fixed by its values on generators and goes through :func:`derivation`,
or, to assemble a linear system, through :func:`operator_rows`, which runs
the same Leibniz rule on keys packed into single ints (mask in the low n
bits, each exponent in a field of bits above it), so that a product of
monomials is one integer addition.  It gathers each generator's image terms
from every table into one list, so a key visits only images that exist and
its vector fills generator-major, and it numbers the columns of the system
fewest holders first, ties by first appearance in that order, so that its
elimination fills in less.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm, prod
from operator import add, lshift, or_

from . import linalg
from .liealg import frac
from .masks import indices_of, mask_of, swap_mask

Key = tuple[int, tuple[int, ...]]  # (odd bitmask, even exponent vector)
ONE = Fraction(1)


def unit_exponent(n, i):
    """The exponent vector of the single even generator e_i."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


class SuperElement:
    """Sparse element on n odd and n even generators; immutable by convention.

    Subclasses fix the meaning of the generators: their constructors, their
    grading (``key_degree``), term order and repr.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[Key, Fraction] = {}
        if terms:
            for key, c in terms.items():
                c = frac(c)
                if c:
                    self.terms[key] = c

    def with_terms(self, terms):
        """An element of the same algebra with ``terms`` (nonzero Fractions, not copied)."""
        out = object.__new__(type(self))
        out.n = self.n
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def unit(cls, n, c=1):
        return cls(n, {(0, (0,) * n): c})

    @classmethod
    def monomial(cls, n, odd_indices, exponents, c=1):
        return cls(n, {(mask_of(odd_indices), tuple(exponents)): c})

    # -- structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def degrees(self):
        return {self.key_degree(k) for k in self.terms}

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def degree(self):
        """The one degree of a nonzero homogeneous element; bench/checks.py reads it."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("element is not homogeneous (or is zero)")
        return degs.pop()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return self.with_terms(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.with_terms({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = frac(c)
        return self.with_terms({k: v * c for k, v in self.terms.items()} if c else {})

    def __mul__(self, other):
        return multiply(self, other) if isinstance(other, SuperElement) else NotImplemented

    def _compat(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch between elements")


def _acc(out, key, v):
    old = out.get(key)
    if old is None:
        out[key] = v
    else:
        v += old
        if v:
            out[key] = v
        else:
            del out[key]


def _left_multiply(out, img, mask, exps, c):
    """Accumulate c * img * o_mask e^exps into ``out``; ``img`` is a term dict.  An image
    term with odd mask im is zero if im meets mask, else signed by ``mask & swap_mask(im)``."""
    for (im, ie), ic in img.items():
        if im & mask:
            continue
        v = c * ic
        _acc(out, (im | mask, tuple(map(add, ie, exps))),
             -v if (mask & swap_mask(im)).bit_count() & 1 else v)


def multiply(a: SuperElement, b: SuperElement) -> SuperElement:
    """Graded-commutative product; signs come from the odd generators only."""
    a._compat(b)
    out: dict[Key, Fraction] = {}
    for (mask, exps), c in b.terms.items():
        _left_multiply(out, a.terms, mask, exps, c)
    return a.with_terms(out)


def derivation(a: SuperElement, odd_images, even_images) -> SuperElement:
    """D(a) = sum_g D(g) da/dg, where D(o_i) = odd_images[i], D(e_i) = even_images[i].

    Images are term dicts {key: Fraction}; None or {} stands for zero, and
    each image has the parity of D.  Only the images of generators that occur
    in ``a`` are looked up.  da/dg is the left derivative: o_i at position p
    leaves (-1)^p o_{mask - i} e^exps, e_i leaves exps_i o_mask e^{exps - 1_i}.
    Moving D(g) to the front costs exactly the sign D would pick up passing
    the same factors, so the parity of D never enters.
    """
    out: dict[Key, Fraction] = {}
    for (mask, exps), c in a.terms.items():
        for p, i in enumerate(indices_of(mask)):
            img = odd_images[i]
            if img:
                _left_multiply(out, img, mask & ~(1 << i), exps, -c if p & 1 else c)
        for i, q in enumerate(exps):
            img = q and even_images[i]
            if img:
                _left_multiply(out, img, mask, exps[:i] + (q - 1,) + exps[i + 1:], q * c)
    return a.with_terms(out)


def substitute(a: SuperElement, odd_images, even_images, one: SuperElement) -> SuperElement:
    """The algebra map o_i -> odd_images[i], e_i -> even_images[i] applied to ``a``.

    ``one`` is the unit of the target algebra; images of odd generators must
    be odd and images of even generators even for the map to be well defined.

    Each image used is scaled to ints once per call (a recurring image is
    recognised by identity) by the lcm s of its denominators.  A term's
    factors, odd ascending then even, are multiplied left to right on ints by
    :func:`_left_multiply`, and the terms are summed over one common
    denominator.  Every scale is a nonzero constant, so keys cancel as they
    do on Fractions: the values and insertion order are those of one
    :func:`multiply` per factor.
    """
    scaled = {}

    def ints(img):  # (s, s * img on ints)
        got = scaled.get(id(img))
        if got is None:
            one._compat(img)
            s = lcm(*(c.denominator for c in img.terms.values()))
            got = scaled[id(img)] = (s, {k: c.numerator * (s // c.denominator)
                                         for k, c in img.terms.items()})
        return got

    start = ints(one)
    terms = []
    for (mask, exps), c in a.terms.items():
        factors = [ints(odd_images[i]) for i in indices_of(mask)]
        for i, q in enumerate(exps):
            if q:
                factors += [ints(even_images[i])] * q
        terms.append((c, factors, c.denominator * prod(s for s, _ in factors) * start[0]))
    scale = lcm(*(den for _, _, den in terms))
    out: dict[Key, int] = {}
    for c, factors, den in terms:
        piece = start[1]
        for _, img in factors:
            piece, left = {}, piece
            for (mask, exps), v in img.items():
                _left_multiply(piece, left, mask, exps, v)
        f = c.numerator * (scale // den)
        for k, v in piece.items():
            _acc(out, k, v * f)
    return one.with_terms({k: Fraction(v, scale) for k, v in out.items()})


def operator_rows(tables, domain_keys):
    """One vector per domain key: its images under every derivation in ``tables``.

    Each derivation is an (odd_images, even_images) pair, scaled to integers
    by the lcm of its denominators (a multiple of the derivation, with the
    same kernel and rank) and applied to the key with coefficient 1.  A
    vector maps columns, one per pair (derivation, image key), to
    coefficients.  The vectors are the rows of the transposed operator
    matrix, so no codomain basis is needed: they have its rank, and its
    kernel is their ``linalg.relations``.

    Columns are numbered by how many vectors hold them, fewest first, ties
    in order of first appearance: the static form of Markowitz's rule.  The
    elimination pivots on the lowest-numbered column, so a rank, and a
    kernel, taken on the vectors fills in less.

    This is the Leibniz rule of :func:`derivation` on packed keys: a key
    (mask, exps) is the int ``mask | sum_i exps[i] << (n + w*i)``, the odd
    mask in the low n bits and each exponent in a w-bit field above it.  w is
    the bit length of the largest domain exponent sum plus the largest image
    exponent sum, so no field of a product can carry, and a product of
    monomials is one integer addition (the odd masks are disjoint there).  A
    left derivative is a subtraction, and the sign of putting an image with
    odd mask im in front is the parity of ``rest & masks.swap_mask(im)``.
    An image is used, and packed and scaled, only if some domain key holds
    its generator.  An image key of table o of t carries o in its low digit,
    ``pack(image key) * t + o``, so no two tables share a column key, and
    the used image terms of each generator, from every table in table
    order, form one list.  A domain key walks its left derivatives, odd
    indices ascending then even, through the lists of the generators that
    have an image, so each vector fills generator-major: per generator,
    then per table.  Packing is a bijection, so the vectors have the values
    and insertion order of one :func:`derivation` per key, generator and
    table, summed in that order.
    """
    if not tables:
        return [{} for _ in domain_keys]
    scales = [lcm(*(c.denominator for side in table for img in side if img
                    for c in img.values())) for table in tables]
    n = len(tables[0][0])
    image_top = max((sum(e) for table in tables for side in table for img in side if img
                     for _, e in img), default=0)
    width = (max((sum(e) for _, e in domain_keys), default=0) + image_top).bit_length()
    shifts = [n + width * i for i in range(n)]

    def pack(mask, exps):
        return mask + sum(map(lshift, exps, shifts))

    keys = [pack(mask, exps) for mask, exps in domain_keys]
    # the generators some domain key holds, o_0..o_{n-1} then e_0..e_{n-1},
    # read off the or of the packed keys: no other generator has a left
    # derivative, so no other image is used
    held = reduce(or_, keys, 0)
    flags = [held >> i & 1 for i in range(n)] + [held >> s & ((1 << width) - 1) for s in shifts]
    # per generator, the used image terms of every table in table order, each
    # (odd mask, sign mask, column key, integer coefficient)
    t = len(tables)
    by_gen = [[] for _ in flags]
    for o, (scale, (odd, even)) in enumerate(zip(scales, tables)):
        for terms, h, img in zip(by_gen, flags, odd + even):
            if img and h:
                terms += [(im, swap_mask(im), pack(im, ie) * t + o,
                           c.numerator * (scale // c.denominator)) for (im, ie), c in img.items()]
    # the derivatives that meet an image: (image terms, generator bit, sign)
    # of the o_i per odd mask, (image terms, generator bit, index) of the e_i
    odd_walks = {}
    even_walk = [(terms, 1 << s, i) for i, (terms, s) in enumerate(zip(by_gen[n:], shifts))
                 if terms]
    out = []
    for (mask, exps), key in zip(domain_keys, keys):
        walk = odd_walks.get(mask)
        if walk is None:
            walk = odd_walks[mask] = [(by_gen[i], 1 << i, -1 if p & 1 else 1)
                                      for p, i in enumerate(indices_of(mask)) if by_gen[i]]
        image: dict[int, int] = {}
        for terms, bit, q in walk + [(terms, bit, exps[i]) for terms, bit, i in even_walk
                                     if exps[i]]:
            rest = key - bit
            shift = rest * t
            for im, below, k, c in terms:
                if im & rest:
                    continue
                k += shift
                v = -q * c if (rest & below).bit_count() & 1 else q * c
                old = image.get(k)  # _acc, inlined: the hot loop of the package
                if old is not None:
                    v += old
                    if not v:
                        del image[k]
                        continue
                image[k] = v
        out.append(image)
    # number the columns fewest holders first, ties by first appearance
    count = Counter(chain.from_iterable(out))
    index = {k: j for j, k in enumerate(sorted(count, key=count.__getitem__))}
    return [{index[k]: c for k, c in image.items()} for image in out]


def vectors(elements):
    """Coefficient vectors of ``elements``, one column per key in order of first appearance."""
    index: dict[Key, int] = {}
    return [{index.setdefault(k, len(index)): c for k, c in e.terms.items()} for e in elements]


def in_span(candidates, element: SuperElement) -> bool:
    """Exact membership of ``element`` in the span of ``candidates``."""
    *columns, target = vectors([*candidates, element])
    return linalg.solve(columns, [target]) is not None
