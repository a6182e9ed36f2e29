"""Exact dense linear algebra over a Ring (Gaussian elimination only)."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .rings import Ring


def rref(ring: Ring, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form, pivoting left-to-right in column order.

    Returns (reduced rows, pivot column indices). Mutates a copy.
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ring.invert(m[r][c])
        m[r] = [ring.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def primitive_integer(vec: list) -> list:
    """Rescale a nonzero rational vector to coprime integers, first nonzero entry positive."""
    lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * lcm) for x in vec]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [Fraction(x // g) for x in ints]


def det(ring: Ring, rows: list[list]):
    """Determinant by fraction-free-enough elimination (division allowed: field)."""
    n = len(rows)
    m = [list(r) for r in rows]
    d = ring.one
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return ring.zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = ring.neg(d)
        d = ring.mul(d, m[c][c])
        inv = ring.invert(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                f = ring.mul(m[i][c], inv)
                m[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(m[i], m[c])]
    return d


class Span:
    """The spans of a stack of vectors over F_p, for dependence tests.

    Each pushed vector is kept reduced against the ones below it, scaled to
    1 at its pivot, so a test of v against the span of k vectors takes up
    to k reduction steps.  The (p^k // k)-th test since the top was pushed
    builds the set of the span's p^k vectors (tuples of residues), and that
    test and every later one is a lookup.  Building the set costs about as
    much as the reductions made before it, so no sequence of tests costs
    much more than reducing them all; a span that meets few tests, such as
    the one a forced column is tested against, is never expanded.  Tests
    come in batches (``outside``), and a batch that reaches that count
    builds the set at once.  A vector is pushed only when it is not in the
    span.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self._reduced: list[tuple[int, list]] = []   # (pivot column, row)
        self._sets: list[set | None] = [{(0,) * n}]
        self._left = [0]   # per span, tests to go before its set is built

    def push(self, v: tuple) -> None:
        p = self.p
        resid = self._reduce(v)
        pivot = next(c for c, x in enumerate(resid) if x)
        inv = pow(resid[pivot], p - 2, p)
        self._reduced.append((pivot, [x * inv % p for x in resid]))
        self._sets.append(None)
        k = len(self._reduced)
        self._left.append(p ** k // k)

    def pop(self) -> None:
        self._reduced.pop()
        self._sets.pop()
        self._left.pop()

    def outside(self, vectors, count: int):
        """An iterator over the vectors not in the span, in order, of an
        iterable of count vectors, which counts as count tests.  It reads
        the vectors lazily, so the span must be the same at each step: what
        is pushed between two steps is popped before the next."""
        got = self._sets[-1]
        if got is None:
            left = self._left[-1] - count
            if left > 0:
                self._left[-1] = left
                return filter(lambda v: any(self._reduce(v)), vectors)
            got = self._sets[-1] = set(self._elements(len(self._reduced)))
        return itertools.filterfalse(got.__contains__, vectors)

    def _reduce(self, v: tuple) -> list:
        p = self.p
        resid = list(v)
        for c, row in self._reduced:
            f = resid[c]
            if f:
                resid = [(x - f * y) % p for x, y in zip(resid, row)]
        return resid

    def _elements(self, k: int):
        """The vectors of the span of the first k pushed vectors."""
        got = self._sets[k]
        if got is not None:
            return got
        p, top = self.p, self._reduced[k - 1][1]
        below = self._elements(k - 1)
        out = list(below)
        for c in range(1, p):
            m = [c * y % p for y in top]
            out += [tuple([(x + y) % p for x, y in zip(u, m)]) for u in below]
        return out


def inverse(ring: Ring, rows: list[list]) -> list[list] | None:
    """Matrix inverse, or None if singular."""
    n = len(rows)
    aug = [list(r) + [ring.one if i == j else ring.zero for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(ring, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]

