"""Exact dense linear algebra over a Ring (Gaussian elimination only)."""

from __future__ import annotations

from math import gcd

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
    from fractions import Fraction

    lcm = 1
    for x in vec:
        if x:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


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


def inverse(ring: Ring, rows: list[list]) -> list[list] | None:
    """Matrix inverse, or None if singular."""
    n = len(rows)
    aug = [list(r) + [ring.one if i == j else ring.zero for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(ring, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]

