"""Sparse multivariate polynomials in the generic matrix entries X_ij plus one
auxiliary variable t, with determinant and adjugate of polynomial matrices.

Monomials are exponent tuples of fixed arity n*n + 1, variable order
X_1_1 < X_1_2 < ... < X_n_n < t.  The canonical text form sorts terms by
graded lexicographic order, largest first.
"""

from __future__ import annotations

import operator
import re

from .rings import Ring


class Polynomial:
    __slots__ = ("ring", "n", "terms")

    def __init__(self, ring: Ring, n: int, terms: dict | None = None):
        self.ring = ring
        self.n = n
        self.terms = terms if terms is not None else {}

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "Polynomial":
        return cls(ring, n)

    @classmethod
    def constant(cls, ring: Ring, n: int, c) -> "Polynomial":
        if not c:
            return cls(ring, n)
        return cls(ring, n, {(0,) * (n * n + 1): c})

    @classmethod
    def variable(cls, ring: Ring, n: int, i: int, j: int) -> "Polynomial":
        # X_ij, 1-based indices
        exps = [0] * (n * n + 1)
        exps[(i - 1) * n + (j - 1)] = 1
        return cls(ring, n, {tuple(exps): ring.one})

    @classmethod
    def t_var(cls, ring: Ring, n: int) -> "Polynomial":
        exps = [0] * (n * n + 1)
        exps[-1] = 1
        return cls(ring, n, {tuple(exps): ring.one})

    # -- basic predicates --------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.n == other.n and self.terms == other.terms)

    def key(self):
        return frozenset(self.terms.items())

    def __hash__(self):
        # by value, as __eq__ compares: terms are not mutated once built
        return hash(self.key())

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            self.ring.accumulate(acc, mono, c)
        return Polynomial(self.ring, self.n, acc)

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def neg(self) -> "Polynomial":
        ring = self.ring
        return Polynomial(ring, self.n, {m: ring.neg(c) for m, c in self.terms.items()})

    def scale(self, c) -> "Polynomial":
        if not c:
            return Polynomial(self.ring, self.n)
        ring = self.ring
        return Polynomial(ring, self.n, {m: ring.mul(c, x) for m, x in self.terms.items()})

    def mul(self, other: "Polynomial") -> "Polynomial":
        ring = self.ring
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(operator.add, m1, m2))
                ring.accumulate(acc, mono, ring.mul(c1, c2))
        return Polynomial(ring, self.n, acc)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: list[list], t_value=None):
        """Exact value at an n x n scalar matrix, with t bound to t_value."""
        ring = self.ring
        if t_value is None:
            t_value = ring.one
        flat = [point[i][j] for i in range(self.n) for j in range(self.n)]
        flat.append(t_value)
        total = ring.zero
        for mono, c in self.terms.items():
            v = c
            for x, e in zip(flat, mono):
                if e:
                    v = ring.mul(v, x ** e)
            total = ring.add(total, v)
        return total

    def substitute(self, entries: list["Polynomial"]) -> "Polynomial":
        """Substitute polynomials for the X variables (flat, row-major); t stays t."""
        ring, n = self.ring, self.n
        out = Polynomial(ring, n)
        for mono, c in self.terms.items():
            term = Polynomial(ring, n, {(0,) * (n * n) + mono[-1:]: c})
            for idx, e in enumerate(mono[:-1]):
                for _ in range(e):
                    term = term.mul(entries[idx])
            out = out.add(term)
        return out


def generic_matrix(ring: Ring, n: int) -> list[list[Polynomial]]:
    return [[Polynomial.variable(ring, n, i + 1, j + 1) for j in range(n)]
            for i in range(n)]


def determinant(mat: list[list[Polynomial]]) -> Polynomial:
    """Cofactor expansion along the first row (desk-scale dimensions)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    first = mat[0][0]
    ring, arity = first.ring, first.n
    total = Polynomial.zero(ring, arity)
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in mat[1:]]
        term = mat[0][j].mul(determinant(minor))
        total = total.add(term.neg() if j % 2 else term)
    return total


def adjugate(mat: list[list[Polynomial]]) -> list[list[Polynomial]]:
    """adj(M), satisfying M * adj(M) = det(M) * I identically."""
    n = len(mat)
    first = mat[0][0]
    ring, arity = first.ring, first.n
    if n == 1:
        return [[Polynomial.constant(ring, arity, ring.one)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = determinant(minor)
            adj[j][i] = cof.neg() if (i + j) % 2 else cof
    return adj


# -- canonical text form ------------------------------------------------------

def _grlex_key(mono: tuple) -> tuple:
    return (sum(mono), mono)


def _monomial_text(mono: tuple, n: int) -> str:
    """The factor text of a monomial, as " * X_1_1^2 * t"; empty for 1."""
    parts = []
    for idx, e in enumerate(mono):
        if e:
            name = "t" if idx == n * n else f"X_{idx // n + 1}_{idx % n + 1}"
            parts.append(f" * {name}^{e}" if e > 1 else f" * {name}")
    return "".join(parts)


def format_poly(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    return " + ".join(str(p.terms[mono]) + _monomial_text(mono, p.n)
                      for mono in sorted(p.terms, key=_grlex_key, reverse=True))


def format_polys(polys):
    """Yield format_poly(p) for each p in polys.  Each distinct monomial's
    ``_monomial_text`` is built once per call and shared by every term that
    has it."""
    factors: dict = {}
    for p in polys:
        if not p.terms:
            yield "0"
            continue
        pieces = []
        for mono in sorted(p.terms, key=_grlex_key, reverse=True):
            text = factors.get(mono)
            if text is None:
                text = factors[mono] = _monomial_text(mono, p.n)
            pieces.append(str(p.terms[mono]) + text)
        yield " + ".join(pieces)


_FACTOR_RE = re.compile(r"^(?:X_(\d+)_(\d+)|t)(?:\^(\d+))?$")


def parse_poly(text: str, ring: Ring, n: int) -> Polynomial:
    text = text.strip()
    if text == "0":
        return Polynomial.zero(ring, n)
    acc: dict = {}
    for term in text.split(" + "):
        factors = [f.strip() for f in term.split("*")]
        c = ring.parse(factors[0])
        exps = [0] * (n * n + 1)
        for f in factors[1:]:
            m = _FACTOR_RE.match(f)
            if not m:
                raise ValueError(f"bad factor {f!r}")
            e = int(m.group(3)) if m.group(3) else 1
            if m.group(1) is None:
                exps[-1] += e
            else:
                i, j = int(m.group(1)), int(m.group(2))
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ValueError(f"variable {f!r} out of range for n={n}")
                exps[(i - 1) * n + (j - 1)] += e
        ring.accumulate(acc, tuple(exps), c)
    return Polynomial(ring, n, acc)
