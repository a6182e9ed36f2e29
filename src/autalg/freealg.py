"""The free algebra on the generator set: finitely supported combinations of
words, bilinear m-products, and the evaluation map into a presented algebra."""

from __future__ import annotations

from dataclasses import dataclass, field

from .rings import Ring
from .words import DEFAULT_WORD_CAP, Universe, Word, WordTable, enumerate_words


@dataclass
class FreeElement:
    """Finite map word -> nonzero scalar; zero coefficients are never stored."""

    ring: Ring
    terms: dict[Word, object] = field(default_factory=dict)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, FreeElement) and self.ring == other.ring
                and self.terms == other.terms)

    def add_term(self, w: Word, c) -> None:
        cur = self.terms.get(w)
        if cur is None:
            if c:
                self.terms[w] = c
            return
        s = self.ring.add(cur, c)
        if s:
            self.terms[w] = s
        else:
            del self.terms[w]

    def add(self, other: "FreeElement") -> "FreeElement":
        out = FreeElement(self.ring, dict(self.terms))
        for w, c in other.terms.items():
            out.add_term(w, c)
        return out

    def scale(self, c) -> "FreeElement":
        if not c:
            return FreeElement(self.ring)
        return FreeElement(self.ring, {w: self.ring.mul(c, x) for w, x in self.terms.items()})


def m_product(a: FreeElement, b: FreeElement, m: int, universe: Universe) -> FreeElement:
    """Bilinear extension of the magma product to free elements."""
    ring = a.ring
    out = FreeElement(ring)
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            out.add_term(universe.node(wa, m, wb), ring.mul(ca, cb))
    return out


def structure_product(pres, u: tuple, v: tuple, m: int) -> tuple:
    """m-product of two coordinate vectors of the presented algebra: for
    each nonzero structure constant e_i <m> e_j = sum_k s_k e_k of the
    label, u_i v_j s_k lands on coordinate k."""
    ring = pres.ring
    out = [ring.zero] * len(u)
    for i, j, vec in pres._products[m]:
        ci = u[i]
        if not ci:
            continue
        cj = v[j]
        if not cj:
            continue
        f = ring.mul(ci, cj)
        for k, sk in vec:
            out[k] = ring.add(out[k], ring.mul(f, sk))
    return tuple(out)


def eta_evaluate(w: Word, pres) -> tuple:
    """Image of a word under the evaluation homomorphism into the presented algebra.

    Leaves go to the presentation's generators; nodes recurse through the
    structure constants. Memoized on interned words (shared subtrees dominate
    at larger lengths) in the presentation's ``eta_cache``.
    """
    memo = pres.eta_cache
    got = memo.get(w)
    if got is not None:
        return got
    if w.is_leaf:
        ring = pres.ring
        vec = [ring.zero] * pres.dim
        vec[pres.gens[w.gen - 1]] = ring.one
        out = tuple(vec)
    else:
        out = structure_product(pres, eta_evaluate(w.left, pres),
                                eta_evaluate(w.right, pres), w.label)
    memo[w] = out
    return out


def eta_element(e: FreeElement, pres) -> tuple:
    ring = pres.ring
    out = [ring.zero] * pres.dim
    for w, c in e.terms.items():
        for k, x in enumerate(eta_evaluate(w, pres)):
            if x:
                out[k] = ring.add(out[k], ring.mul(c, x))
    return tuple(out)


def eta_matrix(pres, max_length: int,
               cap: int = DEFAULT_WORD_CAP) -> tuple[list[list], WordTable]:
    """Dense matrix of the evaluation map on the truncated word basis.

    Rows are indexed by the presentation basis, columns by words of length
    <= max_length in canonical order.
    """
    table = enumerate_words(pres.universe, max_length, cap)
    cols = [eta_evaluate(w, pres) for w in table.words]
    rows = [[col[i] for col in cols] for i in range(pres.dim)]
    return rows, table
