"""The free algebra on the generator set, bilinear m-products, and the
evaluation map into a presented algebra.

An element of the free algebra is a plain dict from interned words to
nonzero scalars: a finitely supported combination of words, with no key
for a zero coefficient.  ``Ring.accumulate`` keeps sums in that form.
"""

from __future__ import annotations

from .rings import Ring
from .words import DEFAULT_WORD_CAP, Universe, Word, WordTable, enumerate_words


def m_product(ring: Ring, a: dict[Word, object], b: dict[Word, object], m: int,
              universe: Universe) -> dict[Word, object]:
    """Bilinear extension of the magma product to free-algebra elements.

    Distinct word pairs give distinct nodes, and a product of nonzero field
    scalars is nonzero, so no term cancels and none is zero."""
    node = universe.node
    return {node(wa, m, wb): ring.mul(ca, cb)
            for wa, ca in a.items() for wb, cb in b.items()}


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


def eta_element(e: dict[Word, object], pres) -> tuple:
    ring = pres.ring
    out = [ring.zero] * pres.dim
    for w, c in e.items():
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
