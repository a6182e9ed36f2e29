"""Defining equations of the automorphism group scheme inside GL_N.

A matrix L sends generator j of the free algebra to sum_i L_ij x_i, and the
image of a word w1 <m> w2 is the m-product of the images of w1 and w2,
evaluated in the presented algebra through the structure constants.  With L
the generic matrix X, the coordinates of the images of the truncated kernel
vectors w - sigma(eta(w)) of the evaluation map eta, sigma its section, cut
the automorphism locus out of GL_N, optionally restricted to graded
automorphisms or to automorphisms fixing distinguished vectors.  The inverse
conditions are the same coordinates with L = t * adj(X), the inverse of X
once t * det(X) = 1.  ``generic_image`` and ``theta_tilde_word`` compute the
same images by independent routes, as test references.  Over a prime field,
``locus_points`` finds the locus points by a depth-first search over the
matrix entries, and ``check_point`` tests one point against every generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import BudgetExceeded, GradingViolation, TruncationTooShort
from .freealg import eta_evaluate, m_product
from .poly import Polynomial, adjugate, generic_matrix
from .poly import determinant as poly_determinant
from .presentation import Presentation, SectionData, generation_closure
from .rings import Ring
from .words import DEFAULT_WORD_CAP, Universe, Word, WordTable, enumerate_words

DEFAULT_BUDGET = 10**8


def generic_image(w: Word, universe: Universe, ring: Ring,
                  cache: dict | None = None) -> dict[Word, Polynomial]:
    """Coefficient polynomials of the generic-matrix image of a word, keyed
    by the same-length words it lands on; each is a single monomial whose
    degree is the word's length.

    A leaf expands into all leaves with matrix-entry coefficients; a node's
    coefficients are products of its children's, landing on the node with
    the same label.  Memoized over interned subwords.
    """
    if cache is not None:
        got = cache.get(w)
        if got is not None:
            return got
    n = universe.num_gens
    coeffs: dict[Word, Polynomial] = {}
    if w.is_leaf:
        for i in range(1, n + 1):
            coeffs[universe.leaf(i)] = Polynomial.variable(ring, n, i, w.gen)
    else:
        gl = generic_image(w.left, universe, ring, cache)
        gr = generic_image(w.right, universe, ring, cache)
        m = w.label
        node = universe.node
        for b, qb in gl.items():
            for c, qc in gr.items():
                coeffs[node(b, m, c)] = qb.mul(qc)
    if cache is not None:
        cache[w] = coeffs
    return coeffs


def theta_tilde_word(theta: list[list], w: Word, universe: Universe,
                     ring: Ring, memo: dict) -> dict[Word, object]:
    """Image of a word under the lifted automorphism of a concrete matrix,
    computed by direct recursive substitution (independent of generic_image)
    and memoized in ``memo``, which must belong to this theta."""
    got = memo.get(w)
    if got is not None:
        return got
    if w.is_leaf:
        column = [row[w.gen - 1] for row in theta]
        e = {universe.leaf(i): c for i, c in enumerate(column, 1) if c}
    else:
        e = m_product(ring, theta_tilde_word(theta, w.left, universe, ring, memo),
                      theta_tilde_word(theta, w.right, universe, ring, memo),
                      w.label, universe)
    memo[w] = e
    return e


def _lift(ring: Ring, section: SectionData, vec) -> dict[Word, object]:
    """sigma(vec) = sum_k vec_k * section.elements[k], skipping zero entries."""
    sigma: dict[Word, object] = {}
    for x, element in zip(vec, section.elements):
        for u, y in element.items() if x else ():
            ring.accumulate(sigma, u, ring.mul(x, y))
    return sigma


@dataclass
class KernelBasis:
    """Reduced-echelon basis of the truncated kernel of the evaluation map,
    and the section of ``generation_closure``, checked to fit the truncation."""

    vectors: list[dict[Word, object]]
    table: WordTable
    section: SectionData


def kernel_basis(pres: Presentation, max_length: int,
                 cap: int = DEFAULT_WORD_CAP) -> KernelBasis:
    """Truncated kernel of the evaluation map eta: one vector w - sigma(eta(w))
    per word w of the table outside the section sigma of ``generation_closure``,
    in canonical order, section words (eta's pivots, so reduced echelon) first;
    over the rationals, vectors are rescaled to primitive integer form."""
    section = generation_closure(pres, cap)
    if section.max_length > max_length:
        raise TruncationTooShort(
            f"generation needs words of length {section.max_length}, "
            f"truncation is {max_length}")
    ring = pres.ring
    table = enumerate_words(pres.universe, max_length, cap)
    in_section = set().union(*section.elements)
    # canonical order from the table: a set of words iterates by identity
    pivots = [u for u in table.words if u in in_section]
    vectors = []
    for w in table.words:
        if w in in_section:
            continue
        sigma = _lift(ring, section, eta_evaluate(w, pres))
        support = [u for u in pivots if u in sigma]
        coeffs = [ring.neg(sigma[u]) for u in support] + [ring.one]
        if ring.p is None:
            coeffs = linalg.primitive_integer(coeffs)
        vectors.append(dict(zip(support + [w], coeffs)))
    return KernelBasis(vectors, table, section)


@dataclass
class IdealSystem:
    """Ordered polynomial generators cutting the automorphism locus out of GL_N.

    With ``inverse`` on, the last generator is t * det(X) - 1."""

    n: int
    ring: Ring
    max_length: int
    graded: bool
    fixed: bool
    inverse: bool
    generators: list[Polynomial]

    def meta_line(self) -> str:
        opts = " ".join(f"{name}={'on' if val else 'off'}"
                        for name, val in (("graded", self.graded),
                                          ("fixed", self.fixed),
                                          ("inverse", self.inverse)))
        return f"# meta N={self.n} ring={self.ring} L={self.max_length} {opts}"


def _add_scaled(acc: dict, q: Polynomial, f) -> None:
    """acc += f * q on a term dict, dropping terms that cancel."""
    ring = q.ring
    for mono, c in q.terms.items():
        ring.accumulate(acc, mono, ring.mul(f, c))


def _block(pres: Presentation, leaves: list[list[Polynomial]], words: list[Word],
           elements: list[dict[Word, object]]):
    """Yield, for each element in turn, the coordinates in the presented
    algebra of its image under the endomorphism sending generator j to
    sum_i leaves[i][j] * x_i.

    psi(w), the coordinates of the image of a word w, is built for each of
    ``words`` in turn, which must list every subword before its word and
    cover the support of every element: a leaf is a column of ``leaves``,
    and psi(w1 <m> w2) is the m-product of psi(w1) and psi(w2) through the
    structure constants.  The coordinates of an element are then
    sum_w alpha_w psi(w).  Each monomial is stored as one tuple per call,
    shared by every psi(w) and every coordinate that has it, and the psi
    memo is freed once the last element has been yielded.

    The coefficients are ints: each structure constant s enters as s * D,
    with D the lcm of their denominators (1 over F_p), and the leaves must
    be integral, so psi(w) holds D^(|w|-1) times the true coordinates.  An
    element sum_w alpha_w w, with A the lcm of the denominators of alpha and
    ``top`` its longest word, sums (alpha_w A) D^(top-|w|) psi(w), which is
    A D^(top-1) times its coordinates; over the rationals each coefficient
    is then divided once, one ``Fraction`` per numerator and denominator in
    the whole call.
    """
    ring, n = pres.ring, pres.num_gens
    scale = math.lcm(*(s.denominator for table in pres._products.values()
                       for _, _, vec in table for _, s in vec))
    consts = {m: [(i, j, [(k, int(s * scale)) for k, s in vec]) for i, j, vec in table]
              for m, table in pres._products.items()}
    canon: dict[tuple, tuple] = {}
    psi: dict[Word, list[Polynomial]] = {}
    for w in words:
        acc: list[dict] = [{} for _ in range(pres.dim)]
        if w.is_leaf:
            for i, g in enumerate(pres.gens):
                leaf = leaves[i][w.gen - 1].terms
                assert all(c.denominator == 1 for c in leaf.values())
                acc[g] = {mono: c.numerator for mono, c in leaf.items()}
        else:
            left, right = psi[w.left], psi[w.right]
            for i, j, vec in consts[w.label]:
                if left[i] and right[j]:
                    prod = left[i].mul(right[j])
                    for k, s in vec:
                        _add_scaled(acc[k], prod, s)
        psi[w] = [Polynomial(ring, n, {canon.setdefault(mono, mono): c
                                       for mono, c in terms.items()} if terms else terms)
                  for terms in acc]
    del canon
    quotients: dict[int, dict[int, Fraction]] = {}
    for element in elements:
        factors = element.items()
        if ring.p is None:
            denom = math.lcm(*(alpha.denominator for alpha in element.values()))
            top = max((w.length for w in element), default=1)
            factors = [(w, int(alpha * denom) * scale ** (top - w.length))
                       for w, alpha in factors]
        acc = [{} for _ in range(pres.dim)]
        for w, f in factors:
            for terms, q in zip(acc, psi[w]):
                _add_scaled(terms, q, f)
        if ring.p is None:
            denom *= scale ** (top - 1)
            fractions = quotients.setdefault(denom, {})
            for terms in acc:
                for mono, c in terms.items():
                    q = fractions.get(c)
                    if q is None:
                        q = fractions[c] = Fraction(c, denom)
                    terms[mono] = q
        yield [Polynomial(ring, n, terms) for terms in acc]


def ideal_generators(pres: Presentation, max_length: int, *,
                     graded: bool = False, fixed: bool = False,
                     inverse: bool = True,
                     cap: int = DEFAULT_WORD_CAP) -> IdealSystem:
    """Assemble the defining equations of the automorphism locus.

    Block order: kernel-preservation conditions (kernel vectors in canonical
    order, coordinates in basis order, as ``_block`` yields them), then
    graded entry conditions, then fixed-vector conditions, then the kernel
    conditions composed with t * adj(theta) followed by t * det(theta) - 1.
    Every block feeds one dedup, which drops exact zeros and duplicates as
    they come, so a dropped generator is freed at once: the kept generators
    are the keys of one insertion-ordered dict, and a generator equal by
    value to a kept one (``Polynomial`` hashes by value) is not stored.
    Nothing else is minimized.
    """
    ring, n = pres.ring, pres.num_gens
    kb = kernel_basis(pres, max_length, cap)
    if graded and pres.degrees is None:
        raise GradingViolation("graded option requires a graded presentation")
    unique: dict[Polynomial, None] = {}

    def keep(gens) -> None:
        for g in gens:
            if g:
                unique.setdefault(g)

    sigmas = [_lift(ring, kb.section, v) for v in pres.fixed] if fixed else []
    words = kb.table.words
    gm = generic_matrix(ring, n)
    forward = _block(pres, gm, words, kb.vectors + sigmas)
    for coords in itertools.islice(forward, len(kb.vectors)):
        keep(coords)
    # drawing the few fixed-vector coordinates ends the block, which frees
    # the forward psi before the inverse block builds its own
    fixed_coords = list(forward)

    if graded:
        gd = pres.gen_degrees
        keep(Polynomial.variable(ring, n, i + 1, j + 1)
             for i in range(n) for j in range(n) if gd[i] != gd[j])

    for v, coords in zip(pres.fixed, fixed_coords):
        keep(q.sub(Polynomial.constant(ring, n, c)) for q, c in zip(coords, v))

    if inverse:
        t = Polynomial.t_var(ring, n)
        inv_leaves = [[t.mul(a) for a in row] for row in adjugate(gm)]
        for coords in _block(pres, inv_leaves, words, kb.vectors):
            keep(coords)
        # t * det(X) - 1, which vanishes exactly when t = 1/det(X)
        keep([t.mul(poly_determinant(gm)).sub(Polynomial.constant(ring, n, ring.one))])
    return IdealSystem(n, ring, max_length, graded, fixed, inverse, list(unique))


# -- point membership ----------------------------------------------------------


def check_point(system: IdealSystem, theta: list[list]) -> bool:
    """True iff theta is invertible and every generator vanishes at theta
    (with t bound to 1/det(theta))."""
    ring = system.ring
    d = linalg.det(ring, theta)
    if not d:
        return False
    tv = ring.invert(d)
    return all(not g.evaluate(theta, tv) for g in system.generators)


def locus_points(system: IdealSystem, budget: int = DEFAULT_BUDGET) -> list[tuple]:
    """All invertible matrices over the prime field at which every generator
    vanishes, in lexicographic (row-major) order.

    A depth-first search sets the entries row by row, trying 0..p-1 at each,
    so the points come out in the order of ``itertools.product``.  A t-free
    generator is checked as soon as the last entry it mentions is set; from
    the last entry of a row that some generator waits for, the values that
    pass there and the rest of the row run through ``itertools.product`` at
    once, and only the completed rows outside the span of the rows above it
    (``linalg.Span``, one lazy batch of tests) go on, so every full matrix
    reached is invertible.  A generator in t is checked there with
    t = 1/det, the only place a determinant is taken.  With the inverse
    block on, the last generator is t * det - 1 (``ideal_generators``
    appends it last, and no other generator has both t and a constant
    term); it vanishes at t = 1/det, so it is skipped.  When no other
    generator has t, the last rows outside the span complete the points,
    kept in one pass.
    """
    ring, n = system.ring, system.n
    p = ring.p
    if p is None:
        raise ValueError("locus enumeration requires a prime field")
    if p ** (n * n) > budget:
        raise BudgetExceeded(f"{p}^{n * n} points exceeds budget {budget}")
    buckets: list[list[Polynomial]] = [[] for _ in range(n * n)]
    with_t: list[Polynomial] = []
    for g in system.generators[:-1] if system.inverse else system.generators:
        if any(mono[-1] for mono in g.terms):
            with_t.append(g)
        else:
            buckets[max((idx for mono in g.terms
                         for idx, e in enumerate(mono[:-1]) if e),
                        default=0)].append(g)
    # per row, the last column with a generator to check, or -1
    last_checked = [max((j for j in range(n) if buckets[i * n + j]), default=-1)
                    for i in range(n)]
    theta = [[ring.zero] * n for _ in range(n)]
    points: list[tuple] = []
    # each row is tested against the span of the rows above it
    span = linalg.Span(p, n)

    def fill(i: int, j: int) -> None:
        row = theta[i]
        if j > last_checked[i]:   # a row with no check, from its first entry
            values = range(p)
        else:
            bucket = buckets[i * n + j]
            values = []
            for v in range(p):
                row[j] = v
                if not any(g.evaluate(theta) for g in bucket):
                    values.append(v)
            if j < last_checked[i]:
                for v in values:
                    row[j] = v
                    fill(i, j + 1)
                return
        # from the row's last check on, every completion at once, cut to the
        # rows outside the span
        rows = span.outside(itertools.product(*[(x,) for x in row[:j]], values,
                                              *[range(p)] * (n - j - 1)),
                            len(values) * p ** (n - j - 1))
        if i + 1 < n:
            for r in rows:
                row[:] = r
                span.push(r)
                fill(i + 1, 0)
                span.pop()
        elif with_t:
            for r in rows:
                row[:] = r
                tv = ring.invert(linalg.det(ring, theta))
                if not any(g.evaluate(theta, tv) for g in with_t):
                    points.append(tuple(map(tuple, theta)))
        else:
            above = tuple(map(tuple, theta[:i]))
            points.extend([above + (r,) for r in rows])

    try:
        fill(0, 0)
    finally:
        # fill holds itself, and points, through its cell: emptying the
        # cell frees them by reference counting
        fill = None
    return points
