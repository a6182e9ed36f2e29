"""Brute-force ground truth over small prime fields: exhaustive, pruned
enumeration of the algebra automorphisms preserving the generating submodule,
and set comparison against the vanishing locus of a computed ideal system.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from . import linalg
from .autscheme import DEFAULT_BUDGET, IdealSystem, locus_points, theta_tilde_word
from .errors import BudgetExceeded, GradingViolation
from .freealg import eta_element, structure_product
from .presentation import Presentation, parse as parse_presentation
from .presentation import format_presentation, generation_closure


@dataclass
class AutoSet:
    """All qualifying automorphism matrices and their restrictions to the
    generating submodule, each in lexicographic (row-major) order."""

    p: int
    autos: list[tuple]        # D x D matrices, tuple of row tuples
    restricted: list[tuple]   # N x N restrictions, same order as autos


@dataclass
class ComparisonReport:
    locus_size: int
    oracle_size: int
    missing: list[tuple]   # oracle restrictions absent from the locus
    extra: list[tuple]     # locus points not restrictions of any automorphism

    @property
    def equal(self) -> bool:
        return not self.missing and not self.extra


def format_matrix(mat: tuple | list) -> str:
    return ";".join(",".join(str(x) for x in row) for row in mat)


def parse_matrix(text: str, n: int, ring) -> list[list]:
    rows = [r for r in text.strip().split(";") if r.strip()]
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    out = []
    for r in rows:
        entries = [ring.parse(x) for x in r.split(",")]
        if len(entries) != n:
            raise ValueError(f"expected {n} entries per row")
        out.append(entries)
    return out


def _column_support(pres: Presentation, graded: bool, j: int) -> set[int]:
    """The basis indices column j may use: generators only for a generator
    column, and only its own degree when graded."""
    gen_set = set(pres.gens)
    return {k for k in range(pres.dim)
            if (j not in gen_set or k in gen_set)
            and (not graded or pres.degrees[k] == pres.degrees[j])}


def enumerate_automorphisms(pres: Presentation, *, graded: bool = False,
                            fixed: bool = False, budget: int = DEFAULT_BUDGET,
                            workers: int = 1) -> AutoSet:
    """Exhaustive column-by-column enumeration with pruning.

    Partial matrices are cut as soon as a multiplicativity constraint on the
    already-chosen columns fails, a chosen column lies in the span of the
    earlier ones, or a fully-determined fixed vector moves.  The spans are
    a ``linalg.Span``: a test reduces the column against the chosen ones,
    and a span that meets many tests, as at a depth that tries its whole
    product of candidates, turns into a set and each test into one lookup.
    A product known to be zero is checked only where the supports of its
    two columns meet a product of its label; elsewhere the check could
    never fail.  Product checks walk the sparse structure constants, and
    keep their product vectors sparse.

    Candidate columns are built one at a time during the search, never up
    front, and each depth tests its candidates against the span as one
    lazy batch.  At a last column that nothing forces or checks, the
    candidates outside the span are kept in one pass.

    A column d is forced when a product e_i e_j = v with i, j < d ends at d
    (v_d != 0, v_r = 0 for r > d): the search tries only
    col_d = v_d^-1 (col_i col_j - sum_{r<d} v_r col_r), and cuts the
    branch if that vector leaves the column's support; the independence
    and product checks still run on it.  The budget bounds the candidate
    columns visited over the whole search, a forced column counting as all
    the candidates of its depth, as if each were tried: more first columns
    than budget raise BudgetExceeded before the search starts, and
    otherwise each process stops at the first depth whose candidates take
    its visits past budget, before it builds any of them, and the visits
    of all of them are summed against it.  The first columns are dealt
    round-robin to min(workers, first columns, CPU count) processes;
    with one, the search runs in this process.  The sorted result never
    depends on workers.
    """
    p = pres.ring.p
    if p is None:
        raise ValueError("the oracle enumerates over prime fields only")
    if graded and pres.degrees is None:
        raise GradingViolation("graded option requires a graded presentation")
    first_columns = p ** len(_column_support(pres, graded, 0))
    if first_columns > budget:
        raise BudgetExceeded(f"more than {budget} candidate columns")
    parts = min(workers, first_columns, os.cpu_count() or 1)
    if parts > 1:
        import concurrent.futures

        text = format_presentation(pres)
        args = [(text, graded, fixed, budget, part, parts) for part in range(parts)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=parts) as pool:
            results = list(pool.map(_search_part, args))
    else:
        results = [_search(pres, graded, fixed, budget, 0, 1)]
    if sum(visited for _, visited in results) > budget:
        raise BudgetExceeded(f"more than {budget} candidate columns")
    autos = sorted(g for found, _ in results for g in found)
    return AutoSet(p, autos, _restrict(pres, autos))


def _search_part(args) -> tuple[list[tuple], int]:
    text, *rest = args
    return _search(parse_presentation(text), *rest)


def _search(pres: Presentation, graded: bool, fixed: bool, budget: int,
            part: int, parts: int) -> tuple[list[tuple], int]:
    """DFS over the candidate columns, taking every parts-th first column
    from the part-th on; the automorphisms found and the number of candidate
    columns visited, stopping once that passes budget."""
    p = pres.ring.p
    dim = pres.dim
    supports = [_column_support(pres, graded, j) for j in range(dim)]
    # per column, the values each entry may take; their product, in
    # lexicographic order, is the column's candidates
    ranges = [[range(p) if k in support else (0,) for k in range(dim)]
              for support in supports]
    # a triple (i, j, m) is checkable once every column it mentions (i, j
    # and the support of the product vector) has been chosen; an absent
    # product is checked only if the supports of columns i and j meet a
    # product of label m, since otherwise their product is zero.  Product
    # vectors are kept sparse, as (r, v_r) with v_r != 0.
    checks = [[] for _ in range(dim)]
    # per depth, a check whose product vector ends there and whose columns
    # i, j come before it: it fixes that depth's column, and is kept as
    # (i, j, m, the sparse vector below the depth, v_depth^-1)
    forcing: list[tuple | None] = [None] * dim
    for m in pres.labels:
        for i in range(dim):
            for j in range(dim):
                vec = pres.mul.get((m, i, j))
                if vec is None and not any((m, r, s) in pres.mul for r in supports[i]
                                           for s in supports[j]):
                    continue
                sparse = [(k, c) for k, c in enumerate(vec) if c] if vec else None
                depth = max([i, j] + [k for k, _ in sparse or ()])
                checks[depth].append((i, j, m, sparse))
                if max(i, j) < depth and forcing[depth] is None:
                    forcing[depth] = (i, j, m, sparse[:-1], pow(vec[depth], p - 2, p))
    fix_by_depth = [[] for _ in range(dim)]
    if fixed:
        for v in pres.fixed:
            sparse = [(k, c) for k, c in enumerate(v) if c]
            fix_by_depth[sparse[-1][0] if sparse else 0].append((sparse, v))

    found: list[tuple] = []
    visited = 0
    cols: list[tuple] = []
    span = linalg.Span(p, dim)   # spanned by the chosen columns

    def image(vec: list) -> tuple:
        """sum_r v_r col_r for a sparse v over the chosen columns."""
        return tuple([sum(c * cols[r][k] for r, c in vec) % p for k in range(dim)])

    def passes(depth: int) -> bool:
        for i, j, m, vec in checks[depth]:
            rhs = structure_product(pres, cols[i], cols[j], m)
            if vec is None:
                if any(rhs):
                    return False
            elif image(vec) != rhs:
                return False
        return all(image(sparse) == v for sparse, v in fix_by_depth[depth])

    def forced(depth: int) -> tuple | None:
        """The one candidate the forcing check leaves at this depth,
        col_d = v_d^-1 (m-product of cols i, j - sum_{r<d} v_r col_r),
        or None if that vector leaves the column's support."""
        i, j, m, lower, inv = forcing[depth]
        rhs = structure_product(pres, cols[i], cols[j], m)
        col = tuple((x - y) * inv % p for x, y in zip(rhs, image(lower)))
        if any(x for k, x in enumerate(col) if k not in supports[depth]):
            return None
        return col

    def descend(depth: int) -> None:
        nonlocal visited
        if forcing[depth] is None:
            values = itertools.product(*ranges[depth])
            tests = p ** len(supports[depth])
            if depth == 0:
                values = itertools.islice(values, part, None, parts)
                tests = len(range(part, tests, parts))
            visited += tests
        else:
            # one candidate, counted as the whole product an exhaustive
            # search visits here, so the budget bounds the same count
            col = forced(depth)
            values = () if col is None else (col,)
            tests = len(values)
            visited += p ** len(supports[depth])
        # every candidate of the depth is visited, so the budget is checked
        # before the first one is built
        if visited > budget:
            raise BudgetExceeded(f"more than {budget} candidate columns")
        values = span.outside(values, tests)
        if depth + 1 == dim and not checks[depth] and not fix_by_depth[depth]:
            # the last column, with nothing to check: each candidate
            # outside the span completes an automorphism
            found.extend([tuple(zip(*cols, col)) for col in values])
            return
        for col in values:
            cols.append(col)
            if passes(depth):
                if depth + 1 == dim:
                    found.append(tuple(zip(*cols)))  # columns -> row tuples
                else:
                    span.push(col)
                    descend(depth + 1)
                    span.pop()
            cols.pop()

    try:
        descend(0)
    finally:
        # descend holds itself, and found, through its cell: emptying it
        # frees them by reference counting
        descend = None
    return found, visited


def _restrict(pres: Presentation, autos: list[tuple]) -> list[tuple]:
    """The restrictions of the matrices to the generating submodule."""
    gens = pres.gens
    if gens == list(range(pres.dim)):
        return list(autos)
    return [tuple(tuple(g[a][b] for b in gens) for a in gens) for g in autos]


def enumerate_automorphisms_via_section(pres: Presentation, *,
                                        graded: bool = False, fixed: bool = False,
                                        budget: int = DEFAULT_BUDGET) -> AutoSet:
    """Alternative oracle: extend each invertible matrix on the generating
    submodule to the whole algebra through the section, then verify it is an
    automorphism.  Agreement with the direct enumeration is itself a test."""
    ring = pres.ring
    p = ring.p
    if p is None:
        raise ValueError("the oracle enumerates over prime fields only")
    if graded and pres.degrees is None:
        raise GradingViolation("graded option requires a graded presentation")
    n = pres.num_gens
    dim = pres.dim
    if p ** (n * n) > budget:
        raise BudgetExceeded(f"{p}^{n * n} candidates exceeds budget {budget}")
    section = generation_closure(pres)
    universe = pres.universe
    autos = []
    for flat in itertools.product(range(p), repeat=n * n):
        theta = [[flat[i * n + j] for j in range(n)] for i in range(n)]
        if not linalg.det(ring, theta):
            continue
        memo: dict = {}
        g_cols = []
        for k in range(dim):
            img = [ring.zero] * dim
            for w, c in section.elements[k].items():
                vec = eta_element(theta_tilde_word(theta, w, universe, ring, memo), pres)
                for r, x in enumerate(vec):
                    if x:
                        img[r] = ring.add(img[r], ring.mul(c, x))
            g_cols.append(tuple(img))
        g = tuple(zip(*g_cols))
        if _is_automorphism(pres, g, graded=graded, fixed=fixed):
            autos.append(g)
    autos.sort()
    return AutoSet(p, autos, _restrict(pres, autos))


def _is_automorphism(pres: Presentation, g: tuple, *, graded: bool,
                     fixed: bool) -> bool:
    ring = pres.ring
    dim = pres.dim
    rows = [list(r) for r in g]
    if not linalg.det(ring, rows):
        return False
    cols = list(zip(*g))
    gen_set = set(pres.gens)
    for j in gen_set:
        if any(cols[j][k] for k in range(dim) if k not in gen_set):
            return False
    if graded:
        for j in range(dim):
            if any(cols[j][k] for k in range(dim)
                   if pres.degrees[k] != pres.degrees[j]):
                return False
    if fixed:
        for v in pres.fixed:
            for k in range(dim):
                img = ring.zero
                for r, c in enumerate(v):
                    if c:
                        img = ring.add(img, ring.mul(c, cols[r][k]))
                if img != v[k]:
                    return False
    for m in pres.labels:
        for i in range(dim):
            for j in range(dim):
                rhs = structure_product(pres, cols[i], cols[j], m)
                vec = pres.mul.get((m, i, j))
                for k in range(dim):
                    lhs = ring.zero
                    if vec is not None:
                        for r, c in enumerate(vec):
                            if c:
                                lhs = ring.add(lhs, ring.mul(c, cols[r][k]))
                    if lhs != rhs[k]:
                        return False
    return True


def compare_locus(pres: Presentation, system: IdealSystem, *,
                  budget: int = DEFAULT_BUDGET, workers: int = 1) -> ComparisonReport:
    """Scan GL_N for the vanishing locus and match it, as a set, against the
    restrictions of the automorphisms the oracle finds with the system's
    graded and fixed options.  The locus comes first, so a budget below
    p^(N^2) raises before the oracle runs."""
    locus = locus_points(system, budget=budget)
    autos = enumerate_automorphisms(pres, graded=system.graded, fixed=system.fixed,
                                    budget=budget, workers=workers)
    if locus == autos.restricted:   # the locus has no duplicates
        return ComparisonReport(len(locus), len(locus), [], [])
    locus_set = set(locus)
    oracle_set = set(autos.restricted)
    return ComparisonReport(
        locus_size=len(locus),
        oracle_size=len(oracle_set),
        missing=sorted(oracle_set - locus_set),
        extra=sorted(locus_set - oracle_set),
    )
