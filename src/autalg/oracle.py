"""Brute-force ground truth over small prime fields: exhaustive, pruned
enumeration of the algebra automorphisms preserving the generating submodule,
and set comparison against the vanishing locus of a computed ideal system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .autscheme import DEFAULT_BUDGET, IdealSystem, locus_points, theta_tilde_word
from .errors import BudgetExceeded, GradingViolation
from .freealg import eta_element, structure_product
from .presentation import Presentation, parse as parse_presentation
from .presentation import format_presentation


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


def _multiplicativity_checks(pres: Presentation):
    """Per-depth multiplicativity constraints for the column DFS.

    A triple (i, j, m) is checkable once every column it mentions (i, j and
    the support of the product vector) has been chosen.
    """
    dim = pres.dim
    by_depth = [[] for _ in range(dim)]
    for m in pres.labels:
        for i in range(dim):
            for j in range(dim):
                vec = pres.mul.get((m, i, j))
                support = [k for k, c in enumerate(vec) if c] if vec else []
                ready = max([i, j] + support)
                by_depth[ready].append((i, j, m, vec))
    return by_depth


def _column_values(pres: Presentation, graded: bool, budget: int):
    """Admissible value tuples per column: support inside the generator set
    for generator columns, and inside the degree block when graded.

    The search visits every first column, with one worker or many, so more
    first columns than budget raise BudgetExceeded before any is built.
    """
    p = pres.ring.p
    dim = pres.dim
    gen_set = set(pres.gens)
    supports = []
    for j in range(dim):
        allowed = list(range(dim))
        if j in gen_set:
            allowed = [k for k in allowed if k in gen_set]
        if graded:
            allowed = [k for k in allowed if pres.degrees[k] == pres.degrees[j]]
        supports.append(allowed)
    if p ** len(supports[0]) > budget:
        raise BudgetExceeded(f"more than {budget} candidate columns")
    values = []
    for allowed in supports:
        cols = []
        for picks in itertools.product(range(p), repeat=len(allowed)):
            v = [0] * dim
            for k, x in zip(allowed, picks):
                v[k] = x
            cols.append(tuple(v))
        values.append(cols)
    return values


def enumerate_automorphisms(pres: Presentation, *, graded: bool = False,
                            fixed: bool = False, budget: int = DEFAULT_BUDGET,
                            workers: int = 1) -> AutoSet:
    """Exhaustive column-by-column enumeration with pruning.

    Partial matrices are cut as soon as a multiplicativity constraint on the
    already-chosen columns fails, a chosen column is linearly dependent on
    the earlier ones, or a fully-determined fixed vector moves.
    """
    p = pres.ring.p
    if p is None:
        raise ValueError("the oracle enumerates over prime fields only")
    if graded and pres.degrees is None:
        raise GradingViolation("graded option requires a graded presentation")
    column_values = _column_values(pres, graded, budget)
    first, rest = column_values[0], column_values[1:]
    if workers > 1:
        chunks = [[first[k::workers]] + rest for k in range(workers)]
        autos, visited = _run_chunks(pres, fixed, budget, chunks, workers)
    else:
        autos, visited = _enumerate_range(pres, fixed, budget, column_values)
    if visited > budget:
        raise BudgetExceeded(f"more than {budget} candidate columns")
    autos.sort()
    restricted = [_restrict(pres, g) for g in autos]
    return AutoSet(p, autos, restricted)


def _run_chunks(pres, fixed, budget, chunks, workers):
    """Enumerate the first-column chunks in worker processes; the found
    automorphisms and the visited counts of all chunks, summed."""
    import concurrent.futures

    text = format_presentation(pres)
    args = [(text, fixed, budget, chunk) for chunk in chunks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_enumerate_chunk, args))
    return [g for found, _ in parts for g in found], sum(n for _, n in parts)


def _enumerate_chunk(arg):
    text, fixed, budget, chunk = arg
    return _enumerate_range(parse_presentation(text), fixed, budget, chunk)


def _enumerate_range(pres: Presentation, fixed: bool, budget: int,
                     column_values: list[list[tuple]]) -> tuple[list[tuple], int]:
    """DFS over the candidate columns; the automorphisms found and the
    number of candidate columns visited, stopping once that passes budget."""
    ring = pres.ring
    p = ring.p
    dim = pres.dim
    checks = _multiplicativity_checks(pres)
    fix_by_depth = [[] for _ in range(dim)]
    if fixed:
        for v in pres.fixed:
            support = [k for k, c in enumerate(v) if c]
            fix_by_depth[max(support) if support else 0].append(v)

    found: list[tuple] = []
    visited = 0
    cols: list[tuple] = []
    reduced: list[list] = []

    def passes(depth: int) -> bool:
        for i, j, m, vec in checks[depth]:
            rhs = structure_product(pres, cols[i], cols[j], m)
            if vec is None:
                if any(rhs):
                    return False
                continue
            for k in range(dim):
                lhs = sum(vec[r] * cols[r][k] for r in range(dim) if vec[r]) % p
                if lhs != rhs[k]:
                    return False
        for v in fix_by_depth[depth]:
            for k in range(dim):
                img = sum(v[r] * cols[r][k] for r in range(dim) if v[r]) % p
                if img != v[k]:
                    return False
        return True

    def independent(col: tuple) -> bool:
        resid = list(col)
        for row in reduced:
            c = next(i for i, x in enumerate(row) if x)
            if resid[c]:
                f = resid[c]
                resid = [(x - f * y) % p for x, y in zip(resid, row)]
        if not any(resid):
            return False
        inv = pow(next(x for x in resid if x), p - 2, p)
        reduced.append([x * inv % p for x in resid])
        return True

    def descend(depth: int) -> None:
        nonlocal visited
        for col in column_values[depth]:
            visited += 1
            if visited > budget:
                raise BudgetExceeded(f"more than {budget} candidate columns")
            if not independent(col):
                continue
            cols.append(col)
            if passes(depth):
                if depth + 1 == dim:
                    found.append(tuple(zip(*cols)))  # columns -> row tuples
                else:
                    descend(depth + 1)
            cols.pop()
            reduced.pop()
        return

    descend(0)
    return found, visited


def _restrict(pres: Presentation, g: tuple) -> tuple:
    gens = pres.gens
    return tuple(tuple(g[a][b] for b in gens) for a in gens)


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
    section = pres.generation_closure()
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
            for w, c in section.elements[k].terms.items():
                vec = eta_element(theta_tilde_word(theta, w, universe, ring, memo), pres)
                for r, x in enumerate(vec):
                    if x:
                        img[r] = ring.add(img[r], ring.mul(c, x))
            g_cols.append(tuple(img))
        g = tuple(zip(*g_cols))
        if _is_automorphism(pres, g, graded=graded, fixed=fixed):
            autos.append(g)
    autos.sort()
    return AutoSet(p, autos, [_restrict(pres, g) for g in autos])


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
    locus_set = set(locus)
    oracle_set = set(autos.restricted)
    return ComparisonReport(
        locus_size=len(locus),
        oracle_size=len(oracle_set),
        missing=sorted(oracle_set - locus_set),
        extra=sorted(locus_set - oracle_set),
    )
