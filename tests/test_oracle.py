import gc
import itertools
import random
import tracemalloc

import pytest

from conftest import CORPUS, load
from autalg.autscheme import ideal_generators, locus_points
from autalg.errors import BudgetExceeded, GradingViolation
from autalg.oracle import (compare_locus, enumerate_automorphisms,
                           enumerate_automorphisms_via_section, format_matrix,
                           parse_matrix)
from autalg.presentation import parse
from autalg.rings import GF
from autalg import linalg


def test_oracle_p0_is_gl2_f2(p0):
    autos = enumerate_automorphisms(p0)
    assert len(autos.autos) == 6
    f2 = GF(2)
    expected = {tuple(tuple(r) for r in m)
                for m in ([[a, b], [c, d]]
                          for a in range(2) for b in range(2)
                          for c in range(2) for d in range(2))
                if linalg.det(f2, [list(r) for r in m])}
    assert set(autos.autos) == expected
    assert autos.restricted == autos.autos  # X is the full basis


def test_oracle_p2_closed_form(p2):
    autos = enumerate_automorphisms(p2)
    # g(x) = a x + c y forces g(y) = a^2 y
    expected = {((a, 0), (c, a * a % 3)) for a in (1, 2) for c in (0, 1, 2)}
    assert set(autos.autos) == expected
    assert len(autos.autos) == 6


def test_oracle_pv_fixed_is_identity(pv3, pv5):
    for pres in (pv3, pv5):
        autos = enumerate_automorphisms(pres, fixed=True)
        assert autos.autos == [((1,),)]


def test_oracle_graded(p2graded):
    autos = enumerate_automorphisms(p2graded, graded=True)
    assert set(autos.autos) == {((1, 0), (0, 1)), ((2, 0), (0, 1))}


def test_oracle_forms_a_group(p2):
    autos = enumerate_automorphisms(p2)
    mats = set(autos.autos)
    p = autos.p
    dim = len(autos.autos[0])

    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(dim)) % p
                           for j in range(dim)) for i in range(dim))

    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    assert ident in mats
    for a in mats:
        for b in mats:
            assert matmul(a, b) in mats
        inv = linalg.inverse(GF(p), [list(r) for r in a])
        assert tuple(tuple(r) for r in inv) in mats


def _modes(pres):
    """Every allowed (graded, fixed) pair."""
    return [(graded, fixed)
            for graded in ((False, True) if pres.degrees is not None else (False,))
            for fixed in ((False, True) if pres.fixed else (False,))]


def test_oracle_two_paths_agree():
    from test_acceptance import _random_presentation
    cases = [(path.name, load(path.name)) for path in CORPUS]
    rng = random.Random(20260823)  # the acceptance-6 family, first ten
    cases += [(f"family {k}", _random_presentation(rng)) for k in range(10)]
    for name, pres in cases:
        if pres.ring.p is None:
            continue
        for graded, fixed in _modes(pres):
            direct = enumerate_automorphisms(pres, graded=graded, fixed=fixed)
            via = enumerate_automorphisms_via_section(pres, graded=graded, fixed=fixed)
            assert direct.autos == via.autos, (name, graded, fixed)
            assert direct.restricted == via.restricted


def test_oracle_forced_column_outside_support():
    # x.x = y + z fixes the image of the generator z from those of x and y,
    # and it may not leave the generators: g(z) = a^2 (y + z) - g(y)
    pres = parse("ring Fp 3\nproducts 0\nbasis x\nbasis y\nbasis z\n"
                 "generators x z\nmul 0 x x = 1*y + 1*z\n")
    direct = enumerate_automorphisms(pres)
    via = enumerate_automorphisms_via_section(pres)
    assert direct.autos == via.autos
    assert direct.restricted == via.restricted
    # g(x) = a x + c z, g(y) = a^2 y + b z with b != a^2
    assert len(direct.autos) == 12
    assert all(g[1][2] == 0 for g in direct.autos)   # no y in g(z)


def test_oracle_workers_agree():
    # each worker builds its own supports and checks from the presentation text
    for path in CORPUS:
        pres = load(path.name)
        if pres.ring.p is None:
            continue
        for graded, fixed in _modes(pres):
            one = enumerate_automorphisms(pres, graded=graded, fixed=fixed,
                                          workers=1)
            two = enumerate_automorphisms(pres, graded=graded, fixed=fixed,
                                          workers=2)
            assert one.autos == two.autos, (path.name, graded, fixed)
            assert one.restricted == two.restricted


@pytest.mark.parametrize("cpus, started", [(64, [9]), (4, [4]), (1, []), (None, [])])
def test_oracle_worker_count_capped(monkeypatch, cpus, started):
    # p2_f3 has 9 first columns; a stub pool records its size and runs in-process
    sizes = []

    class StubPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    pres = load("p2_f3.malg")
    expected = enumerate_automorphisms(pres)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", StubPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    many = enumerate_automorphisms(pres, workers=10**6)
    assert sizes == started
    assert many.autos == expected.autos
    assert many.restricted == expected.restricted


def test_oracle_budget():
    pres = load("p2_f3.malg")
    with pytest.raises(BudgetExceeded):
        enumerate_automorphisms(pres, budget=3)
    with pytest.raises(BudgetExceeded):
        enumerate_automorphisms_via_section(pres, budget=3)


def _big_group(*products, p=5):
    """A three-dimensional presentation of the benchmark's big-group
    workload, over F_5 unless p says otherwise, every basis element a
    generator."""
    return parse(f"ring Fp {p}\nproducts 0\nbasis e1\nbasis e2\nbasis e3\n"
                 "generators e1 e2 e3\n" + "".join(f"mul 0 {m}\n" for m in products))


def _zero_products(p, dim):
    """Zero products on a dim-dimensional algebra over F_p, every basis
    element a generator."""
    names = [f"e{k}" for k in range(dim)]
    return parse(f"ring Fp {p}\nproducts 0\n"
                 + "".join(f"basis {nm}\n" for nm in names)
                 + "generators " + " ".join(names) + "\n")


def _fp_systems(length):
    """(name, presentation, system without inverse block) for every F_p
    corpus file in every allowed graded and fixed mode, and for the
    three-dimensional big-group presentations over F_3."""
    out = []
    for path in CORPUS:
        pres = load(path.name)
        if pres.ring.p is None:
            continue
        for graded, fixed in itertools.product({False, pres.degrees is not None},
                                               {False, bool(pres.fixed)}):
            out.append((path.name, pres, ideal_generators(
                pres, length, graded=graded, fixed=fixed, inverse=False)))
    for products in [("e1 e1 = 1*e3",), ("e1 e1 = 1*e2", "e1 e2 = 1*e3"),
                     ("e1 e2 = 1*e3",), ()]:
        pres = _big_group(*products, p=3)
        out.append((products, pres, ideal_generators(pres, length, inverse=False)))
    return out


@pytest.mark.parametrize("p, dim, order", [(3, 3, 11_232), (2, 4, 20_160)])
def test_searches_find_general_linear_group(p, dim, order):
    # with zero products every invertible matrix is an automorphism, and the
    # forward system is empty: both searches must return the lexicographic
    # scan of GL_dim(F_p)
    pres = _zero_products(p, dim)
    scan = [pt for pt in (tuple(flat[i * dim:(i + 1) * dim] for i in range(dim))
                          for flat in itertools.product(range(p), repeat=dim * dim))
            if linalg.det(pres.ring, pt)]
    assert len(scan) == order
    system = ideal_generators(pres, 2, inverse=False)
    assert system.generators == []
    assert locus_points(system) == scan
    assert enumerate_automorphisms(pres).autos == scan


@pytest.mark.parametrize("products", [
    ("e1 e1 = 1*e3",),
    ("e1 e1 = 1*e2", "e1 e2 = 1*e3"),   # two forced columns in a row
    ("e1 e2 = 1*e3",),
], ids=["square", "chain", "product"])
def test_oracle_two_paths_agree_on_big_groups(products):
    pres = _big_group(*products, p=3)
    direct = enumerate_automorphisms(pres)
    via = enumerate_automorphisms_via_section(pres)
    assert direct.autos == via.autos
    assert direct.restricted == via.restricted


def test_oracle_long_forced_chain():
    # x1 generates x1..x8 by left products x1 x_k = x_{k+1}; graded by
    # k, so every column after the first is forced and tested once against
    # the span of the columns before it: a test that grew with p^depth
    # would take seconds here
    import time

    dim = 8
    pres = parse("ring Fp 7\nproducts 0\ngrading table\n"
                 + "".join(f"basis x{k} {k}\n" for k in range(1, dim + 1))
                 + "generators x1\n"
                 + "".join(f"mul 0 x1 x{k} = 1*x{k + 1}\ndtable 1 0 {k} = {k + 1}\n"
                           for k in range(1, dim)))
    start = time.perf_counter()
    direct = enumerate_automorphisms(pres, graded=True)
    assert time.perf_counter() - start < 2
    via = enumerate_automorphisms_via_section(pres, graded=True)
    assert len(direct.autos) == 6
    assert direct.autos == via.autos
    assert direct.restricted == via.restricted


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("pres, budget", [
    (load("p2_f3.malg"), 81),
    (_big_group("e1 e1 = 1*e3"), 375_625),                  # square
    (_big_group("e1 e1 = 1*e2", "e1 e2 = 1*e3"), 28_125),   # chain
    (_big_group("e1 e2 = 1*e3"), 175_625),                  # product
    (_zero_products(2, 4), 43_936),   # 16 + 15 * 16 + 15 * 14 * 16 + 15 * 14 * 12 * 16
], ids=["p2_f3", "square", "chain", "product", "zero"])
def test_oracle_budget_threshold(pres, budget, workers):
    # the smallest budget that passes, the visits of the exhaustive column
    # search: a forced column counts as its whole product
    enumerate_automorphisms(pres, budget=budget, workers=workers)
    with pytest.raises(BudgetExceeded):
        enumerate_automorphisms(pres, budget=budget - 1, workers=workers)


def test_oracle_budget_before_columns():
    # six-dimensional zero products over F_7: 7^6 candidate first columns
    names = [f"e{k}" for k in range(6)]
    pres = parse("ring Fp 7\nproducts 0\n"
                 + "".join(f"basis {nm}\n" for nm in names)
                 + "generators " + " ".join(names) + "\n")
    tracemalloc.start()
    try:
        for workers in (1, 2):
            with pytest.raises(BudgetExceeded):
                enumerate_automorphisms(pres, budget=1, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_budget_after_first_columns():
    # 7 first columns (generator e0 only) fit a budget of 100, but the other
    # five columns have 7^6 candidates each: the search stops without them
    names = [f"e{k}" for k in range(6)]
    pres = parse("ring Fp 7\nproducts 0\n"
                 + "".join(f"basis {nm}\n" for nm in names)
                 + "generators e0\n")
    import concurrent.futures.process  # the pool's one-time import is not the oracle's
    tracemalloc.start()
    try:
        for workers in (1, 2):
            with pytest.raises(BudgetExceeded):
                enumerate_automorphisms(pres, budget=100, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_rejects_rationals(p1):
    with pytest.raises(ValueError):
        enumerate_automorphisms(p1)


def test_compare_equal(p2):
    system = ideal_generators(p2, 2)
    report = compare_locus(p2, system)
    assert report.equal
    assert report.locus_size == report.oracle_size == 6


def test_compare_budget_before_oracle(monkeypatch):
    # x.x = z over F_5: the oracle alone takes seconds, the budget check none
    pres = parse("ring Fp 5\nproducts 0\nbasis x\nbasis y\nbasis z\n"
                 "generators x y z\nmul 0 x x = 1*z\n")
    system = ideal_generators(pres, 2)

    def oracle_called(*args, **kwargs):
        raise AssertionError("the oracle ran before the locus budget check")

    monkeypatch.setattr("autalg.oracle.enumerate_automorphisms", oracle_called)
    n, p = system.n, pres.ring.p
    with pytest.raises(BudgetExceeded):
        compare_locus(pres, system, budget=p ** (n * n) - 1)


def test_compare_detects_short_truncation():
    # the y.x = x relation is invisible below word length 3
    pres = load("p3_f5.malg")
    short = ideal_generators(pres, 2)
    report = compare_locus(pres, short)
    assert not report.equal
    assert report.locus_size == 4
    assert report.oracle_size == 2
    assert report.missing == []       # truncation only over-approximates
    assert len(report.extra) == 2
    full = ideal_generators(pres, 3)
    assert compare_locus(pres, full).equal


def test_compare_matches_set_reference():
    # the report of a set comparison of the locus with the restrictions of
    # the oracle's automorphisms, including truncated systems whose locus is
    # too large, and presentations whose generators are not the whole basis
    unequal = partial = 0
    for length in (2, 3):
        for name, pres, system in _fp_systems(length):
            locus = locus_points(system)
            gens = pres.gens
            oracle = {tuple(tuple(g[a][b] for b in gens) for a in gens)
                      for g in enumerate_automorphisms(pres, graded=system.graded,
                                                       fixed=system.fixed).autos}
            report = compare_locus(pres, system)
            assert (report.locus_size, report.oracle_size, report.missing, report.extra) \
                == (len(locus), len(oracle), sorted(oracle - set(locus)),
                    sorted(set(locus) - oracle)), (name, length)
            unequal += not report.equal
            partial += gens != list(range(pres.dim))
    assert unequal and partial


def test_searches_leave_no_cyclic_garbage():
    # what a search builds, its result included, is freed by reference
    # counting once the caller drops it, not at the next full collection
    for name, pres, system in _fp_systems(2):
        options = {"graded": system.graded, "fixed": system.fixed}
        for search, args, kwargs in [(locus_points, (system,), {}),
                                     (enumerate_automorphisms, (pres,), options),
                                     (compare_locus, (pres, system), {})]:
            gc.collect()
            gc.disable()
            try:
                search(*args, **kwargs)
                assert gc.collect() == 0, (name, search.__name__)
            finally:
                gc.enable()


def test_compare_fixed_and_graded(pv3, p2graded):
    sv = ideal_generators(pv3, 2, fixed=True)
    rv = compare_locus(pv3, sv)
    assert rv.equal and rv.locus_size == 1
    sg = ideal_generators(p2graded, 2, graded=True)
    rg = compare_locus(p2graded, sg)
    assert rg.equal and rg.locus_size == 2


def test_compare_takes_options_from_system(p2graded):
    # a graded system against the plain oracle, or the reverse, would report
    # a false mismatch; the oracle follows the system instead
    graded = compare_locus(p2graded, ideal_generators(p2graded, 2, graded=True))
    assert graded.equal and graded.oracle_size == 2
    plain = compare_locus(p2graded, ideal_generators(p2graded, 2))
    assert plain.equal and plain.oracle_size == 6


def test_oracle_graded_needs_grading(p2):
    for oracle in (enumerate_automorphisms, enumerate_automorphisms_via_section):
        with pytest.raises(GradingViolation):
            oracle(p2, graded=True)


def test_matrix_text_roundtrip():
    f5 = GF(5)
    m = [[1, 2], [3, 4]]
    text = format_matrix(m)
    assert text == "1,2;3,4"
    assert parse_matrix(text, 2, f5) == m
    with pytest.raises(ValueError):
        parse_matrix("1,2;3", 2, f5)
    with pytest.raises(ValueError):
        parse_matrix("1,2", 2, f5)
    # an empty row is a malformed literal, not a row to skip
    for bad in ("1,2;;3,4", "1,2;3,4;"):
        with pytest.raises(ValueError):
            parse_matrix(bad, 2, f5)
