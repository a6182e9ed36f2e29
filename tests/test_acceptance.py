"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
on the real stdout so the verdicts are visible even under pytest capture.
Every test is expected to finish in well under a minute.
"""

import contextlib
import math
import random

from conftest import CORPUS, load
from autalg import linalg
from autalg.autscheme import (check_point, generic_image, ideal_generators,
                              locus_points, theta_tilde_word)
from autalg.freealg import FreeElement
from autalg.oracle import compare_locus
from autalg.poly import Polynomial, format_poly, parse_poly
from autalg.presentation import (base_change, format_presentation, parse)
from autalg.rings import GF, reduce_mod_p
from autalg.words import Universe, enumerate_words


@contextlib.contextmanager
def verdict(capsys, num, name):
    """Print one pass/fail line per criterion on the real terminal."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num} ({name}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"acceptance {num} ({name}): PASS", flush=True)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def brute_counts(n, nl, max_length):
    counts = [n]
    for k in range(2, max_length + 1):
        counts.append(sum(counts[j - 1] * nl * counts[k - j - 1]
                          for j in range(1, k)))
    return counts


def test_acceptance_1_word_counting(capsys):
    with verdict(capsys, 1, "word counting"):
        for n in (1, 2, 3):
            for nl in (1, 2, 3):
                table = enumerate_words(Universe(n, list(range(nl))), 6,
                                        cap=10**7)
                closed = [catalan(k - 1) * n**k * nl ** (k - 1)
                          for k in range(1, 7)]
                sizes = [len(level) for level in table.by_length]
                assert sizes == closed
                assert sizes == brute_counts(n, nl, 6)


def test_acceptance_2_zero_products(capsys):
    with verdict(capsys, 2, "zero-products algebra over F_2"):
        pres = load("p0_f2.malg")
        system = ideal_generators(pres, 2)
        dets = [g for g in system.generators if any(m[-1] for m in g.terms)]
        assert len(dets) == 1 and len(system.generators) == 1
        report = compare_locus(pres, system)
        assert report.equal and report.locus_size == 6


def test_acceptance_3_nilpotent_square(capsys):
    with verdict(capsys, 3, "nilpotent x.x = y over F_3"):
        pres = load("p2_f3.malg")
        system = ideal_generators(pres, 2)
        f3, n = GF(3), 2
        x12 = parse_poly("1 * X_1_2", f3, n)
        rel = parse_poly("1 * X_1_1^2 + 2 * X_2_2", f3, n)
        gens = system.generators
        assert any(g in (x12, x12.neg()) for g in gens)
        assert any(g in (rel, rel.neg()) for g in gens)
        report = compare_locus(pres, system)
        assert report.equal and report.locus_size == 6
        longer = ideal_generators(pres, 3)
        assert set(locus_points(longer)) == set(locus_points(system))


def test_acceptance_4_trivial_vertex_algebra(capsys):
    with verdict(capsys, 4, "trivial vertex algebra, fixed vacuum"):
        for name in ("pv_f3.malg", "pv_f5.malg"):
            pres = load(name)
            system = ideal_generators(pres, 2, fixed=True)
            ring, n = pres.ring, 1
            quad = parse_poly("1 * X_1_1^2", ring, n).sub(
                parse_poly("1 * X_1_1", ring, n))
            lin = parse_poly("1 * X_1_1", ring, n).sub(
                Polynomial.constant(ring, n, ring.one))
            gens = system.generators
            assert any(g in (quad, quad.neg()) for g in gens)
            assert any(g in (lin, lin.neg()) for g in gens)
            assert locus_points(system) == [((1,),)]


def test_acceptance_5_graded_cut(capsys):
    with verdict(capsys, 5, "graded cut of the nilpotent algebra"):
        pres = load("p2_graded_f3.malg")
        graded = ideal_generators(pres, 2, graded=True)
        pts = set(locus_points(graded))
        assert pts == {((1, 0), (0, 1)), ((2, 0), (0, 1))}
        plain = ideal_generators(pres, 2)
        block = {pt for pt in locus_points(plain)
                 if pt[0][1] == 0 and pt[1][0] == 0}
        assert pts == block
        report = compare_locus(pres, graded)
        assert report.equal and report.locus_size == 2


def _random_presentation(rng):
    dim = rng.randint(1, 3)
    nl = rng.randint(1, 2)
    p = rng.choice([2, 3])
    names = ["e1", "e2", "e3"][:dim]
    lines = [f"ring Fp {p}",
             "products " + " ".join(str(m) for m in range(nl)),
             *(f"basis {nm}" for nm in names),
             "generators " + " ".join(names)]
    for m in range(nl):
        for i in range(dim):
            for j in range(dim):
                if rng.random() < 0.2:
                    vec = [rng.randrange(p) for _ in range(dim)]
                    if any(vec):
                        combo = " + ".join(f"{c}*{names[k]}"
                                           for k, c in enumerate(vec) if c)
                        lines.append(f"mul {m} {names[i]} {names[j]} = {combo}")
    return parse("\n".join(lines) + "\n")


def _closed_under_group_ops(pts, p, rng):
    mats = set(pts)
    dim = len(pts[0])
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    assert ident in mats
    ring = GF(p)
    for a in mats:
        inv = linalg.inverse(ring, [list(r) for r in a])
        assert tuple(tuple(r) for r in inv) in mats
    pts = list(mats)
    if len(pts) ** 2 <= 4096:
        pairs = [(a, b) for a in pts for b in pts]
    else:
        pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(2000)]
    for a, b in pairs:
        prod = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(dim)) % p
                           for j in range(dim)) for i in range(dim))
        assert prod in mats


def test_acceptance_6_randomized_soundness(capsys):
    with verdict(capsys, 6, "randomized soundness, 100 sparse presentations"):
        rng = random.Random(20260823)
        produced = 0
        while produced < 100:
            pres = _random_presentation(rng)
            s3 = ideal_generators(pres, 3)
            pts3 = locus_points(s3)
            _closed_under_group_ops(pts3, pres.ring.p, rng)
            s4 = ideal_generators(pres, 4)
            pts4 = [pt for pt in pts3 if check_point(s4, pt)]
            if len(pts4) == len(pts3):  # truncation has stabilized
                report = compare_locus(pres, s3)
                assert report.equal, format_presentation(pres)
            produced += 1


def test_acceptance_7_two_path_agreement(capsys):
    with verdict(capsys, 7, "two-path generic-image agreement"):
        u = Universe(2, [0, 1])
        table = enumerate_words(u, 4)
        f5 = GF(5)
        rng = random.Random(7)
        cache = {}
        for _ in range(50):
            theta = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
            memo = {}
            for w in table.words:
                direct = theta_tilde_word(theta, w, u, f5, memo)
                gi = generic_image(w, u, f5, cache)
                summed = FreeElement(f5)
                for b, q in gi.coeffs.items():
                    summed.add_term(b, q.evaluate(theta, f5.one))
                assert summed == direct


def test_acceptance_8_base_change(capsys):
    with verdict(capsys, 8, "base change commutes with the locus"):
        pres_q = load("p2_q.malg")
        system_q = ideal_generators(pres_q, 2)
        f3 = GF(3)
        from autalg.autscheme import IdealSystem
        reduced = IdealSystem(
            system_q.n, f3, system_q.max_length, system_q.graded,
            system_q.fixed, system_q.inverse,
            [Polynomial(f3, system_q.n,
                        {mono: r for mono, c in g.terms.items()
                         if (r := reduce_mod_p(c, 3))})
             for g in system_q.generators])
        native = ideal_generators(base_change(pres_q, 3), 2)
        assert set(locus_points(reduced)) == set(locus_points(native))
        assert len(locus_points(native)) == 6


def test_acceptance_9_round_trips(capsys):
    with verdict(capsys, 9, "text round-trips over the corpus"):
        assert CORPUS
        for path in CORPUS:
            text = path.read_text()
            pres = parse(text)
            printed = format_presentation(pres)
            assert parse(printed) == pres
            assert format_presentation(parse(printed)) == printed
            system = ideal_generators(pres, 3, fixed=bool(pres.fixed))
            for g in system.generators:
                line = format_poly(g)
                assert parse_poly(line, pres.ring, system.n) == g
                assert format_poly(parse_poly(line, pres.ring, system.n)) == line
