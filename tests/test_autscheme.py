import gc
import itertools
import random
from fractions import Fraction

import pytest

from autalg import linalg
from autalg.autscheme import (IdealSystem, check_point, generic_image,
                              ideal_generators, kernel_basis, locus_points,
                              theta_tilde_word)
from autalg.errors import (BudgetExceeded, GradingViolation,
                           TruncationTooShort)
from autalg.freealg import eta_element, eta_evaluate, m_product
from autalg.poly import (Polynomial, adjugate, determinant, format_poly,
                         generic_matrix, parse_poly)
from autalg.presentation import base_change, generation_closure, parse
from autalg.rings import GF, QQ
from autalg.words import Universe, Word, enumerate_words

F3 = GF(3)


def poly_set(system):
    return {format_poly(g) for g in system.generators}


def test_generic_image_leaf():
    u = Universe(2, [0])
    gi = generic_image(u.leaf(2), u, QQ)
    assert gi == {
        u.leaf(1): Polynomial.variable(QQ, 2, 1, 2),
        u.leaf(2): Polynomial.variable(QQ, 2, 2, 2),
    }


def test_generic_image_square():
    u = Universe(2, [0])
    x1, x2 = u.leaf(1), u.leaf(2)
    gi = generic_image(u.node(x1, 0, x1), u, QQ)
    X = lambda i, j: Polynomial.variable(QQ, 2, i, j)
    assert gi == {
        u.node(x1, 0, x1): X(1, 1).mul(X(1, 1)),
        u.node(x1, 0, x2): X(1, 1).mul(X(2, 1)),
        u.node(x2, 0, x1): X(2, 1).mul(X(1, 1)),
        u.node(x2, 0, x2): X(2, 1).mul(X(2, 1)),
    }


def test_generic_image_at_identity_is_indicator():
    u = Universe(2, [0, 1])
    table = enumerate_words(u, 3)
    ident = [[QQ.one, QQ.zero], [QQ.zero, QQ.one]]
    for w in table.words:
        gi = generic_image(w, u, QQ, cache={})
        for b, q in gi.items():
            assert b.length == w.length
            assert q.evaluate(ident, QQ.one) == (1 if b is w else 0)


def test_generic_image_homogeneous():
    u = Universe(2, [0, 1])
    table = enumerate_words(u, 4)
    cache = {}
    for w in table.words:
        gi = generic_image(w, u, GF(5), cache)
        for q in gi.values():
            for mono in q.terms:
                assert sum(mono[:-1]) == w.length and mono[-1] == 0


def test_two_path_agreement():
    # generic-image evaluation must equal direct recursive substitution
    u = Universe(2, [0, 1])
    table = enumerate_words(u, 4)
    f5 = GF(5)
    rng = random.Random(5)
    for _ in range(10):
        theta = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
        memo = {}
        cache = {}
        for w in table.words:
            direct = theta_tilde_word(theta, w, u, f5, memo)
            gi = generic_image(w, u, f5, cache)
            summed = {}
            for b, q in gi.items():
                f5.accumulate(summed, b, q.evaluate(theta, f5.one))
            assert summed == direct


def _reference_generators(pres, max_length, fixed, inverse):
    """The ideal's generators assembled from the reference paths: forward
    and fixed coordinates from generic_image and eta_evaluate, the inverse
    block by substituting t * adj(X) into each forward generator."""
    ring, n = pres.ring, pres.num_gens
    cache = {}

    def coords(element):
        acc = [Polynomial.zero(ring, n)] * pres.dim
        for w, alpha in element.items():
            gi = generic_image(w, pres.universe, ring, cache)
            for b, q in gi.items():
                for ell, x in enumerate(eta_evaluate(b, pres)):
                    if x:
                        acc[ell] = acc[ell].add(q.scale(ring.mul(alpha, x)))
        return acc

    forward = [q for v in kernel_basis(pres, max_length).vectors
               for q in coords(v)]
    gens = list(forward)
    if fixed:
        section = generation_closure(pres)
        for v in pres.fixed:
            sigma = {}
            for i, c in enumerate(v):
                for w, x in section.elements[i].items():
                    ring.accumulate(sigma, w, ring.mul(c, x))
            gens.extend(q.sub(Polynomial.constant(ring, n, c))
                        for q, c in zip(coords(sigma), v))
    if inverse:
        gm = generic_matrix(ring, n)
        t = Polynomial.t_var(ring, n)
        entries = [t.mul(a) for row in adjugate(gm) for a in row]
        gens.extend(g.substitute(entries) for g in forward)
        gens.append(t.mul(determinant(gm)).sub(
            Polynomial.constant(ring, n, ring.one)))
    unique = {}
    for g in gens:
        if g:
            unique.setdefault(g.key(), g)
    return list(unique.values())


RATIONAL_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                   Fraction(-3), Fraction(2, 3), Fraction(3, 5), Fraction(-5, 7)]


def _rational_presentation(rng, dim):
    """A random presentation over Q with labels {0, 1}, every basis element
    a generator, and structure constants with denominators 2, 3, 5 and 7."""
    names = ["e1", "e2", "e3"][:dim]
    lines = ["ring Q", "products 0 1", *(f"basis {nm}" for nm in names),
             "generators " + " ".join(names)]
    for m in (0, 1):
        for i in range(dim):
            for j in range(dim):
                if rng.random() < 0.3:
                    vec = [rng.choice(RATIONAL_COEFFS) if rng.random() < 0.5
                           else 0 for _ in range(dim)]
                    if any(vec):
                        combo = " + ".join(f"{c}*{names[k]}"
                                           for k, c in enumerate(vec) if c)
                        lines.append(f"mul {m} {names[i]} {names[j]} = {combo}")
    return parse("\n".join(lines) + "\n")


def test_ideal_matches_reference_paths():
    from conftest import CORPUS, load
    from test_acceptance import _random_presentation
    rng = random.Random(20260823)  # the acceptance-6 family, first ten
    family = [_random_presentation(rng) for _ in range(10)]
    rng = random.Random(8)
    family += [_rational_presentation(rng, dim) for dim in (2, 3) * 4]
    assert any(pres.ring.p is None and any(
        s.denominator > 1 for vec in pres.mul.values() for s in vec)
        for pres in family)
    for pres in [load(path.name) for path in CORPUS] + family:
        fixed = bool(pres.fixed)
        for inverse in (False, True):
            system = ideal_generators(pres, 3, fixed=fixed, inverse=inverse)
            assert system.generators == \
                _reference_generators(pres, 3, fixed, inverse)


def test_rational_coefficients_are_fractions():
    # ints scale the recursion inside ideal_generators; none may leak out
    from conftest import CORPUS, load
    systems = []
    for path in CORPUS:
        pres = load(path.name)
        if pres.ring.p is not None:
            continue
        for length in (2, 3):
            systems += [ideal_generators(pres, length),
                        ideal_generators(pres, length, inverse=False)]
            if pres.degrees is not None:
                systems.append(ideal_generators(pres, length, graded=True))
            if pres.fixed:
                systems.append(ideal_generators(pres, length, fixed=True))
    systems.append(ideal_generators(
        _rational_presentation(random.Random(7), 3), 3))
    assert any(c.denominator > 1 for s in systems for g in s.generators
               for c in g.terms.values())
    for system in systems:
        for g in system.generators:
            assert all(type(c) is Fraction for c in g.terms.values())


def test_ideal_leaves_no_cyclic_garbage():
    # everything ideal_generators builds and drops is freed by reference
    # counting, so no memo outlives the call waiting for a full collection
    from conftest import CORPUS, load
    for path in CORPUS:
        pres = load(path.name)
        modes = itertools.product({False, pres.degrees is not None},
                                  {False, bool(pres.fixed)}, (False, True))
        for (graded, fixed, inverse), length in itertools.product(modes, (2, 3)):
            gc.collect()
            gc.disable()
            try:
                ideal_generators(pres, length, graded=graded, fixed=fixed,
                                 inverse=inverse)
                assert gc.collect() == 0, (path.name, length, graded, fixed, inverse)
            finally:
                gc.enable()


def test_free_elements_hold_words_and_nonzero_scalars():
    # a free-algebra element is a dict from words to nonzero scalars: no
    # producer stores a zero coefficient
    from conftest import CORPUS, load

    def check(e):
        assert type(e) is dict
        assert all(type(w) is Word and c for w, c in e.items()), e

    rng = random.Random(17)
    for path in CORPUS:
        pres = load(path.name)
        ring, n, u = pres.ring, pres.num_gens, pres.universe
        for e in generation_closure(pres).elements:
            check(e)
        values = range(ring.p) if ring.p else [Fraction(k, 2) for k in range(-3, 4)]
        thetas = []
        while len(thetas) < 3:
            theta = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            if linalg.det(ring, theta):
                thetas.append(theta)
        for length in (2, 3):
            kb = kernel_basis(pres, length)
            for a in kb.vectors:
                check(a)
                for b in kb.vectors:
                    for m in pres.labels:
                        check(m_product(ring, a, b, m, u))
            for theta in thetas:
                memo = {}
                for w in kb.table.words:
                    check(theta_tilde_word(theta, w, u, ring, memo))


def test_kernel_basis_p0(p0):
    kb = kernel_basis(p0, 2)
    words = kb.table.words
    assert [set(v) for v in kb.vectors] == [{w} for w in words[2:]]


def test_kernel_basis_p2(p2):
    kb = kernel_basis(p2, 2)
    u = p2.universe
    x, y = u.leaf(1), u.leaf(2)
    supports = kb.vectors
    assert supports == [
        {u.node(x, 0, x): 1, y: 2},   # x0x - y over F_3
        {u.node(x, 0, y): 1},
        {u.node(y, 0, x): 1},
        {u.node(y, 0, y): 1},
    ]


def test_kernel_basis_pv(pv3):
    kb = kernel_basis(pv3, 2)
    u = pv3.universe
    vac = u.leaf(1)
    assert kb.vectors == \
        [{u.node(vac, -1, vac): 1, vac: 2}]


def test_kernel_vectors_evaluate_to_zero():
    for name in ("p0_f2.malg", "p2_f3.malg", "pv_f3.malg", "p1_q.malg"):
        from conftest import load
        pres = load(name)
        kb = kernel_basis(pres, 3)
        zero = tuple(pres.ring.zero for _ in range(pres.dim))
        assert kb.table.words
        expected = len(kb.table.words) - pres.dim
        assert len(kb.vectors) == expected
        for v in kb.vectors:
            assert eta_element(v, pres) == zero


def test_kernel_primitive_integer_over_q(p1):
    kb = kernel_basis(p1, 3)
    for v in kb.vectors:
        coeffs = list(v.values())
        assert all(c.denominator == 1 for c in coeffs)
        from math import gcd
        g = 0
        for c in coeffs:
            g = gcd(g, int(c))
        assert g == 1


def test_truncation_too_short():
    pres = parse("ring Q\nproducts 0\nbasis x\nbasis y\nbasis z\ngenerators x\n"
                 "mul 0 x x = 1*y\nmul 0 y y = 1*z\n")
    with pytest.raises(TruncationTooShort):
        kernel_basis(pres, 3)


def test_ideal_p0_trivial(p0):
    system = ideal_generators(p0, 2, inverse=False)
    assert system.generators == []
    with_inv = ideal_generators(p0, 2)
    assert [format_poly(g) for g in with_inv.generators] == \
        ["1 * X_1_1 * X_2_2 * t + 1 * X_1_2 * X_2_1 * t + 1"]


def test_ideal_p2_generators(p2):
    system = ideal_generators(p2, 2, inverse=False)
    gens = poly_set(system)
    assert "2 * X_1_2" in gens                      # -X_12 over F_3
    assert "1 * X_1_1^2 + 2 * X_2_2" in gens        # X_11^2 - X_22
    assert "1 * X_1_1 * X_1_2" in gens


def test_ideal_pv_generators(pv3):
    system = ideal_generators(pv3, 2, fixed=True)
    gens = poly_set(system)
    assert "1 * X_1_1^2 + 2 * X_1_1" in gens        # X_11^2 - X_11
    assert "1 * X_1_1 + 2" in gens                  # X_11 - 1


def test_ideal_identity_vanishes():
    from conftest import CORPUS, load
    for path in CORPUS:
        pres = load(path.name)
        fixed = bool(pres.fixed)
        system = ideal_generators(pres, 3, fixed=fixed)
        n = system.n
        ident = [[pres.ring.one if i == j else pres.ring.zero
                  for j in range(n)] for i in range(n)]
        for g in system.generators:
            assert g.evaluate(ident, pres.ring.one) == pres.ring.zero
        assert check_point(system, ident)


def test_ideal_degree_bound(p2):
    system = ideal_generators(p2, 3, inverse=False)
    # forward conditions from a length-k kernel vector have total degree <= k
    for g in system.generators:
        assert g.total_degree() <= 3


def test_check_point_int_matrix(p2q):
    # [[a, 0], [b, a^2]] is an automorphism of x.x = y; over Q its entries
    # may be plain ints
    system = ideal_generators(p2q, 2)
    for a in range(1, 40):
        for b in range(1, 40):
            assert check_point(system, [[a, 0], [b, a * a]])
    assert not check_point(system, [[9, 0], [1, 80]])


def test_check_point_examples(p2):
    system = ideal_generators(p2, 2)
    assert check_point(system, [[2, 0], [1, 1]])
    assert not check_point(system, [[1, 1], [0, 1]])
    assert not check_point(system, [[1, 0], [0, 0]])  # singular


def test_locus_group_law(p2):
    system = ideal_generators(p2, 2)
    pts = locus_points(system)
    assert len(pts) == 6
    mats = set(pts)
    f3 = GF(3)

    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 3
                           for j in range(2)) for i in range(2))

    ident = ((1, 0), (0, 1))
    assert ident in mats
    for a in mats:
        for b in mats:
            assert matmul(a, b) in mats
        from autalg import linalg
        inv = linalg.inverse(f3, [list(r) for r in a])
        assert tuple(tuple(r) for r in inv) in mats


def test_graded_soundness(p2graded):
    plain = ideal_generators(p2graded, 2)
    graded = ideal_generators(p2graded, 2, graded=True)
    pts_plain = set(locus_points(plain))
    pts_graded = set(locus_points(graded))
    block = {pt for pt in pts_plain if pt[0][1] == 0 and pt[1][0] == 0}
    assert pts_graded == block
    assert pts_graded == {((1, 0), (0, 1)), ((2, 0), (0, 1))}


def test_truncation_monotonicity(p2):
    s2 = ideal_generators(p2, 2)
    s3 = ideal_generators(p2, 3)
    pts2 = set(locus_points(s2))
    pts3 = set(locus_points(s3))
    assert pts3 <= pts2
    assert pts3 == pts2  # stabilized already at L = 2


def _reduce(system, p):
    """A rational system with every coefficient reduced mod p, built by hand."""
    from autalg.rings import reduce_mod_p
    fp = GF(p)
    return IdealSystem(system.n, fp, system.max_length, system.graded,
                       system.fixed, system.inverse,
                       [Polynomial(fp, system.n,
                                   {m: r for m, c in g.terms.items()
                                    if (r := reduce_mod_p(c, p))})
                        for g in system.generators])


def test_base_change_naturality(p2q):
    p = 3
    reduced = _reduce(ideal_generators(p2q, 2), p)
    native = ideal_generators(base_change(p2q, p), 2)
    assert set(locus_points(reduced)) == set(locus_points(native))


def _scan(system):
    """Every matrix in itertools.product order that check_point accepts."""
    n, p = system.n, system.ring.p
    return [pt for pt in (tuple(flat[i * n:(i + 1) * n] for i in range(n))
                          for flat in itertools.product(range(p), repeat=n * n))
            if check_point(system, pt)]


def test_locus_search_matches_scan(p2q):
    from conftest import CORPUS, load
    from test_acceptance import _random_presentation
    systems = []
    for path in CORPUS:
        pres = load(path.name)
        if pres.ring.p is None:
            continue
        for length in (2, 3):
            systems.append(ideal_generators(pres, length))
            systems.append(ideal_generators(pres, length, inverse=False))
            if pres.degrees is not None:
                systems.append(ideal_generators(pres, length, graded=True))
            if pres.fixed:
                systems.append(ideal_generators(pres, length, fixed=True))
    rng = random.Random(20260823)  # the acceptance-6 family, first ten
    systems += [ideal_generators(_random_presentation(rng), 3)
                for _ in range(10)]
    systems.append(_reduce(ideal_generators(p2q, 2), 3))  # acceptance 8
    # GL_2(F_3) and GL_3(F_2): t * det - 1 alone, which the search skips
    for p, n in ((3, 2), (2, 3)):
        ring = GF(p)
        unit = Polynomial.t_var(ring, n).mul(determinant(generic_matrix(ring, n)))
        systems.append(IdealSystem(n, ring, 1, False, False, True,
                                   [unit.sub(Polynomial.constant(ring, n, 1))]))
    # SL_2(F_3) and SL_3(F_3): only a generator in t cuts, so the t = 1/det
    # check must run: locus_points takes linalg.det of each full matrix that
    # reaches a generator in t, and Ring.invert of it; the inverse flag is
    # off, as these systems do not end in t * det - 1
    for n in (2, 3):
        systems.append(IdealSystem(n, F3, 1, False, False, False,
                                   [parse_poly("1 * t + 2", F3, n)]))
    assert any(s.n == 1 for s in systems)
    for system in systems:
        if system.inverse:  # the generator the search skips
            ring, n = system.ring, system.n
            unit = Polynomial.t_var(ring, n).mul(determinant(generic_matrix(ring, n)))
            assert system.generators[-1] == unit.sub(Polynomial.constant(ring, n, 1))
        assert locus_points(system) == _scan(system)
    assert [len(locus_points(s)) for s in systems[-4:]] == [48, 168, 24, 5616]


def test_locus_budget(p2):
    system = ideal_generators(p2, 2)
    with pytest.raises(BudgetExceeded):
        locus_points(system, budget=3 ** 4 - 1)
    assert len(locus_points(system, budget=3 ** 4)) == 6


def test_graded_option_requires_grading(p2):
    with pytest.raises(GradingViolation):
        ideal_generators(p2, 2, graded=True)


def test_meta_line(p2):
    system = ideal_generators(p2, 2, fixed=False)
    assert system.meta_line() == \
        "# meta N=2 ring=Fp 3 L=2 graded=off fixed=off inverse=on"


def test_forward_vs_inverse_loci_agree():
    # On GL_N the lifted action keeps word length and acts on each word
    # shape as X tensor ... tensor X, so it is invertible with X; it maps the
    # truncated kernel into itself, hence onto it, and so does its inverse.
    # The inverse block therefore vanishes wherever the forward block does,
    # which is why check and compare build the forward block alone.
    from conftest import CORPUS, load
    from test_acceptance import _random_presentation
    cases = [(load(path.name), length) for path in CORPUS
             for length in (2, 3)]
    rng = random.Random(20260823)  # the acceptance-6 family, first ten
    cases += [(_random_presentation(rng), 3) for _ in range(10)]
    for pres, length in cases:
        if pres.ring.p is None:
            continue
        for graded, fixed in itertools.product({False, pres.degrees is not None},
                                               {False, bool(pres.fixed)}):
            fwd, both = (ideal_generators(pres, length, graded=graded,
                                          fixed=fixed, inverse=inverse)
                         for inverse in (False, True))
            assert locus_points(fwd) == locus_points(both)


def test_forward_vs_inverse_check_point_agree_over_q():
    from conftest import CORPUS, load
    rng = random.Random(20261018)
    # automorphisms of p2_q: x -> a x + b y, y -> a^2 y
    autos = [[[a, 0], [b, a * a]]
             for a in (Fraction(k, 2) for k in (-4, -2, -1, 1, 2, 3, 4))
             for b in range(-3, 4)]
    for path in CORPUS:
        pres = load(path.name)
        if pres.ring.p is not None:
            continue
        n = pres.num_gens
        points = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(n)] for _ in range(200)]
        for length in (2, 3):
            fwd, both = (ideal_generators(pres, length, inverse=inverse)
                         for inverse in (False, True))
            for theta in points:
                assert check_point(fwd, theta) == check_point(both, theta)
            if path.name == "p2_q.malg":
                assert all(check_point(fwd, theta) and check_point(both, theta)
                           for theta in autos)
