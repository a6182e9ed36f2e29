import random
from fractions import Fraction

from conftest import CORPUS, load
from autalg.freealg import (eta_evaluate, eta_matrix, m_product,
                            structure_product)
from autalg.rings import GF, QQ
from autalg.words import Universe, enumerate_words


def test_m_product_examples():
    u = Universe(2, [0])
    x, y = u.leaf(1), u.leaf(2)
    ex = {x: QQ.one}
    assert m_product(QQ, ex, ex, 0, u) == {u.node(x, 0, x): Fraction(1)}

    two_x_plus_y = {x: Fraction(2), y: Fraction(1)}
    prod = m_product(QQ, two_x_plus_y, ex, 0, u)
    assert prod == {u.node(x, 0, x): Fraction(2),
                    u.node(y, 0, x): Fraction(1)}

    assert not m_product(QQ, {}, ex, 0, u)


def test_m_product_bilinear_random():
    u = Universe(2, [0, 1])
    table = enumerate_words(u, 2)
    rng = random.Random(0)

    def rand_elem():
        e = {}
        for w in rng.sample(table.words, 3):
            QQ.accumulate(e, w, Fraction(rng.randint(-4, 4)))
        return e

    def scale(e, c):
        return {w: QQ.mul(c, x) for w, x in e.items()} if c else {}

    def add(a, b):
        out = dict(a)
        for w, c in b.items():
            QQ.accumulate(out, w, c)
        return out

    for _ in range(25):
        a, a2, b = rand_elem(), rand_elem(), rand_elem()
        alpha = Fraction(rng.randint(-3, 3))
        m = rng.choice([0, 1])
        lhs = m_product(QQ, add(scale(a, alpha), a2), b, m, u)
        rhs = add(scale(m_product(QQ, a, b, m, u), alpha), m_product(QQ, a2, b, m, u))
        assert lhs == rhs


def test_eta_examples(p1, pv3):
    u = p1.universe
    x = u.leaf(1)
    xx = u.node(x, 0, x)
    assert eta_evaluate(xx, p1) == (0, 1)
    assert eta_evaluate(u.node(xx, 0, x), p1) == (0, 0)

    uv = pv3.universe
    vac = uv.leaf(1)
    assert eta_evaluate(uv.node(vac, -1, vac), pv3) == (1,)


def test_eta_matrix_p0(p0):
    rows, table = eta_matrix(p0, 2)
    assert rows == [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]


def test_eta_matrix_p1(p1):
    rows, table = eta_matrix(p1, 2)
    assert rows == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_eta_matrix_p2(p2):
    rows, table = eta_matrix(p2, 2)
    # columns: x, y, x0x, x0y, y0x, y0y
    assert rows == [[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0]]


def test_eta_is_multiplicative(p2):
    table = enumerate_words(p2.universe, 4)
    for w in table.words:
        if w.is_leaf:
            continue
        left, m, right = w.left, w.label, w.right
        expected = structure_product(p2, eta_evaluate(left, p2),
                                     eta_evaluate(right, p2), m)
        assert eta_evaluate(w, p2) == expected


def test_eta_deterministic(p2):
    # a fresh memo table must not change any value
    table = enumerate_words(p2.universe, 3)
    p2.eta_cache.clear()
    first = [eta_evaluate(w, p2) for w in table.words]
    p2.eta_cache.clear()
    second = [eta_evaluate(w, p2) for w in table.words]
    assert first == second


def test_structure_product_bilinearity(p2):
    f3 = GF(3)
    rng = random.Random(1)
    for _ in range(20):
        u = tuple(rng.randrange(3) for _ in range(2))
        v = tuple(rng.randrange(3) for _ in range(2))
        w = tuple(rng.randrange(3) for _ in range(2))
        s = tuple(f3.add(a, b) for a, b in zip(u, v))
        left = structure_product(p2, s, w, 0)
        r1 = structure_product(p2, u, w, 0)
        r2 = structure_product(p2, v, w, 0)
        assert left == tuple(f3.add(a, b) for a, b in zip(r1, r2))


def test_structure_product_matches_dense_sum():
    # structure_product walks the presentation's sparse table; the
    # reference sums u_i v_j mul[m, i, j] over every pair, read from mul
    rng = random.Random(2)
    for path in CORPUS:
        pres = load(path.name)
        ring = pres.ring
        values = range(ring.p) if ring.p else [Fraction(k, 2) for k in range(-3, 4)]
        for m in pres.labels:
            for _ in range(10):
                u = tuple(rng.choice(values) for _ in range(pres.dim))
                v = tuple(rng.choice(values) for _ in range(pres.dim))
                dense = [ring.zero] * pres.dim
                for i in range(pres.dim):
                    for j in range(pres.dim):
                        for k, s in enumerate(pres.mul.get((m, i, j), ())):
                            dense[k] = ring.add(dense[k], ring.mul(ring.mul(u[i], v[j]), s))
                assert structure_product(pres, u, v, m) == tuple(dense), (path.name, m)
