import random
from fractions import Fraction

import pytest

from autalg.poly import (Polynomial, adjugate, determinant, format_poly,
                         generic_matrix, parse_poly)
from autalg.rings import GF, QQ

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def X(ring, n, i, j):
    return Polynomial.variable(ring, n, i, j)


def matrix_mul(a, b):
    n = len(a)
    ring, arity = a[0][0].ring, a[0][0].n
    out = [[Polynomial.zero(ring, arity) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if not a[i][k]:
                continue
            for j in range(n):
                out[i][j] = out[i][j].add(a[i][k].mul(b[k][j]))
    return out


def test_add_cancellation():
    a = X(QQ, 2, 1, 1)
    assert not a.add(a.neg())


def test_mul_distributes():
    n = 2
    s = X(F5, n, 1, 1).add(X(F5, n, 1, 2))
    prod = s.mul(X(F5, n, 1, 1))
    expected = X(F5, n, 1, 1).mul(X(F5, n, 1, 1)).add(
        X(F5, n, 1, 2).mul(X(F5, n, 1, 1)))
    assert prod == expected
    assert format_poly(prod) == "1 * X_1_1^2 + 1 * X_1_1 * X_1_2"


def test_scale_char_two():
    assert not X(F2, 2, 2, 1).scale(F2.parse("2"))


def test_evaluate_examples():
    p = X(F3, 2, 1, 1).mul(X(F3, 2, 1, 1)).sub(X(F3, 2, 2, 2))
    assert p.evaluate([[2, 0], [1, 1]], 1) == 0
    c = Polynomial.constant(QQ, 2, Fraction(5))
    assert c.evaluate([[Fraction(9), Fraction(1)], [Fraction(2), Fraction(3)]]) == 5
    tp = Polynomial.t_var(F5, 1).mul(X(F5, 1, 1, 1))
    assert tp.evaluate([[2]], 3) == 1


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(3)
    n = 2
    for _ in range(20):
        def rand_poly():
            p = Polynomial.zero(F5, n)
            for _ in range(4):
                mono = tuple(rng.randrange(3) for _ in range(n * n + 1))
                p = p.add(Polynomial(F5, n, {mono: rng.randrange(1, 5)}))
            return p
        a, b = rand_poly(), rand_poly()
        point = [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
        tv = rng.randrange(5)
        assert a.mul(b).evaluate(point, tv) == \
            F5.mul(a.evaluate(point, tv), b.evaluate(point, tv))
        assert a.add(b).evaluate(point, tv) == \
            F5.add(a.evaluate(point, tv), b.evaluate(point, tv))


def test_det_adj_closed_forms():
    g1 = generic_matrix(QQ, 1)
    assert determinant(g1) == X(QQ, 1, 1, 1)
    assert adjugate(g1) == [[Polynomial.constant(QQ, 1, Fraction(1))]]

    g2 = generic_matrix(QQ, 2)
    det2 = X(QQ, 2, 1, 1).mul(X(QQ, 2, 2, 2)).sub(
        X(QQ, 2, 1, 2).mul(X(QQ, 2, 2, 1)))
    assert determinant(g2) == det2
    assert adjugate(g2) == [
        [X(QQ, 2, 2, 2), X(QQ, 2, 1, 2).neg()],
        [X(QQ, 2, 2, 1).neg(), X(QQ, 2, 1, 1)],
    ]


def test_matrix_times_adjugate_is_det():
    for n in (1, 2, 3):
        g = generic_matrix(F5, n)
        d = determinant(g)
        prod = matrix_mul(g, adjugate(g))
        for i in range(n):
            for j in range(n):
                expected = d if i == j else Polynomial.zero(F5, n)
                assert prod[i][j] == expected


def test_format_parse_roundtrip_basics():
    assert format_poly(Polynomial.zero(QQ, 2)) == "0"
    assert parse_poly("0", QQ, 2) == Polynomial.zero(QQ, 2)
    p = X(QQ, 2, 1, 1).mul(X(QQ, 2, 1, 1)).sub(X(QQ, 2, 2, 2))
    text = format_poly(p)
    assert text == "1 * X_1_1^2 + -1 * X_2_2"
    assert parse_poly(text, QQ, 2) == p


def test_format_parse_roundtrip_random():
    rng = random.Random(11)
    for ring in (QQ, F3):
        for _ in range(30):
            n = rng.choice([1, 2, 3])
            p = Polynomial.zero(ring, n)
            for _ in range(rng.randrange(6)):
                mono = tuple(rng.randrange(3) for _ in range(n * n + 1))
                c = ring.parse(str(rng.randint(-6, 6)))
                p = p.add(Polynomial(ring, n, {mono: c}) if c else
                          Polynomial.zero(ring, n))
            assert parse_poly(format_poly(p), ring, n) == p
            # printing is stable under reparse as well
            assert format_poly(parse_poly(format_poly(p), ring, n)) == format_poly(p)


def test_parse_poly_errors():
    for text in ("1 * Y_1_1", "1 * X_1", "1 * t^x", "1 * X_3_1", "1 * X_1_0"):
        with pytest.raises(ValueError):
            parse_poly(text, QQ, 2)


def test_substitute_keeps_t():
    n = 2
    x = [X(F5, n, i, j) for i in (1, 2) for j in (1, 2)]
    t = Polynomial.t_var(F5, n)
    p = x[0].mul(t).mul(t).add(t.scale(3)).add(x[3]).add(Polynomial.constant(F5, n, 4))
    # swapping X_1_1 with X_1_2 and X_2_1 with X_2_2 leaves every power of t
    swapped = p.substitute([x[1], x[0], x[3], x[2]])
    assert format_poly(swapped) == "1 * X_1_2 * t^2 + 1 * X_2_1 + 3 * t + 4"
    # substitution then evaluation is evaluation at the substituted values,
    # with t bound to the same value on both sides
    rng = random.Random(4)
    for _ in range(20):
        q = Polynomial.zero(F5, n)
        for _ in range(4):
            mono = tuple(rng.randrange(3) for _ in range(n * n + 1))
            q = q.add(Polynomial(F5, n, {mono: rng.randrange(1, 5)}))
        entries = [x[rng.randrange(4)].add(x[rng.randrange(4)]).mul(
            t if rng.randrange(2) else x[rng.randrange(4)]) for _ in range(4)]
        point = [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
        tv = rng.randrange(5)
        values = [e.evaluate(point, tv) for e in entries]
        assert q.substitute(entries).evaluate(point, tv) == \
            q.evaluate([values[:2], values[2:]], tv)


def test_grlex_printing_order():
    n = 2
    p = X(F3, n, 2, 2).add(X(F3, n, 1, 1).mul(X(F3, n, 1, 2))).add(
        Polynomial.constant(F3, n, 2))
    assert format_poly(p) == "1 * X_1_1 * X_1_2 + 1 * X_2_2 + 2"
