from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autalg import linalg
from autalg.errors import BadPrime, ZeroInverse
from autalg.rings import GF, QQ, Ring, is_prime, parse_ring, reduce_mod_p

F3 = GF(3)
F5 = GF(5)


def test_arith_examples():
    assert F3.add(2, 2) == 1
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert F5.neg(2) == 3


def test_invert_examples():
    assert F5.invert(2) == 3
    assert QQ.invert(Fraction(-4, 7)) == Fraction(-7, 4)
    # an int over Q inverts to a Fraction, not a float
    assert type(QQ.invert(3)) is Fraction and QQ.invert(3) == Fraction(1, 3)
    d = linalg.det(QQ, [[9, 0], [1, 81]])
    assert type(d) is Fraction and d == 729
    with pytest.raises(ZeroInverse):
        F3.invert(0)


def test_reduce_mod_p_examples():
    assert reduce_mod_p(Fraction(7, 2), 5) == 1
    assert reduce_mod_p(Fraction(0), 3) == 0
    with pytest.raises(BadPrime):
        reduce_mod_p(Fraction(1, 3), 3)


def test_bad_ring_strings():
    with pytest.raises(BadPrime):
        Ring(4)
    with pytest.raises(BadPrime):
        Ring(1)
    with pytest.raises(BadPrime):
        Ring(2**31)  # above the supported bound


def test_is_prime_small():
    primes = [n for n in range(50) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert is_prime(2**31 - 1)
    assert not is_prime(46337**2)  # the largest prime square below 2^31


def test_parse_ring_roundtrip():
    for text in ("Q", "Fp 3", "Fp 65537"):
        assert str(parse_ring(text)) == text


rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    if a:
        assert QQ.mul(a, QQ.invert(a)) == 1


@given(st.sampled_from([2, 3, 5, 13]), st.integers(0, 10**6),
       st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms_prime_fields(p, a, b, c):
    f = GF(p)
    a, b, c = a % p, b % p, c % p
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert f.mul(a, f.invert(a)) == 1


@given(st.sampled_from([3, 5, 7]), rationals, rationals)
def test_reduction_is_ring_homomorphism(p, a, b):
    if a.denominator % p == 0 or b.denominator % p == 0:
        return
    assert reduce_mod_p(a + b, p) == (reduce_mod_p(a, p) + reduce_mod_p(b, p)) % p
    assert reduce_mod_p(a * b, p) == reduce_mod_p(a, p) * reduce_mod_p(b, p) % p


def test_scalar_parsing():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert F5.parse("7") == 2
    assert F5.parse("1/2") == 3  # 2^-1 = 3 mod 5
    with pytest.raises(ValueError):
        QQ.parse("x")
