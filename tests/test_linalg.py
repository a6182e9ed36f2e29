import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import linalg
from autalg.rings import GF


def _rank(ring, rows):
    return len(linalg.rref(ring, [list(r) for r in rows])[1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_span_membership_matches_rank(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 4))
    ring = GF(p)
    span = linalg.Span(p, n)
    vector = st.tuples(*[st.integers(0, p - 1)] * n)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    stack: list[tuple] = []
    rank: dict[tuple, bool] = {}   # the reference answers for this stack

    def outside(q):
        if q not in rank:
            rank[q] = _rank(ring, stack + [q]) > len(stack)
        return rank[q]

    def batch_vector():
        # half in the span, half anywhere
        if rng.random() < 0.5:
            return tuple(rng.randrange(p) for _ in range(n))
        coeffs = [rng.randrange(p) for _ in stack]
        return tuple(sum(c * u[k] for c, u in zip(coeffs, stack)) % p for k in range(n))

    for _ in range(data.draw(st.integers(1, 12))):
        if stack and data.draw(st.booleans()):
            stack.pop()
            span.pop()
        else:
            v = data.draw(vector)
            if _rank(ring, stack + [v]) > len(stack):
                stack.append(v)
                span.push(v)
        rank.clear()
        # up to 20 tests of the same span: enough to make it build its set
        # for small p^k, while larger spans stay with the reduction
        for _ in range(data.draw(st.integers(0, 20))):
            coeffs = data.draw(st.lists(st.integers(0, p - 1),
                                        min_size=len(stack), max_size=len(stack)))
            inside = tuple(sum(c * u[k] for c, u in zip(coeffs, stack)) % p
                           for k in range(n))
            q = inside if data.draw(st.booleans()) else data.draw(vector)
            assert list(span.outside([q], 1)) == [q] * outside(q), (q, stack)
        # batches of up to 40 tests, some fewer and some more than the span
        # has left before it builds its set, so both the reduction and the
        # lookup filter them; each is handed over as a one-pass iterator
        for _ in range(data.draw(st.integers(0, 3))):
            batch = [batch_vector() for _ in range(data.draw(st.integers(0, 40)))]
            assert list(span.outside(iter(batch), len(batch))) == \
                [q for q in batch if outside(q)], stack


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
                min_size=1, max_size=8).filter(any))
def test_primitive_integer(vec):
    out = linalg.primitive_integer(vec)
    assert all(type(x) is Fraction and x.denominator == 1 for x in out)
    assert math.gcd(*(int(x) for x in out)) == 1
    assert next(x for x in out if x) > 0
    # a rational multiple of the input: the same nonzero ratio everywhere
    lead = next(k for k, x in enumerate(vec) if x)
    ratio = out[lead] / vec[lead]
    assert out == [ratio * x for x in vec]
