import math
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
    stack: list[tuple] = []
    for _ in range(data.draw(st.integers(1, 12))):
        if stack and data.draw(st.booleans()):
            stack.pop()
            span.pop()
        else:
            v = data.draw(vector)
            if _rank(ring, stack + [v]) > len(stack):
                stack.append(v)
                span.push(v)
        # up to 20 tests of the same span: enough to make it build its set
        # for small p^k, while larger spans stay with the reduction
        for _ in range(data.draw(st.integers(0, 20))):
            coeffs = data.draw(st.lists(st.integers(0, p - 1),
                                        min_size=len(stack), max_size=len(stack)))
            inside = tuple(sum(c * u[k] for c, u in zip(coeffs, stack)) % p
                           for k in range(n))
            q = inside if data.draw(st.booleans()) else data.draw(vector)
            assert (q in span) == (_rank(ring, stack + [q]) == len(stack)), (q, stack)


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
