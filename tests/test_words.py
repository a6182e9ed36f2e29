import math

import pytest

from autalg.errors import LimitExceeded, MissingDegreeRule
from autalg.words import (Universe, enumerate_words, format_word,
                          table_degree_rule)


def brute_counts(num_gens, num_labels, max_length):
    """Independent count of words per length by the defining recursion."""
    counts = [num_gens]
    for k in range(2, max_length + 1):
        counts.append(sum(counts[j - 1] * num_labels * counts[k - j - 1]
                          for j in range(1, k)))
    return counts


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def level_sizes(table):
    return [len(level) for level in table.by_length]


def test_count_examples():
    assert level_sizes(enumerate_words(Universe(1, [0]), 4)) == [1, 1, 2, 5]
    assert level_sizes(enumerate_words(Universe(2, [0]), 2)) == [2, 4]
    assert level_sizes(enumerate_words(Universe(1, [-1, 0]), 3)) == [1, 2, 8]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nl", [1, 2, 3])
def test_counting_closed_form(n, nl):
    labels = list(range(nl))
    table = enumerate_words(Universe(n, labels), 5)
    expected = [catalan(k - 1) * n**k * nl ** (k - 1) for k in range(1, 6)]
    assert level_sizes(table) == expected
    assert level_sizes(table) == brute_counts(n, nl, 5)


def test_decompose():
    u = Universe(2, [-1, 0])
    x, y = u.leaf(1), u.leaf(2)
    assert x.is_leaf and x.gen == 1
    w = u.node(x, 0, y)
    assert (w.left, w.label, w.right) == (x, 0, y)
    deep = u.node(u.node(x, 0, x), -1, x)
    assert (deep.left, deep.label, deep.right) == (u.node(x, 0, x), -1, x)
    assert deep.length == 3


def test_interning_identity():
    u = Universe(2, [0])
    a = u.node(u.leaf(1), 0, u.leaf(2))
    b = u.node(u.leaf(1), 0, u.leaf(2))
    assert a is b


def test_unique_decomposition_bijection():
    u = Universe(2, [0, 1])
    table = enumerate_words(u, 3)
    for w in table.words:
        if w.is_leaf:
            continue
        left, m, right = w.left, w.label, w.right
        assert left.length + right.length == w.length
        assert u.node(left, m, right) is w
    # decomposition is injective on each length level
    triples = {(w.left, w.label, w.right) for lvl in table.by_length[1:] for w in lvl}
    assert len(triples) == sum(len(lvl) for lvl in table.by_length[1:])


def test_canonical_order_deterministic():
    t1 = enumerate_words(Universe(2, [0, 1]), 4)
    t2 = enumerate_words(Universe(2, [0, 1]), 4)
    names = ["x", "y"]
    w1 = [format_word(w, names) for w in t1.words]
    w2 = [format_word(w, names) for w in t2.words]
    assert w1 == w2


def test_limit_exceeded():
    with pytest.raises(LimitExceeded):
        enumerate_words(Universe(3, [0, 1, 2]), 6, cap=1000)
    with pytest.raises(LimitExceeded):  # the leaves alone exceed the cap
        enumerate_words(Universe(3, [0]), 1, cap=2)


def test_invalid_arguments():
    u = Universe(2, [0])
    x = u.leaf(1)
    for call in [
        lambda: Universe(0, [0]),
        lambda: Universe(1, []),
        lambda: Universe(1, [0, 0]),
        lambda: u.leaf(0),
        lambda: u.leaf(3),
        lambda: u.node(x, 1, x),
        lambda: enumerate_words(u, 0),
    ]:
        with pytest.raises(ValueError):
            call()


def test_table_degree_rule_missing():
    d = table_degree_rule({(1, 0, 1): 2})
    assert d(1, 0, 1) == 2
    with pytest.raises(MissingDegreeRule):
        d(1, 0, 2)


def test_format_word():
    u = Universe(2, [-1])
    w = u.node(u.node(u.leaf(1), -1, u.leaf(1)), -1, u.leaf(2))
    assert format_word(w, ["x", "y"]) == "((x <-1> x) <-1> y)"
