"""Labeled binary trees over a finite generator set: the free multi-product magma.

Words are hash-consed per Universe: structurally equal words are the same
object, so equality and hashing are by identity and memo tables keyed on
words are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LimitExceeded, MissingDegreeRule

DEFAULT_WORD_CAP = 10**6


class Word:
    """A leaf (generator index, 1-based) or a node (left, label, right)."""

    __slots__ = ("gen", "left", "label", "right", "length")

    def __init__(self, gen, left, label, right, length):
        self.gen = gen
        self.left = left
        self.label = label
        self.right = right
        self.length = length

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        if self.left is None:
            return f"x{self.gen}"
        return f"({self.left!r} <{self.label}> {self.right!r})"


class Universe:
    """Interning context for words over ``num_gens`` generators and a label list."""

    def __init__(self, num_gens: int, labels: list[int]):
        if num_gens < 1:
            raise ValueError("need at least one generator")
        if not labels or len(set(labels)) != len(labels):
            raise ValueError("labels must be nonempty and duplicate-free")
        self.num_gens = num_gens
        self.labels = list(labels)
        self._leaves = [Word(i, None, None, None, 1) for i in range(1, num_gens + 1)]
        self._nodes: dict[tuple, Word] = {}

    def leaf(self, i: int) -> Word:
        if not 1 <= i <= self.num_gens:
            raise ValueError(f"generator index {i} out of range")
        return self._leaves[i - 1]

    def node(self, left: Word, label: int, right: Word) -> Word:
        if label not in self.labels:
            raise ValueError(f"unknown product label {label}")
        key = (id(left), label, id(right))
        w = self._nodes.get(key)
        if w is None:
            w = Word(None, left, label, right, left.length + right.length)
            self._nodes[key] = w
        return w


@dataclass
class WordTable:
    """All words up to a length, per length, in canonical order."""

    by_length: list[list[Word]]  # by_length[k-1] = words of length k

    @property
    def words(self) -> list[Word]:
        return [w for lvl in self.by_length for w in lvl]


def enumerate_words(universe: Universe, max_length: int,
                    cap: int = DEFAULT_WORD_CAP) -> WordTable:
    """Canonical enumeration: within a length, splits by left-length ascending,
    then (left word, label in input order, right word) lexicographically."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    labels = universe.labels
    by_length = [list(universe._leaves)]
    total = universe.num_gens
    if total > cap:
        raise LimitExceeded(f"{total} words exceeds cap {cap}")
    node = universe.node
    for k in range(2, max_length + 1):
        count = sum(len(by_length[j - 1]) * len(labels) * len(by_length[k - j - 1])
                    for j in range(1, k))
        if total + count > cap:
            raise LimitExceeded(f"{total + count} words exceeds cap {cap}")
        level = []
        for j in range(1, k):
            rights = by_length[k - j - 1]
            for left in by_length[j - 1]:
                for m in labels:
                    level.extend(node(left, m, right) for right in rights)
        by_length.append(level)
        total += count
    return WordTable(by_length)


def vertex_degree_rule(alpha: int, m: int, beta: int) -> int:
    """Degree of an m-product of homogeneous pieces in a graded vertex algebra."""
    return alpha + beta - m - 1


def table_degree_rule(entries: dict[tuple[int, int, int], int]):
    def d(alpha: int, m: int, beta: int) -> int:
        try:
            return entries[(alpha, m, beta)]
        except KeyError:
            raise MissingDegreeRule(f"no degree for ({alpha}, {m}, {beta})") from None
    return d


def format_word(w: Word, names: list[str]) -> str:
    """Infix form ``(a <m> b)``; leaves print as generator names."""
    if w.is_leaf:
        return names[w.gen - 1]
    return f"({format_word(w.left, names)} <{w.label}> {format_word(w.right, names)})"
