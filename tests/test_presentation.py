from fractions import Fraction

import pytest

from conftest import CORPUS, load
from autalg.errors import (BadPrime, DuplicateBasis, GradingViolation,
                           NotGenerating, PresentationSyntaxError, UnknownName)
from autalg import linalg
from autalg.freealg import eta_element, eta_evaluate, eta_matrix
from autalg.presentation import (Presentation, base_change,
                                 format_presentation, generation_closure, parse)
from autalg.rings import GF, QQ
from autalg.words import enumerate_words


def test_parse_p1(p1):
    assert p1.ring == QQ
    assert p1.dim == 2
    assert p1.num_gens == 1
    assert p1.labels == [0]
    assert p1.mul == {(0, 0, 0): (Fraction(0), Fraction(1))}


def test_parse_errors():
    base = "ring Q\nproducts 0\nbasis x\nbasis y\ngenerators x\n"
    with pytest.raises(UnknownName):
        parse(base + "mul 0 x x = 1*z\n")
    with pytest.raises(UnknownName, match="line 6: product label 1"):
        parse(base + "mul 1 x x = 1*y\n")
    with pytest.raises(DuplicateBasis):
        parse("ring Q\nproducts 0\nbasis x\nbasis x\ngenerators x\n")
    with pytest.raises(PresentationSyntaxError):
        parse("ring Q\nproducts 0\nbasis x\ngenerators x\nmul 0 x = 1*x\n")
    with pytest.raises(PresentationSyntaxError):
        parse("ring Q\nbasis x\ngenerators x\n")  # missing products
    with pytest.raises(BadPrime):
        parse("ring Fp 6\nproducts 0\nbasis x\ngenerators x\n")
    with pytest.raises(UnknownName, match="line 4: unknown generator"):
        parse("ring Q\nproducts 0\nbasis x\ngenerators z\n")
    # ambiguous input: rejected at the offending line, not last-line-wins
    for text, line in [
        (base + "mul 0 x x = 1*y\nmul 0 x x = 0*y\n", 7),
        ("ring Q\nproducts 0\nbasis x\nbasis y\ngenerators x x y\n", 5),
        ("ring Q\nring Fp 3\nproducts 0\nbasis x\ngenerators x\n", 2),
        (base + "products 0 1\n", 6),
        (base + "grading none\ngrading vertex\n", 7),
        (base + "generators y\n", 6),
        (base + "dtable 1 0 1 = 2\n", 6),
        ("ring Q\nproducts 0\ngrading table\nbasis x 1\ngenerators x\n"
         "dtable 1 0 1 = 2\ndtable 1 0 1 = 3\n", 7),
        # semantic errors point at the line that causes them
        ("ring Q\nproducts 0 0\nbasis x\ngenerators x\n", 2),
        ("ring Q\nproducts 0\ngrading vertex\nbasis x 0\nbasis y\n"
         "generators x\n", 5),
        ("ring Q\nproducts 0\nbasis x\nbasis y 1\ngrading table\n"
         "generators x\n", 3),
    ]:
        with pytest.raises(PresentationSyntaxError) as exc:
            parse(text)
        assert exc.value.line == line, text


def test_validate_rejects_out_of_range():
    # presentations built in code pass the index and length checks of parse
    one, zero = QQ.one, QQ.zero
    base = dict(ring=QQ, basis=["x", "y"], degrees=None, labels=[0], gens=[0],
                mul={(0, 0, 0): (zero, one)})
    Presentation(**base)
    for change in [
        dict(gens=[7]),
        dict(gens=[0, 0]),
        dict(mul={(0, 5, 0): (zero, one)}),
        dict(degrees=[1], gens=[0, 1]),
        dict(fixed=[(one,)]),
    ]:
        with pytest.raises(PresentationSyntaxError) as exc:
            Presentation(**{**base, **change})
        assert exc.value.line == 0, change


def test_grading_violation():
    text = ("ring Q\nproducts 0\ngrading table\nbasis x 1\nbasis y 3\n"
            "generators x y\nmul 0 x x = 1*y\ndtable 1 0 1 = 2\n")
    with pytest.raises(GradingViolation):
        parse(text)


def test_vertex_grading_accepts_trivial_vertex_algebra(pv3):
    assert pv3.grading == "vertex"
    assert pv3.fixed == [(1,)]


def test_roundtrip_corpus():
    assert CORPUS, "corpus must not be empty"
    for path in CORPUS:
        text = path.read_text()
        pres = parse(text)
        printed = format_presentation(pres)
        again = parse(printed)
        assert again == pres
        assert format_presentation(again) == printed


def test_generation_closure_p1(p1):
    section = generation_closure(p1)
    u = p1.universe
    x = u.leaf(1)
    assert section.elements[0].terms == {x: Fraction(1)}
    assert section.elements[1].terms == {u.node(x, 0, x): Fraction(1)}
    assert section.max_length == 2


def test_generation_closure_p0(p0):
    section = generation_closure(p0)
    assert section.max_length == 1
    for i, e in enumerate(section.elements):
        (w, c), = e.terms.items()
        assert w.is_leaf and w.gen == i + 1 and c == 1


def test_not_generating():
    pres = parse("ring Q\nproducts 0\nbasis x\nbasis y\ngenerators y\n"
                 "mul 0 x x = 1*y\n")
    with pytest.raises(NotGenerating) as exc:
        generation_closure(pres)
    assert exc.value.reached == [(Fraction(0), Fraction(1))]


def test_section_inverts_eta():
    for path in CORPUS:
        pres = load(path.name)
        section = generation_closure(pres)
        for i, e in enumerate(section.elements):
            img = eta_element(e, pres)
            assert [bool(c) for c in img] == [k == i for k in range(pres.dim)]
            assert img[i] == pres.ring.one
        # shortest first: the words one length shorter do not span the algebra
        if section.max_length > 1:
            eta, _ = eta_matrix(pres, section.max_length - 1)
            assert len(linalg.rref(pres.ring, eta)[1]) < pres.dim, path.name


def test_deep_section():
    # z is reachable only through a length-4 word: (x.x).(x.x)
    pres = parse("ring Q\nproducts 0\nbasis x\nbasis y\nbasis z\ngenerators x\n"
                 "mul 0 x x = 1*y\nmul 0 y y = 1*z\n")
    section = generation_closure(pres)
    assert section.max_length == 4
    u = pres.universe
    x = u.leaf(1)
    xx = u.node(x, 0, x)
    assert section.elements[2].terms == {u.node(xx, 0, xx): Fraction(1)}


def test_section_dependent_word_and_fraction():
    # x.(x.x) = 2y is nonzero but depends on x.x, and V^-1 = diag(1, 1/2, 1/2)
    pres = parse("ring Q\nproducts 0\nbasis x\nbasis y\nbasis z\ngenerators x\n"
                 "mul 0 x x = 2*y\nmul 0 x y = 1*y\nmul 0 y x = 1*z\n")
    section = generation_closure(pres)
    assert section.max_length == 3
    u = pres.universe
    x = u.leaf(1)
    xx = u.node(x, 0, x)
    assert section.elements[0].terms == {x: Fraction(1)}
    assert section.elements[1].terms == {xx: Fraction(1, 2)}
    assert section.elements[2].terms == {u.node(xx, 0, x): Fraction(1, 2)}


def test_base_change_examples(p2q, p0):
    p2_3 = base_change(p2q, 3)
    assert p2_3.ring == GF(3)
    assert p2_3.mul == {(0, 0, 0): (0, 1)}
    with pytest.raises(BadPrime):
        base_change(parse("ring Q\nproducts 0\nbasis x\ngenerators x\n"
                          "mul 0 x x = 1/3*x\n"), 3)
    with pytest.raises(BadPrime):
        base_change(p2_3, 2)  # must start from the rationals


def test_base_change_commutes_with_eta(p2q):
    p = 5
    reduced = base_change(p2q, p)
    table = enumerate_words(p2q.universe, 3)
    table_p = enumerate_words(reduced.universe, 3)
    for wq, wp in zip(table.words, table_p.words):
        vq = eta_evaluate(wq, p2q)
        vp = eta_evaluate(wp, reduced)
        assert tuple(int(c) % p for c in vq) == vp


def test_closure_monotone_and_bounded(p2):
    # the round closure must stabilize within dim rounds; the deep example
    # above exercises the non-trivial path, here the span is full after one
    section = generation_closure(p2)
    assert section.max_length == 1
