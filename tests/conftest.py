import pathlib

import pytest

from autalg.presentation import parse_file

DATA = pathlib.Path(__file__).parent / "data"

CORPUS = sorted(DATA.glob("*.malg"))

# a point at which `check` prints false, for each corpus file: an invertible
# one where the locus is not all of GL_N, else the zero matrix (every
# invertible matrix is an automorphism of p0_f2, every nonzero scalar one of
# p1_q)
OFF_LOCUS = {
    "p0_f2.malg": "0,0;0,0",
    "p1_q.malg": "0",
    "p2_f3.malg": "1,0;0,2",
    "p2_graded_f3.malg": "1,0;0,2",
    "p2_q.malg": "1,0;0,2",
    "p3_f5.malg": "2",
    "p3_q.malg": "1,0;0,2",
    "pv_f3.malg": "2",
    "pv_f5.malg": "2",
}


def load(name):
    return parse_file(DATA / name)


def matrix_literal(rows):
    """The `--point` text of a matrix given as a list of rows."""
    return ";".join(",".join(map(str, row)) for row in rows)


def identity_literal(n):
    return matrix_literal([[int(i == j) for j in range(n)] for i in range(n)])


@pytest.fixture
def p0():
    return load("p0_f2.malg")


@pytest.fixture
def p1():
    return load("p1_q.malg")


@pytest.fixture
def p2():
    return load("p2_f3.malg")


@pytest.fixture
def p2q():
    return load("p2_q.malg")


@pytest.fixture
def p2graded():
    return load("p2_graded_f3.malg")


@pytest.fixture
def pv3():
    return load("pv_f3.malg")


@pytest.fixture
def pv5():
    return load("pv_f5.malg")
