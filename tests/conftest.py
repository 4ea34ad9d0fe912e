"""Shared rings and hypothesis strategies for the suite.

Algebras cache their census, cyclic table, and brute-force results, so
the hot rings are built once per session and handed around.
"""

import pytest
from hypothesis import strategies as st

from cyclicideals import build_algebra, parse_presentation
from cyclicideals.rings import RingPresentation, mono_degree

PAIR_N3 = "field 2 / vars x y / rel x^3 / rel y^3 / rel x*y"
PAIR_N4 = "field 2 / vars x y / rel x^4 / rel y^4 / rel x*y"
TRIPLE = ("field 2 / vars x1 x2 x3 / rel x1^3 / rel x2^3 / rel x3^3"
          " / rel x1*x2 / rel x1*x3 / rel x2*x3")
CHAIN4 = "field 2 / vars x / rel x^4"
CHAIN5 = "field 2 / vars x / rel x^5"
POWER_SERIES = "field 2 / vars x / truncate 6"
SQUARE_ZERO_N2 = "field 2 / vars x y / rel x^2 / rel y^2 / rel x*y"
SQUARE_ZERO_N3 = ("field 2 / vars x y z / rel x^2 / rel y^2 / rel z^2"
                  " / rel x*y / rel x*z / rel y*z")
AXIS_SOCLE = "field 2 / vars x y / rel x*y / rel y^2 / truncate 6"
TWO_AXES = "field 2 / vars x y / rel x*y / truncate 6"
# both counts of structure.m_count_failure pass, the variables do not
# split M, and the cover search of M is GF(2)-only
GF3_UNDECIDED = "field 3 / vars x y / rel x^2 / rel y^3 / rel x*y^2"


@st.composite
def presentations(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    nv = draw(st.integers(1, 3))
    truncate = draw(st.one_of(st.none(), st.integers(2, 7)))
    rels = []
    for v in range(nv):
        # without a truncation every variable needs a pure power
        if truncate is None or draw(st.booleans()):
            m = [0] * nv
            m[v] = draw(st.integers(2, 5))
            rels.append(tuple(m))
    for _ in range(draw(st.integers(0, 3))):
        m = tuple(draw(st.integers(0, 3)) for _ in range(nv))
        if mono_degree(m) >= 2:
            rels.append(m)
    return RingPresentation.make(p, [f"x{v}" for v in range(nv)], rels, truncate)


def maximal_ideal_elements(alg, data, count):
    tail = st.lists(st.integers(0, alg.p - 1), min_size=alg.dim - 1,
                    max_size=alg.dim - 1)
    return [alg.element([0] + data.draw(tail)) for _ in range(count)]


def build(text):
    return build_algebra(parse_presentation(text))


def build_pres(text):
    pres = parse_presentation(text)
    return pres, build_algebra(pres)


@pytest.fixture(scope="session")
def pair_n3():
    return build(PAIR_N3)


@pytest.fixture(scope="session")
def triple():
    return build(TRIPLE)


@pytest.fixture(scope="session")
def chain4():
    return build(CHAIN4)
