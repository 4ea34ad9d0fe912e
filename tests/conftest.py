"""Shared rings and hypothesis strategies for the suite.

Algebras cache their census, cyclic table, and brute-force results, so
the hot rings are built once per session and handed around.  The
package builds monomial algebras only; QuotientAlgebra models the
suite's other local algebras, the quotients R/I.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import strategies as st

import reference_kernels
from cyclicideals import Ideal, build_algebra, gf, ideals, parse_presentation
from cyclicideals.rings import (Algebra, Element, MonomialAlgebra, RingPresentation,
                                mono_degree)

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
# x*y != 0, so classify refutes it with M by that mixed product; the
# oracle, which is GF(2)-only, refuses it
GF3_MIXED = "field 3 / vars x y / rel x^2 / rel y^3 / rel x*y^2"

# one digit past the default limit of int() on a string (Python >= 3.10.7)
LONG = "9" * 4301

# the characters besides \n and \r at which str.splitlines() ends a line;
# in ring text they are blanks inside a line, as editors count lines
SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# the proof of classify_dsc's no for a monomial ring with a nonzero product
# of two distinct variables, formatted with that product, e.g. "x*y"
MIXED_PROOF = ("{} != 0: M of a monomial ring is a direct sum of cyclic modules "
               "only if every product of two distinct variables vanishes")


def certificate_note(x, y, z):
    """The note of classify_dsc's three-summand no on the non-simple
    summands x, y, z: the rank of its three products modulo M*J^2."""
    u, v = f"({x} + {y})", f"({x} + {z})"
    return f"{u}^2, {u}*{v}, {v}^2 have rank 3 modulo M*J^2"


def mixed_product(alg):
    """The first product of two distinct variables, in variable order,
    that survives in the monomial algebra alg, as text such as "x*y"; None
    when every such product vanishes.  Read off the standard monomials:
    x_a*x_b survives exactly when it is one of them."""
    names = alg.presentation.vars
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            if tuple(int(v in (a, b)) for v in range(len(names))) in alg.index:
                return f"{names[a]}*{names[b]}"
    return None


class QuotientAlgebra(Algebra):
    """R/I modeled on the non-pivot coordinates of I's RREF basis, for a
    proper ideal I of the algebra R.

    Multiplication lifts through the canonical section, multiplies in the
    source, and projects back, so associativity and commutativity are
    inherited rather than re-proved.  project and lift carry elements
    between R and R/I.
    """

    def __init__(self, source: Algebra, ideal: Ideal):
        if ideal.algebra is not source:
            raise ValueError("algebra mismatch")
        if ideal.dim == source.dim:
            raise ValueError("not proper")
        self.source = source
        self.ideal = ideal
        self.p = source.p
        pivots = set(ideal.space.pivots)
        self.nonpivot = tuple(j for j in range(source.dim) if j not in pivots)
        self.dim = len(self.nonpivot)
        gens = {}  # the distinct nonzero images of the source's generators
        for g in source.gens:
            img = self.project_vec(g.vec)
            if img:
                gens.setdefault(img, Element.packed(self, img))
        self.gens = tuple(gens.values())

    def project_vec(self, v: int) -> int:
        """The packed row v of R reduced modulo I, read off the non-pivot
        coordinates: its image in R/I."""
        f = self.field
        red = f.reduce(v, self.ideal.space.echelon)
        return sum((red >> j * f.w & f.one) << k * f.w for k, j in enumerate(self.nonpivot))

    def lift_vec(self, v: int) -> int:
        """The canonical section: coordinate k of v at non-pivot k of R."""
        f = self.field
        return sum((v >> k * f.w & f.one) << j * f.w for k, j in enumerate(self.nonpivot))

    def project(self, z: Element) -> Element:
        if z.algebra is not self.source:
            raise ValueError("algebra mismatch")
        return Element.packed(self, self.project_vec(z.vec))

    def lift(self, z: Element) -> Element:
        if z.algebra is not self:
            raise ValueError("algebra mismatch")
        return Element.packed(self.source, self.lift_vec(z.vec))

    def columns(self, z: Element) -> list[int]:
        cols = self.source.columns(self.lift(z))
        return [self.project_vec(cols[j]) for j in self.nonpivot]

    def el_str(self, vec: int) -> str:
        return self.source.el_str(self.lift_vec(vec))

    def __repr__(self) -> str:
        killed = ", ".join(self.source.el_str(r) for r in self.ideal.space.basis)
        return f"QuotientAlgebra<mod span {{{killed}}}, dim {self.dim}>"


def reference_annihilator(alg, z):
    """Ann(z) = {a : a z = 0} as an ideal of alg, from the tuple reference
    kernel: the left kernel of the rows e_k z, the unpacked mult_map(z)."""
    rows = [alg.field.unpack(c, alg.dim) for c in alg.mult_map(z)]
    kernel = reference_kernels.left_kernel(rows, alg.dim, alg.p)
    return Ideal(alg, gf.Subspace.span(alg.p, alg.dim, kernel))


@st.composite
def presentations(draw, max_vars=3, primes=(2, 3, 5)):
    p = draw(st.sampled_from(primes))
    nv = draw(st.integers(1, max_vars))
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


@contextmanager
def closures_counted():
    """Record every closure the package runs, on either of its two paths:
    ("packed", seeds) for a packed_closure, ("monomial", ks) for a
    monomial ideal read off MonomialAlgebra.multiples.  A closure served
    from the memo of ideal_from_generators records nothing."""
    calls = []
    close, multiples = ideals.packed_closure, MonomialAlgebra.multiples

    def packed(alg, rows, seeds):
        seeds = list(seeds)
        calls.append(("packed", seeds))
        return close(alg, rows, seeds)

    def monomial(self, ks):
        ks = list(ks)
        calls.append(("monomial", ks))
        return multiples(self, ks)

    with mock.patch.object(ideals, "packed_closure", packed), \
            mock.patch.object(MonomialAlgebra, "multiples", monomial):
        yield calls


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
