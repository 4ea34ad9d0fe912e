"""Witness decompositions of the maximal ideal and the dsc classification.

A local algebra has the "every ideal is a direct sum of cyclic modules"
property (dsc, in the verdicts below) exactly when its maximal ideal
splits as M = Rx + Ry + (sum of simple Rw) with the sum direct; at most
two summands may be non-simple, and then R/Ann(x) and R/Ann(y) are
principal ideal rings.  This module decides that for a monomial algebra
by its presentation (classify_dsc proves it): M has a direct cyclic
cover exactly when every product of two distinct variables vanishes,
and then the variable split is that cover.  So a nonzero mixed product
refutes with M itself, at most two non-simple summands make a witness,
and three refute with J = R(x+y) + R(x+z).  That no is checked on J
alone: refutes tests mu(J^2) > mu(J), mu(I) = dim I - dim MI, which no
direct sum of cyclic modules passes, and classify_dsc proves that J
passes it at every p and size.  Any other Algebra is refused;
the oracle decides it.  This module imports nothing from the oracle.
It also classifies the prime spectrum (at most three primes, Krull
dimension at most one).

A witness is checked by its certificate alone (m_decomposition_problems):
no summand is zero, the closures of its summands are direct onto M
(ideals.direct_onto) and each simple summand has dim 1, which makes it
simple (ideals.is_simple).  The rest follows.  R/Ann(g) is a principal
ideal ring exactly when M*Rg needs at most one generator: a -> ag maps
R/Ann(g) onto Rg as R-modules, its maximal ideal onto M*Rg and that
ideal's square onto M^2*Rg.  In a direct M = Rx + Ry + L, xy lies in
Rx meet Ry = 0 and Lx lies in ML = 0, so M*Rx = (Rx + Ry + L)x = Rx^2,
which is cyclic.  So every cyclic cover of M with at most two
non-simple summands is a witness, and no product xy, annihilator or
quotient algebra is formed to check one.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from . import gf
from .ideals import (Ideal, _packed_times_m, cyclic, direct_onto,
                     ideal_from_generators, is_simple, maximal_ideal,
                     min_generators, zero_ideal)
from .rings import Algebra, Element, MonomialAlgebra, RingPresentation


class InternalContradictionError(RuntimeError):
    """A precondition held but the identity it guarantees failed."""


class WitnessDoesNotLiftError(ValueError):
    """A truncated model's witness says nothing of the untruncated ring:
    spec_classify refuses to read its spectrum."""


class MDecomposition:
    """Witness M = Rx + Ry + L, L the span of the simple Rw, all summands
    independent.  rx and ry (zero for a missing axis) are read from
    cyclic, so each summand is closed from its own generator once per
    algebra, whoever built the witness.  simple_span, the field masks
    of Rx, Ry and L and the powers of each axis are computed when first
    read and kept, so every ideal decomposed on this witness shares
    them.  Immutable, equal and hashed by (algebra, x, y, simples)."""

    def __init__(self, algebra: Algebra, x: Optional[Element], y: Optional[Element],
                 simples: tuple[Element, ...]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "simples", simples)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable MDecomposition")

    def _key(self) -> tuple:
        return self.algebra, self.x, self.y, self.simples

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "MDecomposition(algebra={!r}, x={!r}, y={!r}, simples={!r})".format(*self._key())

    def summands(self) -> list[Element]:
        out = [g for g in (self.x, self.y) if g is not None]
        out.extend(self.simples)
        return out

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """m_decomposition_problems of this witness, computed once."""
        return tuple(m_decomposition_problems(self))

    @cached_property
    def rx(self) -> Ideal:
        return zero_ideal(self.algebra) if self.x is None else cyclic(self.algebra, self.x)

    @cached_property
    def ry(self) -> Ideal:
        return zero_ideal(self.algebra) if self.y is None else cyclic(self.algebra, self.y)

    @cached_property
    def simple_span(self) -> gf.Subspace:
        alg = self.algebra
        return gf.Subspace(alg.p, alg.dim, alg.field.rref(w.vec for w in self.simples))

    @cached_property
    def field_masks(self) -> Optional[tuple[int, int, int]]:
        """The field masks of Rx, Ry and L, each the bits of the fields
        its basis rows occupy, when all three are coordinate subspaces,
        else None.  A subspace is coordinate, spanned by unit rows,
        exactly when its echelon's union is its pivot mask.  On a
        verified coordinate witness the masks partition M's fields, so
        a vector of M is split over the summands by masking; the
        variable split of classify_dsc is such a witness, its summands
        being monomial ideals."""
        one, out = self.algebra.field.one, []
        for space in (self.rx.space, self.ry.space, self.simple_span):
            e = space.echelon
            if e.union != e.mask:
                return None
            out.append(e.mask * one)
        return tuple(out)

    @cached_property
    def x_powers(self) -> tuple[int, ...]:
        """The packed rows of x, x^2, ... up to the first zero (see _powers)."""
        return self._powers(self.x)

    @cached_property
    def y_powers(self) -> tuple[int, ...]:
        """The packed rows of y, y^2, ... up to the first zero (see _powers)."""
        return self._powers(self.y)

    def _powers(self, g: Optional[Element]) -> tuple[int, ...]:
        """g, g^2, ..., g^n as packed rows: n is the first exponent with
        g^n = 0, or dim R when g is not nilpotent; empty for a missing
        axis.  On a verified witness Rg is the chain of the R g^k, R g^k
        its member of dim (dim Rg) - k + 1."""
        if g is None:
            return ()
        alg = self.algebra
        f, cols, gn, out = alg.field, alg.columns(g), alg.unit().vec, []
        while gn and len(out) < alg.dim:
            gn = f.apply(cols, gn)
            out.append(gn)
        return tuple(out)

    def as_dict(self) -> dict:
        return {
            "x": None if self.x is None else str(self.x),
            "y": None if self.y is None else str(self.y),
            "simples": [str(w) for w in self.simples],
            "dims": {
                "x": None if self.x is None else self.rx.dim,
                "y": None if self.y is None else self.ry.dim,
                "simples": [1] * len(self.simples),
                "maximal_ideal": self.algebra.dim - 1,
            },
        }


def m_decomposition_problems(dec: MDecomposition) -> list[str]:
    """Why the witness fails to verify; empty list means it holds.

    Three checks: no summand is zero, the summands are direct onto M
    (ideals.direct_onto), and each simple summand is simple.  They are
    enough, as the module docstring proves: on M = Rx + Ry + L direct,
    xy lies in Rx meet Ry = 0, and M*Rg = (Rx + Ry + L)g = Rg^2 for each
    axis g, since Lg lies in ML = 0, so R/Ann(g) is a principal ideal
    ring.  Neither is checked again.
    """
    alg = dec.algebra
    if any(g.is_zero() for g in dec.summands()):
        return ["zero summand"]
    problems = []
    if not direct_onto(alg, dec.summands(), maximal_ideal(alg)):
        problems.append("summands are not direct onto the maximal ideal")
    for w in dec.simples:
        if not is_simple(alg, cyclic(alg, w)):
            problems.append(f"summand {w} is not simple")
    return problems


def verify_m_decomposition(dec: MDecomposition) -> bool:
    return not dec.problems


def canonical_variable_split(alg: Algebra) -> Optional[list[tuple[Element, Ideal]]]:
    """The variable grouping: M as the direct sum of the Rv over the
    nonzero variable images, with each Rv, or None when that sum is not
    direct.  The images generate M, so the sum of their Rv is M, and it
    is direct exactly when their dimensions add up to dim M; two images
    with one Rv, or any overlap, push the sum past it.
    """
    parts = [(g, cyclic(alg, g)) for g in alg.gens if not g.is_zero()]
    if sum(c.dim for _, c in parts) == alg.dim - 1:
        return parts
    return None


def _normalized_witness(alg: Algebra, nonsimple: Sequence[Element],
                        simples: Sequence[Element]) -> MDecomposition:
    """The verified witness of a cover with at most two non-simple
    summands."""
    x = nonsimple[0] if len(nonsimple) > 0 else None
    y = nonsimple[1] if len(nonsimple) > 1 else None
    dec = MDecomposition(alg, x, y, tuple(simples))
    if dec.problems:
        raise InternalContradictionError("witness failed verification: "
                                         + "; ".join(dec.problems))
    return dec


def _variable_split(alg: Algebra) -> tuple[Optional[tuple[Element, Element]],
                                            Optional[MDecomposition], list[Element]]:
    """The two readings of the presentation that classify_dsc decides
    by, before any verdict is built: the mixed-product test, then the
    variable split.  Returns the first pair of distinct variables, in
    gens order, whose product is nonzero, or None; then the verified
    witness of the split when it has at most two non-simple summands,
    else None; then those non-simple summands.  Refuses, with TypeError,
    an algebra that is not monomial, before any closure.

    Each product is read off the successor table, with no field
    arithmetic: x_b is the standard monomial succ[b][0], and x_a x_b = 0
    exactly when succ[a][succ[b][0]] < 0.  Without a mixed product the
    variables split M (classify_dsc's lemma), so a failed
    canonical_variable_split raises InternalContradictionError.
    """
    if not isinstance(alg, MonomialAlgebra):
        raise TypeError("classify_dsc decides monomial algebras only")
    succ = alg.succ
    for a, g in enumerate(alg.gens):
        for b, h in enumerate(alg.gens[a + 1:], a + 1):
            if succ[a][succ[b][0]] >= 0:
                return (g, h), None, []
    split = canonical_variable_split(alg)
    if split is None:
        raise InternalContradictionError("no mixed product, yet the variables do not split M")
    nonsimple, simples = [], []
    for g, c in split:
        (simples if is_simple(alg, c) else nonsimple).append(g)
    witness = _normalized_witness(alg, nonsimple, simples) if len(nonsimple) <= 2 else None
    return None, witness, nonsimple


def find_m_decomposition(alg: Algebra, max_pair_dim: int = 12) -> Optional[MDecomposition]:
    """The witness decomposition of the maximal ideal that classify_dsc
    finds, or None when M has none: a nonzero mixed product, or three
    non-simple summands.  It reads the same split as classify_dsc
    (_variable_split), so a refusal builds no counterexample and closes
    no J.  Like classify_dsc it refuses, with TypeError, an algebra that
    is not monomial.  max_pair_dim does nothing; bench/workloads.py
    passes it until ROADMAP item 1 drops it.
    """
    return _variable_split(alg)[1]


def refutes(alg: Algebra, j: Ideal) -> bool:
    """True when mu(J^2) > mu(J), mu(I) = dim I - dim MI: then J is no
    direct sum of cyclic modules.  A direct J = Ra_1 + ... + Ra_m has
    m = mu(J) (Nakayama) and a_i a_k in Ra_i meet Ra_k = 0 for i != k,
    so J^2 = Ra_1^2 + ... + Ra_m^2 and mu(J^2) <= m.  A sufficient test,
    not a decider; it reads J alone.  J's basis rows whose pivots MJ
    lacks lift a basis of J/MJ (rows are monic at their pivots, so at
    every p the lowest set bit marks the pivot), and their pairwise
    products generate J^2.  MJ is eliminated for its pivots alone, so no
    ideal is made of it."""
    mask = 0
    for r in _packed_times_m(alg, j.space.basis):
        mask |= r & -r
    lifts = [Element.packed(alg, r) for r in j.space.basis if not r & -r & mask]
    j2 = ideal_from_generators(alg, [a * b for k, a in enumerate(lifts) for b in lifts[k:]])
    return min_generators(alg, j2) > len(lifts)


# ---------------------------------------------------------------------------
# verdicts


class DscVerdict(NamedTuple):
    """Outcome of the direct-sum-of-cyclics decision for one ring."""

    answer: str  # "yes" | "no"
    witness: Optional[MDecomposition] = None
    counterexample: Optional[Ideal] = None
    counterexample_note: Optional[str] = None
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = self.counterexample.as_dict()
            ce["proof"] = self.counterexample_note
        return {
            "dsc": self.answer,
            "witness": None if self.witness is None else self.witness.as_dict(),
            "counterexample": ce,
            "notes": list(self.notes),
        }


def classify_dsc(alg: Algebra, max_pair_dim: int = 12, max_oracle_dim: int = 8) -> DscVerdict:
    """Decide whether every ideal of the monomial algebra alg splits into
    cyclic summands.

    The presentation decides (_variable_split reads it): if x_a x_b != 0
    for some distinct variables, the answer is no with M itself as the
    counterexample, its proof naming the first such pair in gens order.
    Otherwise the variables split M: each Rx_a is the span of the powers
    of x_a, and these are disjoint sets of monomials that together span
    M.  canonical_variable_split finds that split; were it to fail, the
    lemma below would be contradicted, and InternalContradictionError is
    raised.

    Lemma: let R = k[x_1, ..., x_n]/I with I monomial (a truncation
    included) and no degree-1 relation.  Then M is a direct sum of cyclic
    modules only if x_a x_b = 0 for all a != b.
      1. A direct cover M = Rg_1 + ... + Rg_m puts g_j g_k in
         Rg_j meet Rg_k = 0 for j != k, so Mg_k = Rg_k^2 and
         Rg_k = span(g_k, g_k^2, ...); with m = mu(M) = n, R is
         isomorphic to S_e = k[t_1, ..., t_n]/(t_i t_j for i != j, t_i^(e_i)).
      2. Pass to the algebraic closure K of k: a direct sum stays direct
         after extending scalars.
      3. R and S_e are graded, and each equals its associated graded
         ring, so a local isomorphism gives a graded one: a basis
         l_1, ..., l_n of the linear forms R_1 with l_i l_j = 0 for
         i != j.
      4. Let B: R_1 x R_1 -> R_2 be the product and
         Rad = {l in R_1 : l R_1 = 0}.  The maps T of R_1/Rad with
         B(Ta, b) = B(a, Tb) form exactly the diagonal algebra in the
         l basis (the nonzero l_i^2 are independent), so the lines of the
         l_i with l_i^2 != 0 are unique modulo Rad.
      5. The torus (K*)^n scales the variables and acts on R by graded
         automorphisms that keep B.  It permutes those finitely many
         lines and, being connected, fixes each one.  A torus-stable
         line of R_1/Rad is spanned by the image of one variable, since
         the variables have distinct characters.  So each variable lies
         in Rad or is c l_i + r with c != 0 and r in Rad, distinct
         variables taking distinct l_i.  Rad kills R_1, so for a != b,
         x_a x_b is 0 or c c' l_i l_j with i != j, which is 0.

    At most two non-simple summands of the split: yes, with the split as
    a verified witness.  Three or more: no, with J = Ru + Rv, u = x + y
    and v = x + z, on three of them, at every p and size, since refutes
    holds on J.  In a direct M = Rx + Ry + Rz + rest the products of
    distinct summands vanish and x, y, z are independent modulo M^2, so
    mu(J) = 2.  J^2 is generated by u^2 = x^2 + y^2, uv = x^2 and
    v^2 = x^2 + z^2, independent modulo M^3, which contains MJ^2, so
    mu(J^2) = 3.

    Any other Algebra raises TypeError before any closure; the oracle
    decides it.  max_pair_dim and max_oracle_dim do nothing;
    bench/workloads.py passes them positionally until ROADMAP item 1
    drops both.
    """
    mixed, witness, nonsimple = _variable_split(alg)
    if mixed is not None:
        return DscVerdict("no", None, maximal_ideal(alg), (
            f"{mixed[0]}*{mixed[1]} != 0: M of a monomial ring is a direct sum of cyclic "
            "modules only if every product of two distinct variables vanishes"))
    if witness is not None:
        return DscVerdict("yes", witness)
    x, y, z = nonsimple[:3]
    j = ideal_from_generators(alg, [x + y, x + z])
    if not refutes(alg, j):
        raise InternalContradictionError("u^2, uv, v^2 are dependent modulo M*J^2")
    u, v = f"({x} + {y})", f"({x} + {z})"
    return DscVerdict("no", None, j, "sum of three independent non-simple cyclic summands: "
                      f"R{u} + R{v} admits no direct-sum cover",
                      (f"{u}^2, {u}*{v}, {v}^2 have rank 3 modulo M*J^2",))


def classify_product(verdicts: Sequence[DscVerdict]) -> DscVerdict:
    """Combine per-factor verdicts for a finite product of rings.

    The product has the property iff every factor does.  The empty
    product is the zero ring, which holds vacuously.
    """
    verdicts = tuple(verdicts)
    if not verdicts:
        return DscVerdict("yes", None, None, None,
                          ("empty product: zero ring, vacuously yes",))
    for k, v in enumerate(verdicts):
        if v.answer == "no":
            return DscVerdict("no", None, v.counterexample, v.counterexample_note,
                              (f"factor {k + 1} fails",) + v.notes)
    return DscVerdict("yes", None, None, None, ("all factors hold",))


# ---------------------------------------------------------------------------
# prime spectrum


class SpecReport(NamedTuple):
    """Symbolic prime spectrum read off a verified witness decomposition."""

    case: str  # "a" .. "e"
    primes: tuple[str, ...]
    krull_dim: int
    truncated_model: bool

    def as_dict(self) -> dict:
        return {"case": self.case, "primes": list(self.primes),
                "krull_dim": self.krull_dim, "truncated_model": self.truncated_model}


def _symbolic_nilpotent(pres: RingPresentation, alg: MonomialAlgebra, z: Element) -> bool:
    # read from the untruncated presentation: a combination is nilpotent
    # iff every variable it involves is
    return not any(pres.nonnilpotent[v] for _, e in alg.terms(z.vec)
                   for v, k in enumerate(e) if k)


def _render_prime(gens: Sequence[Element]) -> str:
    if not gens:
        return "(0)"
    parts = []
    for g in gens:
        s = str(g)
        if all(ch.isalnum() or ch in "_^" for ch in s):
            parts.append(f"R{s}")
        else:
            parts.append(f"R({s})")
    return " ⊕ ".join(parts)


def spec_classify(pres: RingPresentation, dec: MDecomposition) -> SpecReport:
    """Classify Spec(R) from a verified decomposition of the maximal ideal.

    The spectrum has at most three members: M itself, plus one prime per
    non-nilpotent cyclic summand (drop that summand, keep the rest).  On
    truncated models the report is a symbolic claim about the
    untruncated ring; nilpotency is read from the presentation.  The
    claim holds when the untruncated ring passes the monomial test of
    classify_dsc's lemma (RingPresentation.splits_untruncated) and at
    most two summands are non-nilpotent: then its variables split M as
    the model's do.  Otherwise the truncation, not the relations, made
    the witness, and WitnessDoesNotLiftError is raised.  A truncation at
    degree 3 or more keeps every quadratic monomial, so every yes witness
    of classify_dsc passes there; its witnesses fail only under a
    truncation at degree 2 with two or more variables.
    """
    alg = dec.algebra
    if not isinstance(alg, MonomialAlgebra) or alg.presentation != pres:
        raise ValueError("presentation does not match the decomposition")
    if not verify_m_decomposition(dec):
        raise ValueError("decomposition not verified")

    summands = dec.summands()
    non_nil, nil_part = [], []
    for g in summands:
        (nil_part if _symbolic_nilpotent(pres, alg, g) else non_nil).append(g)
    truncated = pres.truncate is not None

    if len(non_nil) > 2 or not pres.splits_untruncated():
        raise WitnessDoesNotLiftError(
            "the witness does not lift to the untruncated ring, where a mixed product "
            "or a third square is nonzero, or three summands are non-nilpotent")
    if not non_nil:
        report = SpecReport("a", ("M",), 0, truncated)
    elif len(summands) == 1:
        report = SpecReport("b", ("(0)", "M"), 1, truncated)
    elif len(non_nil) == 1:
        label = "d" if dec.y is not None and non_nil[0] == dec.y else "c"
        report = SpecReport(label, ("M", _render_prime(nil_part)), 1, truncated)
    else:
        p1 = _render_prime([non_nil[0]] + nil_part)
        p2 = _render_prime([non_nil[1]] + nil_part)
        report = SpecReport("e", ("M", p1, p2), 1, truncated)
    assert len(report.primes) <= 3 and report.krull_dim <= 1
    return report
