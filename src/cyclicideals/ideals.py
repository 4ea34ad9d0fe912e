"""Ideals of a finite-dimensional local algebra as action-closed subspaces.

An ideal is a subspace of the algebra (in basis coordinates) closed
under multiplication by every generator of the maximal ideal.  Each one
is held in canonical RREF form, so ideals compare and hash structurally.
Closure is re-checked on construction: any operation that produced a
non-ideal is a bug we want to hear about immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from . import gf
from .rings import Algebra, Element, _mult_matrix


class InfeasibleSizeError(RuntimeError):
    """The algebra is too large (or the field too big) for brute force."""


# largest dim M whose packed cyclic table (2^dim M closures) is built
CYCLIC_TABLE_MAX_DIM = 20


class Ideal:
    __slots__ = ("algebra", "space")

    def __init__(self, algebra: Algebra, space: gf.Subspace, _trusted: bool = False):
        if space.p != algebra.p or space.ambient != algebra.dim:
            raise ValueError("ambient mismatch")
        self.algebra = algebra
        self.space = space
        if not _trusted:
            self._check_closed()

    def _check_closed(self) -> None:
        alg, space = self.algebra, self.space
        if space.dim < alg.dim and 0 in space.pivots:
            raise ValueError("proper ideal with a unit coordinate")
        if alg.p == 2:
            images = (gf.gf2_apply(masks, r) for masks in alg.gf2_action_masks()
                      for r in space.basis)
            closed = not any(gf.gf2_reduce(v, space.basis) for v in images)
        else:
            closed = all(space.contains(alg._mul_coeffs(g.coeffs, row))
                         for g in alg.gens for row in space.rows)
        if not closed:
            raise ValueError("subspace is not closed under the algebra action")

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def rows(self) -> tuple[gf.Vec, ...]:
        return self.space.rows

    def basis_elements(self) -> list[Element]:
        return [self.algebra.element(r) for r in self.rows]

    def as_dict(self) -> dict:
        return {"basis": [self.algebra.el_str(r) for r in self.rows],
                "dim": self.dim}

    def contains(self, z: Element) -> bool:
        return self.space.contains(z.coeffs)

    def contains_ideal(self, other: "Ideal") -> bool:
        self._require_same(other)
        return self.space.contains_subspace(other.space)

    def is_zero(self) -> bool:
        return self.dim == 0

    def _require_same(self, other: "Ideal") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("algebra mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ideal) and self.algebra is other.algebra
                and self.space == other.space)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.space))

    def __add__(self, other: "Ideal") -> "Ideal":
        return ideal_sum(self, other)

    def __mul__(self, other: "Ideal") -> "Ideal":
        return ideal_product(self, other)

    def __and__(self, other: "Ideal") -> "Ideal":
        return ideal_intersect(self, other)

    def __le__(self, other: "Ideal") -> bool:
        return other.contains_ideal(self)

    def __repr__(self) -> str:
        gens = ", ".join(self.algebra.el_str(r) for r in self.rows)
        return f"Ideal<span {{{gens}}}>"


def ideal_from_generators(alg: Algebra, gens: Iterable[Element]) -> Ideal:
    """Smallest ideal containing the generators: span closure under the action.

    Each new vector goes straight into the growing echelon basis.  The
    action maps into M, so a unit can only come in as a generator.
    """
    queue = [g.coeffs for g in gens]
    if any(v[0] for v in queue):
        return unit_ideal(alg)  # a unit generates everything
    p = alg.p
    if p == 2:
        basis = packed_closure(alg, (), map(gf.pack_vec, queue))
    else:
        basis = []
        actions = [g.coeffs for g in alg.gens]
        while queue:
            v = queue.pop()
            if gf._insert_generic(basis, v, p):
                queue.extend(alg._mul_coeffs(g, v) for g in actions)
    return Ideal(alg, gf.Subspace(p, alg.dim, basis))


def packed_closure(alg: Algebra, rows: Sequence[int], seeds: Iterable[int]) -> list[int]:
    """Packed RREF of the smallest ideal containing span(rows) and the
    seed vectors; rows must already be in packed reduced echelon form."""
    actions = alg.gf2_action_masks()
    basis = list(rows)
    queue = list(seeds)
    while queue:
        v = queue.pop()
        if gf.gf2_insert(basis, v):
            queue.extend(gf.gf2_apply(masks, v) for masks in actions)
    return basis


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    a._require_same(b)
    return Ideal(a.algebra, gf.subspace_sum(a.space, b.space))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    a._require_same(b)
    alg = a.algebra
    prods = [alg._mul_coeffs(u, v) for u in a.rows for v in b.rows]
    return Ideal(alg, gf.Subspace.span(alg.p, alg.dim, prods))


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    a._require_same(b)
    return Ideal(a.algebra, gf.subspace_intersect(a.space, b.space))


def zero_ideal(alg: Algebra) -> Ideal:
    return Ideal(alg, gf.Subspace.zero(alg.p, alg.dim))


def unit_ideal(alg: Algebra) -> Ideal:
    rows = [alg.basis_element(k).coeffs for k in range(alg.dim)]
    return Ideal(alg, gf.Subspace.span(alg.p, alg.dim, rows))


def maximal_ideal(alg: Algebra) -> Ideal:
    """The unique maximal ideal: everything with zero unit coordinate."""
    rows = [alg.basis_element(k).coeffs for k in range(1, alg.dim)]
    return Ideal(alg, gf.Subspace.span(alg.p, alg.dim, rows))


def cyclic(alg: Algebra, z: Element) -> Ideal:
    """The cyclic module Rz (an ideal, since R is commutative)."""
    return ideal_from_generators(alg, [z])


def annihilator(alg: Algebra, target: Union[Element, Ideal]) -> Ideal:
    """Ann(z) = {a : a*z = 0}; for an ideal, intersect over its basis."""
    if isinstance(target, Ideal):
        out = unit_ideal(alg)
        for row in target.rows:
            out = ideal_intersect(out, annihilator(alg, alg.element(row)))
        return out
    space = gf.left_kernel(_mult_matrix(alg, target))
    return Ideal(alg, space)


def is_simple(alg: Algebra, i: Ideal) -> bool:
    """One-dimensional and killed by the maximal ideal."""
    if i.dim != 1:
        return False
    row = i.rows[0]
    return all(not any(alg._mul_coeffs(g.coeffs, row)) for g in alg.gens)


def module_times_ideal(alg: Algebra, i: Ideal) -> Ideal:
    """M * i, computed from generator action on a basis of i."""
    prods = [alg._mul_coeffs(g.coeffs, row) for g in alg.gens for row in i.rows]
    return Ideal(alg, gf.Subspace.span(alg.p, alg.dim, prods))


def min_generators(alg: Algebra, i: Ideal) -> int:
    """Minimal number of module generators, dim i - dim M*i (Nakayama)."""
    return i.dim - module_times_ideal(alg, i).dim


# ---------------------------------------------------------------------------
# quotient algebras R / I


class QuotientAlgebra(Algebra):
    """R/I modeled on the non-pivot coordinates of I's RREF basis.

    Multiplication lifts through the canonical section, multiplies in the
    source, and projects back, so associativity and commutativity are
    inherited rather than re-proved.
    """

    def __init__(self, source: Algebra, ideal: Ideal):
        self.source = source
        self.ideal = ideal
        self.p = source.p
        pivots = set(ideal.space.pivots)
        self.nonpivot = tuple(j for j in range(source.dim) if j not in pivots)
        self.dim = len(self.nonpivot)
        gens = []
        seen = set()
        for g in source.gens:
            img = self.project_coeffs(g.coeffs)
            if any(img) and img not in seen:
                seen.add(img)
                gens.append(Element(self, img))
        self.gens = tuple(gens)

    def project_coeffs(self, coeffs: Sequence[int]) -> gf.Vec:
        red = self.ideal.space.reduce(coeffs)
        return tuple(red[j] for j in self.nonpivot)

    def lift_coeffs(self, coeffs: Sequence[int]) -> gf.Vec:
        out = [0] * self.source.dim
        for c, j in zip(coeffs, self.nonpivot):
            out[j] = c % self.p
        return tuple(out)

    def _mul_coeffs(self, a: gf.Vec, b: gf.Vec) -> gf.Vec:
        prod = self.source._mul_coeffs(self.lift_coeffs(a), self.lift_coeffs(b))
        return self.project_coeffs(prod)

    def el_str(self, coeffs: Sequence[int]) -> str:
        return self.source.el_str(self.lift_coeffs(coeffs))

    def __repr__(self) -> str:
        killed = ", ".join(self.source.el_str(r) for r in self.ideal.rows)
        return f"QuotientAlgebra<mod span {{{killed}}}, dim {self.dim}>"


@dataclass(frozen=True)
class QuotientMap:
    """R -> R/I with its canonical right inverse."""

    source: Algebra
    target: QuotientAlgebra

    def project(self, z: Element) -> Element:
        if z.algebra is not self.source:
            raise ValueError("algebra mismatch")
        return Element(self.target, self.target.project_coeffs(z.coeffs))

    def lift(self, z: Element) -> Element:
        if z.algebra is not self.target:
            raise ValueError("algebra mismatch")
        return Element(self.source, self.target.lift_coeffs(z.coeffs))


def quotient_algebra(alg: Algebra, i: Ideal) -> QuotientMap:
    if i.algebra is not alg:
        raise ValueError("algebra mismatch")
    if i.dim == alg.dim:
        raise ValueError("not proper")
    return QuotientMap(alg, QuotientAlgebra(alg, i))


# ---------------------------------------------------------------------------
# packed GF(2) caches used by the searches


def packed_cyclic_table(alg: Algebra) -> dict[int, tuple[int, ...]]:
    """Map every vector of the maximal-ideal span to cyclic(v)'s RREF rows.

    GF(2) only.  The table is cached on the algebra; searches and the
    brute-force oracle lean on it heavily.
    """
    assert alg.p == 2
    cached = getattr(alg, "_cyclic_table", None)
    if cached is not None:
        return cached
    mdim = alg.dim - 1
    if mdim > CYCLIC_TABLE_MAX_DIM:
        raise InfeasibleSizeError(f"cyclic table infeasible at dim M = {mdim} "
                                  f"(limit {CYCLIC_TABLE_MAX_DIM})")
    table: dict[int, tuple[int, ...]] = {0: ()}
    for m in range(1, 1 << mdim):
        vec = m << 1  # maximal-ideal span sits above the unit coordinate
        table[vec] = tuple(packed_closure(alg, (), [vec]))
    alg._cyclic_table = table
    return table
