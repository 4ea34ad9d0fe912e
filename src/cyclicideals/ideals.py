"""Ideals of a finite-dimensional local algebra as action-closed subspaces.

An ideal is a subspace of the algebra (in basis coordinates) closed
under multiplication by every generator of the maximal ideal.  Each one
is held in canonical RREF form, so ideals compare and hash structurally.
Closure is re-checked on construction, unless the basis is closed by
construction: the output of a closure loop, M itself, or M times an
ideal.  Any other operation that produced a non-ideal is a bug we want
to hear about immediately.

Each cyclic module Rz is closed once per algebra (cyclic), and every
cover the oracle certifies reads its summands from there.  No cover is
searched here: the oracle decides every ideal on its lattice.  The
lazy packed cyclic table is kept only because the benchmark's traced
pass still names it.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from . import gf
from .rings import Algebra, Element


class InfeasibleSizeError(RuntimeError):
    """The algebra is too large (or the field too big) for brute force."""


# largest dim M whose packed cyclic table is offered: it closes a vector
# when first read, but a search may read up to 2^dim M of them
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
        f, e = space.field, space.echelon
        images = (f.apply(masks, r) for masks in alg.action_masks()
                  for r in space.basis)
        if any(f.reduce(v, e) for v in images):
            raise ValueError("subspace is not closed under the algebra action")

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def rows(self) -> tuple[gf.Vec, ...]:
        return self.space.rows

    def basis_elements(self) -> list[Element]:
        return [Element.packed(self.algebra, r) for r in self.space.basis]

    def as_dict(self) -> dict:
        return {"basis": [self.algebra.el_str(r) for r in self.space.basis],
                "dim": self.dim}

    def contains(self, z: Element) -> bool:
        self._require_same(z)
        return not self.space.field.reduce(z.vec, self.space.echelon)

    def is_zero(self) -> bool:
        return self.dim == 0

    def _require_same(self, other: Union["Ideal", Element]) -> None:
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
        self._require_same(other)
        return other.space.contains_subspace(self.space)

    def __repr__(self) -> str:
        gens = ", ".join(self.algebra.el_str(r) for r in self.space.basis)
        return f"Ideal<span {{{gens}}}>"


def ideal_from_generators(alg: Algebra, gens: Iterable[Element]) -> Ideal:
    """Smallest ideal containing the generators: span closure under the action.

    Each new vector goes straight into the growing echelon basis and
    queues its images, so the basis comes out closed, unchecked.  The
    action maps into M, so a unit can only come in as a generator.
    """
    gens = list(gens)
    if any(g.algebra is not alg for g in gens):
        raise ValueError("algebra mismatch")
    queue = [g.vec for g in gens]
    if any(v & alg.field.one for v in queue):
        return unit_ideal(alg)  # a unit generates everything
    basis = packed_closure(alg, (), queue)
    return Ideal(alg, gf.Subspace(alg.p, alg.dim, basis), _trusted=True)


def packed_closure(alg: Algebra, rows: Sequence[int], seeds: Iterable[int]) -> list[int]:
    """Packed RREF of the smallest ideal containing span(rows) and the
    seed vectors; rows must already be in packed reduced echelon form."""
    f, actions = gf.packed_field(alg.p), alg.action_masks()
    basis = gf.Echelon(rows)
    queue = list(seeds)
    while queue:
        v = queue.pop()
        if f.insert(basis, v):
            queue.extend(f.apply(masks, v) for masks in actions)
    return basis.rows


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    a._require_same(b)
    return Ideal(a.algebra, gf.subspace_sum(a.space, b.space))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    a._require_same(b)
    alg = a.algebra
    f = alg.field
    maps = [alg.columns(Element.packed(alg, v)) for v in b.space.basis]
    prods = [f.apply(cols, u) for cols in maps for u in a.space.basis]
    return Ideal(alg, gf.Subspace(alg.p, alg.dim, f.rref(prods)))


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    a._require_same(b)
    return Ideal(a.algebra, gf.subspace_intersect(a.space, b.space))


def zero_ideal(alg: Algebra) -> Ideal:
    return Ideal(alg, gf.Subspace.zero(alg.p, alg.dim))


def unit_ideal(alg: Algebra) -> Ideal:
    rows = [alg.basis_element(k).vec for k in range(alg.dim)]
    return Ideal(alg, gf.Subspace(alg.p, alg.dim, rows))


def maximal_ideal(alg: Algebra) -> Ideal:
    """The unique maximal ideal: everything with zero unit coordinate."""
    rows = [alg.basis_element(k).vec for k in range(1, alg.dim)]
    # closed by construction: the action maps into M
    return Ideal(alg, gf.Subspace(alg.p, alg.dim, rows), _trusted=True)


def cyclic(alg: Algebra, z: Element) -> Ideal:
    """The cyclic module Rz (an ideal, since R is commutative), closed on
    the first request and kept in a per-algebra memo keyed by z's packed
    row, so every caller shares the one Rz."""
    if z.algebra is not alg:
        raise ValueError("algebra mismatch")
    memo = vars(alg).setdefault("_cyclic", {})
    if z.vec not in memo:
        memo[z.vec] = ideal_from_generators(alg, [z])
    return memo[z.vec]


def annihilator(alg: Algebra, target: Union[Element, Ideal]) -> Ideal:
    """Ann(z) = {a : a*z = 0}; for an ideal, intersect over its basis."""
    if isinstance(target, Ideal):
        out = unit_ideal(alg)
        for row in target.space.basis:
            out = ideal_intersect(out, annihilator(alg, Element.packed(alg, row)))
        return out
    return Ideal(alg, gf.left_kernel(alg.p, alg.dim, alg.mult_map(target)))


def is_simple(alg: Algebra, i: Ideal) -> bool:
    """One-dimensional and killed by the maximal ideal."""
    if i.dim != 1:
        return False
    f, (row,) = i.space.field, i.space.basis
    return not any(f.apply(masks, row) for masks in alg.action_masks())


def _packed_times_m(alg: Algebra, rows: Sequence[int]) -> list[int]:
    """Packed RREF of M * span(rows), for an ideal span(rows)."""
    f = gf.packed_field(alg.p)
    return f.rref(f.apply(masks, r) for masks in alg.action_masks()
                  for r in rows)


def module_times_ideal(alg: Algebra, i: Ideal) -> Ideal:
    """M * i, from the generators' action on the packed basis of i."""
    # closed by construction: x_w (x_v a) = x_v (x_w a) with x_w a in i
    return Ideal(alg, gf.Subspace(alg.p, alg.dim, _packed_times_m(alg, i.space.basis)),
                 _trusted=True)


def min_generators(alg: Algebra, i: Ideal) -> int:
    """Minimal number of module generators, dim i - dim M*i (Nakayama)."""
    return i.dim - module_times_ideal(alg, i).dim


# ---------------------------------------------------------------------------
# the packed GF(2) cyclic table: nothing in the package reads it, and it
# moves to tests/reference_kernels.py, beside the Gray-code cover walk
# that reads it, once bench/tracing.py no longer spans it


class _CyclicTable(dict):
    """Vector of the maximal-ideal span -> RREF rows of its cyclic module,
    closed with packed_closure the first time the vector is read.  One
    closure fills the whole coset v + Mv: each m in Mv is av with a in M,
    and v + m = (1 + a)v with 1 + a a unit, so R(v + m) = Rv.  For v in I
    outside MI the coset lies in I outside MI too, so a cover search of I
    would read every vector of it anyway."""

    def __init__(self, alg: Algebra):
        super().__init__({0: ()})
        self.alg = alg

    def __missing__(self, vec: int) -> tuple[int, ...]:
        if vec & 1 or vec >> self.alg.dim:
            raise KeyError(vec)  # outside the maximal-ideal span
        rows = self[vec] = tuple(packed_closure(self.alg, (), [vec]))
        mv = _packed_times_m(self.alg, rows)  # M * Rv = Mv
        for s in range(1, 1 << len(mv)):  # Gray-code walk of v + Mv
            vec ^= mv[(s & -s).bit_length() - 1]
            self[vec] = rows
        return rows


def packed_cyclic_table(alg: Algebra) -> dict[int, tuple[int, ...]]:
    """Map each vector of the maximal-ideal span to cyclic(v)'s RREF rows.

    The table is cached on the algebra and lazy: a vector is closed the
    first time it is read, so a search pays only for the generators it
    looks at.  It refuses, before any work, an odd p and a dim M past
    CYCLIC_TABLE_MAX_DIM.
    """
    if alg.p != 2:
        raise InfeasibleSizeError(f"cyclic table handles GF(2) only, not GF({alg.p})")
    cached = getattr(alg, "_cyclic_table", None)
    if cached is not None:
        return cached
    mdim = alg.dim - 1
    if mdim > CYCLIC_TABLE_MAX_DIM:
        raise InfeasibleSizeError(f"cyclic table infeasible: dim M = {mdim} exceeds "
                                  f"the table limit {CYCLIC_TABLE_MAX_DIM}")
    table = alg._cyclic_table = _CyclicTable(alg)
    return table
