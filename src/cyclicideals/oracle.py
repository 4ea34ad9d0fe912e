"""Exhaustive GF(2) certificates: enumerate every ideal, decide each one.

The census lists all ideals one dimension at a time (cross-checkable
against a subset-closure sweep at tiny sizes) and decides each one on
the lattice it walked, from the cyclic ideals the ideal contains; no
vector of an ideal is enumerated.  brute_decompose decides one ideal on
its own, by ideals.packed_first_cover, which reads every vector of it,
on any GF(2) algebra, monomial or not.  structure.classify_dsc decides
monomial algebras only, by their presentation; it never runs the census
or the walk, and imports nothing from here.
Results are exact within the feasibility bounds and are the ground
truth the constructive machinery is tested against.

The census steps up by socle lines.  A nonzero ideal J has MJ strictly
inside it (Nakayama), so any hyperplane H of J containing MJ is an
ideal with dim H = dim J - 1, and J = H + span(v) for the v reduced
modulo H; that v lies in the socle of R/H, since Mv lies in MJ, inside
H.  So the ideals one dimension above I are exactly the I + span(v) for
the nonzero v of the socle of R/I, each closed as it stands, and over
GF(2) distinct v give distinct ideals.  Call those hyperplanes H the
parents of J.

Nakayama proves length invariance: if I = Rg_1 + ... + Rg_n is direct
with every g_k nonzero, I/MI is the direct sum of the lines Rg_k/Mg_k,
so the g_k are independent modulo MI (none lies in MI) and
n = mu(I) = dim I - dim MI for every decomposition of I.

Each ideal is decided on the lattice.  Let J = I + span(v) with I a
parent of J; every parent contains MJ.  Then

  * MJ = MI + span(g v) over the generators g, since g v lies in I, so
    any product of two or more generators takes v into MI;
  * mu(J) = dim J - dim MJ;
  * the cyclic ideals inside J are those inside its parents, plus J
    itself when mu(J) = 1, and then v generates J.  A cyclic C inside J
    with C != J has C + MJ != J (Nakayama), so C lies in a hyperplane of
    J over MJ, a parent.  If mu(J) = 1, MJ is the only parent and
    v, outside it, generates J; if mu(J) >= 2, J is not cyclic.

So the enumeration records each ideal's first parent and v, and ORs in
the set of ideals below each parent; the graded work (each MJ and
mu(J)) is done once, when a decision is first read, so a caller that
only counts the census pays nothing for it.

Rg = R/Ann(g) is indecomposable over a local ring, so by Krull-Schmidt
every direct cover of J has the same summands up to isomorphism, and
any one cover decides.  Lifts g_1, ..., g_n of a basis of J/MJ generate
J (Nakayama), so sum dim Rg_k >= dim J, with equality exactly when the
sum is direct, and every direct cover has that form.  So J decomposes
exactly when a basis of J/MJ of least weight sum has weight dim J,
where a class c weighs min dim Rg over g in c.  Every class c is the
class of the generators of a cyclic C inside J (C = Rg for g in c, and
every generator of C is a unit multiple of g, so lies in c + MJ), so
the cyclic ideals inside J, taken by (dim, discovery), list every
class at its least weight first.  The bases of a vector space are
those of a matroid, so picking greedily each C whose generator is
independent of MJ and of the picks so far, until mu(J) are picked,
gives a basis of least weight.  J decomposes exactly when the picked
dims sum to dim J.

One cache per algebra maps an ideal's packed key to the generators of
its cover, or None; R is an entry with the single generator 1.  A cover
enters the cache only after its generators, each closed once per
algebra by packed_closure, give rows that number dim J and row-reduce
to J's key: the direct-sum certificate build_decomposition checks, read
off the generators alone, not off the lattice.  complete_census,
oracle_dsc and decomposition_lengths read nothing else; brute_decompose
keeps its own cache of the walk's covers, so its generators never
depend on whether a census ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import gf
from .decompose import CyclicDecomposition, build_decomposition
from .ideals import (Ideal, InfeasibleSizeError, packed_closure,
                     packed_cyclic_table, packed_first_cover, packed_socle)
from .rings import Algebra, Element
from .structure import DscVerdict, InternalContradictionError


def _require_feasible(alg: Algebra, max_dim: int) -> None:
    if alg.dim - 1 > max_dim:
        raise InfeasibleSizeError(
            f"dim M = {alg.dim - 1} exceeds the oracle bound {max_dim}")


@dataclass
class CensusEntry:
    ideal: Ideal
    key: tuple[int, ...]
    decomposable: Optional[bool] = None
    lengths: Optional[tuple[int, ...]] = None


class Lattice:
    """The ideals inside M in discovery order, (dim, first reached): the
    ideal keys[k] was first reached as keys[parent[k]] + span(line[k]),
    bit h of below[k] is set for every ideal keys[h] strictly inside it,
    and index maps a key back to k.  graded() reads off each MJ and the
    cyclic ideals on its first call."""

    def __init__(self, alg: Algebra, keys, index, parent, line, below):
        self.alg = alg
        self.keys, self.index = keys, index
        self.parent, self.line, self.below = parent, line, below
        self._graded: Optional[tuple[list[gf.Echelon], int]] = None

    def graded(self) -> tuple[list[gf.Echelon], int]:
        """(echelon bases of MJ by index, mask of the cyclic ideals):
        MJ = MI + span(g v) for J = I + span(v), I its first parent."""
        if self._graded is None:
            actions = self.alg.action_masks()
            mj = [gf.Echelon()]
            cyclic = 0
            for k in range(1, len(self.keys)):
                e = mj[self.parent[k]].copy()
                v = self.line[k]
                for masks in actions:
                    gf.gf2_insert(e, gf.gf2_apply(masks, v))
                mj.append(e)
                if len(self.keys[k]) - len(e.rows) == 1:
                    cyclic |= 1 << k
            self._graded = mj, cyclic
        return self._graded


@dataclass
class IdealCensus:
    algebra: Algebra
    entries: tuple[CensusEntry, ...]
    lattice: Optional[Lattice] = field(default=None, repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.entries)


def _canonical_keys(alg: Algebra, keys) -> list[tuple[int, ...]]:
    """The proper ideals' keys in (dim, basis) order, then R's.  A row's
    bits read from coordinate 0 sort as its 0/1 tuple does."""
    width = f"0{alg.dim}b"
    ordered = sorted(keys, key=lambda k: (len(k), tuple(format(r, width)[::-1] for r in k)))
    return ordered + [tuple(1 << k for k in range(alg.dim))]


def enumerate_ideals(alg: Algebra, max_dim: int = 8) -> IdealCensus:
    """Every ideal of alg, zero through R, in canonical (dim, basis) order.

    Breadth-first, one dimension per step: the children of I are the
    I + span(v) for the nonzero v of the socle of R/I (see the module
    docstring), each I's echelon basis with v placed: v is zero at every
    pivot of I, so there is nothing to reduce.  An ideal J is reached
    once per hyperplane of J over MJ, so children are deduplicated; the
    census's Lattice keeps J's first parent and v, and the ideals below
    every parent.  Cached per algebra.
    """
    # the cyclic table's refusals of odd p and of dim M past its limit
    # are the census's too, made here before a census that would run
    # for minutes
    packed_cyclic_table(alg)
    _require_feasible(alg, max_dim)
    cached = getattr(alg, "_census", None)
    if cached is not None:
        return cached
    keys: list[tuple[int, ...]] = [()]
    index = {(): 0}
    parent, line, below = [0], [0], [0]
    start = 0
    while start < len(keys):
        end = len(keys)
        for k in range(start, end):
            rows = keys[k]
            lines = [0]
            for s in packed_socle(alg, rows):
                lines += [v ^ s for v in lines]
            base = gf.Echelon(rows)
            inherited = below[k] | 1 << k
            for v in lines[1:]:
                grown = base.copy()
                gf.gf2_place(grown, v)
                grown = tuple(grown.rows)
                j = index.get(grown)
                if j is None:
                    index[grown] = len(keys)
                    keys.append(grown)
                    parent.append(k)
                    line.append(v)
                    below.append(inherited)
                else:
                    below[j] |= inherited
        start = end
    # every key, R's included, is already a closed packed reduced echelon
    # basis: each child adds one socle vector v of R/I, and Mv lies in I
    entries = tuple(CensusEntry(Ideal(alg, gf.Subspace(alg.p, alg.dim, key), _trusted=True),
                                key) for key in _canonical_keys(alg, keys))
    census = IdealCensus(alg, entries, Lattice(alg, keys, index, parent, line, below))
    alg._census = census
    return census


def _pick_cover(lattice: Lattice, k: int) -> Optional[tuple[int, ...]]:
    """The generators of the cover of keys[k] that the greedy basis of
    J/MJ picks, or None when J is no direct sum of cyclic modules (see
    the module docstring): the cyclic ideals below J in discovery order,
    each kept when its generator is independent modulo MJ of those kept,
    until mu(J) are kept.  MJ is itself a census ideal, and the cyclic
    ideals inside it are skipped unread: their generators lie in MJ."""
    mj, cyclic = lattice.graded()
    dim = len(lattice.keys[k])
    mu = dim - len(mj[k].rows)
    if mu <= 1:  # the zero ideal, or J = R v
        return (lattice.line[k],) * mu
    m = lattice.index[tuple(mj[k].rows)]
    basis = mj[k].copy()
    picked = []
    weight = 0
    members = lattice.below[k] & cyclic & ~(lattice.below[m] | 1 << m)
    while members and len(picked) < mu:
        low = members & -members
        members ^= low
        c = low.bit_length() - 1
        if gf.gf2_insert(basis, lattice.line[c]):
            picked.append(lattice.line[c])
            weight += len(lattice.keys[c])
    if len(picked) < mu:
        raise InternalContradictionError("a class of J/MJ has no cyclic ideal below J")
    return tuple(picked) if weight == dim else None


def _closure(alg: Algebra, v: int) -> tuple[int, ...]:
    """The RREF rows of Rv, closed by packed_closure once per algebra."""
    closed = vars(alg).setdefault("_closed", {})
    if v not in closed:
        closed[v] = tuple(packed_closure(alg, (), [v]))
    return closed[v]


def _decomposition(alg: Algebra, i: Ideal, max_dim: int) -> Optional[tuple[int, ...]]:
    """The packed generators of i's cover, or None when i is no direct sum
    of cyclic modules: one cache per algebra, from an ideal's packed key,
    serves every census function here.  Only R contains a unit, so
    R = R*1 and its cover is (1,); any other ideal takes the one that
    _pick_cover reads off the census lattice.  Before a cover is cached
    the closures of its generators must number dim i rows and span i, so
    the summands are direct onto i: the certificate build_decomposition
    checks, in packed rows."""
    _require_feasible(alg, max_dim)
    if i.algebra is not alg:
        raise ValueError("algebra mismatch")
    key = i.space.basis
    covers = vars(alg).setdefault("_covers", {})
    if key not in covers:
        census = getattr(alg, "_census", None)
        if census is None:
            census = enumerate_ideals(alg, max_dim)
        lattice = census.lattice
        gens = (1,) if len(key) == alg.dim else _pick_cover(lattice, lattice.index[key])
        if gens is not None:
            rows = [r for v in gens for r in _closure(alg, v)]
            if len(rows) != len(key) or tuple(alg.field.rref(rows)) != key:
                raise InternalContradictionError("cover failed verification")
        covers[key] = gens
    return covers[key]


def brute_decompose(alg: Algebra, i: Ideal, max_dim: int = 8
                    ) -> Optional[CyclicDecomposition]:
    """A decomposition of i into independent cyclic submodules, the one
    packed_first_cover picks after reading every vector of i, or None
    when no family covers i.  The only function here that builds a
    CyclicDecomposition: build_decomposition checks the cover direct
    onto i, reading each summand from ideals.cyclic, and the result is
    cached per algebra, R included, apart from the census's covers."""
    _require_feasible(alg, max_dim)
    if i.algebra is not alg:
        raise ValueError("algebra mismatch")
    built = vars(alg).setdefault("_brute_cache", {})
    key = i.space.basis
    if key not in built:
        packed_cyclic_table(alg)  # refuses odd p and dim M past its limit, R too
        found = ([1], []) if len(key) == alg.dim else packed_first_cover(alg, key)
        built[key] = None if found is None else build_decomposition(
            alg, i, [Element.packed(alg, v) for v in found[0] + found[1]], "exhaustive")
    return built[key]


def decomposition_lengths(alg: Algebra, i: Ideal, max_dim: int = 8) -> tuple[int, ...]:
    """Every achievable number of summands over all decompositions of i:
    by Nakayama (mu(I),) when i decomposes, else (), read off the
    checked cover that the census lattice picks for i, with no walk of
    i's vectors and no decomposition object.  It runs the census of
    i's algebra first if none is cached."""
    gens = _decomposition(alg, i, max_dim)
    return () if gens is None else (len(gens),)


def complete_census(census: IdealCensus, max_dim: int = 8) -> IdealCensus:
    """Fill in decomposability and lengths from each ideal's checked
    cover, picked on the lattice from the cyclic ideals below it: the
    graded work runs once per census, one generator is closed per cyclic
    ideal picked, and no CyclicDecomposition is built."""
    alg = census.algebra
    for e in census.entries:
        e.lengths = decomposition_lengths(alg, e.ideal, max_dim)
        e.decomposable = e.lengths != ()
    return census


def length_invariance(census: IdealCensus) -> bool:
    """True when no ideal admits two decompositions of different lengths:
    proved (Nakayama, see the module docstring) rather than measured, so
    every completed census passes."""
    for e in census.entries:
        if e.lengths is None:
            raise ValueError("census incomplete")
        if len(e.lengths) > 1:
            return False
    return True


def oracle_dsc(alg: Algebra, max_dim: int = 8) -> DscVerdict:
    """Ground-truth verdict: decompose every ideal or exhibit the first
    (canonical order) that cannot be decomposed."""
    census = enumerate_ideals(alg, max_dim)
    for e in census.entries:
        if _decomposition(alg, e.ideal, max_dim) is None:
            note = ("exhaustive search over all families of cyclic "
                    "submodules found no direct-sum cover")
            return DscVerdict("no", None, e.ideal, note,
                              (f"census of {census.count} ideals",))
    return DscVerdict("yes", None, None, None,
                      (f"all {census.count} ideals decompose",))
