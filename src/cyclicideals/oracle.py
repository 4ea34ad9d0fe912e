"""Exhaustive GF(2) certificates: enumerate every ideal, decide each one.

Everything here is deliberately brute force.  The census lists all
ideals one dimension at a time (cross-checkable against a subset-closure
sweep at tiny sizes); each ideal is decided by ideals.packed_first_cover,
which reads every vector of it and takes a minimum-weight basis of I/MI
greedily.  structure.classify_dsc runs that cover only on M of an
algebra that is not monomial; it never runs the census and imports
nothing from here.  Results are exact within the feasibility bounds
and are the ground truth the constructive machinery is tested against.

The census is decided in packed rows.  One cache per algebra maps an
ideal's packed key to the generators of its cover, or None; R is an
entry with the single generator 1.  A cover enters the cache only after
its closure rows from the cyclic table number dim I and row-reduce to
I's key, which is the direct-sum certificate build_decomposition
checks.  complete_census, oracle_dsc and decomposition_lengths read
nothing else; only brute_decompose wraps a cover into a
CyclicDecomposition, once per ideal, and build_decomposition checks it
again on closures that ideals.cyclic computes from the generators, not
on the table's rows.

The census steps up by socle lines.  A nonzero ideal J has MJ strictly
inside it (Nakayama), so any hyperplane H of J containing MJ is an
ideal with dim H = dim J - 1, and J = H + span(v) for the v reduced
modulo H; that v lies in the socle of R/H, since Mv lies in MJ, inside
H.  So the ideals one dimension above I are exactly the I + span(v) for
the nonzero v of the socle of R/I, each closed as it stands, and over
GF(2) distinct v give distinct ideals.

Nakayama also makes that cover a greedy choice (see its docstring) and
proves length invariance: if I = Rg_1 + ... + Rg_n is direct with every
g_k nonzero, I/MI is the direct sum of the lines Rg_k/Mg_k, so the g_k
are independent modulo MI (none lies in MI) and n = mu(I) = dim I - dim MI
for every decomposition of I.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class IdealCensus:
    algebra: Algebra
    entries: tuple[CensusEntry, ...]

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
    docstring), each I's echelon basis with v inserted.  An ideal J is
    reached once per hyperplane of J over MJ, so children are
    deduplicated.  Cached per algebra.
    """
    # every ideal is decided from the cyclic table, so it refuses odd p
    # and dim M past its limit here, before a census that would run for
    # minutes
    packed_cyclic_table(alg)
    _require_feasible(alg, max_dim)
    cached = getattr(alg, "_census", None)
    if cached is not None:
        return cached
    seen = {()}
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        nxt = []
        for rows in frontier:
            lines = [0]
            for s in packed_socle(alg, rows):
                lines += [v ^ s for v in lines]
            for v in lines[1:]:
                grown = list(rows)
                gf.gf2_insert(grown, v)
                grown = tuple(grown)
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    keys = _canonical_keys(alg, seen)
    # every key, R's included, is already a closed packed reduced echelon
    # basis: each child adds one socle vector v of R/I, and Mv lies in I
    entries = tuple(CensusEntry(Ideal(alg, gf.Subspace(alg.p, alg.dim, key), _trusted=True),
                                key) for key in keys)
    census = IdealCensus(alg, entries)
    alg._census = census
    return census


def _decomposition(alg: Algebra, i: Ideal, max_dim: int) -> Optional[tuple[int, ...]]:
    """The packed generators of i's first cover, or None when i is no
    direct sum of cyclic modules: one cache per algebra, from an ideal's
    packed key, serves every function here.  Only R contains a unit, so
    R = R*1 and its cover is (1,); any other ideal takes the one that
    packed_first_cover picks.  Before a cover is cached its closure rows
    must number dim i and span i, so the summands are direct onto i: the
    certificate build_decomposition checks, in packed rows."""
    _require_feasible(alg, max_dim)
    if i.algebra is not alg:
        raise ValueError("algebra mismatch")
    key = i.space.basis
    covers = vars(alg).setdefault("_covers", {})
    if key not in covers:
        found = ([1], []) if len(key) == alg.dim else packed_first_cover(alg, key)
        gens = None if found is None else tuple(found[0] + found[1])
        if gens is not None:
            rows = [r for c in _closures(alg, gens) for r in c]
            if len(rows) != len(key) or tuple(gf.packed_field(2).rref(rows)) != key:
                raise InternalContradictionError("cover failed verification")
        covers[key] = gens
    return covers[key]


def _closures(alg: Algebra, gens: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The RREF rows of each Rv, v in gens: the cyclic table's, R's at 1."""
    table = packed_cyclic_table(alg)
    return [table[v] if v != 1 else tuple(packed_closure(alg, (), [1])) for v in gens]


def brute_decompose(alg: Algebra, i: Ideal, max_dim: int = 8
                    ) -> Optional[CyclicDecomposition]:
    """A decomposition of i into independent cyclic submodules, the one
    packed_first_cover picks after reading every vector of i, or None
    when no family covers i.  The only function here that builds a
    CyclicDecomposition: build_decomposition wraps the cached cover once
    per ideal, R included, reading each summand from ideals.cyclic, and
    the result is cached."""
    gens = _decomposition(alg, i, max_dim)
    built = vars(alg).setdefault("_brute_cache", {})
    key = i.space.basis
    if key not in built:
        built[key] = None if gens is None else build_decomposition(
            alg, i, [Element.packed(alg, v) for v in gens], "exhaustive")
    return built[key]


def decomposition_lengths(alg: Algebra, i: Ideal, max_dim: int = 8) -> tuple[int, ...]:
    """Every achievable number of summands over all decompositions of i:
    by Nakayama (mu(I),) when i decomposes, else (), read off the cached
    cover's generators with no search and no decomposition object."""
    gens = _decomposition(alg, i, max_dim)
    return () if gens is None else (len(gens),)


def complete_census(census: IdealCensus, max_dim: int = 8) -> IdealCensus:
    """Fill in decomposability and lengths from each ideal's cached,
    checked cover: one search per ideal, and no CyclicDecomposition."""
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
