"""Exhaustive GF(2) certificates: enumerate every ideal, decide each one.

Everything here is deliberately brute force.  The census lists all
ideals by breadth-first closure extension (cross-checkable against a
subset-closure sweep at tiny sizes); the decomposition search tries
every family of cyclic submodules in a canonical order.  Results are
exact within the feasibility bounds and are used as the ground truth
the constructive machinery is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import gf
from .decompose import CyclicDecomposition, build_decomposition
from .ideals import (CYCLIC_TABLE_MAX_DIM, Ideal, InfeasibleSizeError, cyclic,
                     ideal_from_generators, is_simple, maximal_ideal, packed_closure,
                     packed_cyclic_table, zero_ideal)
from .rings import Algebra, Element
from .structure import DscVerdict


def _require_feasible(alg: Algebra, max_dim: int) -> None:
    if alg.p != 2:
        raise InfeasibleSizeError(f"oracle handles GF(2) only, not GF({alg.p})")
    if alg.dim - 1 > max_dim:
        raise InfeasibleSizeError(
            f"dim M = {alg.dim - 1} exceeds the oracle bound {max_dim}")
    if alg.dim - 1 > CYCLIC_TABLE_MAX_DIM:
        # brute_decompose needs the packed cyclic table, and past its
        # limit the census alone runs for minutes
        raise InfeasibleSizeError(f"dim M = {alg.dim - 1} exceeds the cyclic "
                                  f"table limit {CYCLIC_TABLE_MAX_DIM}")


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


def _entry_key_sort(alg: Algebra, key: tuple[int, ...]):
    return (len(key), tuple(gf.unpack_vec(r, alg.dim) for r in key))


def enumerate_ideals(alg: Algebra, max_dim: int = 8) -> IdealCensus:
    """Every ideal of alg, zero through R, in canonical (dim, basis) order.

    Breadth-first: extend each known ideal by one new generator chosen
    over its free coordinates, close up, deduplicate.  Cached per
    algebra.
    """
    _require_feasible(alg, max_dim)
    cached = getattr(alg, "_census", None)
    if cached is not None:
        return cached
    seen = {()}
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        nxt = []
        for rows in frontier:
            pivots = {r & -r for r in rows}
            free = [k for k in range(1, alg.dim) if (1 << k) not in pivots]
            for combo in range(1, 1 << len(free)):
                v = 0
                for b, k in enumerate(free):
                    if combo >> b & 1:
                        v |= 1 << k
                grown = tuple(packed_closure(alg, rows, [v]))
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    keys = sorted(seen, key=lambda k: _entry_key_sort(alg, k))
    keys.append(tuple(1 << k for k in range(alg.dim)))
    # every key, R's included, is already a closed packed reduced echelon
    # basis: packed_closure queues the image of every row it inserts
    entries = tuple(CensusEntry(Ideal(alg, gf.Subspace(alg.p, alg.dim, key), _trusted=True),
                                key) for key in keys)
    census = IdealCensus(alg, entries)
    alg._census = census
    return census


def enumerate_ideals_subsets(alg: Algebra) -> list[tuple[int, ...]]:
    """Independent re-enumeration: close every subset of the nonzero
    vectors of M.  Exponential in 2^dim(M); the cross-check partner for
    the breadth-first census at very small sizes."""
    mdim = alg.dim - 1
    if alg.p != 2 or mdim > 4:
        raise InfeasibleSizeError("subset enumeration needs GF(2) and dim M <= 4")
    vectors = [m << 1 for m in range(1, 1 << mdim)]
    seen = set()
    for mask in range(1 << len(vectors)):
        seeds = [v for b, v in enumerate(vectors) if mask >> b & 1]
        seen.add(tuple(packed_closure(alg, (), seeds)))
    keys = sorted(seen, key=lambda k: _entry_key_sort(alg, k))
    keys.append(tuple(1 << k for k in range(alg.dim)))
    return keys


def _candidates(alg: Algebra, key: tuple[int, ...]):
    """Distinct cyclic submodules inside the ideal, canonically ordered.

    Returns (generator vector, packed rows) pairs; the generator is the
    first element (coefficient order) producing that submodule.
    """
    table = packed_cyclic_table(alg)
    by_rows: dict[tuple[int, ...], int] = {}
    d = len(key)
    for s in range(1, 1 << d):
        v = 0
        for b in range(d):
            if s >> b & 1:
                v ^= key[b]
        rows = table[v]
        if rows not in by_rows:
            by_rows[rows] = v
    cands = [(v, rows) for rows, v in by_rows.items()]
    cands.sort(key=lambda c: (len(c[1]), tuple(gf.unpack_vec(r, alg.dim) for r in c[1])))
    return cands


def brute_decompose(alg: Algebra, i: Ideal, max_dim: int = 8
                    ) -> Optional[CyclicDecomposition]:
    """First decomposition of i into independent cyclic submodules found
    by depth-first search over the canonical candidate order, or None
    after exhausting every family.  Absence results are cached."""
    _require_feasible(alg, max_dim)
    if i.algebra is not alg:
        raise ValueError("algebra mismatch")
    if i.dim == alg.dim:
        # only R itself contains a unit, so R = R*1 is the sole cover
        return build_decomposition(alg, i, [alg.unit()], "exhaustive")
    key = i.space.basis
    cache = getattr(alg, "_brute_cache", None)
    if cache is None:
        cache = alg._brute_cache = {}
    if key not in cache:
        cache[key] = next(_covers(_candidates(alg, key), len(key)), None)
    found = cache[key]
    if found is None:
        return None
    gens = [alg.element(gf.unpack_vec(v, alg.dim)) for v in found]
    return build_decomposition(alg, i, gens, "exhaustive")


def decomposition_lengths(alg: Algebra, i: Ideal, max_dim: int = 8) -> tuple[int, ...]:
    """Every achievable number of summands over all decompositions of i.

    Exhaustive; the singleton answer for all ideals at once is the
    length-invariance phenomenon.
    """
    _require_feasible(alg, max_dim)
    if i.dim == alg.dim:
        return (1,)
    key = i.space.basis
    return tuple(sorted({len(c) for c in _covers(_candidates(alg, key), len(key))}))


def _covers(cands, target: int, start: int = 0, rows: Sequence[int] = (), dim: int = 0):
    """Every family of candidates from `start` on whose cyclic submodules
    are independent of rows and of each other and fill the remaining
    target - dim dimensions, as generator lists in depth-first order."""
    if dim == target:
        yield []
        return
    for idx in range(start, len(cands)):
        v, crows = cands[idx]
        if dim + len(crows) > target:
            continue
        merged = list(rows)
        if all(gf.gf2_insert(merged, r) for r in crows):
            for rest in _covers(cands, target, idx + 1, merged, dim + len(crows)):
                yield [v] + rest


def complete_census(census: IdealCensus, max_dim: int = 8) -> IdealCensus:
    """Fill in decomposability and achievable lengths for every entry."""
    alg = census.algebra
    for e in census.entries:
        dec = brute_decompose(alg, e.ideal, max_dim)
        e.decomposable = dec is not None
        e.lengths = decomposition_lengths(alg, e.ideal, max_dim)
    return census


def length_invariance(census: IdealCensus) -> bool:
    """True when no ideal admits two decompositions of different lengths."""
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
        if brute_decompose(alg, e.ideal, max_dim) is None:
            note = ("exhaustive search over all families of cyclic "
                    "submodules found no direct-sum cover")
            return DscVerdict("no", None, e.ideal, note,
                              (f"census of {census.count} ideals",))
    return DscVerdict("yes", None, None, None,
                      (f"all {census.count} ideals decompose",))


def three_summand_counterexample(alg: Algebra, x: Element, y: Element,
                                 z: Element, rest: Optional[Ideal] = None) -> Ideal:
    """The ideal R(x+y) + R(x+z), not a direct sum of cyclics whenever
    M = Rx + Ry + Rz + rest is direct with all three summands non-simple."""
    if rest is None:
        rest = zero_ideal(alg)
    parts = [cyclic(alg, g) for g in (x, y, z)]
    for g, c in zip((x, y, z), parts):
        if is_simple(alg, c) or c.is_zero():
            raise ValueError(f"hypothesis not satisfied: R{g} must be non-simple")
    total = gf.direct_sum(alg.p, alg.dim, [c.space for c in parts + [rest]])
    if total != maximal_ideal(alg).space:
        raise ValueError("hypothesis not satisfied: sum is not direct onto M")
    return ideal_from_generators(alg, [x + y, x + z])
