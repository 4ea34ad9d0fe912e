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

The census steps down from M by hyperplanes.  A nonzero ideal J has MJ
strictly inside it (Nakayama), and any hyperplane H of J containing MJ
is an ideal, since MH lies in MJ, inside H; call these the parents of
J.  They are the kernels of the nonzero functionals on J/MJ, 2^mu - 1
of them over GF(2), where mu = mu(J) = dim J - dim MJ.  The rows of J's
RREF whose pivot is not a pivot of MJ are zero at every pivot of MJ, so
they are reduced modulo MJ and lift a basis w_1, ..., w_mu of J/MJ;
each parent is MJ plus the span of mu - 1 combinations of them.  Every
ideal I strictly inside M is reached: M/I is nilpotent and nonzero, so
it has a socle line, some v in M outside I with Mv inside I, and I is a
parent of the ideal J = I + span(v), as MJ = MI + span(Mv) lies in I.
So, by induction down from M, the walk reaches every ideal inside M.

Nakayama proves length invariance: if I = Rg_1 + ... + Rg_n is direct
with every g_k nonzero, I/MI is the direct sum of the lines Rg_k/Mg_k,
so the g_k are independent modulo MI (none lies in MI) and
n = mu(I) = dim I - dim MI for every decomposition of I.

Each ideal is decided on the lattice the walk leaves, with no vector of
it enumerated:

  * MH = M(MJ) + span(g w) for a parent H = MJ + span(w, ...) of J, over
    the generators g and the w spanning H over MJ: g w lies in MJ, so
    any product of two or more generators takes w into M(MJ).  M(MJ) is
    computed once per distinct MJ, and MH when H is first reached;
  * the cyclic ideals inside J are those inside its parents, plus J
    itself when mu(J) = 1, and then its one lift generates J.  A cyclic
    C inside J with C != J has C + MJ != J (Nakayama), so C lies in a
    hyperplane of J over MJ, a parent.  In the same way every ideal
    strictly inside J lies in a parent, so the ideals below J are the
    union over its parents.

Rg = R/Ann(g) is indecomposable over a local ring, so by Krull-Schmidt
every direct cover of J has the same summands up to isomorphism, and
any one cover decides.  Lifts g_1, ..., g_n of a basis of J/MJ generate
J (Nakayama), so sum dim Rg_k >= dim J, with equality exactly when the
sum is direct, and every direct cover has that form.  So J decomposes
exactly when a basis of J/MJ of least weight sum has weight dim J,
where a class c weighs min dim Rg over g in c.  Every class c is the
class of the generators of a cyclic C inside J (C = Rg for g in c, and
every generator of C is a unit multiple of g, so lies in c + MJ), so
the cyclic ideals inside J, taken in ascending dim, list every class
at its least weight first.  The bases of a vector space are
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
from .ideals import (Ideal, InfeasibleSizeError, _packed_times_m, packed_closure,
                     packed_cyclic_table, packed_first_cover)
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
class Lattice:
    """The ideals inside M in ascending dim, as the walk down from M
    leaves them: index maps keys[k] back to k, mj[k] is the echelon basis
    of M keys[k], bit k of cyclic is set when keys[k] is cyclic, and then
    gens[k] generates it, and bit h of below[k] is set for every ideal
    keys[h] strictly inside keys[k]."""

    keys: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    mj: list[gf.Echelon]
    cyclic: int
    gens: list[int]
    below: list[int]


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
    bits read from coordinate 0 sort as its 0/1 tuple does; each distinct
    row is formatted once, as rows repeat across keys."""
    width = f"0{alg.dim}b"
    text = {r: format(r, width)[::-1] for r in {r for key in keys for r in key}}
    ordered = sorted(keys, key=lambda k: (len(k), tuple(map(text.__getitem__, k))))
    return ordered + [tuple(1 << k for k in range(alg.dim))]


def enumerate_ideals(alg: Algebra, max_dim: int = 8) -> IdealCensus:
    """Every ideal of alg, zero through R, in canonical (dim, basis) order.

    Breadth-first down from M, one dimension per step: the parents of J
    are MJ plus the span of each hyperplane of the lifts of J/MJ (see the
    module docstring), each built on a copy of MJ's echelon basis and
    deduplicated by key, since an ideal is reached once per ideal one
    dimension above it.  The census's Lattice keeps every ideal's MJ,
    its cyclic ideals with their generators and the ideals below each
    one.  Cached per algebra.
    """
    # the cyclic table's refusals of odd p and of dim M past its limit
    # are the census's too, made here before a census that would run
    # for minutes
    packed_cyclic_table(alg)
    _require_feasible(alg, max_dim)
    cached = getattr(alg, "_census", None)
    if cached is not None:
        return cached
    actions = alg.action_masks()
    top = tuple(1 << k for k in range(1, alg.dim))
    keys, index = [top], {top: 0}
    mj = [gf.Echelon(_packed_times_m(alg, top))]
    parents, gens = [], []
    times_m: dict[tuple[int, ...], gf.Echelon] = {}  # M(MJ) by MJ's key
    for t, rows in enumerate(keys):  # keys grows behind t, a layer at a time
        e = mj[t]
        lifts = [r for r in rows if not r & -r & e.mask]
        gens.append(lifts[0] if len(lifts) == 1 else 0)
        ups = []
        if lifts:
            mk = tuple(e.rows)
            if mk not in times_m:
                times_m[mk] = gf.Echelon(_packed_times_m(alg, mk))
        for c in range(1, 1 << len(lifts)):  # the nonzero functionals on J/MJ
            low = c & -c
            w0 = lifts[low.bit_length() - 1]
            span = [w ^ w0 if c >> i & 1 else w
                    for i, w in enumerate(lifts) if 1 << i != low]
            h = e.copy()
            for w in span:
                gf.gf2_insert(h, w)
            key = tuple(h.rows)
            j = index.get(key)
            if j is None:
                j = index[key] = len(keys)
                keys.append(key)
                mh = times_m[mk].copy()
                for w in span:
                    for masks in actions:
                        gf.gf2_insert(mh, gf.gf2_apply(masks, w))
                mj.append(mh)
            ups.append(j)
        parents.append(ups)
    # ascending dim from here: every parent precedes its children
    n = len(keys)
    for walked in (keys, mj, gens, parents):
        walked.reverse()
    below = []
    for ups in parents:
        inside = 0
        for h in ups:
            inside |= below[n - 1 - h] | 1 << n - 1 - h
        below.append(inside)
    lattice = Lattice(keys, {key: k for k, key in enumerate(keys)}, mj,
                      sum(1 << k for k, g in enumerate(gens) if g), gens, below)
    # every key, R's included, is already a closed packed reduced echelon
    # basis, and a hyperplane of an ideal over its M-multiple is an ideal
    entries = tuple(CensusEntry(Ideal(alg, gf.Subspace(alg.p, alg.dim, key), _trusted=True),
                                key) for key in _canonical_keys(alg, keys))
    census = IdealCensus(alg, entries, lattice)
    alg._census = census
    return census


def _pick_cover(lattice: Lattice, k: int) -> Optional[tuple[int, ...]]:
    """The generators of the cover of keys[k] that the greedy basis of
    J/MJ picks, or None when J is no direct sum of cyclic modules (see
    the module docstring): the cyclic ideals below J in discovery order,
    each kept when its generator is independent modulo MJ of those kept,
    until mu(J) are kept.  MJ is itself a census ideal, and the cyclic
    ideals inside it are skipped unread: their generators lie in MJ."""
    mj = lattice.mj[k]
    dim = len(lattice.keys[k])
    mu = dim - len(mj.rows)
    if mu <= 1:  # the zero ideal, or J = R g
        return (lattice.gens[k],) * mu
    m = lattice.index[tuple(mj.rows)]
    basis = mj.copy()
    picked = []
    weight = 0
    members = lattice.below[k] & lattice.cyclic & ~(lattice.below[m] | 1 << m)
    while members and len(picked) < mu:
        low = members & -members
        members ^= low
        c = low.bit_length() - 1
        if gf.gf2_insert(basis, lattice.gens[c]):
            picked.append(lattice.gens[c])
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
    cover, picked on the lattice from the cyclic ideals below it: each
    MJ comes from the walk, one generator is closed per cyclic ideal
    picked, and no CyclicDecomposition is built."""
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
