"""Exhaustive GF(2) certificates: enumerate every ideal, decide each one.

One walk serves every function here.  _walk lists the ideals inside any
ideal T, one dimension at a time down from T (cross-checkable against a
subset-closure sweep at tiny sizes), and leaves them in the census's
(dim, basis) order, with the lattice that decides each of them from the
cyclic ideals it contains; no vector of an ideal is enumerated.  The
census walks down from R, so census entry k is lattice index k, and
one cache of covers serves the census and brute_decompose alike (see
the last paragraph).  Either works on any GF(2) algebra, monomial or
not.  structure.classify_dsc decides monomial algebras only, by their
presentation; it never runs the walk, and imports nothing from here.
Results are exact and are the ground truth the constructive machinery
is tested against.

The walk is bounded by the ideals it reaches, not by dim M: it refuses
an odd p before any GF(2) kernel runs, and a walk as soon as it reaches
more than IDEAL_BUDGET ideals, so a flat ring with hundreds of thousands
of ideals is refused in about a second, and a deep ring of small
lattice is decided whatever its dimension.

The walk steps down from T by hyperplanes.  A nonzero ideal J has MJ
strictly inside it (Nakayama), and any hyperplane H of J containing MJ
is an ideal, since MH lies in MJ, inside H; call these the parents of
J.  They are the kernels of the nonzero functionals on J/MJ, 2^mu - 1
of them over GF(2), where mu = mu(J) = dim J - dim MJ.  The rows of J's
RREF whose pivot is not a pivot of MJ are zero at every pivot of MJ, so
they are reduced modulo MJ and lift a basis w_1, ..., w_mu of J/MJ;
each parent is MJ plus the span of mu - 1 combinations of them.  Every
ideal I strictly inside T is reached: M is nilpotent, so for the
largest k with M^k T not inside I there is some v in M^k T outside I
with Mv inside I, and I is a parent of the ideal J = I + span(v), as
MJ = MI + span(Mv) lies in I.  So, by induction down from T, the walk
reaches every ideal inside T.

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

A cover is kept only after ideals.direct_onto certifies it: the
closures of its generators, each closed once per algebra by
ideals.cyclic, give rows that number dim J and row-reduce to J's key.
It is the one direct-sum certificate of the package, which
build_decomposition and the witness check of M call too, and it reads
the generators alone, not the lattice.  One cache per algebra maps an
ideal's packed key to the generators of its cover, or None.  R = R*1 is
answered ahead of any walk; any other ideal's cover is picked on the
census lattice when one is cached, else on the walk down from the ideal
itself.  The greedy takes the cyclic ideals below J in the census order,
which is the same sequence on every lattice that holds J, and each
one's generator is the one lift of its key, so the pick is the same
either way.  Every function here reads that cache; brute_decompose keeps
a second one, of the decompositions it builds from the covers.
"""

from __future__ import annotations

from typing import Optional

from . import gf
from .decompose import CyclicDecomposition, build_decomposition
from .ideals import Ideal, InfeasibleSizeError, _packed_times_m, direct_onto
from .rings import Algebra, Element
from .structure import DscVerdict, InternalContradictionError

# the most ideals one walk may reach: the square-zero ring in 7
# variables (29,213 ideals) is censused in about 2 s, and the walk of
# the one in 8 (417,200) is refused in about 1.3 s
IDEAL_BUDGET = 50_000


class CensusEntry:
    """One ideal of a census; complete_census fills in decomposable and
    lengths.  Equal by all four fields."""

    def __init__(self, ideal: Ideal, key: tuple[int, ...], decomposable: Optional[bool] = None,
                 lengths: Optional[tuple[int, ...]] = None):
        self.ideal, self.key, self.decomposable, self.lengths = ideal, key, decomposable, lengths

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented


class Lattice:
    """The ideals inside the top of a walk in the census's (dim, basis)
    order, top last: index maps keys[k] back to k, mj[k] is the echelon
    basis of M keys[k], bit k of cyclic is set when keys[k] is cyclic,
    and then gens[k] generates it, and bit h of below[k] is set for
    every ideal keys[h] strictly inside keys[k].  Equal by all six
    fields."""

    def __init__(self, keys: list[tuple[int, ...]], index: dict[tuple[int, ...], int],
                 mj: list[gf.Echelon], cyclic: int, gens: list[int], below: list[int]):
        self.keys, self.index, self.mj = keys, index, mj
        self.cyclic, self.gens, self.below = cyclic, gens, below

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented


class IdealCensus:
    """The ideals of an algebra in the census's (dim, basis) order, with
    the lattice they were walked on.  Equal by algebra and entries."""

    def __init__(self, algebra: Algebra, entries: tuple[CensusEntry, ...], lattice: Lattice):
        self.algebra, self.entries, self.lattice = algebra, entries, lattice

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.algebra, self.entries) == (other.algebra, other.entries)

    @property
    def count(self) -> int:
        return len(self.entries)


def _walk(alg: Algebra, top: tuple[int, ...]) -> Lattice:
    """The lattice of every ideal inside the ideal whose key is top, in
    the census's (dim, basis) order.

    Breadth-first down from top, one dimension per step: the parents of
    J are MJ plus the span of each hyperplane of the lifts of J/MJ (see
    the module docstring), each built on a copy of MJ's echelon basis
    and deduplicated by key, since an ideal is reached once per ideal
    one dimension above it.  Refuses an odd p before any GF(2) kernel
    runs, and the walk as soon as it reaches more than IDEAL_BUDGET
    ideals.  The keys are then sorted by dim and by their rows as 0/1
    tuples: a row's bits read from coordinate 0 sort as its tuple does,
    and each distinct row is formatted once, as rows repeat across keys.
    A parent is one dim below its child, so it comes first, and below
    is built in one pass.
    """
    if alg.p != 2:
        raise InfeasibleSizeError(f"the census handles GF(2) only, not GF({alg.p})")
    actions = alg.action_masks()
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
                if len(keys) == IDEAL_BUDGET:
                    raise InfeasibleSizeError(
                        f"census infeasible: more than {IDEAL_BUDGET} ideals to walk")
                j = index[key] = len(keys)
                keys.append(key)
                mh = times_m[mk].copy()
                for w in span:
                    for masks in actions:
                        gf.gf2_insert(mh, gf.gf2_apply(masks, w))
                mj.append(mh)
            ups.append(j)
        parents.append(ups)
    width = f"0{alg.dim}b"
    text = {r: format(r, width)[::-1] for r in {r for key in keys for r in key}}
    order = sorted(range(len(keys)),
                   key=lambda t: (len(keys[t]), tuple(map(text.__getitem__, keys[t]))))
    rank = {t: k for k, t in enumerate(order)}
    below = []
    for t in order:
        inside = 0
        for h in parents[t]:
            inside |= below[rank[h]] | 1 << rank[h]
        below.append(inside)
    keys = [keys[t] for t in order]
    return Lattice(keys, {key: k for k, key in enumerate(keys)}, [mj[t] for t in order],
                   sum(1 << k for k, t in enumerate(order) if gens[t]),
                   [gens[t] for t in order], below)


def enumerate_ideals(alg: Algebra, max_dim: int = 8) -> IdealCensus:
    """Every ideal of alg, zero through R, in canonical (dim, basis) order,
    with the Lattice of the walk down from R, which keeps every ideal's
    MJ, its cyclic ideals with their generators and the ideals below
    each one: entry k is lattice index k.  Cached per algebra.  max_dim
    does nothing: the walk's IDEAL_BUDGET bounds the census, and
    bench/workloads.py passes max_dim until ROADMAP item 1 drops it.
    """
    cached = getattr(alg, "_census", None)
    if cached is not None:
        return cached
    lattice = _walk(alg, tuple(1 << k for k in range(alg.dim)))
    # every key is already a closed packed reduced echelon basis, and a
    # hyperplane of an ideal over its M-multiple is an ideal
    entries = tuple(CensusEntry(Ideal(alg, gf.Subspace(alg.p, alg.dim, key), _trusted=True),
                                key) for key in lattice.keys)
    census = IdealCensus(alg, entries, lattice)
    alg._census = census
    return census


def _pick_cover(lattice: Lattice, k: int) -> Optional[tuple[int, ...]]:
    """The generators of the cover of keys[k] that the greedy basis of
    J/MJ picks, or None when J is no direct sum of cyclic modules (see
    the module docstring): the cyclic ideals below J in canonical order,
    each kept when its generator is independent modulo MJ of those kept,
    until mu(J) are kept.  MJ is itself an ideal of the lattice, and the
    cyclic ideals inside it are skipped unread: their generators lie in
    MJ."""
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


def _cover(alg: Algebra, i: Ideal) -> Optional[tuple[int, ...]]:
    """The packed generators of i's cover, or None when i is no direct
    sum of cyclic modules: one cache per algebra, from an ideal's packed
    key, serves every function here.  Only R contains a unit, so R = R*1
    at every p and its cover (1,) needs no walk.  Any other ideal takes
    the cover _pick_cover reads off the census lattice at i's index when
    a census is cached, else off the walk down from i; the pick is the
    same on each (see the module docstring).  A cover is cached only
    once ideals.direct_onto certifies its summands direct onto i, the
    certificate build_decomposition checks."""
    if i.algebra is not alg:
        raise ValueError("algebra mismatch")
    key = i.space.basis
    covers = vars(alg).setdefault("_covers", {})
    if key not in covers:
        gens = (1,)
        if len(key) < alg.dim:
            census = getattr(alg, "_census", None)
            lattice = _walk(alg, key) if census is None else census.lattice
            gens = _pick_cover(lattice, lattice.index[key])
        if gens is not None and not direct_onto(alg, [Element.packed(alg, v) for v in gens], i):
            raise InternalContradictionError("cover failed verification")
        covers[key] = gens
    return covers[key]


def brute_decompose(alg: Algebra, i: Ideal, max_dim: int = 8
                    ) -> Optional[CyclicDecomposition]:
    """A decomposition of i into independent cyclic submodules, or None
    when no family covers i: i's certified cover from the one cache,
    picked on the census lattice when one is cached and else on the walk
    down from i, so its generators depend on i alone.  The only function
    here that builds a CyclicDecomposition: build_decomposition checks
    the cover direct onto i, reading each summand from ideals.cyclic,
    and the result is cached per algebra.  max_dim does nothing, as in
    enumerate_ideals."""
    built = vars(alg).setdefault("_brute_cache", {})
    gens = _cover(alg, i)
    key = i.space.basis
    if key not in built:
        built[key] = None if gens is None else build_decomposition(
            alg, i, [Element.packed(alg, v) for v in gens], "exhaustive")
    return built[key]


def decomposition_lengths(alg: Algebra, i: Ideal, max_dim: int = 8) -> tuple[int, ...]:
    """Every achievable number of summands over all decompositions of i:
    by Nakayama (mu(I),) when i decomposes, else (), read off i's
    certified cover from the one cache, with no decomposition object.
    max_dim does nothing, as in enumerate_ideals."""
    gens = _cover(alg, i)
    return () if gens is None else (len(gens),)


def complete_census(census: IdealCensus, max_dim: int = 8) -> IdealCensus:
    """Fill in each ideal's lengths through decomposition_lengths, and
    decomposability as lengths being nonempty.  Each checked cover is
    picked on the census lattice the algebra caches, from the cyclic
    ideals below the ideal: each MJ comes from the walk, one generator
    is closed per cyclic ideal picked, and no CyclicDecomposition is
    built.  max_dim does nothing, as in enumerate_ideals."""
    for e in census.entries:
        e.lengths = decomposition_lengths(census.algebra, e.ideal)
        e.decomposable = bool(e.lengths)
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
    (canonical order) that cannot be decomposed.  max_dim does nothing,
    as in enumerate_ideals."""
    census = enumerate_ideals(alg)
    for e in census.entries:
        if _cover(alg, e.ideal) is None:
            note = ("exhaustive search over all families of cyclic "
                    "submodules found no direct-sum cover")
            return DscVerdict("no", None, e.ideal, note,
                              (f"census of {census.count} ideals",))
    return DscVerdict("yes", None, None, None,
                      (f"all {census.count} ideals decompose",))
