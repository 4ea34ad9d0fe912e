"""Brute-force ground truth: censuses, exhaustive decompositions, lengths.

The frozen census counts below were derived by hand before the census
code existed, by listing ideals per dimension.  Worked example for
GF(2)[x,y]/(x^3, y^3, x*y), where M = Rx + Ry and soc = {x^2, y^2}:

    dim 0: (0)                                                   -> 1
    dim 1: the three lines of soc                                -> 3
    dim 2: Rx, Ry, R(x+y^2), R(y+x^2), soc                       -> 5
    dim 3: R(x+y), Rx + Ry^2, Ry + Rx^2                          -> 3
    dim 4: M                                                     -> 1
    dim 5: R                                                     -> 1
                                                          total     14

The other counts follow the same bookkeeping; the square-zero rings are
the easy sanity anchors (every subspace of M is an ideal there, so the
count is the Gaussian subspace count plus one for R).
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclicideals import (Ideal, InfeasibleSizeError, InternalContradictionError,
                          brute_decompose, classify_dsc, complete_census, cyclic,
                          decomposition_lengths, enumerate_ideals,
                          find_m_decomposition, gf,
                          ideal_from_generators, is_simple, length_invariance,
                          maximal_ideal, min_generators, module_times_ideal,
                          oracle, oracle_dsc, parse_element, refutes,
                          unit_ideal, verify_decomposition, zero_ideal)
from cyclicideals import ideals
from cyclicideals.corpus import sweep_presentations
from cyclicideals.ideals import packed_closure, packed_cyclic_table
from cyclicideals.rings import RingPresentation, build_algebra
import reference_kernels
from reference_kernels import enumerate_ideals_subsets, packed_first_cover
from conftest import (AXIS_SOCLE, GF3_MIXED, PAIR_N3, PAIR_N4,
                      POWER_SERIES, SQUARE_ZERO_N2, SQUARE_ZERO_N3, TRIPLE,
                      TWO_AXES, build, maximal_ideal_elements, presentations)

# GF(2)[x,y,w1..w3]/(x^2, y^2, w_i*(x,y,w)): most of M is socle, so most
# covers need simple summands
SOCLE_W3 = ("field 2 / vars x y w1 w2 w3 / rel x^2 / rel y^2 / rel w1*x / rel w1*y"
            " / rel w2*x / rel w2*y / rel w3*x / rel w3*y / rel w1^2 / rel w1*w2"
            " / rel w1*w3 / rel w2^2 / rel w2*w3 / rel w3^2")

FROZEN_COUNTS = [
    (PAIR_N3, 14),
    (PAIR_N4, 26),
    (TRIPLE, 80),
    (POWER_SERIES, 7),
    (SQUARE_ZERO_N2, 6),
    (SQUARE_ZERO_N3, 17),
    (AXIS_SOCLE, 18),
    (SOCLE_W3, 426),
]


# Reference: the free-coordinate enumeration, which makes no use of the
# socle.  It extends every ideal by every nonzero combination of its free
# coordinates and closes each one.


def _reference_enumerate(alg) -> set[tuple[int, ...]]:
    seen = {()}
    frontier = [()]
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
    return seen | {tuple(1 << k for k in range(alg.dim))}


def _matches_reference_census(alg) -> int:
    """The census lists the reference's ideals once each, and every
    entry, built unchecked, passes the checked constructor; returns the
    census count."""
    census = enumerate_ideals(alg, 8)
    keys = [e.key for e in census.entries]
    assert len(set(keys)) == len(keys)
    assert set(keys) == _reference_enumerate(alg)
    for e in census.entries:
        assert Ideal(alg, e.ideal.space).space.basis == e.key
    return census.count


@pytest.mark.parametrize("text,count", FROZEN_COUNTS)
def test_census_counts(text, count):
    assert _matches_reference_census(build(text)) == count


def test_census_count_at_dim_m_13():
    # frozen from _reference_enumerate, which takes seconds on this ring
    alg = build("field 2 / vars x y / rel x^4 / rel y^4 / rel x^3*y^2")
    assert alg.dim - 1 == 13
    assert enumerate_ideals(alg, 13).count == 315


def test_census_matches_the_reference_on_random_rings():
    counts = []

    @settings(max_examples=150, deadline=None)
    @given(presentations())
    def check(pres):
        alg = build_algebra(RingPresentation.make(2, pres.vars, pres.relations,
                                                  pres.truncate))
        assume(alg.dim - 1 <= 8)
        counts.append(_matches_reference_census(alg))

    check()
    # most drawn rings are tiny; enough must have a lattice worth comparing
    assert sum(n > 20 for n in counts) >= 8, counts


def test_census_order_and_extremes(pair_n3):
    census = enumerate_ideals(pair_n3)
    dims = [e.ideal.dim for e in census.entries]
    assert dims == sorted(dims)
    assert census.entries[0].ideal.is_zero()
    assert census.entries[-1].ideal == unit_ideal(pair_n3)
    assert len({e.key for e in census.entries}) == census.count


def test_census_entries_are_ideals(pair_n3):
    for e in enumerate_ideals(pair_n3).entries:
        assert module_times_ideal(pair_n3, e.ideal) <= e.ideal


@pytest.mark.parametrize("text", [PAIR_N3, SQUARE_ZERO_N2, SQUARE_ZERO_N3])
def test_subset_enumeration_agrees(text):
    # independent route: filter all subspaces of M for closure
    alg = build(text)
    census = enumerate_ideals(alg)
    assert set(enumerate_ideals_subsets(alg)) == {e.key for e in census.entries}


def test_subset_enumeration_needs_tiny_m(chain4):
    alg = build(TRIPLE)  # dim M = 6
    with pytest.raises(InfeasibleSizeError, match="dim M"):
        enumerate_ideals_subsets(alg)
    assert len(enumerate_ideals_subsets(chain4)) == 5


# ---------------------------------------------------------------------------
# exhaustive decomposition


def test_brute_decomposes_maximal_ideal(pair_n3):
    m = ideal_from_generators(pair_n3, list(pair_n3.gens))
    dec = brute_decompose(pair_n3, m)
    assert dec is not None and dec.length == 2
    assert dec.trace.branch == "exhaustive"
    from cyclicideals import verify_decomposition
    assert verify_decomposition(pair_n3, m, dec)


def test_brute_finds_nothing_for_locked_ideal():
    alg = build(TRIPLE)
    x1, x2, x3 = alg.gens
    j = ideal_from_generators(alg, [x1 + x2, x1 + x3])
    assert j.dim == 5
    assert brute_decompose(alg, j) is None
    assert decomposition_lengths(alg, j) == ()


def test_brute_whole_ring_and_zero(pair_n3):
    dec = brute_decompose(pair_n3, unit_ideal(pair_n3))
    assert dec.generators == (pair_n3.unit(),)
    assert decomposition_lengths(pair_n3, unit_ideal(pair_n3)) == (1,)
    assert decomposition_lengths(pair_n3, zero_ideal(pair_n3)) == (0,)


def test_lengths_by_hand(pair_n3):
    x, y = pair_n3.gens
    cases = [
        ([x], (1,)),
        ([x ** 2, y ** 2], (2,)),         # any two of the three socle lines
        ([x, y], (2,)),                   # never 1 (not cyclic), never 3+
        ([x + y], (1,)),                  # every regenerator keeps the x+y head
    ]
    for gens, want in cases:
        assert decomposition_lengths(pair_n3, ideal_from_generators(pair_n3, gens)) == want


def test_length_invariance_holds(pair_n3):
    census = enumerate_ideals(pair_n3)
    with pytest.raises(ValueError, match="census incomplete"):
        length_invariance(census)
    complete_census(census)
    assert length_invariance(census)
    assert all(e.decomposable for e in census.entries)
    assert max(max(e.lengths) for e in census.entries) == 2


def test_census_lengths_stay_under_witness_bound(pair_n3):
    bound = len(find_m_decomposition(pair_n3).summands())
    census = complete_census(enumerate_ideals(pair_n3))
    for e in census.entries:
        if e.ideal.dim < pair_n3.dim:
            assert all(n <= bound for n in e.lengths)


def test_census_builds_each_decomposition_once(monkeypatch):
    # the oracle command completes the census, then asks oracle_dsc: both
    # read the cached covers, picked once per proper ideal on the lattice,
    # and build no CyclicDecomposition; brute_decompose reads the same
    # covers and builds each decomposition once, on demand, with no pick
    alg = build(PAIR_N3)
    picked, built = Counter(), Counter()
    pick, build_dec = oracle._pick_cover, oracle.build_decomposition

    def counting_pick(lattice, k):
        picked[lattice.keys[k]] += 1
        return pick(lattice, k)

    def counting_build(alg, i, gens, branch, **knobs):
        built[i.space.basis] += 1
        return build_dec(alg, i, gens, branch, **knobs)

    monkeypatch.setattr(oracle, "_pick_cover", counting_pick)
    monkeypatch.setattr(oracle, "build_decomposition", counting_build)
    census = complete_census(enumerate_ideals(alg))
    assert oracle_dsc(alg).answer == "yes"
    # R = R*1 is answered ahead of any pick
    assert [picked[e.key] for e in census.entries] == [1] * 13 + [0]
    assert not built
    first = [brute_decompose(alg, e.ideal) for e in census.entries]
    again = [brute_decompose(alg, e.ideal) for e in census.entries]
    assert all(a is b for a, b in zip(first, again))
    assert [built[e.key] for e in census.entries] == [1] * 14
    assert [picked[e.key] for e in census.entries] == [1] * 13 + [0]


def test_whole_ring_is_decided_once():
    alg = build(PAIR_N3)
    dec = brute_decompose(alg, unit_ideal(alg))
    assert brute_decompose(alg, unit_ideal(alg)) is dec
    assert decomposition_lengths(alg, unit_ideal(alg)) == (1,)
    assert alg._covers[unit_ideal(alg).space.basis] == (1,)


def test_the_whole_ring_needs_no_walk(monkeypatch):
    # R = R*1 on the square-zero ring in 8 variables, whose walk the
    # budget refuses, and on an odd-p ring, which no walk takes
    def refuse(*args):
        raise AssertionError("_walk called for R")

    monkeypatch.setattr(oracle, "_walk", refuse)
    for text in (SQUARE_ZERO_N8, GF3_MIXED):
        alg = build(text)
        dec = brute_decompose(alg, unit_ideal(alg))
        assert dec.generators == (alg.unit(),)
        assert verify_decomposition(alg, unit_ideal(alg), dec)
        assert decomposition_lengths(alg, unit_ideal(alg)) == (1,)


def _gf2_ring(pres):
    return build_algebra(RingPresentation.make(2, pres.vars, pres.relations, pres.truncate))


def _tuple_order(alg, keys):
    # the census order of the unpacked 0/1 tuples, R last
    proper = [k for k in keys if len(k) < alg.dim]
    return sorted(proper, key=lambda k: (len(k), tuple(gf.unpack_vec(r, alg.dim)
                                                        for r in k))) + [keys[-1]]


def test_packed_sort_key_keeps_the_tuple_order():
    # the census order, R last, is the lattice's own order, and the walk
    # down from any ideal sorts its keys the same way
    subsets = []

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(presentations(), st.data())
    def check(pres, data):
        alg = _gf2_ring(pres)
        assume(alg.dim - 1 <= 8)
        census = enumerate_ideals(alg)
        keys = [e.key for e in census.entries]
        assert keys == census.lattice.keys == _tuple_order(alg, keys)
        assert keys[-1] == unit_ideal(alg).space.basis
        top = data.draw(st.sampled_from(keys))
        inside = gf.Echelon(top)
        assert oracle._walk(alg, top).keys == [
            k for k in keys if not any(gf.gf2_reduce(r, inside) for r in k)]
        if alg.dim - 1 <= 4:
            listed = enumerate_ideals_subsets(alg)
            assert listed == _tuple_order(alg, listed) == keys
            subsets.append(len(listed))

    check()
    assert sum(n > 5 for n in subsets) >= 10, subsets


def test_two_walks_of_one_ring_compare_equal():
    # a Lattice is equal by all six fields, its MJ echelons by their
    # rows: two fresh algebras walk to equal lattices, and one MJ row
    # changed breaks the equality
    text = "field 2 / vars x y / rel x^3 / rel y^3 / rel x*y"
    a, b = build(text), build(text)
    top = unit_ideal(a).space.basis
    lattice, other = oracle._walk(a, top), oracle._walk(b, top)
    assert lattice == other
    rows = other.mj[-1].rows
    other.mj[-1] = gf.Echelon(rows[:-1] + [rows[-1] ^ rows[0]])
    assert (other.keys, other.below) == (lattice.keys, lattice.below)
    assert lattice != other


def _repeat_first(pick, lattice, k):
    # the first row of J as many times as J has rows
    rows = lattice.keys[k]
    return (rows[0],) * len(rows)


def _one_extra(pick, lattice, k):
    return pick(lattice, k) + (lattice.keys[k][-1],)


@pytest.mark.parametrize("cover", [_repeat_first, _one_extra])
def test_census_refuses_an_overlapping_cover(monkeypatch, cover):
    alg = build(PAIR_N3)
    census = enumerate_ideals(alg)
    pick = oracle._pick_cover
    monkeypatch.setattr(oracle, "_pick_cover", lambda lattice, k: (
        cover(pick, lattice, k) if len(lattice.keys[k]) >= 2 else pick(lattice, k)))
    with pytest.raises(InternalContradictionError, match="cover failed verification"):
        complete_census(census)


def test_cover_check_reads_the_span(monkeypatch):
    # x^2 twice: as many closure rows as the socle has, spanning one line
    alg = build(PAIR_N3)
    x, y = alg.gens
    socle = ideal_from_generators(alg, [x ** 2, y ** 2])
    line = (x ** 2).vec
    assert len(packed_closure(alg, (), [line])) == 1 and socle.dim == 2
    monkeypatch.setattr(oracle, "_pick_cover", lambda lattice, k: (line, line))
    with pytest.raises(InternalContradictionError, match="cover failed verification"):
        decomposition_lengths(alg, socle)


def test_census_answers_as_the_decompositions_do():
    sizes = []

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(presentations())
    def check(pres):
        alg = _gf2_ring(pres)
        assume(alg.dim - 1 <= 8)
        verdict = oracle_dsc(alg)
        census = complete_census(enumerate_ideals(alg))
        stuck = None
        for e in census.entries:
            dec = brute_decompose(alg, e.ideal)
            assert e.decomposable == (dec is not None)
            assert e.lengths == (() if dec is None else (dec.length,))
            if dec is not None:
                assert verify_decomposition(alg, e.ideal, dec)
            elif stuck is None:
                stuck = e.ideal
        # oracle_dsc names the first ideal brute_decompose cannot split
        assert verdict.answer == ("yes" if stuck is None else "no")
        assert verdict.counterexample == stuck
        assert oracle_dsc(alg) == verdict
        sizes.append((census.count, stuck is not None))

    check()
    assert sum(n > 20 for n, _ in sizes) >= 8, sizes
    assert sum(no for _, no in sizes) >= 5, sizes


def test_lengths_refuse_another_algebra():
    a = build("field 2 / vars x y / rel x^3 / rel y^3 / rel x*y")
    b = build("field 2 / vars x y / rel x^2 / rel y^2")
    for search in (brute_decompose, decomposition_lengths):
        with pytest.raises(ValueError, match="algebra mismatch"):
            search(a, maximal_ideal(b))


# Reference: the unpruned search, which makes no use of Nakayama.  It lists
# every distinct cyclic submodule of I and every family of them that covers I.


def _reference_candidates(alg, key):
    table = packed_cyclic_table(alg)
    by_rows = {}
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


def _reference_covers(cands, target, start=0, rows=(), dim=0):
    if dim == target:
        yield []
        return
    for idx in range(start, len(cands)):
        v, crows = cands[idx]
        if dim + len(crows) > target:
            continue
        merged = gf.Echelon(rows)
        if all(gf.gf2_insert(merged, r) for r in crows):
            for rest in _reference_covers(cands, target, idx + 1, merged.rows,
                                          dim + len(crows)):
                yield [v] + rest


def _cover_dims(alg, cover) -> list[int]:
    table = packed_cyclic_table(alg)
    return sorted(len(table[v]) for v in cover)


def _matches_reference(alg, i, cands) -> bool:
    """brute_decompose finds a cover exactly when the unpruned search
    does; that cover verifies, has mu(I) summands and the summand dims of
    the reference's first cover (Krull-Schmidt), and the lengths of all
    covers are exactly mu(I), or there are none; returns whether i
    decomposes."""
    covers = list(_reference_covers(cands, i.dim))
    dec = brute_decompose(alg, i)
    assert (dec is not None) == bool(covers)
    if dec is not None:
        assert verify_decomposition(alg, i, dec)
        assert dec.length == min_generators(alg, i)
        got = [gf.pack_vec(g.coeffs) for g in dec.generators]
        assert _cover_dims(alg, got) == _cover_dims(alg, covers[0])
    lengths = decomposition_lengths(alg, i)
    assert lengths == tuple(sorted({len(c) for c in covers}))
    assert lengths == ((min_generators(alg, i),) if covers else ())
    return bool(covers)


XYZ = "field 2 / vars x y z / rel x^3 / rel y^2 / rel z^2 / rel y*z"


@pytest.mark.parametrize("text,stuck", [(TRIPLE, 1), (PAIR_N4, 0), (XYZ, 36),
                                        (SOCLE_W3, 205)])
def test_pruned_search_matches_the_reference_on_a_census(text, stuck):
    alg = build(text)
    entries = enumerate_ideals(alg).entries[:-1]  # R is answered without a search
    outcomes = Counter(_matches_reference(alg, e.ideal, _reference_candidates(alg, e.key))
                       for e in entries)
    assert outcomes == Counter({True: len(entries) - stuck, False: stuck})


@pytest.mark.parametrize("text", [TRIPLE, PAIR_N4, XYZ])
def test_every_cover_has_the_same_summand_dims(text):
    # Krull-Schmidt: a cyclic module over a local ring is indecomposable,
    # so all covers of an ideal share their summands up to isomorphism
    alg = build(text)
    for e in enumerate_ideals(alg).entries[:-1]:
        covers = _reference_covers(_reference_candidates(alg, e.key), e.ideal.dim)
        assert len({tuple(_cover_dims(alg, c)) for c in covers}) <= 1


@pytest.mark.parametrize("text", [TRIPLE, XYZ, SOCLE_W3])
def test_census_decompositions_verify(text):
    # build_decomposition closes every generator through cyclic, not from
    # the cyclic table's rows, and verify_decomposition reads the same Rg
    alg = build(text)
    census = complete_census(enumerate_ideals(alg))
    for e in census.entries:
        dec = brute_decompose(alg, e.ideal)
        assert (dec is not None) == e.decomposable
        if dec is not None:
            assert verify_decomposition(alg, e.ideal, dec)
    assert any(e.decomposable for e in census.entries[:-1])


def test_greedy_cover_is_the_first_cover_of_the_depth_first_search():
    # the two reference walks over the vectors of an ideal pin each
    # other: the Gray-code walk's minimum-weight basis, which the lattice
    # is checked against, picks exactly the cover the depth-first search
    # finds first
    sizes = []

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(presentations())
    def check(pres):
        alg = build_algebra(RingPresentation.make(2, pres.vars, pres.relations,
                                                  pres.truncate))
        assume(alg.dim - 1 <= 9)
        keys = [e.key for e in enumerate_ideals(alg).entries[:-1]]  # M among them
        for key in keys:
            assert (packed_first_cover(alg, key)
                    == reference_kernels.reference_first_cover(alg, key)), key
        sizes.append(len(keys))

    check()
    assert sum(n > 20 for n in sizes) >= 8, sizes


def test_lattice_decides_as_the_walk_does():
    # every census entry but R: the lattice's verdict is the Gray-code
    # walk's, and a decomposable entry has mu(I) summands
    seen = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(presentations())
    def check(pres):
        alg = _gf2_ring(pres)
        assume(alg.dim - 1 <= 9)
        census = complete_census(enumerate_ideals(alg))
        for e in census.entries[:-1]:
            assert e.decomposable == (packed_first_cover(alg, e.key) is not None), e.key
            if e.decomposable:
                assert e.lengths == (min_generators(alg, e.ideal),)
            seen[e.decomposable] += 1

    check()
    assert seen[True] >= 5 and seen[False] >= 5, seen


# GF(2)[x,y,z]/(x^3, y^3, z^2, x*z, y*z): dim M 9, 147 ideals, 42 of them cyclic
CENSUS_147 = "field 2 / vars x y z / rel x^3 / rel y^3 / rel z^2 / rel x*z / rel y*z"


def test_census_walks_no_ideal_and_closes_each_cyclic_once(monkeypatch):
    # no vector of an ideal is walked: the package keeps no cover walk,
    # and each cyclic ideal picked is closed once, through ideals.cyclic;
    # the closure is spied on where both its paths start, as a monomial
    # generator never reaches packed_closure
    assert not hasattr(ideals, "packed_first_cover")
    assert not hasattr(oracle, "packed_first_cover")
    alg = build(CENSUS_147)
    closed = []
    close = ideals.ideal_from_generators

    def spy(alg, gens):
        gens = list(gens)
        closed.append(tuple(g.vec for g in gens))
        return close(alg, gens)

    monkeypatch.setattr(ideals, "ideal_from_generators", spy)
    census = complete_census(enumerate_ideals(alg))
    assert oracle_dsc(alg).answer == "no"
    cyclics = sum(e.lengths == (1,) for e in census.entries)  # R among them
    assert census.count == 147 and cyclics == 42
    assert 0 < len(closed) <= cyclics
    assert len(set(closed)) == len(closed)
    assert set(closed) == {(v,) for v in alg._cyclic}


def test_the_picker_tries_no_cyclic_ideal_inside_mj(monkeypatch):
    # MJ is a census ideal, so the cyclic ideals inside it, whose
    # generators reduce to zero modulo MJ, are masked out unread
    alg = build(CENSUS_147)
    lattice = enumerate_ideals(alg).lattice
    mj = lattice.mj
    tried = []
    insert = gf.gf2_insert
    monkeypatch.setattr(gf, "gf2_insert", lambda e, v: tried.append(v) or insert(e, v))
    for k in range(len(lattice.keys)):
        start = len(tried)
        oracle._pick_cover(lattice, k)
        assert all(gf.gf2_reduce(v, mj[k]) for v in tried[start:]), lattice.keys[k]
    assert len(tried) > len(lattice.keys)


def _socle_steps(alg) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    # the ideals inside M stepped up from zero, each I + span(v) for the
    # nonzero v of the reference socle of R/I, mapped to those I
    f = gf.packed_field(2)
    parents = {(): set()}
    layer = [()]
    while layer:
        above = []
        for i in layer:
            soc = reference_kernels.packed_socle(alg, i)
            for combo in range(1, 1 << len(soc)):
                v = 0
                for b, r in enumerate(soc):
                    if combo >> b & 1:
                        v ^= r
                j = tuple(f.rref(list(i) + [v]))
                if j not in parents:
                    parents[j] = set()
                    above.append(j)
                parents[j].add(i)
        layer = above
    return parents


def test_the_walk_down_from_m_is_the_lattice_of_socle_steps(monkeypatch):
    # the Lattice of the walk down from M against a recomputation from
    # scratch: parents by the reference socle, MJ by module_times_ideal,
    # cyclic by mu = 1, below by containment.  The census walks down from
    # R, one step further up: its lattice is this one with R last, above
    # everything, over MR = M and generated by 1.  No Zassenhaus
    # elimination runs in the census, the walk or their decisions
    sizes = []

    def refuse(*args):
        raise AssertionError("vanishing_block called during the census")

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(presentations())
    def check(pres):
        alg = _gf2_ring(pres)
        assume(alg.dim - 1 <= 8)
        ups = _socle_steps(alg)
        m = maximal_ideal(alg).space.basis
        with monkeypatch.context() as patched:
            patched.setattr(gf, "vanishing_block", refuse)
            lattice = oracle._walk(alg, m)
            census = complete_census(enumerate_ideals(alg)).lattice
        keys = lattice.keys
        n = len(keys)
        assert sorted(keys) == sorted(ups)
        assert census.keys == keys + [unit_ideal(alg).space.basis]
        assert [e.rows for e in census.mj] == [e.rows for e in lattice.mj] + [list(m)]
        assert census.gens == lattice.gens + [1]
        assert census.below == lattice.below + [(1 << n) - 1]
        assert census.cyclic == lattice.cyclic | 1 << n
        assert [len(key) for key in keys] == sorted(len(key) for key in keys)
        assert all(lattice.index[key] == k for k, key in enumerate(keys))
        echelons = [gf.Echelon(key) for key in keys]
        for k, key in enumerate(keys):
            inside = [h for h, sub in enumerate(keys) if h != k
                      and not any(gf.gf2_reduce(r, echelons[k]) for r in sub)]
            assert lattice.below[k] == sum(1 << h for h in inside), key
            assert {keys[h] for h in inside if len(keys[h]) == len(key) - 1} == ups[key]
            ideal = Ideal(alg, gf.Subspace(2, alg.dim, key))
            mj = module_times_ideal(alg, ideal)
            assert tuple(lattice.mj[k].rows) == mj.space.basis
            cyclic = ideal.dim - mj.dim == 1
            assert lattice.cyclic >> k & 1 == cyclic
            if cyclic:
                assert tuple(packed_closure(alg, (), [lattice.gens[k]])) == key
        sizes.append(n)

    check()
    assert sum(n > 20 for n in sizes) >= 8, sizes


@pytest.mark.parametrize("text,mdim,count", [
    ("field 2 / vars x y / rel x^4 / rel y^4 / rel x^2*y^2", 11, 245),
    ("field 2 / vars x y / rel x^4 / rel y^4 / rel x^3*y^2", 13, 315),
])
def test_larger_census_rings_agree_with_the_walk(text, mdim, count):
    alg = build(text)
    assert alg.dim - 1 == mdim
    assert oracle_dsc(alg).answer == "no"
    census = complete_census(enumerate_ideals(alg))
    assert census.count == count
    for e in census.entries:
        assert (brute_decompose(alg, e.ideal) is not None) == e.decomposable
    assert sum(not e.decomposable for e in census.entries) > 0


def _presentation_text(pres) -> str:
    rels = " / ".join("rel " + "*".join(f"{v}^{e}" for v, e in zip(pres.vars, r) if e)
                      for r in pres.relations)
    return f"field 2 / vars {' '.join(pres.vars)} / {rels}"


CENSUS_VS_ALONE = ([_presentation_text(pres)
                    for _, pres in sweep_presentations(3, (2, 3, 4), 9)[::15]]
                   + [CENSUS_147, SOCLE_W3])


@pytest.mark.parametrize("text", CENSUS_VS_ALONE)
def test_brute_decompose_alone_returns_the_census_covers(text):
    # the greedy reads the cyclic ideals below J in the census order on
    # every lattice that holds J, so the walk down from J alone, on a
    # fresh algebra, picks the census's cover of J
    alg = build(text)
    census = complete_census(enumerate_ideals(alg))
    for e in census.entries:
        fresh = build(text)
        dec = brute_decompose(fresh, Ideal(fresh, gf.Subspace(2, fresh.dim, e.key)))
        assert getattr(fresh, "_census", None) is None
        gens = None if dec is None else tuple(g.vec for g in dec.generators)
        assert gens == alg._covers[e.key], e.key


STUCK_IDEALS = [(TRIPLE, ("x1 + x3", "x2 + x3")), (XYZ, ("x^2", "x*z")),
                (XYZ, ("x^2", "x*y")), (SOCLE_W3, ("x", "y")),
                (SOCLE_W3, ("x", "y + w3"))]


def test_pruned_search_matches_the_reference_on_random_ideals():
    seen = Counter()

    @settings(max_examples=300, deadline=None)
    @given(presentations(), st.data())
    def check(pres, data):
        alg = build_algebra(RingPresentation.make(2, pres.vars, pres.relations,
                                                  pres.truncate))
        assume(alg.dim - 1 <= 8)
        gens = maximal_ideal_elements(alg, data, data.draw(st.integers(1, 3)))
        i = ideal_from_generators(alg, gens)
        cands = _reference_candidates(alg, i.space.basis)
        # the reference walks every family of candidates; past about 40 of
        # them one ideal can take seconds
        assume(len(cands) <= 32)
        seen[_matches_reference(alg, i, cands)] += 1

    check()
    # both outcomes must occur, or the comparison proves nothing; one
    # random ideal in ten to thirty admits no cover, so explicit ideals
    # without one keep that side filled on every run
    for text, gens in STUCK_IDEALS:
        alg = build(text)
        i = ideal_from_generators(alg, [parse_element(alg, g) for g in gens])
        assert not _matches_reference(alg, i, _reference_candidates(alg, i.space.basis))
        seen[False] += 1
    assert seen[True] >= 100 and seen[False] >= 5, seen


# ---------------------------------------------------------------------------
# verdicts


def test_oracle_yes(pair_n3):
    v = oracle_dsc(pair_n3)
    assert v.answer == "yes"
    assert v.notes == ("all 14 ideals decompose",)


def test_oracle_no_names_a_culprit():
    alg = build(TRIPLE)
    v = oracle_dsc(alg)
    assert v.answer == "no"
    assert v.counterexample is not None
    assert brute_decompose(alg, v.counterexample) is None
    assert "exhaustive search" in v.counterexample_note
    assert v.notes == ("census of 80 ideals",)


def test_oracle_and_classifier_agree_on_corpus_rings():
    for text in (PAIR_N3, PAIR_N4, POWER_SERIES, SQUARE_ZERO_N2, AXIS_SOCLE):
        alg = build(text)
        assert oracle_dsc(alg).answer == classify_dsc(alg).answer == "yes"
    alg = build(TRIPLE)
    assert oracle_dsc(alg).answer == classify_dsc(alg).answer == "no"


def test_oracle_refuses_odd_fields_and_big_rings(monkeypatch):
    with pytest.raises(InfeasibleSizeError, match=r"GF\(3\)"):
        oracle_dsc(build(GF3_MIXED))
    # dim M = 10, past the old default bound of 8; xy, x^6, y^6 has
    # 2 * 6^2 - 2 * 6 + 2 = 62 ideals (see the two axes of length 20 below)
    wide = build(TWO_AXES)
    assert oracle_dsc(wide).answer == classify_dsc(wide).answer == "yes"
    assert enumerate_ideals(wide).count == 62
    # the budget counts the ideals a walk reaches, R among them, so a
    # budget of 61 refuses the census of the same ring
    monkeypatch.setattr(oracle, "IDEAL_BUDGET", 61)
    big = build(TWO_AXES)
    with pytest.raises(InfeasibleSizeError, match="^census infeasible: more than 61 ideals"):
        enumerate_ideals(big)
    assert getattr(big, "_census", None) is None
    monkeypatch.setattr(oracle, "IDEAL_BUDGET", 62)
    assert enumerate_ideals(big).count == 62


def test_cached_census_still_checks_the_bound():
    # the bound is the walk's budget of ideals, checked as the walk goes;
    # max_dim is no bound, and a cached census is read back whatever it
    # says
    alg = build(TRIPLE)  # dim M = 6
    assert enumerate_ideals(alg, 8).count == 80
    assert enumerate_ideals(alg, 5) is alg._census
    assert enumerate_ideals(alg, 0) is alg._census


def test_oracle_decides_past_the_cyclic_table_limit():
    # dim M = 23: the table's limit of 20 no longer bounds the census,
    # and the census reads no entry of the table
    alg = build("field 2 / vars x y / rel x^2 / rel y^12")
    census = complete_census(enumerate_ideals(alg, 1))
    assert oracle_dsc(alg, 1).answer == classify_dsc(alg).answer == "no"
    assert census.count > 23 and length_invariance(census)
    assert getattr(alg, "_cyclic_table", None) is None


@pytest.mark.parametrize("max_dim", [1, 8, 30])
def test_the_cyclic_table_refuses_for_the_census_at_any_budget(max_dim):
    # odd p is the census's one refusal that no ring size lifts; dim M
    # past 20 is no limit of the census (x^23 has the 24 ideals (x^k))
    with pytest.raises(InfeasibleSizeError,
                       match=r"^the census handles GF\(2\) only, not GF\(3\)$"):
        enumerate_ideals(build(GF3_MIXED), max_dim)
    wide = build("field 2 / vars x / truncate 23")  # dim M = 22
    assert enumerate_ideals(wide, max_dim).count == 24


def test_an_ideal_of_odd_p_is_refused_where_its_cover_reads_the_table():
    # with no census cached, brute_decompose and decomposition_lengths
    # walk down from the ideal, and the walk refuses odd p before any
    # GF(2) kernel runs; R = R*1 at every p, with no walk
    alg = build(GF3_MIXED)
    for run in (brute_decompose, decomposition_lengths):
        with pytest.raises(InfeasibleSizeError,
                           match=r"^the census handles GF\(2\) only, not GF\(3\)$"):
            run(alg, maximal_ideal(alg), 30)
    assert getattr(alg, "_covers", {}) == {}
    assert getattr(alg, "_brute_cache", {}) == {}
    assert brute_decompose(alg, unit_ideal(alg), 30).generators == (alg.unit(),)
    assert decomposition_lengths(alg, unit_ideal(alg), 30) == (1,)


# ---------------------------------------------------------------------------
# rings past the old dim-M bound, against classify and hand counts


def test_a_chain_of_dim_161_is_decided_by_its_lattice():
    # GF(2)[x]/(x^161): the ideals are the 162 powers (x^k), k = 0..161,
    # and M = Rx is cyclic
    alg = build("field 2 / vars x / rel x^161")
    assert alg.dim - 1 == 160
    assert enumerate_ideals(alg).count == 162
    assert oracle_dsc(alg).answer == classify_dsc(alg).answer == "yes"
    dec = brute_decompose(alg, maximal_ideal(alg))
    assert dec.length == 1 and verify_decomposition(alg, maximal_ideal(alg), dec)


def test_two_axes_of_length_20_have_2n2_minus_2n_plus_2_ideals():
    # GF(2)[x,y]/(xy, x^n, y^n) with n = 20: the n^2 monomial ideals
    # (x^a, y^b), 1 <= a, b <= n, zero among them; the (n - 1)^2 ideals
    # R(x^a + y^b) = span(x^a + y^b) + (x^(a+1), y^(b+1)), a, b < n; and R
    alg = build("field 2 / vars x y / rel x*y / rel x^20 / rel y^20")
    assert alg.dim - 1 == 38
    census = complete_census(enumerate_ideals(alg))
    assert census.count == 20 ** 2 + 19 ** 2 + 1 == 762
    assert oracle_dsc(alg).answer == classify_dsc(alg).answer == "yes"
    assert all(e.decomposable for e in census.entries)


def test_x5_y5_has_4574_ideals_and_an_ideal_with_no_cover():
    # dim M = 24; the mixed product x*y refutes it for classify
    alg = build("field 2 / vars x y / rel x^5 / rel y^5")
    assert alg.dim - 1 == 24
    census = complete_census(enumerate_ideals(alg))
    assert census.count == 4574 and length_invariance(census)
    verdict = oracle_dsc(alg)
    assert verdict.answer == classify_dsc(alg).answer == "no"
    assert brute_decompose(alg, verdict.counterexample) is None


# every subspace of M is an ideal: 417,200 of them in 8 variables
SQUARE_ZERO_N8 = ("field 2 / vars a b c d e f g h / "
                  + " / ".join(f"rel {u}*{v}" for k, u in enumerate("abcdefgh")
                               for v in "abcdefgh"[k:]))


def test_the_walk_refuses_square_zero_in_8_variables():
    alg = build(SQUARE_ZERO_N8)
    assert alg.dim - 1 == 8
    for run in (lambda: enumerate_ideals(alg), lambda: brute_decompose(alg, maximal_ideal(alg))):
        with pytest.raises(InfeasibleSizeError, match=f"more than {oracle.IDEAL_BUDGET} ideals"):
            run()
    assert getattr(alg, "_census", None) is None and alg._brute_cache == {}


# ---------------------------------------------------------------------------
# the three-summand obstruction


def test_counterexample_construction():
    alg = build(TRIPLE)
    x1, x2, x3 = alg.gens
    j = ideal_from_generators(alg, [x1 + x2, x1 + x3])
    assert refutes(alg, j)
    assert brute_decompose(alg, j) is None


def test_certificate_needs_three_non_simple_summands(pair_n3):
    # off the hypotheses R(x + y) + R(x + z) need not carry it: R x3^2 is
    # simple, and in PAIR_N3 z = x + y makes the sum M = Rx + Ry
    alg = build(TRIPLE)
    x1, x2, x3 = alg.gens
    assert not refutes(alg, ideal_from_generators(alg, [x1 + x2, x1 + x3 ** 2]))
    x, y = pair_n3.gens
    z = x + y
    assert not refutes(pair_n3, ideal_from_generators(pair_n3, [x + y, x + z]))


def test_counterexample_with_rest_summand():
    # pad a triple ring with one extra simple axis
    alg = build("field 2 / vars x1 x2 x3 w / rel x1^3 / rel x2^3 / rel x3^3"
                " / rel x1*x2 / rel x1*x3 / rel x2*x3 / rel w^2"
                " / rel x1*w / rel x2*w / rel x3*w")
    x1, x2, x3, w = alg.gens
    j = ideal_from_generators(alg, [x1 + x2, x1 + x3])
    assert refutes(alg, j)
    assert is_simple(alg, cyclic(alg, w))
    assert brute_decompose(alg, j) is None
