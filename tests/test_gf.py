"""Exact linear algebra over GF(p).

Hand-worked fixtures pin the canonical forms; seeded sweeps check the
algebraic laws; the packed GF(2) path is differential-tested against
the tuple reference kernels of tests/reference_kernels.py.  The package
computes no null space; the ones here come from those reference
kernels, checked against the packed echelon forms.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclicideals import gf
import reference_kernels


# ---------------------------------------------------------------------------
# hand-worked canonical forms


def _kernel(rows, ncols, p):
    """The right null space of the matrix with these tuple rows, from the
    tuple reference kernel, as a Subspace."""
    return gf.Subspace.span(p, ncols, reference_kernels.kernel(rows, ncols, p))


def test_rref_gf3_hand():
    # over GF(3): 2*(2,1) = (1,2) and (1,2) spans both rows, rank 1
    assert gf.rref_rows([(2, 1), (1, 2)], 3, 2) == ((1, 2),)


def test_rref_gf2_hand():
    got = gf.rref_rows([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 2, 3)
    assert got == ((1, 0, 1), (0, 1, 1))


def test_rref_pivots_monic_and_cleared():
    rows = gf.rref_rows([(2, 1, 1, 0), (1, 2, 0, 1), (0, 0, 2, 2)], 3, 4)
    pivots = [next(j for j, c in enumerate(r) if c) for r in rows]
    assert pivots == sorted(pivots)
    for r, piv in zip(rows, pivots):
        assert r[piv] == 1
        # every pivot column is zero in the other rows
        assert all(s[piv] == 0 for s in rows if s is not r)


def test_kernel_hand_gf2():
    # v0+v1 = 0 and v1+v2 = 0 force v0 = v1 = v2
    rows = [(1, 1, 0), (0, 1, 1)]
    assert _kernel(rows, 3, 2).rows == ((1, 1, 1),)


def test_kernel_hand_gf3():
    assert _kernel([(1, 2)], 2, 3).rows == ((1, 1),)  # 1 + 2*1 = 3 = 0


def test_left_kernel_rows_kill_matrix():
    rows = [(1, 1, 0), (1, 1, 0), (0, 1, 1)]
    lk = reference_kernels.left_kernel(rows, 3, 2)
    assert len(lk) == 1
    for a in lk:
        combo = [0, 0, 0]
        for c, row in zip(a, rows):
            combo = [(x + c * y) % 2 for x, y in zip(combo, row)]
        assert not any(combo)


def _meets(points, w, u):
    """Some v in (point + w) meet u for every point, on tuples: the
    u-component of the point under gf.splitter([w, u]), prepared once."""
    f, (split, _) = w.field, gf.splitter([w, u])
    got = [split(f.pack(point)) for point in points]
    return [None if c is None else f.unpack(c[1], w.ambient) for c in got]


def test_affine_meet_hand():
    w = gf.Subspace.span(2, 3, [(0, 1, 0)])
    u = gf.Subspace.span(2, 3, [(1, 1, 0)])
    assert _meets([(1, 0, 0), (0, 1, 0), (0, 0, 1)], w, u) == [(1, 1, 0), (0, 0, 0), None]


def test_affine_meet_miss():
    w = gf.Subspace.span(2, 3, [(0, 1, 0)])
    u = gf.Subspace.span(2, 3, [(0, 0, 1)])
    assert _meets([(1, 0, 0)], w, u) == [None]


def test_split_components_hand():
    parts = [gf.Subspace.span(2, 3, [(1, 0, 0)]),
             gf.Subspace.span(2, 3, [(0, 1, 0), (0, 0, 1)])]
    got = _split((1, 1, 1), parts)
    assert got == [(1, 0, 0), (0, 1, 1)]


def test_split_components_outside():
    parts = [gf.Subspace.span(2, 3, [(1, 0, 0)])]
    assert _split((1, 1, 0), parts) is None
    # a packed row has no length; one with a field past the ambient is refused
    for wide in [(1, 0, 0, 1), (0, 0, 0, 0, 1)]:
        with pytest.raises(ValueError, match="ambient mismatch"):
            gf.split_components(gf.packed_field(2).pack(wide), parts)
    with pytest.raises(ValueError, match="ambient mismatch"):
        gf.split_components(gf.packed_field(3).pack((0, 0, 0, 2)),
                            [gf.Subspace.span(3, 3, [(1, 0, 0)])])


def _split(v, parts):
    """gf.split_components on a tuple v, its packed components unpacked."""
    f, n = parts[0].field, parts[0].ambient
    got = gf.split_components(f.pack(v), parts)
    return None if got is None else [f.unpack(c, n) for c in got]


def _solve(rows, target, p):
    """reference_kernels.solve_packed on tuple rows and target."""
    f = gf.packed_field(p)
    got = reference_kernels.solve_packed(p, len(target), [f.pack(r) for r in rows], f.pack(target))
    return None if got is None else f.unpack(got, len(rows))


def test_solve_combination_hand():
    got = _solve([(1, 2), (0, 1)], (2, 2), 3)
    assert got == (2, 1)
    assert _solve([(1, 0)], (0, 1), 2) is None
    # empty row list spans only zero
    assert _solve([], (0, 0), 5) == ()
    assert _solve([], (1,), 5) is None


def test_subspace_sum_and_intersect_hand():
    e1 = (1, 0, 0)
    e2 = (0, 1, 0)
    e3 = (0, 0, 1)
    a = gf.Subspace.span(2, 3, [e1, e2])
    b = gf.Subspace.span(2, 3, [e2, e3])
    assert gf.Subspace.span(2, 3, a.rows + b.rows).dim == 3
    assert gf.subspace_intersect(a, b).rows == (e2,)
    c = gf.Subspace.span(2, 3, [(0, 1, 1)])
    assert gf.subspace_intersect(a, c).dim == 0


def test_subspace_ambient_mismatch():
    a = gf.Subspace.span(2, 3, [(1, 0, 0)])
    b = gf.Subspace.span(2, 2, [(1, 0)])
    with pytest.raises(ValueError, match="ambient mismatch"):
        gf.splitter([a, b])


# ---------------------------------------------------------------------------
# packed GF(2) path vs the generic eliminator


def _generic_rref(vectors, p, ncols):
    return tuple(row for _, row in reference_kernels.echelon(vectors, p))


def test_packed_matches_generic_gf2():
    rng = random.Random(20260814)
    for _ in range(400):
        n = rng.randrange(1, 9)
        k = rng.randrange(0, 7)
        vecs = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
        assert gf.rref_rows(vecs, 2, n) == _generic_rref(vecs, 2, n)


def test_gf2_insert_reports_dependence():
    rows = gf.Echelon()
    assert gf.gf2_insert(rows, 0b011)
    assert gf.gf2_insert(rows, 0b110)
    assert not gf.gf2_insert(rows, 0b101)  # xor of the first two
    assert not gf.gf2_insert(rows, 0)


@st.composite
def echelon_runs(draw):
    """A prime, a width and a run of steps on one growing basis: ("insert",
    v), ("reduce", v) or ("rewrite", pick, tail).  The run opens with a
    vector of two nonzero coordinates and a rewrite, so every run has an
    insert whose place must change an earlier row."""
    p = draw(st.sampled_from([2, 3, 5, 2 ** 31 - 1]))
    n = draw(st.integers(2, 24))
    coeff = st.integers(0, p - 1)
    vec = st.lists(coeff, min_size=n, max_size=n)
    a = draw(st.integers(0, n - 2))
    b = draw(st.integers(a + 1, n - 1))
    first = [0] * n
    first[a], first[b] = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
    step = st.one_of(st.tuples(st.just("insert"), vec), st.tuples(st.just("reduce"), vec),
                     st.tuples(st.just("rewrite"), st.integers(0, 10 ** 6), vec))
    steps = draw(st.lists(step, max_size=3 * n))
    return p, n, [("insert", first), ("rewrite", 0, [0] * n)] + steps


def _check_echelon(e, basis, f, n):
    """e holds the reference basis, its pivot mask and a union nonzero in
    exactly the fields where some row is."""
    assert [f.unpack(r, n) for r in e.rows] == [row for _, row in basis]
    assert e.mask == sum(1 << piv * f.w for piv, _ in basis)
    assert [e.union >> j * f.w & f.one != 0 for j in range(n)] == \
        [any(row[j] for _, row in basis) for j in range(n)]
    if f.p == 2:
        assert e.union == sum(1 << j for j in range(n) if any(row[j] for _, row in basis))
    # the odd-p kernels form the pivot fields on their first reduce and
    # grow them in place; the GF(2) kernels never form them
    assert e.fields == (None if f.p == 2 else e.mask * f.one)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(echelon_runs())
def test_echelon_kernels_match_the_reference_on_a_growing_basis(run):
    p, n, steps = run
    f = gf.packed_field(p)
    e, basis = gf.Echelon(), []
    rewrites = 0
    for kind, *args in steps:
        if kind == "reduce":
            v = args[0]
            want = reference_kernels.reduce_rows(reference_kernels.normalize(v, p), basis, p)
            assert f.unpack(f.reduce(f.pack(v), e), n) == want
            continue
        if kind == "rewrite":
            # a vector pivoted at a non-pivot column where an earlier row
            # is nonzero: placing it must rewrite that row
            pick, tail = args
            pivots = {piv for piv, _ in basis}
            spots = [j for piv, row in basis for j in range(piv + 1, n)
                     if row[j] and j not in pivots]
            if not spots:
                continue
            j = spots[pick % len(spots)]
            v = [0] * j + [1] + list(tail[j + 1:])
            before = list(basis)
        else:
            v, before = args[0], None
        want = reference_kernels.insert_row(basis, reference_kernels.normalize(v, p), p)
        assert f.insert(e, f.pack(v)) == want
        if before is not None:
            now = dict(basis)
            rewritten = [piv for piv, old in before if old[j]]
            assert want and rewritten and all(now[piv][j] == 0 for piv in rewritten)
            rewrites += 1
        _check_echelon(e, basis, f, n)
    assert rewrites >= 1
    # a copy grows apart from the basis it was taken from
    grown = e.copy()
    assert grown.fields == e.fields
    f.insert(grown, f.pack([1] * n))
    _check_echelon(e, basis, f, n)
    assert gf.Echelon(e.rows).mask == e.mask
    assert grown.fields == (None if p == 2 else grown.mask * f.one)


@pytest.mark.parametrize("p", [3, 2 ** 31 - 1])
def test_an_echelon_built_from_rows_forms_its_pivot_fields_once(p):
    # the first reduce forms mask * (2^W - 1) and keeps it; a later
    # reduce reads it, and a place grows it by the new pivot's field
    f = gf.packed_field(p)
    e = gf.Echelon(f.rref([f.pack([1, 2, 0, 0]), f.pack([0, 0, 1, 1])]))
    assert e.fields is None
    v = f.pack([1, 1, 1, 0])
    assert f.reduce(v, e) == f.pack([0, p - 1, 0, p - 1])
    assert e.fields == e.mask * f.one
    formed = e.fields
    assert f.reduce(v, e) == f.pack([0, p - 1, 0, p - 1])
    assert e.fields is formed  # read, not formed again
    assert f.insert(e, v)
    assert e.fields == e.mask * f.one == gf.Echelon(e.rows).mask * f.one


def test_echelons_are_equal_by_rows():
    # mask and union follow from the rows; an Echelon grows in place, so
    # it has no hash
    e = gf.Echelon([0b011, 0b100])
    assert e == gf.Echelon(e.rows) == e.copy()
    grown = e.copy()
    assert gf.gf2_insert(grown, 0b1000)
    assert grown != e and e != e.rows
    with pytest.raises(TypeError):
        hash(e)


@given(st.integers(min_value=0, max_value=2 ** 12 - 1), st.integers(min_value=12, max_value=16))
def test_pack_unpack_roundtrip(m, n):
    assert gf.pack_vec(gf.unpack_vec(m, n)) == m


@given(st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
                max_size=5),
       st.sampled_from([2, 3, 5]))
def test_rref_idempotent(vectors, p):
    once = gf.rref_rows(vectors, p, 3)
    assert gf.rref_rows(once, p, 3) == once


@given(st.lists(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
                max_size=5),
       st.lists(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
                max_size=5))
def test_rref_span_invariance_gf3(u, v):
    # the canonical basis depends on the span only, not its presentation
    both = gf.rref_rows(u + v, 3, 4)
    assert gf.rref_rows(list(both), 3, 4) == both
    assert gf.rref_rows(v + u, 3, 4) == both


# ---------------------------------------------------------------------------
# seeded law sweeps (the large acceptance sweep lives in test_acceptance)


def _random_subspace(rng, p, n):
    k = rng.randrange(0, n + 1)
    vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
    return gf.Subspace.span(p, n, vecs)


@pytest.mark.parametrize("p", [2, 3])
def test_rank_nullity_sweep(p):
    rng = random.Random(1000 + p)
    for _ in range(300):
        nrows = rng.randrange(0, 6)
        ncols = rng.randrange(1, 7)
        rows = [tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(nrows)]
        rank = len(gf.rref_rows(rows, p, ncols))
        ker = _kernel(rows, ncols, p)
        assert rank + ker.dim == ncols
        for v in ker.rows:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) % p == 0


@pytest.mark.parametrize("p", [2, 3])
def test_modular_dimension_law_sweep(p):
    rng = random.Random(2000 + p)
    for _ in range(300):
        n = rng.randrange(1, 7)
        a = _random_subspace(rng, p, n)
        b = _random_subspace(rng, p, n)
        s = gf.Subspace.span(p, n, a.rows + b.rows)
        i = gf.subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert a.contains_subspace(i) and b.contains_subspace(i)
        assert s.contains_subspace(a) and s.contains_subspace(b)


@pytest.mark.parametrize("p", [2, 3])
def test_affine_meet_sweep(p):
    """Returned points satisfy both memberships; None answers are
    re-checked by brute force over the (small) u."""
    rng = random.Random(3000 + p)
    for _ in range(200):
        n = rng.randrange(1, 5)
        w = _random_subspace(rng, p, n)
        u = _random_subspace(rng, p, n)
        point = tuple(rng.randrange(p) for _ in range(n))
        [got] = _meets([point], w, u)
        if got is not None:
            assert u.contains(got)
            diff = tuple((a - b) % p for a, b in zip(got, point))
            assert w.contains(diff)
        else:
            for coeffs in _all_vectors(p, u.dim):
                v = _combine(coeffs, u.rows, p, n)
                diff = tuple((a - b) % p for a, b in zip(v, point))
                assert not w.contains(diff)


def _all_vectors(p, k):
    if k == 0:
        yield ()
        return
    for rest in _all_vectors(p, k - 1):
        for c in range(p):
            yield (c,) + rest


def _combine(coeffs, rows, p, n):
    out = [0] * n
    for c, r in zip(coeffs, rows):
        for j, x in enumerate(r):
            out[j] = (out[j] + c * x) % p
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3])
def test_split_components_sweep(p):
    # independent parts built from disjoint pivot groups of one RREF basis
    rng = random.Random(4000 + p)
    for _ in range(200):
        n = rng.randrange(2, 6)
        s = _random_subspace(rng, p, n)
        if s.dim < 2:
            continue
        cut = rng.randrange(1, s.dim)
        parts = [gf.Subspace.span(p, n, s.rows[:cut]),
                 gf.Subspace.span(p, n, s.rows[cut:])]
        coeffs = [rng.randrange(p) for _ in range(s.dim)]
        v = _combine(coeffs, s.rows, p, n)
        got = _split(v, parts)
        assert got is not None
        total = [0] * n
        for comp, part in zip(got, parts):
            assert part.contains(comp)
            total = [(a + b) % p for a, b in zip(total, comp)]
        assert tuple(total) == v


@pytest.mark.parametrize("p", [2, 3])
def test_solve_combination_sweep(p):
    rng = random.Random(5000 + p)
    for _ in range(200):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 5)
        rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
        coeffs = [rng.randrange(p) for _ in range(k)]
        target = _combine(coeffs, rows, p, n)
        got = _solve(rows, target, p)
        assert got is not None
        assert _combine(got, rows, p, n) == target


# ---------------------------------------------------------------------------
# the row-kernel solves against the tuple eliminations of reference_kernels:
# the same particular solutions, not only valid ones


def _dense_kernel(rows, ncols, p):
    """Reference: back-substitution from the RREF of the rows."""
    reduced = gf.Subspace.span(p, ncols, rows)
    pivots = reduced.pivots
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, piv in zip(reduced.rows, pivots):
            if r[f]:
                v[piv] = (-r[f]) % p
        basis.append(v)
    return gf.Subspace.span(p, ncols, basis)


def _overlapping(rng, p, n):
    """A subspace that shares a random vector with a second one."""
    a, b = _random_subspace(rng, p, n), _random_subspace(rng, p, n)
    common = tuple(rng.randrange(p) for _ in range(n))
    return (gf.Subspace.span(p, n, a.rows + (common,)),
            gf.Subspace.span(p, n, b.rows + (common,)))


@pytest.mark.parametrize("p", [2, 3, 5, 2 ** 31 - 1])
def test_splitter_meet_is_the_intersection(p):
    """The meet splitter returns, read off the tags of the last part's
    rows that drop out, is that part's intersection with the sum of the
    others, against the tuple Zassenhaus reference: a meet b for parts
    [b, a], which subspace_intersect returns too, and a meet (b + c) for
    [b, c, a] with b + c direct."""
    rng = random.Random(6500 + p)
    overlaps = 0
    for _ in range(200):
        n = rng.randrange(1, 7)
        a, b = _overlapping(rng, p, n) if rng.randrange(2) else (
            _random_subspace(rng, p, n), _random_subspace(rng, p, n))
        want = reference_kernels.intersect(a.rows, b.rows, n, p)
        assert gf.splitter([b, a])[1].rows == gf.subspace_intersect(a, b).rows == want
        overlaps += len(want) > 0
        c = _random_subspace(rng, p, n)
        bc = reference_kernels.echelon(b.rows + c.rows, p)
        if len(bc) == b.dim + c.dim:
            want = reference_kernels.intersect(a.rows, [r for _, r in bc], n, p)
            assert gf.splitter([b, c, a])[1].rows == want
    assert overlaps >= 50, overlaps


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tagged_solves_match_dense_reference(p):
    rng = random.Random(6000 + p)
    meets_overlap = splits_overlap = 0
    for _ in range(300):
        n = rng.randrange(1, 7)
        w, u = _overlapping(rng, p, n) if rng.randrange(2) else (
            _random_subspace(rng, p, n), _random_subspace(rng, p, n))
        meets_overlap += gf.subspace_intersect(w, u).dim > 0
        point = tuple(rng.randrange(p) for _ in range(n))
        # one preparation answers every point: the coset of a point of
        # w + u always meets u, a random point's seldom does
        near = _combine([rng.randrange(p) for _ in range(w.dim + u.dim)],
                        w.rows + u.rows, p, n)
        points = [point, near, tuple((a + b) % p for a, b in zip(near, point))]
        # the meet is the tag of [w|0] and [u|u]
        tagged = [r + (0,) * n for r in w.rows] + [r + r for r in u.rows]
        assert _meets(points, w, u) == [reference_kernels.tagged_solve(tagged, v, p, n, n)
                                        for v in points]

        parts = [_random_subspace(rng, p, n) for _ in range(rng.randrange(1, 4))]
        total = gf.Subspace.span(p, n, [r for s in parts for r in s.rows])
        splits_overlap += total.dim < sum(s.dim for s in parts)
        inside = _combine([rng.randrange(p) for _ in range(total.dim)], total.rows, p, n)
        for v in (inside, point):
            assert _split(v, parts) == reference_kernels.split_components(
                v, [s.rows for s in parts], n, p)

        k = rng.randrange(1, 6)
        rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
        target = _combine([rng.randrange(p) for _ in range(k)], rows, p, n)
        for t in (target, point):
            assert _solve(rows, t, p) == reference_kernels.solve_combination(rows, t, p)
    # the sweep reaches the cases where a particular solution is a choice
    assert meets_overlap > 50 and splits_overlap > 20


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernels_match_back_substitution(p):
    rng = random.Random(7000 + p)
    for _ in range(300):
        nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 7)
        rows = [tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(nrows)]
        assert _kernel(rows, ncols, p) == _dense_kernel(rows, ncols, p)
        left = reference_kernels.left_kernel(rows, ncols, p)
        assert gf.Subspace.span(p, nrows, left) == _dense_kernel(
            reference_kernels.transpose(rows, ncols), nrows, p)
