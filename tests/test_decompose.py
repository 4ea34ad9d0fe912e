"""Constructive ideal decomposition: one test per branch, exact traces."""

import pytest

import random
from collections import Counter
from itertools import product
from unittest import mock

from cyclicideals import (CyclicDecomposition, Ideal, InternalContradictionError,
                          Trace, WitnessInvalidError, cyclic, decompose_ideal,
                          find_m_decomposition, gf, ideal_from_generators,
                          maximal_ideal, minimal_exponent, parse_element,
                          semisimple_decompose, unit_ideal,
                          verify_decomposition, zero_ideal)
from cyclicideals import decompose, oracle
from cyclicideals.decompose import _first_outside, _unit_times_power, build_decomposition
import reference_kernels
import test_golden
from conftest import AXIS_SOCLE, POWER_SERIES, build


def ideal_of(alg, *texts):
    return ideal_from_generators(alg, [parse_element(alg, t) for t in texts])


def split(alg, i):
    dec = find_m_decomposition(alg)
    out = decompose_ideal(alg, dec, i)
    assert verify_decomposition(alg, i, out)
    return out


# ---------------------------------------------------------------------------
# the five branches


def test_two_axes_full_maximal_ideal(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x", "y"))
    assert out.trace.branch == "two_axes"
    assert (out.trace.n0, out.trace.m0) == (1, 1)
    assert out.generators == pair_n3.gens
    assert out.trace.dims == (2, 2)
    assert out.simple_flags == (False, False)


def test_diagonal_single_generator(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x+y"))
    assert out.trace.branch == "diagonal"
    assert (out.trace.n0, out.trace.m0) == (2, 2)
    assert out.length == 1
    assert out.generators == (parse_element(pair_n3, "x+y"),)
    assert out.trace.dims == (3,)


def test_diagonal_mixed_exponents(pair_n3):
    # R(x + y^2): the y-exponent bottoms out only at y^3 = 0
    out = split(pair_n3, ideal_of(pair_n3, "x + y^2"))
    assert out.trace.branch == "diagonal"
    assert (out.trace.n0, out.trace.m0) == (2, 3)
    assert out.length == 1
    assert out.generators == (parse_element(pair_n3, "x + y^2"),)


def test_semisimple_socle(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x^2", "y^2"))
    assert out.trace.branch == "semisimple"
    assert out.length == 2
    assert out.simple_flags == (True, True)


def test_semisimple_wins_inside_socle(pair_n3):
    # in the socle but in neither axis nor the simple span: still lines
    out = split(pair_n3, ideal_of(pair_n3, "x^2 + y^2"))
    assert out.trace.branch == "semisimple"
    assert out.length == 1


def test_semisimple_zero_ideal(pair_n3):
    out = split(pair_n3, zero_ideal(pair_n3))
    assert out.trace.branch == "semisimple"
    assert out.length == 0
    assert out.generators == ()


def test_principal_chain(chain4):
    x = chain4.gens[0]
    out = split(chain4, cyclic(chain4, x ** 3))
    assert out.trace.branch == "principal"
    assert out.trace.axis == "x"
    assert out.trace.n0 == 3
    assert out.generators == (x ** 3,)
    assert out.simple_flags == (True,)


def test_principal_recovers_power_from_disguise(chain4):
    x = chain4.gens[0]
    out = split(chain4, cyclic(chain4, x ** 2 + x ** 3))  # unit * x^2
    assert out.trace.branch == "principal"
    assert out.trace.n0 == 2
    assert out.generators == (x ** 2,)


def test_axis_with_correction():
    alg = build(AXIS_SOCLE)
    out = split(alg, ideal_of(alg, "x + y"))
    assert out.trace.branch == "axis"
    assert out.trace.axis == "x"
    assert out.trace.n0 == 1
    assert out.trace.l0 == "y"
    assert out.length == 1
    assert out.trace.dims == (5,)
    assert out.trace.truncated and out.trace.trusted


def test_axis_without_correction():
    alg = build(AXIS_SOCLE)
    out = split(alg, ideal_of(alg, "x^2", "y"))
    assert out.trace.branch == "axis"
    assert (out.trace.n0, out.trace.l0) == (2, "0")
    assert out.trace.dims == (4, 1)
    assert out.simple_flags == (False, True)
    assert out.generators[1] == alg.var("y")


# ---------------------------------------------------------------------------
# truncation honesty


def test_trusted_below_horizon():
    alg = build(POWER_SERIES)  # degree-6 truncation, horizon 5
    x = alg.gens[0]
    out = split(alg, cyclic(alg, x ** 4))
    assert out.trace.truncated and out.trace.trusted
    assert out.trace.n0 == 4


def test_untrusted_at_horizon():
    alg = build(POWER_SERIES)
    x = alg.gens[0]
    out = split(alg, cyclic(alg, x ** 5))
    assert out.trace.truncated and not out.trace.trusted


def test_untruncated_always_trusted(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x+y"))
    assert not out.trace.truncated and out.trace.trusted


# ---------------------------------------------------------------------------
# minimal exponents


def test_minimal_exponent_with_witness():
    alg = build("field 2 / vars x w / rel x^3 / rel x*w / rel w^2")
    dec = find_m_decomposition(alg)
    assert dec.x == alg.var("x") and dec.simples == (alg.var("w"),)
    i = ideal_of(alg, "x^2 + w")
    n, l, gn = minimal_exponent(alg, dec, i, "x")
    assert (n, l, gn) == (2, alg.var("w"), alg.var("x") ** 2)
    n, l, gn = minimal_exponent(alg, dec, ideal_of(alg, "x"), "x")
    assert n == 1 and l.is_zero() and gn == alg.var("x")
    with pytest.raises(ValueError, match="no such exponent"):
        minimal_exponent(alg, dec, i, "y")  # the witness has no y slot


def test_minimal_exponent_vacuous_at_nilpotency(pair_n3):
    # y^3 = 0 lands in any ideal, so the exponent never fails to exist
    dec = find_m_decomposition(pair_n3)
    i = ideal_of(pair_n3, "x + y^2")
    assert minimal_exponent(pair_n3, dec, i, "x")[0] == 2
    n, l, gn = minimal_exponent(pair_n3, dec, i, "y")
    assert n == 3 and l.is_zero() and gn.is_zero()


def _every_ideal(alg):
    """Every proper ideal as its packed echelon rows, one socle line of
    R/I at a time as in the oracle's census, for any p: the lines are
    the socle vectors whose last nonzero coefficient over its basis is 1."""
    f, n, actions = alg.field, alg.dim, alg.action_masks()
    width = n * len(actions)
    seen, frontier = {()}, [()]
    while frontier:
        grown_all = []
        for rows in frontier:
            pivots = {((r & -r).bit_length() - 1) // f.w for r in rows}
            echelon = gf.Echelon(rows)
            block = [sum(f.reduce(masks[k], echelon) << j * n * f.w
                         for j, masks in enumerate(actions)) | 1 << (width + k) * f.w
                     for k in range(1, n) if k not in pivots]
            soc = gf.vanishing_block(alg.p, width, block)
            for k, top in enumerate(soc):
                for cs in product(range(alg.p), repeat=k):
                    v = top
                    for c, r in zip(cs, soc):
                        v = f.addmul(v, c, r)
                    grown = gf.Echelon(rows)
                    f.insert(grown, v)
                    if tuple(grown.rows) not in seen:
                        seen.add(tuple(grown.rows))
                        grown_all.append(tuple(grown.rows))
        frontier = grown_all
    return seen


def _per_exponent_minimal_exponent(alg, dec, i, which):
    """Reference: minimal_exponent with g^n from the tuple product and a
    fresh tuple elimination of the simple span and i for every n; returns
    (n, l, g^n) as tuples."""
    g, p = (dec.x if which == "x" else dec.y).coeffs, alg.p
    ideal = reference_kernels.echelon(i.rows, p)
    gn = alg.unit().coeffs
    for n in range(1, alg.dim + 1):
        gn = reference_kernels.product(alg, gn, g)
        if not any(reference_kernels.reduce_rows(gn, ideal, p)):
            return n, (0,) * alg.dim, gn
        parts = [dec.simple_span.rows, i.rows]
        met = reference_kernels.split_components(gn, parts, alg.dim, p)
        if met is not None:
            return n, tuple((a - b) % p for a, b in zip(met[1], gn)), gn
    raise ValueError("no such exponent")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_minimal_exponent_matches_the_per_exponent_loop(p):
    # every ideal of the decompose benchmark's rings: x^a, y^b, x*y, and
    # a socle variable w on the second
    rels = "rel x*y / rel w^2 / rel x*w / rel y*w"
    seen = Counter()
    for text in (f"field {p} / vars x y / rel x^9 / rel y^9 / rel x*y",
                 f"field {p} / vars x y w / rel x^7 / rel y^11 / {rels}"):
        alg = build(text)
        dec = find_m_decomposition(alg)
        ideals = _every_ideal(alg)
        if p == 2:
            census = oracle.enumerate_ideals(alg, alg.dim)
            assert ideals == {e.key for e in census.entries[:-1]}
        for rows in ideals:
            i = Ideal(alg, gf.Subspace(p, alg.dim, rows), _trusted=True)
            for which in ("x", "y"):
                n, l, gn = minimal_exponent(alg, dec, i, which)
                want = _per_exponent_minimal_exponent(alg, dec, i, which)
                assert (n, l.coeffs, gn.coeffs) == want
                seen[n > 1, l.is_zero()] += 1
    # later exponents, and corrections l, occur
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


# ---------------------------------------------------------------------------
# one witness, many ideals


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_shared_witness_decomposes_as_a_fresh_one(p):
    """Many ideals on one witness: each payload equals the one of a fresh
    algebra and witness, Rx + L and Ry + L are each summed at most once,
    and _general eliminates one [L, i] splitter per ideal."""
    text = (f"field {p} / vars x y w / rel x^5 / rel y^4 / rel x*y"
            " / rel w^2 / rel x*w / rel y*w")
    alg = build(text)
    dec = find_m_decomposition(alg)
    monos = ["x", "x^2", "x^3", "x^4", "y", "y^2", "y^3", "w"]
    rng = random.Random(900 + p)
    drawn = []
    for _ in range(120):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = rng.sample(monos, rng.randint(1, 3))
            gens.append(" + ".join(f"{rng.randrange(1, p)}*{m}" for m in terms))
        drawn.append(gens)

    sums, splits, generals = [], [], []
    real_sum, real_splitter, real_general = gf.subspace_sum, gf.splitter, decompose._general

    def spy_sum(a, b):
        sums.append(a)
        return real_sum(a, b)

    def spy_splitter(parts):
        splits.append(list(parts))
        return real_splitter(parts)

    def spy_general(alg, dec, i, kept):
        before = len(splits)
        out = real_general(alg, dec, i, kept)
        generals.append([s for s in splits[before:] if len(s) == 2])
        assert generals[-1] == [[dec.simple_span, i.space]]
        return out

    shared = []
    with mock.patch.object(gf, "subspace_sum", spy_sum), \
            mock.patch.object(gf, "splitter", spy_splitter), \
            mock.patch.object(decompose, "_general", spy_general):
        for gens in drawn:
            i = ideal_of(alg, *gens)
            if i.dim < alg.dim:
                shared.append((gens, decompose_ideal(alg, dec, i).as_dict()))
    assert len(sums) <= 2 and len(set(sums)) == len(sums)
    assert set(sums) <= {dec.rx.space, dec.ry.space}
    assert len(generals) >= 10

    branches = Counter()
    for gens, payload in shared:
        fresh = build(text)
        i = ideal_of(fresh, *gens)
        assert decompose_ideal(fresh, find_m_decomposition(fresh), i).as_dict() == payload
        branches[payload["trace"]["branch"]] += 1
    assert len(branches) == 5, branches


# ---------------------------------------------------------------------------
# guard rails


def test_witness_must_verify(pair_n3):
    from cyclicideals import MDecomposition
    x, y = pair_n3.gens
    broken = MDecomposition(pair_n3, x + y, y, ())
    with pytest.raises(WitnessInvalidError):
        decompose_ideal(pair_n3, broken, cyclic(pair_n3, x))


def test_rejects_improper_and_foreign(pair_n3, chain4):
    dec = find_m_decomposition(pair_n3)
    with pytest.raises(ValueError, match="not proper"):
        decompose_ideal(pair_n3, dec, unit_ideal(pair_n3))
    with pytest.raises(ValueError, match="mixed"):
        decompose_ideal(pair_n3, dec, zero_ideal(chain4))


def test_semisimple_decompose_requires_killed(pair_n3):
    with pytest.raises(ValueError, match="not semisimple"):
        semisimple_decompose(pair_n3, cyclic(pair_n3, pair_n3.gens[0]))


def test_build_decomposition_refuses_an_overlap(pair_n3):
    # R(x+y) = span{x+y, x^2, y^2} meets Rx in x^2: 3 + 2 > dim M = 4
    x, y = pair_n3.gens
    with pytest.raises(InternalContradictionError, match="failed verification"):
        build_decomposition(pair_n3, maximal_ideal(pair_n3), [x + y, x], "two_axes")


SOCLE_AXES = "field 2 / vars x y w / rel x^5 / rel y^4 / rel x*y / rel w^2 / rel x*w / rel y*w"


def test_general_position_sums_the_axes_only_for_the_diagonal():
    """A two-axis split whose dims fill i goes to build_decomposition,
    whose certificate is direct_onto, no direct sum; only the diagonal
    branch sums the axes, once, before its own certificate."""
    alg = build(SOCLE_AXES)
    dec = find_m_decomposition(alg)
    calls, real_sum = [], gf.direct_sum

    def spy_sum(p, ambient, parts):
        calls.append(len(parts))
        return real_sum(p, ambient, parts)

    seen = Counter()
    for gens in [("x^2", "y^2"), ("x", "y^3", "w"), ("x^3", "y"), ("x + y",),
                 ("x^2 + y^2",), ("x + y^2 + w",)]:
        i = ideal_of(alg, *gens)
        calls.clear()
        with mock.patch.object(gf, "direct_sum", spy_sum):
            branch = decompose_ideal(alg, dec, i).trace.branch
        seen[branch] += 1
        assert len(calls) == {"two_axes": 0, "diagonal": 1}[branch], (gens, branch)
    assert seen == {"two_axes": 3, "diagonal": 3}


def test_a_two_axis_split_that_escapes_i_is_refused(monkeypatch):
    # R x^2 + R(y^2 + w) has dim 4 + 2 = dim i, but w is outside i: the
    # certificate, not a separate check, refuses it
    alg = build(SOCLE_AXES)
    dec = find_m_decomposition(alg)
    i = ideal_of(alg, "x^2", "y^2")
    assert decompose_ideal(alg, dec, i).trace.branch == "two_axes"
    w, real = parse_element(alg, "w"), decompose._exponent

    def shifted(alg, dec, i, which, split):
        n, l, gn = real(alg, dec, i, which, split)
        return (n, l + w, gn) if which == "y" else (n, l, gn)

    monkeypatch.setattr(decompose, "_exponent", shifted)
    with pytest.raises(InternalContradictionError, match="failed verification"):
        decompose_ideal(alg, dec, i)


def test_an_axis_correction_outside_l_is_refused(monkeypatch):
    # l0 = y + x^3 is no element of L = Ry, as x kills y but not x^3; the
    # generator x + y + x^3 still spans i, so only the check on l0 sees it
    alg = build(AXIS_SOCLE)
    dec = find_m_decomposition(alg)
    i = ideal_of(alg, "x + y")
    assert decompose_ideal(alg, dec, i).trace.l0 == "y"
    x3, real = parse_element(alg, "x^3"), decompose.minimal_exponent

    def shifted(alg, dec, i, which="x"):
        n, l, gn = real(alg, dec, i, which)
        return n, l + x3, gn

    monkeypatch.setattr(decompose, "minimal_exponent", shifted)
    with pytest.raises(InternalContradictionError, match="axis correction outside L"):
        decompose_ideal(alg, dec, i)


@pytest.mark.parametrize("p, gens", [
    (2, ("x^2 + y^2",)),
    (2, ("x^3 + y^2 + w", "x^4")),
    (3, ("x^2 + 2*x^3 + y^2",)),
    (5, ("3*x^3 + 2*y^2 + w",)),
])
def test_the_diagonal_branch_closes_neither_axis_component(p, gens):
    # the exponents of zx and zy come from products with the witness's
    # powers, so neither component is closed: alg._cyclic gains no entry
    alg = build(SOCLE_AXES.replace("field 2", f"field {p}"))
    dec = find_m_decomposition(alg)
    i = ideal_of(alg, *gens)
    before = set(alg._cyclic)
    out = decompose_ideal(alg, dec, i)
    assert out.trace.branch == "diagonal"
    comps = gf.split_components(out.generators[0].vec,
                                [dec.rx.space, dec.ry.space, dec.simple_span])
    for z in comps[:2]:
        assert z and z not in before and z not in alg._cyclic


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unit_times_power_reads_the_exponent_off_the_chain(p):
    alg = build(f"field {p} / vars x y / rel x^5 / rel y^3 / rel x*y")
    dec = find_m_decomposition(alg)
    x, top = dec.x, len(dec.x_powers)
    assert top == 5  # x^5 = 0
    rng = random.Random(600 + p)
    for k in range(1, top):
        for _ in range(5):
            unit = alg.unit().scale(rng.randrange(1, p)) + x * alg.element(
                [rng.randrange(p) for _ in range(alg.dim)])
            z = unit * x ** k
            assert [_unit_times_power(alg, z, dec.x_powers, m) for m in range(1, top)] == [
                m == k for m in range(1, top)]


def test_verify_decomposition_counts_dimensions(pair_n3):
    x, y = pair_n3.gens
    m = ideal_of(pair_n3, "x", "y")
    # {x+y, x} spans M but 3 + 2 > 4: not a direct sum
    bad = CyclicDecomposition(m, (x + y, x), (False, False), Trace(branch="two_axes"))
    assert not verify_decomposition(pair_n3, m, bad)
    # right generators, wrong flags
    mislabeled = CyclicDecomposition(m, (x, y), (True, False), Trace(branch="two_axes"))
    assert not verify_decomposition(pair_n3, m, mislabeled)


def _first_outside_by_sweep(alg, i, avoid):
    """Reference: walk every combination sum d_k rows[k] of i's basis in
    the order of its p-adic code sum d_k p^k."""
    p, rows = alg.p, i.rows
    for code in range(1, p ** len(rows)):
        v = [0] * alg.dim
        c = code
        for r in rows:
            d = c % p
            c //= p
            if d:
                v = [(a + d * b) % p for a, b in zip(v, r)]
        if not avoid.contains(v):
            return alg.element(v)
    return None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_first_outside_matches_element_sweep(p):
    alg = build(f"field {p} / vars x y / rel x^3 / rel y^2")  # dim M = 5
    rng = random.Random(700 + p)

    def vec():
        return [0] + [rng.randrange(p) for _ in range(alg.dim - 1)]

    for _ in range(40):
        i = ideal_from_generators(
            alg, [alg.element(vec()) for _ in range(rng.randrange(1, 3))])
        avoid = gf.Subspace.span(p, alg.dim, [vec() for _ in range(rng.randrange(0, 5))])
        for a in (avoid, gf.subspace_sum(avoid, i.space)):
            got = _first_outside(alg, i, a)
            want = _first_outside_by_sweep(alg, i, a)
            assert (got is None) == (want is None)
            assert got is None or got.coeffs == want.coeffs


@pytest.mark.parametrize("text", [
    "field 2 / vars x y w / rel x^5 / rel y^4 / rel x*y / rel w^2 / rel x*w / rel y*w",
    "field 3 / vars x y w / rel x^4 / rel y^4 / rel x*y / rel w^2 / rel x*w / rel y*w",
    "field 5 / vars x y / rel x^4 / rel y^3 / rel x*y",
])
def test_ideal_simple_part_is_the_projection(text):
    """The simples an ideal keeps are i meet L: with J = (i + Rx + Ry)
    meet L, the span of the L-parts of i's rows, i meet J = i meet L."""
    alg = build(text)
    dec = find_m_decomposition(alg)
    rx, ry, span = dec.rx.space, dec.ry.space, dec.simple_span
    rng = random.Random(800 + alg.p)
    for _ in range(40):
        gens = [alg.element([0] + [rng.randrange(alg.p) for _ in range(alg.dim - 1)])
                for _ in range(rng.randrange(1, 4))]
        i = ideal_from_generators(alg, gens)
        lparts = [alg.field.unpack(gf.split_components(r, [rx, ry, span])[2], alg.dim)
                  for r in i.space.basis]
        reach = gf.subspace_sum(gf.subspace_sum(i.space, rx), ry)
        j = gf.subspace_intersect(reach, span)
        assert j == gf.Subspace.span(alg.p, alg.dim, lparts)
        assert gf.subspace_intersect(i.space, j) == gf.subspace_intersect(i.space, span)


def test_length_never_exceeds_witness_bound(pair_n3):
    dec = find_m_decomposition(pair_n3)
    bound = len(dec.summands())
    for gens in (["x"], ["x+y"], ["x^2", "y^2"], ["x", "y"], ["x^2"], ["y"]):
        out = split(pair_n3, ideal_of(pair_n3, *gens))
        assert out.length <= bound


def test_as_dict_trace_payload(pair_n3):
    out = split(pair_n3, ideal_of(pair_n3, "x+y"))
    d = out.as_dict()
    assert d["length"] == 1
    assert d["generators"] == ["x + y"]
    assert d["trace"]["branch"] == "diagonal"
    assert d["trace"]["dims"] == [3]


# ---------------------------------------------------------------------------
# exponents are chain positions: no branch solves for a power


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("text", [
    "vars x y / rel x^9 / rel y^9 / rel x*y",
    "vars x y w / rel x^7 / rel y^11 / rel x*y / rel w^2 / rel x*w / rel y*w",
])
def test_principal_exponent_is_the_chain_position(p, text):
    # the decompose workload's rings: every nonzero R g^n of either axis
    alg = build(f"field {p} / {text}")
    dec = find_m_decomposition(alg)
    for which, g, rg in (("x", dec.x, dec.rx), ("y", dec.y, dec.ry)):
        assert g == alg.var(which)
        for n in range(1, rg.dim + 1):
            out = split(alg, cyclic(alg, g ** n))
            assert out.trace.branch == "principal" and out.trace.axis == which
            assert out.trace.n0 == n and out.generators == (g ** n,)


def test_diagonal_cases_solve_for_no_power(pair_n3):
    test_diagonal_single_generator(pair_n3)
    test_diagonal_mixed_exponents(pair_n3)
    test_as_dict_trace_payload(pair_n3)


def test_decompose_goldens_solve_for_no_power(tmp_path):
    paths = test_golden._ring_paths(tmp_path)
    cases = [c for c in test_golden.CASES if c[0].startswith("decompose-")]
    assert len(cases) == len(test_golden.DECOMPOSE)
    for stem, argv, code in cases:
        want = (test_golden.GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
        assert test_golden._run(argv, paths) == (code, want), stem
