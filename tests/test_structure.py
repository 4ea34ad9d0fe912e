"""Witness search, the DSC verdict, products, and the prime spectrum."""

import ast
import inspect
import random
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclicideals import (MDecomposition, brute_decompose,
                          canonical_variable_split, classify_dsc,
                          classify_product, cyclic, find_m_decomposition,
                          ideal_from_generators, m_decomposition_problems,
                          oracle_dsc, parse_element, parse_presentation,
                          spec_classify, verify_decomposition,
                          verify_m_decomposition, WitnessDoesNotLiftError)
from cyclicideals import gf, ideals, oracle, structure
from cyclicideals.corpus import corpus_text, sweep_presentations
from cyclicideals.ideals import (is_simple, killed_by_m, maximal_ideal, min_generators,
                                 module_times_ideal, packed_cyclic_table, zero_ideal)
from cyclicideals.rings import Element, RingPresentation, build_algebra
from conftest import (AXIS_SOCLE, CHAIN4, GF3_MIXED, MIXED_PROOF, PAIR_N3,
                      POWER_SERIES, SQUARE_ZERO_N2, SQUARE_ZERO_N3, TWO_AXES,
                      QuotientAlgebra, build, build_pres, certificate_note,
                      mixed_product, presentations, reference_annihilator)
import reference_kernels
from reference_kernels import is_principal_ideal_ring, packed_first_cover


# ---------------------------------------------------------------------------
# principal ideal ring test


def test_pir(pair_n3, chain4):
    assert is_principal_ideal_ring(chain4)
    assert not is_principal_ideal_ring(pair_n3)
    x = pair_n3.gens[0]
    q = QuotientAlgebra(pair_n3, reference_annihilator(pair_n3, x))
    assert is_principal_ideal_ring(q)


# ---------------------------------------------------------------------------
# witness search


def test_canonical_split_pair(pair_n3):
    split = canonical_variable_split(pair_n3)
    assert split is not None
    assert [g for g, _ in split] == list(pair_n3.gens)
    assert [c.dim for _, c in split] == [2, 2]


def test_canonical_split_fails_on_overlap():
    # x*y survives, so Rx and Ry share it
    alg = build("field 2 / vars x y / rel x^2 / rel y^2")
    assert canonical_variable_split(alg) is None


# Reference: the full-closure variable split, which closes every variable
# image before it looks for an overlap.


def _reference_variable_split(alg):
    parts, seen = [], set()
    for g in alg.gens:
        if g.is_zero():
            continue
        c = cyclic(alg, g)
        if c.space not in seen:
            seen.add(c.space)
            parts.append((g, c))
    total = gf.direct_sum(alg.p, alg.dim, [c.space for _, c in parts])
    return parts if total is not None and total.dim == alg.dim - 1 else None


def test_split_matches_the_full_closure_reference_on_the_sweep_family():
    for p in (2, 3):
        for _, pres in sweep_presentations(3, (2, 3, 4), 11):
            alg = build_algebra(RingPresentation.make(p, pres.vars, pres.relations))
            assert canonical_variable_split(alg) == _reference_variable_split(alg)


THREE_AXES = ("field 2 / vars x y z / rel x^3 / rel y^3 / rel z^2"
              " / rel x*y / rel x*z / rel y*z")


@pytest.mark.parametrize("text, gens, deduped", [
    ("field 2 / vars x y / rel x^2 / rel y^4 / rel x*y", ("x + y^2",), False),
    (THREE_AXES, ("x^2 + z",), False),
    (PAIR_N3, ("x^2 + y^2",), False),
    ("field 2 / vars x y z w / rel x^3 / rel y^3 / rel z^3 / rel w^2 / rel x*y"
     " / rel x*z / rel x*w / rel y*z / rel y*w / rel z*w", ("w + x^2",), False),
    # y = x + x^2: distinct images of x and y that generate one cyclic
    # module, with a nonzero product
    ("field 2 / vars x y z / rel x^3 / rel y^3 / rel z^2 / rel x*z / rel y*z",
     ("y + x + x^2",), True),
    # y = -x over GF(3): distinct images, one cyclic module, product zero
    ("field 3 / vars x y / rel x^3 / rel y^3 / rel x*y", ("x + y",), True),
])
def test_split_matches_the_full_closure_reference_on_quotients(text, gens, deduped):
    # the split keeps every nonzero image, so two images with one cyclic
    # module count it twice and the sum overshoots dim M; only the
    # reference, which drops repeated modules, splits those quotients
    q = quotient_by(build(text), *gens)
    assert canonical_variable_split(q) is None
    assert (_reference_variable_split(q) is not None) == deduped


def test_find_witness_pair(pair_n3):
    dec = find_m_decomposition(pair_n3)
    assert dec is not None
    assert verify_m_decomposition(dec)
    assert m_decomposition_problems(dec) == []
    assert (dec.x, dec.y) == pair_n3.gens
    assert dec.simples == ()


def test_find_witness_semisimple():
    alg = build(SQUARE_ZERO_N2)
    dec = find_m_decomposition(alg)
    assert dec is not None and dec.x is None and dec.y is None
    assert len(dec.simples) == 2
    assert verify_m_decomposition(dec)


def test_find_witness_axis_with_socle():
    alg = build(AXIS_SOCLE)
    dec = find_m_decomposition(alg)
    assert dec is not None
    assert dec.x == alg.var("x") and dec.y is None
    assert dec.simples == (alg.var("y"),)


def test_three_nonsimple_summands_refute(triple):
    assert find_m_decomposition(triple) is None


def test_witness_problems_reported(pair_n3):
    x, y = pair_n3.gens
    # every witness closes its own summands from their generators: no
    # field takes closures built elsewhere
    assert list(inspect.signature(MDecomposition).parameters) == ["algebra", "x", "y", "simples"]
    # overlapping, with x*y != 0 and R/Ann(x + y) no principal ideal
    # ring; independent but short of M; overlapping through a socle
    # line: each is one failure of the certificate, and the deleted
    # re-checks follow from it
    not_direct = ["summands are not direct onto the maximal ideal"]
    for summands, expected in [
            ((x + y, y, ()), not_direct),
            ((x, None, ()), not_direct),
            ((x, y, (x * x,)), not_direct),
            ((x, None, (y,)), ["summand y is not simple"])]:
        dec = MDecomposition(pair_n3, *summands)
        assert m_decomposition_problems(dec) == expected
        assert not verify_m_decomposition(dec)
    # R(x + y) = span{x + y, x^2} falls short of M = span{x, x^2, y}
    alg = build("field 2 / vars x y / rel x^3 / rel y^2 / rel x*y")
    x, y = alg.gens
    dec = MDecomposition(alg, x + y, None, ())
    assert m_decomposition_problems(dec) == not_direct
    assert not verify_m_decomposition(dec)


# Reference: the full predicate a witness was checked by before its
# certificate alone sufficed, with x*y = 0, simples killed by M and
# R/Ann(g) a principal ideal ring re-checked on top of directness.


def _reference_verifies(dec):
    alg = dec.algebra
    if any(g.is_zero() for g in dec.summands()):
        return False
    closures = [cyclic(alg, g) for g in dec.summands()]
    if gf.direct_sum(alg.p, alg.dim, [c.space for c in closures]) != maximal_ideal(alg).space:
        return False
    if dec.x is not None and dec.y is not None and not (dec.x * dec.y).is_zero():
        return False
    simples = [cyclic(alg, w) for w in dec.simples]
    if not all(c.dim == 1 and killed_by_m(alg, c) for c in simples):
        return False
    return all(min_generators(alg, module_times_ideal(alg, cyclic(alg, g))) <= 1
               for g in (dec.x, dec.y) if g is not None)


def _random_m(alg, rng):
    return Element(alg, [0] + [rng.randrange(alg.p) for _ in range(1, alg.dim)])


def _drawn_witnesses(alg, rng):
    """Witnesses of M around classify's own, when it has one: that
    witness, scaled by units, its axes moved by an element of M^2 or of M,
    a simple summand dropped, an axis taken for a simple, a zero axis; and
    random ones on any ring."""
    out = []
    verdict = classify_dsc(alg)
    if verdict.answer == "yes":
        w = verdict.witness
        x, y, simples = w.x, w.y, w.simples

        def unit():
            return rng.randrange(1, alg.p)

        def moved(g, by):
            return None if g is None else g + by

        out.append(w)
        out.append(MDecomposition(alg, None if x is None else x.scale(unit()),
                                  None if y is None else y.scale(unit()),
                                  tuple(s.scale(unit()) for s in simples)))
        for _ in range(2):
            square = _random_m(alg, rng) * _random_m(alg, rng)
            out.append(MDecomposition(alg, moved(x, square), y, simples))
            out.append(MDecomposition(alg, x, moved(y, square), simples))
        out.append(MDecomposition(alg, moved(x, _random_m(alg, rng)), y, simples))
        if simples:
            out.append(MDecomposition(alg, x, y, simples[1:]))
            moved_last = simples[-1] + _random_m(alg, rng)
            out.append(MDecomposition(alg, x, y, simples[:-1] + (moved_last,)))
        if x is not None:
            out.append(MDecomposition(alg, None, y, simples + (x,)))
            out.append(MDecomposition(alg, alg.zero(), y, simples))
    for _ in range(2):
        count = rng.randrange(3)
        y = rng.choice((None, _random_m(alg, rng)))
        out.append(MDecomposition(alg, _random_m(alg, rng), y,
                                  tuple(_random_m(alg, rng) for _ in range(count))))
    return out


ODD_AXES = ["field {} / vars x y / rel x^2 / rel y^3 / rel x*y",
            "field {} / vars x y / rel x^3 / rel y^4 / rel x*y",
            "field {} / vars x y w / rel x^3 / rel y^4 / rel x*y / rel w^2 / rel x*w / rel y*w",
            "field {} / vars x y v w / rel x^4 / rel y^2 / rel x*y / rel v^2 / rel w^2"
            " / rel x*v / rel x*w / rel y*v / rel y*w / rel v*w"]


def test_the_certificate_alone_decides_as_the_full_predicate_did():
    """verify_m_decomposition, which checks directness onto M, nonzero
    summands and simples of dim 1, equals the full predicate on every
    witness drawn on the sweep and on two-axis rings over GF(3) and GF(5)."""
    rng = random.Random(1)
    algs = [build_algebra(pres) for _, pres in sweep_presentations(3, (2, 3, 4), 11)]
    algs += [build(text.format(p)) for p in (3, 5) for text in ODD_AXES for _ in range(4)]
    seen = Counter()
    for alg in algs:
        for dec in _drawn_witnesses(alg, rng):
            expected = _reference_verifies(dec)
            assert verify_m_decomposition(dec) == expected, (alg, dec)
            seen[expected] += 1
    assert sum(seen.values()) >= 400 and seen[True] >= 50 and seen[False] >= 50, seen


def test_classify_witnesses_keep_the_deleted_checks():
    """The two facts the certificate implies, x*y = 0 and M*Rg on one
    generator (so R/Ann(g) is a principal ideal ring), hold on every
    witness classify verifies on the sweep and on the ladder's GF(3)
    axes ring."""
    algs = [build_algebra(pres) for _, pres in sweep_presentations(3, (2, 3, 4), 11)]
    algs.append(build("field 3 / vars x y / rel x^40 / rel y^41 / rel x*y"))
    witnesses = [v.witness for v in map(classify_dsc, algs) if v.answer == "yes"]
    assert len(witnesses) == 31 + 1
    for dec in witnesses:
        alg = dec.algebra
        assert verify_m_decomposition(dec)
        if dec.x is not None and dec.y is not None:
            assert (dec.x * dec.y).is_zero()
        for g in (dec.x, dec.y):
            if g is not None:
                assert min_generators(alg, module_times_ideal(alg, cyclic(alg, g))) <= 1


def test_is_simple_reads_the_dimension_alone_on_the_sweep_censuses():
    # by Nakayama M kills every ideal of dim 1, so the dimension decides
    simple = 0
    for _, pres in sweep_presentations(3, (2, 3, 4), 11):
        alg = build_algebra(pres)
        for e in oracle.enumerate_ideals(alg).entries:
            c = e.ideal
            assert is_simple(alg, c) == (c.dim == 1 and killed_by_m(alg, c)), (pres, c)
            simple += is_simple(alg, c)
    assert simple > 0


@contextmanager
def closures_recorded():
    """Record the generators of every ideal_from_generators call."""
    calls = []
    real = ideals.ideal_from_generators

    def recording(alg, gens):
        calls.append(list(gens))
        return real(alg, calls[-1])

    with mock.patch.object(ideals, "ideal_from_generators", recording), \
            mock.patch.object(structure, "ideal_from_generators", recording):
        yield calls


def test_witness_closes_each_summand_once():
    algs = [build_algebra(pres) for _, pres in sweep_presentations(3, (2, 3, 4), 11)]
    # the two axes rings of the benchmark's ladder
    algs += [build("field 2 / vars x y / rel x^50 / rel y^51 / rel x*y"),
             build("field 3 / vars x y / rel x^40 / rel y^41 / rel x*y")]
    yes = 0
    for alg in algs:
        with closures_recorded() as closures:
            verdict = classify_dsc(alg)
            if verdict.answer != "yes":
                continue
            dec = verdict.witness
            assert verify_m_decomposition(dec)
        # the variable split closed every variable, and the witness none
        assert len(closures) == len(alg.gens) == len(dec.summands())
        assert dec.rx == (cyclic(alg, dec.x) if dec.x is not None else zero_ideal(alg))
        assert dec.ry == (cyclic(alg, dec.y) if dec.y is not None else zero_ideal(alg))
        yes += 1
    assert yes == 31 + 2


def test_classify_closes_each_variable_once_on_the_triple():
    alg = build_algebra(parse_presentation(corpus_text("nilpotent-triple")))
    with closures_recorded() as closures:
        assert classify_dsc(alg).answer == "no"
    # the split closes x1, x2, x3; the counterexample's hypothesis check
    # reads them back rather than closing them again
    assert [gens for gens in closures if len(gens) == 1] == [[g] for g in alg.gens]


def test_max_pair_dim_bounds_nothing():
    # a monomial ring is decided by its presentation at any size: x*y != 0
    # refutes this one, and the variables split the other
    assert find_m_decomposition(build(GF3_MIXED), max_pair_dim=0) is None
    assert find_m_decomposition(build(TWO_AXES), max_pair_dim=4) is not None


def test_a_monomial_ring_over_gf3_is_decided():
    # the oracle's walk is GF(2)-only; the mixed product decides at every p
    alg = build(GF3_MIXED)
    verdict = classify_dsc(alg)
    assert verdict.answer == "no" and verdict.counterexample == maximal_ideal(alg)
    assert verdict.counterexample_note == MIXED_PROOF.format("x*y")
    assert verdict.as_dict()["dsc"] == "no"
    assert verdict.as_dict()["counterexample"]["proof"] == MIXED_PROOF.format("x*y")


# ---------------------------------------------------------------------------
# quotient models: refused by classify_dsc, decided by the oracle


def quotient_by(alg, *gens):
    i = ideal_from_generators(alg, [parse_element(alg, g) for g in gens])
    return QuotientAlgebra(alg, i)


def gf3_refused():
    """GF(3)[x,y]/(x^2, y^4, xy) modulo x + y^2, a quotient model that
    classify_dsc refuses; the oracle's walk is GF(2)-only, so nothing
    here decides it."""
    return quotient_by(build("field 3 / vars x y / rel x^2 / rel y^4 / rel x*y"),
                       "x + y^2")


def gf2_no_cover():
    """GF(2)[x,y]/(x^3, y^3, xy) modulo x^2 + y^2: the socle collapses to
    one line inside every non-simple cyclic module, so M has no cover."""
    return quotient_by(build(PAIR_N3), "x^2 + y^2")


def gf2_cyclic_m():
    """GF(2)[x,y]/(x^2, y^4, xy) modulo x + y^2: M is cyclic, though the
    images of x and y^2 coincide."""
    return quotient_by(build("field 2 / vars x y / rel x^2 / rel y^4 / rel x*y"),
                       "x + y^2")


def gf2_pair_cover():
    """GF(2)[x,y,z]/(x^3, y^3, z^2, xy, xz, yz) modulo x^2 + z: M is
    Rx + Ry, and z is no summand of it."""
    return quotient_by(build(THREE_AXES), "x^2 + z")


def gf2_short_chain():
    """GF(2)[x,y,z]/(x^3, y^3, z^2, yz) modulo z + x^2: M needs two
    generators, M^2 = span{x^2, xy, y^2, x^2 y} three."""
    return quotient_by(build("field 2 / vars x y z / rel x^3 / rel y^3 / rel z^2"
                             " / rel y*z"), "z + x^2")


def gf2_one_socle_line():
    """GF(2)[x,y,z]/(x^2, y^2, z^2) modulo z + xy: soc(M) = span{xy} is
    one line where a cover of M needs two."""
    return quotient_by(build("field 2 / vars x y z / rel x^2 / rel y^2 / rel z^2"),
                       "z + x*y")


def gf2_shared_square():
    """GF(2)[x,y,z]/(x^3, y^3, z^3, xz, yz) modulo z^2 + xy: mu(M) = 2,
    dim soc(M) = 2 and mu(M^j) never grows, yet M has no cover."""
    return quotient_by(build("field 2 / vars x y z / rel x^3 / rel y^3 / rel z^3"
                             " / rel x*z / rel y*z"), "z^2 + x*y")


@pytest.mark.parametrize("decide", [classify_dsc, find_m_decomposition])
@pytest.mark.parametrize("make", [gf2_no_cover, gf3_refused])
def test_classify_refuses_an_algebra_that_is_not_monomial(make, decide):
    q = make()
    with pytest.raises(TypeError, match="decides monomial algebras only"):
        decide(q)
    # refused before any closure
    assert "_cyclic" not in vars(q)


# ce_dim: the dim of the oracle's counterexample, the first ideal in
# canonical order with no cover; dim M is 3, 6, 3 and 6
@pytest.mark.parametrize("make,ce_dim", [(gf2_no_cover, 3), (gf2_short_chain, 3),
                                         (gf2_one_socle_line, 3),
                                         (gf2_shared_square, 4)])
def test_the_oracle_refutes_a_quotient_model_without_a_cover_of_m(make, ce_dim):
    q = make()
    m = maximal_ideal(q)
    assert canonical_variable_split(q) is None
    assert packed_first_cover(q, m.space.basis) is None
    assert brute_decompose(q, m) is None
    verdict = oracle_dsc(q)
    assert verdict.answer == "no" and verdict.counterexample.dim == ce_dim
    assert brute_decompose(q, verdict.counterexample) is None
    assert (verdict.counterexample == m) == (ce_dim == m.dim)


def _identify(alg, g, m2: int):
    """R/(g + m2) for a generator g and a packed m2 in M^2: g becomes an
    element of M^2, so the variable images no longer split M."""
    z = g + alg.element(gf.unpack_vec(m2, alg.dim))
    return QuotientAlgebra(alg, cyclic(alg, z))


def _walk_matches_the_reference(q) -> bool:
    """packed_first_cover of M on q picks the reference's first cover, and
    brute_decompose(q, M) verifies, with mu(M) summands, whenever M has a
    cover; returns whether it has one."""
    m = maximal_ideal(q)
    cover = packed_first_cover(q, m.space.basis)
    assert cover == reference_kernels.reference_first_cover(q, m.space.basis)
    dec = brute_decompose(q, m)
    assert (dec is None) == (cover is None)
    if dec is not None:
        assert verify_decomposition(q, m, dec)
        assert dec.length == min_generators(q, m)
    return cover is not None


@pytest.mark.parametrize("make,shape", [(gf2_cyclic_m, (1, 0)),
                                        (gf2_pair_cover, (2, 0)),
                                        (gf2_no_cover, None)])
def test_the_walk_of_m_on_a_quotient_model(make, shape):
    # shape: the (non-simple, simple) summand counts of the first cover
    q = make()
    assert canonical_variable_split(q) is None
    assert _walk_matches_the_reference(q) == (shape is not None)
    cover = packed_first_cover(q, maximal_ideal(q).space.basis)
    assert (cover and tuple(map(len, cover))) == shape


def test_the_walk_of_m_matches_the_reference_on_quotient_models():
    outcomes = Counter()
    family = [pres for _, pres in sweep_presentations(3, (2, 3), 8)]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from(family), presentations()), st.data())
    def check(pres, data):
        alg = build_algebra(RingPresentation.make(2, pres.vars, pres.relations,
                                                  pres.truncate))
        assume(alg.dim - 1 <= 8)
        # identify a variable with an element of M^2, so the variable
        # images no longer split M
        k = data.draw(st.integers(0, len(alg.gens) - 1))
        m2 = 0
        for r in module_times_ideal(alg, maximal_ideal(alg)).space.basis:
            if data.draw(st.booleans()):
                m2 ^= r
        outcomes[_walk_matches_the_reference(_identify(alg, alg.gens[k], m2))] += 1

    check()
    # both outcomes must occur often enough for the comparison to mean
    # something
    assert outcomes[True] >= 5 and outcomes[False] >= 5, outcomes


# Rx and Ry share xy, and M has no direct cyclic cover
NO_COVER = "field 2 / vars x y / rel x^2 / rel y^4 / rel x*y^3"


@pytest.mark.parametrize("found", [False, True])
def test_fallback_closes_no_vector_of_m_squared(found):
    if found:
        alg = gf2_pair_cover()
    else:
        alg = build(NO_COVER)
    assert canonical_variable_split(alg) is None
    assert (packed_first_cover(alg, maximal_ideal(alg).space.basis) is not None) == found
    msq = module_times_ideal(alg, maximal_ideal(alg)).space.echelon
    closed = [v for v in packed_cyclic_table(alg) if v]
    assert closed and all(gf.gf2_reduce(v, msq) for v in closed)


# ---------------------------------------------------------------------------
# a monomial ring is decided by its presentation


def test_a_mixed_product_decides_every_monomial_ring():
    tally = Counter()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(presentations(max_vars=4), st.data())
    def check(pres, data):
        # kill each product of two distinct variables with probability 1/2,
        # so every pattern of surviving mixed products is drawn
        nv = len(pres.vars)
        pairs = [tuple(int(v in (a, b)) for v in range(nv))
                 for a in range(nv) for b in range(a + 1, nv)]
        pres = RingPresentation.make(pres.p, pres.vars, pres.relations + tuple(
            m for m in pairs if data.draw(st.booleans())), pres.truncate)
        alg = build_algebra(pres)
        mdim = alg.dim - 1
        assume(mdim <= 40)
        mixed = mixed_product(alg)
        assert (mixed is not None) == (canonical_variable_split(alg) is None)
        verdict = classify_dsc(alg)
        assert verdict.answer in ("yes", "no")
        refuted_by_m = verdict.answer == "no" and verdict.counterexample == maximal_ideal(alg)
        assert refuted_by_m == (mixed is not None)
        if mixed is not None:
            assert verdict.counterexample_note == MIXED_PROOF.format(mixed)
            assert find_m_decomposition(build_algebra(pres)) is None
        tally["mixed" if mixed else "split"] += 1
        if pres.p != 2:
            return
        if mdim <= 14:
            fresh = build_algebra(pres)
            cover = packed_first_cover(fresh, maximal_ideal(fresh).space.basis)
            assert (cover is None) == refuted_by_m
            tally["search"] += 1
        if mdim <= 10:
            assert oracle_dsc(build_algebra(pres), 10).answer == verdict.answer
            tally["oracle"] += 1

    check()
    # both sides of the lemma, the search and the oracle must be reached
    # often enough for the comparison to mean something
    assert tally["mixed"] >= 40 and tally["split"] >= 40, tally
    assert tally["search"] >= 30 and tally["oracle"] >= 25, tally


# ---------------------------------------------------------------------------
# classify_dsc


def test_classify_yes(pair_n3):
    verdict = classify_dsc(pair_n3)
    assert verdict.answer == "yes"
    assert verdict.witness is not None and verify_m_decomposition(verdict.witness)
    assert verdict.counterexample is None
    assert verdict.as_dict()["dsc"] == "yes"


def test_classify_no_three_summands(triple):
    verdict = classify_dsc(triple)
    assert verdict.answer == "no"
    x1, x2, x3 = triple.gens
    expected = ideal_from_generators(triple, [x1 + x2, x1 + x3])
    assert verdict.counterexample == expected
    assert "no direct-sum cover" in verdict.counterexample_note
    assert verdict.notes == (certificate_note("x1", "x2", "x3"),)


def test_classify_no_without_oracle_confirmation(triple):
    # refutes is the whole refutation: the oracle's walk,
    # the package's one cover procedure, never runs on J, and the
    # arguments after the algebra change nothing
    def refuse(*args, **kwargs):
        raise AssertionError("classify_dsc searched for a cover")

    with mock.patch.object(oracle, "_walk", refuse):
        verdicts = [classify_dsc(triple), classify_dsc(triple, 12, 0),
                    classify_dsc(triple, 12, 20)]
    assert verdicts[0].answer == "no"
    assert all(v.as_dict() == verdicts[0].as_dict() for v in verdicts)


def test_no_three_summands_on_a_cover():
    # w = x^2 in the quotient, so Rw lies in Rx and the variable split
    # fails; the cover of M has three non-simple summands Rx, Ry, Rz
    big = build("field 2 / vars x y z w / rel x^3 / rel y^3 / rel z^3 / rel w^2"
                " / rel x*y / rel x*z / rel x*w / rel y*z / rel y*w / rel z*w")
    q = QuotientAlgebra(big, cyclic(big, parse_element(big, "w + x^2")))
    assert canonical_variable_split(q) is None
    nonsimple, _ = packed_first_cover(q, maximal_ideal(q).space.basis)
    assert len(nonsimple) == 3
    x, y, z = (Element.packed(q, v) for v in nonsimple)
    j = ideal_from_generators(q, [x + y, x + z])
    assert structure.refutes(q, j)
    expected = ideal_from_generators(q, [q.project(parse_element(big, g)) for g in
                                         ("x + z", "y + z", "x^2", "y^2", "z^2")])
    assert j == expected and expected.dim == 5
    assert certificate_note(x, y, z) == certificate_note("x", "y", "z")


# ---------------------------------------------------------------------------
# the refutation certificate, against the census


@st.composite
def three_summand_rings(draw):
    """(ring text, variables, exponents) of a GF(p) monomial ring on three
    or four variables, every mixed product zero, with pure powers x_i^e
    for e in 2..4, at least three of them with e >= 3: the variables
    split M into three or more non-simple summands."""
    nv = draw(st.integers(3, 4))
    exps = draw(st.lists(st.integers(2, 4), min_size=nv, max_size=nv)
                .filter(lambda es: sum(e >= 3 for e in es) >= 3))
    p = draw(st.sampled_from((2, 3, 5, 2 ** 31 - 1)))
    names = [f"x{i + 1}" for i in range(nv)]
    rels = [f"rel {n}^{e}" for n, e in zip(names, exps)]
    rels += [f"rel {a}*{b}" for i, a in enumerate(names) for b in names[i + 1:]]
    return f"field {p} / vars {' '.join(names)} / " + " / ".join(rels), names, exps


def test_every_three_summand_no_carries_the_rank_certificate():
    seen = Counter()

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(three_summand_rings())
    def check(case):
        text, names, exps = case
        alg = build(text)
        x, y, z = [alg.var(n) for n, e in zip(names, exps) if e >= 3][:3]
        verdict = classify_dsc(alg)
        assert verdict.answer == "no"
        assert verdict.notes == (certificate_note(x, y, z),)
        assert verdict.counterexample == ideal_from_generators(alg, [x + y, x + z])
        assert structure.refutes(alg, verdict.counterexample)
        if alg.p == 2 and alg.dim - 1 <= 12:
            assert brute_decompose(alg, verdict.counterexample, 12) is None
            seen["brute force"] += 1
        seen["p", alg.p] += 1
        seen["vars", len(names)] += 1

    check()
    keys = [("p", p) for p in (2, 3, 5, 2 ** 31 - 1)] + [("vars", 3), ("vars", 4)]
    assert min(seen[k] for k in keys) >= 5, seen
    assert seen["brute force"] == seen["p", 2], seen


def test_the_certificate_fires_only_on_ideals_without_a_cover():
    # a sufficient test for no, not a decider: on the GF(2) census of
    # every swept ring it fires on 221 of the 7,113 proper ideals that
    # do not decompose, and on no ideal that does
    fired = undecomposed = 0
    for _, pres in sweep_presentations(3, (2, 3, 4), 11):
        alg = build_algebra(pres)
        for e in oracle.complete_census(oracle.enumerate_ideals(alg)).entries:
            if 0 < e.ideal.dim < alg.dim:
                undecomposed += not e.decomposable
                if structure.refutes(alg, e.ideal):
                    fired += 1
                    assert not e.decomposable, (pres, e.ideal)
    assert (fired, undecomposed) == (221, 7113)


def test_one_internal_contradiction_type(triple, pair_n3):
    from cyclicideals import InternalContradictionError, decompose
    assert structure.InternalContradictionError is InternalContradictionError
    assert decompose.InternalContradictionError is InternalContradictionError
    assert issubclass(InternalContradictionError, RuntimeError)
    with mock.patch.object(structure, "refutes", lambda *args: False):
        with pytest.raises(InternalContradictionError, match=r"modulo M\*J\^2"):
            classify_dsc(triple)
    x = pair_n3.var("x")
    with pytest.raises(InternalContradictionError, match="witness failed verification"):
        structure._normalized_witness(pair_n3, [x], [])
    # the lemma: with no mixed product, the variables split M
    with mock.patch.object(structure, "canonical_variable_split", lambda alg: None):
        with pytest.raises(InternalContradictionError, match="do not split M"):
            classify_dsc(pair_n3)


def test_classify_never_runs_the_census():
    def refuse(*args, **kwargs):
        raise AssertionError("classify_dsc reached the census")

    algs = [build_algebra(pres) for _, pres in sweep_presentations(3, (2, 3, 4), 11)]
    with mock.patch.object(oracle, "enumerate_ideals", refuse), \
            mock.patch.object(oracle, "oracle_dsc", refuse):
        verdicts = [classify_dsc(alg) for alg in algs]
    assert Counter(v.answer for v in verdicts) == Counter(
        {"yes": 31, "no": 110})
    for alg, v in zip(algs, verdicts):
        if alg.dim - 1 <= 8:
            assert oracle.oracle_dsc(alg).answer == v.answer


# classify refutes these with M at dim M 9 and 10, by a mixed product; the
# census stops at its default bound of 8
NEWLY_DECIDED = (
    "F2[x,y]/(x^2,y^5)", "F2[x,y]/(x^5,y^2)",
    "F2[x,y,z]/(x^2,y^2,z^5,x*y,x*z)", "F2[x,y,z]/(x^2,y^2,z^5,x*y,y*z)",
    "F2[x,y,z]/(x^2,y^5,z^2,x*y,x*z)", "F2[x,y,z]/(x^2,y^5,z^2,x*z,y*z)",
    "F2[x,y,z]/(x^5,y^2,z^2,x*y,y*z)", "F2[x,y,z]/(x^5,y^2,z^2,x*z,y*z)",
)


def test_classify_refutes_with_m_past_the_census_bound():
    family = dict(sweep_presentations(3, (2, 3, 4, 5), 40))
    for name in NEWLY_DECIDED:
        alg = build_algebra(family[name])
        verdict = classify_dsc(alg)
        assert verdict.answer == "no", name
        assert verdict.counterexample == maximal_ideal(alg)
        assert alg.dim - 1 in (9, 10)
        if alg.dim - 1 == 9:
            assert oracle_dsc(build_algebra(family[name]), 10).answer == "no"
    tally = Counter(classify_dsc(build_algebra(pres)).answer for pres in family.values())
    assert tally == Counter({"yes": 57, "no": 462})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_classify_decides_both_sweep_families(p):
    small = {name for name, _ in sweep_presentations(3, (2, 3, 4), 11)}
    tally, small_tally = Counter(), Counter()
    for name, pres in sweep_presentations(3, (2, 3, 4, 5), 40):
        pres = RingPresentation.make(p, pres.vars, pres.relations, pres.truncate)
        alg = build_algebra(pres)
        mdim = alg.dim - 1
        verdict = classify_dsc(alg)
        tally[verdict.answer] += 1
        if name in small:
            small_tally[verdict.answer] += 1
        if p == 2 and mdim <= 10:
            assert oracle_dsc(build_algebra(pres), 10).answer == verdict.answer, name
        if verdict.answer == "yes":
            assert verify_m_decomposition(verdict.witness), name
            continue
        assert verdict.answer == "no", name
        if verdict.counterexample == maximal_ideal(alg):
            # a mixed product refutes every ring of the families that has
            # no cover
            assert verdict.counterexample_note == MIXED_PROOF.format(mixed_product(alg)), name
            if p == 2 and mdim <= 12:
                fresh = build_algebra(pres)
                assert brute_decompose(fresh, maximal_ideal(fresh), 12) is None, name
    assert small_tally == Counter({"yes": 31, "no": 110})
    assert tally == Counter({"yes": 57, "no": 462})


def test_structure_imports_nothing_from_the_oracle():
    tree = ast.parse(Path(structure.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        assert not any("oracle" in n.split(".") for n in names), ast.dump(node)


def test_classify_principal_chain(chain4):
    verdict = classify_dsc(chain4)
    assert verdict.answer == "yes"
    assert len(verdict.witness.summands()) == 1


# ---------------------------------------------------------------------------
# products


def test_product_verdicts(pair_n3, triple):
    yes = classify_dsc(pair_n3)
    no = classify_dsc(triple)

    assert classify_product([yes, yes]).answer == "yes"
    for verdicts, k in (([yes, no], 2), ([no, yes], 1)):
        got = classify_product(verdicts)
        assert got.answer == "no"
        assert got.counterexample == no.counterexample
        assert f"factor {k} fails" in got.notes
    assert classify_product([]).answer == "yes"


# ---------------------------------------------------------------------------
# prime spectrum


def spec_for(text):
    pres, alg = build_pres(text)
    dec = find_m_decomposition(alg)
    return spec_classify(pres, dec)


def test_spec_case_a_nilpotent_pair():
    report = spec_for(PAIR_N3)
    assert report.case == "a"
    assert report.primes == ("M",)
    assert report.krull_dim == 0
    assert not report.truncated_model


def test_spec_case_a_semisimple():
    assert spec_for(SQUARE_ZERO_N3).case == "a"


def test_spec_case_b_power_series():
    report = spec_for(POWER_SERIES)
    assert report.case == "b"
    assert report.primes == ("(0)", "M")
    assert report.krull_dim == 1
    assert report.truncated_model


def test_spec_case_b_requires_non_nilpotent():
    # cyclic M with nilpotent generator stays in case a
    report = spec_for(CHAIN4)
    assert report.case == "a"
    assert report.primes == ("M",)


def test_spec_case_c_axis_with_socle():
    report = spec_for(AXIS_SOCLE)
    assert report.case == "c"
    assert report.primes == ("M", "Ry")
    assert report.krull_dim == 1


def test_spec_case_d_nilpotent_axis_first():
    report = spec_for("field 2 / vars x y / rel x^3 / rel x*y / truncate 6")
    assert report.case == "d"
    assert report.primes == ("M", "Rx")


def test_spec_case_e_two_axes():
    report = spec_for(TWO_AXES)
    assert report.case == "e"
    assert report.primes == ("M", "Rx", "Ry")


def test_spec_case_e_with_socle_line():
    report = spec_for("field 2 / vars x y w / rel x*y / rel x*w / rel y*w"
                      " / rel w^2 / truncate 6")
    assert report.case == "e"
    assert report.primes == ("M", "Rx ⊕ Rw", "Ry ⊕ Rw")
    assert len(report.primes) <= 3 and report.krull_dim <= 1


def test_spec_rejects_mismatch(pair_n3):
    other = parse_presentation(TWO_AXES)
    dec = find_m_decomposition(pair_n3)
    with pytest.raises(ValueError, match="does not match"):
        spec_classify(other, dec)


def test_spec_rejects_unverified(pair_n3):
    pres = parse_presentation(PAIR_N3)
    x, y = pair_n3.gens
    broken = MDecomposition(pair_n3, x + y, y, ())
    with pytest.raises(ValueError, match="not verified"):
        spec_classify(pres, broken)


@pytest.mark.parametrize("names", ["x y", "x y z"])
def test_spec_refuses_a_witness_made_by_the_truncation(names):
    # the model's x*y = 0 comes from truncate 2; GF(2)[x, y] has krull dim 2
    pres, alg = build_pres(f"field 2 / vars {names} / truncate 2")
    dec = find_m_decomposition(alg)
    assert classify_dsc(alg).answer == "yes" and verify_m_decomposition(dec)
    assert not pres.splits_untruncated()
    with pytest.raises(WitnessDoesNotLiftError, match="does not lift"):
        spec_classify(pres, dec)


def test_spec_refuses_three_non_nilpotent_summands():
    # the witness x, y, z + x^3 of a ring that passes the monomial test:
    # z + x^3 is simple, as z is, but involves the non-nilpotent x
    pres, alg = build_pres("field 2 / vars x y z / rel x*y / rel x*z / rel y*z"
                           " / rel z^2 / truncate 4")
    x, y, z = alg.gens
    dec = MDecomposition(alg, x, y, (z + x ** 3,))
    assert pres.splits_untruncated() and verify_m_decomposition(dec)
    with pytest.raises(WitnessDoesNotLiftError, match="three summands are non-nilpotent"):
        spec_classify(pres, dec)


@pytest.mark.parametrize("text, passes", [
    ("field 2 / vars x / truncate 2", True),
    ("field 2 / vars x y / rel x*y / truncate 2", True),
    ("field 2 / vars x y / rel x^2 / truncate 2", False),
    ("field 2 / vars x y z / rel x*y / rel x*z / rel y*z / truncate 3", False),
    ("field 2 / vars x y z / rel x*y / rel x*z / rel y*z / rel z^2 / truncate 3", True),
    ("field 2 / vars x y z / rel x*y / rel x*z / rel y*z / rel x^2 / rel y^2"
     " / rel z^2 / truncate 2", True),
])
def test_splits_untruncated_counts_the_quadratic_relations(text, passes):
    assert parse_presentation(text).splits_untruncated() is passes


def test_spec_as_dict_schema():
    report = spec_for(AXIS_SOCLE)
    assert report.as_dict() == {
        "case": "c",
        "primes": ["M", "Ry"],
        "krull_dim": 1,
        "truncated_model": True,
    }
