"""Witness search, the DSC verdict, products, and the prime spectrum."""

import ast
from collections import Counter
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclicideals import (MDecomposition, SearchSpaceExceededError,
                          brute_decompose, canonical_variable_split, classify_dsc,
                          classify_product, cyclic, find_m_decomposition,
                          ideal_from_generators, is_principal_ideal_ring,
                          annihilator, m_decomposition_problems,
                          oracle_dsc, parse_element, parse_presentation,
                          quotient_algebra, spec_classify,
                          verify_m_decomposition)
from cyclicideals import gf, oracle, structure
from cyclicideals.corpus import sweep_presentations
from cyclicideals.ideals import (maximal_ideal, min_generators, module_times_ideal,
                                 packed_cyclic_table, packed_first_cover, packed_socle)
from cyclicideals.rings import RingPresentation, build_algebra
from cyclicideals.structure import DscVerdict
from conftest import (AXIS_SOCLE, CHAIN4, GF3_UNDECIDED, PAIR_N3, POWER_SERIES,
                      SQUARE_ZERO_N2, SQUARE_ZERO_N3, TWO_AXES, build,
                      build_pres, maximal_ideal_elements, presentations)


# ---------------------------------------------------------------------------
# principal ideal ring test


def test_pir(pair_n3, chain4):
    assert is_principal_ideal_ring(chain4)
    assert not is_principal_ideal_ring(pair_n3)
    x = pair_n3.gens[0]
    q = quotient_algebra(pair_n3, annihilator(pair_n3, x))
    assert is_principal_ideal_ring(q.target)


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
    broken = MDecomposition(pair_n3, x + y, y, ())
    problems = m_decomposition_problems(broken)
    assert problems and not verify_m_decomposition(broken)
    assert problems == ["summands are not independent",
                        "summands do not fill the maximal ideal",
                        "x*y is nonzero",
                        "R/Ann(x + y) is not a principal ideal ring"]
    # independent but short of M; overlapping through a socle line
    assert m_decomposition_problems(MDecomposition(pair_n3, x, None, ())) == [
        "summands do not fill the maximal ideal"]
    assert m_decomposition_problems(MDecomposition(pair_n3, x, y, (x * x,))) == [
        "summands are not independent", "summands do not fill the maximal ideal"]


def test_search_space_exceeded():
    with pytest.raises(SearchSpaceExceededError):
        find_m_decomposition(build(GF3_UNDECIDED))
    # the canonical split is bound-free; only the fallback is gated
    assert find_m_decomposition(build(TWO_AXES), max_pair_dim=4) is not None
    big = build("field 2 / vars x y z / rel x^3 / rel y^3 / rel z^2"
                " / rel x*y / rel x*z / rel y*z")
    q = quotient_by(big, "x^2 + z")  # dim M = 4
    with pytest.raises(SearchSpaceExceededError):
        find_m_decomposition(q, max_pair_dim=3)


# ---------------------------------------------------------------------------
# the exhaustive fallback on quotient models (no variable grouping there)


def quotient_by(alg, *gens):
    i = ideal_from_generators(alg, [parse_element(alg, g) for g in gens])
    return quotient_algebra(alg, i).target


def test_fallback_single_generator():
    # in R/(x + y^2) the maximal ideal is cyclic but no variable image
    # generates it on its own terms: the images of x and y^2 coincide
    big = build("field 2 / vars x y / rel x^2 / rel y^4 / rel x*y")
    q = quotient_by(big, "x + y^2")
    assert canonical_variable_split(q) is None
    dec = find_m_decomposition(q)
    assert dec is not None and verify_m_decomposition(dec)
    assert dec.summand_count() == 1
    assert cyclic(q, dec.x).dim == q.dim - 1


def test_fallback_pair():
    big = build("field 2 / vars x y z / rel x^3 / rel y^3 / rel z^2"
                " / rel x*y / rel x*z / rel y*z")
    q = quotient_by(big, "x^2 + z")
    assert canonical_variable_split(q) is None
    dec = find_m_decomposition(q)
    assert dec is not None and verify_m_decomposition(dec)
    assert dec.x is not None and dec.y is not None
    assert dec.simples == ()


def test_fallback_exhausts_honestly():
    # R/(x^2 + y^2): the socle collapses to one line that sits inside
    # every non-simple cyclic module, so no direct witness exists
    big = build(PAIR_N3)
    q = quotient_by(big, "x^2 + y^2")
    assert find_m_decomposition(q) is None


# Reference: the unpruned sweep, which makes no use of Nakayama.  It tries
# every nonzero vector of M, and every pair of them, in canonical order.


def _reference_fallback(alg) -> Optional[MDecomposition]:
    mdim = alg.dim - 1
    table = packed_cyclic_table(alg)
    soc = packed_socle(alg, ())

    def complete(rows, dim):
        work = list(rows)
        added = []
        for r in soc:
            if gf.gf2_reduce(r, work):
                gf.gf2_insert(work, r)
                added.append(r)
        if dim + len(added) != mdim:
            return None
        return added

    vectors = [m << 1 for m in range(1, 1 << mdim)]

    def build(found, krows):
        nonsimple, simples = [], []
        for v in found:
            elt = alg.element(gf.unpack_vec(v, alg.dim))
            if len(table[v]) == 1:
                simples.append(elt)
            else:
                nonsimple.append(elt)
        simples.extend(alg.element(gf.unpack_vec(r, alg.dim)) for r in krows)
        return structure._normalized_witness(alg, nonsimple, simples)

    for v in vectors:
        rows = list(table[v])
        added = complete(rows, len(rows))
        if added is not None:
            return build([v], added)
    dims = {v: len(table[v]) for v in vectors}
    for i, v in enumerate(vectors):
        dv = dims[v]
        for w in vectors[i + 1:]:
            if dv + dims[w] > mdim:
                continue
            merged = list(table[v])
            if not all(gf.gf2_insert(merged, r) for r in table[w]):
                continue
            added = complete(merged, dv + dims[w])
            if added is not None:
                return build([v, w], added)
    return None


def _summand_dims(dec: MDecomposition) -> list[int]:
    return sorted(cyclic(dec.algebra, g).dim for g in dec.summands())


def _matches_reference_witness(make) -> tuple[bool, bool]:
    """find_m_decomposition (counts first) against the cover search of M
    and, up to dim M 8, the unpruned sweep, each on a fresh algebra from
    make(): where the variables do not split M, it finds a witness
    exactly when the search finds a cover with at most two non-simple
    summands and the sweep finds a witness; that witness verifies, has
    mu(M) summands and the cover's and the sweep's summand dims
    (Krull-Schmidt).  Returns whether the search ran and whether it
    found a witness."""
    alg = make()
    if canonical_variable_split(alg) is not None:
        return False, False
    dec = find_m_decomposition(make())
    cover = structure.m_cover(make(), None, 20)
    assert (dec is None) == (cover is None or len(cover[0]) > 2)
    # the sweep is quadratic in 2^dim M
    expected = _reference_fallback(make()) if alg.dim - 1 <= 8 else dec
    assert (dec is None) == (expected is None)
    if dec is not None:
        alg = dec.algebra
        assert verify_m_decomposition(dec)
        assert dec.summand_count() == min_generators(alg, maximal_ideal(alg))
        dims = sorted(cyclic(alg, g).dim for g in cover[0] + cover[1])
        assert _summand_dims(dec) == dims == _summand_dims(expected)
    return True, dec is not None


def test_pruned_sweep_matches_the_reference_on_the_sweep_family():
    family = sweep_presentations(3, (2, 3, 4), 11)
    assert len(family) == 141
    outcomes = Counter(_matches_reference_witness(lambda: build_algebra(pres))
                       for _, pres in family)
    # every monomial ring of the family whose variables do not split M
    # has no witness
    assert outcomes == Counter({(False, False): 39, (True, False): 102})


def _identify(alg, g, m2: int):
    """R/(g + m2) for a generator g and a packed m2 in M^2: g becomes an
    element of M^2, so the variable images no longer split M."""
    z = g + alg.element(gf.unpack_vec(m2, alg.dim))
    return quotient_algebra(alg, cyclic(alg, z)).target


def test_pruned_sweep_matches_the_reference_on_quotients():
    # the monomial rings never reach the sweep with a witness; these do
    outcomes = Counter()
    for _, pres in sweep_presentations(3, (2, 3), 8):
        alg = build_algebra(pres)
        msq = module_times_ideal(alg, maximal_ideal(alg)).space.basis
        for k in range(len(alg.gens)):
            for r in msq:
                def make(k=k, r=r):
                    fresh = build_algebra(pres)
                    return _identify(fresh, fresh.gens[k], r)
                outcomes[_matches_reference_witness(make)] += 1
    assert outcomes == Counter({(False, False): 150, (True, False): 153,
                                (True, True): 68})


def test_pruned_sweep_matches_the_reference_on_random_rings():
    outcomes = Counter()

    @settings(max_examples=200, deadline=None)
    @given(presentations(), st.data())
    def check(pres, data):
        pres = RingPresentation.make(2, pres.vars, pres.relations, pres.truncate)
        alg = build_algebra(pres)
        assume(alg.dim - 1 <= 8)
        # half the draws identify a variable with an element of M^2
        k = data.draw(st.integers(0, len(alg.gens) - 1)) if data.draw(st.booleans()) else None
        m2 = 0
        for r in module_times_ideal(alg, maximal_ideal(alg)).space.basis:
            if data.draw(st.booleans()):
                m2 ^= r

        def make():
            fresh = build_algebra(pres)
            return fresh if k is None else _identify(fresh, fresh.gens[k], m2)

        outcomes[_matches_reference_witness(make)] += 1

    check()
    # the variable split answers most drawn rings before the sweep runs;
    # enough must reach it for the comparison to mean something
    assert outcomes[True, False] + outcomes[True, True] >= 8, outcomes


# dim soc(M) = mu(M) = 2 and mu(M^j) = 2, 2, 2, yet M has no cover: the
# counts leave this ring to the cover search
COUNTS_PASS_NO_COVER = "field 2 / vars x y / rel x^2 / rel y^4 / rel x*y^3"


@pytest.mark.parametrize("found", [False, True])
def test_fallback_closes_no_vector_of_m_squared(found):
    if found:  # a pair witness: test_fallback_pair's ring
        big = build("field 2 / vars x y z / rel x^3 / rel y^3 / rel z^2"
                    " / rel x*y / rel x*z / rel y*z")
        alg = quotient_by(big, "x^2 + z")
    else:  # both counts pass, Rx and Ry share xy, and nothing else splits M
        alg = build(COUNTS_PASS_NO_COVER)
    assert canonical_variable_split(alg) is None
    assert (find_m_decomposition(alg) is not None) == found
    msq = module_times_ideal(alg, maximal_ideal(alg)).space.basis
    closed = [v for v in packed_cyclic_table(alg) if v]
    assert closed and all(gf.gf2_reduce(v, msq) for v in closed)


# ---------------------------------------------------------------------------
# the counts every cover of M fixes


def test_counts_never_refute_a_ring_with_a_cover():
    tally = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(presentations(), st.data())
    def check(pres, data):
        pres = RingPresentation.make(2, pres.vars, pres.relations, pres.truncate)
        alg = build_algebra(pres)
        assume(alg.dim - 1 <= 10)
        # a third of the draws are models R/(z) for a z in M
        if data.draw(st.integers(0, 2)) == 0 and alg.dim > 1:
            z = maximal_ideal_elements(alg, data, 1)[0]
            assume(not z.is_zero())
            alg = quotient_algebra(alg, cyclic(alg, z)).target
        failure, _ = structure.m_count_failure(alg)
        m = maximal_ideal(alg)
        cover = packed_first_cover(alg, m.space.basis)
        if failure is None:
            tally["passed", cover is not None] += 1
            return
        tally["socle" if failure.startswith("dim soc(M)") else "chain"] += 1
        assert cover is None, failure
        assert oracle_dsc(alg, 10).answer == "no"

    check()
    # both counts must fire, and covers be found, for the check to mean
    # something
    assert tally["socle"] >= 10 and tally["chain"] >= 3, tally
    assert tally["passed", True] >= 10, tally


def test_counts_leave_a_ring_without_a_cover_to_the_search():
    alg = build(COUNTS_PASS_NO_COVER)
    assert structure.m_count_failure(alg) == (None, [2, 2, 2])
    assert canonical_variable_split(alg) is None
    assert packed_first_cover(alg, maximal_ideal(alg).space.basis) is None
    verdict = classify_dsc(alg)
    assert verdict.answer == "no" and verdict.counterexample == maximal_ideal(alg)
    assert verdict.counterexample_note.startswith("exhaustive search")
    assert oracle_dsc(build(COUNTS_PASS_NO_COVER), 10).answer == "no"


def test_chain_count_refutes():
    # M^2 = span{x^2, x*y, y^2, x^2*y} needs three generators, M two;
    # soc(M) = span{y^2, x^2*y} passes the socle count
    alg = build("field 2 / vars x y / rel x^3 / rel y^3 / rel x*y^2")
    failure, mus = structure.m_count_failure(alg)
    assert mus == [2, 3]
    assert failure.startswith("mu(M^2) = 3 but mu(M) = 2")
    verdict = classify_dsc(alg)
    assert verdict.answer == "no" and verdict.counterexample_note == failure
    assert find_m_decomposition(alg) is None
    assert brute_decompose(alg, maximal_ideal(alg)) is None


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
    assert any("confirmed by exhaustive search" in n for n in verdict.notes)


def test_classify_no_without_oracle_confirmation(triple):
    # oracle bound 0 forces the refutation to stand on its own
    verdict = classify_dsc(triple, max_oracle_dim=0)
    assert verdict.answer == "no"
    assert any("skipped" in n for n in verdict.notes)


def test_classify_no_three_summands_on_a_cover():
    # w = x^2 in the quotient, so Rw lies in Rx and the variable split
    # fails; the cover of M has three non-simple summands Rx, Ry, Rz
    big = build("field 2 / vars x y z w / rel x^3 / rel y^3 / rel z^3 / rel w^2"
                " / rel x*y / rel x*z / rel x*w / rel y*z / rel y*w / rel z*w")
    qmap = quotient_algebra(big, cyclic(big, parse_element(big, "w + x^2")))
    q = qmap.target
    assert canonical_variable_split(q) is None
    nonsimple, _ = structure.m_cover(q, None, 8)
    assert len(nonsimple) == 3
    verdict = classify_dsc(q)
    assert verdict.answer == "no"
    expected = ideal_from_generators(q, [qmap.project(parse_element(big, g)) for g in
                                         ("x + z", "y + z", "x^2", "y^2", "z^2")])
    assert verdict.counterexample == expected and expected.dim == 5
    assert verdict.notes == ("counterexample confirmed by exhaustive search",)


def test_classify_no_from_oracle_sweep():
    big = build(PAIR_N3)
    q = quotient_by(big, "x^2 + y^2")
    verdict = classify_dsc(q)
    assert verdict.answer == "no"
    # no cover of M at all: M itself is the counterexample
    assert verdict.counterexample == maximal_ideal(q)
    assert brute_decompose(q, maximal_ideal(q)) is None
    assert verdict.notes == ()


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


# classify refutes these with M at dim M 9 and 10 (the socle count, before
# any search); the census that decided before stops at its default bound
# of 8
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
            # the counts refute every ring of the families that has no cover
            note = verdict.counterexample_note
            assert note.startswith(("dim soc(M) = ", "mu(M^")), name
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


def test_classify_undecided_gf3():
    verdict = classify_dsc(build(GF3_UNDECIDED))
    assert verdict.answer == "undecided_by_search"
    assert verdict.as_dict()["dsc"] == "undecided"
    assert any("exceeded" in n for n in verdict.notes)


def test_classify_principal_chain(chain4):
    verdict = classify_dsc(chain4)
    assert verdict.answer == "yes"
    assert verdict.witness.summand_count() == 1


# ---------------------------------------------------------------------------
# products


def test_product_verdicts(pair_n3, triple):
    yes = classify_dsc(pair_n3)
    no = classify_dsc(triple)
    undecided = DscVerdict("undecided_by_search")

    assert classify_product([yes, yes]).answer == "yes"
    got = classify_product([yes, no])
    assert got.answer == "no"
    assert got.counterexample == no.counterexample
    assert any("factor 2 fails" in n for n in got.notes)
    # a refuted factor settles the product even next to undecided ones
    assert classify_product([undecided, no]).answer == "no"
    assert classify_product([]).answer == "yes"
    with pytest.raises(ValueError, match="factor undecided"):
        classify_product([yes, undecided])


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


def test_spec_as_dict_schema():
    report = spec_for(AXIS_SOCLE)
    assert report.as_dict() == {
        "case": "c",
        "primes": ["M", "Ry"],
        "krull_dim": 1,
        "truncated_model": True,
    }
