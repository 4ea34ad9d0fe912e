"""Witness search, the DSC verdict, products, and the prime spectrum."""

import pytest

from cyclicideals import (MDecomposition, SearchSpaceExceededError,
                          canonical_variable_split, classify_dsc,
                          classify_product, cyclic, find_m_decomposition,
                          ideal_from_generators, is_principal_ideal_ring,
                          annihilator, m_decomposition_problems,
                          parse_element, parse_presentation,
                          quotient_algebra, spec_classify,
                          verify_m_decomposition)
from cyclicideals.structure import DscVerdict
from conftest import (AXIS_SOCLE, CHAIN4, GF3_UNDECIDED, PAIR_N3, POWER_SERIES,
                      SQUARE_ZERO_N2, SQUARE_ZERO_N3, TWO_AXES, build,
                      build_pres)


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


def test_classify_no_from_oracle_sweep():
    big = build(PAIR_N3)
    q = quotient_by(big, "x^2 + y^2")
    verdict = classify_dsc(q)
    assert verdict.answer == "no"
    assert verdict.counterexample is not None
    assert verdict.counterexample.dim > 0


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
