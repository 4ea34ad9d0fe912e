"""Presentations, the standard-monomial basis, and element arithmetic."""

import random
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cyclicideals import (DimensionLimitError, PresentationError,
                          RingPresentation, RingSyntaxError, build_algebra,
                          cyclic, module_times_ideal,
                          parse_element, parse_presentation, pres_str)
from cyclicideals import rings
from cyclicideals.rings import mono_str
import reference_kernels
from reference_kernels import NotExpressibleError, power_form
from conftest import (AXIS_SOCLE, LONG, PAIR_N3, POWER_SERIES, SPLITLINES_BREAKS,
                      TWO_AXES, build, build_pres, presentations,
                      reference_annihilator)


# ---------------------------------------------------------------------------
# parsing


def test_parse_pair_n3():
    pres = parse_presentation(PAIR_N3)
    assert pres.p == 2
    assert pres.vars == ("x", "y")
    assert pres.relations == ((0, 3), (1, 1), (3, 0))
    assert pres.truncate is None
    assert pres.nonnilpotent == (False, False)


def test_slash_and_newline_forms_agree():
    multiline = "field 2\nvars x y\nrel x^3\nrel y^3\nrel x*y  # socle note\n"
    assert parse_presentation(multiline) == parse_presentation(PAIR_N3)


def test_parse_repeated_factor_accumulates():
    pres = parse_presentation("field 2 / vars x y / rel x*x*y / rel x^4 / rel y^2")
    assert (2, 1) in pres.relations


def test_syntax_error_position():
    with pytest.raises(RingSyntaxError) as info:
        parse_presentation("field 2\nvars x\nrel x*z\n")
    assert info.value.line == 3
    assert info.value.column == 7
    assert "unknown variable 'z'" in str(info.value)


@pytest.mark.parametrize("char", SPLITLINES_BREAKS)
def test_only_newlines_end_a_line(char):
    with pytest.raises(RingSyntaxError) as info:
        parse_presentation(f"field 2\nvars x{char}\nrel x*z")
    assert str(info.value) == "line 3, column 7: unknown variable 'z'"
    # as the only separator it runs two declarations together
    with pytest.raises(RingSyntaxError) as info:
        parse_presentation(f"field 2{char}vars x")
    assert str(info.value) == "line 1, column 7: field expects an integer"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_every_newline_convention_ends_a_line(newline):
    with pytest.raises(RingSyntaxError) as info:
        parse_presentation(newline.join(["field 2", "vars x", "", "rel x*z", ""]))
    assert str(info.value) == "line 4, column 7: unknown variable 'z'"


@pytest.mark.parametrize("text,line,column,fragment", [
    ("field 2\nvars x\nrel   x*z\n", 3, 9, "unknown variable 'z'"),
    ("field   two\nvars x\nrel x^2", 1, 9, "field expects an integer"),
    ("field 2 / vars x / rel  x*z", 1, 27, "unknown variable 'z'"),
    ("field 2 / vars  x / rel  x^2 y", 1, 30, "between factors"),
])
def test_syntax_error_columns_count_every_blank(text, line, column, fragment):
    # the column is where the text stands in the line, however many
    # blanks follow the keyword
    with pytest.raises(RingSyntaxError, match=fragment) as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("text,column,fragment", [
    ("field \u00b2 / vars x / rel x^2", 7, "field expects an integer"),
    ("field 2 / vars x / truncate \u00b3", 29, "truncate expects an integer"),
])
def test_declared_integers_are_decimal(text, column, fragment):
    # '²'.isdigit() holds, but int('²') fails
    with pytest.raises(RingSyntaxError, match=fragment) as info:
        parse_presentation(text)
    assert info.value.column == column


@pytest.mark.parametrize("text,column", [
    (f"field {LONG} / vars x / rel x^2", 7),
    (f"field 2 / vars x / truncate {LONG}", 29),
    (f"field 2 / vars x / rel x^{LONG}", 26),
    (f"field 2 / vars x y / rel {LONG}*x^2", 26),
], ids=["field", "truncate", "exponent", "coefficient"])
def test_a_long_integer_is_a_syntax_error_at_its_column(text, column):
    with pytest.raises(RingSyntaxError) as info:
        parse_presentation(text)
    assert str(info.value) == f"line 1, column {column}: integer of 4301 digits is too long"


@pytest.mark.parametrize("text", ["field 2 / vars x y / rel x^2 + y^2",
                                  "field 2 / vars x y / rel 3*x^2",
                                  "field 2 / vars x y / rel -x*y"])
def test_rel_is_one_monomial_of_coefficient_one(text):
    with pytest.raises(RingSyntaxError, match="one monomial of coefficient 1"):
        parse_presentation(text)


def test_rel_reads_the_element_grammar():
    pres = parse_presentation("field 3 / vars x y / rel 1*x ^ 2 / rel y*y*1*y")
    assert pres.relations == ((0, 3), (2, 0))


@pytest.mark.parametrize("text,fragment", [
    ("field 2 / field 3 / vars x / rel x^2", "duplicate field"),
    ("field two / vars x / rel x^2", "field expects an integer"),
    ("vars x / rel x^2 / field 2 / rel x^2 / vars y", "duplicate vars"),
    ("field 2 / rel x^2 / vars x", "rel before vars"),
    ("field 2 / vars x / rel x^0", "exponent must be a positive integer"),
    ("field 2 / vars x / rel", "empty monomial"),
    ("field 2 / vars x / rel *x", "unexpected '*'"),
    ("field 2 / vars x / rel x x", "between factors"),
    ("field 2 / vars x / ideal x", "unknown declaration"),
    ("field 2 / vars x / truncate 4 / truncate 5", "duplicate truncate"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(RingSyntaxError, match=fragment):
        parse_presentation(text)


_BLANKS = st.text(alphabet=" \t", max_size=3)


@st.composite
def _declarations(draw):
    """A valid presentation as its (keyword, argument) pairs, vars before
    every rel, field and truncate anywhere."""
    names = draw(st.lists(st.sampled_from(["x", "y", "z", "t1", "a_b", "Q"]),
                          min_size=1, max_size=3, unique=True))
    nv = len(names)
    truncate = draw(st.none() | st.integers(2, 6))
    rels = [tuple(draw(st.integers(2, 4)) * (j == i) for j in range(nv))
            for i in range(nv) if truncate is None or draw(st.booleans())]
    rels += draw(st.lists(st.tuples(*[st.integers(0, 2)] * nv).filter(lambda e: sum(e) >= 2),
                          max_size=2))
    decls = [("vars", draw(_BLANKS).join(" " + n for n in names))]
    for r in rels:  # blanks may stand around every '*'
        decls.append(("rel", "*".join(draw(_BLANKS) + f + draw(_BLANKS)
                                      for f in mono_str(r, names).split("*"))))
    decls.insert(draw(st.integers(0, len(decls))), ("field", str(draw(st.sampled_from([2, 3, 5])))))
    if truncate is not None:
        decls.insert(draw(st.integers(0, len(decls))), ("truncate", str(truncate)))
    return decls


def _render(data, decls):
    """The declarations laid out with random separators, blanks, tabs and
    comments, and the (line, column) where each keyword stands."""
    lines, line, at = [], "", []
    for k, (keyword, arg) in enumerate(decls):
        line += data.draw(_BLANKS)
        at.append((len(lines) + 1, len(line) + 1))
        line += keyword + data.draw(st.text(alphabet=" \t", min_size=1, max_size=3))
        line += arg + data.draw(_BLANKS)
        if k + 1 < len(decls) and data.draw(st.booleans()):
            line += "/"
            continue
        if data.draw(st.booleans()):
            line += "#" + data.draw(st.text(alphabet="ab /#\t", max_size=6))
        lines.append(line)
        line = ""
        if data.draw(st.booleans()):  # a blank or comment-only line
            lines.append(data.draw(_BLANKS) + data.draw(st.sampled_from(["", "# field 2"])))
    return "\n".join(lines), at


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_declarations(), st.data())
def test_declarations_read_the_same_under_any_layout(decls, data):
    want = parse_presentation("\n".join(f"{k} {a}" for k, a in decls))
    text, _ = _render(data, decls)
    assert parse_presentation(text) == want
    # a second once-only declaration, or an unknown one, is refused at the
    # line and column where its keyword stands
    keyword = data.draw(st.sampled_from(
        [k for k, _ in decls if k != "rel"] + ["ideal", "fields", "Vars", "x"]))
    first = next((k for k, (kw, _) in enumerate(decls) if kw == keyword), -1)
    slot = data.draw(st.integers(first + 1, len(decls)))
    arg = data.draw(st.sampled_from(["3", "two", "x y", ""]))
    text, at = _render(data, decls[:slot] + [(keyword, arg)] + decls[slot:])
    message = (f"duplicate {keyword} declaration" if first >= 0
               else f"unknown declaration '{keyword}'")
    with pytest.raises(RingSyntaxError) as info:
        parse_presentation(text)
    assert str(info.value) == "line {}, column {}: {}".format(*at[slot], message)


@pytest.mark.parametrize("text,fragment", [
    ("field 4 / vars x / rel x^2", "field size not prime"),
    ("field 2 / vars x x / rel x^2", "duplicate variable"),
    ("field 2 / vars x y / rel x / rel y^2", "degree-1 relation"),
    ("field 2 / vars x / rel 1", "constant relation makes the ring zero"),
    ("field 2147483648 / vars x / rel x^2", "must be below 2\\^31"),
    ("field 2 / vars x", "infinite dimensional without truncate"),
    ("field 2 / vars x / truncate 1", "truncate bound must be at least 2"),
    ("vars x / rel x^2", "missing field"),
    ("field 2", "missing vars"),
])
def test_presentation_errors(text, fragment):
    with pytest.raises(PresentationError, match=fragment):
        parse_presentation(text)


def test_huge_field_refused_before_trial_division():
    # trial division up to sqrt(p) would run for minutes on this prime
    start = time.perf_counter()
    with mock.patch.object(rings, "_is_prime", side_effect=AssertionError("trial division")):
        with pytest.raises(PresentationError, match="must be below 2\\^31"):
            parse_presentation("field 1000000000000000003 / vars x / rel x^2")
    assert time.perf_counter() - start < 1.0
    assert build("field 2147483647 / vars x / rel x^2").dim == 2


def test_presentation_error_no_vars():
    with pytest.raises(PresentationError, match="no variables"):
        RingPresentation.make(2, (), [])


def test_mono_and_pres_rendering():
    assert mono_str((2, 1), ("x", "y")) == "x^2*y"
    assert mono_str((0, 0), ("x", "y")) == "1"
    pres = parse_presentation(PAIR_N3)
    assert pres_str(pres) == "GF(2)[x,y]/(y^3,x*y,x^3)"
    trunc = parse_presentation(POWER_SERIES)
    assert pres_str(trunc) == "GF(2)[x] truncated at degree 6"


def test_nonnilpotent_flags():
    assert parse_presentation(TWO_AXES).nonnilpotent == (True, True)
    assert parse_presentation(AXIS_SOCLE).nonnilpotent == (True, False)


# ---------------------------------------------------------------------------
# basis enumeration


def test_pair_n3_basis():
    alg = build(PAIR_N3)
    assert alg.dim == 5
    assert alg.basis == ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2))


def test_truncated_chain_basis():
    alg = build(POWER_SERIES)
    assert alg.dim == 6
    x = alg.var("x")
    assert not (x ** 5).is_zero()
    assert (x ** 6).is_zero()


def test_power_stops_once_zero():
    alg = build(PAIR_N3)
    x, y = alg.gens
    assert (x ** 1_000_000_000).is_zero()  # not 10^9 multiplications
    assert (x + y) ** 2 == x * x + y * y and x ** 0 == alg.unit()
    unit = alg.unit() + x
    assert unit ** 7 == unit * unit * unit * unit * unit * unit * unit


def test_impure_relation_prunes_basis():
    alg = build("field 2 / vars x y / rel x^3 / rel y^3 / rel x^2*y")
    assert (2, 1) not in alg.basis
    assert (1, 2) in alg.basis
    x, y = alg.gens
    assert (x * x * y).is_zero()
    assert not (x * y * y).is_zero()


def test_dimension_limit():
    pres = parse_presentation(PAIR_N3)
    with pytest.raises(DimensionLimitError):
        build_algebra(pres, max_dim=3)
    with pytest.raises(DimensionLimitError):
        build_algebra(parse_presentation("field 2 / vars x / truncate 5000"),
                      max_dim=4096)


def test_dimension_limit_refuses_inside_a_degree():
    # degree 2 of 300 variables holds 45,150 monomials of 300 exponents,
    # over 100 MB; the guard must refuse long before that degree is full
    names = " ".join(f"x{k}" for k in range(300))
    pres = parse_presentation(f"field 2 / vars {names} / truncate 3")
    tracemalloc.start()
    try:
        with pytest.raises(DimensionLimitError, match="exceeds configured limit"):
            build_algebra(pres, max_dim=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_dimension_limit_counts_the_basis_not_the_exponent_box():
    # the exponent box below x^2000, y^2000 has 4 * 10^6 points, the basis
    # 3,999 monomials: 1, then x^a and y^b for a, b < 2000
    alg = build("field 2 / vars x y / rel x^2000 / rel y^2000 / rel x*y")
    assert alg.dim == 3999
    assert alg.basis[:5] == ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2))
    assert alg.basis[-1] == (0, 1999)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(presentations(max_vars=4), st.integers(1, 400))
def test_basis_matches_the_exponent_box_walk(pres, max_dim):
    try:
        expected = reference_kernels.standard_monomials(pres, max_dim)
    except DimensionLimitError:
        expected = None
    if expected is None:
        with pytest.raises(DimensionLimitError):
            build_algebra(pres, max_dim)
    else:
        assert build_algebra(pres, max_dim).basis == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(presentations(max_vars=4))
def test_successors_match_the_tuple_lookup(pres):
    # build_algebra hands over the canonical products and a recurrence
    # fills in the rest; the reference builds each product x_v * m_k and
    # looks it up
    alg = build_algebra(pres)
    assert alg.succ == _tuple_successors(alg)


def _tuple_successors(alg):
    return [[alg.index.get(m[:v] + (m[v] + 1,) + m[v + 1:], -1) for m in alg.basis]
            for v in range(len(alg.presentation.vars))]


def _shared_keys(pres):
    """The (variable, exponent) keys under which build_algebra indexes two
    or more impure relations."""
    keys = Counter((v, e) for r in pres.relations for v, e in enumerate(r)
                   if 0 < e < sum(r))
    return [key for key, n in keys.items() if n >= 2]


@st.composite
def crowded_presentations(draw):
    """Up to 4 variables and up to 6 impure relations, about half of them
    sharing one (variable, exponent) key, with and without truncation."""
    nv = draw(st.integers(2, 4))
    truncate = draw(st.one_of(st.none(), st.integers(2, 9)))
    rels = []
    for v in range(nv):
        if truncate is None or draw(st.booleans()):
            m = [0] * nv
            m[v] = draw(st.integers(2, 6))
            rels.append(tuple(m))
    key_v, key_e = draw(st.integers(0, nv - 1)), draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 6))):
        m = [draw(st.integers(0, 3)) for _ in range(nv)]
        v = key_v if draw(st.booleans()) else draw(st.integers(0, nv - 1))
        m[v] = key_e if v == key_v else max(m[v], 1)
        u = draw(st.integers(0, nv - 2))
        u += u >= v  # a second variable, so the relation is impure
        m[u] = max(m[u], 1)
        rels.append(tuple(m))
    return RingPresentation.make(2, [f"x{v}" for v in range(nv)], rels, truncate)


def test_builder_matches_the_box_walk_under_crowded_relation_keys():
    seen = Counter()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(crowded_presentations(), st.integers(1, 600))
    def check(pres, max_dim):
        try:
            expected = reference_kernels.standard_monomials(pres, max_dim)
        except DimensionLimitError:
            with pytest.raises(DimensionLimitError):
                build_algebra(pres, max_dim)
            seen["refused"] += 1
            return
        alg = build_algebra(pres, max_dim)
        assert alg.basis == expected
        assert alg.succ == _tuple_successors(alg)
        seen["shared" if _shared_keys(pres) else "distinct"] += 1
        seen["truncated" if pres.truncate is not None else "untruncated"] += 1

    check()
    assert min(seen[k] for k in ("shared", "distinct", "truncated", "untruncated",
                                 "refused")) >= 20, seen


def test_a_child_is_tested_only_against_the_relations_of_its_key():
    # x*z^2 and y*z^2 both sit under (z, 2), y*z^2 first in the sorted
    # relations, so the child x*z^2 = z * (x*z) is cut only by the second
    # relation of its key.  A child is made through its last variable v,
    # and is tested only against relations of its own v-exponent: none
    # for the children under (z, 1), such as x*z and z
    pres = parse_presentation("field 2 / vars x y z / rel x^3 / rel y^3 / rel z^3"
                              " / rel x*z^2 / rel y*z^2")
    assert _shared_keys(pres) == [(2, 2)]
    tested, divides = [], rings.mono_divides

    def spy(a, b):
        tested.append((a, b))
        return divides(a, b)

    with mock.patch.object(rings, "mono_divides", spy):
        alg = build_algebra(pres)
    assert alg.basis == reference_kernels.standard_monomials(pres, 4096)
    assert (1, 0, 2) not in alg.basis and (0, 1, 2) not in alg.basis
    assert (1, 0, 1) in alg.basis and (0, 0, 2) in alg.basis
    assert ((0, 1, 2), (1, 0, 2)) in tested and ((1, 0, 2), (1, 0, 2)) in tested
    last = [max(v for v in range(3) if b[v]) for _, b in tested]
    assert all(a[v] == b[v] for (a, b), v in zip(tested, last))
    assert 2 in last and not any(b[2] == 1 for _, b in tested)
    assert alg.succ == _tuple_successors(alg)
    x, y, z = alg.gens
    assert (x * z * z).is_zero() and not (x * x * z).is_zero()


def test_a_ring_without_impure_relations_tests_no_child():
    with mock.patch.object(rings, "mono_divides", side_effect=AssertionError):
        alg = build("field 3 / vars x y z / rel x^4 / rel y^3 / truncate 6")
    assert alg.basis == reference_kernels.standard_monomials(alg.presentation, 4096)


# ---------------------------------------------------------------------------
# element arithmetic


def _random_element(rng, alg):
    return alg.element([rng.randrange(alg.p) for _ in range(alg.dim)])


@pytest.mark.parametrize("text", [PAIR_N3, "field 3 / vars x y / rel x^3 / rel y^2",
                                  AXIS_SOCLE])
def test_ring_axioms_sampled(text):
    alg = build(text)
    rng = random.Random(len(text))
    one = alg.unit()
    for _ in range(60):
        a, b, c = (_random_element(rng, alg) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert (a - a).is_zero()


def test_maximal_ideal_elements_nilpotent():
    alg = build("field 3 / vars x y / rel x^3 / rel y^2")
    rng = random.Random(7)
    for _ in range(40):
        coeffs = [0] + [rng.randrange(3) for _ in range(alg.dim - 1)]
        v = alg.element(coeffs)
        assert (v ** alg.dim).is_zero()


def test_element_str():
    alg = build("field 3 / vars x y / rel x^3 / rel y^2")
    z = parse_element(alg, "1 + 2*x^2 + x*y")
    # basis order is by degree, then earlier-variable powers first
    assert str(z) == "1 + 2*x^2 + x*y"
    assert str(alg.zero()) == "0"


# ---------------------------------------------------------------------------
# element expressions


def test_parse_element_basic():
    alg = build(PAIR_N3)
    x, y = alg.gens
    assert parse_element(alg, "x+y") == x + y
    assert parse_element(alg, "x^2 + x*y") == x * x  # x*y dies in the quotient
    assert parse_element(alg, "0").is_zero()
    assert parse_element(alg, "1") == alg.unit()


def test_parse_element_signs_mod_p():
    alg = build("field 3 / vars x y / rel x^3 / rel y^2")
    x, y = alg.gens
    assert parse_element(alg, "-x + 4*y") == x.scale(2) + y
    assert parse_element(alg, "2*x - y") == x.scale(2) - y


@pytest.mark.parametrize("text", ["", "x +", "q", "x^", "x^y", "1 2", "(x)"])
def test_parse_element_errors(text):
    alg = build(PAIR_N3)
    with pytest.raises(ValueError):
        parse_element(alg, text)


@pytest.mark.parametrize("text,column,fragment", [
    ("x + 2*q", 7, "unknown variable 'q'"),
    ("x y", 3, "between factors"),
    ("x^0 + y", 3, "exponent must be a positive integer"),
    ("x - -y", 5, "unexpected '-'"),
    ("x +", 4, "empty monomial"),
])
def test_parse_element_error_columns(text, column, fragment):
    with pytest.raises(RingSyntaxError, match=fragment) as info:
        parse_element(build(PAIR_N3), text)
    assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.parametrize("text,column", [(f"x + y^{LONG}", 7), (f"x - {LONG}*y", 5)],
                         ids=["exponent", "coefficient"])
def test_parse_element_reads_long_integers_as_syntax_errors(text, column):
    with pytest.raises(RingSyntaxError) as info:
        parse_element(build(PAIR_N3), text)
    assert str(info.value) == f"line 1, column {column}: integer of 4301 digits is too long"


@st.composite
def element_texts(draw, names):
    """Expressions of signed terms with integer coefficients, positive
    exponents, repeated factors and monomials past the relations."""

    def factor():
        if draw(st.integers(0, 3)) == 0:
            return str(draw(st.integers(0, 12)))
        name, exp = draw(st.sampled_from(names)), draw(st.integers(1, 7))
        return name if exp == 1 and draw(st.booleans()) else f"{name}^{exp}"

    def gap():
        return draw(st.sampled_from(["", " ", "  "]))

    text = draw(st.sampled_from(["", "-", "+"]))
    for n in range(draw(st.integers(1, 4))):
        if n:
            text += gap() + draw(st.sampled_from("+-")) + gap()
        text += (gap() + "*" + gap()).join(factor() for _ in range(draw(st.integers(1, 4))))
    return text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(presentations(), st.data())
def test_parse_element_matches_the_multiplied_out_reference(pres, data):
    alg = build_algebra(pres)
    for _ in range(4):
        text = data.draw(element_texts(pres.vars))
        assert parse_element(alg, text) == reference_kernels.parse_element(alg, text), text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(presentations(), st.data())
def test_parse_element_reads_back_str(pres, data):
    alg = build_algebra(pres)
    z = alg.element(data.draw(st.lists(st.integers(0, pres.p - 1),
                                       min_size=alg.dim, max_size=alg.dim)))
    assert parse_element(alg, str(z)) == z


@settings(derandomize=True, max_examples=200, deadline=None)
@given(presentations(primes=(2, 3, 5, 2 ** 31 - 1)), st.data())
def test_terms_walk_the_nonzero_coordinates(pres, data):
    alg = build_algebra(pres)
    coeff = st.sampled_from([0, 0, 1, pres.p - 1]) | st.integers(0, pres.p - 1)
    drawn = [alg.element(data.draw(st.lists(coeff, min_size=alg.dim, max_size=alg.dim)))
             for _ in range(3)]
    for z in [alg.zero(), alg.unit()] + drawn:
        assert alg.terms(z.vec) == [(c, alg.basis[k]) for k, c in enumerate(z.coeffs) if c]
        assert str(z) == reference_kernels.el_str(alg, z.vec)


# ---------------------------------------------------------------------------
# unit-times-power form


def test_power_form_chain():
    alg = build("field 2 / vars x / rel x^4")
    x = alg.gens[0]
    z = x ** 2 + x ** 3
    a, n = power_form(alg, x, z)
    assert n == 2
    assert a.vec & alg.field.one  # a is a unit
    assert a * x ** n == z
    assert power_form(alg, x, x) == (alg.unit(), 1)


def test_power_form_gf3():
    alg = build("field 3 / vars x / rel x^4 / rel x*x^3")  # plain chain, p = 3
    x = alg.gens[0]
    z = x.scale(2) * x  # 2x^2
    a, n = power_form(alg, x, z)
    assert n == 2 and a * x ** n == z and a.vec & alg.field.one


def test_power_form_rejects():
    alg = build(PAIR_N3)
    x, y = alg.gens
    with pytest.raises(NotExpressibleError):
        power_form(alg, x, alg.zero())
    with pytest.raises(NotExpressibleError):
        power_form(alg, x, y)  # outside Rx
    # inside Rx but with no unit-times-power expression: x*y in a ring
    # where Rx is not a chain
    wide = build("field 2 / vars x y / rel x^2 / rel y^2")
    wx, wy = wide.gens
    with pytest.raises(NotExpressibleError):
        power_form(wide, wx, wx * wy)


def test_power_form_needs_mx_equal_rx2_not_a_principal_quotient():
    # GF(2)[t]/(t^4), x = t^2: R/Ann(x) = GF(2)[t]/(t^2) is a principal
    # ideal ring, yet t^3 in Rx is no unit times a power of x, because
    # Mx = R t^3 differs from Rx^2 = 0
    alg = build("field 2 / vars t / rel t^4")
    t = alg.gens[0]
    x = t ** 2
    assert alg.dim - reference_annihilator(alg, x).dim == 2
    rx = cyclic(alg, x)
    assert module_times_ideal(alg, rx).dim == 1 and cyclic(alg, x ** 2).dim == 0
    assert rx.contains(t ** 3)
    with pytest.raises(NotExpressibleError):
        power_form(alg, x, t ** 3)


def test_power_form_every_member_of_chain():
    _, alg = build_pres(POWER_SERIES)
    x = alg.gens[0]
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 6)
        unit = alg.unit() + _random_element(rng, alg) * alg.gens[0]
        z = unit * x ** n
        a, m = power_form(alg, x, z)
        assert m == n
        assert a * x ** m == z
