"""End-to-end command line checks, run in process through main(argv)."""

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import cyclicideals
from cyclicideals import DimensionLimitError, build_algebra, oracle, parse_presentation
from cyclicideals.cli import main
from conftest import (AXIS_SOCLE, GF3_MIXED, LONG, MIXED_PROOF, PAIR_N3,
                      SPLITLINES_BREAKS, TRIPLE, TWO_AXES, certificate_note)

INFINITE = "field 2 / vars x y / rel x*y"
# three non-simple axes with dim M = 9, one past the oracle's old bound on
# dim M
TRIPLE_N4 = ("field 2 / vars x y z / rel x^4 / rel y^4 / rel z^4"
             " / rel x*y / rel x*z / rel y*z")
# dim M = 22, past the packed cyclic table's limit of 20; x*y != 0
# refutes it
WIDE = "field 2 / vars x y / rel x^2 / rel y^12 / rel x*y^11"


@pytest.fixture
def ring_file(tmp_path):
    def write(text, name="r.ring"):
        path = tmp_path / name
        path.write_text(text.replace(" / ", "\n") + "\n")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# classify


def test_classify_yes(ring_file, capsys):
    code, out, _ = run(capsys, "classify", ring_file(PAIR_N3))
    assert code == 0
    assert "dsc: yes" in out
    assert "witness: M = R(x) dim 2 + R(y) dim 2" in out
    assert "spec: case a" in out


def test_classify_no(ring_file, capsys):
    code, out, _ = run(capsys, "classify", ring_file(TRIPLE))
    assert code == 1
    assert "dsc: no" in out
    assert "counterexample ideal" in out


def test_classify_refutes_a_mixed_product_over_gf3(ring_file, capsys):
    # the mixed product decides at every p
    code, out, _ = run(capsys, "classify", ring_file(GF3_MIXED))
    assert code == 1
    assert "dsc: no" in out
    assert f"  {MIXED_PROOF.format('x*y')}" in out.splitlines()


def test_classify_refutes_by_the_mixed_product(ring_file, capsys):
    # x*y != 0 is the proof classify gives, and decompose and spec find
    # no witness to run on
    path = ring_file("field 3 / vars x y / rel x^2 / rel y^2")
    code, out, _ = run(capsys, "classify", "--json", path)
    assert code == 1
    ce = json.loads(out)["counterexample"]
    assert ce["basis"] == ["x", "y", "x*y"] and ce["dim"] == 3
    assert ce["proof"] == MIXED_PROOF.format("x*y")
    for argv in (["decompose", path, "--ideal", "x"], ["spec", path]):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert "no witness decomposition of the maximal ideal" in err


def test_classify_takes_no_oracle_bound(ring_file, capsys):
    # the certificate refutes at any size, and the census is bounded
    # by the ideals it reaches, so no command takes a bound on dim M
    path = ring_file(TRIPLE_N4)
    code, out, _ = run(capsys, "classify", path)
    assert code == 1
    assert f"note: {certificate_note('x', 'y', 'z')}" in out.splitlines()
    for command in ("classify", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--max-oracle-dim", "8"])
        assert exc.value.code == 3
    code, out, _ = run(capsys, "oracle", "--json", path)
    assert code == 0 and json.loads(out)["dsc"] == "no"


@pytest.mark.parametrize("command", ["classify", "oracle"])
def test_a_ring_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.ring"
    path.write_bytes(b"field 2\nvars x\nrel x^2\xff\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err


def test_a_byte_order_mark_is_not_part_of_the_ring_text(tmp_path, capsys):
    plain = resources.files("cyclicideals") / "corpus" / "nilpotent-triple.ring"
    text = plain.read_text(encoding="utf-8")
    bom = tmp_path / "bom.ring"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    want = run(capsys, "classify", "--json", str(plain))
    assert run(capsys, "classify", "--json", str(bom)) == want
    assert want[0] == 1 and json.loads(want[1])["dsc"] == "no"
    # an error further down keeps its line and column
    bom.write_bytes(b"\xef\xbb\xbffield 2\nvars x\n  rel x^2 +\n")
    code, out, err = run(capsys, "classify", str(bom))
    assert code == 3 and out == ""
    assert err == f"error: {bom}: line 3, column 12: empty monomial\n"


@pytest.mark.parametrize("text", [f"field 2\nvars x{c}\nrel x*z\n" for c in SPLITLINES_BREAKS]
                         + ["field 2\r\nvars x\r\nrel x*z\r\n", "field 2\rvars x\rrel x*z\r"])
def test_ring_file_lines_end_at_newlines_only(tmp_path, capsys, text):
    path = tmp_path / "r.ring"
    path.write_bytes(text.encode())
    code, out, err = run(capsys, "classify", str(path))
    assert code == 3 and out == ""
    assert err == f"error: {path}: line 3, column 7: unknown variable 'z'\n"


def _assert_refuted_past_the_table(capsys, path) -> None:
    code, out, _ = run(capsys, "classify", "--json", path)
    payload = json.loads(out)
    assert code == 1 and payload["dsc"] == "no" and payload["notes"] == []
    assert payload["counterexample"]["dim"] == payload["dim"] - 1
    assert payload["counterexample"]["proof"] == MIXED_PROOF.format("x*y")
    for argv in (["decompose", path, "--ideal", "x"], ["spec", path]):
        code, _, err = run(capsys, *argv)
        assert code == 4 and "no witness decomposition of the maximal ideal" in err


def test_max_dim_past_the_cyclic_table_limit(ring_file, capsys):
    # dim M = 22: the mixed product refutes at any size
    _assert_refuted_past_the_table(capsys, ring_file(WIDE))


def test_oracle_bound_past_the_cyclic_table_limit(ring_file, capsys):
    # the table's limit of 20 bounds no census: oracle decides dim M = 22
    # and 21, and agrees with classify
    narrower = ring_file(WIDE.replace("x*y^11", "x*y^10"), "narrower.ring")
    for path in (ring_file(WIDE), narrower):
        code, out, _ = run(capsys, "oracle", "--json", path)
        assert code == 0 and json.loads(out)["dsc"] == "no"
        _assert_refuted_past_the_table(capsys, path)


def test_classify_refuses_a_ring_past_the_dimension_guard(ring_file, capsys):
    # the guard is a refusal, exit 4, as for every other command
    big = ring_file("field 2 / vars x / truncate 5000", "big.ring")
    code, out, err = run(capsys, "classify", big)
    assert (code, out) == (4, "")
    assert err == f"refused: {big}: dimension exceeds configured limit\n"
    # in a product, a second factor past the guard refuses the whole
    code, out, err = run(capsys, "classify", "--json", ring_file(PAIR_N3, "a.ring"), big)
    assert (code, out) == (4, "")
    assert err == f"refused: {big}: dimension exceeds configured limit\n"


@pytest.mark.parametrize("text,codes", [
    # dim 4093: three axes, no witness, so classify says no and spec refuses
    ("field 2 / vars x y z / rel x*y / rel x*z / rel y*z / truncate 1365", (1, 4)),
    # dim 4095: two axes, a witness, and a spectrum
    ("field 2 / vars x y / rel x*y / truncate 2048", (0, 0)),
    # the same over the widest field: each axis closes off the successor
    # maps, and the witness's unit rows are checked without elimination
    ("field 2147483647 / vars x y / rel x*y / truncate 2048", (0, 0)),
], ids=["three-axes-dim-4093", "two-axes-dim-4095", "wide-two-axes-dim-4095"])
def test_rings_just_under_the_dimension_guard_finish_in_seconds(ring_file, text, codes):
    # a fresh interpreter per command, as a user runs it; a ring under
    # the guard must not stall for seconds (ROADMAP aim 3)
    path = ring_file(text)
    env = dict(os.environ, PYTHONPATH=str(Path(cyclicideals.__file__).parents[1]))
    for command, code in zip(("classify", "spec"), codes):
        done = subprocess.run([sys.executable, "-m", "cyclicideals.cli", command, path],
                              capture_output=True, env=env, timeout=5)
        assert done.returncode == code, done.stderr


def test_spec_refuses_the_wide_three_axes_without_closing_j(ring_file):
    # three axes over GF(2^31 - 1), dim 4093: no witness, and spec says so
    # off the variable split, without first closing and checking the
    # counterexample J that classify prints, which takes seconds here
    path = ring_file("field 2147483647 / vars x y z / rel x*y / rel x*z / rel y*z"
                     " / truncate 1365")
    env = dict(os.environ, PYTHONPATH=str(Path(cyclicideals.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "cyclicideals.cli", "spec", path],
                          capture_output=True, text=True, env=env, timeout=2)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("refused: ")


def test_oracle_refuses_square_zero_in_8_variables_in_seconds(ring_file):
    # dim M = 8, inside the old bound on dim M, but 417,200 ideals: the
    # walk stops at its budget of ideals, in a fresh interpreter as a
    # user runs it, before the census turns into a stall (ROADMAP aim 3)
    names = "abcdefgh"
    rels = " / ".join(f"rel {u}*{v}" for k, u in enumerate(names) for v in names[k:])
    path = ring_file(f"field 2 / vars {' '.join(names)} / {rels}")
    env = dict(os.environ, PYTHONPATH=str(Path(cyclicideals.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "cyclicideals.cli", "oracle", path],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("refused: census infeasible: more than ")


@pytest.mark.parametrize("text,line,column", [
    (f"field {LONG} / vars x / rel x^2", 1, 7),
    (f"field 2 / vars x / truncate {LONG}", 3, 10),
    (f"field 2 / vars x / rel x^{LONG}", 3, 7),
    (f"field 2 / vars x y / rel {LONG}*x^2", 3, 5),
], ids=["field", "truncate", "exponent", "coefficient"])
def test_a_long_integer_in_a_ring_file_is_a_syntax_error(ring_file, capsys, text, line, column):
    path = ring_file(text)
    code, out, err = run(capsys, "classify", path)
    assert (code, out) == (3, "")
    assert err == (f"error: {path}: line {line}, column {column}: "
                   "integer of 4301 digits is too long\n")


def test_classify_json_is_deterministic(ring_file, capsys):
    path = ring_file(PAIR_N3)
    _, first, _ = run(capsys, "classify", "--json", path)
    _, second, _ = run(capsys, "classify", "--json", path)
    assert first == second
    payload = json.loads(first)
    assert json.dumps(payload, indent=2, sort_keys=True,
                      separators=(",", ": ")) + "\n" == first
    assert payload["dsc"] == "yes"
    assert payload["dim"] == 5
    assert payload["spec"]["case"] == "a"


def test_classify_product_no_dominates(ring_file, capsys):
    code, out, _ = run(capsys, "classify",
                       ring_file(PAIR_N3, "a.ring"), ring_file(TRIPLE, "b.ring"))
    assert code == 1
    assert "factor 2 fails" in out
    assert "--- factor 2 ---" in out


def test_classify_product_with_a_mixed_product_factor(ring_file, capsys):
    code, out, _ = run(capsys, "classify", "--json",
                       ring_file(PAIR_N3, "a.ring"), ring_file(GF3_MIXED, "b.ring"))
    assert code == 1
    payload = json.loads(out)
    assert payload["notes"] == ["factor 2 fails"]
    assert payload["counterexample"]["proof"] == MIXED_PROOF.format("x*y")
    assert [f["dsc"] for f in payload["factors"]] == ["yes", "no"]


def test_classify_missing_and_malformed(ring_file, capsys, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path / "ghost.ring"))
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "classify", ring_file("field 2 / vars x / rel"))
    assert code == 3 and "line" in err


def test_classify_requires_truncation_for_infinite(ring_file, capsys):
    path = ring_file(INFINITE)
    code, _, err = run(capsys, "classify", path)
    assert code == 3 and "truncate" in err
    code, out, _ = run(capsys, "classify", path, "--truncate", "6")
    assert code == 0 and "case e" in out


# ---------------------------------------------------------------------------
# decompose


def test_decompose_text_and_json(ring_file, capsys):
    path = ring_file(PAIR_N3)
    code, out, _ = run(capsys, "decompose", path, "--ideal", "x+y")
    assert code == 0
    assert "branch: diagonal (n0=2, m0=2" in out
    assert "summand: R(x + y) dim 3" in out
    code, out, _ = run(capsys, "decompose", "--json", path, "--ideal", "x, y")
    payload = json.loads(out)
    assert payload["trace"]["branch"] == "two_axes"
    assert payload["generators"] == ["x", "y"]


def test_decompose_diagonal_in_a_wide_ideal(ring_file, capsys):
    # R(x + y) has dim 15 over GF(5): 5^15 combinations of its basis
    ring = ring_file("field 5 / vars x y / rel x^9 / rel y^9 / rel x*y")
    code, out, _ = run(capsys, "decompose", "--json", ring, "--ideal", "x+y")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["branch"] == "diagonal"
    assert payload["generators"] == ["x + y"]


def test_decompose_zero_ideal(ring_file, capsys):
    code, out, _ = run(capsys, "decompose", ring_file(PAIR_N3), "--ideal", "0")
    assert code == 0
    assert "branch: semisimple" in out


def test_decompose_huge_exponent(ring_file, capsys):
    # x^1000000000 is zero; the power stops at the first zero power
    code, out, _ = run(capsys, "decompose", ring_file(PAIR_N3), "--ideal",
                       "x^1000000000")
    assert code == 0
    assert "branch: semisimple" in out


def test_decompose_long_exponent_is_a_syntax_error(ring_file, capsys):
    code, _, err = run(capsys, "decompose", ring_file(PAIR_N3), "--ideal", f"x^{LONG}")
    assert code == 3
    assert err.endswith("': line 1, column 3: integer of 4301 digits is too long\n")


def test_decompose_truncation_note(ring_file, capsys):
    path = ring_file(AXIS_SOCLE)
    code, out, _ = run(capsys, "decompose", path, "--ideal", "x+y")
    assert code == 0 and "result lifts (below horizon)" in out
    code, out, _ = run(capsys, "decompose", path, "--ideal", "x^5")
    assert code == 0 and "touches the truncation horizon" in out


def test_decompose_refusals(ring_file, capsys):
    code, _, err = run(capsys, "decompose", ring_file(TRIPLE), "--ideal", "x1")
    assert code == 4 and "no witness" in err
    code, _, err = run(capsys, "decompose", ring_file(PAIR_N3), "--ideal", "1 + x")
    assert code == 4 and "not proper" in err
    code, _, err = run(capsys, "decompose", ring_file(PAIR_N3), "--ideal", "x + q")
    assert code == 3 and "generator" in err


# ---------------------------------------------------------------------------
# spec


def test_spec_report(ring_file, capsys):
    code, out, _ = run(capsys, "spec", ring_file(AXIS_SOCLE))
    assert code == 0
    assert "case: c" in out
    assert "krull dim: 1" in out
    assert out.count("prime:") == 2
    assert "spectrum read symbolically" in out


def test_spec_json_schema(ring_file, capsys):
    code, out, _ = run(capsys, "spec", "--json", ring_file(PAIR_N3))
    payload = json.loads(out)
    assert code == 0
    assert payload["case"] == "a"
    assert payload["primes"] == ["M"]
    assert payload["krull_dim"] == 0
    assert payload["witness"]["x"] == "x"


def test_spec_refuses_without_witness(ring_file, capsys):
    code, _, err = run(capsys, "spec", ring_file(TRIPLE))
    assert code == 4 and "no witness" in err


@pytest.mark.parametrize("names", ["x y", "x y z"])
def test_a_witness_made_by_the_truncation_is_refused(ring_file, capsys, names):
    # truncate 2 kills x*y, which the untruncated ring keeps: classify
    # still answers yes by its exit code, without a spectrum
    path = ring_file(f"field 2 / vars {names} / truncate 2")
    code, out, _ = run(capsys, "classify", "--json", path)
    payload = json.loads(out)
    assert code == 0 and payload["dsc"] == "yes"
    assert payload["spec"] is None
    assert [n for n in payload["notes"] if n.startswith("spec refused: ")]
    code, out, err = run(capsys, "spec", path)
    assert code == 4 and not out
    assert err.startswith("refused: the witness does not lift")


@pytest.mark.parametrize("text, case", [("field 2 / vars x / truncate 2", "b"),
                                        ("field 2 / vars x y / rel x*y / truncate 2", "e")])
def test_a_witness_the_relations_make_keeps_its_spectrum(ring_file, capsys, text, case):
    code, out, _ = run(capsys, "classify", "--json", ring_file(text))
    assert code == 0 and json.loads(out)["spec"]["case"] == case
    code, out, _ = run(capsys, "spec", ring_file(text))
    assert code == 0 and f"case: {case}" in out


# ---------------------------------------------------------------------------
# oracle


def test_oracle_summary_and_list(ring_file, capsys):
    path = ring_file(PAIR_N3)
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert "ideals: 14" in out and "dsc: yes" in out
    assert "length invariance: True" in out
    code, out, _ = run(capsys, "oracle", path, "--list")
    assert out.count("[ok ]") == 14
    code, out, _ = run(capsys, "oracle", ring_file(TRIPLE, "t.ring"))
    assert code == 0 and "dsc: no" in out and "counterexample" in out


def test_oracle_json_histogram(ring_file, capsys):
    code, out, _ = run(capsys, "oracle", "--json", ring_file(PAIR_N3))
    payload = json.loads(out)
    assert code == 0
    assert payload["census"] == 14
    # zero; eight cyclic proper plus R; soc, M and the two mixed sums
    assert payload["lengths_histogram"] == {"0": 1, "1": 9, "2": 4}


def test_oracle_refuses_infeasible(ring_file, capsys, monkeypatch):
    code, _, err = run(capsys, "oracle", ring_file(GF3_MIXED))
    assert code == 4 and "GF(3)" in err
    # xy, x^6, y^6 has 62 ideals, 61 of them inside M
    monkeypatch.setattr(oracle, "IDEAL_BUDGET", 60)
    code, out, err = run(capsys, "oracle", ring_file(TWO_AXES))
    assert (code, out) == (4, "")
    assert err == "refused: census infeasible: more than 60 ideals to walk\n"


def test_the_cyclic_table_refuses_for_the_oracle_at_any_budget(ring_file, capsys):
    # odd p is refused before the walk; dim M past 20, the table's limit,
    # is no limit of the census
    code, _, err = run(capsys, "oracle", ring_file(GF3_MIXED))
    assert (code, err) == (4, "refused: the census handles GF(2) only, not GF(3)\n")
    code, out, _ = run(capsys, "oracle", "--json", ring_file(WIDE))
    assert code == 0 and json.loads(out)["dsc"] == "no"


# ---------------------------------------------------------------------------
# corpus


def test_corpus_full_table(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 8
    assert all(" ok" in l for l in lines)
    keys = [l.split()[0] for l in lines]
    assert keys == sorted(keys)


def test_corpus_selector(capsys):
    code, out, _ = run(capsys, "corpus", "square-zero")
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    code, _, err = run(capsys, "corpus", "no-such-ring")
    assert code == 3 and "no corpus case matches" in err


def test_corpus_always_takes_its_census(capsys):
    # corpus has no mode without the census: --no-oracle is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "nilpotent-pair-n3", "--no-oracle"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    # the usage and the error are those of the corpus subcommand
    assert err.startswith("usage: cyclicideals corpus [-h] [--json] ")
    assert "cyclicideals corpus: error: unrecognized arguments: --no-oracle" in err


def test_corpus_json(capsys):
    code, out, _ = run(capsys, "corpus", "--json", "power-series")
    rows = json.loads(out)
    assert code == 0
    assert rows[0]["key"] == "power-series"
    assert rows[0]["census"] == 7 and rows[0]["ok"]


# ---------------------------------------------------------------------------
# no traceback on any ring text


# declaration fragments, each slot's well-formed ones and broken ones;
# long literals and truncations in the millions among them
_FIELDS = (["field 2", "field 3"], ["field 4", f"field {LONG}", "field x"])
_VARS = (["vars x", "vars x y", "vars x y z"], ["vars x x", "vars"])
_RELS = (["rel x^2", "rel x^3", "rel y^2", "rel y^3", "rel z^2", "rel x*y", "rel x*z",
          "rel y*z", "rel x*y^2", "rel x^1000000"],
         ["rel x^0", "rel 2*x^2", "rel w", f"rel x^{LONG}", f"rel {LONG}*x^2"])
_TRUNCATIONS = (["", "truncate 4", "truncate 6", "truncate 2000000"],
                ["truncate 1", f"truncate {LONG}"])
_STRAYS = (["", "# note"], ["ideal x", "field 3", "vars y"])


@st.composite
def _ring_texts(draw):
    """A field, vars, up to four rels over the declared variables, a
    truncation and a stray fragment anywhere, with at most one of those
    five slots broken, in about one text in three."""
    slots = (_FIELDS, _VARS, _RELS, _TRUNCATIONS, _STRAYS)
    k = draw(st.integers(0, 3 * len(slots) - 1))
    broken = slots[k] if k < len(slots) else None

    def pick(slot, keep=lambda fragment: True):
        good, bad = slot
        return draw(st.sampled_from(bad if slot is broken else [f for f in good if keep(f)]))

    decls = [pick(_FIELDS), pick(_VARS)]
    names = set(decls[1].split()[1:]) or set("xyz")
    decls += [pick(_RELS, lambda rel: set(rel[4:]) & set("xyz") <= names)
              for _ in range(draw(st.integers(0, 4)))]
    decls.append(pick(_TRUNCATIONS))
    decls.insert(draw(st.integers(0, len(decls))), pick(_STRAYS))
    return draw(st.sampled_from(["\n", " / "])).join(decls)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_ring_texts(), st.sampled_from(["x", "x + y", "y^2", "1 + x", "q", f"x^{LONG}"]))
def test_no_ring_text_leaks_a_traceback(tmp_path_factory, text, ideal):
    try:
        dim = build_algebra(parse_presentation(text)).dim
    except (ValueError, DimensionLimitError):  # syntax and presentation errors
        dim = 0
    assume(dim < 100)  # larger rings below the dimension guard may take seconds
    path = tmp_path_factory.mktemp("fuzz") / "r.ring"
    path.write_text(text + "\n")
    for argv in (["classify"], ["spec"], ["oracle"], ["decompose", "--ideal", ideal]):
        out, err = io.StringIO(), io.StringIO()
        # a census refuses the same way at any budget of ideals; a small
        # one keeps each refusal of a wide ring to a fraction of a second
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(oracle, "IDEAL_BUDGET", 2000):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 3, 4), (argv, text)
        assert code != 4 or err.getvalue().startswith("refused: "), (argv, text)


# ---------------------------------------------------------------------------
# argparse plumbing


def test_bad_usage_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])  # missing FILE and --ideal
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


@pytest.mark.parametrize("flag", ["--max-dim", "--max-oracle-dim"])
@pytest.mark.parametrize("argv", [["classify"], ["decompose", "--ideal", "x"],
                                  ["spec"], ["oracle"]], ids=lambda argv: argv[0])
def test_no_command_takes_max_dim(ring_file, argv, flag):
    # a monomial ring needs no search bound, and the census is bounded by
    # the ideals it reaches, not by dim M: neither flag is one of any
    # command
    with pytest.raises(SystemExit) as exc:
        main([argv[0], ring_file(PAIR_N3), *argv[1:], flag, "5"])
    assert exc.value.code == 3
