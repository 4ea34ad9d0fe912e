"""End-to-end command line checks, run in process through main(argv)."""

import json

import pytest

from cyclicideals.cli import main
from conftest import (AXIS_SOCLE, GF3_UNDECIDED, PAIR_N3, TRIPLE, TWO_AXES)

INFINITE = "field 2 / vars x y / rel x*y"
# three non-simple axes with dim M = 9, one past the default oracle bound
TRIPLE_N4 = ("field 2 / vars x y z / rel x^4 / rel y^4 / rel z^4"
             " / rel x*y / rel x*z / rel y*z")
# dim M = 22, past the packed cyclic table's limit of 20; both counts of
# structure.m_count_failure pass, so only the cover search could decide
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


def test_classify_undecided(ring_file, capsys):
    code, out, _ = run(capsys, "classify", ring_file(GF3_UNDECIDED))
    assert code == 2
    assert "dsc: undecided" in out


def test_classify_refutes_by_the_socle_count(ring_file, capsys):
    # over GF(3) no cover search runs: soc(M) = span{x*y} is one line
    # where a cover of M needs mu(M) = 2
    path = ring_file("field 3 / vars x y / rel x^2 / rel y^2")
    code, out, _ = run(capsys, "classify", "--json", path)
    assert code == 1
    ce = json.loads(out)["counterexample"]
    assert ce["basis"] == ["x", "y", "x*y"] and ce["dim"] == 3
    assert ce["proof"].startswith("dim soc(M) = 1 but mu(M) = 2")
    for argv in (["decompose", path, "--ideal", "x"], ["spec", path]):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert "no witness decomposition of the maximal ideal" in err


def test_classify_confirms_with_a_raised_oracle_bound(ring_file, capsys):
    code, out, _ = run(capsys, "classify", ring_file(TRIPLE_N4),
                       "--max-oracle-dim", "10")
    assert code == 1
    assert "note: counterexample confirmed by exhaustive search" in out


def test_max_dim_past_the_cyclic_table_limit(ring_file, capsys):
    path = ring_file(WIDE)
    code, out, _ = run(capsys, "classify", path, "--max-dim", "25")
    assert code == 2 and "witness search space exceeded" in out
    for argv in (["decompose", path, "--ideal", "x"], ["spec", path]):
        code, _, err = run(capsys, *argv, "--max-dim", "25")
        assert code == 4 and "refused: search space exceeded" in err


def test_oracle_bound_past_the_cyclic_table_limit(ring_file, capsys):
    code, _, err = run(capsys, "oracle", ring_file(WIDE), "--max-oracle-dim", "25")
    assert code == 4 and "table limit 20" in err
    # dim M = 21: --max-dim alone bounds the cover search of M, and the
    # undecided verdict carries one note
    narrower = ring_file(WIDE.replace("x*y^11", "x*y^10"))
    code, out, _ = run(capsys, "classify", narrower, "--max-dim", "12",
                       "--max-oracle-dim", "25")
    assert code == 2
    assert [l for l in out.splitlines() if l.startswith("note:")] == [
        "note: witness search space exceeded (p=2, dim M=21)"]


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


def test_classify_product_undecided(ring_file, capsys):
    code, out, _ = run(capsys, "classify", "--json",
                       ring_file(PAIR_N3, "a.ring"), ring_file(GF3_UNDECIDED, "b.ring"))
    assert code == 2
    payload = json.loads(out)
    assert payload["notes"] == ["some factor undecided, none refuted"]
    assert [f["dsc"] for f in payload["factors"]] == ["yes", "undecided"]


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


def test_oracle_refuses_infeasible(ring_file, capsys):
    code, _, err = run(capsys, "oracle", ring_file(GF3_UNDECIDED))
    assert code == 4 and "GF(3)" in err
    code, _, err = run(capsys, "oracle", ring_file(TWO_AXES))
    assert code == 4 and "refused:" in err


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


def test_corpus_no_oracle(capsys):
    code, out, _ = run(capsys, "corpus", "nilpotent-pair-n3", "--no-oracle")
    assert code == 0
    assert "(unverified by oracle)" in out
    assert "ideals=-" in out


def test_corpus_json(capsys):
    code, out, _ = run(capsys, "corpus", "--json", "power-series")
    rows = json.loads(out)
    assert code == 0
    assert rows[0]["key"] == "power-series"
    assert rows[0]["census"] == 7 and rows[0]["ok"]


# ---------------------------------------------------------------------------
# argparse plumbing


def test_bad_usage_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])  # missing FILE and --ideal
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_oracle_has_no_witness_bound(ring_file):
    # only --max-oracle-dim bounds the census; --max-dim is not its flag
    with pytest.raises(SystemExit) as exc:
        main(["oracle", ring_file(PAIR_N3), "--max-dim", "5"])
    assert exc.value.code == 3
