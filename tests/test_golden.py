"""Byte-for-byte `--json` output of the CLI, frozen under tests/golden/.

Each case runs one command in process and compares its stdout with the
stored file, so any change to a verdict, witness, counterexample, census
or decomposition shows up as a diff.  The stdout of every script under
demos/ is frozen the same way, as `demo-<name>.txt`.  After a deliberate
output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from cyclicideals.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"
DEMO_NAMES = sorted(p.stem for p in DEMOS.glob("*.py"))

# rings outside the bundled corpus, written to a temporary file per run
EXTRA_RINGS = {
    "gf3-axes": "field 3 / vars x y / rel x^3 / rel y^3 / rel x*y",
    "gf3-square-zero": "field 3 / vars x y / rel x^2 / rel y^2",
    "gf2-socle": "field 2 / vars x y w / rel x^5 / rel y^4 / rel x*y"
                 " / rel w^2 / rel x*w / rel y*w",
    "gf3-socle": "field 3 / vars x y w / rel x^4 / rel y^4 / rel x*y"
                 " / rel w^2 / rel x*w / rel y*w",
    "gf5-axes": "field 5 / vars x y / rel x^4 / rel y^3 / rel x*y",
    # dim M 9, 147 ideals: the census order and every entry's lengths
    "gf2-census147": "field 2 / vars x y z / rel x^3 / rel y^3 / rel z^2"
                     " / rel x*z / rel y*z",
}
CORPUS = ("axis-with-socle", "nilpotent-pair-n3", "nilpotent-pair-n4",
          "nilpotent-triple", "power-series", "square-zero-n2",
          "square-zero-n3", "two-axes")
# corpus rings with dim M <= 8, the oracle's default bound
ORACLE_CORPUS = tuple(k for k in CORPUS if k != "two-axes")
# the rings classify refutes and spec refuses: no witness decomposition exists
NO_WITNESS = {"nilpotent-triple", "gf3-square-zero"}

DECOMPOSE = (
    ("gf2-socle", "x^2"),          # principal
    ("gf2-socle", "x^4,w"),        # semisimple
    ("gf2-socle", "x^2+w"),        # axis
    ("gf2-socle", "x^2,y"),        # two_axes
    ("gf2-socle", "x+y"),          # diagonal
    ("gf2-socle", "x^3+y^2,w"),
    ("gf3-socle", "x^4,y^3"),
    ("gf3-socle", "x^2+w"),
    ("gf3-socle", "x^2,y"),
    ("gf3-socle", "x^2 + 2*y^2"),
    ("gf5-axes", "x^2"),
    ("gf5-axes", "x+y"),
    ("gf5-axes", "y+x^2,x^3"),
)


def _cases() -> list[tuple[str, list[str], int]]:
    """(golden file stem, argv with ring keys for paths, exit code)."""
    out = []
    for ring in CORPUS + ("gf3-axes", "gf3-square-zero"):
        verdict = 1 if ring in NO_WITNESS else 0  # classify says no
        out.append((f"classify-{ring}", ["classify", "--json", ring], verdict))
        if ring not in NO_WITNESS:
            out.append((f"spec-{ring}", ["spec", "--json", ring], 0))
    for ring in ORACLE_CORPUS:
        out.append((f"oracle-{ring}", ["oracle", "--json", ring], 0))
    for ring in ("nilpotent-triple", "square-zero-n3"):
        out.append((f"oracle-list-{ring}", ["oracle", "--json", "--list", ring], 0))
    out.append(("oracle-list-gf2-census147",
                ["oracle", "--json", "--list", "gf2-census147"], 0))
    for k, (ring, ideal) in enumerate(DECOMPOSE):
        out.append((f"decompose-{k:02d}-{ring}",
                    ["decompose", "--json", ring, "--ideal", ideal], 0))
    out.append(("corpus", ["corpus", "--json"], 0))
    return out


CASES = _cases()


def _ring_paths(tmp: Path) -> dict[str, str]:
    paths = {}
    corpus_dir = resources.files("cyclicideals") / "corpus"
    for key in CORPUS:
        paths[key] = str(corpus_dir / f"{key}.ring")
    for key, text in EXTRA_RINGS.items():
        path = tmp / f"{key}.ring"
        path.write_text(text.replace(" / ", "\n") + "\n")
        paths[key] = str(path)
    return paths


def _run(argv: list[str], paths: dict[str, str]) -> tuple[int, str]:
    argv = [paths.get(a, a) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _run_demo(name: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return buf.getvalue()


@pytest.fixture(scope="module")
def ring_paths(tmp_path_factory):
    return _ring_paths(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("stem,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_json(stem, argv, code, ring_paths):
    got_code, got = _run(argv, ring_paths)
    assert got_code == code
    assert got == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_golden_demo(name):
    got = _run_demo(name)
    assert got == (GOLDEN / f"demo-{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _ring_paths(Path(tmp))
        for stem, argv, code in CASES:
            got_code, got = _run(argv, paths)
            if got_code != code:
                sys.exit(f"{stem}: exit {got_code}, expected {code}")
            (GOLDEN / f"{stem}.json").write_text(got, encoding="utf-8")
    for name in DEMO_NAMES:
        (GOLDEN / f"demo-{name}.txt").write_text(_run_demo(name),
                                                 encoding="utf-8")
    print(f"wrote {len(CASES) + len(DEMO_NAMES)} golden files to {GOLDEN}")
