"""The README's examples run as written and give what it shows."""

import shlex
from pathlib import Path

from cyclicideals.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _lines_until_fence(start: int) -> list[str]:
    return README[start:README.index("\n```\n", start)].split("\n")


def test_library_example_holds():
    fence = "```python\n"
    code = _lines_until_fence(README.index(fence, README.index("\n## Library\n")) + len(fence))
    scope: dict = {}
    exec("\n".join(code), scope)
    assert scope["verdict"].answer == "yes"
    assert scope["split"].length == 1
    census = scope["oracle_dsc"](scope["alg"])
    assert census.answer == "yes"
    assert census.notes == ("all 14 ideals decompose",)


def test_classify_example_prints_the_readme_block(monkeypatch, capsys):
    command, *shown = _lines_until_fence(README.index("\n$ cyclicideals classify ") + 1)
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == "\n".join(shown) + "\n"
