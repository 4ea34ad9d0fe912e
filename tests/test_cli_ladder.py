"""The command line timing ladder of `.github/cli_ladder.py`.

CI runs the ladder in a step of its own, so a row whose ring no longer
parses, or a row runner that passes a wrong exit code or a missing
pattern, would show only there.  The script imports the standard
library alone, so it is loaded here by path.
"""

import importlib.util
from pathlib import Path

import pytest

from cyclicideals import parse_presentation

_PATH = Path(__file__).resolve().parents[1] / ".github" / "cli_ladder.py"
_SPEC = importlib.util.spec_from_file_location("cli_ladder", _PATH)
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)


def test_every_ring_parses_and_every_label_is_unique():
    labels = [row.label for row in ladder.LADDER]
    assert len(set(labels)) == len(labels) == 15
    for row in ladder.LADDER:
        assert row.stream in ("stdout", "stderr")
        if row.ring is not None:
            parse_presentation(row.ring)


@pytest.mark.parametrize("code,pattern,passes", [
    (0, r"^dsc: yes", True),
    (1, r"^dsc: yes", False),
    (0, r"^dsc: no", False),
])
def test_a_row_passes_on_its_exit_code_and_pattern_alone(tmp_path, code, pattern, passes):
    # x^3 alone is a chain, so classify says yes and exits 0
    row = ladder.Row("classify a chain", "field 2 / vars x / rel x^3", ("classify",),
                     code, "stdout", pattern)
    seconds, error = ladder.run_row(row, str(tmp_path))
    assert seconds > 0
    assert (error is None) == passes, error
