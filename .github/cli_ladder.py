"""Time the command line on a fixed ladder of rings.

    python3 .github/cli_ladder.py

Each row of LADDER runs one `python -m cyclicideals.cli` call in a fresh
interpreter, with PYTHONPATH set to the src/ of the checkout this file
sits in, and checks its exit code and a regular expression, matched in
multiline mode, on its stdout or stderr.  A row's ring text is written
to a temporary file, whose path follows the command name.  Each row runs
RUNS times, as one run's wall time can swing 2x on a shared machine.
Prints a markdown table with each call's median wall time and exits 1
if any run of any row fails; CI appends the table to the job's step
summary.
"""

import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = 3


class Row(NamedTuple):
    label: str
    ring: Optional[str]  # ring text, '/'-separated; None for no ring file
    args: tuple[str, ...]  # the command name, then what follows the ring file
    code: int  # the expected exit code
    stream: str  # "stdout" or "stderr", where pattern must match
    pattern: str


def _square_zero(names: str) -> str:
    rels = [f"rel {u}*{w}" for k, u in enumerate(names) for w in names[k:]]
    return " / ".join(["field 2", "vars " + " ".join(names), *rels])


SOCLE_W3 = ("field 2 / vars x y w1 w2 w3 / rel x^2 / rel y^2 / rel w1*x / rel w1*y"
            " / rel w2*x / rel w2*y / rel w3*x / rel w3*y / rel w1^2 / rel w1*w2"
            " / rel w1*w3 / rel w2^2 / rel w2*w3 / rel w3^2")

WIDE_AXES = "field 2147483647 / vars x y / rel x*y / truncate 2048"
WIDE_THREE_AXES = ("field 2147483647 / vars x y z / rel x*y / rel x*z / rel y*z"
                   " / truncate 1365")

LADDER = (
    # just under the 4,096 dimension guard; the three-axis ring has no
    # witness, so its verdict is no
    Row("classify on the dim-4093 ring",
        "field 2 / vars x y z / rel x*y / rel x*z / rel y*z / truncate 1365",
        ("classify",), 1, "stdout", r"^dsc: no$"),
    # the same ring over GF(3): refutes checks its counterexample J with
    # the odd-p packed kernels, near the guard
    Row("classify on the GF(3) dim-4093 ring",
        "field 3 / vars x y z / rel x*y / rel x*z / rel y*z / truncate 1365",
        ("classify",), 1, "stdout", r"^dsc: no$"),
    # no relation, so x*y != 0 and M itself is the counterexample: a
    # build near the guard (dim 4,095) and a render of M's 4,094 rows
    Row("classify on the dim-4095 truncated plane", "field 2 / vars x y / truncate 90",
        ("classify",), 1, "stdout", r"^dsc: no$"),
    # x*y truncated at degree 2048 (dim 4,095): x^3 + y^5 needs both
    # axes, so it splits on the diagonal branch
    Row("decompose on the dim-4095 ring", "field 2 / vars x y / rel x*y / truncate 2048",
        ("decompose", "--ideal", "x^3 + y^5", "--json"), 0, "stdout",
        r'"branch": "diagonal"'),
    # the same two axes over GF(2^31 - 1), the widest field: the witness
    # x, y is checked by its direct-sum certificate alone
    Row("classify on the GF(2^31 - 1) dim-4095 ring", WIDE_AXES,
        ("classify",), 0, "stdout", r"^dsc: yes$"),
    # both axes are non-nilpotent in the untruncated ring: three primes
    Row("spec on the GF(2^31 - 1) dim-4095 ring", WIDE_AXES,
        ("spec",), 0, "stdout", r"^case: e$"),
    # three axes over the widest field: no witness, so refutes closes
    # and checks its counterexample J with the widest packed rows
    Row("classify on the GF(2^31 - 1) dim-4093 ring", WIDE_THREE_AXES,
        ("classify",), 1, "stdout", r"^dsc: no$"),
    # dim M 13, which the census benchmark leaves out
    Row("oracle on the dim-M-13 ring", "field 2 / vars x y / rel x^4 / rel y^4 / rel x^3*y^2",
        ("oracle", "--json"), 0, "stdout", r'"census": 315\b'),
    # SOCLE_W3 of tests/test_oracle.py: mu(M) = 5, so each ideal near M
    # has up to 31 parents, the widest fan-out of the tests' rings
    Row("oracle --list on the 426-ideal socle ring", SOCLE_W3,
        ("oracle", "--json", "--list"), 0, "stdout", r'"census": 426\b'),
    # the largest census inside the budget of 50,000 ideals, so the
    # walk's sort of its keys into the census order is heaviest here
    Row("oracle on square-zero in 7 variables", _square_zero("abcdefg"),
        ("oracle", "--json"), 0, "stdout", r'"census": 29213\b'),
    # dim M 8, but 417,200 ideals: the walk stops at its budget
    Row("oracle refusal on square-zero in 8 variables", _square_zero("abcdefgh"),
        ("oracle",), 4, "stderr", r"^refused:"),
    # dim M 24, past the packed cyclic table's old limit of 20
    Row("oracle on x^5, y^5", "field 2 / vars x y / rel x^5 / rel y^5",
        ("oracle", "--json"), 0, "stdout", r'"census": 4574\b'),
    # every bundled case, each with its census; 80 is nilpotent-triple's
    Row("corpus --json", None, ("corpus", "--json"), 0, "stdout", r'"census": 80,'),
)


def run_row(row: Row, tmp: str) -> tuple[float, Optional[str]]:
    """Run one row's call; return its wall time in seconds and None, or
    what failed."""
    command, *rest = row.args
    if row.ring is not None:
        path = os.path.join(tmp, "ring.txt")
        Path(path).write_text(row.ring + "\n", encoding="utf-8")
        rest.insert(0, path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cyclicideals.cli", command, *rest],
                          capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - start
    if done.returncode != row.code:
        return seconds, f"exit {done.returncode}, expected {row.code}"
    if not re.search(row.pattern, getattr(done, row.stream), re.MULTILINE):
        return seconds, f"{row.stream} does not match {row.pattern}"
    return seconds, None


def main() -> int:
    print(f"| call | median wall ms of {RUNS} | check |")
    print("|---|---:|---|")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in LADDER:
            runs = [run_row(row, tmp) for _ in range(RUNS)]
            errors = [error for _, error in runs if error is not None]
            failed += bool(errors)
            check = f"FAILED: {errors[0]}" if errors else "ok"
            ms = 1000 * statistics.median(seconds for seconds, _ in runs)
            print(f"| {row.label} | {ms:.0f} | {check} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
