"""The benchmark's workloads still run against the package.

`bench/workloads.py` calls the package with fixed call shapes, such as
`classify_dsc(alg, 12, 8)` and `corpus.run_case(key, 12, 8)`, so a
changed signature would break only the benchmark run.  It is loaded
here by path, and one cheap op of each workload runs, its ring prepared
as the benchmark's runner prepares it, through the op's own check.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
# dataclasses look the defining module up in sys.modules
sys.modules[_SPEC.name] = workloads
_SPEC.loader.exec_module(workloads)

# workload -> label prefix of its cheap op; labels do not depend on the seed
CHEAP = {
    "sweep": "corpus nilpotent-pair-n3",  # run_case(key, 12, 8)
    "ladder": "classify GF(2) truncate 12",  # classify_dsc(alg, 12, 8)
    "census": "oracle nilpotent-pair-n3",
    "decompose": "decompose GF(2) ",
}


def test_every_workload_has_a_cheap_op():
    assert set(CHEAP) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_cheap_op_runs_and_passes_its_check(name):
    ops = workloads.WORKLOADS[name].make_ops(random.Random(1))
    op = next(op for op in ops if op.label.startswith(CHEAP[name]))
    if op.ring is not None:
        op.ring.prepare()
    payload, detail = op.run()
    json.dumps(payload)  # the payload is what the CLI prints as JSON
    assert op.check(payload, detail) == []
