"""Smoke test of the benchmark on its smallest rung.

Run from the repository root:  python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "ok_frac",
              "decided_frac", "peak_rss_mb"}


def ops_of(name: str) -> list[workloads.Op]:
    return workloads.WORKLOADS[name].make_ops(random.Random(0))


def test_smallest_rung_runs_and_checks():
    census = [op for op in ops_of("census") if op.label == "oracle square-zero-n2"]
    run = worker.Run(census)
    run.one_pass()
    failed, problems = worker.check(run, workloads.WORKLOADS["census"])
    assert (failed, problems) == ([], [])
    assert run.first[0][0]["census"] == 6
    assert all(t > 0 for t in run.op_times())


def test_decompose_ops_share_one_prepared_ring():
    ops = ops_of("decompose")[:3]
    assert len({id(op.ring) for op in ops}) == 1
    run = worker.Run(ops)
    run.one_pass()
    failed, problems = worker.check(run, workloads.WORKLOADS["decompose"])
    assert problems == []
    assert workloads.WORKLOADS["decompose"].decided(ops, run.first) == (1, 1)


def test_traced_pass_records_layers_and_restores_the_package():
    import cyclicideals
    from cyclicideals import gf, structure

    originals = (cyclicideals.classify_dsc, structure.find_m_decomposition,
                 gf.Subspace.__dict__["reduce"], gf.pack_vec)
    ops = [op for op in ops_of("sweep") if op.label == "corpus nilpotent-pair-n3"]
    run = worker.Run(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.one_pass(tracer)
    finally:
        tracer.uninstall()
    assert originals == (cyclicideals.classify_dsc, structure.find_m_decomposition,
                         gf.Subspace.__dict__["reduce"], gf.pack_vec)
    stats = tracer.stats()
    assert stats["corpus.run_case.calls"] == 1
    assert stats["structure.classify_dsc.calls"] == 1
    assert stats["rings.build_algebra.calls"] >= 1
    assert stats["gf.pack_vec.calls"] > 0
    assert stats["oracle.enumerate_ideals.misses"] == 1
    layers = sum(stats[f"{layer}.self_s"] for layer in tracing.SPANNED)
    assert 0 < layers <= run.raw[0][0]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.metric_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "census",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
