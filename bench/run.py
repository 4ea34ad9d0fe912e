"""Benchmark of cyclicideals: one workload, measured in a fresh child process.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads are sweep, ladder, census and decompose; bench/workloads.py says
why each exists and which layer it loads.  Inputs come from --seed only.
The workload runs in its own single-threaded child interpreter
(bench/worker.py) for about --seconds, every result is checked, each
metric is printed by name with its unit, then a ``meta`` line, then as
the last line one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics, measured untraced, plus
setup_s: the median time a fresh interpreter takes to import the package
(numpy included), which every CLI call pays.  --trace 1 reports the
per-layer metrics of bench/tracing.py from a separate traced pass, and
the tracing overhead.

The exit code is 0 when the benchmark ran, even if a check failed (then
"correct" is false); it is not 0 when the package sources are missing
or the child could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 170

IMPORT_TIMER = ("import sys, time\n"
                "sys.path.insert(0, 'bench')\n"
                "from speed import reference_loop, scale\n"
                "before = reference_loop()\n"
                "t = time.perf_counter()\n"
                "import cyclicideals\n"
                "took = time.perf_counter() - t\n"
                "print(took, scale(took, before, reference_loop()))\n")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median import time over fresh interpreters, scaled and unscaled
    (bench/speed.py), after one untimed run that leaves the bytecode cache
    warm, as an installed package has it."""
    raw, scaled = [], []
    for k in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        if k:
            took, took_scaled = map(float, out.stdout.split())
            raw.append(took)
            scaled.append(took_scaled)
    return statistics.median(scaled), statistics.median(raw)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "ladder", "census", "decompose"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "cyclicideals" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    started = time.perf_counter()
    setup_s, unscaled_setup_s = setup_seconds(env) if args.trace == 0 else (None, None)
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: workload child exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = result.pop("info")
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}

    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": info.pop("numpy"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "unscaled_setup_s": unscaled_setup_s,
        "wall_s": round(time.perf_counter() - started, 3),
        **info,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
