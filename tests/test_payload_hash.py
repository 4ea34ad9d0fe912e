"""The payload digest of `.github/payload_hash.py` is pinned.

The script hashes the JSON payload of every op of the four benchmark
workloads at seeds 1, 101 and 102.  A change that keeps every payload
byte-identical keeps the digest; a change that alters some payload on
purpose updates DIGEST here and says why.  It runs as CI runs it, in a
fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "payload_hash.py"
DIGEST = "d86e0049fec7dc6dc0164b56a95ccd4975d74543aa83af94467428a1661b0477"


def test_the_bench_payloads_hash_to_the_pinned_digest():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, check=True).stdout
    assert out == f"1434 ops, sha256 {DIGEST}\n"
