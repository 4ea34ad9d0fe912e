"""Hash the payload of every benchmark op, so two checkouts can be
compared for byte-identical output.

    python3 .github/payload_hash.py

Run from anywhere; it imports the package from the src/ and the
workloads from the bench/ of the checkout this file sits in, and only
reads bench/.  It builds the ops of the four workloads of
bench/workloads.py at each seed of SEEDS, runs each op once, preparing
each shared RingContext before its first op as bench/worker.py does, and
feeds ``workload NUL label NUL json.dumps(payload, sort_keys=True) LF``
of every op into one sha256.  Prints the op count and the hex digest.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 101, 102)


def payload_digest() -> tuple[int, str]:
    """(op count, sha256 hex digest) over every op of every workload and seed."""
    h, count = hashlib.sha256(), 0
    for seed in SEEDS:
        for name, workload in WORKLOADS.items():
            prepared = set()
            for op in workload.make_ops(random.Random(seed)):
                if op.ring is not None and id(op.ring) not in prepared:
                    op.ring.prepare()
                    prepared.add(id(op.ring))
                text = json.dumps(op.run()[0], sort_keys=True)
                h.update(f"{name}\0{op.label}\0{text}\n".encode())
                count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    ops, digest = payload_digest()
    print(f"{ops} ops, sha256 {digest}")
