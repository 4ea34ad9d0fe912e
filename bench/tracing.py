"""Per-layer spans and counters for the traced benchmark pass.

The package is not modified: ``Tracer.install`` replaces the public
functions named below, in every loaded ``cyclicideals`` module that binds
them, with wrappers that record a span (name, start, end, parent) in
memory; ``uninstall`` puts the originals back.  Each op of the traced
pass is one root span, so the spans of an op form one tree, and a
layer's self time is its span's duration minus that of its child spans.

The hot GF(2) kernels are counted, not timed: a span around every call
would cost more than the kernel, and counts repeat exactly.  Cache hits
and misses are read off the algebra's cache attributes around the call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# layer (module) -> public functions recorded as spans
SPANNED = {
    "rings": ("build_algebra", "parse_presentation"),
    "gf": ("Subspace.reduce", "rref_rows", "subspace_intersect", "split_components"),
    "ideals": ("ideal_from_generators", "module_times_ideal", "packed_cyclic_table"),
    "structure": ("classify_dsc", "canonical_variable_split", "find_m_decomposition",
                  "spec_classify"),
    "oracle": ("enumerate_ideals", "complete_census", "brute_decompose",
               "decomposition_lengths", "oracle_dsc"),
    "decompose": ("decompose_ideal", "verify_decomposition"),
    "corpus": ("run_case",),
}
COUNTED = ("gf.pack_vec", "gf.gf2_insert", "gf.gf2_reduce")
FAILURES = ("decompose.decompose_ideal",)


def _cached_on(attr):
    """Hit when the algebra (first argument) already holds the cache."""
    def before(args):
        return getattr(args[0], attr, None) is not None

    def after(hit, args):
        return "hits" if hit else "misses"
    return before, after


def _brute_before(args):
    alg, ideal = args[0], args[1]
    if ideal.dim == alg.dim:
        return None  # R itself is answered without the cache
    return len(getattr(alg, "_brute_cache", None) or ())


def _brute_after(size, args):
    if size is None:
        return None
    return "hits" if len(args[0]._brute_cache) == size else "misses"


PROBES = {
    "ideals.packed_cyclic_table": _cached_on("_cyclic_table"),
    "oracle.enumerate_ideals": _cached_on("_census"),
    "oracle.brute_decompose": (_brute_before, _brute_after),
}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, funcs in SPANNED.items():
        for func in funcs:
            name = f"{layer}.{func}"
            out += [(f"{name}.calls", "count", "lower"),
                    (f"{name}.busy_s", "s", "lower"),
                    (f"{name}.self_s", "s", "lower")]
            if name in PROBES:
                out += [(f"{name}.hits", "count", "higher"),
                        (f"{name}.misses", "count", "lower")]
            if name in FAILURES:
                out.append((f"{name}.failed", "count", "lower"))
    out += [(f"{name}.calls", "count", "lower") for name in COUNTED]
    out += [(f"{layer}.self_s", "s", "lower") for layer in SPANNED]
    out += [("trace.untraced_ops_per_s", "1/s", "higher"),
            ("trace.traced_ops_per_s", "1/s", "higher"),
            ("trace.overhead_ops_per_s", "1/s", "higher")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _spanned(self, name, fn):
        probe = PROBES.get(name)
        counts_failure = name in FAILURES

        def wrapper(*args, **kwargs):
            state = probe[0](args) if probe else None
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if counts_failure:
                    self.counts[f"{name}.failed"] += 1
                raise
            finally:
                self.end(idx)
            if probe:
                outcome = probe[1](state, args)
                if outcome:
                    self.counts[f"{name}.{outcome}"] += 1
            return out
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cyclicideals" or n.startswith("cyclicideals.")]
        targets = [(f"{layer}.{f}", self._spanned) for layer, fs in SPANNED.items()
                   for f in fs]
        targets += [(name, self._counted) for name in COUNTED]
        for name, make in targets:
            layer, attr = name.split(".", 1)
            module = sys.modules[f"cyclicideals.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, make(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = make(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # -- results ----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """calls, busy_s (inclusive; nested calls of the same function
        count once) and self_s per spanned function, self_s per layer,
        plus the counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for idx, (name, start, end, parent) in enumerate(spans):
            if name == "op":
                continue
            dur = end - start
            own = dur - child[idx]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name.split('.', 1)[0]}.self_s"] += own
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.busy_s"] += dur
        out.update(self.counts)
        return out
