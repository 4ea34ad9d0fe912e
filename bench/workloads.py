"""The four benchmark workloads: seeded inputs, the timed operations and
their correctness checks.

An operation ("op") does in-process what one CLI call does, through the
package's public functions: parse the ring text, build the algebra, run
the command's library call, render the result with ``as_dict``.  Every
op builds a cold algebra, as every CLI call does.  The one exception is
``decompose``, which reuses one algebra per ring, as a library user
would: that ring is built again at the start of every pass, outside the
op's timed region, so each pass does the same work.

Checks run after the timed loop, never inside the timed region, and
check again on a freshly built algebra wherever the op's own caches
could otherwise answer for it.

Why each workload exists, and which layer it loads or bypasses:

sweep      Decision throughput.  The witness sweep (``structure``) and the
           oracle fallback carry the load; ``oracle_dsc`` is about 65% of
           the profile.  Building the algebra is negligible and the
           decomposer never runs.
ladder     A handful of large rings classified cold, plus ``build_algebra``
           alone near dim 820 and 1540.  Loads the quadratic table build
           (``rings``), ideal closure (``ideals``), the ``Subspace.reduce``
           repacking (``gf``) and memory.  Never touches the packed cyclic
           table or the oracle.  Sizes stop far below dim 210: truncate 20
           (dim 210) already takes about 11 s to classify.
census     The ``oracle`` command.  All the time goes to packed closure,
           the cyclic table (``ideals.packed_cyclic_table``) and the
           brute-force DFS (``oracle``).  The generic GF(p) path and the
           decomposer stay idle.
decompose  Seeded ideals split with their ring's witness.  Reaches all five
           branches, and runs tuple GF(p) elimination for odd p beside the
           packed p = 2 path, so the ``gf`` layer is used two ways.  It
           keeps the known ``element sweep infeasible`` refusals for large
           ideals over GF(3) and GF(5); they count as failed ops and are
           never filtered out of the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import cyclicideals as ci
from cyclicideals import corpus, gf

# the CLI defaults of --max-dim and --max-oracle-dim
MAX_PAIR_DIM = 12
MAX_ORACLE_DIM = 8


@dataclass
class Op:
    """One timed call.  ``run`` returns (payload, detail): the payload is
    what the CLI would print as JSON and must repeat exactly on every
    pass; the detail keeps the objects the check needs.  ``check`` lists
    the problems it finds in the first pass's result.  An op with a
    ``ring`` shares that prepared algebra with the other ops of the ring;
    the runner prepares it, untimed, once per pass."""

    label: str
    run: Callable[[], tuple[dict, Any]]
    check: Callable[[dict, Any], list[str]]
    ring: Optional["RingContext"] = None


@dataclass
class Workload:
    name: str
    make_ops: Callable[[random.Random], list[Op]]
    # (rings with a yes or no verdict, rings) from the ops and their results
    decided: Callable[[list[Op], list[Any]], tuple[int, int]]
    # exceptions that are a known, typed refusal rather than a wrong answer
    known_refusal: Callable[[Exception], bool] = lambda exc: False


# ---------------------------------------------------------------------------
# ring text helpers


def mono_text(names, exps) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def ring_text(p: int, names, rels, truncate: Optional[int] = None) -> str:
    lines = [f"field {p}", "vars " + " ".join(names)]
    lines += [f"rel {mono_text(names, r)}" for r in rels]
    if truncate is not None:
        lines.append(f"truncate {truncate}")
    return "\n".join(lines) + "\n"


def pure(nv: int, i: int, e: int) -> tuple[int, ...]:
    m = [0] * nv
    m[i] = e
    return tuple(m)


def fresh_algebra(text: str):
    return ci.build_algebra(ci.parse_presentation(text))


def transplant(alg, ideal):
    """The same ideal inside another algebra built from the same text."""
    return ci.Ideal(alg, gf.Subspace.span(alg.p, alg.dim, ideal.rows))


def verdict_decided(ops, results) -> tuple[int, int]:
    verdicts = [r[0]["dsc"] for r in results if isinstance(r, tuple) and "dsc" in r[0]]
    return sum(v in ("yes", "no") for v in verdicts), len(verdicts)


# ---------------------------------------------------------------------------
# shared op bodies and checks


def classify_op(text: str):
    """``cyclicideals classify FILE --json``: verdict plus spectrum."""
    pres = ci.parse_presentation(text)
    alg = ci.build_algebra(pres)
    verdict = ci.classify_dsc(alg, MAX_PAIR_DIM, MAX_ORACLE_DIM)
    payload = verdict.as_dict()
    payload["ring"] = ci.pres_str(pres)
    payload["dim"] = alg.dim
    payload["spec"] = None
    if verdict.witness is not None:
        payload["spec"] = ci.spec_classify(pres, verdict.witness).as_dict()
    return payload, verdict


def check_verdict(text: str, verdict, expected_dsc: Optional[str] = None) -> list[str]:
    """A yes witness verifies; a no counterexample defeats brute force
    where that is feasible; where dim M <= 8 the verdict is the oracle's.
    Brute force and oracle run on fresh algebras, so no cache of the op
    answers for them."""
    problems = []
    short = verdict.as_dict()["dsc"]
    if expected_dsc is not None and short != expected_dsc:
        problems.append(f"dsc {short}, expected {expected_dsc}")
    if verdict.answer == "yes" and not ci.verify_m_decomposition(verdict.witness):
        problems.append("yes witness fails verify_m_decomposition")
    if verdict.answer == "no" and verdict.counterexample is None:
        problems.append("no verdict without a counterexample")
    pres = ci.parse_presentation(text)
    if pres.p != 2:
        return problems
    fresh = ci.build_algebra(pres)
    mdim = fresh.dim - 1
    if verdict.counterexample is not None and mdim <= MAX_PAIR_DIM:
        ce = transplant(fresh, verdict.counterexample)
        if ci.brute_decompose(fresh, ce, mdim) is not None:
            problems.append("counterexample decomposes under brute force")
    if mdim <= MAX_ORACLE_DIM:
        truth = ci.oracle_dsc(ci.build_algebra(pres), MAX_ORACLE_DIM).answer
        if truth != verdict.answer:
            problems.append(f"verdict {verdict.answer}, oracle says {truth}")
    return problems


# ---------------------------------------------------------------------------
# sweep


_SWEEP_VARS = ("x", "y", "z")


def mixed_extras(rng: random.Random, per_dim: int = 2) -> list[str]:
    """GF(2) rings carrying a degree-3 mixed relation such as x^2*y, which
    the pairwise-product sweep family never has.  ``per_dim`` of them at
    each dim M from 6 to 11, where the witness search is complete: cost
    grows steeply with dim M, so a fixed count per dim M keeps every seed
    equally heavy."""
    wanted = {mdim: per_dim for mdim in range(6, 12)}
    out: list[str] = []
    while any(wanted.values()):
        nv = rng.choice((2, 3))
        names = _SWEEP_VARS[:nv]
        exps = [rng.choice((3, 4)) for _ in range(nv)]
        rels = {pure(nv, i, e) for i, e in enumerate(exps)}
        for i in range(nv):
            for j in range(i + 1, nv):
                if rng.random() < 0.3:
                    m = [0] * nv
                    m[i] = m[j] = 1
                    rels.add(tuple(m))
        i, j = rng.sample(range(nv), 2)
        mixed = [0] * nv
        mixed[i], mixed[j] = 2, 1
        pair = [0] * nv
        pair[i] = pair[j] = 1
        if tuple(pair) in rels:
            continue  # x*y = 0 would make x^2*y redundant
        rels.add(tuple(mixed))
        text = ring_text(2, names, sorted(rels))
        mdim = fresh_algebra(text).dim - 1
        if wanted.get(mdim) and text not in out:
            wanted[mdim] -= 1
            out.append(text)
    return out


def sweep_ops(rng: random.Random) -> list[Op]:
    texts = [ring_text(p.p, p.vars, p.relations, p.truncate)
             for _, p in corpus.sweep_presentations(3, (2, 3, 4), 11)]
    texts += mixed_extras(rng)
    ops = [Op(f"classify {t!r}", lambda t=t: classify_op(t),
              lambda payload, verdict, t=t: check_verdict(t, verdict))
           for t in texts]
    for case in corpus.CASES:
        ops.append(Op(f"corpus {case.key}", lambda k=case.key: corpus_op(k),
                      lambda row, _, k=case.key: check_corpus_row(k, row)))
    rng.shuffle(ops)
    return ops


def corpus_op(key: str):
    """``cyclicideals corpus KEY --json``: one bundled ring against its
    frozen row."""
    row = corpus.run_case(key, MAX_PAIR_DIM, MAX_ORACLE_DIM)
    return dict(row), None


def check_corpus_row(key: str, row: dict) -> list[str]:
    problems = [] if row["ok"] else [f"corpus row {key} deviates from its frozen row"]
    text = corpus.corpus_text(key)
    verdict = ci.classify_dsc(fresh_algebra(text), MAX_PAIR_DIM, MAX_ORACLE_DIM)
    if verdict.as_dict()["dsc"] != row["dsc"]:
        problems.append("corpus row disagrees with classify")
    return problems + check_verdict(text, verdict, corpus.case_by_key(key).dsc)


# ---------------------------------------------------------------------------
# ladder


_NAME_PAIRS = (("x", "y"), ("u", "v"), ("s", "t"), ("a", "b"))


def axes_text(p: int, names, a: int, b: int) -> str:
    return ring_text(p, names, [(a, 0), (0, b), (1, 1)])


def check_sized(text: str, dim: int, expected_dsc: Optional[str], payload: dict,
                verdict) -> list[str]:
    problems = check_verdict(text, verdict, expected_dsc)
    if payload["dim"] != dim:
        problems.append(f"dim {payload['dim']}, expected {dim}")
    return problems


def build_op(text: str):
    """``build_algebra`` on its own."""
    alg = ci.build_algebra(ci.parse_presentation(text))
    return {"dim": alg.dim}, None


def ladder_ops(rng: random.Random) -> list[Op]:
    ops = []
    # x^a, y^b, x*y has dim a + b - 1 whatever the split of a + b
    for p, total in ((2, 101), (3, 81)):
        names = rng.choice(_NAME_PAIRS)
        a = rng.randint(total // 2 - 10, total // 2 + 10)
        text = axes_text(p, names, a, total - a)
        ops.append(Op(f"classify GF({p}) axes dim {total - 1}",
                      lambda t=text: classify_op(t),
                      # M = Rx + Ry, x*y = 0, both axes chains: a yes ring
                      lambda pl, v, t=text, d=total - 1: check_sized(t, d, "yes", pl, v)))
    # a two-variable truncation at degree t has dim t(t+1)/2
    for p, t in ((2, 12), (3, 12)):
        names = rng.choice(_NAME_PAIRS)
        text = ring_text(p, names, [], t)
        dim = t * (t + 1) // 2
        ops.append(Op(f"classify GF({p}) truncate {t}",
                      lambda x=text: classify_op(x),
                      lambda pl, v, x=text, d=dim: check_sized(x, d, None, pl, v)))
    for t in (40, 55):
        names = rng.choice(_NAME_PAIRS)
        text = ring_text(2, names, [], t)
        dim = t * (t + 1) // 2
        ops.append(Op(f"build truncate {t}", lambda x=text: build_op(x),
                      lambda pl, _, d=dim: [] if pl["dim"] == d
                      else [f"dim {pl['dim']}, expected {d}"]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# census

# GF(2) rings with dim M = 9 and their census counts as the parent commit
# of this benchmark enumerates them: these pin regressions, the corpus
# counts pin truth.  Larger rings (x^4, y^4, x^2*y^2 at dim M 11 and
# x^3*y^2 at dim M 13) are left out: an op of 3 to 6 s gets too few
# repeats per run, and its time then swings with the load of the machine
# more than the benchmark's bounds allow.
_CENSUS_RINGS = (
    (((4, 0), (0, 4), (2, 1)), 95),
    (((4, 0), (0, 3), (2, 2)), 79),
    (((5, 0), (0, 5), (2, 1), (1, 2)), 119),
    (((3, 0, 0), (0, 3, 0), (0, 0, 2), (1, 0, 1), (0, 1, 1)), 147),
)
CENSUS_MAX_DIM = 9


def oracle_op(text: str):
    """``cyclicideals oracle FILE --json --max-oracle-dim 9``."""
    pres = ci.parse_presentation(text)
    alg = ci.build_algebra(pres)
    census = ci.enumerate_ideals(alg, CENSUS_MAX_DIM)
    ci.complete_census(census, CENSUS_MAX_DIM)
    verdict = ci.oracle_dsc(alg, CENSUS_MAX_DIM)
    histogram: dict[str, int] = {}
    for e in census.entries:
        for n in e.lengths:
            histogram[str(n)] = histogram.get(str(n), 0) + 1
    payload = {
        "ring": ci.pres_str(pres),
        "census": census.count,
        "dsc": verdict.as_dict()["dsc"],
        "counterexample": None if verdict.counterexample is None
        else verdict.counterexample.as_dict(),
        "length_invariance": ci.length_invariance(census),
        "lengths_histogram": histogram,
    }
    return payload, verdict


def check_census(text: str, count: int, dsc: Optional[str], payload: dict,
                 verdict) -> list[str]:
    problems = []
    if payload["census"] != count:
        problems.append(f"census {payload['census']}, frozen {count}")
    if not payload["length_invariance"]:
        problems.append("length invariance fails")
    if dsc is not None and payload["dsc"] != dsc:
        problems.append(f"dsc {payload['dsc']}, frozen {dsc}")
    if verdict.counterexample is not None:
        fresh = fresh_algebra(text)
        ce = transplant(fresh, verdict.counterexample)
        if ci.brute_decompose(fresh, ce, CENSUS_MAX_DIM) is not None:
            problems.append("counterexample decomposes under brute force")
    return problems


def census_ops(rng: random.Random) -> list[Op]:
    ops = []
    for case in corpus.CASES:
        if case.census is None:
            continue
        text = corpus.corpus_text(case.key)
        ops.append(Op(f"oracle {case.key}", lambda t=text: oracle_op(t),
                      lambda pl, v, t=text, c=case: check_census(t, c.census, c.dsc, pl, v)))
    for rels, count in _CENSUS_RINGS:
        # renaming and permuting the variables keeps the ring's census
        nv = len(rels[0])
        perm = rng.sample(range(nv), nv)
        names = rng.choice(_NAME_PAIRS) if nv == 2 else _SWEEP_VARS
        rels = [tuple(r[k] for k in perm) for r in rels]
        text = ring_text(2, names, rels)
        ops.append(Op(f"oracle {', '.join(mono_text(names, r) for r in rels)}",
                      lambda t=text: oracle_op(t),
                      lambda pl, v, t=text, c=count: check_census(t, c, None, pl, v)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# decompose


class RingContext:
    """One algebra and its witness, rebuilt at the start of every pass."""

    def __init__(self, text: str):
        self.text = text
        self.alg = None
        self.witness = None

    def prepare(self) -> None:
        self.alg = ci.build_algebra(ci.parse_presentation(self.text))
        self.witness = ci.find_m_decomposition(self.alg, MAX_PAIR_DIM)


def decompose_op(ring: RingContext, gens: list[str]):
    """``cyclicideals decompose FILE --ideal GENS --json`` on a prepared ring."""
    alg = ring.alg
    ideal = ci.ideal_from_generators(alg, [ci.parse_element(alg, g) for g in gens])
    split = ci.decompose_ideal(alg, ring.witness, ideal)
    payload = split.as_dict()
    payload["ideal"] = ideal.as_dict()
    return payload, (alg, ideal, split)


def check_split(payload: dict, detail) -> list[str]:
    alg, ideal, split = detail
    if split.ideal != ideal or not ci.verify_decomposition(alg, ideal, split):
        return ["split fails verify_decomposition"]
    return []


def random_generator(rng: random.Random, p: int, monos: list[str]) -> str:
    terms = []
    for mono in rng.sample(monos, rng.randint(1, min(3, len(monos)))):
        c = rng.randrange(1, p)
        terms.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(terms)


def decompose_ops(rng: random.Random) -> list[Op]:
    ops = []
    for p in (2, 3, 5):
        # x^a, y^b, x*y has dim a + b - 1 = 17; each socle variable w adds
        # one simple summand (w^2 = x*w = y*w = 0).  The shapes are fixed:
        # drawn from the seed, they moved the cost of a run by 15%.
        for a, b, socle in ((9, 9, 0), (7, 11, 1)):
            names = ("x", "y") + ("w", "v")[:socle]
            nv = len(names)
            rels = [pure(nv, 0, a), pure(nv, 1, b), (1, 1) + (0,) * socle]
            for k in range(2, nv):
                rels.append(pure(nv, k, 2))
                for i in range(k):
                    m = [0] * nv
                    m[i] = m[k] = 1
                    rels.append(tuple(m))
            ring = RingContext(ring_text(p, names, rels))
            monos = ([f"x^{e}" if e > 1 else "x" for e in range(1, a)]
                     + [f"y^{e}" if e > 1 else "y" for e in range(1, b)]
                     + list(names[2:]))
            # the socle: an ideal inside it is killed by M, which random
            # ideals seldom are, so one ideal per ring is drawn from it
            socle_monos = [f"x^{a - 1}", f"y^{b - 1}"] + list(names[2:])
            for n in range(50):
                pool = socle_monos if n == 0 else monos
                gens = [random_generator(rng, p, pool) for _ in range(rng.randint(1, 3))]
                ops.append(Op(f"decompose GF({p}) {', '.join(gens)}",
                              lambda r=ring, g=gens: decompose_op(r, g), check_split,
                              ring))
    return ops


def sweep_refusal(exc: Exception) -> bool:
    return (isinstance(exc, ci.InternalContradictionError)
            and "element sweep infeasible" in str(exc))


def witness_decided(ops, results) -> tuple[int, int]:
    rings = {id(op.ring): op.ring for op in ops}.values()
    return sum(r.witness is not None for r in rings), len(rings)


WORKLOADS = {
    "sweep": Workload("sweep", sweep_ops, decided=verdict_decided),
    "ladder": Workload("ladder", ladder_ops, decided=verdict_decided),
    "census": Workload("census", census_ops, decided=verdict_decided),
    "decompose": Workload("decompose", decompose_ops, known_refusal=sweep_refusal,
                          decided=witness_decided),
}
