"""Command line front end.

    cyclicideals classify FILE [FILE ...]   decide the property (product
                                            of rings when several files)
    cyclicideals decompose FILE --ideal G   split one ideal into cyclics
    cyclicideals spec FILE                  prime spectrum report
    cyclicideals oracle FILE                exhaustive census and verdict
                                            (GF(2), within a budget of
                                            ideals)
    cyclicideals corpus [PATTERN ...]       run the bundled expectations

Exit codes: classify returns 0 yes / 1 no; every ring it builds is
monomial, and a monomial ring is always decided.  The other commands
return 0 on success.  Every command returns 3 on parse or usage errors
and 4, with "refused:" on stderr, when the request is out of reach (a
ring past the dimension guard, no witness, a census of odd p or past
its budget of ideals, improper ideal): each limit is raised by the
layer that owns it and mapped to its exit code only in main.  corpus
returns 1 if any bundled row deviates.

JSON output (--json) is deterministic: keys sorted, fixed separators.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .decompose import decompose_ideal
from .ideals import ideal_from_generators
from .oracle import (InfeasibleSizeError, complete_census, enumerate_ideals,
                     length_invariance, oracle_dsc)
from .rings import (DimensionLimitError, PresentationError, RingSyntaxError,
                    build_algebra, parse_element, parse_presentation, pres_str)
from .corpus import run_corpus
from .structure import (DscVerdict, WitnessDoesNotLiftError, classify_dsc,
                        classify_product, find_m_decomposition, spec_classify)


class UsageError(Exception):
    pass


class RefusalError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, separators=(",", ": "))


def _load_ring(path: str, truncate):
    try:
        with open(path, encoding="utf-8-sig") as fh:  # drops a leading byte-order mark
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        pres = parse_presentation(text, truncate=truncate)
        alg = build_algebra(pres)
    except (RingSyntaxError, PresentationError) as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except DimensionLimitError as exc:
        raise RefusalError(f"{path}: {exc}") from exc
    return pres, alg


def _classify_one(pres, alg) -> tuple[DscVerdict, dict]:
    verdict = classify_dsc(alg)
    payload = verdict.as_dict()
    payload["ring"] = pres_str(pres)
    payload["dim"] = alg.dim
    payload["spec"] = None
    if verdict.witness is not None:
        try:
            payload["spec"] = spec_classify(pres, verdict.witness).as_dict()
        except WitnessDoesNotLiftError as exc:
            payload["notes"].append(f"spec refused: {exc}")
    return verdict, payload


def _print_classify(payload) -> None:
    print(f"ring: {payload['ring']}  (dim {payload['dim']})")
    print(f"dsc: {payload['dsc']}")
    w = payload["witness"]
    if w:
        parts = []
        if w["x"] is not None:
            parts.append(f"R({w['x']}) dim {w['dims']['x']}")
        if w["y"] is not None:
            parts.append(f"R({w['y']}) dim {w['dims']['y']}")
        parts.extend(f"R({s}) simple" for s in w["simples"])
        print("witness: M = " + " + ".join(parts))
    ce = payload["counterexample"]
    if ce:
        print(f"counterexample ideal (dim {ce['dim']}): span{{{', '.join(ce['basis'])}}}")
        if ce.get("proof"):
            print(f"  {ce['proof']}")
    spec = payload.get("spec")
    if spec:
        print(f"spec: case {spec['case']}, primes {{{'; '.join(spec['primes'])}}}, "
              f"krull dim {spec['krull_dim']}"
              + (" (truncated model)" if spec["truncated_model"] else ""))
    for n in payload["notes"]:
        print(f"note: {n}")


def _cmd_classify(args) -> int:
    loaded = [_load_ring(path, args.truncate) for path in args.files]
    pieces = [_classify_one(pres, alg) for pres, alg in loaded]
    if len(pieces) == 1:
        payload = pieces[0][1]
    else:
        overall = classify_product([v for v, _ in pieces])
        payload = overall.as_dict()
        payload["ring"] = " x ".join(p["ring"] for _, p in pieces)
        payload["dim"] = sum(p["dim"] for _, p in pieces)
        payload["spec"] = None
        payload["factors"] = [p for _, p in pieces]
    if args.json:
        print(_dump(payload))
    else:
        _print_classify(payload)
        if "factors" in payload:
            for k, f in enumerate(payload["factors"], 1):
                print(f"--- factor {k} ---")
                _print_classify(f)
    return {"yes": 0, "no": 1}[payload["dsc"]]


def _witness_or_refuse(alg):
    dec = find_m_decomposition(alg)
    if dec is None:
        raise RefusalError("no witness decomposition of the maximal ideal")
    return dec


def _cmd_decompose(args) -> int:
    pres, alg = _load_ring(args.file, args.truncate)
    dec = _witness_or_refuse(alg)
    gens = []
    for chunk in args.ideal.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            gens.append(parse_element(alg, chunk))
        except ValueError as exc:
            raise UsageError(f"ideal generator {chunk!r}: {exc}") from exc
    ideal = ideal_from_generators(alg, gens)
    try:
        split = decompose_ideal(alg, dec, ideal)
    except ValueError as exc:
        raise RefusalError(str(exc)) from exc
    payload = split.as_dict()
    payload["ring"] = pres_str(pres)
    payload["ideal"] = ideal.as_dict()
    if args.json:
        print(_dump(payload))
    else:
        print(f"ring: {payload['ring']}")
        print(f"ideal (dim {ideal.dim}): span{{{', '.join(payload['ideal']['basis'])}}}")
        t = payload["trace"]
        knobs = ", ".join(f"{k}={t[k]}" for k in ("axis", "n0", "m0", "l0", "l1", "l2")
                          if t[k] is not None)
        print(f"branch: {t['branch']}" + (f" ({knobs})" if knobs else ""))
        for g, simple, d in zip(payload["generators"], payload["simple"], t["dims"]):
            print(f"summand: R({g}) dim {d}" + (" simple" if simple else ""))
        if t["truncated"]:
            print("truncated model: " + ("result lifts (below horizon)"
                                         if t["trusted"] else
                                         "result touches the truncation horizon"))
    return 0


def _cmd_spec(args) -> int:
    pres, alg = _load_ring(args.file, args.truncate)
    dec = _witness_or_refuse(alg)
    report = spec_classify(pres, dec)
    payload = report.as_dict()
    payload["ring"] = pres_str(pres)
    payload["witness"] = dec.as_dict()
    if args.json:
        print(_dump(payload))
    else:
        print(f"ring: {payload['ring']}")
        print(f"case: {report.case}")
        for q in report.primes:
            print(f"prime: {q}")
        print(f"krull dim: {report.krull_dim}")
        if report.truncated_model:
            print("truncated model: spectrum read symbolically from the presentation")
    return 0


def _cmd_oracle(args) -> int:
    pres, alg = _load_ring(args.file, args.truncate)
    census = complete_census(enumerate_ideals(alg))
    verdict = oracle_dsc(alg)
    histogram = Counter(str(n) for e in census.entries for n in e.lengths)
    payload = {
        "ring": pres_str(pres),
        "census": census.count,
        "dsc": verdict.as_dict()["dsc"],
        "counterexample": None if verdict.counterexample is None
        else verdict.counterexample.as_dict(),
        "length_invariance": length_invariance(census),
        "lengths_histogram": histogram,
    }
    if args.list:
        payload["ideals"] = [
            {"basis": e.ideal.as_dict()["basis"], "dim": e.ideal.dim,
             "decomposable": e.decomposable, "lengths": list(e.lengths)}
            for e in census.entries
        ]
    if args.json:
        print(_dump(payload))
    else:
        print(f"ring: {payload['ring']}")
        print(f"ideals: {payload['census']}")
        print(f"dsc: {payload['dsc']}")
        if payload["counterexample"]:
            ce = payload["counterexample"]
            print(f"counterexample (dim {ce['dim']}): span{{{', '.join(ce['basis'])}}}")
        print(f"length invariance: {payload['length_invariance']}")
        if args.list:
            for row in payload["ideals"]:
                mark = "ok " if row["decomposable"] else "STUCK"
                print(f"  [{mark}] dim {row['dim']:>2} lengths {row['lengths']} "
                      f"span{{{', '.join(row['basis'])}}}")
    return 0


def _cmd_corpus(args) -> int:
    try:
        rows = run_corpus(selectors=args.selectors or None)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    if args.json:
        print(_dump(rows))
    else:
        width = max(len(r["key"]) for r in rows)
        for r in rows:
            spec = r["spec_case"] or "-"
            census = "-" if r["census"] is None else str(r["census"])
            flag = "ok" if r["ok"] else "MISMATCH"
            print(f"{r['key']:<{width}}  dsc={r['dsc']:<9} case={spec:<2} "
                  f"ideals={census:<4} {flag}")
    return 0 if all(r["ok"] for r in rows) else 1


def _add_common(sp):
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument("--truncate", type=int, metavar="N",
                    help="override the truncation degree")


def main(argv=None) -> int:
    parser = _Parser(prog="cyclicideals",
                     description="Direct-sum-of-cyclics analysis of local "
                                 "monomial algebras over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="decide the property (files multiply)")
    sp.add_argument("files", nargs="+", metavar="FILE")
    _add_common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("decompose", help="split one ideal into cyclic summands")
    sp.add_argument("file", metavar="FILE")
    sp.add_argument("--ideal", required=True, metavar="GENS",
                    help="comma-separated generator expressions, e.g. 'x+y,x^2'")
    _add_common(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("spec", help="prime spectrum from a witness decomposition")
    sp.add_argument("file", metavar="FILE")
    _add_common(sp)
    sp.set_defaults(func=_cmd_spec)

    sp = sub.add_parser("oracle", help="exhaustive ideal census and verdict")
    sp.add_argument("file", metavar="FILE")
    sp.add_argument("--list", action="store_true", help="dump every ideal")
    _add_common(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("corpus", help="run the bundled expectation table")
    sp.add_argument("selectors", nargs="*", metavar="PATTERN",
                    help="run only cases whose key contains PATTERN")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_corpus)

    # leftovers are reported with the usage of the subcommand they follow
    args, extra = parser.parse_known_args(argv)
    if extra:
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RefusalError, InfeasibleSizeError, WitnessDoesNotLiftError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
