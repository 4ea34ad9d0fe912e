"""The property survives finite products, and fails with any bad factor.

A product of local rings is not local, but its ideals split along the
idempotents, so the decision reduces to the factors.  classify_product
combines per-factor verdicts: all yes gives yes, and any refuted factor
gives no, with the embedded counterexample.  Every factor here is a
monomial ring, which classify_dsc always decides.
"""

from cyclicideals import (build_algebra, classify_dsc, classify_product,
                          parse_presentation)

FACTORS = {
    "chain":  "field 2\nvars x\nrel x^4\n",
    "pair":   "field 2\nvars x y\nrel x^3\nrel y^3\nrel x*y\n",
    "triple": ("field 2\nvars x1 x2 x3\nrel x1^3\nrel x2^3\nrel x3^3\n"
               "rel x1*x2\nrel x1*x3\nrel x2*x3\n"),
}


def verdict_for(*names: str):
    parts = [classify_dsc(build_algebra(parse_presentation(FACTORS[n])))
             for n in names]
    combined = classify_product(parts)
    print(f"{' x '.join(names):<24} -> {combined.answer}")
    for note in combined.notes:
        print(f"    {note}")


if __name__ == "__main__":
    verdict_for("chain")
    verdict_for("chain", "pair")
    verdict_for("chain", "pair", "triple")
