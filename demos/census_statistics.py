"""Exhaustive ideal censuses for the bundled rings that admit one.

For each ring: how many ideals exist, how many summands their
decompositions use, and whether any ideal ever decomposes at two
different lengths.  None ever does, and that is a theorem, not an
observation: if I = Rg_1 + ... + Rg_n is direct with every g_k nonzero,
then I/MI is the direct sum of the one-dimensional Rg_k/Mg_k
(Nakayama), so n = dim I - dim MI for every decomposition.  The census
reports that one length per ideal; the constructive routine leans on
the same invariance.
"""

from collections import Counter

from cyclicideals import complete_census, enumerate_ideals, length_invariance
from cyclicideals.corpus import CASES, load_case

if __name__ == "__main__":
    for case in CASES:
        if case.census is None:
            continue  # no hand-counted census is frozen for the case
        _, alg = load_case(case.key)
        census = complete_census(enumerate_ideals(alg))
        lengths = Counter()
        stuck = 0
        for e in census.entries:
            if not e.decomposable:
                stuck += 1
            for n in e.lengths:
                lengths[n] += 1
        hist = "  ".join(f"len {n}: {c}" for n, c in sorted(lengths.items()))
        print(f"{case.key:<20} {census.count:>3} ideals   {hist}")
        if stuck:
            print(f"{'':<20} {stuck} ideal(s) admit no decomposition")
        assert length_invariance(census)
    print("\nevery decomposable ideal has a single achievable length")
