"""Ideals of local monomial algebras as direct sums of cyclic modules.

Parse a presentation, build the algebra, then ask the three questions
this package answers: does every ideal split into cyclic summands
(classify_dsc), how does a given ideal split (decompose_ideal), and
what is the prime spectrum (spec_classify).  The oracle module answers
the first two by brute force for cross-checking.
"""

from .rings import (Algebra, DimensionLimitError, Element, MonomialAlgebra,
                    PresentationError, RingPresentation, RingSyntaxError,
                    build_algebra, parse_element, parse_presentation, pres_str)
from .ideals import (Ideal, cyclic, direct_onto, ideal_from_generators,
                     is_simple, maximal_ideal, min_generators,
                     module_times_ideal, unit_ideal, zero_ideal)
from .structure import (DscVerdict, InternalContradictionError, MDecomposition,
                        SpecReport, WitnessDoesNotLiftError,
                        canonical_variable_split, classify_dsc,
                        classify_product, find_m_decomposition,
                        m_decomposition_problems, refutes, spec_classify,
                        verify_m_decomposition)
from .decompose import (CyclicDecomposition, Trace, WitnessInvalidError,
                        decompose_ideal, minimal_exponent, verify_decomposition)
from .oracle import (IdealCensus, InfeasibleSizeError, brute_decompose,
                     complete_census, decomposition_lengths, enumerate_ideals,
                     length_invariance, oracle_dsc)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "CyclicDecomposition", "DimensionLimitError", "DscVerdict",
    "Element", "Ideal", "IdealCensus", "InfeasibleSizeError",
    "InternalContradictionError", "MDecomposition", "MonomialAlgebra",
    "PresentationError", "RingPresentation", "RingSyntaxError", "SpecReport",
    "Trace", "WitnessDoesNotLiftError", "WitnessInvalidError",
    "brute_decompose", "build_algebra", "canonical_variable_split",
    "classify_dsc", "classify_product", "complete_census", "cyclic",
    "decompose_ideal", "decomposition_lengths", "direct_onto",
    "enumerate_ideals", "find_m_decomposition", "ideal_from_generators",
    "is_simple", "length_invariance", "m_decomposition_problems",
    "maximal_ideal", "min_generators", "minimal_exponent",
    "module_times_ideal", "oracle_dsc", "parse_element", "parse_presentation",
    "pres_str", "refutes", "spec_classify",
    "unit_ideal", "verify_decomposition", "verify_m_decomposition",
    "zero_ideal",
]
