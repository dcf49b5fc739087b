"""Finite Mal'tsev algebras, their congruence lattices, truncated
simplicial objects over them, and the reflection into internal groupoids.

The modules group as follows: ``algebra``, ``terms`` and ``congruences``
cover single algebras and their congruence lattices; ``commutator`` and
``limits`` add the binary commutator and finite limits; ``simplicial``
and ``groupoid`` build truncated simplicial objects, internal groupoids,
kernels, Kan checks, nerves and the maps into them;
``reflection`` and ``galois`` compute the groupoid reflection,
extension classification and factorizations;
``corpus``, ``io``, ``suite`` and ``cli`` supply worked examples, JSON
interchange, the property battery and the command line.
"""

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    identity_hom,
    make_algebra,
    validate_algebra,
)
from .congruences import Congruence
from .errors import (
    BudgetError,
    InputError,
    PropertyViolation,
    SimalError,
)
from .galois import (
    ExtensionReport,
    classify_extension,
    em_factorization,
    exactness_lemma_check,
    is_trivial_extension,
    ml_factorization,
    stabilizing_probe,
)
from .groupoid import InternalGroupoid, validate_groupoid
from .reflection import (
    ReflectionResult,
    graph_reflection,
    is_internal_groupoid,
    pi1,
    universal_property_check,
)
from .simplicial import (
    SimplicialMorphism,
    TruncatedSimplicialAlgebra,
    coskeleton,
    decalage,
    exactness_check,
    kan_check,
    kan_fibration_check,
    nerve,
    simplicial_kernel,
    validate_simplicial,
)
from .suite import run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Congruence",
    "ExtensionReport",
    "FiniteAlgebra",
    "Homomorphism",
    "InputError",
    "InternalGroupoid",
    "PropertyViolation",
    "ReflectionResult",
    "Signature",
    "SimalError",
    "SimplicialMorphism",
    "TruncatedSimplicialAlgebra",
    "classify_extension",
    "coskeleton",
    "decalage",
    "em_factorization",
    "exactness_check",
    "exactness_lemma_check",
    "graph_reflection",
    "identity_hom",
    "is_internal_groupoid",
    "is_trivial_extension",
    "kan_check",
    "kan_fibration_check",
    "make_algebra",
    "ml_factorization",
    "nerve",
    "pi1",
    "run_suite",
    "simplicial_kernel",
    "stabilizing_probe",
    "universal_property_check",
    "validate_algebra",
    "validate_groupoid",
    "validate_simplicial",
]
