"""diagcat: exact-arithmetic kernel for diagram categories."""

from .coeff import DeltaPoly, rational_roots
from .diagrams import (
    BrauerDiagram,
    DegeneratePartitionDiagram,
    PartialInjection,
    PartitionDiagram,
    SignedBrauerDiagram,
    TemperleyLiebDiagram,
    WalledBrauerDiagram,
    disjoint_union,
    enumerate_diagrams,
    identity_diagram,
    is_downwards,
    is_planar,
    is_upwards,
    make_diagram,
    transpose,
)
from .compose import (
    CompositionResult,
    compose,
    epsilon_sign,
    phi_signed_to_brauer,
)
from .linear import (
    Factorization,
    Morphism,
    check_triangular_axioms,
    factorize,
    morphism_compose,
    morphism_tensor,
    morphism_transpose,
    verify_t3,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
