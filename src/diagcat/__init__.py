"""diagcat: exact-arithmetic kernel for diagram categories."""

from types import ModuleType as _ModuleType

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

# the names imported above, but not the submodules they load
__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)]
__version__ = "0.1.0"
