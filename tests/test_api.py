"""The public names of `diagcat` are listed here, so that adding or
removing an export shows up as an edit of this list."""

import diagcat

PUBLIC = {
    "BrauerDiagram",
    "CompositionResult",
    "DegeneratePartitionDiagram",
    "DeltaPoly",
    "Factorization",
    "Morphism",
    "PartialInjection",
    "PartitionDiagram",
    "SignedBrauerDiagram",
    "TemperleyLiebDiagram",
    "WalledBrauerDiagram",
    "check_triangular_axioms",
    "compose",
    "disjoint_union",
    "enumerate_diagrams",
    "epsilon_sign",
    "factorize",
    "identity_diagram",
    "is_downwards",
    "is_planar",
    "is_upwards",
    "make_diagram",
    "morphism_compose",
    "morphism_tensor",
    "morphism_transpose",
    "phi_signed_to_brauer",
    "rational_roots",
    "transpose",
    "verify_t3",
}


def test_public_names_pinned():
    assert sorted(diagcat.__all__) == sorted(PUBLIC)
