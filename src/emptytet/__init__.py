"""Exact classification and normalization of empty and clean lattice tetrahedra in Z^3.

A lattice tetrahedron is *empty* when its only lattice points are its
four vertices and *clean* when its boundary carries no lattice points
besides the vertices.  This package decides both properties exactly,
reduces tetrahedra to the standard form T(a, b, c) by affine unimodular
maps, and cross-validates the number-theoretic criteria against
brute-force lattice scans.  All arithmetic is exact integer or rational;
no floating point is used anywhere.
"""

from .geometry import (
    DegenerateTetrahedronError,
    PointLocation,
    Tetrahedron,
    bruteforce_verdicts,
    is_clean_bruteforce,
    is_empty_bruteforce,
    is_primitive_pair,
    lattice_points_in,
    locate,
    parallelepiped_interior_bruteforce,
    parallelepiped_interior_points,
    parallelogram_is_empty_bruteforce,
    standard_tetrahedron,
    triangle_is_empty_bruteforce,
    volume6,
)
from .intlin import (
    AffineUnimodularMap,
    NotPrimitiveError,
    cross,
    det3,
    extend_to_basis,
    extended_gcd3,
    gcd_vec,
)
from .normalize import (
    NormalizationResult,
    NotNormalizableError,
    canonical_form,
    canonicalize,
    equivalent,
    normalize,
)
from .verify import (
    VerificationReport,
    random_unimodular_map,
    verify_coplanarity,
    verify_floor_steps,
    verify_normalization,
    verify_white,
)
from .white import (
    CanonicalForm,
    clean_forms,
    empty_forms,
    floor_step,
    floor_step_support,
    frac_multiple,
    is_clean_form,
    satisfied_clause,
    satisfies_fraction_system,
    satisfies_step_system,
    white_empty,
)

__version__ = "0.1.0"

__all__ = [
    "AffineUnimodularMap",
    "CanonicalForm",
    "DegenerateTetrahedronError",
    "NormalizationResult",
    "NotNormalizableError",
    "NotPrimitiveError",
    "PointLocation",
    "Tetrahedron",
    "VerificationReport",
    "bruteforce_verdicts",
    "canonical_form",
    "canonicalize",
    "clean_forms",
    "cross",
    "det3",
    "empty_forms",
    "equivalent",
    "extend_to_basis",
    "extended_gcd3",
    "floor_step",
    "floor_step_support",
    "frac_multiple",
    "gcd_vec",
    "is_clean_bruteforce",
    "is_clean_form",
    "is_empty_bruteforce",
    "is_primitive_pair",
    "lattice_points_in",
    "locate",
    "normalize",
    "parallelepiped_interior_bruteforce",
    "parallelepiped_interior_points",
    "parallelogram_is_empty_bruteforce",
    "random_unimodular_map",
    "satisfied_clause",
    "satisfies_fraction_system",
    "satisfies_step_system",
    "standard_tetrahedron",
    "triangle_is_empty_bruteforce",
    "verify_coplanarity",
    "verify_floor_steps",
    "verify_normalization",
    "verify_white",
    "volume6",
    "white_empty",
]
