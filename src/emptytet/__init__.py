"""Exact classification and normalization of empty and clean lattice tetrahedra in Z^3.

A lattice tetrahedron is *empty* when its only lattice points are its
four vertices and *clean* when its boundary carries no lattice points
besides the vertices.  This package decides both properties exactly,
reduces tetrahedra to the standard form T(a, b, c) by affine unimodular
maps, and cross-validates the number-theoretic criteria against
brute-force lattice scans.  All arithmetic is exact and in integers;
no floating point is used anywhere.

The top level holds what the command line and the paper's claims use;
the reference oracles, the equation systems and the integer linear
algebra are imported from `emptytet.geometry`, `emptytet.white` and
`emptytet.intlin`.
"""

from .geometry import (
    DegenerateTetrahedronError,
    Tetrahedron,
    bruteforce_verdicts,
    parallelepiped_interior_points,
    standard_tetrahedron,
    volume6,
)
from .normalize import (
    NormalizationResult,
    NotNormalizableError,
    canonical_form,
    canonicalize,
)
from .verify import (
    verify_coplanarity,
    verify_floor_steps,
    verify_normalization,
    verify_white,
)
from .white import (
    CanonicalForm,
    empty_forms,
    is_clean_form,
    satisfied_clause,
    white_empty,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "DegenerateTetrahedronError",
    "NormalizationResult",
    "NotNormalizableError",
    "Tetrahedron",
    "bruteforce_verdicts",
    "canonical_form",
    "canonicalize",
    "empty_forms",
    "is_clean_form",
    "parallelepiped_interior_points",
    "satisfied_clause",
    "standard_tetrahedron",
    "verify_coplanarity",
    "verify_floor_steps",
    "verify_normalization",
    "verify_white",
    "volume6",
    "white_empty",
]
