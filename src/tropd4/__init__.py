"""Exact pipeline: pseudotriangulations, the rank-4 positive tropical fan,
and matroid subdivisions of the (3,6)-hypersimplex."""

from .chords import (
    Chord,
    SymmetryOp,
    all_chord_pairs,
    apply_symmetry,
    crossing,
    pair_crossing_count,
)
from .clusters import (
    classify_modulo,
    cluster_complex,
    compatibility_degree,
    enumerate_pseudotriangulations,
    flip,
    flip_graph,
    root_of_pair,
)
from .fan import compute_fan_f36, trop_phi2
from .geometry import (
    Cone,
    Fan,
    cone_rays,
    intersection_dim,
    regular_subdivision,
)
from .hypersimplex import (
    classify_plane_type,
    hypersimplex_vertices,
    induced_subdivision,
    is_matroid_basis_set,
    subdivision_signature,
)
from .correspondence import (
    cone_of_cluster,
    plane_type_of_cluster,
    psi,
    verify_cluster_fan_correspondence,
    verify_parity_reflection_theorem,
)
from .webmatrix import tropical_minor, web_matrix

__version__ = "0.1.0"
