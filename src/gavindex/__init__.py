"""Exact-arithmetic toolkit for general arrangement varieties.

Computes grading data, moving cones, tropical cone classifications,
the anticanonical complex and the Gorenstein index from defining
matrix data, and searches five bounded families of Fano threefold
candidates for a prescribed index.  Everything runs over the
rationals; no floating point is involved anywhere.
"""

from .acomplex import (
    AnticanonicalComplex,
    build_complex,
    cone_multiplier,
    distance_report,
    gorenstein_index_via_complex,
    gorenstein_index_via_cones,
    lattice_distance,
)
from .classify import (
    Candidate,
    ClassificationReport,
    Verification,
    brute_force_box,
    classify_index,
    dedupe,
    enumerate_setting,
    fingerprint,
    instantiate,
    verify,
    verify_data,
)
from .errors import (
    DegenerateCell,
    GavError,
    InvalidCandidate,
    MalformedFanCone,
    NotAmple,
    NotLatticeMeasurable,
    NotQGorenstein,
    NotQGorensteinOnCone,
    NotQuasiprojectiveSetup,
)
from .gav_core import (
    ArrangementData,
    DegreeData,
    KElement,
    anticanonical_class,
    degree_map,
    fan_from_index_sets,
    is_fano,
    make_data,
    moving_cone,
    relations,
    validate,
)
from .polyhedra import (
    Cone,
    Fan,
    check_fan,
    cone_from_generators,
    cone_from_inequalities,
    intersect,
    make_fan,
    toric_gorenstein_index,
)
from .tropical import ConeKind, TropStructure, classify_cone, trop_structure

__version__ = "0.1.0"

__all__ = [
    "AnticanonicalComplex",
    "ArrangementData",
    "Candidate",
    "ClassificationReport",
    "Cone",
    "ConeKind",
    "DegenerateCell",
    "DegreeData",
    "Fan",
    "GavError",
    "InvalidCandidate",
    "KElement",
    "MalformedFanCone",
    "NotAmple",
    "NotLatticeMeasurable",
    "NotQGorenstein",
    "NotQGorensteinOnCone",
    "NotQuasiprojectiveSetup",
    "TropStructure",
    "Verification",
    "anticanonical_class",
    "brute_force_box",
    "build_complex",
    "check_fan",
    "classify_cone",
    "classify_index",
    "cone_from_generators",
    "cone_from_inequalities",
    "cone_multiplier",
    "dedupe",
    "degree_map",
    "distance_report",
    "enumerate_setting",
    "fan_from_index_sets",
    "fingerprint",
    "gorenstein_index_via_complex",
    "gorenstein_index_via_cones",
    "instantiate",
    "intersect",
    "is_fano",
    "lattice_distance",
    "make_data",
    "make_fan",
    "moving_cone",
    "relations",
    "toric_gorenstein_index",
    "trop_structure",
    "validate",
    "verify",
    "verify_data",
]
