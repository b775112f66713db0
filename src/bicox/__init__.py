"""Finite Coxeter groups, parabolic double cosets, and the two-sided
Coxeter complex: construction, verification, and face enumeration."""

from .complexes import (
    TwoSidedComplex,
    euler_characteristic,
    face_count,
    hasse_dot,
    sigma_ideal,
    verify_pseudomanifold,
    verify_shelling,
    verify_thin,
)
from .contingency import SymmetricGroupFaces
from .cosets import double_quotient_size
from .coxeter import (
    CoxeterMatrix,
    CoxeterSystem,
    GroupTable,
    TypeLabel,
    build_group,
    classify,
    classify_spec,
    length_order,
    parse_type_spec,
    standard_matrix,
)
from .enumeration import (
    GammaTable,
    factorize,
    flag_f,
    flag_h,
    gamma_expansion,
    two_sided_eulerian,
)
from .errors import (
    BicoxError,
    CacheError,
    CapacityError,
    GammaBasisError,
    InternalCheckError,
    NotFiniteError,
)

__all__ = [
    "BicoxError",
    "CacheError",
    "CapacityError",
    "CoxeterMatrix",
    "CoxeterSystem",
    "GammaBasisError",
    "GammaTable",
    "GroupTable",
    "InternalCheckError",
    "NotFiniteError",
    "SymmetricGroupFaces",
    "TwoSidedComplex",
    "TypeLabel",
    "build_group",
    "classify",
    "classify_spec",
    "double_quotient_size",
    "euler_characteristic",
    "face_count",
    "factorize",
    "flag_f",
    "flag_h",
    "gamma_expansion",
    "hasse_dot",
    "length_order",
    "parse_type_spec",
    "sigma_ideal",
    "standard_matrix",
    "two_sided_eulerian",
    "verify_pseudomanifold",
    "verify_shelling",
    "verify_thin",
]
