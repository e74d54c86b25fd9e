"""Exact genus-zero invariants of local Calabi-Yau targets and the
symplectic transformations identifying them across crepant birational
changes."""

from .lambda_rat import LambdaPoly, LambdaRat, format_lambda_rat, parse_lambda_rat
from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraZ,
    Element,
    nonequivariant_limit,
)
from .geometry import (
    BUILTIN_NAMES,
    CurveVariable,
    DegreeLattice,
    GammaRow,
    Geometry,
    GeometryError,
    builtin,
    config_from_dict,
    config_to_dict,
    enumerate_degrees,
    load_config,
    pairs,
    save_config,
)

__all__ = [
    "LambdaPoly", "LambdaRat", "format_lambda_rat", "parse_lambda_rat",
    "Algebra", "AlgebraError", "AlgebraZ", "Element",
    "nonequivariant_limit",
    "BUILTIN_NAMES", "CurveVariable", "DegreeLattice", "GammaRow",
    "Geometry", "GeometryError", "builtin", "config_from_dict",
    "config_to_dict", "enumerate_degrees", "load_config", "pairs",
    "save_config",
]

from .ifunction import (
    IFunction,
    IFunctionError,
    RatAZ,
    build_ifunction,
    expand_prefactor,
    gamma_ratio,
)

__all__ += [
    "IFunction",
    "IFunctionError",
    "RatAZ",
    "build_ifunction",
    "expand_prefactor",
    "gamma_ratio",
]

from .picardfuchs import (
    LinForm,
    PFError,
    PFOperator,
    PFReport,
    PFTerm,
    apply_operator,
    pf_system,
    proportional,
    transform_chart,
    verify_pf,
)

__all__ += [
    "LinForm",
    "PFError",
    "PFOperator",
    "PFReport",
    "PFTerm",
    "apply_operator",
    "pf_system",
    "proportional",
    "transform_chart",
    "verify_pf",
]

from .mirror import (
    DivisorDirection,
    InvariantRow,
    InvariantTable,
    InverseMap,
    JFunction,
    MSeries,
    MirrorData,
    MirrorError,
    TwistedDirection,
    extract_mirror,
    invert_mirror,
    j_function,
    one_point_invariants,
    slice_invariants_ex2,
)

__all__ += [
    "DivisorDirection",
    "InvariantRow",
    "InvariantTable",
    "InverseMap",
    "JFunction",
    "MSeries",
    "MirrorData",
    "MirrorError",
    "TwistedDirection",
    "extract_mirror",
    "invert_mirror",
    "j_function",
    "one_point_invariants",
    "slice_invariants_ex2",
]
