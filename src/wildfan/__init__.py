"""wildfan: exact verification and search for admissible fan subsolutions
of the 2D barotropic compressible Euler equations, with plane-dissipation
comparison against the classical self-similar Riemann solution."""

from .exactnum import (
    Inconclusive,
    IntervalExpr,
    NegativeRadicand,
    QuadExt,
    RadicandMismatch,
    Rational,
    XReal,
    adjoin_sqrt,
    as_xreal,
    default_precision_cap,
    set_precision_cap,
    sign,
    xreal_from_json,
    xreal_to_json,
)
from .model import (
    EulerState,
    InvalidReference,
    NonPositiveDensity,
    PHPoint,
    PressureLaw,
    lift_state,
    pressure,
    pressure_potential,
)
from .hull import (
    HypothesesViolated,
    LambdaClass,
    MatrixM,
    NotInV,
    WDecomposition,
    WGeometry,
    A_j,
    f_j,
    in_K,
    in_Kco_mU,
    in_V,
    in_W,
    lambda_class,
    matrix_M,
    r_j,
    split_flux_direction,
    w_flux_vertices,
)
from .wavecone import (
    NForTooLarge,
    VerificationFailed,
    WaveDirection,
    WeightedFamily,
    barycenter,
    eta_for_K_difference,
    in_Lambda,
    verify_HN,
)
from .riemann import (
    DissipationProfile,
    Rarefaction,
    SelfSimilarSolution,
    Shock,
    Slip,
    VacuumFormation,
    plane_bracket,
    selfsim_dissipation,
    solve_riemann,
)
from .fan import (
    FanSubsolution,
    NotCertifiableWithinCap,
    ProfileOrder,
    VerificationReport,
    beats_selfsimilar,
    compare_profiles,
    compare_selfsimilar,
    fan_dissipation_profile,
    fan_from_json,
    fan_to_json,
    find_Q,
    paper_example,
    verify_fan,
)

__version__ = "0.1.0"

# The search names load numpy, so `wildfan.search` is imported on first use
# of one of them, not with the package (PEP 562).
_SEARCH_NAMES = frozenset({"Candidate", "SearchConfig", "certify", "chain_close", "search_fan"})


def __getattr__(name: str):
    if name in _SEARCH_NAMES:
        from . import search
        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
