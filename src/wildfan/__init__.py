"""wildfan: exact verification and search for admissible fan subsolutions
of the 2D barotropic compressible Euler equations, with plane-dissipation
comparison against the classical self-similar Riemann solution."""

import importlib

__version__ = "0.1.0"

# Public name -> home submodule.  `import wildfan` loads no submodule: each
# one is imported on first use of one of its names or of the submodule
# itself (PEP 562), so a command pays only for the modules it calls, and
# numpy (`search`, `convexint`) loads only where it is needed.
_HOMES = {
    "exactnum": (
        "Inconclusive", "IntervalExpr", "NegativeRadicand", "QuadExt",
        "RadicandMismatch", "Rational", "XReal", "adjoin_sqrt", "as_xreal",
        "default_precision_cap", "set_precision_cap", "sign",
        "xreal_from_json", "xreal_to_json",
    ),
    "model": (
        "EulerState", "InvalidReference", "NonPositiveDensity", "PHPoint",
        "PressureLaw", "lift_state", "pressure", "pressure_potential",
    ),
    "hull": (
        "HypothesesViolated", "LambdaClass", "MatrixM", "NotInV",
        "WDecomposition", "WGeometry", "A_j", "f_j", "in_K", "in_Kco_mU",
        "in_V", "in_W", "lambda_class", "matrix_M", "r_j",
        "split_flux_direction", "w_flux_vertices",
    ),
    "wavecone": (
        "NForTooLarge", "VerificationFailed", "WaveDirection",
        "WeightedFamily", "barycenter", "eta_for_K_difference", "in_Lambda",
        "verify_HN",
    ),
    "riemann": (
        "DissipationProfile", "Rarefaction", "SelfSimilarSolution", "Shock",
        "Slip", "VacuumFormation", "plane_bracket", "selfsim_dissipation",
        "solve_riemann",
    ),
    "fan": (
        "FanSubsolution", "NotCertifiableWithinCap", "ProfileOrder",
        "VerificationReport", "beats_selfsimilar", "compare_profiles",
        "compare_selfsimilar", "fan_dissipation_profile", "fan_from_json",
        "fan_to_json", "find_Q", "paper_example", "verify_fan",
    ),
    "search": ("Candidate", "SearchConfig", "certify", "chain_close", "search_fan"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES, *_HOME})
