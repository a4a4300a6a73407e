"""Diagonal correlations and susceptibility of the 2D Ising model below T_c.

Two independent routes to every headline number: Toeplitz/Fredholm
determinants on one side, form-factor multiple integrals on the other,
plus radial probes of the natural boundary of the correlation sum on
|kappa| = 1.
"""
from .boundary import (
    ProbeEntry,
    RadialScan,
    RootOfUnity,
    SmoothnessReport,
    radial_scan,
    radii_grid,
    smoothness_probe,
)
from .chi import ChiResult, chi_d, sweep
from .errors import ConvergenceError, DomainError, PhaseError, PrecisionWarning
from .fredholm import FredholmResult, fredholm_det, s_via_fredholm
from .integrals import QuadratureSpec, SnResult, lint_integral, s_n
from .params import CouplingK, k_from_temperature, magnetization
from .toeplitz import CorrelationResult, diagonal_correlation

__version__ = "0.1.0"

__all__ = [
    "ChiResult",
    "ConvergenceError",
    "CorrelationResult",
    "CouplingK",
    "DomainError",
    "FredholmResult",
    "PhaseError",
    "PrecisionWarning",
    "ProbeEntry",
    "QuadratureSpec",
    "RadialScan",
    "RootOfUnity",
    "SmoothnessReport",
    "SnResult",
    "chi_d",
    "diagonal_correlation",
    "fredholm_det",
    "k_from_temperature",
    "lint_integral",
    "magnetization",
    "radial_scan",
    "radii_grid",
    "s_n",
    "s_via_fredholm",
    "smoothness_probe",
    "sweep",
]
