"""Radial scans toward roots of unity and divergence classification.

The probe integral is evaluated along kappa = r * epsilon for an
increasing radii grid, its real part is fitted against L = log 1/(1-r),
and each scan is classified bounded or diverging.  A log-law divergence
on the default grid j = 4..10 moves values by well under one decade, so
divergence is detected statistically: the fitted slope must exceed five
times its standard error and the value swing must dominate the fit's
residual scatter.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .integrals import QuadratureSpec, lint_integral
from .parallel import parallel_map

_SLOPE_SIGMA = 5.0
_RANGE_OVER_RESID = 3.0


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2 pi i p/q) with gcd(p, q) = 1 and q >= 2 (so the value is not 1)."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise DomainError("q must be >= 2")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError(f"p/q = {self.p}/{self.q} must be in lowest terms")

    @property
    def value(self) -> complex:
        """exp(2 pi i p/q), exactly -1 or +-i when q is 2 or 4.

        cmath.exp(1j * pi) is -1 + 1.2e-16i; the exact value keeps a ray
        toward -1 on the real axis, where the probe runs in float64.
        """
        if self.q in (2, 4):
            # i^(4p/q), p odd
            return (1 + 0j, 1j, -1 + 0j, complex(0.0, -1.0))[4 * self.p // self.q % 4]
        return cmath.exp(2j * math.pi * self.p / self.q)


@dataclass(frozen=True)
class RadialScan:
    epsilon: RootOfUnity
    n: int
    ell: int
    radii: tuple
    values: tuple
    fit_slope: float
    fit_intercept: float
    fit_r2: float


def radii_grid(j0: int = 4, j1: int = 10) -> tuple:
    """The standard grid 1 - 2^-j, uniformly spaced in log 1/(1-r).

    j beyond 10 pushes the singular denominator into double-precision
    noise, so the default stops there.
    """
    if j1 < j0:
        raise DomainError("j1 must be >= j0")
    return tuple(1.0 - 2.0 ** (-j) for j in range(j0, j1 + 1))


def _check_radii(radii) -> tuple:
    radii = tuple(float(r) for r in radii)
    if any(not 0.0 < r < 1.0 for r in radii):
        raise DomainError("radii must lie in (0, 1)")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly increasing")
    if len(radii) < 4:
        raise DomainError(f"need at least 4 radii to fit, got {len(radii)}")
    return radii


def _ols_log(radii, values):
    """OLS of Re(values) on L = log 1/(1-r); returns full fit statistics."""
    L = np.log(1.0 / (1.0 - np.asarray(radii, dtype=float)))
    v = np.real(np.asarray(values, dtype=complex))
    if len(L) < 4:
        raise DomainError("need at least 4 points to fit")
    if np.ptp(L) == 0.0:
        raise DomainError("degenerate abscissas: all radii map to one L")
    A = np.vstack([L, np.ones_like(L)]).T
    coef, _, _, _ = np.linalg.lstsq(A, v, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((v - pred) ** 2))
    ss_tot = float(np.sum((v - np.mean(v)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = len(L) - 2
    resid_rms = math.sqrt(ss_res / dof) if dof > 0 else 0.0
    sxx = float(np.sum((L - np.mean(L)) ** 2))
    slope_se = resid_rms / math.sqrt(sxx) if sxx > 0 else math.inf
    return {
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "slope_se": slope_se,
        "resid_rms": resid_rms,
        "swing": float(np.max(v) - np.min(v)),
    }


def _classify(radii, values) -> str:
    """'diverging' when the positive log slope is statistically real.

    The slope must exceed 5x its standard error and the value swing must
    exceed 3x the fit's residual scatter; both guards keep Monte Carlo
    noise from minting fake divergences, and converged bounded scans fail
    the slope test because their trend against L flattens out.
    """
    st = _ols_log(radii, values)
    significant = st["slope"] > _SLOPE_SIGMA * st["slope_se"]
    swings = st["swing"] > _RANGE_OVER_RESID * st["resid_rms"]
    return "diverging" if significant and swings else "bounded"


def radial_scan(
    epsilon: RootOfUnity,
    n: int,
    ell: int,
    radii,
    spec: QuadratureSpec,
) -> RadialScan:
    """Evaluate the probe integral along kappa = r * epsilon and fit it.

    epsilon must be an n-th root of unity (epsilon.q == n): the scan aims
    at the direction where the first resonant factor of the order-n term
    degenerates.  Off-resonant directions are covered by smoothness_probe.
    """
    if epsilon.q != n:
        raise DomainError(
            f"epsilon = exp(2 pi i {epsilon.p}/{epsilon.q}) is not a "
            f"primitive n-th root for n = {n}"
        )
    if ell < 0:
        raise DomainError("ell must be >= 0")
    radii = _check_radii(radii)
    values = tuple(_scan_values(epsilon.value, n, ell, radii, spec))
    st = _ols_log(radii, values)
    return RadialScan(
        epsilon=epsilon,
        n=n,
        ell=ell,
        radii=radii,
        values=values,
        fit_slope=st["slope"],
        fit_intercept=st["intercept"],
        fit_r2=st["r2"],
    )


def _scan_values(eps_value: complex, n: int, ell: int, radii, spec: QuadratureSpec):
    """Probe values along the ray, one lint evaluation per radius."""
    return parallel_map(
        lambda r: lint_integral(r * eps_value, n, ell, spec), radii
    )


@dataclass(frozen=True)
class ProbeEntry:
    """Classification of one derivative order: overall and per component."""

    ell: int
    per_n: dict
    overall: str


@dataclass(frozen=True)
class SmoothnessReport:
    epsilon: RootOfUnity
    ell_max: int
    radii: tuple
    entries: tuple

    def classification(self, ell: int) -> str:
        return self.entries[ell].overall


def smoothness_probe(
    ell_max: int,
    epsilon: RootOfUnity,
    spec: QuadratureSpec,
    radii=None,
) -> SmoothnessReport:
    """Boundedness report for derivative proxies of S_1 + S_2 toward epsilon.

    For each ell <= ell_max the divergent candidate of the ell-th
    derivative of S_1 and of S_2 (the probe integral with first-factor
    power ell+1) is scanned along kappa = r * epsilon and classified; a
    derivative order counts as diverging when any component diverges.
    Numerical differentiation is deliberately avoided here: the probe
    integral is the divergent contribution, everything else stays bounded.
    The n = 2 moments B_m are cached per radius, so only the first order
    pays for them.
    """
    if ell_max < 0:
        raise DomainError("ell_max must be >= 0")
    radii = _check_radii(radii if radii is not None else radii_grid())
    entries = []
    for e in range(ell_max + 1):
        per_n = {}
        for n in (1, 2):
            values = _scan_values(epsilon.value, n, e, radii, spec)
            per_n[n] = _classify(radii, values)
        overall = (
            "diverging" if any(c == "diverging" for c in per_n.values()) else "bounded"
        )
        entries.append(ProbeEntry(ell=e, per_n=per_n, overall=overall))
    return SmoothnessReport(
        epsilon=epsilon, ell_max=ell_max, radii=radii, entries=tuple(entries)
    )
