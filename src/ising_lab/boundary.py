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

from .errors import ConvergenceError, DomainError
from .integrals import QuadratureSpec, _lint_orders, lint_integral
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
    """One scan and its fit of Re(values) against L = log 1/(1-r).

    slope_se (the slope's standard error), resid_rms (the residual scatter)
    and swing (max - min of Re(values)) are the fit statistics that
    classification is read from, by the rule of _label.
    """

    epsilon: RootOfUnity
    n: int
    ell: int
    radii: tuple
    values: tuple
    fit_slope: float
    fit_intercept: float
    fit_r2: float
    classification: str
    slope_se: float
    resid_rms: float
    swing: float


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
    """OLS of Re(values) on L = log 1/(1-r); returns full fit statistics.

    values is one scan (1-D, one value per radius), fitted into one dict,
    or a stack of scans (2-D, one row per scan), all fitted by one lstsq
    call into a list of dicts, one per row.  A 1-D scan takes the
    single-right-hand-side path, so its fit does not depend on any other
    scan; a row of a stack agrees with it to rounding.
    """
    L = np.log(1.0 / (1.0 - np.asarray(radii, dtype=float)))
    v = np.real(np.asarray(values, dtype=complex))
    if len(L) < 4:
        raise DomainError("need at least 4 points to fit")
    if np.ptp(L) == 0.0:
        raise DomainError("degenerate abscissas: all radii map to one L")
    A = np.vstack([L, np.ones_like(L)]).T
    # a stack of scans is the columns of v.T
    coef, _, _, _ = np.linalg.lstsq(A, v.T, rcond=None)
    pred = (A @ coef).T
    ss_res = np.sum((v - pred) ** 2, axis=-1)
    ss_tot = np.sum((v - np.mean(v, axis=-1, keepdims=True)) ** 2, axis=-1)
    swing = np.max(v, axis=-1) - np.min(v, axis=-1)
    dof = len(L) - 2
    sxx = float(np.sum((L - np.mean(L)) ** 2))
    fits = []
    for (slope, intercept), res, tot, sw in zip(
        np.reshape(coef.T, (-1, 2)), np.ravel(ss_res), np.ravel(ss_tot), np.ravel(swing)
    ):
        res, tot = float(res), float(tot)
        resid_rms = math.sqrt(res / dof) if dof > 0 else 0.0
        fits.append({
            "slope": float(slope),
            "intercept": float(intercept),
            "r2": 1.0 if tot == 0.0 else 1.0 - res / tot,
            "slope_se": resid_rms / math.sqrt(sxx) if sxx > 0 else math.inf,
            "resid_rms": resid_rms,
            "swing": float(sw),
        })
    return fits if v.ndim == 2 else fits[0]


def _checked_fits(radii, values, n: int, ells):
    """_ols_log of the probe values at the orders ells (1-D values for one
    order).  A value past the float range, or a fit whose squares overflow,
    raises ConvergenceError naming n, ell and the radius instead."""
    rows = np.reshape(values, (len(ells), len(radii)))
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        i, j = bad[0]
        raise ConvergenceError(
            f"the probe value {rows[i, j]} at n={n}, ell={ells[i]}, r={radii[j]!r} is not finite")
    # numpy's overflow warnings would only repeat the error raised below
    with np.errstate(over="ignore", invalid="ignore"):
        fits = _ols_log(radii, values)
    for ell, st in zip(ells, fits if isinstance(fits, list) else [fits]):
        if not all(map(math.isfinite, st.values())):
            raise ConvergenceError(f"the fit at n={n}, ell={ell} over r = {radii[0]!r} .. "
                                   f"{radii[-1]!r} is not finite: {st}")
    return fits


def _label(st: dict) -> str:
    """'diverging' when the positive log slope of the fit st is
    statistically real.

    The slope must exceed 5x its standard error and the value swing must
    exceed 3x the fit's residual scatter; both guards keep Monte Carlo
    noise from minting fake divergences, and converged bounded scans fail
    the slope test because their trend against L flattens out.
    """
    significant = st["slope"] > _SLOPE_SIGMA * st["slope_se"]
    swings = st["swing"] > _RANGE_OVER_RESID * st["resid_rms"]
    return "diverging" if significant and swings else "bounded"


def _classify(radii, values) -> str:
    """The label of _label for the fit of values against radii."""
    return _label(_ols_log(radii, values))


def radial_scan(
    epsilon: RootOfUnity,
    n: int,
    ell: int,
    radii,
    spec: QuadratureSpec,
) -> RadialScan:
    """Evaluate the probe integral along kappa = r * epsilon, fit it and
    classify the scan from that one fit.

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
    values = tuple(
        parallel_map(lambda r: lint_integral(r * epsilon.value, n, ell, spec), radii)
    )
    st = _checked_fits(radii, values, n, (ell,))
    return RadialScan(
        epsilon=epsilon,
        n=n,
        ell=ell,
        radii=radii,
        values=values,
        fit_slope=st["slope"],
        fit_intercept=st["intercept"],
        fit_r2=st["r2"],
        classification=_label(st),
        slope_se=st["slope_se"],
        resid_rms=st["resid_rms"],
        swing=st["swing"],
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
    Each n takes one pass per radius over every order (_lint_orders: for
    n = 2 one walk over the cached moments B_m sums the whole ladder) and
    one fit of the orders x radii values.
    """
    if ell_max < 0:
        raise DomainError("ell_max must be >= 0")
    radii = _check_radii(radii if radii is not None else radii_grid())
    orders = range(ell_max + 1)
    labels = {}
    for n in (1, 2):
        values = parallel_map(
            lambda r: _lint_orders(r * epsilon.value, n, orders, spec), radii
        )
        fits = _checked_fits(radii, np.transpose(values), n, orders)
        labels[n] = [_label(st) for st in fits]
    entries = []
    for e in orders:
        per_n = {n: labels[n][e] for n in (1, 2)}
        overall = (
            "diverging" if any(c == "diverging" for c in per_n.values()) else "bounded"
        )
        entries.append(ProbeEntry(ell=e, per_n=per_n, overall=overall))
    return SmoothnessReport(
        epsilon=epsilon, ell_max=ell_max, radii=radii, entries=tuple(entries)
    )
