"""Diagonal susceptibility assembly and parameter sweeps.

beta^-1 chi_d = 1 - M^2 + 2 sum_{N>=1} (D(N) - M^2) = (1 - M^2) + 2 M^2 S.
The N and -N terms of the underlying lattice sum coincide and N = 0
contributes 1 - M^2, which is where the closed assembly comes from.
Three routes are exposed and kept strictly independent so they can
cross-check each other: Toeplitz determinants summed directly, the
Fredholm form of S, and the form-factor integrals summed over every n.
One contract joins them: every route's S-sum returns (S, terms,
est_error) or raises ConvergenceError, and chi_d builds every row.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .fredholm import _s_fredholm_terms
from .integrals import _s_nystrom_terms
from .params import CouplingK, magnetization
from .parallel import parallel_map
from .toeplitz import _s_toeplitz_terms

# each route's S-sum by name: chi_d looks it up at call time, so a rebound
# module attribute is the one that runs
_ROUTES = {"fredholm": "_s_fredholm_terms", "toeplitz_direct": "_s_toeplitz_terms",
           "integral": "_s_nystrom_terms"}


@dataclass(frozen=True)
class ChiResult:
    k: complex
    beta_inv_chi_d: complex
    route: str
    terms_used: int
    est_error: float
    flagged: bool = False
    reason: str = ""          # why a flagged row is flagged; "" otherwise


def _one_minus_m2(kappa: complex) -> complex:
    """1 - M^2 = 1 - (1 - kappa)^(1/4), principal branch, to a few eps at
    any |kappa| < 1, small |kappa| included.

    With w = log1p(-kappa)/4, 1 - e^w = -2 sinh(w/2) e^(w/2) has no
    cancellation.  log1p(z) = log(u) z/(u - 1), u = 1 + z rounded, is exact
    to a few eps for complex z too (and z itself where u rounds to 1).
    """
    z = -complex(kappa)
    u = 1.0 + z
    w = 0.25 * (z if u == 1.0 else cmath.log(u) * z / (u - 1.0))
    return -2.0 * cmath.sinh(0.5 * w) * cmath.exp(0.5 * w)


def _assemble(kappa, m2, s):
    """beta^-1 chi_d = (1 - M^2) + 2 M^2 S, kappa = k^2 and m2 = M^2.

    The form 1 + M^2 (2 S - 1) rounds on the scale of M^2 (2 S - 1), about
    4 / k^2 times chi_d as k -> 0 (396 times at k = 0.1); forming 1 - M^2
    from kappa keeps the relative error of chi_d to a few eps.
    """
    return _one_minus_m2(kappa) + 2.0 * m2 * s


def chi_d(k: CouplingK, tol: float, route: str) -> ChiResult:
    """beta^-1 chi_d by the requested route.

    Parameters
    ----------
    k : CouplingK
    tol : float
        Tolerance handed to the underlying summation; the reported
        est_error is the propagated bound, and results whose tail failed
        to converge under the route caps come back flagged instead of
        raising.
    route : {"fredholm", "toeplitz_direct", "integral"}
        The determinant routes add the one-particle part S_1^H in closed
        form to the orders >= 2 of the terms N <= terms_used, where the
        proven tail t_N^2 e^(t_N) / 2 of those orders falls to tol/2, and
        add that tail; toeplitz_direct is flagged past 4096 terms.  The
        integral route stops at its own proven tail, and is flagged where
        its 64/96 node gap exceeds tol, from about k = 0.9998 at
        tol = 1e-8.
    """
    if route not in _ROUTES:
        raise DomainError(f"unknown route {route!r}; expected one of {tuple(_ROUTES)}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    m = magnetization(k)
    m2 = m * m
    try:
        s, n, s_err = globals()[_ROUTES[route]](k, tol)
    except ConvergenceError as exc:
        return _flagged(k, route, exc, m2)
    return _finish(k.value, _assemble(k.kappa, m2, s), route, n, 2.0 * abs(m2) * s_err)


def _flagged(k: CouplingK, route: str, exc: ConvergenceError, m2) -> ChiResult:
    """The row of a route that raised, keeping the work it did: n terms
    summed give terms_used = n and est_error = 2 |M^2| gap, as an
    unflagged row; a raise before any term gives 0 and inf.
    """
    best = exc.best if exc.best is not None else math.nan
    value = _assemble(k.kappa, m2, best) if best == best else complex(math.nan)
    n = exc.terms or 0
    est_error = 2.0 * abs(m2) * exc.gap if n else math.inf
    return _finish(k.value, value, route, n, est_error, str(exc))


def _finish(kv, value, route, terms, est_error, reason="") -> ChiResult:
    """Every row.  kv is CouplingK.value: a float makes the row physical."""
    value = complex(value)
    if isinstance(kv, float):
        if abs(value.imag) > 1e-10 * max(1.0, abs(value)):
            raise RuntimeError(f"physical chi_d came out complex: {value!r}")
        value = value.real
    return ChiResult(
        k=kv,
        beta_inv_chi_d=value,
        route=route,
        terms_used=terms,
        est_error=float(est_error),
        flagged=bool(reason),
        reason=reason,
    )


def sweep(grid, route: str, tol: float = 1e-8):
    """One ChiResult per grid point, evaluated in parallel, order preserved.

    A point that raises a domain or runtime error becomes a flagged NaN
    row whose reason is the error's text; the sweep itself never aborts on
    one bad point.
    """
    grid = list(grid)

    def one(kv):
        try:
            k = kv if isinstance(kv, CouplingK) else CouplingK.physical(kv)
            return chi_d(k, tol, route)
        except (DomainError, RuntimeError) as exc:
            kk = kv.value if isinstance(kv, CouplingK) else float(kv)
            return _finish(kk, math.nan, route, 0, math.inf, str(exc))

    return parallel_map(one, grid)
