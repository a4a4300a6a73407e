"""Diagonal susceptibility assembly and parameter sweeps.

beta^-1 chi_d = 1 - M^2 + 2 sum_{N>=1} (D(N) - M^2) = 1 + M^2 (2 S - 1).
The N and -N terms of the underlying lattice sum coincide and N = 0
contributes 1 - M^2, which is where the closed assembly comes from.
Three routes are exposed and kept strictly independent so they can
cross-check each other: Toeplitz determinants summed directly, the
Fredholm form of S, and the form-factor integrals summed over every n.
The determinant routes sum _terms_needed(|k|, tol) terms and add one tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .fredholm import _s_fredholm_terms
from .integrals import _s_nystrom_terms
from .params import CouplingK, _tail_bound, _terms_needed, magnetization
from .parallel import parallel_map
from .toeplitz import _LEVINSON_ROUNDING, _correlations

_ROUTES = ("fredholm", "toeplitz_direct", "integral")
_TOEPLITZ_N_CAP = 4096


@dataclass(frozen=True)
class ChiResult:
    k: complex
    beta_inv_chi_d: complex
    route: str
    terms_used: int
    est_error: float
    flagged: bool = False
    reason: str = ""          # why a flagged row is flagged; "" otherwise


def _assemble(m2, s):
    return 1.0 + m2 * (2.0 * s - 1.0)


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
        The determinant routes sum n = _terms_needed(|k|, tol) terms
        (terms_used) and add the proven tail past n.  The integral route
        stops at its own proven tail, and is flagged where its 64/96 node
        gap exceeds tol, from about k = 0.9998 at tol = 1e-8.
    """
    if route not in _ROUTES:
        raise DomainError(f"unknown route {route!r}; expected one of {_ROUTES}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    m = magnetization(k)
    m2 = m * m
    try:
        if route == "toeplitz_direct":
            return _chi_toeplitz(k, tol, m2)
        terms = _s_fredholm_terms if route == "fredholm" else _s_nystrom_terms
        s, n, s_err = terms(k, tol)
        return _finish(k, _assemble(m2, s), route, n, 2.0 * abs(m2) * s_err)
    except ConvergenceError as exc:
        return _flagged(k, route, exc, m2)


def _flagged(k: CouplingK, route: str, exc: ConvergenceError, m2) -> ChiResult:
    """The flagged row of a route that raised, keeping the work it did,
    built by _finish as every row is: a physical k gives float fields.

    A route that summed n terms before it raised reports terms_used = n
    and est_error = 2 |M^2| gap, gap being the route's whole estimate, as
    an unflagged row; one that raised before any term reports 0 and inf.
    """
    best = exc.best if exc.best is not None else math.nan
    value = _assemble(m2, best) if best == best else complex(math.nan)
    n = exc.terms or 0
    est_error = 2.0 * abs(m2) * exc.gap if n else math.inf
    return _finish(k, value, route, n, est_error, str(exc))


def _chi_toeplitz(k: CouplingK, tol: float, m2) -> ChiResult:
    """1 - M^2 + 2 sum_N (D(N) - M^2) over D(1..n) from one run of the
    toeplitz kernel.

    n = _terms_needed(|k|, tol), the count the fredholm sum uses, and
    est_error is the proven tail past n, 2 |M^2| _tail_bound(|k|, n), plus
    a rounding allowance.  An n past _TOEPLITZ_N_CAP is cut to the cap,
    and the partial sum comes back flagged with the proven tail past the
    cap in est_error.

    The allowance is an estimate, not a bound.  The Levinson D(N) carry an
    absolute rounding error that grows like N eps with a mostly constant
    sign; each is allowed 8 N eps (_LEVINSON_ROUNDING N, the allowance
    the kernel's own M^2 <= D(N) <= 1 check adds), so the sum
    2 sum_N (D(N) - M^2) is allowed 8 eps n(n+1).  Against a deep fredholm
    sum, at k from 0.3 to 0.997 and on complex k of modulus 0.9 to 0.995,
    tol 1e-8 to 1e-12, the real error reached at most 4.1 eps n(n+1) (at
    k = 0.995 exp(0.05i)).
    """
    a = abs(k.k)
    n = _terms_needed(a, tol)
    used = min(n, _TOEPLITZ_N_CAP)
    dets, _ = _correlations(k, used)
    total = 1.0 - m2 + 2.0 * (dets - m2).sum()
    tail = 2.0 * abs(m2) * _tail_bound(a, used)
    rounding = _LEVINSON_ROUNDING * used * (used + 1)
    reason = (f"toeplitz_direct needs {n} terms at k={k.value}, past the cap "
              f"{_TOEPLITZ_N_CAP}" if n > used else "")
    return _finish(k, total, "toeplitz_direct", used, tail + rounding, reason)


def _finish(k: CouplingK, value, route, terms, est_error, reason="") -> ChiResult:
    value = complex(value)
    if k.mode == "physical":
        if abs(value.imag) > 1e-10 * max(1.0, abs(value)):
            raise RuntimeError(f"physical chi_d came out complex: {value!r}")
        value = value.real
    return ChiResult(
        k=k.value,
        beta_inv_chi_d=value,
        route=route,
        terms_used=terms,
        est_error=float(est_error),
        flagged=bool(reason),
        reason=reason,
    )


def sweep(grid, route: str, tol: float = 1e-8):
    """One ChiResult per grid point, evaluated in parallel, order preserved.

    A point that raises a domain or convergence error becomes a flagged
    NaN row whose reason is the error's text; the sweep itself never
    aborts on one bad point.
    """
    grid = list(grid)

    def one(kv):
        try:
            k = kv if isinstance(kv, CouplingK) else CouplingK.physical(kv)
            return chi_d(k, tol, route)
        except (DomainError, ConvergenceError, RuntimeError) as exc:
            kk = kv.k if isinstance(kv, CouplingK) else complex(kv)
            return ChiResult(
                k=kk, beta_inv_chi_d=complex(math.nan), route=route,
                terms_used=0, est_error=math.inf, flagged=True, reason=str(exc),
            )

    return parallel_map(one, grid)
