"""Diagonal spin-spin correlation as an N x N Toeplitz determinant.

D(n) = det(phi_{i-j})_{1 <= i,j <= n} is the leading principal minor of
size n of one N x N Toeplitz matrix, for every n <= N.  So one run of the
non-symmetric Levinson recursion (Trench, J. SIAM 12 (1964) 515) on one
phi series gives D(1..N) in O(N^2), as running products of its pivots
eps_n = D(n)/D(n-1).  _levinson is the only determinant code here.  It
reads the phi series as _phi_series returns it: phi_0 .. phi_(N-1) down the
first column and phi_0, phi_-1 .. phi_-(N-1) along the first row.

_pivots(k, n) caches one run per (k, n) on the series of length
_cache_length(n): D(1..n), the pivots' conditioning and the first n at
which D(n) fails the bound check, two arrays of length n and one int.
_correlations, the one reader of a run, returns checked slices of it, so
the cumulative product, the conditioning and the check cost once per
run, not once per call.  On one series a shorter run's pivots are a prefix of
a longer run's, bit for bit, so no value depends on the order or the
threads of the calls.  diagonal_correlation reads the run of size
_cache_length(N): calls at N = 1 .. 2^j run j + 1 times.
_s_toeplitz_terms, the toeplitz_direct route, meets every chi_d route's
contract: it returns (S, terms, est_error) or raises ConvergenceError.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import CouplingK, magnetization, _cache_length, _one_particle, _phi_series

_COND_FLAG = 1e12
# absolute rounding allowance of one Levinson D(N), per N: the D(N) carry
# an error that grows like N eps with a mostly constant sign
_LEVINSON_ROUNDING = 8.0 * 2.0**-52
_TOEPLITZ_N_CAP = 4096


@dataclass(frozen=True)
class CorrelationResult:
    """Value of <sigma_00 sigma_NN> with a conditioning diagnostic.

    cond_estimate is the spread max|eps_n| / min|eps_n| of the Levinson
    pivots eps_n = D(n)/D(n-1), n = 1..N; past 1e12 the determinant digits
    are suspect and the result is flagged but still returned.
    """

    N: int
    value: complex
    cond_estimate: float

    @property
    def flagged(self) -> bool:
        return self.cond_estimate > _COND_FLAG


def _levinson(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Pivots eps_n = D(n)/D(n-1), n = 1..len(col), of a Toeplitz matrix.

    The matrix is T[i, j] = t_(i-j) with first column col = t_0 .. t_(N-1)
    and first row row = t_0, t_-1, .. t_-(N-1); D(n) is its leading
    principal minor of size n.  At size n, a (a[0] = 1) solves
    T_n a = eps_n e_0 and b (b[n-1] = 1) solves T_n b = eps_n e_(n-1): by
    Cramer's rule both right-hand sides carry D(n)/D(n-1).  Padding a with
    a trailing zero and b with a leading zero leaves one stray entry each
    in T_(n+1), alpha and beta, and one combination of the two cancels
    them: eps_(n+1) = eps_n - alpha beta / eps_n.  b is kept reversed as r
    so that both vectors grow at the end.  There is no pivoting: a zero or
    non-finite pivot raises ConvergenceError.  Step n reads t_-n .. t_n
    only, so the pivots of a prefix of col and row are a prefix of the
    pivots, bit for bit.  Returns the pivots read only.
    """
    N = len(col)
    eps = np.empty(N, dtype=col.dtype)
    a = np.zeros(N, dtype=col.dtype)
    r = np.zeros(N, dtype=col.dtype)
    a[0] = r[0] = 1.0
    for n in range(N):
        if n == 0:
            e = col[0]
        else:
            alpha = col[n:0:-1] @ a[:n]
            beta = row[n:0:-1] @ r[:n]
            e = prev - alpha * beta / prev
        if e == 0 or not cmath.isfinite(e):
            raise ConvergenceError(
                f"pivot {e} at step {n + 1} of the Levinson recursion for D(N)"
            )
        if n:
            old = a[: n + 1].copy()
            a[: n + 1] -= (alpha / prev) * r[n::-1]
            r[: n + 1] -= (beta / prev) * old[::-1]
        eps[n] = prev = e
    eps.flags.writeable = False
    return eps


@lru_cache(maxsize=_phi_series.cache_parameters()["maxsize"])
def _pivots(kval: complex, n: int) -> tuple:
    """One run, read only: (dets, cond, bad) of _levinson on the first n
    coefficients of the phi series _phi_series(kval, _cache_length(n)).

    dets holds D(1..n) = cumprod(eps), cond the running max|eps| /
    min|eps| of the pivots, and bad the first n at which D(n) leaves
    M^2 - slack <= D(n) <= 1 + slack, slack = 1e-12 + _LEVINSON_ROUNDING n,
    or 0 if none.  bad is computed for real k >= 0 only (the physical
    range, where every D(n) is real) and is 0 otherwise.  Entry N - 1 of
    each array depends on eps_1 .. eps_N only, so every prefix of the run
    is the run of that prefix.
    """
    col, row = _phi_series(kval, _cache_length(n))
    eps = _levinson(col[:n], row[:n])
    dets = np.cumprod(eps)
    mags = np.abs(eps)
    cond = np.maximum.accumulate(mags) / np.minimum.accumulate(mags)
    bad = 0
    if kval.imag == 0 and kval.real >= 0:
        m2 = magnetization(CouplingK.physical(kval.real)) ** 2
        slack = 1e-12 + _LEVINSON_ROUNDING * np.arange(1, n + 1)
        out = (dets < m2 - slack) | (dets > 1.0 + slack)
        first = int(out.argmax())
        bad = first + 1 if out[first] else 0
    dets.flags.writeable = cond.flags.writeable = False
    return dets, cond, bad


def _correlations(k: CouplingK, N: int, size: int | None = None):
    """(D(1..N), cond_1..cond_N), read only: the first N entries of the
    run _pivots(k, size), size = _cache_length(N) unless given.

    For physical k the phi coefficients are float64, which makes every
    D(n) real; every D(n), n <= N, must then satisfy M^2 <= D(n) <= 1 to
    1e-12 plus the rounding allowance _LEVINSON_ROUNDING n.  A failed
    check raises ConvergenceError naming the first bad n.
    """
    dets, cond, bad = _pivots(complex(k.k), size or _cache_length(N))
    if k.mode == "physical" and 0 < bad <= N:
        raise ConvergenceError(
            f"correlation {float(dets[bad - 1])!r} violates M^2 <= D(N) <= 1 at N={bad}"
        )
    return dets[:N], cond[:N]


def _s_toeplitz_terms(k: CouplingK, tol: float):
    """(S, n, est_error) with S = S_1^H + sum_(N <= n) ((D(N) - M^2) / M^2
    + tr K_N) over D(1..n), from a run of exactly n pivots.  S_1^H, the
    traces and n come from the one-particle table (params._one_particle),
    as in the fredholm sum, so the proven tail past n is at most tol/2.

    est_error is that tail plus an estimated rounding allowance: each D(N)
    is allowed _LEVINSON_ROUNDING N, so 2 sum_N (D(N) - M^2) is allowed
    8 eps n(n+1), over 2 |M^2| here.  Against a deep fredholm sum (k 0.3
    to 0.997, complex k of modulus 0.9 to 0.995, tol 1e-8 to 1e-12) the
    real error reached 4.1 eps n(n+1).  Below the cap est_error is
    returned as it is, even above tol.  An n past _TOEPLITZ_N_CAP raises
    ConvergenceError with the first cap terms' S and est_error.
    """
    one = _one_particle(complex(k.k))
    n = one.stop(tol)
    used = min(n, _TOEPLITZ_N_CAP)
    m2 = magnetization(k) ** 2
    terms = (_correlations(k, used, used)[0] - m2) / m2 + one.trace[1 : used + 1]
    s = complex(one.s1 + terms.sum())
    est_error = float(one.tails[used]) + _LEVINSON_ROUNDING * used * (used + 1) / (2 * abs(m2))
    if n > used:
        raise ConvergenceError(f"toeplitz_direct needs {n} terms at k={k.value}, past the cap "
                               f"{_TOEPLITZ_N_CAP}", best=s, gap=est_error, terms=used)
    return s, n, est_error


def diagonal_correlation(k: CouplingK, N: int) -> CorrelationResult:
    """Compute D(N) = det(phi_{m-n})_{1 <= m,n <= N}.

    Parameters
    ----------
    k : CouplingK
    N : int
        Diagonal separation, >= 0.  N = 0 returns 1 exactly.

    Returns
    -------
    CorrelationResult
        The last entry of the Levinson sequence D(1..N), read from the
        cached run of size _cache_length(N): a call just past a power of
        two that no earlier call ran takes up to 2N - 1 steps.  In
        physical mode the value is real with M^2 <= value <= 1.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    if N == 0:
        return CorrelationResult(N=0, value=1.0, cond_estimate=1.0)
    dets, cond = _correlations(k, N)
    value = float(dets[-1]) if k.mode == "physical" else complex(dets[-1])
    return CorrelationResult(N=N, value=value, cond_estimate=float(cond[-1]))

