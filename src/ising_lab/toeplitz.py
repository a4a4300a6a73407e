"""Diagonal spin-spin correlation as an N x N Toeplitz determinant.

D(n) = det(phi_{i-j})_{1 <= i,j <= n} is the leading principal minor of
size n of one N x N Toeplitz matrix, for every n <= N.  So one run of the
non-symmetric Levinson recursion (Trench, J. SIAM 12 (1964) 515) on one
phi series gives D(1..N) in O(N^2), as running products of its pivots
eps_n = D(n)/D(n-1).  _levinson is the only determinant code here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import CouplingK, magnetization, _cache_length, _phi_series

_COND_FLAG = 1e12
# absolute rounding allowance of one Levinson D(N), per N: the D(N) carry
# an error that grows like N eps with a mostly constant sign
_LEVINSON_ROUNDING = 8.0 * 2.0**-52


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
    non-finite pivot raises ConvergenceError.
    """
    size = len(col)
    eps = np.empty(size, dtype=col.dtype)
    a = np.zeros(size, dtype=col.dtype)
    r = np.zeros(size, dtype=col.dtype)
    a[0] = r[0] = 1.0
    e = col[0]
    for n in range(1, size + 1):
        if e == 0 or not np.isfinite(e):
            raise ConvergenceError(
                f"pivot {e} at step {n} of the Levinson recursion for D(N)"
            )
        eps[n - 1] = e
        if n == size:
            break
        alpha = col[n:0:-1] @ a[:n]
        beta = row[n:0:-1] @ r[:n]
        old = a[: n + 1].copy()
        a[: n + 1] -= (alpha / e) * r[n::-1]
        r[: n + 1] -= (beta / e) * old[::-1]
        e = e - alpha * beta / e
    return eps


def _correlations(k: CouplingK, N: int):
    """(D(1..N), eps_1..eps_N) from one Levinson run on one phi series.

    For physical k the phi coefficients must be real to 1e-12, which makes
    every D(n) real, and the recursion runs on their real parts; every
    D(n) must then satisfy M^2 <= D(n) <= 1 to 1e-12 plus the rounding
    allowance _LEVINSON_ROUNDING n.  A failed check raises RuntimeError
    naming the first bad n.
    """
    phi = _phi_series(complex(k.k), _cache_length(N))
    col = phi.window(0, N - 1)           # phi_0 .. phi_(N-1)
    row = phi.window(-(N - 1), 0)[::-1]  # phi_0, phi_-1, .., phi_-(N-1)
    if k.mode == "physical":
        imag = max(np.max(np.abs(col.imag)), np.max(np.abs(row.imag)))
        if imag > 1e-12:
            raise RuntimeError(f"real-k phi coefficients came out complex: |imag| {imag!r}")
        col, row = col.real, row.real
    eps = _levinson(col, row)
    dets = np.cumprod(eps)
    if k.mode == "physical":
        m2 = magnetization(k) ** 2
        slack = 1e-12 + _LEVINSON_ROUNDING * np.arange(1, N + 1)
        bad = np.flatnonzero((dets < m2 - slack) | (dets > 1.0 + slack))
        if bad.size:
            n = int(bad[0]) + 1
            raise RuntimeError(
                f"correlation {dets[n - 1]!r} violates M^2 <= D(N) <= 1 at N={n}"
            )
    return dets, eps


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
        The last entry of the Levinson sequence D(1..N).  In physical mode
        the value is real with M^2 <= value <= 1.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    if N == 0:
        return CorrelationResult(N=0, value=1.0, cond_estimate=1.0)
    dets, eps = _correlations(k, N)
    mags = np.abs(eps)
    cond = float(np.max(mags) / np.min(mags))
    value = float(dets[-1]) if k.mode == "physical" else complex(dets[-1])
    return CorrelationResult(N=N, value=value, cond_estimate=cond)

