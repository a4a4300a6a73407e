"""Diagonal spin-spin correlation as an N x N Toeplitz determinant.

D(n) = det(phi_{i-j})_{1 <= i,j <= n} is the leading principal minor of
size n of one N x N Toeplitz matrix, for every n <= N.  So one run of the
non-symmetric Levinson recursion (Trench, J. SIAM 12 (1964) 515) on one
phi series gives D(1..N) in O(N^2), as running products of its pivots
eps_n = D(n)/D(n-1).  _levinson is the only determinant code here.  It
reads the phi series as _phi_series returns it: phi_0 .. phi_(N-1) down the
first column and phi_0, phi_-1 .. phi_-(N-1) along the first row.

Every call at one k shares that run: there is one _Run per series that
_phi_series caches, (k, _cache_length(N)), held in an lru_cache of the
same size and advanced only as far as a call needs.  A prefix of a
longer run on the same series is bit-identical to a fresh run, so the
values do not depend on the order or the threads of the calls.
_s_toeplitz_terms, the toeplitz_direct route, meets every chi_d route's
contract: it returns (S, terms, est_error) or raises ConvergenceError.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
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


@dataclass
class _Run:
    """A Levinson run with n pivots done: eps[:n] holds eps_1 .. eps_n, and
    a and r are the forward and reversed backward vectors at size n.  Both
    are dropped (None) once n reaches len(eps), where the run must stop.
    lock serializes the callers that advance one shared run.
    """

    eps: np.ndarray
    a: np.ndarray | None
    r: np.ndarray | None
    n: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def fresh(cls, size: int, dtype) -> "_Run":
        a = np.zeros(size, dtype=dtype)
        r = np.zeros(size, dtype=dtype)
        a[0] = r[0] = 1.0
        return cls(eps=np.empty(size, dtype=dtype), a=a, r=r)


def _levinson(col: np.ndarray, row: np.ndarray, run: _Run | None = None) -> np.ndarray:
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
    non-finite pivot raises ConvergenceError, and leaves run as it was
    before that step.

    run, started on a longer col and row of which these are a prefix,
    resumes at its n and stops at len(col); without it a fresh run of size
    len(col) is made.  Returns the first len(col) pivots of the run, read
    only.
    """
    if run is None:
        run = _Run.fresh(len(col), col.dtype)
    eps, a, r = run.eps, run.a, run.r
    prev = eps[run.n - 1] if run.n else None
    for n in range(run.n, len(col)):
        if n == 0:
            e = col[0]
        else:
            alpha = col[n:0:-1] @ a[:n]
            beta = row[n:0:-1] @ r[:n]
            e = prev - alpha * beta / prev
        if e == 0 or not np.isfinite(e):
            raise ConvergenceError(
                f"pivot {e} at step {n + 1} of the Levinson recursion for D(N)"
            )
        if n:
            old = a[: n + 1].copy()
            a[: n + 1] -= (alpha / prev) * r[n::-1]
            r[: n + 1] -= (beta / prev) * old[::-1]
        eps[n] = prev = e
        run.n = n + 1
    if run.n == len(eps):
        run.a = run.r = None
    out = eps[: len(col)]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=_phi_series.cache_parameters()["maxsize"])
def _shared_run(kval: complex, length: int) -> _Run:
    """The one run on _phi_series(kval, length); a finished run keeps only
    its pivots, half the bytes of its series."""
    return _Run.fresh(length, float if kval.imag == 0 else complex)


def _correlations(k: CouplingK, N: int):
    """(D(1..N), eps_1..eps_N) from the shared Levinson run on the phi
    series of length _cache_length(N), advanced to N if it is not there.

    For physical k the phi coefficients are float64, which makes every
    D(n) real; every D(n) must then satisfy M^2 <= D(n) <= 1 to 1e-12
    plus the rounding allowance _LEVINSON_ROUNDING n.  A failed check
    raises RuntimeError naming the first bad n.
    """
    kval, length = complex(k.k), _cache_length(N)
    col, row = _phi_series(kval, length)
    run = _shared_run(kval, length)
    with run.lock:
        eps = _levinson(col[:N], row[:N], run)
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


def _s_toeplitz_terms(k: CouplingK, tol: float):
    """(S, n, est_error) with S = S_1^H + sum_(N <= n) ((D(N) - M^2) / M^2
    + tr K_N) over the shared run's D(1..n).  S_1^H, the traces and n come
    from the one-particle table (params._one_particle), as in the fredholm
    sum, so the proven tail past n is at most tol/2.

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
    terms = (_correlations(k, used)[0] - m2) / m2 + one.trace[1 : used + 1]
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
        run that every call at this k and series length shares.  In
        physical mode the value is real with M^2 <= value <= 1.
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

