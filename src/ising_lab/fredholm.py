"""Truncated Hankel operators, det(I - K_N), and the correlation sum S.

K_N = H_N(Lambda) H_N(Lambda^-1) with H_N(psi) the Hankel matrix built
from coefficients at degrees N + i + j + 1.  The identity
D(N) = M^2 det(I - K_N) ties this module to the Toeplitz route and is the
central cross-check of the library.

Since H_(N+1)(a) = S^T H_N(a) and H_(N+1)(b) = H_N(b) S, with S the
shift, I - K_(N+1) is I - K_N with its first row and column deleted.  So
every det(I - K_N') with N' >= N is a trailing principal minor of one
truncated I - K_N, and _det_at, the only determinant kernel here, returns
them all from the pivots of one unpivoted LU.  The sum S takes every term
from the factorizations at one cutoff C and at 2C; fredholm_det doubles
the cutoff for a single N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DomainError
from .params import CouplingK, SeriesCoeffs, _cache_length, _lambda_pair

_CUTOFF_CAP = 4096
_DET_TOL_FLOOR = 1e-15
_BLOCK = 64


@dataclass(frozen=True)
class HankelTruncation:
    """cutoff x cutoff window of a Hankel operator with shift N.

    entries[i, j] is the series coefficient at degree N + i + j + 1;
    tail_bound dominates the summed magnitude of every omitted coefficient
    (degrees above N + 2*cutoff - 1).
    """

    N: int
    cutoff: int
    entries: np.ndarray
    tail_bound: float

    def __post_init__(self):
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class FredholmResult:
    N: int
    det_value: complex
    cutoff_used: int
    est_error: float


def hankel_matrix(coeffs: SeriesCoeffs, N: int, cutoff: int) -> HankelTruncation:
    """Build the truncated Hankel matrix (coeff at degree N+i+j+1).

    Raises a hard error naming the required degree when the series is too
    short to fill the window.
    """
    band = _band(coeffs, N, cutoff)
    tail = _geometric_tail_from(coeffs, N + 2 * cutoff - 1)
    return HankelTruncation(N=N, cutoff=cutoff, entries=_hankel(band), tail_bound=tail)


def _band(coeffs: SeriesCoeffs, N: int, cutoff: int) -> np.ndarray:
    """Coefficients at degrees N + 1 .. N + 2*cutoff - 1, which fill the
    cutoff x cutoff Hankel window with shift N."""
    if N < 1 or cutoff < 1:
        raise DomainError("N and cutoff must be >= 1")
    need = N + 2 * cutoff - 1
    if coeffs.max_degree < need:
        raise ValueError(
            f"series too short: need coefficients up to degree {need}, "
            f"series ends at degree {coeffs.max_degree}"
        )
    return coeffs.window(N + 1, need)


def _hankel(band: np.ndarray) -> np.ndarray:
    """Square Hankel matrix whose entry (i, j) is band[i + j]."""
    cutoff = (len(band) + 1) // 2
    return scipy.linalg.hankel(band[:cutoff], band[cutoff - 1 :])


def _geometric_tail_from(coeffs: SeriesCoeffs, beyond: int) -> float:
    """Sum bound for |coeff(m)|, m > beyond, from the observed decay ratio."""
    last = abs(coeffs.coeff(beyond))
    if last == 0.0:
        return 0.0
    prev = abs(coeffs.coeff(beyond - 1))
    if prev == 0.0:
        return last
    ratio = min(0.999, last / prev)
    return last * ratio / (1.0 - ratio)


def _start_cutoff(a: float, N: int, tol: float) -> int:
    """First cutoff tried for det(I - K_N) to tol at |k| = a.

    Entries decay like |k|^(N+i+j+1), so this is where the dropped corner
    falls below tol; at k = 0 every entry vanishes.
    """
    if a == 0.0:
        return 4
    la = math.log(a)
    return max(4, math.ceil((math.log(tol * (1.0 - a)) - N * la) / (2.0 * la)))


def _lu_pivots(w: np.ndarray) -> np.ndarray:
    """Pivots of the unpivoted LU of the square matrix w, overwriting w.

    The product of the first p pivots is the leading principal minor of
    size p.  Blocked so that most of the work is BLAS-3: a column loop
    factors each _BLOCK-wide diagonal block, two triangular solves give
    the block row of U and the block column of L, and one matrix product
    updates the trailing matrix.  There is no pivoting to fall back on: a
    zero or non-finite pivot raises ConvergenceError.  For physical k every
    trailing minor of I - K_N lies in [1, M^-2], so no pivot can vanish.
    """
    n = len(w)
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        d = w[k0:k1, k0:k1]
        for j in range(k1 - k0):
            p = d[j, j]
            if p == 0 or not np.isfinite(p):
                raise ConvergenceError(
                    f"pivot {p} at step {k0 + j} of the unpivoted LU of I - K_N"
                )
            d[j + 1 :, j] /= p
            d[j + 1 :, j + 1 :] -= np.outer(d[j + 1 :, j], d[j, j + 1 :])
        if k1 < n:
            w[k0:k1, k1:] = scipy.linalg.solve_triangular(
                d, w[k0:k1, k1:], lower=True, unit_diagonal=True, check_finite=False
            )
            w[k1:, k0:k1] = scipy.linalg.solve_triangular(
                d, w[k1:, k0:k1].T, trans="T", check_finite=False
            ).T
            w[k1:, k1:] -= w[k1:, k0:k1] @ w[k0:k1, k1:]
    return np.diagonal(w).copy()


def _det_at(kval: complex, N: int, cutoff: int) -> np.ndarray:
    """det(I - K_N') for N' = N .. N + cutoff - 1 from one truncation.

    Builds I - K_N at the given cutoff.  Deleting its first j rows and
    columns leaves I - K_(N+j) with cutoff - j rows and columns and inner
    dimension cutoff, so entry j of the result is that trailing principal
    minor: a running product of the pivots of one unpivoted LU of the
    matrix with rows and columns reversed.  Entry 0 is det(I - K_N) at
    this cutoff; later entries are truncated more coarsely, by j rows and
    columns.  For real k every coefficient is real, so both Hankel
    matrices are built, multiplied and factored in float64.
    """
    lam, lam_inv = _lambda_pair(kval, _cache_length(N + 2 * cutoff + 2))
    a, b = _band(lam, N, cutoff), _band(lam_inv, N, cutoff)
    if kval.imag == 0:
        a, b = a.real, b.real
    w = _hankel(a) @ _hankel(b)
    w *= -1.0
    w.flat[:: cutoff + 1] += 1.0
    # reversed, I - K_N has the trailing minors as its leading minors
    return np.cumprod(_lu_pivots(w[::-1, ::-1]))[::-1]


def fredholm_det(k: CouplingK, N: int, tol: float) -> FredholmResult:
    """det(I - K_N), truncation cutoff chosen adaptively.

    The cutoff doubles until a doubling moves the value by less than tol;
    that final move is recorded as est_error.  Entries decay like
    |k|^(N+i+j+1), which fixes the starting cutoff.  Each value is the
    leading entry of _det_at, the one determinant kernel of this module.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if not tol > 0:
        raise DomainError("tol must be positive")
    cutoff = _start_cutoff(abs(k.k), N, tol)
    kval = complex(k.k)
    value = None
    while 2 * cutoff <= _CUTOFF_CAP:
        if value is None:
            value = complex(_det_at(kval, N, cutoff)[0])
        refined = complex(_det_at(kval, N, 2 * cutoff)[0])
        gap = abs(refined - value)
        cutoff *= 2
        value = refined
        if gap < tol:
            return FredholmResult(
                N=N, det_value=value, cutoff_used=cutoff, est_error=gap
            )
    raise ConvergenceError(
        f"cutoff cap {_CUTOFF_CAP} reached at N={N} without meeting "
        f"tol={tol:.3g}",
        best=value,
        gap=tol,
    )


def _s_fredholm_terms(k: CouplingK, tol: float):
    """Sum det(I - K_N) - 1 over N, every term from one factorization.

    Returns (S, terms_used, est_error).  The terms N = 1..C are the
    trailing minors of one truncated I - K_1: values from _det_at(k, 1, 2C),
    per-N doubling moves gap_N against _det_at(k, 1, C).  C starts where
    fredholm_det would for the first term at its share tol (1 - q)/2 of
    the budget, q = min(0.98, |k|^2), and doubles until the stopping N
    lies within C and sum_N |gap_N| <= tol.  The sum stops at the first N
    with |term| < tol/2 whose geometric tail estimate, from the last term
    ratio, is also < tol/2.  est_error is sum_N |gap_N| plus that tail, so
    the accumulated error stays below 2*tol as promised by s_via_fredholm.
    Terms growing for 3 consecutive N raise ConvergenceError (divergence
    suspected), as does a cutoff past _CUTOFF_CAP.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    a = abs(k.k)
    q = min(0.98, a * a)
    cutoff = _start_cutoff(a, 1, max(tol * (1.0 - q) / 2.0, _DET_TOL_FLOOR))
    kval = complex(k.k)
    coarse = best = None
    while 2 * cutoff <= _CUTOFF_CAP:
        if coarse is None:
            coarse = _det_at(kval, 1, cutoff)
        fine = _det_at(kval, 1, 2 * cutoff)
        best, N, tail = _stopping_term(fine[:cutoff].tolist(), q, tol, k)
        if N is not None:
            moved = float(np.sum(np.abs(fine[:N] - coarse[:N])))
            if moved <= tol:
                return best, N, moved + tail
        cutoff *= 2
        coarse = fine
    raise ConvergenceError(
        f"cutoff cap {_CUTOFF_CAP} reached in the correlation sum at k={k.k} "
        f"without meeting tol={tol:.3g}",
        best=best,
        gap=tol,
    )


def _stopping_term(dets, q: float, tol: float, k: CouplingK):
    """(S, N, tail) at the first N meeting the stopping rule.

    When no term meets it, N and tail are None and S sums every term.
    """
    s = 0.0 + 0.0j
    prev = None
    rising = 0
    for N, det in enumerate(dets, start=1):
        t = det - 1.0
        s += t
        mag = abs(t)
        if prev is not None and mag > prev:
            rising += 1
            if rising >= 3:
                raise ConvergenceError(
                    f"terms det(I-K_N)-1 grew for 3 consecutive N at k={k.k}: "
                    "divergence suspected",
                    best=s,
                    gap=mag,
                )
        else:
            rising = 0
        q_emp = q if prev in (None, 0.0) else min(0.98, mag / prev)
        tail = mag * q_emp / (1.0 - q_emp)
        if mag < tol / 2.0 and tail < tol / 2.0:
            return s, N, tail
        prev = mag
    return s, None, None


def s_via_fredholm(k: CouplingK, tol: float) -> complex:
    """S = sum_{N>=1} (det(I - K_N) - 1), accumulated error <= 2*tol."""
    s, _, _ = _s_fredholm_terms(k, tol)
    return s
