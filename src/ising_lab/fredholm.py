"""Truncated Hankel operators, det(I - K_N), and the correlation sum S.

K_N = H_N(Lambda) H_N(Lambda^-1) with H_N(psi) the Hankel matrix built
from coefficients at degrees N + i + j + 1.  The identity
D(N) = M^2 det(I - K_N) ties this module to the Toeplitz route and is the
central cross-check of the library.

Both Hankel operators have geometrically decaying singular values (for
real k they are one-signed moment matrices; Beckermann and Townsend,
SIAM J. Matrix Anal. Appl. 38 (2017) 1227), so _det_at, the only
determinant kernel here, factors their L x L sections as s_a U U^T and
s_b V V^T with r << L columns.  H_(N+j)(a) is H_N(a) without its first j
rows and H_(N+j)(b) is H_N(b) without its first j columns, so Sylvester's
identity det(I - XY) = det(I - YX) makes every det(I - K_(N+j)) the r x r
determinant det(I - s_a s_b (U^T V) W_j), W_j = sum_(i >= j) v_i u_i^T,
with v_i, u_i the rows of V and U.  The W_j are one reversed cumulative
sum.  The sum S is the one-particle part S_1^H of params._one_particle
plus det(I - K_N) - 1 + tr K_N, the orders >= 2, for every N up to the
table's stop, all from one such call.

_det_at reads Lambda and Lambda^-1 as _lambda_pair returns them, at degrees
0 .. length-1 (both are even in the degree), and slices the degrees
N + 1 .. N + 2L - 1 of its sections out as views.  It returns a
_DetSequence, whose arrays values and move run over N' = N, N + 1, ...

fredholm_det reads det(I - K_N) from one such sequence per block of
_BLOCK separations, N0 .. N0 + _BLOCK - 1 with N0 = 1 mod _BLOCK, cached
per (k, N0).  The block depends on N alone, so a value does not depend on
the order or the threads of the calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import CouplingK, _hankel_length, _lambda_pair, _one_particle

_MAX_SIZE = 1 << 17     # largest section L
_STOP = 1e-15           # the factorization stops at this residual, relative to its start
_COARSE = 1e-12         # the coarser stop that est_error compares against
_NOISE = 10.0           # complex k: the factorization also stops at this many
                        # times the rounding noise of the Hankel coefficients
_CHUNK = 256            # shifts per block of the reversed cumulative sum
_BLOCK = 32             # separations per cached fredholm_det block


@dataclass(frozen=True)
class FredholmResult:
    N: int
    det_value: complex
    cutoff_used: int
    est_error: float


def _section_size(a: float, N: int, count: int):
    """(L, length): the L x L sections of H_N at |k| = a and the series
    length they read, from _hankel_length: L = (length - N) // 2 is at
    least count, and every entry left out is below params._ENTRY_TARGET.
    An L past _MAX_SIZE raises ConvergenceError.
    """
    length = _hankel_length(a, N, count)
    L = (length - N) // 2
    if L > _MAX_SIZE:
        raise ConvergenceError(
            f"det(I - K_N) at |k| = {a!r} needs Hankel sections of size {L}, "
            f"past the cap {_MAX_SIZE}"
        )
    return L, length


def _cross(h: np.ndarray, L: int):
    """Symmetric pivoted cross approximation A ~ s U U^T of the Hankel
    matrix A[i, j] = h[i + j], i, j < L.

    Reads the diagonal h[2i] and one column h[p : p + L] per pivot p.  For
    real h, s = +-1 makes s A positive semidefinite and this is pivoted
    Cholesky: it stops at a non-positive pivot or when the residual trace
    falls to _STOP of its start; rounding shows as a non-positive pivot.
    For complex h, s = 1, pivots are complex with no conjugation, and it
    stops when the largest modulus on the residual diagonal falls to _STOP
    of its start (a sum of L moduli would stall at L rounding errors) or to
    _NOISE times the largest |h[m]|, m >= L.  Those coefficients are below
    _ENTRY_TARGET by the choice of L, so their size is the rounding noise
    of the series; without this floor a complex factorization whose start
    is small runs on to rank L on noise.  Returns (s, U, coarse, ratio):
    the first `coarse` columns of U are where the residual first fell to
    _COARSE of its start, and ratio, in [0, 1], is the residual at the stop
    over the residual there.
    """
    real = h.dtype.kind == "f"
    d = h[: 2 * L - 1 : 2].copy()
    s = -1.0 if real and d.sum() < 0 else 1.0
    d *= s
    sh = s * h

    def residual():
        # (residual, index of the next pivot) as Python numbers, read
        # without numpy's fromnumeric wrappers
        if real:
            return float(np.add.reduce(d)), int(d.argmax())
        m = np.abs(d)
        return float(np.maximum.reduce(m)), int(m.argmax())

    start = residual()[0]
    floor = max(_STOP * start, 0.0 if real else _NOISE * np.abs(h[L:]).max(initial=0.0))
    # row j of Ut is column j of U, rows past r are never read; Ut grows
    # and shrinks in place by ndarray.resize, so no second copy of the
    # factor is held, and ranks up to 64 never copy it
    Ut = np.empty((min(L, 64), L), dtype=h.dtype)
    sq = np.empty(L, dtype=h.dtype)
    r = 0
    coarse = None
    while r < L:
        res, p = residual()
        if coarse is None and res <= _COARSE * start:
            coarse, at_coarse = r, res
        if res <= floor:
            break
        piv = d.item(p)
        if (real and piv <= 0.0) or piv == 0:
            break
        if r == len(Ut):
            Ut.resize((min(L, 2 * r), L), refcheck=False)
        u = Ut[r]
        np.subtract(sh[p : p + L], Ut[:r, p] @ Ut[:r], out=u)
        u /= math.sqrt(piv) if real else np.sqrt(piv)
        np.multiply(u, u, out=sq)
        d -= sq
        r += 1
    Ut.resize((r, L), refcheck=False)
    if coarse is None:
        return s, Ut.T, r, 1.0
    ratio = residual()[0] / at_coarse if at_coarse > 0.0 else 1.0
    return s, Ut.T, coarse, min(1.0, max(0.0, ratio))


def _shift_dets(g: np.ndarray, U: np.ndarray, V: np.ndarray, count: int,
                ca: int, cb: int):
    """det(I - g W_j) for j = 0 .. count-1, W_j = sum_(i >= j) v_i u_i^T,
    and the same determinants from the first ca columns of U and cb of V.

    W_count is one matrix product; the others are a reversed cumulative
    sum, taken _CHUNK shifts at a time so no L x r x r stack is formed.
    The prefix determinants read the leading cb x ca block of the same W_j.
    """
    if g.size == 0:
        return np.ones(count, dtype=g.dtype), np.ones(count, dtype=g.dtype)
    W = V[count:].T @ U[count:]
    eye, eye_c = np.eye(len(g), dtype=g.dtype), np.eye(ca, dtype=g.dtype)
    fine = np.empty(count, dtype=g.dtype)
    coarse = np.ones(count, dtype=g.dtype)   # the determinant of an empty block
    for hi in range(count, 0, -_CHUNK):
        lo = max(0, hi - _CHUNK)
        steps = V[lo:hi, :, None] * U[lo:hi, None, :]
        Ws = np.cumsum(steps[::-1], axis=0)[::-1] + W   # Ws[i - lo] = W_i
        fine[lo:hi] = np.linalg.det(eye - g @ Ws)
        if ca and cb:
            coarse[lo:hi] = np.linalg.det(eye_c - g[:ca, :cb] @ Ws[:, :cb, :ca])
        W = Ws[0]
    return fine, coarse


@dataclass(frozen=True)
class _DetSequence:
    """det(I - K_N') for N' = N .. N + count - 1 from one factorization.

    values[j] is the value at N' = N + j.  move[j], the estimate behind
    est_error, has two parts.  The first is the move of
    values[j] when both factors stop at _COARSE instead of _STOP, scaled
    by the larger ratio of their residuals at the two stops: to first
    order the error of a determinant is linear in the residual that the
    factorization leaves.  For real k the tracked residual trace usually
    ends at or below zero, at the rounding floor; the ratio is then 0 and
    the first part vanishes.  The second is (r_a + r_b) eps |values[j]|, a
    relative eps for each of the r_a + r_b rank-one updates, for rounding.
    size is the section size L.  values and move are read only.
    """

    values: np.ndarray
    move: np.ndarray
    size: int


def _det_at(kval: complex, N: int, cutoff: int) -> _DetSequence:
    """det(I - K_N') for N' = N .. N + cutoff - 1 from one factorization.

    Factors the L x L sections of H_N(Lambda) and H_N(Lambda^-1) by _cross,
    L from _section_size, and reads every det(I - K_N') from the rank-r
    form of the module docstring.  The coarser stop is a prefix of the same
    factors, and its determinants come from the same cumulative sums, so
    move costs no second factorization.  For real k every coefficient is
    real and the work runs in float64.  A non-finite coefficient raises
    ConvergenceError.
    """
    L, length = _section_size(abs(kval), N, cutoff)
    # degrees N + 1 .. N + 2L - 1 fill the L x L sections; length >= N + 2L
    a, b = (c[N + 1 : N + 2 * L] for c in _lambda_pair(kval, length))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConvergenceError(f"non-finite Hankel coefficient at k={kval}")
    sa, U, ca, ratio_a = _cross(a, L)
    sb, V, cb, ratio_b = _cross(b, L)
    g = sa * sb * (U.T @ V)
    ratio = max(ratio_a, ratio_b)
    if ratio == 0.0:
        ca = cb = 0   # the scaled move vanishes: skip the prefix determinants
    fine, coarse = _shift_dets(g, U, V, cutoff, ca, cb)
    rounding = (U.shape[1] + V.shape[1]) * np.finfo(float).eps
    move = ratio * np.abs(fine - coarse) + rounding * np.abs(fine)
    fine.flags.writeable = move.flags.writeable = False
    return _DetSequence(values=fine, move=move, size=L)


@lru_cache(maxsize=64)
def _det_block(kval: complex, N0: int) -> _DetSequence:
    """det(I - K_N) for N = N0 .. N0 + _BLOCK - 1, shared by fredholm_det."""
    return _det_at(kval, N0, _BLOCK)


def fredholm_det(k: CouplingK, N: int, tol: float) -> FredholmResult:
    """det(I - K_N): entry N - N0 of the cached _det_at block that starts
    at N0 = _BLOCK floor((N - 1) / _BLOCK) + 1.

    est_error is that entry's move, an estimate (see _DetSequence), and
    cutoff_used is the block's section size L.  An est_error above tol
    raises ConvergenceError carrying the value.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if not tol > 0:
        raise DomainError("tol must be positive")
    N0 = _BLOCK * ((N - 1) // _BLOCK) + 1
    seq = _det_block(complex(k.k), N0)
    value, move = complex(seq.values[N - N0]), float(seq.move[N - N0])
    if move > tol:
        raise ConvergenceError(
            f"det(I - K_N) at k={k.value}, N={N}: error estimate {move:.3g} "
            f"exceeds tol={tol:.3g}",
            best=value,
            gap=move,
        )
    return FredholmResult(N=N, det_value=value, cutoff_used=seq.size, est_error=move)


def _s_fredholm_terms(k: CouplingK, tol: float):
    """S = S_1^H + sum_(N <= n) (det(I - K_N) - 1 + tr K_N), every
    determinant from one factorization.

    S_1^H, the traces and n come from the one-particle table
    (params._one_particle): n is its stop, so the proven tail past n is at
    most tol/2.  Returns (S, n, est_error).  est_error is the summed move
    of the n determinants, an estimate, plus that tail.  A summed move
    above tol, a sum that is not finite or a section size past the cap
    raises ConvergenceError, the first carrying S and est_error, so
    est_error stays below 2*tol as promised by s_via_fredholm.  The cap is
    checked before the table is built.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    kval = complex(k.k)
    _section_size(abs(kval), 1, 1)
    one = _one_particle(kval)
    n = one.stop(tol)
    seq = _det_at(kval, 1, n)
    s = complex(one.s1 + np.sum(seq.values - 1.0 + one.trace[1 : n + 1]))
    moved = float(np.sum(seq.move))
    est_error = moved + float(one.tails[n])
    if not np.isfinite(s):
        raise ConvergenceError(
            f"the sum of the {n} terms of the correlation sum at k={k.value} is {s}",
            best=s,
            gap=math.inf,
            terms=n,
        )
    if not moved <= tol:
        raise ConvergenceError(
            f"the summed error estimate {moved:.3g} of the {n} terms of the "
            f"correlation sum at k={k.value} exceeds tol={tol:.3g}",
            best=s,
            gap=est_error,
            terms=n,
        )
    return s, n, est_error


def s_via_fredholm(k: CouplingK, tol: float) -> complex:
    """S = sum_{N>=1} (det(I - K_N) - 1), accumulated error <= 2*tol."""
    s, _, _ = _s_fredholm_terms(k, tol)
    return s
