"""Model parameters and the series engine for the symbol and its factors.

Everything downstream consumes the low-temperature modulus k (|k| < 1) and
the Fourier/Laurent coefficients computed here: the symbol
phi(xi) = sqrt((1 - k/xi)/(1 - k xi)) (_phi_series) and
Lambda = sqrt((1 - k xi)(1 - k/xi)) together with its reciprocal
(_lambda_pair), each from one M-point FFT of its values on the unit
circle.  Both square roots take the principal branch, which is 1 at k = 0.
The transforms read half the circle where a symmetry allows it: Lambda and
Lambda^-1 are even in theta at every k, so their coefficients are a cosine
transform of the M/2 + 1 values at theta in [0, pi]; at real k phi is
Hermitian, phi(e^(-i theta)) = conj phi(e^(i theta)), so one real-output
FFT of the same M/2 + 1 points gives both its column and its row.  Only
phi at complex k, which has neither symmetry, is transformed on the whole
circle.

The series are plain read-only arrays indexed by |degree|, float64 for
real k and complex otherwise.  _phi_series(k, length) returns
phi_0 .. phi_(length-1) and phi_0, phi_-1 .. phi_-(length-1): the first
column and row of the Toeplitz matrix.  _lambda_pair(k, length) returns
Lambda and Lambda^-1 at degrees 0 .. length-1 only, since
Lambda(1/xi) = Lambda(xi) makes degree -m equal to degree m.

_one_particle(k) is the one table both determinant routes read from the
Lambda coefficients: the one-particle part S_1^H of the correlation sum
in closed form, tr K_N for every stored N, and the proven tail of the
orders >= 2 that stops both routes.  The integral route reads none of it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, PhaseError

_ALIAS_TARGET = 1e-17
_MAX_CIRCLE = 1 << 21
_ENTRY_TARGET = 1e-17   # bound on every Hankel entry a section leaves out


@dataclass(frozen=True)
class CouplingK:
    """The modulus k = (sinh 2 beta J)^-2 and kappa = k^2.

    mode "physical" pins k to the real interval [0, 1); mode "analytic"
    allows any complex k in the open unit disc.
    """

    k: complex
    kappa: complex
    mode: str

    def __post_init__(self):
        if self.mode not in ("physical", "analytic"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if not cmath.isfinite(self.k):
            raise DomainError(f"k must be finite, got {self.k}")
        if abs(self.k) >= 1:
            raise DomainError(f"|k| must be < 1, got |k| = {abs(self.k):.6g}")
        if self.mode == "physical":
            if self.k.imag != 0 or self.k.real < 0:
                raise DomainError("physical mode requires real k in [0, 1)")
        if self.kappa != self.k * self.k:
            raise DomainError("kappa must equal k*k exactly as computed")

    @property
    def value(self):
        """k as result rows and messages give it: a float in physical mode."""
        return self.k.real if self.mode == "physical" else self.k

    @classmethod
    def physical(cls, k: float) -> "CouplingK":
        k = complex(float(k), 0.0)
        return cls(k=k, kappa=k * k, mode="physical")

    @classmethod
    def analytic(cls, k: complex) -> "CouplingK":
        k = complex(k)
        return cls(k=k, kappa=k * k, mode="analytic")


def k_from_temperature(betaJ: float) -> CouplingK:
    """Map the inverse-temperature coupling product to the modulus k.

    Parameters
    ----------
    betaJ : positive float
        The product beta*J; only this combination enters the model.

    Returns
    -------
    CouplingK in physical mode with k = sinh(2 betaJ)^-2.

    Raises
    ------
    PhaseError
        If betaJ is at or below the critical value, where k >= 1.
    """
    if not betaJ > 0:
        raise DomainError("betaJ must be positive")
    s = math.sinh(2.0 * betaJ)
    k = 1.0 / (s * s)
    if k >= 1.0:
        raise PhaseError(
            f"betaJ = {betaJ:.6g} gives k = {k:.6g} >= 1 (wrong phase: need "
            "the low-temperature side, sinh(2 betaJ) > 1)"
        )
    return CouplingK.physical(k)


def magnetization(k: CouplingK):
    """Spontaneous magnetization M = (1 - k^2)^(1/8), principal branch.

    Returns a float in (0, 1] for physical mode, complex otherwise.
    """
    if abs(k.k) >= 1:
        raise DomainError("|k| must be < 1")
    if k.mode == "physical":
        return (1.0 - (k.k.real) ** 2) ** 0.125
    return cmath.exp(0.125 * cmath.log(1.0 - k.kappa))


def _cache_length(n: int) -> int:
    """The power of two at or above n: the length internal callers ask the
    cached series for, so that all of one k's requests share a few keys."""
    return 1 << max(0, n - 1).bit_length()


# Every binomial-1/2 coefficient has modulus <= 1, so the Laurent
# coefficients of phi, Lambda and Lambda^-1 obey |c_m| <= |k|^|m| / (1 - |k|^2).
# Sampled at the M-th roots of unity, one FFT returns c_m plus the aliases
# sum_(j != 0) c_(m + jM), which that bound caps at
# 2 |k|^(M - |m|) / ((1 - |k|^2)(1 - |k|^M)).  The half-circle transforms
# below return that same M-point FFT, aliases and all.  The bound covers
# the aliases only, not the rounding of the samples or of the transform.


def _circle_size(a: float, top: int) -> int:
    """Power of two M > 2*top whose alias bound at degree top is below
    _ALIAS_TARGET.  M depends on |k| as well as on top, so a short request
    close to |k| = 1 still samples the circle finely enough.  An M past
    _MAX_CIRCLE, whether the alias bound or the length of the request
    asks for it, raises ConvergenceError before any transform."""
    M = _cache_length(2 * top + 2)
    while (a != 0.0 and M <= _MAX_CIRCLE
           and 2.0 * a ** (M - top) / ((1.0 - a * a) * (1.0 - a ** M)) > _ALIAS_TARGET):
        M *= 2
    if M > _MAX_CIRCLE:
        raise ConvergenceError(
            f"the series at |k| = {a!r} and degree {top} needs more than "
            f"{_MAX_CIRCLE} points on the unit circle"
        )
    return M


def _hankel_length(a: float, N: int, count: int) -> int:
    """The series length that the L x L sections of H_N at |k| = a read,
    L = (length - N) // 2: the power of two at or above N + 2 max(count, 4)
    at which every entry left out (degree >= N + L + 1) is below
    _ENTRY_TARGET by |c_m| <= |k|^m / (1 - |k|^2).  The one-particle table
    reads _lambda_pair at _hankel_length(a, 1, 1), the length that every
    short _det_at call from N = 1 reads too, so both share one cache key."""
    length = _cache_length(N + 2 * max(count, 4))
    while a > 0.0 and a ** (N + (length - N) // 2 + 1) / (1.0 - a * a) > _ENTRY_TARGET:
        length *= 2
    return length


def _half_angles(M: int, count: int):
    """theta_j/2 = pi j/M and sin^2(theta_j/2) for j = 0 .. count - 1."""
    half = np.arange(count) * (np.pi / M)
    s2 = np.sin(half)
    s2 *= s2
    return half, s2


def _lambda_values(k, s2: np.ndarray) -> np.ndarray:
    """Lambda at the points of the circle with sin^2(theta/2) = s2.  On
    |xi| = 1, (1 - k xi)(1 - k/xi) = (1 - k)^2 + 4k sin^2(theta/2) at any
    k, which does not cancel near theta = 0 as 1 + k^2 - 2k cos(theta) does
    at real k -> 1; both factors have positive real part, so the principal
    root of the product is the product of the principal roots."""
    return np.sqrt((1.0 - k) ** 2 + 4.0 * k * s2)


def _cosine_coeffs(values: np.ndarray, M: int, out: np.ndarray) -> None:
    """Degrees 0 .. len(out) - 1 of a symbol even in theta into out, from
    its values at theta_j = 2 pi j/M, j = 0 .. M/2.  The M-point FFT of an
    even signal is its cosine transform, the real-output FFT of a Hermitian
    signal (np.fft.hfft), taken in one call over the rows of the float view:
    the values themselves if real, their real and imaginary parts if not."""
    def parts(a):
        return a.view(float).reshape(len(a), -1).T
    parts(out)[...] = np.fft.hfft(parts(values), M, norm="forward")[:, : len(out)]


@lru_cache(maxsize=64)
def _phi_series(kval: complex, length: int):
    # phi = sqrt(1 - k/xi)/sqrt(1 - k xi) = (1 - k/xi)/Lambda, both roots
    # principal (1 - k/xi and 1 - k xi have positive real part on |xi| = 1),
    # with 1 - k/xi = (1 - k) + 2k sin^2(theta/2) + i k sin(theta).  At real
    # k, phi(e^(-i theta)) = conj phi(e^(i theta)): the half circle carries
    # the samples, and one Hermitian FFT returns phi_m at index m and phi_-m
    # at index M - m.  Complex k has no such symmetry: one complex FFT of
    # the whole circle.
    real = kval.imag == 0
    k = kval.real if real else kval
    M = _circle_size(abs(kval), length - 1)
    # allocated before the transform, so the cached result does not sit
    # above its freed working memory
    out = np.empty((2, length), dtype=float if real else complex)
    half, s2 = _half_angles(M, M // 2 + 1 if real else M)
    values = (1.0 - k) + 2.0 * k * s2 + 1j * k * np.sin(2.0 * half)
    values /= _lambda_values(k, s2)
    c = np.fft.hfft(values, M, norm="forward") if real else np.fft.fft(values, norm="forward")
    out[0] = c[:length]
    out[1, 0] = c[0]
    out[1, 1:] = c[:-length:-1]   # index M - m is degree -m
    out.setflags(write=False)
    return tuple(out)


@lru_cache(maxsize=64)
def _lambda_pair(kval: complex, length: int):
    # Lambda(1/xi) = Lambda(xi) at every k: the samples are even in theta,
    # the half circle carries them, and degrees >= 0 are the whole series.
    # 1/Lambda reuses Lambda's values, divided in place.
    M = _circle_size(abs(kval), length - 1)
    out = np.empty((2, length), dtype=float if kval.imag == 0 else complex)
    lam = _lambda_values(kval.real if kval.imag == 0 else kval,
                         _half_angles(M, M // 2 + 1)[1])
    _cosine_coeffs(lam, M, out[0])
    _cosine_coeffs(np.divide(1.0, lam, out=lam), M, out[1])
    out.setflags(write=False)
    return tuple(out)


# The one-particle part of the correlation sum.  With a_d and b_d the
# coefficients of Lambda and Lambda^-1 and H_N(c) the Hankel matrix of the
# degrees N + i + j + 1, K_N = H_N(Lambda) H_N(Lambda^-1) has
# tr K_N = sum_(d > N) (d - N) a_d b_d and ||H_N(c)||_HS^2 =
# sum_(d > N) (d - N) |c_d|^2.  Over every N >= 1 the traces sum to
# sum_d d(d - 1)/2 a_d b_d, so S = sum_N (det(I - K_N) - 1) = S_1^H +
# sum_N R_N with S_1^H = -sum_N tr K_N and R_N = det(I - K_N) - 1 + tr K_N,
# the orders >= 2.  det(I - K) = sum_m (-1)^m tr Lambda^m(K) with
# |tr Lambda^m(K)| <= ||K||_1^m / m! (Simon, Trace Ideals, 2nd ed.,
# Thm 3.4) gives |R_N| <= t_N^2 e^(t_N) / 2 for any t_N >= ||K_N||_1, and
# t_N = ||H_N(Lambda)||_HS ||H_N(Lambda^-1)||_HS is one.
#
# Past the D stored degrees, |c_d| <= C r^(d/2) with r = |k|^2 and
# C = 1/(1 - r).  So the degrees d >= D add at most
# e_N = C^2 r^D ((D - N)/(1 - r) + r/(1 - r)^2) to each squared norm and to
# |tr K_N| for N < D, and for N >= D, t_N <= C^2 r^(N+1)/(1 - r)^2 =: T_N.
# T_N falls by r per N, so the R_N and traces there sum to at most
# T_D^2 e^(T_D) / (2 (1 - r^2)) + T_D / (1 - r).


def _reversed_sums(x: np.ndarray) -> np.ndarray:
    """out[m] = sum_(j >= m) x[j], each sum taken from the far end, which
    holds the smallest terms of a decaying series."""
    return np.cumsum(x[::-1])[::-1]


def _past(c: np.ndarray) -> np.ndarray:
    """sum_(d > N) (d - N) c_d for N = 0 .. len(c) - 1, as the two nested
    reversed sums sum_(m > N) sum_(d >= m) c_d."""
    out = np.zeros_like(c)
    out[:-1] = _reversed_sums(_reversed_sums(c)[1:])
    return out


@dataclass(frozen=True)
class _OneParticle:
    """The one-particle table of one k, read by both determinant routes.

    s1 is S_1^H = -sum_(N >= 1) tr K_N over the stored degrees, summed
    smallest first.  trace[N] is tr K_N and tails[M] a proven bound on
    sum_(N > M) (|R_N| + |tr K_N - trace[N]|), the error of S_1^H + sum_(N <= M)
    (det(I - K_N) - 1 + trace[N]) as S; both arrays run over N = 0 .. D - 1
    and are read only.  The bound takes the norms and traces from the
    stored coefficients, whose aliases are proven below 1e-17, and adds the
    closed-form bound of the degrees past them.  The rounding of the
    coefficients is not in it.
    """

    s1: complex
    trace: np.ndarray
    tails: np.ndarray

    def stop(self, tol: float) -> int:
        """The smallest M >= 1 with tails[M] <= tol/2; the last stored N
        where none is."""
        ok = self.tails[1:] <= tol / 2.0
        return int(np.argmax(ok)) + 1 if ok.any() else len(self.tails) - 1


@lru_cache(maxsize=64)
def _one_particle(kval: complex) -> _OneParticle:
    """The one-particle table at k = kval from the Lambda and Lambda^-1
    coefficients at _hankel_length(|k|, 1, 1), the cosine transforms that
    _lambda_pair takes on the half circle.  A series past the circle cap
    raises ConvergenceError, as _lambda_pair does."""
    a = abs(kval)
    D = _hankel_length(a, 1, 1)
    lam, inv = _lambda_pair(kval, D)
    trace = _past(lam * inv)
    r = a * a
    c2 = 1.0 / (1.0 - r) ** 2
    e = c2 * r**D * ((D - np.arange(D)) / (1.0 - r) + r / (1.0 - r) ** 2)
    T = c2 * r ** (D + 1) / (1.0 - r) ** 2
    # N >= 1 only: t_0 overflows exp near k = 1, and no sum reads it
    t = np.sqrt((_past(np.abs(lam) ** 2) + e)[1:] * (_past(np.abs(inv) ** 2) + e)[1:])
    tails = np.full(D, T * T * math.exp(T) / (2.0 * (1.0 - r * r)) + T / (1.0 - r))
    tails[:-1] += _reversed_sums(t * t * np.exp(t) / 2.0 + e[1:])
    for arr in (trace, tails):
        arr.setflags(write=False)
    return _OneParticle(s1=-_reversed_sums(trace)[1], trace=trace, tails=tails)
