"""Model parameters and the series engine for the symbol and its factors.

Everything downstream consumes the low-temperature modulus k (|k| < 1) and
the Fourier/Laurent coefficients computed here: the symbol
phi(xi) = sqrt((1 - k/xi)/(1 - k xi)) (_phi_series) and
Lambda = sqrt((1 - k xi)(1 - k/xi)) together with its reciprocal
(_lambda_pair), each from one FFT on the unit circle.  Both square roots
take the principal branch, which is 1 at k = 0.
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


@dataclass(frozen=True, eq=False)
class SeriesCoeffs:
    """Truncated coefficient sequence, possibly with negative degrees.

    coeffs[i] is the coefficient at degree min_degree + i.  truncation_error
    bounds the sup norm on the unit circle of the dropped tail plus the
    aliases of the FFT.
    """

    kind: str
    coeffs: np.ndarray
    min_degree: int
    truncation_error: float

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.coeffs) - 1

    def coeff(self, m: int) -> complex:
        """Coefficient at degree m; zero outside the stored window."""
        i = m - self.min_degree
        if 0 <= i < len(self.coeffs):
            return complex(self.coeffs[i])
        return 0.0

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients for degrees lo..hi inclusive, zero padded."""
        out = np.zeros(hi - lo + 1, dtype=self.coeffs.dtype)
        a = max(lo, self.min_degree)
        b = min(hi, self.max_degree)
        if a <= b:
            out[a - lo : b - lo + 1] = self.coeffs[
                a - self.min_degree : b - self.min_degree + 1
            ]
        return out


def _cache_length(n: int) -> int:
    """The power of two at or above n: the length internal callers ask the
    cached series for, so that all of one k's requests share a few keys."""
    return 1 << max(0, n - 1).bit_length()


# Every binomial-1/2 coefficient has modulus <= 1, so the Laurent
# coefficients of phi, Lambda and Lambda^-1 obey |c_m| <= |k|^|m| / (1 - |k|^2).
# Sampled at the M-th roots of unity, one FFT returns c_m plus the aliases
# sum_(j != 0) c_(m + jM), which that bound caps at
# 2 |k|^(M - |m|) / ((1 - |k|^2)(1 - |k|^M)).


def _circle_size(a: float, top: int) -> int:
    """Power of two M > 2*top whose alias bound at degree top is below
    _ALIAS_TARGET.  M depends on |k| as well as on top, so a short request
    close to |k| = 1 still samples the circle finely enough."""
    M = _cache_length(2 * top + 2)
    if a == 0.0:
        return M
    while 2.0 * a ** (M - top) / ((1.0 - a * a) * (1.0 - a ** M)) > _ALIAS_TARGET:
        M *= 2
        if M > _MAX_CIRCLE:
            raise ConvergenceError(
                f"the series at |k| = {a!r} needs more than {_MAX_CIRCLE} points "
                "on the unit circle"
            )
    return M


def _series_error(a: float, length: int, M: int) -> float:
    """Sup norm on the unit circle of the error of degrees -(length-1) ..
    length-1 taken from an M-point FFT: the dropped tail plus every alias."""
    if a == 0.0:
        return 0.0
    tail = 2.0 * a ** length / ((1.0 - a * a) * (1.0 - a))
    alias = 2.0 * (2 * length - 1) * a ** (M - length + 1) / ((1.0 - a * a) * (1.0 - a ** M))
    return tail + alias


# With b_j = binom(2j, j)/4^j, the coefficients of (1 - x)^(-1/2), and
# b_j/(2j - 1), the moduli of those of (1 - x)^(1/2), both decreasing in j,
# |c_m(Lambda^-1)| <= |k|^m b_m (1 - |k|^2)^(-1/2) and
# |c_m(Lambda)| <= 2 |k|^m b_m/(2m - 1).  So t_N = ||H_N(Lambda)||_HS
# ||H_N(Lambda^-1)||_HS, where ||H_N(c)||_HS^2 = sum_(m > N) (m - N)|c_m|^2,
# obeys t_N <= T_N = 2 b_(N+1)^2/(2N + 1) |k|^(2N + 2) (1 - |k|^2)^(-5/2),
# and |det(I - K_N) - 1| <= B_N = T_N e^(1 + T_N) (Simon, Trace Ideals,
# 2nd ed., Thm 3.4, with ||K_N||_1 <= t_N).  Every factor of T_N falls
# with N, so B_(N+1) <= |k|^2 B_N and the tail past n is at most
# B_(n+1)/(1 - |k|^2).  D(N) - M^2 = M^2 (det(I - K_N) - 1) carries the
# same bound, times |M^2|, to the Toeplitz sum.


def _tail_bound(a: float, n: int) -> float:
    """Proven bound on sum_(N > n) |det(I - K_N) - 1| at |k| = a < 1;
    inf where it overflows a float."""
    if a == 0.0:
        return 0.0
    N = n + 1   # log T_N, with log b_(N+1) from lgamma
    log_b = math.lgamma(2 * N + 3) - 2.0 * math.lgamma(N + 2) - (N + 1) * math.log(4.0)
    q = math.log1p(-a * a)
    log_t = math.log(2.0 / (2 * N + 1)) + 2.0 * log_b + (2 * N + 2) * math.log(a) - 2.5 * q
    try:
        return math.exp(log_t + 1.0 + math.exp(log_t) - q)
    except OverflowError:
        return math.inf


def _terms_needed(a: float, tol: float) -> int:
    """The smallest n >= 1 whose _tail_bound at |k| = a is <= tol/2, by
    bisection between doublings of n."""
    hi = 1
    while _tail_bound(a, hi) > tol / 2.0:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_bound(a, mid) <= tol / 2.0:
            hi = mid
        else:
            lo = mid
    return hi


def _circle_coeffs(kval: complex, length: int, *symbols):
    """Coefficients of each symbol(xi) at degrees -(length-1) .. length-1,
    from its values at the M-th roots of unity, one FFT each.  For real k
    the coefficients are real and only their real parts are kept."""
    M = _circle_size(abs(kval), length - 1)
    xi = np.exp(2j * np.pi * np.arange(M) / M)
    out = []
    for symbol in symbols:
        c = np.fft.fft(symbol(xi)) / M
        c = np.concatenate([c[M - length + 1 :], c[:length]])
        out.append(c.real.copy() if kval.imag == 0 else c)
    return out, _series_error(abs(kval), length, M)


@lru_cache(maxsize=64)
def _phi_series(kval: complex, length: int) -> SeriesCoeffs:
    # both 1 - k/xi and 1 - k xi have positive real part on |xi| = 1, so
    # the principal square roots are the branches that are 1 at k = 0
    (coeffs,), err = _circle_coeffs(
        kval, length, lambda xi: np.sqrt(1.0 - kval / xi) / np.sqrt(1.0 - kval * xi)
    )
    return SeriesCoeffs(
        kind="phi_full", coeffs=coeffs, min_degree=-(length - 1), truncation_error=err
    )


@lru_cache(maxsize=64)
def _lambda_pair(kval: complex, length: int):
    def lam(xi):
        return np.sqrt(1.0 - kval * xi) * np.sqrt(1.0 - kval / xi)

    (c_lam, c_inv), err = _circle_coeffs(kval, length, lam, lambda xi: 1.0 / lam(xi))
    lo = -(length - 1)
    # Lambda(1/xi) = Lambda(xi): degrees >= 0 mirrored make the symmetry exact
    return (
        SeriesCoeffs(kind="lambda", coeffs=_mirror(c_lam, length), min_degree=lo,
                     truncation_error=err),
        SeriesCoeffs(kind="lambda_inv", coeffs=_mirror(c_inv, length), min_degree=lo,
                     truncation_error=err),
    )


def _mirror(c: np.ndarray, length: int) -> np.ndarray:
    """Degrees -(length-1) .. length-1 of c with degree -m set to degree m."""
    pos = c[length - 1 :]
    return np.concatenate([pos[:0:-1], pos])
