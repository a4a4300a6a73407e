"""Model parameters and the series engine for the symbol and its factors.

Everything downstream consumes the low-temperature modulus k (|k| < 1) and
the Fourier/Laurent coefficients computed here: the symbol
phi(xi) = sqrt((1 - k/xi)/(1 - k xi)), its Wiener-Hopf factors phi+/phi-,
and Lambda = phi-/phi+ together with its reciprocal.  All fractional powers
take the principal branch, fixed by phi+(0) = phi-(inf) = 1.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PhaseError

_TAIL_TARGET = 1e-16
_MIN_LEN = 8
_MAX_LEN = 1 << 15


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
    bounds the sup norm on the unit circle of the dropped tail.
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
        out = np.zeros(hi - lo + 1, dtype=complex)
        a = max(lo, self.min_degree)
        b = min(hi, self.max_degree)
        if a <= b:
            out[a - lo : b - lo + 1] = self.coeffs[
                a - self.min_degree : b - self.min_degree + 1
            ]
        return out


def suggest_length(k: complex, target: float = _TAIL_TARGET) -> int:
    """Series length with geometric tail |k|^len / (1-|k|) below target."""
    a = abs(k)
    if a == 0.0:
        return _MIN_LEN
    n = math.log(target * (1.0 - a)) / math.log(a)
    return int(min(_MAX_LEN, max(_MIN_LEN, math.ceil(n) + 2)))


def _cache_length(n: int) -> int:
    """The power of two at or above n: the length internal callers ask the
    cached series for, so that all of one k's requests share a few keys."""
    return 1 << max(0, n - 1).bit_length()


def binomial_half_series(exponent: float, k: complex, length: int) -> SeriesCoeffs:
    """Taylor coefficients of (1 - k x)^exponent for exponent = +-1/2.

    Uses the recurrence c_0 = 1, c_{m+1} = c_m * k * (m - exponent)/(m + 1),
    exact in exact arithmetic.  truncation_error is the geometric bound on
    sum_{m >= length} |c_m|; when it exceeds the library tail target the
    result is still returned and the bound simply reports the fact.
    """
    if exponent not in (0.5, -0.5):
        raise DomainError("exponent must be +1/2 or -1/2")
    if abs(k) >= 1:
        raise DomainError("|k| must be < 1")
    if length < 1:
        raise DomainError("length must be >= 1")
    c = np.zeros(length, dtype=complex)
    c[0] = 1.0
    for m in range(length - 1):
        c[m + 1] = c[m] * k * (m - exponent) / (m + 1)
    a = abs(k)
    if a == 0.0 or length == 1:
        tail = 0.0 if a == 0.0 else a / (1.0 - a)
    else:
        # |c_{m+1}/c_m| <= |k| for m >= 1, so the dropped tail is dominated
        # by the geometric series starting at the first omitted term.
        tail = abs(c[-1]) * a / (1.0 - a)
    kind = "binom_plus_half" if exponent == 0.5 else "binom_minus_half"
    return SeriesCoeffs(kind=kind, coeffs=c, min_degree=0, truncation_error=tail)


def _laurent_product(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Coefficients of (sum_a pos[a] x^a) * (sum_b neg[b] x^-b).

    Returns degrees -(len(neg)-1) .. len(pos)-1 as one array.
    """
    la, lb = len(pos), len(neg)
    out = np.zeros(la + lb - 1, dtype=complex)
    for b in range(lb):
        out[lb - 1 - b : la + lb - 1 - b] += neg[b] * pos
    return out


@lru_cache(maxsize=64)
def _phi_series(kval: complex, length: int) -> SeriesCoeffs:
    plus = binomial_half_series(-0.5, kval, length)   # phi+ = (1 - k xi)^(-1/2)
    minus = binomial_half_series(0.5, kval, length)   # phi- = (1 - k/xi)^(1/2)
    coeffs = _laurent_product(plus.coeffs, minus.coeffs)
    err = _product_tail(plus, minus)
    return SeriesCoeffs(
        kind="phi_full", coeffs=coeffs, min_degree=-(length - 1), truncation_error=err
    )


@lru_cache(maxsize=64)
def _lambda_pair(kval: complex, length: int):
    half_pos = binomial_half_series(0.5, kval, length)
    half_neg = binomial_half_series(-0.5, kval, length)
    lam = _laurent_product(half_pos.coeffs, half_pos.coeffs)
    inv = _laurent_product(half_neg.coeffs, half_neg.coeffs)
    err_lam = _product_tail(half_pos, half_pos)
    err_inv = _product_tail(half_neg, half_neg)
    lo = -(length - 1)
    return (
        SeriesCoeffs(kind="lambda", coeffs=lam, min_degree=lo, truncation_error=err_lam),
        SeriesCoeffs(kind="lambda_inv", coeffs=inv, min_degree=lo, truncation_error=err_inv),
    )


def _product_tail(a: SeriesCoeffs, b: SeriesCoeffs) -> float:
    na = float(np.sum(np.abs(a.coeffs)))
    nb = float(np.sum(np.abs(b.coeffs)))
    ea, eb = a.truncation_error, b.truncation_error
    return na * eb + nb * ea + ea * eb


def phi_plus_series(k: CouplingK, length: int | None = None) -> SeriesCoeffs:
    """phi+ = (1 - k xi)^(-1/2); nonnegative degrees, phi+(0) = 1."""
    length = length or suggest_length(k.k)
    s = binomial_half_series(-0.5, k.k, length)
    return SeriesCoeffs("phi_plus", s.coeffs, 0, s.truncation_error)


def phi_minus_series(k: CouplingK, length: int | None = None) -> SeriesCoeffs:
    """phi- = (1 - k/xi)^(1/2); nonpositive degrees, phi-(inf) = 1."""
    length = length or suggest_length(k.k)
    s = binomial_half_series(0.5, k.k, length)
    # degree of x^m in (1 - k/xi)^(1/2) is -m
    return SeriesCoeffs(
        "phi_minus", s.coeffs[::-1].copy(), -(length - 1), s.truncation_error
    )


def phi_m(k: CouplingK, m: int, length: int | None = None) -> complex:
    """m-th Fourier coefficient of the symbol phi.

    Computed as the degree-m coefficient of the Laurent product of the
    phi+ and phi- series; agrees with the unit-circle contour integral of
    the symbol to within the recorded truncation error.
    """
    length = length or suggest_length(k.k)
    return _phi_series(complex(k.k), int(length)).coeff(m)


def lambda_series(k: CouplingK, length: int | None = None):
    """Laurent coefficients of Lambda = sqrt((1-k xi)(1-k/xi)) and 1/Lambda.

    Returns
    -------
    (SeriesCoeffs, SeriesCoeffs)
        Lambda and Lambda^-1.  Lambda's coefficients are symmetric under
        degree negation because Lambda(1/x) = Lambda(x).
    """
    if abs(k.k) >= 1:
        raise DomainError("|k| must be < 1")
    length = length or suggest_length(k.k)
    return _lambda_pair(complex(k.k), int(length))

