"""Modulus handling, series generators, and their independent oracles."""
import cmath
import math

import numpy as np
import pytest

from ising_lab import CouplingK, DomainError, PhaseError, k_from_temperature, magnetization
from ising_lab.fredholm import _det_at
from ising_lab.params import _lambda_pair, _phi_series, _tail_bound, _terms_needed


class TestCouplingK:
    def test_physical_roundtrip(self):
        k = CouplingK.physical(0.3)
        assert k.mode == "physical"
        assert k.k == 0.3
        assert k.kappa == 0.3 * 0.3

    def test_physical_rejects_negative(self):
        with pytest.raises(DomainError):
            CouplingK.physical(-0.1)

    def test_physical_rejects_unit(self):
        with pytest.raises(DomainError):
            CouplingK.physical(1.0)

    def test_analytic_accepts_complex(self):
        k = CouplingK.analytic(0.2 + 0.4j)
        assert k.mode == "analytic"
        assert k.kappa == (0.2 + 0.4j) ** 2

    def test_analytic_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            CouplingK.analytic(0.8 + 0.7j)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                CouplingK.physical(bad)
        with pytest.raises(DomainError, match="finite"):
            CouplingK.analytic(complex(0.1, math.nan))


class TestKFromTemperature:
    def test_matches_sinh_formula(self):
        betaJ = 1.0
        s = math.sinh(2.0)
        got = k_from_temperature(betaJ)
        assert abs(got.k - 1.0 / (s * s)) < 1e-16

    def test_half_asinh_two_gives_quarter(self):
        # sinh(2 betaJ) = 2 puts the modulus at exactly 1/4
        betaJ = 0.5 * math.asinh(2.0)
        got = k_from_temperature(betaJ)
        assert abs(got.k - 0.25) < 1e-15

    def test_critical_point_rejected(self):
        betaJ_c = 0.5 * math.asinh(1.0)
        with pytest.raises(PhaseError):
            k_from_temperature(betaJ_c)

    def test_high_temperature_rejected(self):
        with pytest.raises(PhaseError):
            k_from_temperature(0.2)

    def test_zero_temperature_limit(self):
        assert abs(k_from_temperature(8.0).k) < 1e-13

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            k_from_temperature(0.0)


class TestMagnetization:
    def test_known_value(self):
        m = magnetization(CouplingK.physical(0.6))
        assert abs(m - (1.0 - 0.36) ** 0.125) < 1e-16

    def test_free_limit(self):
        assert magnetization(CouplingK.physical(0.0)) == 1.0

    def test_eighth_power_identity_complex(self):
        k = CouplingK.analytic(0.3j)
        m = magnetization(k)
        assert abs(m ** 8 - (1.0 - k.kappa)) < 1e-14


def _binomial_half(exponent: float, k: complex, length: int) -> np.ndarray:
    """Taylor coefficients of (1 - k x)^exponent, exponent = +-1/2, by the
    ratio c_(m+1)/c_m = k (m - exponent)/(m + 1): the exact factors of the
    Laurent-product oracle for the FFT series."""
    m = np.arange(length - 1)
    return np.concatenate([[1.0], np.cumprod(k * (m - exponent) / (m + 1))])


class TestBinomialHalfSeries:
    """The oracle's factors checked against hand-reduced rationals."""

    def test_inverse_sqrt_constants(self):
        k = 0.5
        s = _binomial_half(-0.5, k, 6)
        expected = [1.0, k / 2, 3 * k ** 2 / 8, 5 * k ** 3 / 16, 35 * k ** 4 / 128]
        for m, want in enumerate(expected):
            assert abs(s[m] - want) < 1e-15

    def test_plus_sqrt_constants(self):
        k = 0.5
        s = _binomial_half(0.5, k, 6)
        expected = [1.0, -k / 2, -k ** 2 / 8, -k ** 3 / 16, -5 * k ** 4 / 128]
        for m, want in enumerate(expected):
            assert abs(s[m] - want) < 1e-15

    def test_product_is_identity(self):
        # (1-u)^(1/2) (1-u)^(-1/2) = 1 order by order
        plus = _binomial_half(0.5, 0.4, 30)
        minus = _binomial_half(-0.5, 0.4, 30)
        prod = np.convolve(plus, minus)[:30]
        assert abs(prod[0] - 1.0) < 1e-15
        assert np.max(np.abs(prod[1:])) < 1e-15

    def test_window_and_degree_bookkeeping(self):
        s = _phi_series(0.3 + 0j, 8)
        assert s.min_degree == -7
        assert s.max_degree == 7
        w = s.window(2, 4)
        assert w.shape == (3,)
        assert w[0] == s.coeff(2)
        assert s.coeff(50) == 0.0
        assert np.all(s.window(6, 9)[2:] == 0.0)


def _contour_coefficient(k: float, m: int, nodes: int = 2048) -> complex:
    """Trapezoidal contour oracle for the Fourier coefficient of phi."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    xi = np.exp(1j * theta)
    phi = np.sqrt(1.0 - k / xi) / np.sqrt(1.0 - k * xi)
    return np.mean(phi * np.exp(-1j * m * theta))


class TestPhiSeries:
    def test_against_contour_integral(self):
        phi = _phi_series(0.4 + 0j, 16)
        for m in range(-6, 7):
            oracle = _contour_coefficient(0.4, m)
            assert abs(phi.coeff(m) - oracle) < 1e-12

    def test_leading_coefficient(self):
        # phi_0 = 1 - k^2/4 + O(k^4)
        assert abs(_phi_series(0.2 + 0j, 16).coeff(0) - 1.0 + 0.25 * 0.04) < 1e-3


class TestLambdaSeries:
    def test_symmetry_exact(self):
        lam, lam_inv = _lambda_pair(0.5 + 0j, 48)
        for m in range(1, 20):
            assert lam.coeff(m) == lam.coeff(-m)
            assert lam_inv.coeff(m) == lam_inv.coeff(-m)

    def test_pointwise_on_circle(self):
        k = 0.5
        lam, lam_inv = _lambda_pair(complex(k), 160)
        for theta in (0.3, 1.1):
            xi = cmath.exp(1j * theta)
            direct = cmath.sqrt((1.0 - k * xi) * (1.0 - k / xi))
            total = sum(
                lam.coeff(m) * xi ** m for m in range(lam.min_degree, lam.max_degree + 1)
            )
            assert abs(total - direct) < 1e-12
            total_inv = sum(
                lam_inv.coeff(m) * xi ** m
                for m in range(lam_inv.min_degree, lam_inv.max_degree + 1)
            )
            assert abs(total_inv - 1.0 / direct) < 1e-12

    def test_convolution_is_identity(self):
        lam, lam_inv = _lambda_pair(0.4 + 0j, 80)
        prod = np.convolve(lam.coeffs, lam_inv.coeffs)
        mid = len(prod) // 2
        assert abs(prod[mid] - 1.0) < 1e-13
        window = np.delete(prod[mid - 20 : mid + 21], 20)
        assert np.max(np.abs(window)) < 1e-13

    def test_real_for_physical_modulus(self):
        lam, lam_inv = _lambda_pair(0.6 + 0j, 64)
        assert lam.coeffs.dtype.kind == lam_inv.coeffs.dtype.kind == "f"


class TestTruncationControl:
    def test_truncation_error_recorded(self):
        # 12 stored degrees at k = 0.5 leave a tail near 2 0.5^12 / 0.375
        assert _phi_series(0.5 + 0j, 12).truncation_error > 1e-8


def _laurent_product(pos, neg):
    """Exact coefficients of (sum_a pos[a] x^a)(sum_b neg[b] x^-b), degrees
    -(len(neg)-1) .. len(pos)-1: the test oracle for the FFT series."""
    return np.convolve(pos, neg[::-1])


class TestFFTSeries:
    """The FFT series engine against the exact Laurent product."""

    @pytest.mark.parametrize("kv", [0.3, 0.9, 0.5 + 0.3j, -0.6])
    def test_matches_laurent_product(self, kv):
        # n with |k|^n / (1 - |k|) below 1e-16, the largest stored degree
        n = math.ceil(math.log(1e-16 * (1.0 - abs(kv))) / math.log(abs(kv))) + 2
        # the oracle is exact below degree n when its factors run to 2n
        plus = _binomial_half(0.5, kv, 2 * n)
        minus = _binomial_half(-0.5, kv, 2 * n)
        oracles = (
            _laurent_product(minus, plus),   # phi = phi+ phi-
            _laurent_product(plus, plus),    # Lambda
            _laurent_product(minus, minus),  # Lambda^-1
        )
        phi = _phi_series(complex(kv), n)
        lam, lam_inv = _lambda_pair(complex(kv), n)
        centre = 2 * n - 1
        for series, oracle in zip((phi, lam, lam_inv), oracles):
            want = oracle[centre - (n - 1) : centre + n]
            assert np.max(np.abs(series.window(-(n - 1), n - 1) - want)) <= 2e-15

    def test_short_request_does_not_alias(self):
        # M follows |k| as well as the length: 16 coefficients at k = 0.99
        short = _phi_series(0.99 + 0j, 16)
        long = _phi_series(0.99 + 0j, 4096)
        for m in range(-15, 16):
            assert abs(short.coeff(m) - long.coeff(m)) <= 1e-15

    @pytest.mark.parametrize("kv", [0.5, 0.99])
    def test_truncation_error_bounds_the_dropped_tail(self, kv):
        lam, _ = _lambda_pair(complex(kv), 64)
        plus = _binomial_half(0.5, kv, 4096)
        exact = _laurent_product(plus, plus)[4095:4095 + 2048]  # degrees 0 .. 2047
        dropped = 2.0 * np.sum(np.abs(exact[64:]))
        a = abs(kv)
        tail_bound = 2.0 * a ** 64 / ((1.0 - a * a) * (1.0 - a))
        # every alias of the 127 stored degrees is below 1e-17
        assert dropped <= lam.truncation_error <= tail_bound + 127 * 1e-17


class TestTailBound:
    """The proven tail of the correlation sum against computed terms."""

    @pytest.mark.parametrize("kv", [
        0.1, 0.5, 0.9, 0.95, 0.99, 0.995, 0.5 + 0.3j, 0.7j, -0.6,
        0.9 * cmath.exp(0.3j), 0.99j,
    ])
    def test_bounds_the_real_tail(self, kv):
        a = abs(kv)
        count = max(1001, _terms_needed(a, 1e-18))   # the rest is below 1e-18
        terms = np.abs(_det_at(complex(kv), 1, count).values - 1.0)
        tails = np.cumsum(terms[::-1])[::-1]         # tails[n] = sum over N > n
        # for complex k the computed terms end at a rounding floor near 1e-30
        # each, which no bound on the exact terms has to cover
        for n in range(1, 1001):
            assert tails[n] <= _tail_bound(a, n) + 1e-25

    def test_no_overflow_near_one(self):
        assert _tail_bound(0.995, 1) == math.inf

    def test_one_term_at_zero(self):
        assert _terms_needed(0.0, 1e-8) == 1
        assert _tail_bound(0.0, 1) == 0.0

    @pytest.mark.parametrize("kv", [0.3, 0.9, 0.99])
    def test_terms_needed_is_the_smallest(self, kv):
        n = _terms_needed(kv, 1e-8)
        assert _tail_bound(kv, n) <= 5e-9 < _tail_bound(kv, n - 1)
