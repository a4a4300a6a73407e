"""Modulus handling, series generators, and their independent oracles."""
import cmath
import functools
import math

import numpy as np
import pytest

from ising_lab import (
    ConvergenceError, CouplingK, DomainError, PhaseError, k_from_temperature, magnetization,
)
from ising_lab import fredholm, integrals, params
from ising_lab.params import _circle_size, _lambda_pair, _one_particle, _phi_series


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


def _coeff(series, m: int):
    """The coefficient at degree m of a phi pair (degrees >= 0, degrees <= 0)
    or of a one-sided Lambda array, which is even in the degree."""
    pos, neg = series if isinstance(series, tuple) else (series, series)
    return pos[m] if m >= 0 else neg[-m]


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
            assert abs(_coeff(phi, m) - oracle) < 1e-12

    def test_leading_coefficient(self):
        # phi_0 = 1 - k^2/4 + O(k^4)
        assert abs(_coeff(_phi_series(0.2 + 0j, 16), 0) - 1.0 + 0.25 * 0.04) < 1e-3


class TestLambdaSeries:
    def test_pointwise_on_circle(self):
        k = 0.5
        lam, lam_inv = _lambda_pair(complex(k), 160)
        # degree -m mirrors degree m
        lam, lam_inv = (np.concatenate([c[:0:-1], c]) for c in (lam, lam_inv))
        degrees = range(-159, 160)
        for theta in (0.3, 1.1):
            xi = cmath.exp(1j * theta)
            direct = cmath.sqrt((1.0 - k * xi) * (1.0 - k / xi))
            total = sum(c * xi ** m for m, c in zip(degrees, lam))
            assert abs(total - direct) < 1e-12
            total_inv = sum(c * xi ** m for m, c in zip(degrees, lam_inv))
            assert abs(total_inv - 1.0 / direct) < 1e-12

    def test_convolution_is_identity(self):
        lam, lam_inv = _lambda_pair(0.4 + 0j, 80)
        # degree -m mirrors degree m
        prod = np.convolve(np.concatenate([lam[:0:-1], lam]),
                           np.concatenate([lam_inv[:0:-1], lam_inv]))
        mid = len(prod) // 2
        assert abs(prod[mid] - 1.0) < 1e-13
        window = np.delete(prod[mid - 20 : mid + 21], 20)
        assert np.max(np.abs(window)) < 1e-13

    def test_real_for_physical_modulus(self):
        lam, lam_inv = _lambda_pair(0.6 + 0j, 64)
        assert lam.dtype.kind == lam_inv.dtype.kind == "f"

    def test_one_sided_read_only_arrays(self):
        # Lambda keeps degrees >= 0 only, at the length the sum reads near
        # k = 1; phi's column and row are real for real k and share phi_0;
        # no caller can write into the cached series
        for series in _lambda_pair(0.9995 + 0j, 2**18):
            assert series.dtype == np.float64
            assert series.shape == (2**18,)
            assert not series.flags.writeable
        col, row = _phi_series(0.6 + 0j, 64)
        assert col.dtype == row.dtype == np.float64
        assert col.shape == row.shape == (64,)
        assert col[0] == row[0]
        assert not (col.flags.writeable or row.flags.writeable)


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
            got = [_coeff(series, m) for m in range(-(n - 1), n)]
            assert np.max(np.abs(np.array(got) - want)) <= 2e-15

    def test_short_request_does_not_alias(self):
        # M follows |k| as well as the length: 16 coefficients at k = 0.99
        short = _phi_series(0.99 + 0j, 16)
        long = _phi_series(0.99 + 0j, 4096)
        for m in range(-15, 16):
            assert abs(_coeff(short, m) - _coeff(long, m)) <= 1e-15


    def test_circle_cap_holds_for_long_requests(self):
        # 2^21 degrees need 2^23 points at any |k|, past the 2^21 cap
        with pytest.raises(ConvergenceError, match="points on the unit circle"):
            _circle_size(0.5, 2**21)


# The series against closed forms.  With (x)_m the rising factorial,
#   Lambda:       a_m = k^m (-1/2)_m/m! 2F1(-1/2, m - 1/2; m + 1; k^2),
#   Lambda^-1:    b_m = k^m (1/2)_m/m! 2F1(1/2, m + 1/2; m + 1; k^2),
#   phi_m:        k^m (1/2)_m/m! 2F1(-1/2, m + 1/2; m + 1; k^2),
#   phi_-m:       k^m (-1/2)_m/m! 2F1(m - 1/2, 1/2; m + 1; k^2),
# the Cauchy products of (1 - u)^(+-1/2).  The tolerances are measured.
# Against 40 digits, the half-circle engine is within 2.2e-16 on Lambda and
# phi and within 4.4e-16 on Lambda^-1 (at most 1.6e-16 / (1 - |k|)); the
# full-circle engine below is within 2.2e-16 on Lambda and phi and
# 7.6e-14 on Lambda^-1 at k = 0.9995 (at most 6.7e-17 / (1 - |k|)).  Lambda^-1 peaks at
# degree 0 like log(1/(1 - |k|)), and its samples like 1/sqrt(1 - |k|), so
# its bound scales with 1/(1 - |k|).  Samples formed from
# 1 + k^2 - 2k cos(theta) and 1 - k/xi fail the bounds at k = 0.99, 0.999
# and 0.9995; at 0.9995 they are 1.3e-11 off on Lambda^-1 and 6.7e-15 on
# phi.

_ORACLE_K = [0.3, 0.9, 0.99, 0.999, 0.9995, 0.5 + 0.3j, 0.9 * cmath.exp(0.5j)]
_ORACLE_M = (0, 1, 10, 100, 1000)
_PHI_LENGTH = 2048


def _series_bounds(kv) -> np.ndarray:
    """The bounds on (Lambda, Lambda^-1, phi_m, phi_-m) at k = kv."""
    return np.array([5e-16, 5e-16 / (1.0 - abs(kv)), 5e-16, 5e-16])


@functools.lru_cache(maxsize=None)
def _hyp2f1_series(kv: complex) -> np.ndarray:
    """(a_m, b_m, phi_m, phi_-m) at every m of _ORACLE_M, one row per m,
    from the closed forms at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    rows = []
    with mpmath.workdps(40):
        k = mpmath.mpc(kv.real, kv.imag)   # the binary k itself, not a decimal
        z = k * k
        for m in _ORACLE_M:
            lead = k**m / mpmath.factorial(m)
            rows.append([complex(v) for v in (
                lead * mpmath.rf(-0.5, m) * mpmath.hyp2f1(-0.5, m - 0.5, m + 1, z),
                lead * mpmath.rf(0.5, m) * mpmath.hyp2f1(0.5, m + 0.5, m + 1, z),
                lead * mpmath.rf(0.5, m) * mpmath.hyp2f1(-0.5, m + 0.5, m + 1, z),
                lead * mpmath.rf(-0.5, m) * mpmath.hyp2f1(m - 0.5, 0.5, m + 1, z),
            )])
    return np.array(rows)


def _full_circle_series(kval: complex, lam_length: int, phi_length: int):
    """The series engine before the half-circle transforms, kept as a second
    oracle: one complex FFT of each symbol's values at all M points of the
    circle, Lambda and phi from the principal roots of their factors.
    Returns Lambda, Lambda^-1, phi_m and phi_-m at degrees >= 0."""
    def coeffs(values):
        c = np.fft.fft(values) / len(values)
        return c.real if kval.imag == 0 else c

    def circle(length):
        M = _circle_size(abs(kval), length - 1)
        return np.exp(2j * np.pi * np.arange(M) / M)

    xi = circle(lam_length)
    lam = np.sqrt(1.0 - kval * xi) * np.sqrt(1.0 - kval / xi)
    xi = circle(phi_length)
    phi = coeffs(np.sqrt(1.0 - kval / xi) / np.sqrt(1.0 - kval * xi))
    m = np.arange(phi_length)
    return coeffs(lam)[:lam_length], coeffs(1.0 / lam)[:lam_length], phi[m], phi[-m]


def _lambda_length(kval: complex) -> int:
    """The one-particle table's series length, or 2048 where it is shorter,
    so that every degree of _ORACLE_M is stored."""
    return max(params._hankel_length(abs(kval), 1, 1), 2048)


def _engine_series(kval: complex):
    """Lambda and Lambda^-1 at _lambda_length and phi's column and row at
    _PHI_LENGTH, as the package computes them."""
    return (*_lambda_pair(kval, _lambda_length(kval)), *_phi_series(kval, _PHI_LENGTH))


class TestSeriesOracle:
    """Both series engines against the 2F1 closed forms, and each other."""

    @pytest.mark.parametrize("kv", _ORACLE_K)
    def test_engine_within_bounds(self, kv):
        kval = complex(kv)
        want = _hyp2f1_series(kval)
        got = np.array([[s[m] for s in _engine_series(kval)] for m in _ORACLE_M])
        assert np.all(np.abs(got - want) <= _series_bounds(kv)), np.abs(got - want)

    @pytest.mark.parametrize("kv", _ORACLE_K)
    def test_full_circle_oracle_within_bounds(self, kv):
        kval = complex(kv)
        old = _full_circle_series(kval, _lambda_length(kval), _PHI_LENGTH)
        want = _hyp2f1_series(kval)
        got = np.array([[s[m] for s in old] for m in _ORACLE_M])
        assert np.all(np.abs(got - want) <= _series_bounds(kv)), np.abs(got - want)
        # the two engines agree at every stored degree
        for s, o, bound in zip(_engine_series(kval), old, _series_bounds(kv)):
            assert s.dtype == o.dtype
            assert np.max(np.abs(s - o)) <= bound


class TestHalfCircleTransforms:
    """Real k runs real-output FFTs of M/2 + 1 samples only, and the cached
    series keep their types."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        hfft, fft = np.fft.hfft, np.fft.fft

        def spy(name, f):
            def run(a, n=None, *args, **kwargs):
                calls.append((name, np.shape(a)[-1], n))
                return f(a, n, *args, **kwargs)
            return run

        monkeypatch.setattr(np.fft, "hfft", spy("hfft", hfft))
        monkeypatch.setattr(np.fft, "fft", spy("fft", fft))
        return calls

    @pytest.mark.parametrize("series", [_lambda_pair, _phi_series])
    def test_real_k_reads_half_the_circle(self, monkeypatch, series):
        # a key no other test asks for, so the first call computes
        kval, length = 0.8123 + 0j, 96
        calls = self._spy(monkeypatch)
        got = series(kval, length)
        M = _circle_size(abs(kval), length - 1)
        assert calls and all(c == ("hfft", M // 2 + 1, M) for c in calls)
        for s in got:
            assert s.dtype == np.float64 and s.shape == (length,)
            assert not s.flags.writeable
        hits = series.cache_info().hits
        assert series(kval, length) is got
        assert series.cache_info().hits == hits + 1
        assert len(calls) == (2 if series is _lambda_pair else 1)

    def test_complex_k(self, monkeypatch):
        kval, length = 0.4123 - 0.5j, 96
        calls = self._spy(monkeypatch)
        lam, inv = _lambda_pair(kval, length)
        M = _circle_size(abs(kval), length - 1)
        # Lambda is even in theta at any k: its real and imaginary parts
        # are transformed on the half circle
        assert calls == [("hfft", M // 2 + 1, M)] * 2
        col, row = _phi_series(kval, length)
        assert calls[2:] == [("fft", M, None)]
        for s in (lam, inv, col, row):
            assert s.dtype == np.complex128 and not s.flags.writeable
        old = _full_circle_series(kval, length, length)
        for s, o in zip((lam, inv, col, row), old):
            assert np.max(np.abs(s - o)) <= 5e-16


# The closed-form count that the determinant routes summed before the
# one-particle table, kept as an oracle for the table's stop.  With
# b_j = binom(2j, j)/4^j, |c_m(Lambda^-1)| <= |k|^m b_m (1 - |k|^2)^(-1/2)
# and |c_m(Lambda)| <= 2 |k|^m b_m/(2m - 1), so t_N <= T_N =
# 2 b_(N+1)^2/(2N + 1) |k|^(2N + 2) (1 - |k|^2)^(-5/2) and
# |det(I - K_N) - 1| <= T_N e^(1 + T_N), which falls by |k|^2 per N.


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
    """The smallest n >= 1 whose _tail_bound at |k| = a is <= tol/2."""
    n = 1
    while _tail_bound(a, n) > tol / 2.0:
        n = 2 * n if _tail_bound(a, 2 * n) > tol / 2.0 else n + 1
    return n


def _orders_two(kval: complex, count: int) -> np.ndarray:
    """det(I - K_N) - 1 + tr K_N for N = 1 .. count as sum_(m >= 2)
    (-1)^m e_m of the eigenvalues of K_N, so without the cancellation
    against 1 - tr K_N that leaves each computed det - 1 + tr about eps.
    The eigenvalues are those of the r x r form g W_(N-1) of
    fredholm's factorization, W_j = sum_(i >= j) v_i u_i^T."""
    L, length = fredholm._section_size(abs(kval), 1, count)
    a, b = (c[2 : 1 + 2 * L] for c in _lambda_pair(kval, length))
    sa, U, _, _ = fredholm._cross(a, L)
    sb, V, _, _ = fredholm._cross(b, L)
    g = sa * sb * (U.T @ V)
    W = V[count:].T @ U[count:]
    out = np.empty(count, dtype=complex)
    for hi in range(count, 0, -256):
        lo = max(0, hi - 256)
        Ws = np.cumsum((V[lo:hi, :, None] * U[lo:hi, None, :])[::-1], axis=0)[::-1] + W
        lam = np.linalg.eigvals(g @ Ws)
        E = np.zeros((hi - lo, lam.shape[1] + 1), dtype=complex)
        E[:, 0] = 1.0
        for i in range(lam.shape[1]):
            E[:, 1 : i + 2] -= lam[:, i : i + 1] * E[:, : i + 1]
        out[lo:hi] = E[:, 2:].sum(axis=1)
        W = Ws[0]
    return out


def _node_s1(kappa: complex, G: int) -> complex:
    """The integral route's S_1 on the G-node rule, as _s_rule forms it."""
    rule = integrals._node_rule(G, kappa)
    kappa, x, wx, wy, C = rule.kappa, rule.x, rule.wx, rule.wy, rule.C
    return kappa**2 / math.pi**2 * ((wx * x) @ (C * C * C) @ (wy * x))


class TestOneParticle:
    """S_1^H, the traces and the stop of the one-particle table."""

    @pytest.mark.parametrize("kv", [0.3, 0.7, 0.9, 0.99, 0.5 + 0.3j, 0.9 * cmath.exp(0.5j)])
    def test_s1_is_the_node_rule_s1(self, kv):
        got = _one_particle(complex(kv)).s1
        want = _node_s1(complex(kv) ** 2, 128)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_s1_near_critical(self):
        got = _one_particle(0.9999 + 0j).s1
        want = _node_s1(0.9999**2, 512)
        assert abs(got - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("kv", [0.5, 0.95, 0.6 - 0.5j])
    def test_traces_are_the_hankel_traces(self, kv):
        lam, inv = _lambda_pair(complex(kv), 4096)
        one = _one_particle(complex(kv))
        for N in (1, 2, 7, 30):
            d = np.arange(N + 1, 4096)
            want = np.sum((d - N) * lam[d] * inv[d])
            assert abs(one.trace[N] - want) <= 1e-15 * max(1.0, abs(want))
        assert abs(one.s1 + np.sum(one.trace[1:])) <= 1e-15 * abs(one.s1)

    @pytest.mark.parametrize("kv", [0.95, 0.99, 0.999, 0.999 * cmath.exp(0.25j * math.pi)])
    def test_stop_is_a_third_of_the_closed_form_count(self, kv):
        assert 3 * _one_particle(complex(kv)).stop(1e-8) <= _terms_needed(abs(kv), 1e-8)

    def test_arrays_read_only(self):
        one = _one_particle(0.7 + 0j)
        assert not (one.trace.flags.writeable or one.tails.flags.writeable)
        assert one.trace.dtype == one.tails.dtype == np.float64


class TestTailBound:
    """The one-particle table's proven tail of the orders >= 2 against the
    computed terms."""

    @pytest.mark.parametrize("kv", [
        0.1, 0.5, 0.9, 0.95, 0.99, 0.995, 0.5 + 0.3j, 0.7j, -0.6,
        0.9 * cmath.exp(0.3j), 0.99j,
    ])
    def test_bounds_the_real_tail(self, kv):
        one = _one_particle(complex(kv))
        count = max(1001, one.stop(1e-18))   # the rest is below 1e-18
        terms = np.abs(_orders_two(complex(kv), count))
        tails = np.cumsum(terms[::-1])[::-1]         # tails[n] = sum over N > n
        # for complex k the computed terms end at a rounding floor near 1e-30
        # each, which no bound on the exact terms has to cover
        # past the stored N, tails[-1] bounds the whole rest
        for n in range(1, 1001):
            assert tails[n] <= one.tails[min(n, len(one.tails) - 1)] + 1e-25

    def test_no_overflow_near_one(self):
        # t_1 e^(t_1) is largest at the largest k whose series fits the
        # circle; it stays a finite float there
        tails = _one_particle(0.9999 + 0j).tails
        assert np.all(np.isfinite(tails))
        assert tails[-1] < 1e-30

    def test_one_term_at_zero(self):
        one = _one_particle(0j)
        assert one.stop(1e-8) == 1
        assert one.s1 == 0.0 and not np.any(one.tails)

    @pytest.mark.parametrize("kv", [0.3, 0.9, 0.99])
    def test_terms_needed_is_the_smallest(self, kv):
        one = _one_particle(complex(kv))
        n = one.stop(1e-8)
        assert one.tails[n] <= 5e-9 < one.tails[n - 1] or n == 1
        assert _terms_needed(kv, 1e-8) > n
