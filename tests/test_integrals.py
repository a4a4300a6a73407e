"""Form-factor integrals: integrands, quadrature, derivatives, probe integral."""
import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ising_lab import DomainError, PrecisionWarning, QuadratureSpec, lint_integral, s_n
from ising_lab import integrals
from ising_lab.integrals import _lint_series, _tensor_core

_SPEC = QuadratureSpec(nodes_per_dim=64)
_RNG = np.random.default_rng(20240814)


def _lambda1(x, kappa):
    """Lambda_1(x) = sqrt((1-x)(1-kappa x)/x), principal branch."""
    return np.sqrt((1.0 - x) * (1.0 - kappa * x) / x)


def _vandermonde_integrand(x, y, kappa, n):
    """The Vandermonde-form S_n integrand at one point, prefactor excluded:
    [u / (1 - kappa^n u)] Delta(x)^2 Delta(y)^2 / prod_(i,j) (1 - kappa x_i y_j)^2
    prod_i Lambda_1(x_i)/Lambda_1(y_i), u = prod x_i y_i.  The pointwise
    oracle for _mc_core."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    u = np.prod(x) * np.prod(y)
    i, j = np.triu_indices(n, 1)
    vdm = np.prod((x[j] - x[i]) ** 2) * np.prod((y[j] - y[i]) ** 2)
    cross = np.prod((1.0 - kappa * np.outer(x, y)) ** 2)
    lam = np.prod(_lambda1(x, kappa)) / np.prod(_lambda1(y, kappa))
    return u / (1.0 - kappa**n * u) * vdm / cross * lam


class TestLambda1:
    def test_free_point(self):
        assert abs(_lambda1(0.5, 0.0) - 1.0) < 1e-15

    def test_known_value(self):
        assert abs(_lambda1(0.25, 0.0) - math.sqrt(3.0)) < 1e-15

    def test_vectorized(self):
        # the axis weights carry dx Lambda_1(x) and dy / Lambda_1(y), so
        # their ratio is Lambda_1^2 at every node
        for kappa in (0.3, 0.3 + 0.4j):
            x, wx, wy = integrals._axis_nodes(24, kappa)
            assert np.allclose(wx / wy, _lambda1(x, kappa) ** 2, rtol=1e-13, atol=0.0)

    def test_endpoints_rejected(self):
        # Lambda_1 is singular at both ends; the node rule never samples them
        for G in (2, 64, 192):
            x, wx, wy = integrals._axis_nodes(G, 0.2 + 0j)
            assert np.all((x > 0.0) & (x < 1.0))
            assert np.all(np.isfinite(wx) & np.isfinite(wy) & (wx > 0.0) & (wy > 0.0))


class TestIntegrands:
    def test_single_pair_reduction(self):
        # n = 1: everything collapses to xy/(1-kappa xy)^3 times the density ratio
        kappa = 0.37
        for _ in range(5):
            x, y = _RNG.uniform(0.05, 0.95, size=2)
            got = _vandermonde_integrand([x], [y], kappa, 1)
            u = x * y
            want = u / (1.0 - kappa * u) ** 3 * _lambda1(x, kappa) / _lambda1(y, kappa)
            assert abs(got - want) < 1e-13 * abs(want)

    def test_coincident_points_vanish(self):
        got = _vandermonde_integrand([0.3, 0.3], [0.2, 0.7], 0.4, 2)
        assert got == 0.0

    def test_forms_agree_pointwise(self):
        # Cauchy's determinant: det(1/(1 - kappa x_i y_j))^2 is kappa^(n(n-1))
        # Delta(x)^2 Delta(y)^2 / prod (1 - kappa x_i y_j)^2, so the Sn1 and
        # Sn2 integrands agree at every sample point
        for kappa in (0.45, 0.3 + 0.2j):
            for _ in range(5):
                x = np.sort(_RNG.uniform(0.05, 0.95, size=2))
                y = np.sort(_RNG.uniform(0.05, 0.95, size=2))
                C = 1.0 / (1.0 - kappa * np.outer(x, y))
                a = np.linalg.det(C) ** 2
                b = kappa**2 * (x[1] - x[0]) ** 2 * (y[1] - y[0]) ** 2 * np.prod(C * C)
                assert abs(a - b) < 1e-12 * max(abs(a), 1e-30)


class TestTensorQuadrature:
    def test_zero_kappa_exact(self):
        assert s_n(0.0, 1, _SPEC).value == 0.0
        assert s_n(0.0, 2, _SPEC).value == 0.0

    def test_self_convergence(self):
        coarse = s_n(0.5, 2, QuadratureSpec(nodes_per_dim=64)).value
        fine = s_n(0.5, 2, QuadratureSpec(nodes_per_dim=96)).value
        assert abs(fine - coarse) < 1e-9 * abs(fine)

    def test_small_kappa_leading_coefficient(self):
        # first term behaves as 3 kappa^2 / 64
        v3 = s_n(1e-3, 1, QuadratureSpec(nodes_per_dim=48)).value
        v4 = s_n(1e-4, 1, QuadratureSpec(nodes_per_dim=48)).value
        lead = 3.0 / 64.0
        assert abs(v3 / 1e-6 - lead) < 0.02 * lead
        assert abs(v4 / 1e-8 - lead) < abs(v3 / 1e-6 - lead)

    def test_prefactor_scaling_second_term(self):
        # S_2 / kappa^6 approaches a constant; the scaled sequence must
        # contract as kappa halves
        spec = QuadratureSpec(nodes_per_dim=48)
        r = [
            s_n(kap, 2, spec).value / kap ** 6
            for kap in (0.25, 0.125, 0.0625)
        ]
        assert abs(r[2] - r[1]) < abs(r[1] - r[0])
        assert abs(r[1] - r[0]) < abs(r[0])

    def test_result_metadata(self):
        res = s_n(0.4, 1, _SPEC, form="Sn1")
        assert res.n == 1
        assert res.form == "Sn1"
        assert res.rel_error_est >= 0.0

    def test_tensor_rejects_high_dimension(self):
        with pytest.raises(DomainError):
            s_n(0.3, 3, _SPEC)

    def test_physical_kappa_result_is_real(self):
        v = s_n(0.49, 2, _SPEC).value
        assert v.imag == 0.0

    def test_non_finite_kappa_rejected(self):
        for bad in (math.nan, complex(0.1, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                s_n(bad, 1, _SPEC)
            with pytest.raises(DomainError, match="finite"):
                lint_integral(bad, 2, 1, _SPEC)


class TestMonteCarlo:
    def test_deterministic_replay(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=30000, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            a = s_n(0.3, 1, spec).value
            b = s_n(0.3, 1, spec).value
        assert a == b

    def test_agrees_with_tensor(self):
        spec = QuadratureSpec(
            method="monte_carlo", mc_samples=200000, seed=11, target_rel_error=1e-2
        )
        for n in (1, 2):
            mc = s_n(0.3, n, spec)
            exact = s_n(0.3, n, _SPEC).value
            slack = 5.0 * mc.rel_error_est * abs(mc.value) + 1e-12
            assert abs(mc.value - exact) < slack

    def test_three_particle_term_finite(self):
        spec = QuadratureSpec(
            method="monte_carlo", mc_samples=50000, seed=3, target_rel_error=1.0
        )
        res = s_n(0.3, 3, spec)
        assert np.isfinite(complex(res.value))
        assert res.rel_error_est > 0.0

    def test_warns_when_noisy(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=500, seed=5)
        with pytest.warns(PrecisionWarning):
            s_n(0.3, 2, spec)

    def test_sampler_marginals(self):
        # Kolmogorov-Smirnov at the 1% level against the closed-form CDFs
        N = 100_000
        rng = np.random.Generator(np.random.Philox(key=2024))
        X, Y = integrals._draw_points(rng, N, 1)
        limit = 1.63 / math.sqrt(N)
        assert _ks_distance(X[0], _beta_half_cdf) < limit
        assert _ks_distance(Y[0], lambda y: 1.0 - _beta_half_cdf(1.0 - y)) < limit

    def test_sampler_redraws_degenerate_points(self):
        class Stub:
            """Uniforms whose first draw holds U = 0, U' = 0 and a tie."""

            def __init__(self):
                self.rng, self.calls = np.random.default_rng(1), 0

            def random(self, shape):
                self.calls += 1
                u = self.rng.random(shape)
                if self.calls == 1:
                    u[0, 0, 3] = 0.0       # x = 0
                    u[2, 1, 5] = 0.0       # y = 1
                    u[:, 1, 7] = u[:, 0, 7]  # x_1 = x_2 and y_1 = y_2
                return u

        stub = Stub()
        X, Y = integrals._draw_points(stub, 10, 2)
        assert stub.calls == 2
        assert np.all((X > 0) & (X < 1) & (Y > 0) & (Y < 1))
        assert np.all(X[0] != X[1]) and np.all(Y[0] != Y[1])

    def test_chunked_statistics_match_one_pass(self):
        # the same draws evaluated point by point through the pointwise
        # integrand, divided by the proposal density, then one mean and std
        n, seed, m = 2, 4, integrals._MC_CHUNK + 500
        kappa = 0.4 + 0.2j
        rng = np.random.Generator(np.random.Philox(key=seed))
        vals = []
        for c in (integrals._MC_CHUNK, 500):
            X, Y = integrals._draw_points(rng, c, n)
            for x, y in zip(X.T, Y.T):
                density = np.prod(np.sqrt((1.0 - x) / x) * np.sqrt(y / (1.0 - y)))
                vals.append(_vandermonde_integrand(x, y, kappa, n) / density)
        vals = np.array(vals) * (math.pi / 2.0) ** (2 * n)
        spec = QuadratureSpec(method="monte_carlo", mc_samples=m, seed=seed)
        mean, se = integrals._mc_core(kappa, n, 1, spec, "Sn2")
        assert abs(mean - vals.mean()) <= 1e-12 * abs(mean)
        assert abs(se - np.std(vals) / math.sqrt(m)) <= 1e-10 * se

    @pytest.mark.parametrize("n", [2, 3])
    def test_forms_agree_on_same_draws(self, n):
        spec = QuadratureSpec(
            method="monte_carlo", mc_samples=20000, seed=9, target_rel_error=1.0
        )
        sn2 = s_n(0.2 + 0.3j, n, spec, form="Sn2").value
        sn1 = s_n(0.2 + 0.3j, n, spec, form="Sn1").value
        assert abs(sn1 - sn2) <= 1e-12 * abs(sn2)

    def test_three_particle_term_against_reference(self):
        # 40 x 500k samples drawn with numpy's gamma-ratio Beta sampler,
        # independent of the sampler under test
        ref, ref_se = complex(5.2080388102566976e-18, 2.0190310495494974e-17), 5.80e-20
        spec = QuadratureSpec(
            method="monte_carlo", mc_samples=200_000, seed=1, target_rel_error=1.0
        )
        res = s_n(0.2 + 0.3j, 3, spec)
        se = res.rel_error_est * abs(res.value)
        assert abs(res.value - ref) < 5.0 * math.hypot(se, ref_se)

    def test_memory_flat_in_samples(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=1_000_000, seed=1)
        tracemalloc.start()
        try:
            integrals._mc_core(0.5, 4, 1, spec, "Sn2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _beta_half_cdf(x):
    """CDF of Beta(1/2, 3/2)."""
    return (2.0 / math.pi) * (np.arcsin(np.sqrt(x)) + np.sqrt(x * (1.0 - x)))


def _ks_distance(sample, cdf):
    """Kolmogorov-Smirnov distance between a sample and a continuous CDF."""
    s = np.sort(sample)
    F = cdf(s)
    i = np.arange(1, len(s) + 1)
    return max(np.max(i / len(s) - F), np.max(F - (i - 1) / len(s)))


class TestSTotal:
    def test_two_terms_dominate(self):
        total, _, _ = integrals._sn_sum(0.09, 2, _SPEC)
        lone = s_n(0.09, 1, _SPEC).value
        assert abs(total - lone) < abs(lone) * 0.01
        assert abs(total) > abs(lone)


def _cauchy_derivative(kappa, n, ell, radius):
    """ell-th derivative of S_n at kappa by the Cauchy integral formula,
    trapezoidal on 32 points of the circle of the given radius."""
    P = 32
    theta = 2.0 * math.pi * np.arange(P) / P
    acc = 0j
    for t in theta:
        z = kappa + radius * cmath.exp(1j * t)
        acc += s_n(z, n, _SPEC).value * cmath.exp(-1j * ell * t)
    return math.factorial(ell) * acc / (P * radius**ell)


class TestCauchyDerivatives:
    """S_n is analytic in kappa: complex evaluations on a contour agree with
    the real axis."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_against_finite_differences(self, n):
        kappa, h = 0.2, 1e-4
        d = _cauchy_derivative(kappa, n, 1, 0.3)
        fd = (
            s_n(kappa + h, n, _SPEC).value - s_n(kappa - h, n, _SPEC).value
        ) / (2.0 * h)
        assert abs(d - fd) < 1e-5 * abs(fd)

    def test_radius_independence(self):
        a = _cauchy_derivative(0.3, 1, 2, 0.2)
        b = _cauchy_derivative(0.3, 1, 2, 0.35)
        assert abs(a - b) < 1e-7 * abs(a)

    def test_taylor_coefficient_at_origin(self):
        # S_1 ~ 3 kappa^2/64 so the second derivative at 0 is 3/32
        d = _cauchy_derivative(0.0, 1, 2, 0.3)
        assert abs(d - 3.0 / 32.0) < 1e-4 * (3.0 / 32.0)

    def test_conjugation_symmetry(self):
        up = _cauchy_derivative(0.2 + 0.1j, 1, 1, 0.25)
        dn = _cauchy_derivative(0.2 - 0.1j, 1, 1, 0.25)
        assert abs(up - np.conj(dn)) < 1e-10 * abs(up)

    def test_contour_must_stay_inside(self):
        # s_n refuses the contour points outside the unit disc
        with pytest.raises(DomainError):
            _cauchy_derivative(0.8, 1, 1, 0.3)


class TestProbeIntegral:
    def test_power_zero_recovers_term(self):
        for kappa, n in ((0.4, 1), (0.35, 2)):
            pref = kappa ** (n * (n + 1)) / (
                math.factorial(n) ** 2 * math.pi ** (2 * n)
            )
            li = lint_integral(kappa, n, 0, _SPEC)
            sn = s_n(kappa, n, _SPEC).value
            assert abs(pref * li - sn) < 1e-12 * abs(sn)

    def test_series_matches_direct_quadrature(self):
        # the G = 64 probe against the finer G = 96 rule at a resonant point;
        # TestMomentEngine checks the series against the tensor sum at equal G
        r = 1.0 - 2.0 ** -6
        for ell in (6, 7):
            series = lint_integral(-r, 2, ell, _SPEC)
            finer = lint_integral(-r, 2, ell, QuadratureSpec(nodes_per_dim=96))
            assert abs(series - finer) < 1e-7 * abs(finer)

    def test_monte_carlo_route(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=200000, seed=21)
        mc = lint_integral(0.5, 1, 2, spec)
        exact = lint_integral(0.5, 1, 2, _SPEC)
        assert mc == lint_integral(0.5, 1, 2, spec)
        assert abs(mc - exact) < 2e-2 * abs(exact)

    def test_near_boundary_warns(self):
        with pytest.warns(PrecisionWarning):
            v = lint_integral(-0.9999999, 1, 1, QuadratureSpec(nodes_per_dim=32))
        assert np.isfinite(complex(v))

    def test_validation(self):
        with pytest.raises(DomainError):
            lint_integral(0.3, 0, 1, _SPEC)
        with pytest.raises(DomainError):
            lint_integral(0.3, 1, -1, _SPEC)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.method == "tensor_gauss"
        assert spec.nodes_per_dim == 64

    def test_method_gate(self):
        spec = QuadratureSpec()
        with pytest.raises(DomainError):
            spec.check_method(3)
        QuadratureSpec(method="monte_carlo").check_method(5)


class TestMomentEngine:
    """The n = 2 moment series is the G-node tensor rule summed another way."""

    @pytest.mark.parametrize("G", [32, 48])
    @pytest.mark.parametrize("kappa", [1e-4, 1e-2, 0.5j, -0.7, 0.7 + 0.3j])
    def test_series_matches_tensor_sum(self, kappa, G):
        series = _lint_series(kappa, 2, 0, G, 1e-14)
        tensor = _tensor_core(kappa, 2, 1, G, "Sn2")
        assert abs(series - tensor) <= 1e-12 * abs(tensor)

    def test_resonant_order_seven_matches_tensor_sum(self):
        r = 1.0 - 2.0 ** -8
        series = _lint_series(-r, 2, 7, 48, 1e-12)
        tensor = _tensor_core(-r, 2, 8, 48, "Sn2")
        assert abs(series - tensor) <= 1e-12 * abs(tensor)

    def test_resonant_probe_is_the_node_rule(self):
        # no resonant override: the probe is the nodes_per_dim-node rule
        r = 1.0 - 2.0 ** -8
        value = lint_integral(-r, 2, 7, QuadratureSpec(nodes_per_dim=48))
        tensor = _tensor_core(-r, 2, 8, 48, "Sn2")
        assert abs(value - tensor) <= 1e-12 * abs(tensor)

    def test_resonant_n1_probe_is_the_tensor_sum(self, monkeypatch):
        kappa, ell, G = 0.95, 3, 32
        tensor = _tensor_core(kappa, 1, ell + 1, G, "Sn2")

        def forbidden(*args):
            raise AssertionError("moment series called")

        monkeypatch.setattr(integrals, "_lint_series", forbidden)
        value = lint_integral(kappa, 1, ell, QuadratureSpec(nodes_per_dim=G))
        assert abs(value - tensor) <= 1e-13 * abs(tensor)

    def test_resonant_n1_probe_near_the_circle(self):
        value = lint_integral(0.9999, 1, 7, _SPEC)
        assert np.isfinite(complex(value))

    def test_off_axis_probe_uses_series(self, monkeypatch):
        # kappa^2 = -0.9025 is not resonant; the series runs all the same
        kappa, ell, G = 0.95j, 3, 16
        tensor = _tensor_core(kappa, 2, ell + 1, G, "Sn2")

        def forbidden(*args):
            raise AssertionError("tensor sum called")

        monkeypatch.setattr(integrals, "_tensor_core", forbidden)
        value = lint_integral(kappa, 2, ell, QuadratureSpec(nodes_per_dim=G))
        assert abs(value - tensor) <= 1e-12 * abs(tensor)

    def test_s2_skips_tensor_sum(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("tensor sum called")

        monkeypatch.setattr(integrals, "_tensor_core", forbidden)
        res = s_n(0.5, 2, QuadratureSpec(nodes_per_dim=64))
        # the G = 64/96 tensor sums give 5.41327770475274e-07
        assert abs(res.value - 5.41327770475274e-07) < 1e-13 * 5.41327770475274e-07
        assert res.rel_error_est < 1e-13

    def test_probe_at_zero_kappa(self):
        # no prefactor here: the series keeps only its m = 0 moment
        value = lint_integral(0.0, 2, 3, QuadratureSpec(nodes_per_dim=16))
        tensor = _tensor_core(0.0, 2, 4, 16, "Sn2")
        assert value != 0.0
        assert abs(value - tensor) <= 1e-12 * abs(tensor)

    def test_zero_kappa_needs_no_quadrature(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("quadrature called")

        for name in ("_tensor_core", "_lint_series", "_mc_core"):
            monkeypatch.setattr(integrals, name, forbidden)
        for spec in (_SPEC, QuadratureSpec(method="monte_carlo", mc_samples=100)):
            for n, form in ((1, "Sn1"), (2, "Sn1"), (2, "Sn2")):
                res = s_n(0.0, n, spec, form=form)
                assert res.value == 0.0
                assert res.rel_error_est == 0.0

    def test_contour_keeps_probe_moments_cached(self):
        # eviction goes by stored moments, not keys: 32 short series stored
        # after the ray leave the ray's moments in the cache
        r = 1.0 - 2.0 ** -6
        spec = QuadratureSpec()
        lint_integral(-r, 2, 7, spec)
        for j in range(32):
            lint_integral(0.3 + 0.2 * cmath.exp(2j * math.pi * j / 32), 2, 0, spec)
        assert (complex(-r), 2, spec.nodes_per_dim) in integrals._BM_CACHE


def _full_bm_chunk(kappa, G, m0, m1):
    """The unpruned n = 2 moment kernel on all G nodes: oracle for _bm_chunk."""
    kappa = integrals._real(kappa)
    x, wx, wy = integrals._axis_nodes(G, kappa)
    C2 = (1.0 / (1.0 - kappa * np.outer(x, x))) ** 2
    d = x - x[-1]
    Xp = np.exp(np.log(x)[:, None] * np.arange(m0 + 1, m1 + 1))
    f = wx[:, None] * Xp
    i, j = np.triu_indices(G, 1)
    Q = (C2[:, i] * C2[:, j]).T @ np.hstack((f, d[:, None] * f, (d * d)[:, None] * f))
    k = m1 - m0
    xside = Q[:, :k] * Q[:, 2 * k:] - Q[:, k:2 * k] * Q[:, k:2 * k]
    yside = (wy[i] * wy[j] * (x[i] - x[j]) ** 2)[:, None] * Xp[i] * Xp[j]
    return 4.0 * np.einsum("pm,pm->m", yside, xside)


def _tuple_terms(kappa, G, m):
    """Every ordered tuple term (a, b, i, j) of B_m, x pair (a, b), y pair (i, j)."""
    x, wx, wy = integrals._axis_nodes(G, kappa)
    C2 = (1.0 / (1.0 - kappa * np.outer(x, x))) ** 2
    f = wx * x ** (m + 1)
    g = wy * x ** (m + 1)
    dx2 = (x[:, None] - x[None, :]) ** 2
    xpair = f[:, None] * f[None, :] * dx2
    ypair = g[:, None] * g[None, :] * dx2
    cross = np.einsum("ai,aj,bi,bj->abij", C2, C2, C2, C2)
    return xpair[:, :, None, None] * ypair[None, None, :, :] * cross


def _drop_bound(kappa, G, m, c):
    """E_m for dropping the c smallest nodes."""
    x, wx, wy = integrals._axis_nodes(G, kappa)
    cmax = np.abs(1.0 / (1.0 - kappa * np.outer(x, x))).max()
    px = np.abs(wx) * x ** (m + 1)
    py = np.abs(wy) * x ** (m + 1)
    Sx, Sy, Dx, Dy = px.sum(), py.sum(), px[:c].sum(), py[:c].sum()
    return 2.0 * cmax**8 * (Dx * Sx * Sy**2 + Dy * Sy * Sx**2)


def _kept_pair_bound(kappa, G, m, c):
    """R_m of the best x pair and the best y pair among the kept nodes."""
    x, wx, wy = integrals._axis_nodes(G, kappa)
    cmin = np.abs(1.0 / (1.0 - kappa * np.outer(x, x))).min()
    dx2 = np.triu((x[c:, None] - x[None, c:]) ** 2, 1)
    best = [(np.outer(p, p) * dx2).max()
            for p in (np.abs(w[c:]) * x[c:] ** (m + 1) for w in (wx, wy))]
    return 4.0 * cmin**8 * best[0] * best[1]


_PRUNE_KAPPAS = [1e-4, 1e-2, 0.5j, -0.7, 0.7 + 0.3j, 0.97, 0.95j, -(1.0 - 2.0**-10),
                 0.99 * np.exp(0.4j)]


class TestPrunedMoments:
    """_bm_chunk drops only nodes whose share is proven below rounding."""

    @pytest.mark.parametrize("G", [16, 48])
    @pytest.mark.parametrize("kappa", _PRUNE_KAPPAS)
    def test_matches_full_kernel(self, kappa, G):
        for m0 in range(0, 4096, 256):
            pruned = integrals._bm_chunk(complex(kappa), 2, G, m0, m0 + 256)
            full = _full_bm_chunk(complex(kappa), G, m0, m0 + 256)
            assert np.all(np.abs(pruned - full) <= 1e-15 * np.abs(full))

    @pytest.mark.parametrize("kappa", [-0.7, 0.7 + 0.3j, -(1.0 - 2.0**-10)])
    def test_prefix_chunks(self, kappa, monkeypatch):
        # the chunks _bm_prefix asks for: each within 256 G(G-1)/2 kept pair
        # entries, and each the full-node rule to rounding
        kappa, G = complex(kappa), 48
        chunks = []
        kernel = integrals._bm_chunk

        def spy(kappa, n, G, m0, m1):
            chunks.append((m0, m1))
            return kernel(kappa, n, G, m0, m1)

        monkeypatch.setattr(integrals, "_bm_chunk", spy)
        integrals._BM_CACHE.pop((kappa, 2, G), None)
        bm = integrals._bm_prefix(kappa, 2, G, 8192)
        assert chunks[0] == (0, 256) and chunks[-1][1] == 8192
        assert len(chunks) < 8192 // 256
        for m0, m1 in chunks:
            kept = G - integrals._bm_drop(kappa, G, m0, m1)
            assert kept * (kept - 1) // 2 * (m1 - m0) <= 256 * G * (G - 1) // 2
            full = _full_bm_chunk(kappa, G, m0, m1)
            assert np.all(np.abs(bm[m0:m1] - full) <= 1e-15 * np.abs(full))

    @pytest.mark.parametrize("G", [16, 48])
    @pytest.mark.parametrize("kappa", _PRUNE_KAPPAS)
    def test_dropped_counts(self, kappa, G):
        drops = [integrals._bm_drop(complex(kappa), G, m0, m0 + 256)
                 for m0 in range(0, 4096, 256)]
        assert all(G - c >= 2 for c in drops)
        assert drops == sorted(drops)
        assert drops[0] < drops[-1]

    @pytest.mark.parametrize("kappa", [0.5, 0.7 + 0.3j, 0.97, -(1.0 - 2.0**-10)])
    def test_bound_covers_brute_force(self, kappa):
        kappa, G = complex(kappa), 12
        full = _tuple_terms(kappa, G, 0).sum()
        assert abs(full - _full_bm_chunk(kappa, G, 0, 1)[0]) <= 1e-14 * abs(full)
        lowest = np.indices((G,) * 4).min(axis=0)
        for m in (0, 40, 300, 2000):
            terms = _tuple_terms(kappa, G, m)
            scale = np.abs(terms).sum()
            for c in range(1, G - 1):
                dropped = terms[lowest < c].sum()
                assert abs(dropped) <= _drop_bound(kappa, G, m, c)
                assert _kept_pair_bound(kappa, G, m, c) <= scale

    @pytest.mark.parametrize("G", [16, 48])
    @pytest.mark.parametrize("kappa", _PRUNE_KAPPAS)
    def test_drop_bound_below_kept_pairs(self, kappa, G):
        # the best kept pairs give at least the R_m that _bm_drop tests with
        kappa = complex(kappa)
        for m0 in range(0, 4096, 256):
            c = integrals._bm_drop(kappa, G, m0, m0 + 256)
            for m in range(m0, m0 + 258, 16):
                bound = _drop_bound(kappa, G, m, c)
                assert bound <= 2.0**-52 * _kept_pair_bound(kappa, G, m, c)


class TestMomentAccuracy:
    """Each B_m to rounding: the x side is formed about the top node."""

    @pytest.mark.parametrize("kappa", [0.5, 0.7 + 0.3j, 0.97, -(1.0 - 2.0**-10), 0.5j])
    def test_single_moments_match_tuple_sum(self, kappa):
        kappa, G = complex(kappa), 12
        for m in (0, 40, 300, 2000):
            want = _tuple_terms(kappa, G, m).sum()
            got = integrals._bm_chunk(kappa, 2, G, m, m + 1)[0]
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("kappa", [0.5, 0.7 + 0.3j, 0.5j, -(1.0 - 2.0**-10)])
    def test_chunking_does_not_move_moments(self, kappa):
        kappa, G, M = complex(kappa), 16, 2048

        def chunked(size):
            return np.concatenate([integrals._bm_chunk(kappa, 2, G, m0, min(M, m0 + size))
                                   for m0 in range(0, M, size)])

        a, b = chunked(256), chunked(200)
        assert np.all(np.abs(a - b) <= 1e-14 * np.abs(a))

    def test_off_axis_probe_matches_tensor_sum(self):
        kappa, G = complex(0.99 * np.exp(0.4j)), 48
        value = lint_integral(kappa, 2, 7, QuadratureSpec(nodes_per_dim=G))
        tensor = _tensor_core(kappa, 2, 8, G, "Sn2")
        assert abs(value - tensor) <= 1e-13 * abs(tensor)


class TestRealPath:
    """Real kappa keeps the nodes and the moments in float64."""

    @pytest.mark.parametrize("kappa, kind", [(0.5, "f"), (-0.9, "f"), (0.5j, "c"),
                                             (0.3 + 0.2j, "c")])
    def test_dtypes(self, kappa, kind):
        kappa, G = complex(kappa), 16
        assert all(v.dtype.kind == kind for v in integrals._axis_nodes(G, kappa)[1:])
        integrals._BM_CACHE.pop((kappa, 2, G), None)
        lint_integral(kappa, 2, 3, QuadratureSpec(nodes_per_dim=G))
        assert integrals._BM_CACHE[(kappa, 2, G)].dtype.kind == kind
