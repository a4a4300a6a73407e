"""Form-factor integrals: integrands, quadrature, derivatives, probe integral."""
import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ising_lab import (ConvergenceError, DomainError, PrecisionWarning, QuadratureSpec,
                       lint_integral, s_n)
from ising_lab import fredholm, integrals
from ising_lab.integrals import _cauchy_sn, _lint_series, _tensor_core

_SPEC = QuadratureSpec(nodes_per_dim=64)
# S_3(0.2+0.3i), prefactor included, from 40 x 500k samples drawn with numpy's
# gamma-ratio Beta sampler, independent of the sampler under test.
# scripts/s3_reference.py recomputes it that way (default seed 20240814):
# complex(5.242176479795469e-18, 2.0234800859213403e-17), SE 5.93e-20, 0.95 SE
# from the stored value below
_S3_REF = complex(5.2080388102566976e-18, 2.0190310495494974e-17)
_S3_REF_SE = 5.80e-20
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


def _vandermonde_tensor(kappa, power, G):
    """The n = 2 Vandermonde-form (Sn2) G-node tensor sum with resonant
    exponent `power`, pointwise in O(G^4): the oracle for the moment series,
    which sums the same rule in another order."""
    kappa = integrals._real(kappa)
    x, wx, wy = integrals._axis_nodes(G, kappa)
    kn = kappa * kappa
    X2 = x[:, None, None]
    Y1 = x[None, :, None]
    Y2 = x[None, None, :]
    W = wx[:, None, None] * wy[None, :, None] * wy[None, None, :]
    yy = (Y2 - Y1) ** 2
    total = 0.0 + 0.0j
    for a in range(G):
        x1 = x[a]
        u = (x1 * X2) * (Y1 * Y2)
        first = u / (1.0 - kn * u) ** power
        num = (X2 - x1) ** 2 * yy
        den = (1.0 - kappa * x1 * Y1) * (1.0 - kappa * x1 * Y2)
        den = den * (1.0 - kappa * X2 * Y1)
        den = den * (1.0 - kappa * X2 * Y2)
        total += wx[a] * np.sum(W * first * (num / (den * den)))
    return complex(total)


def _cauchy_tensor(kappa, G):
    """The n = 2 Cauchy-determinant form (Sn1) S_2 as the pointwise G-node
    tensor sum in O(G^4), prefactor included: the oracle for _cauchy_sn,
    which sums the same rule in another order."""
    kappa = integrals._real(kappa)
    x, wx, wy = integrals._axis_nodes(G, kappa)
    kn = kappa * kappa
    X2 = x[:, None, None]
    Y1 = x[None, :, None]
    Y2 = x[None, None, :]
    W = wx[:, None, None] * wy[None, :, None] * wy[None, None, :]
    total = 0.0 + 0.0j
    for a in range(G):
        x1 = x[a]
        u = (x1 * X2) * (Y1 * Y2)
        first = u / (1.0 - kn * u)
        c11 = 1.0 / (1.0 - kappa * x1 * Y1)
        c12 = 1.0 / (1.0 - kappa * x1 * Y2)
        c21 = 1.0 / (1.0 - kappa * X2 * Y1)
        c22 = 1.0 / (1.0 - kappa * X2 * Y2)
        det = c11 * c22 - c12 * c21
        total += wx[a] * np.sum(W * first * (det * det))
    return kappa**4 / (4.0 * math.pi**4) * complex(total)


def _cauchy_tuples(kappa, n, G):
    """Sn1's S_n as the brute-force sum over every (x, y) node tuple of the
    G-node rule, G^(2n) points, prefactor included."""
    x, wx, wy = integrals._axis_nodes(G, kappa)
    idx = np.indices((G,) * (2 * n)).reshape(2 * n, -1)
    X, Y = x[idx[:n]], x[idx[n:]]
    u = np.prod(X, axis=0) * np.prod(Y, axis=0)
    C = 1.0 / (1.0 - kappa * X.T[:, :, None] * Y.T[:, None, :])
    w = np.prod(wx[idx[:n]], axis=0) * np.prod(wy[idx[n:]], axis=0)
    raw = np.sum(w * u / (1.0 - kappa**n * u) * np.linalg.det(C) ** 2)
    return kappa ** (2 * n) / (math.factorial(n) ** 2 * math.pi ** (2 * n)) * raw


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
        spec = QuadratureSpec(method="monte_carlo", mc_samples=200000, seed=11)
        for n in (1, 2):
            mc = s_n(0.3, n, spec)
            exact = s_n(0.3, n, _SPEC).value
            slack = 5.0 * mc.rel_error_est * abs(mc.value) + 1e-12
            assert abs(mc.value - exact) < slack

    def test_three_particle_term_finite(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=50000, seed=3)
        res = s_n(0.3, 3, spec)
        assert np.isfinite(complex(res.value))
        assert res.rel_error_est > 0.0

    def test_warns_when_noisy(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=500, seed=5)
        with pytest.warns(PrecisionWarning):
            s_n(0.3, 2, spec)

    def test_sampler_marginals(self):
        # Kolmogorov-Smirnov at the 1% level against the closed-form CDFs:
        # P(V^2 <= x) = sqrt(x) and P(1 - W^2 <= y) = 1 - sqrt(1 - y)
        N = 100_000
        rng = np.random.Generator(np.random.Philox(key=2024))
        X, Y = integrals._draw_points(rng, N, 1)
        limit = 1.63 / math.sqrt(N)
        assert _ks_distance(X[0], np.sqrt) < limit
        assert _ks_distance(Y[0], lambda y: 1.0 - np.sqrt(1.0 - y)) < limit

    def test_sampler_redraws_degenerate_points(self):
        class Stub:
            """(2, n, k) uniforms whose first draw holds V = 0, W = 0 and a tie."""

            def __init__(self):
                self.rng, self.calls = np.random.default_rng(1), 0

            def random(self, shape):
                self.calls += 1
                u = self.rng.random(shape)
                if self.calls == 1:
                    assert u.shape == (2, 2, 10)
                    u[0, 0, 3] = 0.0       # x = 0
                    u[1, 1, 5] = 0.0       # y = 1
                    u[:, 1, 7] = u[:, 0, 7]  # x_1 = x_2 and y_1 = y_2
                return u

        stub = Stub()
        X, Y = integrals._draw_points(stub, 10, 2)
        assert stub.calls == 2
        assert np.all((X > 0) & (X < 1) & (Y > 0) & (Y < 1))
        assert np.all(X[0] != X[1]) and np.all(Y[0] != Y[1])

    def test_chunked_statistics_match_one_pass(self):
        # the same draws evaluated point by point through the pointwise
        # integrand, divided by the normalized proposal density, then one
        # mean and std: _mc_core leaves the density's constant 4^n to the end
        n, seed, m = 2, 4, integrals._MC_CHUNK + 500
        kappa = 0.4 + 0.2j
        rng = np.random.Generator(np.random.PCG64DXSM(seed))
        vals = []
        for c in (integrals._MC_CHUNK, 500):
            X, Y = integrals._draw_points(rng, c, n)
            for x, y in zip(X.T, Y.T):
                density = np.prod(1.0 / (2.0 * np.sqrt(x)) / (2.0 * np.sqrt(1.0 - y)))
                vals.append(_vandermonde_integrand(x, y, kappa, n) / density)
        vals = np.array(vals)
        spec = QuadratureSpec(method="monte_carlo", mc_samples=m, seed=seed)
        mean, se = integrals._mc_core(kappa, n, 1, spec)
        assert abs(mean - vals.mean()) <= 1e-12 * abs(mean)
        assert abs(se - np.std(vals) / math.sqrt(m)) <= 1e-10 * se

    def test_three_particle_term_against_reference(self):
        _check_three_particle_term(seed=1)

    @pytest.mark.parametrize("seed", range(2, 11))
    def test_three_particle_seeds_against_reference(self, seed):
        _check_three_particle_term(seed)

    def test_four_particle_standard_error(self):
        # about 0.03 here, so the library default stays quiet; the Beta
        # proposal gave 0.076-0.112
        spec = QuadratureSpec(method="monte_carlo", mc_samples=200_000, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            assert s_n(0.5, 4, spec).rel_error_est <= 0.05

    def test_underflowed_mean_is_not_exact(self):
        # every sample underflows at n = 16: a 0 with an unknown error, not
        # an exact 0; n = 12 still has samples and warns by its spread
        spec = QuadratureSpec(method="monte_carlo", mc_samples=20_000, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = s_n(0.5, 16, spec)
        assert res.value == 0.0 and res.rel_error_est == math.inf
        assert [str(w.message) for w in caught if w.category is PrecisionWarning] == [
            "S_n at n=16, kappa=(0.5+0j) underflows to 0: its monte_carlo value is "
            "below the float range, so its relative error is unknown"]
        with pytest.warns(PrecisionWarning, match="standard error"):
            assert s_n(0.5, 12, spec).value != 0.0

    def test_memory_flat_in_samples(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=1_000_000, seed=1)
        tracemalloc.start()
        try:
            integrals._mc_core(0.5, 4, 1, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _per_coordinate_smooth(kappa, X, Y):
    """The Monte Carlo smooth factor with one principal root and one
    division per coordinate, prod_i sqrt((1 - kappa x_i)(1 - x_i) y_i /
    (1 - kappa y_i)): the oracle for _mc_smooth's grouped roots."""
    out = np.ones(X.shape[1], dtype=np.result_type(kappa))
    for i in range(len(X)):
        r = (1.0 - kappa * X[i]) * ((1.0 - X[i]) * Y[i])
        out *= np.sqrt(r / (1.0 - kappa * Y[i]))
    return out


def _per_coordinate_samples(kappa, n, power, spec):
    """Every Monte Carlo sample of _mc_core's stream with the smooth factor
    and the density's factor 4 taken per coordinate after the squared
    vdm / pair, and no check that the samples are finite: the oracle for
    the grouped kernel's range."""
    kappa = integrals._real(complex(kappa))
    rng = np.random.Generator(np.random.PCG64DXSM(spec.seed))
    kn, done, parts = kappa**n, 0, []
    with np.errstate(all="ignore"):
        while done < spec.mc_samples:
            c = min(integrals._MC_CHUNK, spec.mc_samples - done)
            X, Y = integrals._draw_points(rng, c, n)
            u = np.prod(X, axis=0) * np.prod(Y, axis=0)
            vals = u / (1.0 - kn * u) ** power
            vdm = np.ones(c)
            pair = np.ones(c, dtype=np.result_type(kappa))
            for i in range(n):
                for j in range(n):
                    pair *= 1.0 - kappa * (X[i] * Y[j])
                    if i < j:
                        vdm *= (X[j] - X[i]) * (Y[j] - Y[i])
            core = vdm / pair
            vals = vals * (core * core)
            for i in range(n):
                vals *= 4.0 * _per_coordinate_smooth(kappa, X[i : i + 1], Y[i : i + 1])
            parts.append(vals)
            done += c
    return np.concatenate(parts)


_SMOOTH_RADII = (0.5, 0.87, 0.99, 0.999)


def _smooth_kappas(r):
    """kappa of modulus r: real of both signs, and the phases 0, +-pi/4,
    +-pi/2, +-3pi/4, pi and +-acos r.  At phase acos r (Re kappa = r^2)
    1 - kappa x comes nearest the tangent from 0 to its disk about 1, so
    its argument nears asin r, the bound _mc_group is built on."""
    phases = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi, math.acos(r))
    kappas = [r, -r] + [cmath.rect(r, s * p) for p in phases for s in (1, -1)]
    return [integrals._real(complex(k)) for k in kappas]


class TestGroupedSmoothFactor:
    """_mc_smooth's one root per group of coordinates against one per coordinate."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_per_coordinate_roots(self, n):
        rng = np.random.Generator(np.random.Philox(key=n))
        X, Y = integrals._draw_points(rng, 4096, n)
        for r in _SMOOTH_RADII:
            for kappa in _smooth_kappas(r):
                g = integrals._mc_group(kappa, n)
                got = integrals._mc_smooth(kappa, X, Y, g)
                want = _per_coordinate_smooth(kappa, X, Y)
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (kappa, g)

    def test_group_sizes(self):
        # all of n at real kappa; two groups at n = 3 past |kappa| = sin(pi/3)
        assert integrals._mc_group(0.999, 8) == 8
        assert integrals._mc_group(-0.999, 8) == 8
        assert integrals._mc_group(0.86 + 0.1j, 3) == 3
        for r in _SMOOTH_RADII[1:]:
            for kappa in _smooth_kappas(r):
                if isinstance(kappa, complex):
                    assert integrals._mc_group(kappa, 3) == 2
        assert integrals._mc_group(0.4j, 9) == 7

    def test_one_root_for_all_coordinates_fails(self):
        # at kappa = 0.999i the arguments of eight ratios add past pi for
        # some samples, and a single root then flips their sign
        kappa, n = 0.999j, 8
        X, Y = integrals._draw_points(np.random.Generator(np.random.Philox(key=n)), 4096, n)
        want = _per_coordinate_smooth(kappa, X, Y)
        grouped = integrals._mc_smooth(kappa, X, Y, integrals._mc_group(kappa, n))
        single = integrals._mc_smooth(kappa, X, Y, n)
        assert np.all(np.abs(grouped - want) <= 1e-14 * np.abs(want))
        assert np.max(np.abs(single - want) / np.abs(want)) > 1.0


class TestMonteCarloRange:
    """Grouping the roots and scaling u by 4^n first underflows no earlier."""

    @pytest.mark.parametrize("kappa", [0.5, 0.99j])
    @pytest.mark.parametrize("n", [10, 20, 40, 60, 120])
    def test_no_earlier_underflow(self, n, kappa):
        # finite wherever the per-coordinate kernel was, and to rounding the
        # same mean; where its samples were not (n = 120, kappa = 0.99i:
        # the pair product overflows to inf while the Vandermonde one
        # underflows to 0), a ConvergenceError, not a NaN mean
        spec = QuadratureSpec(method="monte_carlo", mc_samples=1000, seed=3)
        old = _per_coordinate_samples(kappa, n, 1, spec)
        if not np.all(np.isfinite(old)):
            with pytest.raises(ConvergenceError, match="underflow"):
                integrals._mc_core(complex(kappa), n, 1, spec)
            return
        mean, se = integrals._mc_core(complex(kappa), n, 1, spec)
        assert np.isfinite(mean) and np.isfinite(se)
        assert abs(mean - old.mean()) <= 1e-12 * abs(old.mean())


def _check_three_particle_term(seed):
    """S_3(0.2+0.3i) at 200k samples: within 5 SE of the reference, and a
    relative standard error of at most 0.018.  The x^(-1/2), (1-y)^(-1/2)
    proposal gives about 0.0129 here; the Beta(1/2, 3/2) x Beta(3/2, 1/2)
    proposal it replaced gave 0.0266 at seed 1."""
    spec = QuadratureSpec(method="monte_carlo", mc_samples=200_000, seed=seed)
    res = s_n(0.2 + 0.3j, 3, spec)
    assert res.rel_error_est <= 0.018
    se = res.rel_error_est * abs(res.value)
    assert abs(res.value - _S3_REF) < 5.0 * math.hypot(se, _S3_REF_SE)


def _ks_distance(sample, cdf):
    """Kolmogorov-Smirnov distance between a sample and a continuous CDF."""
    s = np.sort(sample)
    F = cdf(s)
    i = np.arange(1, len(s) + 1)
    return max(np.max(i / len(s) - F), np.max(F - (i - 1) / len(s)))


class TestCauchySpectralSum:
    """Sn1 for n >= 2: the G-node rule of the squared Cauchy determinant as
    one spectral sum over the Nystrom matrices."""

    @pytest.mark.parametrize("kappa", [0.5, 0.5j, -0.9, 0.95j, 0.9 * cmath.exp(2j)])
    @pytest.mark.parametrize("G", [16, 24])
    def test_n2_matches_tensor_sum(self, kappa, G):
        got = _cauchy_sn(kappa, 2, G)[0]
        want = _cauchy_tensor(kappa, G)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kappa, rtol", [
        # complex kappa takes np.linalg.eigvals, accurate to eps times the
        # largest eigenvalue (1e-10 seen); real kappa squared singular
        # values (4e-14 seen)
        (0.5, 1e-12), (-0.7, 1e-12), (0.2 + 0.3j, 1e-9), (0.9 * cmath.exp(2j), 1e-9),
    ])
    def test_n3_matches_tuple_sum(self, kappa, rtol):
        got = _cauchy_sn(kappa, 3, 6)[0]
        want = _cauchy_tuples(complex(kappa), 3, 6)
        assert abs(got - want) <= rtol * abs(want)

    def test_more_particles_than_nodes_vanish(self):
        assert _cauchy_sn(0.5, 5, 4) == (0j, 0, 0.0)

    def test_three_and_four_particle_terms_against_monte_carlo(self):
        # each within 5 combined SE of the Vandermonde form's Monte Carlo,
        # S_3 also of the stored reference
        spec = QuadratureSpec(method="monte_carlo", mc_samples=200_000, seed=1)
        for kappa, n in ((0.2 + 0.3j, 3), (0.5, 4)):
            sn1 = s_n(kappa, n, _SPEC, form="Sn1")
            mc = s_n(kappa, n, spec)
            se = mc.rel_error_est * abs(mc.value)
            assert abs(sn1.value - mc.value) < 5.0 * se
            assert sn1.rel_error_est < 1e-7
            if n == 3:
                assert abs(sn1.value - _S3_REF) < 5.0 * _S3_REF_SE

    @pytest.mark.parametrize("kappa", [0.99, -0.99])
    def test_pruning_keeps_the_rule(self, kappa, monkeypatch):
        pruned = _cauchy_sn(kappa, 2, 32)[0]
        monkeypatch.setattr(integrals, "_cauchy_drop", lambda *args: 0)
        full = _cauchy_sn(kappa, 2, 32)[0]
        assert abs(pruned - full) <= 1e-15 * abs(full)

    @pytest.mark.parametrize("kappa, n", [(0.99, 2), (-0.99, 3), (0.9j, 2)])
    def test_tail_covers_the_terms_past_the_stop(self, kappa, n, monkeypatch):
        # with no node dropped, a run to a far stricter stop repeats the
        # same stacks and then adds the terms past the first stop
        monkeypatch.setattr(integrals, "_cauchy_drop", lambda *args: 0)
        value, terms, tail = _cauchy_sn(kappa, n, 24)
        assert 0.0 < tail <= integrals._GAUSS_RTOL * abs(value)
        monkeypatch.setattr(integrals, "_GAUSS_RTOL", 1e-30)
        longer, more, _ = _cauchy_sn(kappa, n, 24)
        assert more > terms
        assert abs(longer - value) <= tail + 4e-16 * abs(value)

    def test_sn1_needs_no_tensor_sum_or_monte_carlo(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("tensor sum or Monte Carlo called")

        for name in ("_tensor_core", "_mc_core"):
            monkeypatch.setattr(integrals, name, forbidden)
        for n in (2, 3):
            res = s_n(0.5, n, _SPEC, form="Sn1")
            assert res.value != 0.0
            assert res.rel_error_est < 1e-9

    def test_monte_carlo_rejected(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=1000)
        for n in (1, 2, 3):
            with pytest.raises(DomainError, match="Monte Carlo"):
                s_n(0.5, n, spec, form="Sn1")

    def test_large_n_underflows_to_zero(self, monkeypatch):
        # from n = 79 the prefactor is below the float range: 0, no quadrature
        def forbidden(*args):
            raise AssertionError("quadrature called")

        for name in ("_cauchy_sn", "_mc_core"):
            monkeypatch.setattr(integrals, name, forbidden)
        spec = QuadratureSpec(method="monte_carlo", mc_samples=1000)
        for n in (79, 99, 200, 600):
            for res in (s_n(0.99, n, _SPEC, form="Sn1"), s_n(0.5 + 0.1j, n, spec)):
                assert res.value == 0.0 and res.rel_error_est == 0.0

    def test_underflowed_sum_is_not_exact(self):
        # e_20 of the eigenvalues at kappa = 0.9 underflows on both rules,
        # so their gap reads 0 while the prefactor is about 1e-76
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = s_n(0.9, 20, QuadratureSpec(), form="Sn1")
        assert integrals._prefactor(0.9, 20) != 0.0
        assert res.value == 0.0 and res.rel_error_est == math.inf
        msgs = [str(w.message) for w in caught if w.category is PrecisionWarning]
        assert len(msgs) == 1 and "underflows to 0" in msgs[0]

    def test_more_terms_than_nodes_is_exact(self):
        # n above both node counts (8 and 12): no n distinct nodes, exact 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = s_n(0.5, 13, QuadratureSpec(nodes_per_dim=8), form="Sn1")
        assert res.value == 0.0 and res.rel_error_est == 0.0


class TestSTotal:
    def test_two_terms_dominate(self):
        lone = s_n(0.09, 1, _SPEC).value
        total = lone + s_n(0.09, 2, _SPEC).value
        assert abs(total - lone) < abs(lone) * 0.01
        assert abs(total) > abs(lone)


class TestNystrom:
    """The integral route's det(I - K_N) - 1 on Gauss nodes and the Cauchy
    kernel, against the Hankel factorization of the fredholm route."""

    @pytest.mark.parametrize("k", [
        0.3, 0.7, 0.9, -0.6, 0.5 + 0.3j, 0.3j, 0.9 * cmath.exp(0.5j),
    ])
    @pytest.mark.parametrize("G", [64, 96])
    def test_terms_match_det_at(self, k, G):
        n = 40
        got = integrals._nystrom_terms(k * k, n, G)
        want = fredholm._det_at(complex(k), 1, n).values - 1.0
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_real_kappa_stays_real(self):
        assert integrals._nystrom_terms(0.25, 3, 64).dtype == np.float64


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

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            QuadratureSpec(method="monte_carlo", seed=-1)
        assert QuadratureSpec(method="monte_carlo", seed=0).seed == 0

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
        series = _lint_series(kappa, 0, G, 1e-14)
        tensor = _vandermonde_tensor(kappa, 1, G)
        assert abs(series - tensor) <= 1e-12 * abs(tensor)

    def test_resonant_order_seven_matches_tensor_sum(self):
        r = 1.0 - 2.0 ** -8
        series = _lint_series(-r, 7, 48, 1e-12)
        tensor = _vandermonde_tensor(-r, 8, 48)
        assert abs(series - tensor) <= 1e-12 * abs(tensor)

    def test_resonant_probe_is_the_node_rule(self):
        # no resonant override: the probe is the nodes_per_dim-node rule
        r = 1.0 - 2.0 ** -8
        value = lint_integral(-r, 2, 7, QuadratureSpec(nodes_per_dim=48))
        tensor = _vandermonde_tensor(-r, 8, 48)
        assert abs(value - tensor) <= 1e-12 * abs(tensor)

    def test_resonant_n1_probe_is_the_tensor_sum(self, monkeypatch):
        kappa, ell, G = 0.95, 3, 32
        tensor = _tensor_core(kappa, 1, ell + 1, G)

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
        tensor = _vandermonde_tensor(kappa, ell + 1, G)

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
        tensor = _vandermonde_tensor(0.0, 4, 16)
        assert value != 0.0
        assert abs(value - tensor) <= 1e-12 * abs(tensor)

    def test_zero_kappa_needs_no_quadrature(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("quadrature called")

        for name in ("_tensor_core", "_lint_series", "_mc_core", "_cauchy_sn"):
            monkeypatch.setattr(integrals, name, forbidden)
        mc = QuadratureSpec(method="monte_carlo", mc_samples=100)
        # Monte Carlo evaluates the Vandermonde form only
        for spec, n, form in ((_SPEC, 1, "Sn1"), (_SPEC, 2, "Sn1"), (_SPEC, 3, "Sn1"),
                              (_SPEC, 2, "Sn2"), (mc, 1, "Sn2"), (mc, 3, "Sn2")):
            res = s_n(0.0, n, spec, form=form)
            assert res.value == 0.0
            assert res.rel_error_est == 0.0

    def test_contour_keeps_probe_moments_cached(self, monkeypatch):
        # the 32-point contour's windows stored after the ray leave the
        # ray's windows in the cache: re-evaluating the ray runs no kernel
        r = 1.0 - 2.0 ** -6
        spec = QuadratureSpec()
        first = lint_integral(-r, 2, 7, spec)
        for j in range(32):
            lint_integral(0.3 + 0.2 * cmath.exp(2j * math.pi * j / 32), 2, 0, spec)

        def forbidden(*args):
            raise AssertionError("moment kernel called")

        monkeypatch.setattr(integrals, "_bm_chunk", forbidden)
        assert lint_integral(-r, 2, 7, spec) == first


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


def _gathered_bm_chunk(kappa, G, m0, m1):
    """_bm_chunk with the pair matrix CC2 gathered by the index arrays of
    every pair at once, over the same blocks of moments: the oracle for its
    block-built CC2.  Returns the moments, the kept count and the number of
    moment blocks."""
    c = integrals._bm_drop(kappa, G, m0, m1)
    kappa = integrals._real(kappa)
    x, wx, wy = (v[c:] for v in integrals._axis_nodes(G, kappa))
    C2 = (1.0 / (1.0 - kappa * np.outer(x, x))) ** 2
    d = x - x[-1]
    i, j = np.triu_indices(len(x), 1)
    CC2 = C2[i]
    CC2 *= C2[j]
    step = max(len(x), integrals._BM_BLOCK // len(i))
    parts = []
    for b0 in range(m0, m1, step):
        Xp = np.exp(np.log(x)[:, None] * np.arange(b0 + 1, min(m1, b0 + step) + 1))
        f = wx[:, None] * Xp
        xside = CC2 @ f
        xside *= CC2 @ ((d * d)[:, None] * f)
        R1 = CC2 @ (d[:, None] * f)
        R1 *= R1
        xside -= R1
        yside = (wy[i] * wy[j] * (x[i] - x[j]) ** 2)[:, None] * Xp[i]
        yside *= Xp[j]
        parts.append(np.einsum("pm,pm->m", yside, xside))
    return 4.0 * np.concatenate(parts), len(x), len(parts)


@pytest.mark.parametrize("G", [12, 64, 96])
@pytest.mark.parametrize("kappa", [0.5, 0.5j, -0.99609375])
@pytest.mark.parametrize("m0, m1", [(0, 16), (256, 512)])
def test_block_pair_products_are_bit_identical(G, kappa, m0, m1):
    # the same products in the same order: every B_m equal to the bit
    got, kept = integrals._bm_chunk(complex(kappa), G, m0, m1)
    want, want_kept, _ = _gathered_bm_chunk(complex(kappa), G, m0, m1)
    assert kept == want_kept
    assert np.array_equal(got, want)


def test_block_pair_products_are_bit_identical_over_blocks():
    # a chunk whose moments span several blocks, every block to the bit
    kappa, G, m0, m1 = complex(-(1.0 - 2.0**-8)), 48, 2048, 4096
    got, kept = integrals._bm_chunk(kappa, G, m0, m1)
    want, want_kept, blocks = _gathered_bm_chunk(kappa, G, m0, m1)
    assert blocks >= 3
    assert kept == want_kept
    assert np.array_equal(got, want)


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
            pruned, _ = integrals._bm_chunk(complex(kappa), G, m0, m0 + 256)
            full = _full_bm_chunk(complex(kappa), G, m0, m0 + 256)
            assert np.all(np.abs(pruned - full) <= 1e-15 * np.abs(full))

    @pytest.mark.parametrize("kappa", [-0.7, 0.7 + 0.3j, -(1.0 - 2.0**-10)])
    def test_prefix_chunks(self, kappa, monkeypatch):
        # the chunks _bm_prefix splits a window into: each within
        # 256 G(G-1)/2 kept pair entries, and each the full-node rule to
        # rounding
        kappa, G = complex(kappa), 48
        chunks = []
        kernel = integrals._bm_chunk

        def spy(kappa, G, m0, m1):
            bm, kept = kernel(kappa, G, m0, m1)
            chunks.append((m0, m1, kept))
            return bm, kept

        monkeypatch.setattr(integrals, "_bm_chunk", spy)
        integrals._bm_prefix.cache_clear()
        bm = integrals._bm_prefix(kappa, G, 0, 8192)
        assert len(bm) == 8192
        assert chunks[0][:2] == (0, 256) and chunks[-1][1] == 8192
        assert len(chunks) < 8192 // 256
        for m0, m1, kept in chunks:
            assert kept == G - integrals._bm_drop(kappa, G, m0, m1)
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


class TestMomentMemory:
    """_bm_chunk walks its moments in bounded blocks, so a longer chunk
    does not hold more memory."""

    @pytest.mark.parametrize("call, args, limit", [
        (integrals._bm_chunk, (-(1.0 - 2.0**-8), 64, 2048, 4096), 2e6),
        # past the window cache, so the chunks run every time
        (integrals._bm_prefix.__wrapped__, (-0.7, 48, 0, 8192), 3e6),
    ], ids=["chunk", "window"])
    def test_memory_flat_in_moments(self, call, args, limit):
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


class TestMomentAccuracy:
    """Each B_m to rounding: the x side is formed about the top node."""

    @pytest.mark.parametrize("kappa", [0.5, 0.7 + 0.3j, 0.97, -(1.0 - 2.0**-10), 0.5j])
    def test_single_moments_match_tuple_sum(self, kappa):
        kappa, G = complex(kappa), 12
        for m in (0, 40, 300, 2000):
            want = _tuple_terms(kappa, G, m).sum()
            got = integrals._bm_chunk(kappa, G, m, m + 1)[0][0]
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("kappa", [0.5, 0.7 + 0.3j, 0.5j, -(1.0 - 2.0**-10)])
    def test_chunking_does_not_move_moments(self, kappa):
        kappa, G, M = complex(kappa), 16, 2048

        def chunked(size):
            return np.concatenate([integrals._bm_chunk(kappa, G, m0, min(M, m0 + size))[0]
                                   for m0 in range(0, M, size)])

        a, b = chunked(256), chunked(200)
        assert np.all(np.abs(a - b) <= 1e-14 * np.abs(a))

    def test_off_axis_probe_matches_tensor_sum(self):
        kappa, G = complex(0.99 * np.exp(0.4j)), 48
        value = lint_integral(kappa, 2, 7, QuadratureSpec(nodes_per_dim=G))
        tensor = _vandermonde_tensor(kappa, 8, G)
        assert abs(value - tensor) <= 1e-13 * abs(tensor)


class TestRealPath:
    """Real kappa keeps the nodes and the moments in float64."""

    @pytest.mark.parametrize("kappa, kind", [(0.5, "f"), (-0.9, "f"), (0.5j, "c"),
                                             (0.3 + 0.2j, "c")])
    def test_dtypes(self, kappa, kind):
        kappa, G = complex(kappa), 16
        assert all(v.dtype.kind == kind for v in integrals._axis_nodes(G, kappa)[1:])
        integrals._bm_prefix.cache_clear()
        lint_integral(kappa, 2, 3, QuadratureSpec(nodes_per_dim=G))
        hits = integrals._bm_prefix.cache_info().hits
        window = integrals._bm_prefix(kappa, G, 0, 16)
        assert integrals._bm_prefix.cache_info().hits == hits + 1
        assert window.dtype.kind == kind
        assert not window.flags.writeable
