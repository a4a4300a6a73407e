"""Radial scans toward roots of unity and the divergence classifier."""
import cmath
import math

import numpy as np
import pytest

from ising_lab import (
    DomainError,
    QuadratureSpec,
    RootOfUnity,
    radial_scan,
    radii_grid,
    smoothness_probe,
)
from ising_lab import boundary
from ising_lab.boundary import _classify


class TestRootOfUnity:
    def test_minus_one(self):
        eps = RootOfUnity(1, 2)
        assert abs(eps.value + 1.0) < 1e-15

    def test_exact_on_the_axes(self):
        # exp(i pi) is -1 + 1.2e-16i in floating point; these are exact
        assert RootOfUnity(1, 2).value == -1
        assert RootOfUnity(1, 4).value == 1j
        assert RootOfUnity(3, 4).value == -1j
        assert RootOfUnity(-1, 4).value == -1j
        assert RootOfUnity(1, 3).value == cmath.exp(2j * math.pi / 3)

    def test_power_closes(self):
        for p, q in ((1, 3), (2, 5), (3, 7)):
            eps = RootOfUnity(p, q)
            assert abs(eps.value ** q - 1.0) < 1e-12

    def test_reduced_fraction_required(self):
        with pytest.raises(DomainError):
            RootOfUnity(2, 4)

    def test_trivial_root_rejected(self):
        with pytest.raises(DomainError):
            RootOfUnity(1, 1)
        with pytest.raises(DomainError):
            RootOfUnity(0, 2)


class TestRadiiGrid:
    def test_dyadic_values(self):
        radii = radii_grid(4, 10)
        assert len(radii) == 7
        assert radii[0] == 1.0 - 2.0 ** -4
        assert radii[-1] == 1.0 - 2.0 ** -10
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_bad_range(self):
        with pytest.raises(DomainError):
            radii_grid(10, 4)


class TestLogFit:
    """Fit of the value against L = log(1/(1-r)) on synthetic data."""

    def test_exact_linear_growth(self):
        radii = radii_grid(4, 10)
        values = [1.0 + 3.0 * math.log(1.0 / (1.0 - r)) for r in radii]
        fit = boundary._ols_log(radii, values)
        assert abs(fit["slope"] - 3.0) < 1e-12
        assert abs(fit["intercept"] - 1.0) < 1e-12
        assert abs(fit["r2"] - 1.0) < 1e-12

    def test_constant_data(self):
        radii = radii_grid(4, 10)
        assert abs(boundary._ols_log(radii, [2.5] * 7)["slope"]) < 1e-12

    def test_too_few_points(self):
        radii = radii_grid(4, 6)
        with pytest.raises(DomainError):
            boundary._ols_log(radii, [1.0, 2.0, 3.0])


class TestClassifier:
    def test_log_growth_diverges(self):
        # the hallmark shape: value climbing linearly in L without stalling
        radii = radii_grid(4, 10)
        values = [0.4 + 0.01 * math.log(1.0 / (1.0 - r)) for r in radii]
        assert _classify(radii, values) == "diverging"

    def test_superlinear_growth_diverges(self):
        radii = radii_grid(4, 10)
        values = [math.log(1.0 / (1.0 - r)) ** 2 for r in radii]
        assert _classify(radii, values) == "diverging"

    def test_constant_bounded(self):
        radii = radii_grid(4, 10)
        assert _classify(radii, [0.7] * 7) == "bounded"

    def test_noisy_flat_bounded(self):
        radii = radii_grid(4, 10)
        rng = np.random.default_rng(5)
        values = 0.3 + 1e-3 * rng.standard_normal(7)
        assert _classify(radii, values) == "bounded"

    def test_decaying_bounded(self):
        # mild decay toward the boundary, as the one-particle probes show
        radii = radii_grid(4, 10)
        values = [0.18 * (1.0 - 0.05 * math.log(1.0 / (1.0 - r))) for r in radii]
        assert _classify(radii, values) == "bounded"


class TestRadialScan:
    def test_order_must_match_component(self):
        with pytest.raises(DomainError):
            radial_scan(RootOfUnity(1, 2), 1, 3, radii_grid(4, 7), QuadratureSpec())

    def test_scan_populates_fit(self):
        spec = QuadratureSpec(nodes_per_dim=32)
        scan = radial_scan(RootOfUnity(1, 2), 2, 1, radii_grid(4, 7), spec)
        assert len(scan.values) == 4
        assert scan.fit_slope is not None
        assert scan.fit_r2 is not None
        fit = boundary._ols_log(scan.radii, scan.values)
        assert fit["slope"] == scan.fit_slope
        assert fit["intercept"] == scan.fit_intercept

    def test_monte_carlo_scan_deterministic(self):
        spec = QuadratureSpec(method="monte_carlo", mc_samples=20000, seed=17)
        eps = RootOfUnity(1, 3)
        a = radial_scan(eps, 3, 1, radii_grid(2, 5), spec)
        b = radial_scan(eps, 3, 1, radii_grid(2, 5), spec)
        assert a.values == b.values

    def test_radii_validation(self):
        spec = QuadratureSpec(nodes_per_dim=32)
        with pytest.raises(DomainError):
            radial_scan(RootOfUnity(1, 2), 2, 1, (0.9, 0.5), spec)
        with pytest.raises(DomainError):
            radial_scan(RootOfUnity(1, 2), 2, 1, (0.5, 1.5), spec)

    def test_too_few_radii_rejected_before_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("probe integral evaluated")

        monkeypatch.setattr(boundary, "lint_integral", no_work)
        radii = radii_grid(4, 6)
        with pytest.raises(DomainError, match="at least 4 radii"):
            radial_scan(RootOfUnity(1, 2), 2, 7, radii, QuadratureSpec())
        with pytest.raises(DomainError, match="at least 4 radii"):
            smoothness_probe(7, RootOfUnity(1, 2), QuadratureSpec(), radii=radii)


class TestSmoothnessProbe:
    def test_low_orders_bounded(self):
        spec = QuadratureSpec(nodes_per_dim=32)
        report = smoothness_probe(1, RootOfUnity(1, 2), spec, radii=radii_grid(4, 7))
        for ell in (0, 1):
            assert report.classification(ell) == "bounded"
            entry = report.entries[ell]
            assert set(entry.per_n) == {1, 2}

    def test_validation(self):
        with pytest.raises(DomainError):
            smoothness_probe(-1, RootOfUnity(1, 2), QuadratureSpec())
