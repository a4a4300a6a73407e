"""Radial scans toward roots of unity and the divergence classifier."""
import cmath
import math

import numpy as np
import pytest

from ising_lab import (
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    RootOfUnity,
    radial_scan,
    radii_grid,
    smoothness_probe,
)
from ising_lab import boundary, integrals
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

    @pytest.mark.parametrize("ell, label", [(7, "diverging"), (6, "bounded")])
    def test_classification_from_the_scan_fit(self, ell, label):
        # the acceptance scans toward -1: the field is the classifier's label
        scan = radial_scan(RootOfUnity(1, 2), 2, ell, radii_grid(4, 10), QuadratureSpec())
        assert scan.classification == _classify(scan.radii, scan.values) == label
        # slope_se, resid_rms and swing are the fit's, and the label follows
        # from them by _label's rule
        fit = boundary._ols_log(scan.radii, scan.values)
        assert (scan.slope_se, scan.resid_rms, scan.swing) == (
            fit["slope_se"], fit["resid_rms"], fit["swing"])
        significant = scan.fit_slope > boundary._SLOPE_SIGMA * scan.slope_se
        swings = scan.swing > boundary._RANGE_OVER_RESID * scan.resid_rms
        assert ("diverging" if significant and swings else "bounded") == label

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
        monkeypatch.setattr(boundary, "_lint_orders", no_work)
        radii = radii_grid(4, 6)
        with pytest.raises(DomainError, match="at least 4 radii"):
            radial_scan(RootOfUnity(1, 2), 2, 7, radii, QuadratureSpec())
        with pytest.raises(DomainError, match="at least 4 radii"):
            smoothness_probe(7, RootOfUnity(1, 2), QuadratureSpec(), radii=radii)


class TestNonFiniteScans:
    """No scan is labelled from a probe value or a fit that is not finite."""

    def test_fit_past_the_float_range_raises(self):
        # every value is finite, but their squares overflow: a nan fit
        radii = radii_grid(4, 8)
        with pytest.raises(ConvergenceError, match=r"n=2, ell=100 over r = 0\.9375 \.\. "
                                                    r"0\.99609375 is not finite"):
            radial_scan(RootOfUnity(1, 2), 2, 100, radii, QuadratureSpec())

    def test_value_past_the_float_range_raises(self):
        with pytest.raises(ConvergenceError,
                           match=r"value \(inf\+0j\) at n=2, ell=600, r=0\.9375 is not finite"):
            radial_scan(RootOfUnity(1, 2), 2, 600, radii_grid(4, 8), QuadratureSpec())

    def test_probe_ladder_past_the_float_range_raises(self):
        with pytest.raises(ConvergenceError, match=r"at n=2, ell=\d+"):
            smoothness_probe(600, RootOfUnity(1, 2), QuadratureSpec(), radii_grid(4, 7))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0.0, math.inf)])
    def test_checked_fits_names_the_bad_value(self, bad):
        radii = radii_grid(4, 8)
        values = np.ones((3, len(radii)), dtype=complex)
        values[2, 1] = bad
        with pytest.raises(ConvergenceError, match=f"n=5, ell=7, r={radii[1]!r} is not finite"):
            boundary._checked_fits(radii, values, 5, (3, 4, 7))
        assert boundary._checked_fits(radii, values[:2], 5, (3, 4)) == boundary._ols_log(
            radii, values[:2])


def _ols_log_one(radii, values):
    """The one-scan fit as one lstsq call of its own."""
    L = np.log(1.0 / (1.0 - np.asarray(radii, dtype=float)))
    v = np.real(np.asarray(values, dtype=complex))
    A = np.vstack([L, np.ones_like(L)]).T
    coef, _, _, _ = np.linalg.lstsq(A, v, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((v - pred) ** 2))
    ss_tot = float(np.sum((v - np.mean(v)) ** 2))
    resid_rms = math.sqrt(ss_res / (len(L) - 2))
    return {
        "slope": float(coef[0]),
        "intercept": float(coef[1]),
        "r2": 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot,
        "slope_se": resid_rms / math.sqrt(float(np.sum((L - np.mean(L)) ** 2))),
        "resid_rms": resid_rms,
        "swing": float(np.max(v) - np.min(v)),
    }


class TestStackedFit:
    """_ols_log fits a stack of scans with one lstsq call."""

    @staticmethod
    def _scans(radii, rows, seed):
        rng = np.random.default_rng(seed)
        L = np.log(1.0 / (1.0 - np.asarray(radii)))
        trend = np.outer(rng.standard_normal(rows), L)
        return trend + rng.standard_normal((rows, len(radii))) + 1j * rng.standard_normal(
            (rows, len(radii)))

    def test_one_scan_is_its_own_fit(self):
        for seed, radii in enumerate((radii_grid(4, 8), radii_grid(4, 10), radii_grid(4, 14))):
            for values in self._scans(radii, 5, seed):
                assert boundary._ols_log(radii, values) == _ols_log_one(radii, values)

    def test_stack_matches_row_fits(self):
        radii = radii_grid(4, 10)
        values = self._scans(radii, 8, 11)
        values[3] = 2.5  # a constant row: r2 = 1 by convention
        fits = boundary._ols_log(radii, values)
        assert len(fits) == 8
        for row, fit in zip(values, fits):
            one = boundary._ols_log(radii, row)
            assert fit.keys() == one.keys()
            for key, want in one.items():
                assert abs(fit[key] - want) <= 1e-13 * max(1.0, abs(want)), key


class TestSmoothnessProbe:
    def test_one_series_pass_per_radius_and_one_fit_per_n(self, monkeypatch):
        series, lstsq = integrals._lint_series, np.linalg.lstsq
        calls, fits = [], []

        def spy_series(kappa, ells, G):
            calls.append((complex(kappa), tuple(ells)))
            return series(kappa, ells, G)

        def spy_lstsq(A, b, rcond=None):
            fits.append(np.shape(b))
            return lstsq(A, b, rcond=rcond)

        monkeypatch.setattr(integrals, "_lint_series", spy_series)
        monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
        radii = radii_grid(4, 8)
        report = smoothness_probe(7, RootOfUnity(1, 2), QuadratureSpec(), radii=radii)
        assert sorted(k.real for k, _ in calls) == sorted(-r for r in radii)
        assert all(k.imag == 0.0 and ells == tuple(range(8)) for k, ells in calls)
        # one fit per n, of the radii x orders values
        assert fits == [(len(radii), 8)] * 2
        assert [report.classification(e) for e in range(8)] == ["bounded"] * 7 + ["diverging"]

    def test_threads_change_nothing(self, monkeypatch):
        series = integrals._lint_series
        out = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("ISING_LAB_THREADS", threads)
            seen = {}

            def spy_series(kappa, ells, G):
                values = series(kappa, ells, G)
                seen[complex(kappa)] = values
                return values

            monkeypatch.setattr(integrals, "_lint_series", spy_series)
            # cold caches: each thread count computes its own moments
            for cached in (integrals._bm_prefix, integrals._bm_tail, integrals._node_rule):
                cached.cache_clear()
            report = smoothness_probe(7, RootOfUnity(1, 2), QuadratureSpec())
            out[threads] = [(e.per_n, e.overall) for e in report.entries], seen
        assert out["1"] == out["4"]
        assert len(out["1"][1]) == len(radii_grid())

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
