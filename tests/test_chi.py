"""Diagonal susceptibility assembly and the route cross-checks."""
import cmath
import functools
import math
import time

import numpy as np
import pytest

import ising_lab.chi as chi_module
from ising_lab import (
    ConvergenceError, CouplingK, DomainError, chi_d, fredholm, integrals, magnetization,
    params, sweep, toeplitz,
)
from ising_lab.params import _one_particle
from ising_lab.toeplitz import _LEVINSON_ROUNDING, _correlations
from test_params import _terms_needed

# frozen regression value for the Fredholm route at tol 1e-8; the integral
# route gives 0.024149148228160507 and toeplitz_direct 0.024149148228162692,
# within 3e-15 of it
_CHI_03 = 0.02414914822816308
# the fredholm route at k = 0.99, tol 1e-10 (974 terms, est_error 3.9e-11);
# the integral route gives 4.6739817276268125
_CHI_099 = 4.673981727626878


class TestFreeLimit:
    def test_all_routes_exactly_zero(self):
        k = CouplingK.physical(0.0)
        for route in ("fredholm", "toeplitz_direct", "integral"):
            res = chi_d(k, 1e-8, route)
            assert res.beta_inv_chi_d == 0.0
            assert not res.flagged


class TestRouteAgreement:
    def test_determinant_routes(self):
        k = CouplingK.physical(0.3)
        a = chi_d(k, 1e-8, "fredholm").beta_inv_chi_d
        b = chi_d(k, 1e-8, "toeplitz_direct").beta_inv_chi_d
        assert abs(a - b) < 1e-8 * abs(a)

    def test_integral_route(self):
        k = CouplingK.physical(0.3)
        a = chi_d(k, 1e-8, "fredholm").beta_inv_chi_d
        c = chi_d(k, 1e-8, "integral").beta_inv_chi_d
        assert abs(a - c) < 1e-6 * abs(a)

    def test_frozen_regression(self):
        got = chi_d(CouplingK.physical(0.3), 1e-8, "fredholm").beta_inv_chi_d
        assert abs(got - _CHI_03) <= 1e-13 * _CHI_03

    def test_unknown_route_rejected(self):
        with pytest.raises(DomainError):
            chi_d(CouplingK.physical(0.3), 1e-8, "bogus")


class TestNearCritical:
    """The fredholm route holds its tolerance as k -> 1."""

    @pytest.mark.parametrize("kv", [0.95, 0.97])
    def test_tolerances_agree_within_error(self, kv):
        k = CouplingK.physical(kv)
        loose = chi_d(k, 1e-8, "fredholm")
        tight = chi_d(k, 1e-10, "fredholm")
        assert not loose.flagged and not tight.flagged
        gap = abs(loose.beta_inv_chi_d - tight.beta_inv_chi_d)
        assert gap <= loose.est_error + tight.est_error

    def test_routes_agree_at_09(self):
        k = CouplingK.physical(0.9)
        a = chi_d(k, 1e-8, "fredholm").beta_inv_chi_d
        b = chi_d(k, 1e-8, "toeplitz_direct").beta_inv_chi_d
        assert abs(a - b) < 1e-6 * abs(a)


class TestNearCriticalBand:
    """Both determinant routes hold 1e-8 as k -> 1."""

    @pytest.mark.parametrize("kv", [0.9, 0.95, 0.97])
    def test_determinant_routes_agree(self, kv):
        k = CouplingK.physical(kv)
        a = chi_d(k, 1e-8, "fredholm")
        b = chi_d(k, 1e-8, "toeplitz_direct")
        assert not a.flagged and not b.flagged
        assert abs(a.beta_inv_chi_d - b.beta_inv_chi_d) <= 1e-8 * abs(a.beta_inv_chi_d)

    def test_toeplitz_at_099(self):
        start = time.perf_counter()
        res = chi_d(CouplingK.physical(0.99), 1e-8, "toeplitz_direct")
        elapsed = time.perf_counter() - start
        assert not res.flagged
        assert elapsed < 2.0
        assert abs(res.beta_inv_chi_d - _CHI_099) <= 1e-8 * _CHI_099


class TestNearCriticalFredholm:
    """The rank-r fredholm route holds 1e-8 against toeplitz_direct past k = 0.99."""

    @pytest.mark.parametrize("kv", [0.99, 0.995])
    def test_determinant_routes_agree(self, kv):
        k = CouplingK.physical(kv)
        a = chi_d(k, 1e-10, "fredholm")
        b = chi_d(k, 1e-10, "toeplitz_direct")
        assert not a.flagged and not b.flagged
        assert abs(a.beta_inv_chi_d - b.beta_inv_chi_d) <= 1e-8 * abs(b.beta_inv_chi_d)

    def test_frozen_value_at_099(self):
        res = chi_d(CouplingK.physical(0.99), 1e-10, "fredholm")
        assert not res.flagged
        assert abs(res.beta_inv_chi_d - _CHI_099) <= 1e-11 * _CHI_099


@functools.lru_cache(maxsize=None)
def _reference(kv):
    """1 + M^2 (2S - 1), S summed from _det_at over the terms whose proven
    tail is below 5e-15."""
    seq = fredholm._det_at(complex(kv), 1, _terms_needed(kv, 1e-14))
    m2 = magnetization(CouplingK.physical(kv)) ** 2
    return 1.0 + m2 * (2.0 * float(np.sum(seq.values - 1.0)) - 1.0)


class TestProvenTail:
    """est_error covers the real error of both determinant routes near k = 1."""

    @pytest.mark.parametrize("route, tol", [
        ("fredholm", 1e-8), ("toeplitz_direct", 1e-8), ("fredholm", 1e-10),
        ("toeplitz_direct", 1e-10),
    ])
    @pytest.mark.parametrize("kv", [0.99, 0.995])
    def test_est_error_covers_error(self, kv, route, tol):
        res = chi_d(CouplingK.physical(kv), tol, route)
        assert not res.flagged
        assert abs(res.beta_inv_chi_d - _reference(kv)) <= res.est_error

    def test_toeplitz_cap_flagged_with_proven_tail(self):
        k = CouplingK.physical(0.9995)
        capped = chi_d(k, 1e-8, "toeplitz_direct")
        full = chi_d(k, 1e-8, "fredholm")
        assert capped.flagged and not full.flagged
        assert capped.terms_used == 4096
        assert abs(capped.beta_inv_chi_d - full.beta_inv_chi_d) <= capped.est_error

    def test_non_finite_term_flagged(self, monkeypatch):
        real = fredholm._det_at

        def with_nan(kval, N, count):
            seq = real(kval, N, count)
            values = seq.values.copy()
            values[-1] = math.nan
            return fredholm._DetSequence(values=values, move=seq.move, size=seq.size)

        monkeypatch.setattr(fredholm, "_det_at", with_nan)
        res = chi_d(CouplingK.physical(0.5), 1e-8, "fredholm")
        assert res.flagged
        assert math.isnan(res.beta_inv_chi_d.real)


class TestAssemblyAccuracy:
    """beta^-1 chi_d = (1 - M^2) + 2 M^2 S keeps its relative accuracy as
    k -> 0, where 1 + M^2 (2 S - 1) rounds on the scale of M^2 ~ 1."""

    @pytest.mark.parametrize("k", [
        *(CouplingK.physical(kv) for kv in (1e-3, 1e-2, 0.1)),
        *(CouplingK.analytic(z) for z in (1e-3 * cmath.exp(1j), 0.01 * cmath.exp(2.5j))),
    ], ids=lambda k: str(k.value))
    def test_within_four_eps_of_the_exact_assembly(self, k):
        mpmath = pytest.importorskip("mpmath")
        s, _, _ = fredholm._s_fredholm_terms(k, 1e-8)
        res = chi_d(k, 1e-8, "fredholm")
        with mpmath.workdps(40):
            kappa, S = (mpmath.mpc(complex(v).real, complex(v).imag) for v in (k.kappa, s))
            m2 = mpmath.exp(mpmath.log(1 - kappa) / 4)
            want = 1 + m2 * (2 * S - 1)
            got = complex(res.beta_inv_chi_d)
            rel = float(abs(mpmath.mpc(got.real, got.imag) - want) / abs(want))
        assert rel <= 4 * 2.0**-52


class TestToeplitzSum:
    """toeplitz_direct through the shared S-sum contract is the Toeplitz
    sum S = sum_N (D(N) - M^2) / M^2 over its n terms, to rounding, plus
    the one-particle part of the terms past n, -sum_(N > n) tr K_N; chi_d
    assembles its row from that S."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("k", [
        *(CouplingK.physical(kv) for kv in (0.1, 0.5, 0.9, 0.99, 0.995)),
        *(CouplingK.analytic(z) for z in (0.5 + 0.3j, 0.85 * cmath.exp(2j),
                                          0.9 * cmath.exp(0.5j))),
    ], ids=lambda k: str(k.value))
    def test_value_is_the_toeplitz_sum(self, k, tol):
        res = chi_d(k, tol, "toeplitz_direct")
        s, n, _ = toeplitz._s_toeplitz_terms(k, tol)
        one = _one_particle(complex(k.k))
        m2 = magnetization(k) ** 2
        want = ((_correlations(k, n)[0] - m2).sum() - m2 * one.trace[n + 1 :].sum()) / m2
        assert not res.flagged and res.terms_used == n == one.stop(tol)
        assert complex(res.beta_inv_chi_d) == complex(chi_module._assemble(k.kappa, m2, s))
        assert abs(s - want) <= 2e-15 * abs(want)

    def test_capped_row_keeps_its_tail(self):
        k = CouplingK.physical(0.9995)
        res = chi_d(k, 1e-8, "toeplitz_direct")
        m2 = magnetization(k) ** 2
        one = _one_particle(0.9995 + 0j)
        want = 2.0 * m2 * one.tails[4096] + _LEVINSON_ROUNDING * 4096 * 4097
        assert res.flagged and res.terms_used == 4096
        assert res.reason == (f"toeplitz_direct needs {one.stop(1e-8)} "
                              "terms at k=0.9995, past the cap 4096")
        assert res.est_error == pytest.approx(want, rel=1e-15)


class TestIntegralRoute:
    """The particle expansion on Gauss nodes and the Cauchy kernel: S_1 in
    closed form plus one Nystrom pass over N, independent of the Hankel
    factorization of the fredholm route."""

    @pytest.mark.parametrize("kv", [0.3, 0.7, 0.9, 0.95, 0.5 + 0.3j, 0.9 * cmath.exp(0.5j)])
    def test_matches_fredholm(self, kv):
        k = CouplingK.physical(kv) if isinstance(kv, float) else CouplingK.analytic(kv)
        # fredholm at tol 1e-8 stops where its loose proven tail allows, up
        # to 5.3e-10 short of the sum on this grid; at 1e-11 it is within
        # 5e-12 of a 1e-13 run
        a = chi_d(k, 1e-11, "fredholm")
        c = chi_d(k, 1e-8, "integral")
        assert not a.flagged and not c.flagged
        assert abs(a.beta_inv_chi_d - c.beta_inv_chi_d) <= 1e-10
        # terms_used is where the 96-node pass stopped, by its own tail
        assert c.terms_used == integrals._s_rule(k.kappa, 96, 1e-8)[1]

    def test_est_error_covers_error_at_099(self):
        start = time.perf_counter()
        res = chi_d(CouplingK.physical(0.99), 1e-8, "integral")
        elapsed = time.perf_counter() - start
        assert not res.flagged
        # the pass's own tail stops it well before the determinant routes'
        # 943 terms
        assert res.terms_used == integrals._s_rule(0.99**2, 96, 1e-8)[1]
        assert res.terms_used < _terms_needed(0.99, 1e-8) / 2
        assert elapsed < 4.0
        assert abs(res.beta_inv_chi_d - _reference(0.99)) <= res.est_error

    @pytest.mark.parametrize("kv", [0.9993, 0.9995])
    def test_near_critical(self, kv):
        # each integral evaluation within 1 s; today's route was past its
        # term cap here
        k = CouplingK.physical(kv)
        start = time.perf_counter()
        c = chi_d(k, 1e-8, "integral")
        elapsed = time.perf_counter() - start
        a = chi_d(k, 1e-8, "fredholm")
        assert not c.flagged and not a.flagged
        assert elapsed < 1.0
        assert abs(a.beta_inv_chi_d - c.beta_inv_chi_d) <= 1e-10

    def test_independent_of_other_paths(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("another evaluator called")

        for module, name in (
            (integrals, "_lint_series"), (integrals, "_tensor_core"),
            (integrals, "s_n"), (integrals, "_mc_core"), (fredholm, "_det_at"),
            (params, "_lambda_pair"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        # nor the determinant routes' one-particle table and its stop:
        # wherever a module looks them up
        for module in (params, integrals, chi_module, fredholm, toeplitz):
            for name in ("_one_particle", "_hankel_length"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        res = chi_d(CouplingK.physical(0.5), 1e-8, "integral")
        assert not res.flagged
        assert math.isfinite(res.beta_inv_chi_d)

    def test_convergence_error_flagged(self, monkeypatch):
        def failing(k, tol):
            raise ConvergenceError("no sum")

        monkeypatch.setattr(chi_module, "_s_nystrom_terms", failing)
        res = chi_d(CouplingK.physical(0.5), 1e-8, "integral")
        assert res.flagged
        assert math.isnan(complex(res.beta_inv_chi_d).real)
        assert res.est_error == math.inf

    def test_refinement_gap_above_tol_flagged(self, monkeypatch):
        real = integrals._s_rule
        fine, n, proven = real(0.25, 96, 1e-8)
        coarse = real(0.25, 64, 1e-8)[0] + 1e-6

        def coarse_off(kappa, G, tol):
            s, terms, bound = real(kappa, G, tol)
            return (s + 1e-6 if G == 64 else s), terms, bound

        monkeypatch.setattr(integrals, "_s_rule", coarse_off)
        k = CouplingK.physical(0.5)
        res = chi_d(k, 1e-8, "integral")
        assert res.flagged
        assert "node-refinement gap" in res.reason
        # the flagged row keeps the 96-node sum and its N, and its est_error
        # carries the route's whole estimate: the gap plus the proven bounds
        assert res.terms_used == n
        want_err = 2.0 * magnetization(k) ** 2 * (abs(fine - coarse) + proven)
        assert abs(res.est_error - want_err) < 1e-12
        assert abs(res.beta_inv_chi_d - _reference(0.5)) < 1e-10

    def test_node_gap_flags_near_critical_with_its_value(self):
        # past k = 0.9998 the 64- and 96-node rules part by more than tol:
        # the row is flagged within a second, keeping the value it summed
        k = CouplingK.physical(0.9999)
        start = time.perf_counter()
        res = chi_d(k, 1e-8, "integral")
        elapsed = time.perf_counter() - start
        assert res.flagged
        assert elapsed < 2.0
        assert res.reason.startswith("the integral route at k=0.9999 stopped at N = ")
        assert "node-refinement gap" in res.reason
        assert res.terms_used > 0
        assert 1e-5 < res.est_error < 1e-3
        assert type(res.k) is float and type(res.beta_inv_chi_d) is float
        # chi_d (1 - k)^(3/4) = 0.15116 on 128 and more nodes
        assert abs(res.beta_inv_chi_d * 1e-4 ** 0.75 - 0.15116) < 1e-5


class TestDeterminantRoutesIndependent:
    """The two determinant routes share the one-particle table only: each
    runs with the other's determinant kernel forbidden."""

    @pytest.mark.parametrize("route, module, name", [
        ("toeplitz_direct", fredholm, "_det_at"),
        ("fredholm", toeplitz, "_levinson"),
    ])
    def test_runs_without_the_other_kernel(self, monkeypatch, route, module, name):
        def forbidden(*args):
            raise AssertionError("the other determinant route called")

        monkeypatch.setattr(module, name, forbidden)
        for kv in (0.5, 0.95, 0.6 + 0.4j):
            k = CouplingK.physical(kv) if isinstance(kv, float) else CouplingK.analytic(kv)
            res = chi_d(k, 1e-8, route)
            assert not res.flagged and res.terms_used == _one_particle(complex(kv)).stop(1e-8)


class TestResultContract:
    def test_every_flagged_row_says_why(self, monkeypatch):
        assert chi_d(CouplingK.physical(0.4), 1e-8, "fredholm").reason == ""
        # past the Toeplitz cap: flagged without an exception
        res = chi_d(CouplingK.physical(0.9995), 1e-8, "toeplitz_direct")
        assert res.flagged
        assert res.reason == (f"toeplitz_direct needs {_one_particle(0.9995 + 0j).stop(1e-8)} "
                              "terms at k=0.9995, past the cap 4096")

        def failing(k, tol):
            raise ConvergenceError("no sum")

        monkeypatch.setattr(chi_module, "_s_nystrom_terms", failing)
        res = chi_d(CouplingK.physical(0.5), 1e-8, "integral")
        assert res.flagged and res.reason == "no sum"

    @pytest.mark.parametrize("route, name", [
        ("fredholm", "_s_fredholm_terms"), ("toeplitz_direct", "_s_toeplitz_terms"),
        ("integral", "_s_nystrom_terms"),
    ])
    def test_every_route_flags_one_way(self, monkeypatch, route, name):
        def failing(k, tol):
            raise ConvergenceError("why", best=0.25, gap=1e-9, terms=7)

        monkeypatch.setattr(chi_module, name, failing)
        k = CouplingK.physical(0.5)
        m2 = magnetization(k) ** 2
        res = chi_d(k, 1e-8, route)
        assert res.flagged and res.reason == "why" and res.terms_used == 7
        assert res.est_error == pytest.approx(2.0 * m2 * 1e-9, rel=1e-15)
        assert res.beta_inv_chi_d == pytest.approx(1.0 + m2 * (2.0 * 0.25 - 1.0), rel=1e-15)
        assert type(res.k) is float and type(res.beta_inv_chi_d) is float

    def test_flagged_physical_row_is_real(self):
        # a flagged row is built as an unflagged one: float k and value,
        # and its reason prints k as the real number it is
        res = chi_d(CouplingK.physical(0.5), 1e-17, "fredholm")
        assert res.flagged and "correlation sum at k=0.5 exceeds" in res.reason
        assert type(res.k) is float and type(res.beta_inv_chi_d) is float

    def test_metadata_populated(self):
        res = chi_d(CouplingK.physical(0.4), 1e-8, "fredholm")
        assert res.route == "fredholm"
        assert res.terms_used > 0
        assert res.est_error >= 0.0
        assert isinstance(res.beta_inv_chi_d, float)

    def test_growth_with_modulus(self):
        vals = [
            chi_d(CouplingK.physical(kv), 1e-8, "toeplitz_direct").beta_inv_chi_d
            for kv in (0.1, 0.3, 0.5)
        ]
        assert vals[0] < vals[1] < vals[2]
        assert all(v > 0.0 for v in vals)

    def test_tightening_tolerance_stabilizes(self):
        k = CouplingK.physical(0.5)
        loose = chi_d(k, 1e-6, "fredholm")
        tight = chi_d(k, 1e-11, "fredholm")
        assert abs(loose.beta_inv_chi_d - tight.beta_inv_chi_d) < 2e-6
        assert tight.est_error < loose.est_error


class TestSweep:
    def test_grid_values_finite_and_real(self):
        grid = [0.0, 0.1, 0.3, 0.5]
        rows = sweep(grid, "fredholm", 1e-8)
        assert len(rows) == 4
        assert rows[0].beta_inv_chi_d == 0.0
        for row in rows[1:]:
            assert math.isfinite(row.beta_inv_chi_d)
            assert row.beta_inv_chi_d > 0.0
            assert not row.flagged

    def test_empty_grid(self):
        assert sweep([], "fredholm", 1e-8) == []

    def test_bad_point_flagged_not_fatal(self):
        rows = sweep([0.3, 1.5], "toeplitz_direct", 1e-8)
        assert len(rows) == 2
        assert not rows[0].flagged
        assert rows[1].flagged
        assert math.isnan(complex(rows[1].beta_inv_chi_d).real)
        # built as every row: a physical point has a float k and value
        assert type(rows[1].k) is float and rows[1].k == 1.5
        assert type(rows[1].beta_inv_chi_d) is float
        assert rows[0].reason == ""
        assert rows[1].reason == "|k| must be < 1, got |k| = 1.5"

    def test_routes_agree_across_grid(self):
        grid = [0.2, 0.4]
        a = sweep(grid, "fredholm", 1e-9)
        b = sweep(grid, "toeplitz_direct", 1e-9)
        for ra, rb in zip(a, b):
            assert abs(ra.beta_inv_chi_d - rb.beta_inv_chi_d) < 1e-7 * abs(
                ra.beta_inv_chi_d
            )
