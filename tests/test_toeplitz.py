"""Toeplitz determinant route for the diagonal correlation."""
import numpy as np
import pytest
import scipy.linalg

from ising_lab import ConvergenceError, CouplingK, chi_d, diagonal_correlation, magnetization
from ising_lab import toeplitz
from ising_lab.params import _cache_length, _phi_series
from ising_lab.toeplitz import _correlations, _levinson


def _phi(k: CouplingK, N: int):
    """The phi series _correlations reads for D(1..N)."""
    return _phi_series(complex(k.k), _cache_length(N))


def _deviation(k: CouplingK, N: int):
    """D(N) - M^2, the summand of the diagonal susceptibility."""
    return diagonal_correlation(k, N).value - magnetization(k) ** 2


class TestSmallDeterminants:
    def test_empty_determinant_is_one(self):
        res = diagonal_correlation(CouplingK.physical(0.4), 0)
        assert res.value == 1.0
        assert res.N == 0

    def test_one_by_one_is_phi_zero(self):
        k = CouplingK.physical(0.4)
        res = diagonal_correlation(k, 1)
        assert abs(res.value - _phi(k, 1).coeff(0)) < 1e-14

    def test_two_by_two_matches_direct_cofactor(self):
        k = CouplingK.physical(0.35)
        phi = _phi(k, 2)
        a, b, c = phi.coeff(0), phi.coeff(-1), phi.coeff(1)
        direct = (a * a - b * c).real
        assert abs(diagonal_correlation(k, 2).value - direct) < 1e-13

    def test_free_modulus_all_ones(self):
        k = CouplingK.physical(0.0)
        for N in range(5):
            assert diagonal_correlation(k, N).value == 1.0


class TestPhysicalBehavior:
    """On the low-temperature side the correlations interpolate 1 -> M^2."""

    def test_bounds_on_grid(self):
        for kv in (0.1, 0.3, 0.5, 0.7, 0.9):
            k = CouplingK.physical(kv)
            m2 = magnetization(k) ** 2
            for N in range(9):
                v = diagonal_correlation(k, N).value
                assert m2 - 1e-12 <= v <= 1.0 + 1e-12

    def test_monotone_decay_in_separation(self):
        k = CouplingK.physical(0.5)
        vals = [diagonal_correlation(k, N).value for N in range(9)]
        for a, b in zip(vals, vals[1:]):
            assert b < a + 1e-15

    def test_deviation_decays_geometrically(self):
        k = CouplingK.physical(0.5)
        devs = [abs(_deviation(k, N)) for N in range(5, 12)]
        for a, b in zip(devs, devs[1:]):
            assert b < a

    def test_long_range_limit(self):
        for kv in (0.3, 0.5, 0.7):
            k = CouplingK.physical(kv)
            assert abs(_deviation(k, 20)) < abs(_deviation(k, 5))

    def test_deviation_zero_at_free_modulus(self):
        assert _deviation(CouplingK.physical(0.0), 3) == 0.0

    def test_condition_diagnostics(self):
        res = diagonal_correlation(CouplingK.physical(0.5), 6)
        assert res.cond_estimate >= 1.0
        assert not res.flagged


class TestAnalyticMode:
    def test_conjugation_symmetry(self):
        up = diagonal_correlation(CouplingK.analytic(0.3 + 0.2j), 3).value
        dn = diagonal_correlation(CouplingK.analytic(0.3 - 0.2j), 3).value
        assert abs(up - np.conj(dn)) < 1e-13

    def test_matches_physical_on_real_axis(self):
        phys = diagonal_correlation(CouplingK.physical(0.45), 4).value
        anal = diagonal_correlation(CouplingK.analytic(0.45), 4).value
        assert abs(phys - anal) < 1e-13

    def test_bad_separation_rejected(self):
        with pytest.raises(Exception):
            diagonal_correlation(CouplingK.physical(0.3), -1)


def _coupling(kv):
    if isinstance(kv, complex) or kv < 0:
        return CouplingK.analytic(kv)
    return CouplingK.physical(kv)


class TestLevinsonKernel:
    """One recursion gives D(1..N); a pivoted LU per N is the oracle."""

    @pytest.mark.parametrize("kv", [0.5, 0.9, 0.95, 0.5 + 0.3j, 0.7j, -0.6])
    def test_sequence_matches_pivoted_determinants(self, kv):
        k = _coupling(kv)
        dets, _ = _correlations(k, 64)
        phi = _phi(k, 64)
        t = {m: phi.coeff(m) for m in range(-63, 64)}
        for N in range(1, 65):
            col = [t[m] for m in range(N)]
            row = [t[-m] for m in range(N)]
            want = scipy.linalg.det(scipy.linalg.toeplitz(col, row))
            assert abs(dets[N - 1] - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize(
        "col, row",
        [
            ([0.0, 1.0, 2.0], [0.0, 3.0, 4.0]),  # D(1) = 0
            ([1.0, 1.0, 2.0], [1.0, 1.0, 4.0]),  # D(2) = 0
            ([1.0, np.nan, 2.0], [1.0, 0.5, 4.0]),
        ],
    )
    def test_zero_or_nonfinite_pivot_raises(self, col, row):
        with pytest.raises(ConvergenceError):
            _levinson(np.array(col), np.array(row))

    def test_kernel_failure_flags_chi(self, monkeypatch):
        def failing(col, row):
            raise ConvergenceError("pivot 0 at step 3 of the Levinson recursion")

        monkeypatch.setattr(toeplitz, "_levinson", failing)
        res = chi_d(CouplingK.physical(0.5), 1e-8, "toeplitz_direct")
        assert res.flagged

    def test_bounds_check_allows_rounding_only(self, monkeypatch):
        # D(N) may dip below M^2 by the rounding allowance, not by more
        k, N = CouplingK.physical(0.5), 40
        m2 = magnetization(k) ** 2
        allowance = 1e-12 + toeplitz._LEVINSON_ROUNDING * N
        kernel = toeplitz._levinson

        def ending_at(target):
            def run(col, row):
                eps = kernel(col, row)
                eps[-1] *= target / np.prod(eps)
                return eps
            return run

        monkeypatch.setattr(toeplitz, "_levinson", ending_at(m2 - 0.5 * allowance))
        dets, _ = _correlations(k, N)
        assert m2 - allowance < dets[-1] < m2
        monkeypatch.setattr(toeplitz, "_levinson", ending_at(m2 - 2.0 * allowance))
        with pytest.raises(RuntimeError, match=f"N={N}"):
            _correlations(k, N)

    @pytest.mark.parametrize("kv", [0.5, 0.5 + 0.3j])
    def test_correlation_is_last_entry(self, kv):
        k = _coupling(kv)
        long, _ = _correlations(k, 40)
        for N in (1, 7, 40):
            dets, eps = _correlations(k, N)
            res = diagonal_correlation(k, N)
            assert res.value == dets[-1]
            assert res.cond_estimate == np.max(np.abs(eps)) / np.min(np.abs(eps))
            assert abs(res.value - long[N - 1]) <= 1e-14
