"""Hankel-product determinants det(I - K_N) and the correlation-sum S."""
import math

import numpy as np
import pytest

from ising_lab import (
    ConvergenceError,
    CouplingK,
    chi_d,
    diagonal_correlation,
    fredholm_det,
    magnetization,
    s_via_fredholm,
)
from ising_lab import fredholm
from ising_lab.fredholm import _det_at
from ising_lab.params import SeriesCoeffs, _cache_length, _lambda_pair

# frozen from an early tight-tolerance run; guards the whole summation chain
_S_AT_03 = 0.00043373685662451145


def _series_pair(kv: float, N: int, cutoff: int):
    k = CouplingK.physical(kv)
    return k, _lambda_pair(complex(kv), _cache_length(N + 2 * cutoff + 4))


def _hankel(series: SeriesCoeffs, N: int, cutoff: int) -> np.ndarray:
    """The dense cutoff x cutoff section of H_N: entry (i, j) is the
    coefficient at degree N + i + j + 1."""
    band = fredholm._band(series, N, cutoff)
    i = np.arange(cutoff)
    return band[i[:, None] + i]


class TestHankelStructure:
    def test_antidiagonal_constancy(self):
        _, (lam, _) = _series_pair(0.5, 2, 8)
        h = _hankel(lam, 2, 8)
        assert h[2, 3] == h[1, 4] == h[0, 5]
        assert h[0, 1] == h[1, 0]

    def test_corner_is_first_omitted_degree(self):
        _, (lam, _) = _series_pair(0.5, 1, 8)
        h = _hankel(lam, 1, 8)
        # degrees start one past the window: entry (0,0) sits at degree N+1
        assert h[0, 0] == lam.coeff(2)
        assert h[0, 1] == lam.coeff(3)

    def test_zero_modulus_gives_zero_matrix(self):
        _, (lam, _) = _series_pair(0.0, 1, 6)
        assert np.all(_hankel(lam, 1, 6) == 0.0)

    def test_short_series_is_loud(self):
        lam, _ = _lambda_pair(0.5 + 0j, 10)
        with pytest.raises(ValueError, match="degree"):
            fredholm._band(lam, 2, 16)

    def test_tail_bound_covers_omitted_entries(self):
        # every entry left out of the L x L section has degree >= N + L + 1,
        # where |c_m| <= |k|^m / (1 - |k|^2) is below _ENTRY_TARGET; the
        # stored coefficients obey the bound up to the FFT's rounding
        for kv in (0.5, 0.9, 0.7j):
            a = abs(kv)
            for N in (1, 6):
                L, length = fredholm._section_size(a, N, 1)
                assert a ** (N + L + 1) / (1.0 - a * a) <= fredholm._ENTRY_TARGET
                m = np.arange(N + 1, length)
                for series in _lambda_pair(complex(kv), length):
                    noise = 4.0 * np.finfo(float).eps * np.abs(series.coeffs).max()
                    coeffs = np.abs(series.window(N + 1, length - 1))
                    assert np.all(coeffs <= a ** m / (1.0 - a * a) + noise)


class TestDeterminant:
    def test_free_modulus_exact(self):
        res = fredholm_det(CouplingK.physical(0.0), 3, 1e-10)
        assert res.det_value == 1.0

    def test_trace_identity_leading_order(self):
        # det(I-K) = 1 - tr K + O(k^8); tr K_N = sum (m-N) lam_m laminv_m
        kv, N = 0.2, 1
        k, (lam, lam_inv) = _series_pair(kv, N, 40)
        tr = sum(
            (m - N) * lam.coeff(m) * lam_inv.coeff(m)
            for m in range(N + 1, lam.max_degree)
        )
        det = fredholm_det(k, N, 1e-14).det_value
        assert abs(tr) > 1e-7
        assert abs(det - 1.0 + tr) < kv ** 8

    def test_second_order_expansion(self):
        for kv, N in ((0.25, 1), (0.25, 2)):
            k, (lam, lam_inv) = _series_pair(kv, N, 40)
            A = _hankel(lam, N, 40)
            B = _hankel(lam_inv, N, 40)
            K = A @ B
            first = np.trace(K)
            second = 0.0
            for p in range(40):
                for q in range(p + 1, 40):
                    second += K[p, p] * K[q, q] - K[p, q] * K[q, p]
            det = fredholm_det(k, N, 1e-14).det_value
            assert abs(det - (1.0 - first + second)) < 1e-12

    def test_cutoff_refinement_converges(self):
        k, (lam, lam_inv) = _series_pair(0.6, 1, 64)
        gaps = []
        ref = None
        for cut in (8, 16, 32):
            A = _hankel(lam, 1, cut)
            B = _hankel(lam_inv, 1, cut)
            sign, logdet = np.linalg.slogdet(np.eye(cut) - A @ B)
            val = sign * np.exp(logdet)
            if ref is not None:
                gaps.append(abs(val - ref))
            ref = val
        assert gaps[1] < gaps[0]
        assert abs(ref - fredholm_det(k, 1, 1e-13).det_value) < 1e-10

    def test_deficit_shrinks_with_separation(self):
        k = CouplingK.physical(0.5)
        prev = None
        for N in range(1, 8):
            deficit = abs(fredholm_det(k, N, 1e-12).det_value - 1.0)
            if prev is not None:
                assert deficit < 0.5 * prev
            prev = deficit

    def test_conjugation_symmetry(self):
        up = fredholm_det(CouplingK.analytic(0.3 + 0.2j), 2, 1e-11).det_value
        dn = fredholm_det(CouplingK.analytic(0.3 - 0.2j), 2, 1e-11).det_value
        assert abs(up - np.conj(dn)) < 1e-12

    def test_error_estimate_reported(self):
        res = fredholm_det(CouplingK.physical(0.5), 2, 1e-10)
        assert res.est_error <= 1e-10
        assert res.cutoff_used >= 4


class TestFactorizationIdentity:
    """Toeplitz value equals M^2 det(I - K_N) for every separation."""

    def test_identity_on_grid(self):
        for kv in (0.2, 0.5):
            k = CouplingK.physical(kv)
            m2 = magnetization(k) ** 2
            for N in (1, 2, 4):
                t = diagonal_correlation(k, N).value
                f = m2 * fredholm_det(k, N, 1e-12).det_value.real
                assert abs(t - f) / abs(t) < 1e-9


class TestCorrelationSum:
    def test_free_modulus_is_zero(self):
        assert s_via_fredholm(CouplingK.physical(0.0), 1e-10) == 0.0

    def test_frozen_tight_value(self):
        s = s_via_fredholm(CouplingK.physical(0.3), 1e-13)
        assert abs(s - _S_AT_03) < 1e-12

    def test_loose_tolerance_contract(self):
        s = s_via_fredholm(CouplingK.physical(0.3), 1e-9)
        assert abs(s - _S_AT_03) < 2e-9

    def test_scaling_with_modulus(self):
        # leading behavior ~ k^4, so halving k cuts S by roughly 16
        hi = s_via_fredholm(CouplingK.physical(0.2), 1e-12)
        lo = s_via_fredholm(CouplingK.physical(0.1), 1e-12)
        ratio = abs(hi) / abs(lo)
        assert 10.0 < ratio < 22.0


class TestTrailingMinors:
    """One truncated I - K_N carries det(I - K_N') for every N' >= N."""

    @pytest.mark.parametrize("kv", [0.5, 0.9, 0.5 + 0.3j])
    def test_sequence_matches_per_n_determinants(self, kv):
        k = CouplingK.analytic(kv) if isinstance(kv, complex) else CouplingK.physical(kv)
        seq = _det_at(complex(kv), 1, 200)
        for N in range(1, 13):
            assert abs(seq[N - 1] - fredholm_det(k, N, 1e-14).det_value) <= 1e-13

    def test_kernel_failure_flags_chi(self, monkeypatch):
        def failing(kval, N, cutoff):
            raise ConvergenceError("pivot 0 at step 3 of the unpivoted LU of I - K_N")

        monkeypatch.setattr(fredholm, "_det_at", failing)
        res = chi_d(CouplingK.analytic(0.5 + 0.3j), 1e-8, "fredholm")
        assert res.flagged


_KERNEL_GRID = [0.5, 0.9, 0.95, 0.5 + 0.3j, 0.7j, -0.6, 0.9 * np.exp(0.3j)]


class TestRankKernel:
    """The rank-r kernel against dense determinants of the Hankel product."""

    @staticmethod
    def _dense(kv, N):
        # every omitted entry is below |k|^(2 cut) ~ 1e-18
        cut = math.ceil(math.log(1e-18) / (2.0 * math.log(abs(kv))))
        lam, lam_inv = _lambda_pair(complex(kv), N + 2 * cut + 4)
        A = _hankel(lam, N, cut)
        B = _hankel(lam_inv, N, cut)
        return np.linalg.det(np.eye(cut) - A @ B)

    @pytest.mark.parametrize("kv", _KERNEL_GRID)
    def test_sequence_matches_dense_and_estimate_covers(self, kv):
        seq = _det_at(complex(kv), 1, 12)
        for N in range(1, 13):
            gap = abs(seq[N - 1] - self._dense(kv, N))
            assert gap <= 1e-13
            assert gap <= seq.move[N - 1]

    @pytest.mark.parametrize("kv", _KERNEL_GRID)
    def test_fredholm_det_estimate_covers_dense(self, kv):
        for N in (1, 4, 12):
            res = fredholm_det(CouplingK.analytic(kv), N, 1e-10)
            assert abs(res.det_value - self._dense(kv, N)) <= res.est_error

    def test_zero_modulus_gives_exact_one(self):
        seq = _det_at(0j, 1, 5)
        assert np.all(seq.values == 1.0)
        assert np.all(seq.move == 0.0)

    def test_nonfinite_coefficient_raises(self, monkeypatch):
        lam, lam_inv = fredholm._lambda_pair(0.5 + 0j, 256)
        bad = np.array(lam.coeffs)
        bad[10 - lam.min_degree] = np.nan  # degree 10 lies in every section
        poisoned = SeriesCoeffs(lam.kind, bad, lam.min_degree, lam.truncation_error)
        monkeypatch.setattr(fredholm, "_lambda_pair", lambda kval, length: (poisoned, lam_inv))
        with pytest.raises(ConvergenceError, match="non-finite"):
            _det_at(0.5 + 0j, 1, 8)


class TestToleranceGate:
    """An error estimate above tol is reported, never returned as met."""

    def test_fredholm_det_raises_below_its_estimate(self):
        k = CouplingK.physical(0.5)
        res = fredholm_det(k, 2, 1e-10)
        assert res.est_error > 0.0
        with pytest.raises(ConvergenceError, match="exceeds tol"):
            fredholm_det(k, 2, res.est_error / 2)

    def test_sum_estimate_above_tol_is_flagged(self):
        # the rounding allowance of ~1160 terms at k = 0.99 sums past 1e-12
        res = chi_d(CouplingK.physical(0.99), 1e-12, "fredholm")
        assert res.flagged
        assert res.est_error > 1e-12

    @pytest.mark.parametrize("kv", [0.5 + 0.3j, 0.7j, 0.9 * np.exp(0.3j)])
    def test_complex_factorization_stops_at_noise(self, kv):
        # a factorization that runs on rounding noise reaches rank L (up to 506 here)
        for N in (1, 2, 4, 11):
            L, length = fredholm._section_size(abs(kv), N, 1)
            lam, lam_inv = fredholm._lambda_pair(complex(kv), length)
            for series in (lam, lam_inv):
                _, U, _, _ = fredholm._cross(fredholm._band(series, N, L), L)
                assert U.shape[1] <= 20
