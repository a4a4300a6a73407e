"""Toeplitz determinant route for the diagonal correlation."""
import math
import random
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from ising_lab import ConvergenceError, CouplingK, chi_d, diagonal_correlation, magnetization
from ising_lab import cli, params, toeplitz
from ising_lab.parallel import parallel_map
from ising_lab.params import _cache_length, _phi_series
from ising_lab.toeplitz import _correlations, _levinson


def _phi(k: CouplingK, N: int):
    """The phi series _correlations reads for D(1..N)."""
    return _phi_series(complex(k.k), _cache_length(N))


def _coeff(phi, m: int):
    """phi_m from the (degrees >= 0, degrees <= 0) pair of _phi_series."""
    col, row = phi
    return col[m] if m >= 0 else row[-m]


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
        assert abs(res.value - _coeff(_phi(k, 1), 0)) < 1e-14

    def test_two_by_two_matches_direct_cofactor(self):
        k = CouplingK.physical(0.35)
        phi = _phi(k, 2)
        b, a, c = (_coeff(phi, m) for m in (-1, 0, 1))
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


@pytest.fixture
def cold_pivots():
    """An empty cache of Levinson pivots, emptied again afterwards, so that
    a test that patches _levinson neither reads nor leaves cached pivots."""
    toeplitz._pivots.cache_clear()
    yield
    toeplitz._pivots.cache_clear()


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
        t = {m: _coeff(phi, m) for m in range(-63, 64)}
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
            ([1.0, np.inf, 2.0], [1.0, 0.5, 4.0]),  # eps_2 = -inf
        ],
    )
    def test_zero_or_nonfinite_pivot_raises(self, col, row):
        # an infinite pivot raises without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                _levinson(np.array(col), np.array(row))

    def test_past_the_circle_cap_raises_before_any_transform(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("FFT run")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        monkeypatch.setattr(np.fft, "hfft", no_fft)
        with pytest.raises(ConvergenceError, match="points on the unit circle"):
            diagonal_correlation(CouplingK.physical(0.5), 2**21)

    @pytest.mark.usefixtures("cold_pivots")
    def test_kernel_failure_flags_chi(self, monkeypatch):
        def failing(col, row):
            raise ConvergenceError("pivot 0 at step 3 of the Levinson recursion")

        monkeypatch.setattr(toeplitz, "_levinson", failing)
        res = chi_d(CouplingK.physical(0.5), 1e-8, "toeplitz_direct")
        assert res.flagged

    @pytest.mark.usefixtures("cold_pivots")
    def test_bounds_check_allows_rounding_only(self, monkeypatch):
        # D(N) may dip below M^2 by the rounding allowance, not by more
        k, N = CouplingK.physical(0.5), 40
        m2 = magnetization(k) ** 2
        allowance = 1e-12 + toeplitz._LEVINSON_ROUNDING * N
        kernel = toeplitz._levinson

        def ending_at(target):
            def run(col, row):
                eps = kernel(col, row).copy()
                eps[-1] *= target / np.prod(eps)
                return eps
            return run

        # a run of exactly N pivots, so that its last pivot is eps_N
        monkeypatch.setattr(toeplitz, "_levinson", ending_at(m2 - 0.5 * allowance))
        dets, _ = _correlations(k, N, N)
        assert m2 - allowance < dets[-1] < m2
        toeplitz._pivots.cache_clear()
        monkeypatch.setattr(toeplitz, "_levinson", ending_at(m2 - 2.0 * allowance))
        with pytest.raises(ConvergenceError, match=f"N={N}"):
            _correlations(k, N, N)

    @pytest.mark.usefixtures("cold_pivots")
    def test_bounds_check_keeps_prefix_semantics(self, monkeypatch):
        # every run of 20 pivots or more leaves the band first at n = 20
        k, n_bad = CouplingK.physical(0.5), 20
        kernel = toeplitz._levinson

        def leaving_at(col, row):
            eps = kernel(col, row).copy()
            if len(eps) >= n_bad:
                eps[n_bad - 1] *= 2.0   # doubles D(20) and every D(n) past it, above 1
            return eps

        monkeypatch.setattr(toeplitz, "_levinson", leaving_at)
        for N in range(1, 65):
            if N < n_bad:
                dets, _ = _correlations(k, N)
                assert len(dets) == N
            else:
                with pytest.raises(ConvergenceError, match=f"at N={n_bad}$"):
                    _correlations(k, N)
        # an analytic call at the same real k reads the same runs, unchecked
        anal = CouplingK.analytic(0.5)
        for N in range(1, 65):
            dets, _ = _correlations(anal, N)
            assert diagonal_correlation(anal, N).value == dets[-1]
        assert dets[n_bad - 1] > 1.0

    # at 0.7i the smallest |eps_n| is not the first
    @pytest.mark.parametrize("kv", [0.5, 0.5 + 0.3j, 0.7j])
    def test_correlation_is_last_entry(self, kv):
        k = _coupling(kv)
        long, _ = _correlations(k, 40)
        for N in (1, 7, 40):
            dets, cond = _correlations(k, N)
            eps = _levinson(*(c[:N] for c in _phi(k, N)))
            res = diagonal_correlation(k, N)
            assert res.value == dets[-1]
            assert res.cond_estimate == cond[-1] == np.max(np.abs(eps)) / np.min(np.abs(eps))
            assert abs(res.value - long[N - 1]) <= 1e-14


@pytest.mark.usefixtures("cold_pivots")
class TestFailedCheck:
    """A D(N) outside M^2 <= D(N) <= 1 is a ConvergenceError: the commands
    exit 2 with one convergence line and chi_d flags the row."""

    @pytest.fixture(autouse=True)
    def leaving_band(self, monkeypatch):
        # every run of 20 pivots or more leaves the band first at n = 20
        kernel = toeplitz._levinson

        def leaving_at(col, row):
            eps = kernel(col, row).copy()
            if len(eps) >= 20:
                eps[19] *= 2.0
            return eps

        monkeypatch.setattr(toeplitz, "_levinson", leaving_at)

    @pytest.mark.parametrize("argv", [["correlation", "--k", "0.5", "--n", "40"],
                                      ["gcbo-check", "--k", "0.5", "--n-max", "25"]])
    def test_command_exits_2_with_one_line(self, capsys, argv):
        assert cli.main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert re.fullmatch(r"convergence: correlation 1\.86\d* violates "
                            r"M\^2 <= D\(N\) <= 1 at N=20", lines[0]), lines[0]

    def test_chi_row_is_flagged(self, monkeypatch):
        steps = []
        kernel = toeplitz._levinson

        def counting(col, row):
            steps.append(len(col))
            return kernel(col, row)

        monkeypatch.setattr(toeplitz, "_levinson", counting)
        res = chi_d(CouplingK.physical(0.9), 1e-8, "toeplitz_direct")
        assert steps == [20]
        assert res.flagged and math.isnan(res.beta_inv_chi_d)
        assert re.fullmatch(r"correlation \d\.\d+ violates M\^2 <= D\(N\) <= 1 at N=20",
                            res.reason), res.reason


@pytest.mark.usefixtures("cold_pivots")
class TestSharedRun:
    """Every call at one k reads its pivots from one cached run per
    (k, n), _pivots."""

    @pytest.mark.parametrize("kv", [0.7, 0.95, 0.5 + 0.3j])
    def test_any_call_order_matches_a_fresh_run(self, kv):
        k = _coupling(kv)
        order = list(range(1, 71))
        random.Random(5).shuffle(order)
        for N in order:
            col, row = _phi(k, N)
            eps = _levinson(col[:N], row[:N])
            want = np.cumprod(eps)[-1]
            res = diagonal_correlation(k, N)
            assert res.value == (want.real if k.mode == "physical" else want)
            assert res.cond_estimate == np.max(np.abs(eps)) / np.min(np.abs(eps))
        # the toeplitz_direct route reads runs of its own sizes
        for n in order:
            eps = _levinson(*(c[:n] for c in _phi(k, n)))
            mags = np.abs(eps)
            dets, cond, _ = toeplitz._pivots(complex(k.k), n)
            assert np.array_equal(dets, np.cumprod(eps))
            assert np.array_equal(cond, np.maximum.accumulate(mags) / np.minimum.accumulate(mags))

    @staticmethod
    def _counting(monkeypatch):
        """Patch _levinson to record the number of steps of each run."""
        steps = []
        kernel = toeplitz._levinson

        def counting(col, row):
            steps.append(len(col))
            return kernel(col, row)

        monkeypatch.setattr(toeplitz, "_levinson", counting)
        return steps

    def test_calls_up_to_n_run_each_series_once(self, monkeypatch):
        steps = self._counting(monkeypatch)
        k = CouplingK.physical(0.7)
        for N in range(1, 33):
            diagonal_correlation(k, N)
        # one run per series length 1, 2, 4, .., 32
        assert steps == [1, 2, 4, 8, 16, 32]
        assert sum(steps) <= 63

    def test_toeplitz_direct_runs_exactly_its_terms(self, monkeypatch):
        steps = self._counting(monkeypatch)
        k = CouplingK.physical(0.7)
        _, n, _ = toeplitz._s_toeplitz_terms(k, 1e-8)
        # n is no power of two, so a run of _cache_length(n) would be longer
        assert steps == [n] and n & (n - 1)
        # a repeated call reads the cache
        toeplitz._s_toeplitz_terms(k, 1e-8)
        assert steps == [n]

    def test_finished_run_keeps_only_its_pivots(self):
        k = CouplingK.physical(0.7)
        diagonal_correlation(k, 20)
        dets, cond, bad = toeplitz._pivots(0.7 + 0j, 32)
        assert toeplitz._pivots.cache_info().currsize == 1
        assert np.array_equal(dets, np.cumprod(_levinson(*_phi(k, 32))))
        assert bad == 0
        # D(1..n) and the conditioning are read only, float64 at real k
        for a in (dets, cond):
            assert a.shape == (32,) and a.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        # at complex k, D(1..n) is complex128 and its conditioning float64
        dets, cond, bad = toeplitz._pivots(0.5 + 0.3j, 32)
        assert (dets.dtype, cond.dtype, bad) == (np.complex128, np.float64, 0)
        for a in (dets, cond):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        assert (toeplitz._pivots.cache_parameters()["maxsize"]
                == params._phi_series.cache_parameters()["maxsize"])

    def test_threads_sharing_one_run_agree(self, monkeypatch):
        monkeypatch.setenv("ISING_LAB_THREADS", "8")
        k = CouplingK.physical(0.95)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = parallel_map(lambda kk: chi_d(kk, 1e-8, "toeplitz_direct"), [k] * 8)
        finally:
            sys.setswitchinterval(interval)
        toeplitz._pivots.cache_clear()
        alone = chi_d(k, 1e-8, "toeplitz_direct")
        assert rows == [alone] * 8
