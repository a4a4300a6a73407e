"""Command-line surface: schemas, determinism, config handling, exit codes."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ising_lab
from ising_lab import cli, fredholm, integrals, params
from ising_lab.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCorrelation:
    def test_csv_schema(self, capsys):
        code, out = _run(capsys, ["correlation", "--k", "0.5", "--n", "4"])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "k,N,value,cond_estimate,deviation"
        fields = lines[1].split(",")
        assert fields[0] == "0.5"
        assert fields[1] == "4"
        assert 0.0 < float(fields[2]) < 1.0

    def test_seventeen_digit_floats(self, capsys):
        _, out = _run(capsys, ["correlation", "--k", "0.5", "--n", "4"])
        value = out.strip().splitlines()[1].split(",")[2]
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 16

    def test_json_format(self, capsys):
        code, out = _run(
            capsys, ["correlation", "--k", "0.3", "--n", "2", "--format", "json"]
        )
        assert code == 0
        recs = json.loads(out)
        assert len(recs) == 1
        assert recs[0]["N"] == 2
        assert set(recs[0]) == {"k", "N", "value", "cond_estimate", "deviation"}


class TestGcboCheck:
    def test_residuals_tiny(self, capsys):
        code, out = _run(capsys, ["gcbo-check", "--k", "0.4", "--n-max", "3"])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "k,N,toeplitz,m2_fredholm,rel_residual"
        assert len(lines) == 4
        for line in lines[1:]:
            assert float(line.split(",")[-1]) < 1e-8


class TestChi:
    def test_row(self, capsys):
        code, out = _run(capsys, ["chi", "--k", "0.3", "--route", "fredholm"])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "k,route,beta_inv_chi_d,terms_used,est_error,flagged"
        fields = lines[1].split(",")
        assert fields[1] == "fredholm"
        assert fields[5] == "false"
        assert abs(float(fields[2]) - 0.0241491478) < 1e-8

    def test_domain_error_exit_code(self, capsys):
        code, _ = _run(capsys, ["chi", "--k", "1.2", "--route", "fredholm"])
        assert code == 1

    @pytest.mark.parametrize("k, tol", [("0.995", "1e-12"), ("0.996", "1e-10")])
    def test_near_critical_toeplitz_row(self, capsys, k, tol):
        # the last D(N) lie within Levinson rounding of M^2: a row, no traceback
        code, out = _run(
            capsys, ["chi", "--k", k, "--route", "toeplitz_direct", "--tol", tol]
        )
        lines = out.strip().splitlines()
        assert code in (0, 2)
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "toeplitz_direct"

    def test_flagged_row_keeps_its_terms(self, capsys):
        # the rounding allowance of the fredholm terms sums past tol = 1e-12
        code, out = _run(capsys, ["chi", "--k", "0.99", "--route", "fredholm", "--tol", "1e-12"])
        fields = out.strip().splitlines()[1].split(",")
        assert code == 2
        assert fields[5] == "true"
        one = params._one_particle(0.99 + 0j)
        n = one.stop(1e-12)
        assert int(fields[3]) == n
        m2 = ising_lab.magnetization(ising_lab.CouplingK.physical(0.99)) ** 2
        moved = float(np.sum(fredholm._det_at(0.99 + 0j, 1, n).move))
        want = 2.0 * m2 * (moved + one.tails[n])
        assert abs(float(fields[4]) - want) <= 1e-12 * want
        # the value is the full sum: within its est_error of a 1e-10 run
        ref = ising_lab.chi_d(ising_lab.CouplingK.physical(0.99), 1e-10, "fredholm")
        assert abs(float(fields[2]) - ref.beta_inv_chi_d) <= want + ref.est_error

    def test_integral_route_node_gap_row(self, capsys):
        # past k = 0.9998 the 64- and 96-node rules part by more than tol:
        # a flagged row that keeps the value summed, its N and its est_error
        code, out = _run(capsys, ["chi", "--k", "0.9999", "--route", "integral"])
        fields = out.strip().splitlines()[1].split(",")
        assert code == 2
        assert fields[1] == "integral"
        assert abs(float(fields[2]) * 1e-4 ** 0.75 - 0.15116) < 1e-5
        assert int(fields[3]) > 0
        assert 1e-5 < float(fields[4]) < 1e-3
        assert fields[5] == "true"

    def test_flagged_row_warns_with_its_reason(self, capsys):
        code = main(["chi", "--k", "0.9999", "--route", "integral"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("warning: k=0.99990000000000001: the integral route ")
        assert "node-refinement gap of 8.71e-05 in chi_d, above tol=1e-08" in err[0]


class TestSn:
    def test_tensor_row(self, capsys):
        code, out = _run(capsys, ["sn", "--kappa", "0.4", "--n", "1"])
        lines = out.strip().splitlines()
        assert code == 0
        header = "kappa_re,kappa_im,n,form,method,value_re,value_im,rel_error_est"
        assert lines[0] == header
        fields = lines[1].split(",")
        assert fields[3] == "Sn2"
        assert fields[4] == "tensor_gauss"
        assert float(fields[6]) == 0.0

    def test_complex_argument(self, capsys):
        code, out = _run(capsys, ["sn", "--kappa", "0.2,0.3", "--n", "1"])
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert fields[0] == "0.20000000000000001"
        assert float(fields[6]) != 0.0

    @pytest.mark.parametrize("n", [200, 600])
    @pytest.mark.parametrize("extra", [
        ["--mc-samples", "1000"], ["--form", "Sn1"], [],
    ])
    def test_large_n_without_traceback(self, capsys, n, extra):
        # a row with exit 0 (the prefactor underflows to 0), or one error
        # line with exit 1 (tensor_gauss takes the Vandermonde form to n = 2)
        code = main(["sn", "--kappa", "0.5", "--n", str(n), *extra])
        captured = capsys.readouterr()
        if code == 0:
            lines = captured.out.strip().splitlines()
            assert len(lines) == 2 and captured.err == ""
            assert float(lines[1].split(",")[5]) == 0.0
        else:
            assert code == 1 and captured.out == ""
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_monte_carlo_deterministic(self, capsys):
        argv = ["sn", "--kappa", "0.3", "--n", "2", "--mc-samples", "20000",
                "--seed", "9"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second
        assert "monte_carlo" in first


class TestBoundaryScan:
    def test_small_scan(self, capsys):
        code, out = _run(
            capsys,
            ["boundary-scan", "--eps", "1/3", "--n", "3", "--ell", "1",
             "--radii", "2..5", "--mc-samples", "20000", "--seed", "4"],
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0].startswith("p,q,n,ell,radius,value_re,value_im,fit_slope")
        assert len(lines) == 5
        labels = {line.split(",")[-1] for line in lines[1:]}
        assert len(labels) == 1

    def test_readme_scan_is_real(self, capsys):
        # the ray toward exactly -1 stays on the real axis
        code, out = _run(capsys, ["boundary-scan", "--eps", "1/2", "--n", "2",
                                  "--ell", "7", "--radii", "4..10"])
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 8
        assert all(line.split(",")[6] == "0" for line in lines[1:])

    def test_underflowing_monte_carlo_scan_exits_2(self, capsys):
        # at n = 120 the Vandermonde and pair products underflow to 0/0:
        # one convergence line and exit 2, not NaN rows labelled bounded
        code = main(["boundary-scan", "--eps", "1/120", "--n", "120", "--ell", "0",
                     "--radii", "2..5", "--mc-samples", "200"])
        captured = capsys.readouterr()
        assert code == 2
        assert "nan" not in captured.out and "bounded" not in captured.out
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("convergence:") and "underflow" in lines[0]

    def test_bad_eps_rejected(self, capsys):
        code, _ = _run(capsys, ["boundary-scan", "--eps", "2/4", "--n", "4",
                                "--ell", "1", "--radii", "2..5"])
        assert code == 1


class TestSweep:
    def test_range_grid(self, capsys):
        code, out = _run(
            capsys, ["sweep", "--grid", "0.1:0.3:0.1", "--route", "toeplitz_direct"]
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 4
        assert lines[0] == "k,beta_inv_chi_d,route,terms_used,est_error,flagged"

    def test_empty_grid(self, capsys):
        code, out = _run(capsys, ["sweep", "--grid", "", "--route", "fredholm"])
        assert code == 0
        assert out.strip() == "k,beta_inv_chi_d,route,terms_used,est_error,flagged"

    def test_flagged_point_exit_code(self, capsys):
        code, out = _run(
            capsys, ["sweep", "--grid", "0.3,1.5", "--route", "toeplitz_direct"]
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert lines[2].split(",")[-1] == "true"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_flagged_rows_warn_in_grid_order(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("ISING_LAB_THREADS", threads)
        code = main(["sweep", "--grid", "0.9999,0.3,1.5", "--route", "integral"])
        captured = capsys.readouterr()
        assert code == 2
        # est_error holds the rounding estimate of the Nystrom terms too
        assert captured.out.splitlines()[1:] == [
            "0.99990000000000001,151.15588059268629,integral,38720,8.705187556715253e-05,true",
            "0.29999999999999999,0.024149148228160507,integral,2,9.8802984467176003e-10,false",
            "1.5,nan,integral,0,inf,true",
        ]
        err = captured.err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("warning: k=0.99990000000000001: the integral route ")
        assert err[1] == "warning: k=1.5: |k| must be < 1, got |k| = 1.5"

    def test_json_is_strict(self, capsys):
        # a flagged row's NaN value and infinite est_error print as null
        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        code, out = _run(capsys, ["sweep", "--grid", "0.3,1.5", "--format", "json"])
        assert code == 2
        rows = json.loads(out, parse_constant=refuse)
        assert rows[0]["flagged"] is False and rows[0]["est_error"] > 0.0
        assert rows[1]["beta_inv_chi_d"] is None and rows[1]["est_error"] is None
        assert rows[1]["flagged"] is True

    def test_byte_identical_runs(self, capsys):
        argv = ["sweep", "--grid", "0.1,0.3", "--route", "fredholm"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second


def _clear_caches():
    """Clear every cache of the package, found by walking its modules, so a
    new or renamed cache cannot carry one run's tables into the next."""
    cleared = 0
    for info in pkgutil.iter_modules(ising_lab.__path__, "ising_lab."):
        for obj in vars(importlib.import_module(info.name)).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
                cleared += 1
    assert cleared > 0


class TestThreadCount:
    @pytest.mark.parametrize("argv", [
        ["boundary-scan", "--eps", "1/2", "--n", "2", "--ell", "7", "--radii", "4..8"],
        ["sweep", "--grid", "0.1,0.5,0.9", "--route", "fredholm"],
        ["sweep", "--grid", "0.7,0.7,0.9,0.9", "--route", "toeplitz_direct"],
        ["gcbo-check", "--k", "0.7", "--n-max", "64"],
        ["sweep", "--grid", "0.3,0.9,0.99", "--route", "integral"],
    ])
    def test_stdout_independent_of_threads(self, capsys, monkeypatch, argv):
        # each run computes its tables, moments, series, runs and blocks
        # afresh under its own pool
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ISING_LAB_THREADS", threads)
            _clear_caches()
            code, out = _run(capsys, argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_defaults_from_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("k = 0.25\nn = 3  # separation\n")
        code, out = _run(capsys, ["correlation", "--config", str(conf)])
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert fields[0] == "0.25"
        assert fields[1] == "3"

    def test_flag_overrides_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("k=0.25\nn=3\n")
        code, out = _run(
            capsys, ["correlation", "--config", str(conf), "--k", "0.4"]
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[0]) == 0.4
        assert fields[1] == "3"

    def test_malformed_line_rejected(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("just words\n")
        code, _ = _run(capsys, ["correlation", "--config", str(conf)])
        assert code == 1

    def test_readme_example(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("k = 0.3\nroute = fredholm   # comment\ntol = 1e-3\n")
        code, out = _run(capsys, ["chi", "--config", str(conf), "--tol", "1e-10"])
        assert code == 0
        _, explicit = _run(
            capsys, ["chi", "--k", "0.3", "--route", "fredholm", "--tol", "1e-10"]
        )
        assert out == explicit
        _, loose = _run(
            capsys, ["chi", "--k", "0.3", "--route", "fredholm", "--tol", "1e-3"]
        )
        assert out != loose


class TestInProcessCalls:
    def test_calls_stay_independent(self, capsys, tmp_path):
        # one parser serves every call in a process; each call prints what
        # it prints with a freshly built parser
        conf = tmp_path / "run.conf"
        # at k = 0.3 one term meets both 1e-3 and the default 1e-8; 1e-12
        # needs two, so the file's tol shows in the row
        conf.write_text("k = 0.3\nroute = fredholm\ntol = 1e-12\n")
        calls = [
            ["chi", "--config", str(conf)],
            ["chi", "--k", "0.3"],
            ["chi", "--k", "0.3", "--toll", "1e-3"],
            ["correlation", "--k", "0.25", "--n", "3"],
        ]

        def call(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            cli._config_parser.cache_clear()
            alone.append(call(argv))
        cli._build_parser.cache_clear()
        together = [call(argv) for argv in calls]
        assert together == alone
        assert cli._build_parser.cache_info().misses == 1
        assert [c for c, _, _ in alone] == [0, 0, 1, 0]
        assert alone[0][1] != alone[1][1]


class TestArgumentErrors:
    """Every bad argument exits 1 with one error line and no traceback."""

    def _error(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        return lines[0]

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("k = abc\n", "invalid float value"),
            ("k = 0.3\nformat = xml\n", "invalid choice"),
            ("k = 0.3\ntoll = 1e-3\n", "--toll"),
        ],
    )
    def test_bad_config_file(self, capsys, tmp_path, text, needle):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        line = self._error(capsys, ["chi", "--config", str(conf)])
        assert needle in line

    def test_missing_config_file(self, capsys, tmp_path):
        line = self._error(
            capsys, ["chi", "--k", "0.3", "--config", str(tmp_path / "absent.conf")]
        )
        assert "absent.conf" in line

    def test_nested_config_file_rejected(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"k = 0.3\nconfig = {tmp_path / 'other.conf'}\n")
        line = self._error(capsys, ["chi", "--config", str(conf)])
        assert "another config file" in line

    def test_config_without_path(self, capsys):
        self._error(capsys, ["chi", "--k", "0.3", "--config"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["chi", "--k", "abc"],
            ["sn", "--kappa", "abc", "--n", "2"],
            ["sn", "--kappa", "0.5j,1", "--n", "2"],
            ["sweep", "--grid", "abc"],
            ["sweep", "--grid", "0:1:x"],
            ["sweep", "--grid", "0:inf:0.1"],
            ["sweep", "--grid", "0:nan:0.1"],
            ["sweep", "--grid", "nan:1:0.1"],
            # ~5e299 points: rejected before any list is built
            ["sweep", "--grid", "0:0.5:1e-300"],
        ],
    )
    def test_bad_flag_value(self, capsys, argv):
        self._error(capsys, argv)

    def test_grid_range_cap(self):
        # 10^6 points is the most a range may expand to
        assert len(cli._parse_grid("0:0.999999:1e-6")) == cli._GRID_MAX
        with pytest.raises(cli.DomainError, match="more than 1000000 points"):
            cli._parse_grid("0:1:1e-6")

    def test_too_few_nodes(self, capsys, tmp_path):
        # --nodes 0 is rejected like --nodes 1, as a flag and as a config key
        want = "error: nodes_per_dim must be >= 2"
        for nodes in ("0", "1"):
            for argv in (["sn", "--kappa", "0.5", "--n", "2", "--nodes", nodes],
                         ["boundary-scan", "--eps", "1/2", "--n", "2", "--ell", "7",
                          "--radii", "4..6", "--nodes", nodes]):
                assert self._error(capsys, argv) == want
            conf = tmp_path / "run.conf"
            conf.write_text(f"eps = 1/2\nn = 2\nell = 7\nnodes = {nodes}\n")
            assert self._error(capsys, ["boundary-scan", "--config", str(conf)]) == want
            conf.write_text(f"kappa = 0.5\nn = 2\nnodes = {nodes}\n")
            assert self._error(capsys, ["sn", "--config", str(conf)]) == want

    def test_too_many_nodes(self, capsys, tmp_path, monkeypatch):
        # --nodes 257 is rejected before any node rule is built, as a flag
        # and as a config key; 256, the largest, still makes a spec
        built = []
        gauss01 = integrals._gauss01
        monkeypatch.setattr(integrals, "_gauss01", lambda G: built.append(G) or gauss01(G))
        want = "error: nodes_per_dim must be <= 256"
        for nodes in ("257", "256"):
            calls = [["sn", "--kappa", "0.5", "--n", "2", "--nodes", nodes],
                     ["boundary-scan", "--eps", "1/2", "--n", "2", "--ell", "7",
                      "--radii", "4..6", "--nodes", nodes]]
            for i, text in enumerate((f"kappa = 0.5\nn = 2\nnodes = {nodes}\n",
                                      f"eps = 1/2\nn = 2\nell = 7\nnodes = {nodes}\n")):
                path = tmp_path / f"run{i}.conf"
                path.write_text(text)
                calls.append([calls[i][0], "--config", str(path)])
            for argv in calls:
                if nodes == "257":
                    assert self._error(capsys, argv) == want
                else:
                    args = cli._build_parser().parse_args(cli._merge_config(argv))
                    assert cli._spec_from(args).nodes_per_dim == 256
        assert built == []

    def test_negative_seed(self, capsys):
        line = self._error(capsys, ["sn", "--kappa", "0.2,0.3", "--n", "3",
                                    "--mc-samples", "1000", "--seed", "-1"])
        assert line == "error: seed must be >= 0"

    @pytest.mark.parametrize("extra", [[], ["--seed", "3"]])
    def test_zero_monte_carlo_samples(self, capsys, extra):
        # --mc-samples 0 asks for Monte Carlo with too few samples, with or
        # without a seed; it does not fall back to the tensor rule
        line = self._error(capsys, ["sn", "--kappa", "0.5", "--n", "2",
                                    "--mc-samples", "0"] + extra)
        assert line == "error: mc_samples must be >= 2"

    @pytest.mark.parametrize("seed", ["-1", "7"])
    def test_seed_without_monte_carlo(self, capsys, tmp_path, seed):
        # --seed seeds Monte Carlo only: without --mc-samples it is an error,
        # as a flag and as a config key, whatever its value
        want = "error: --seed needs --mc-samples: it seeds Monte Carlo only"
        for argv in (["sn", "--kappa", "0.5", "--n", "2", "--seed", seed],
                     ["boundary-scan", "--eps", "1/2", "--n", "2", "--ell", "7",
                      "--radii", "4..6", "--seed", seed]):
            assert self._error(capsys, argv) == want
        conf = tmp_path / "run.conf"
        conf.write_text(f"kappa = 0.5\nn = 2\nseed = {seed}\n")
        assert self._error(capsys, ["sn", "--config", str(conf)]) == want

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_monte_carlo_seed_defaults_to_12345(self, capsys):
        argv = ["sn", "--kappa", "0.3", "--n", "2", "--mc-samples", "2000"]
        assert _run(capsys, argv) == _run(capsys, argv + ["--seed", "12345"])

    def test_cauchy_form_has_no_monte_carlo(self, capsys):
        line = self._error(capsys, ["sn", "--kappa", "0.5", "--n", "2", "--form", "Sn1",
                                    "--mc-samples", "1000"])
        assert "Monte Carlo" in line

    @pytest.mark.parametrize(
        "argv",
        [["chi", "--k", "nan"], ["sn", "--kappa", "nan", "--n", "1"]],
    )
    def test_non_finite_input(self, capsys, argv):
        line = self._error(capsys, argv)
        assert "finite" in line


class TestWarnings:
    def test_one_line_per_warning(self, capsys):
        # 2000 samples leave a standard error of ~21%, above the 5% target
        argv = ["sn", "--kappa", "0.2,0.3", "--n", "3", "--mc-samples", "2000",
                "--seed", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: monte carlo standard error")
        assert ".py" not in lines[0]
        assert captured.out.startswith("kappa_re,kappa_im,n,form,method")

    def test_readme_monte_carlo_example_is_quiet(self, capsys):
        # 200 000 samples reach a 2.8% standard error, within the target
        argv = ["sn", "--kappa", "0.2,0.3", "--n", "3", "--mc-samples", "200000",
                "--seed", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert float(captured.out.splitlines()[1].split(",")[-1]) < 0.05


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        # the runtime needs numpy only; scipy is a test dependency
        src = str(Path(ising_lab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import ising_lab.cli, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures is imported by parallel_map only when it runs
        # two or more workers; the thread-count tests cover that path
        src = str(Path(ising_lab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import ising_lab, ising_lab.cli, sys; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"
