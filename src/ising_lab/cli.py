"""Command-line interface: CSV or JSON rows on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 domain or argument error, 2 a result was
convergence-flagged.  Warnings print as one "warning:" line each.
Floats are printed with 17 significant digits so identical configurations
reproduce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from .boundary import RootOfUnity, radial_scan, radii_grid
from .chi import chi_d, sweep
from .errors import ConvergenceError, DomainError
from .fredholm import fredholm_det
from .integrals import QuadratureSpec, s_n
from .params import CouplingK, magnetization
from .toeplitz import diagonal_correlation

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_FLAGGED = 2
# the most points a start:stop:step grid may expand to
_GRID_MAX = 10**6


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(columns, rows, fmt: str):
    if fmt == "json":
        # NaN and Infinity are not JSON (RFC 8259): a non-finite float is null
        recs = [{c: None if isinstance(v, float) and not math.isfinite(v) else v
                 for c, v in zip(columns, row)} for row in rows]
        print(json.dumps(recs, indent=2))
        return
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    print("\n".join(out))


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise DomainError(f"cannot parse number {text!r}") from exc


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_float(parts[0]), _float(parts[1]))
    raise DomainError(f"cannot parse complex value {text!r}; use re or re,im")


def _parse_grid(text: str):
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise DomainError("grid range must be start:stop:step")
        a, b, step = (_float(p) for p in pieces)
        if not all(map(math.isfinite, (a, b, step))):
            raise DomainError(f"grid range must be finite, got {text!r}")
        if step <= 0:
            raise DomainError("grid step must be positive")
        # checked before floor(): (b - a) / step may overflow to inf
        span = (b - a) / step + 1e-9
        if span >= _GRID_MAX:
            raise DomainError(f"grid range {text!r} has more than {_GRID_MAX} points")
        count = math.floor(span) + 1
        if count < 1:
            return []
        return [a + i * step for i in range(count)]
    return [_float(p) for p in text.split(",") if p.strip()]


def _parse_eps(text: str) -> RootOfUnity:
    try:
        p_str, q_str = text.split("/")
        p, q = int(p_str), int(q_str)
    except ValueError as exc:
        raise DomainError(f"cannot parse root of unity {text!r}; use p/q") from exc
    return RootOfUnity(p=p, q=q)


def _parse_jrange(text: str):
    try:
        j0_str, j1_str = text.split("..")
        return int(j0_str), int(j1_str)
    except ValueError as exc:
        raise DomainError(f"cannot parse radii range {text!r}; use j0..j1") from exc


def _spec_from(args) -> QuadratureSpec:
    """The quadrature of the flags; --seed seeds Monte Carlo only, so it
    needs --mc-samples."""
    if getattr(args, "mc_samples", None) is not None:
        return QuadratureSpec(
            method="monte_carlo",
            mc_samples=args.mc_samples,
            seed=QuadratureSpec.seed if args.seed is None else args.seed,
        )
    if args.seed is not None:
        raise DomainError("--seed needs --mc-samples: it seeds Monte Carlo only")
    nodes = QuadratureSpec.nodes_per_dim if args.nodes is None else args.nodes
    return QuadratureSpec(nodes_per_dim=nodes)


def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--config", default=None, help="flat key=value file; flags override")


def _add_quad_flags(sp):
    sp.add_argument("--nodes", type=int, default=None, help="tensor Gauss nodes per axis")
    sp.add_argument("--mc-samples", type=int, default=None, help="Monte Carlo samples")
    sp.add_argument("--seed", type=int, default=None,
                    help="Monte Carlo seed, default 12345; needs --mc-samples")


class _Parser(argparse.ArgumentParser):
    """Raises DomainError on bad arguments, so they exit 1 like bad input."""

    def error(self, message):
        raise DomainError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="ising-lab",
        description="Diagonal Ising correlations, susceptibility, and "
        "natural-boundary probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("correlation", help="diagonal correlation D(N)")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)

    sp = sub.add_parser("gcbo-check", help="Toeplitz vs M^2 det(I-K_N) residuals")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp)

    sp = sub.add_parser("chi", help="diagonal susceptibility beta^-1 chi_d")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--route", choices=("fredholm", "toeplitz_direct", "integral"),
                    default="fredholm")
    sp.add_argument("--tol", type=float, default=1e-8)
    _add_common(sp)

    sp = sub.add_parser("sn", help="form-factor term S_n")
    sp.add_argument("--kappa", type=str, required=True, help="re or re,im")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--form", choices=("Sn1", "Sn2"), default="Sn2")
    _add_quad_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("boundary-scan", help="radial scan of the probe integral")
    sp.add_argument("--eps", type=str, required=True, help="root of unity p/q")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--radii", type=str, default="4..10", help="j range j0..j1")
    _add_quad_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("sweep", help="chi_d over a k grid")
    sp.add_argument("--grid", type=str, required=True,
                    help="comma list or start:stop:step")
    sp.add_argument("--route", choices=("fredholm", "toeplitz_direct", "integral"),
                    default="fredholm")
    sp.add_argument("--tol", type=float, default=1e-8)
    _add_common(sp)
    return parser


def _load_config(path: str) -> list:
    """The file's key = value lines as --key=value flags, in file order."""
    flags = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read config file {path!r}: not UTF-8 text") from exc
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line without '=': {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        if key == "config":
            raise DomainError(f"config file {path!r} may not name another config file")
        flags.append(f"--{key}={val}")
    return flags


@functools.lru_cache(maxsize=1)
def _config_parser() -> argparse.ArgumentParser:
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    return pre


def _merge_config(argv: list) -> list:
    """argv with the --config file's flags inserted after the subcommand.

    argparse keeps the last occurrence of a flag, so explicit flags later
    on the command line win, and the file can supply required flags.
    Unknown keys and bad values fail the parse like bad flags do.
    """
    path = _config_parser().parse_known_args(argv)[0].config
    if path is None:
        return argv
    at = next((i + 1 for i, tok in enumerate(argv) if not tok.startswith("-")), len(argv))
    return argv[:at] + _load_config(path) + argv[at:]


def _run_correlation(args):
    k = CouplingK.physical(args.k)
    res = diagonal_correlation(k, args.n)
    m = magnetization(k)
    dev = complex(res.value).real - m * m if args.n >= 1 else 0.0
    columns = ["k", "N", "value", "cond_estimate", "deviation"]
    rows = [[args.k, args.n, complex(res.value).real, res.cond_estimate, dev]]
    _emit(columns, rows, args.format)
    return _EXIT_FLAGGED if res.flagged else _EXIT_OK


def _run_gcbo(args):
    k = CouplingK.physical(args.k)
    m2 = magnetization(k) ** 2
    columns = ["k", "N", "toeplitz", "m2_fredholm", "rel_residual"]
    rows = []
    worst = 0.0
    for N in range(1, args.n_max + 1):
        d = complex(diagonal_correlation(k, N).value).real
        f = m2 * fredholm_det(k, N, args.tol).det_value.real
        resid = abs(d - f) / abs(d)
        worst = max(worst, resid)
        rows.append([args.k, N, d, f, resid])
    _emit(columns, rows, args.format)
    return _EXIT_FLAGGED if worst > 1e-8 else _EXIT_OK


def _run_chi(args):
    k = CouplingK.physical(args.k)
    res = chi_d(k, args.tol, args.route)
    columns = ["k", "route", "beta_inv_chi_d", "terms_used", "est_error", "flagged"]
    rows = [[args.k, res.route, complex(res.beta_inv_chi_d).real,
             res.terms_used, res.est_error, res.flagged]]
    _emit(columns, rows, args.format)
    if res.flagged:
        _warn_flagged(args.k, res)
    return _EXIT_FLAGGED if res.flagged else _EXIT_OK


def _run_sn(args):
    kappa = _parse_complex(args.kappa)
    spec = _spec_from(args)
    res = s_n(kappa, args.n, spec, form=args.form)
    columns = ["kappa_re", "kappa_im", "n", "form", "method",
               "value_re", "value_im", "rel_error_est"]
    rows = [[kappa.real, kappa.imag, args.n, res.form, spec.method,
             complex(res.value).real, complex(res.value).imag, res.rel_error_est]]
    _emit(columns, rows, args.format)
    return _EXIT_OK


def _run_boundary_scan(args):
    eps = _parse_eps(args.eps)
    j0, j1 = _parse_jrange(args.radii)
    radii = radii_grid(j0, j1)
    spec = _spec_from(args)
    scan = radial_scan(eps, args.n, args.ell, radii, spec)
    columns = ["p", "q", "n", "ell", "radius", "value_re", "value_im",
               "fit_slope", "fit_intercept", "fit_r2", "classification"]
    rows = []
    for r, v in zip(scan.radii, scan.values):
        v = complex(v)
        rows.append([eps.p, eps.q, args.n, args.ell, r, v.real, v.imag,
                     scan.fit_slope, scan.fit_intercept, scan.fit_r2,
                     scan.classification])
    _emit(columns, rows, args.format)
    return _EXIT_OK


def _warn_flagged(k, res):
    """One warning line naming a flagged row's k and its reason."""
    print(f"warning: k={_fmt(k)}: {res.reason}", file=sys.stderr)


def _run_sweep(args):
    grid = _parse_grid(args.grid)
    results = sweep(grid, args.route, args.tol)
    columns = ["k", "beta_inv_chi_d", "route", "terms_used", "est_error", "flagged"]
    rows = [[complex(res.k).real, complex(res.beta_inv_chi_d).real,
             res.route, res.terms_used, res.est_error, res.flagged] for res in results]
    _emit(columns, rows, args.format)
    for row, res in zip(rows, results):
        if res.flagged:
            _warn_flagged(row[0], res)
    return _EXIT_FLAGGED if any(res.flagged for res in results) else _EXIT_OK


_RUNNERS = {
    "correlation": _run_correlation,
    "gcbo-check": _run_gcbo,
    "chi": _run_chi,
    "sn": _run_sn,
    "boundary-scan": _run_boundary_scan,
    "sweep": _run_sweep,
}


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            args = parser.parse_args(_merge_config(argv))
            return _RUNNERS[args.command](args)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_DOMAIN
        except ConvergenceError as exc:
            print(f"convergence: {exc}", file=sys.stderr)
            return _EXIT_FLAGGED


if __name__ == "__main__":
    sys.exit(main())
