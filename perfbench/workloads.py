"""The three workloads: operation lists drawn from a seed, and their checks.

Each workload is a closed loop: one caller issues the next operation when
the previous one returns.  README commands run verbatim through
``ising_lab.cli.main`` in-process with stdout captured; the other
operations call the library directly.  The seed sets, within narrow
bands, the non-README k, kappa and radii values and the Monte Carlo seed;
the program only ever sees the generated inputs.

Operations look their functions up on the module at call time, so the
tracer's wrappers are seen when a pass is traced.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

# Correctness tolerances: the cross-route tolerances of the acceptance gate.
DET_ROUTES_REL = 1e-6        # fredholm vs toeplitz_direct
INTEGRAL_ROUTE_REL = 1e-5    # integral vs fredholm
IDENTITY_REL = 1e-8          # D(N) vs M^2 det(I - K_N)
REFERENCE_REL = 1e-9         # tensor-quadrature S_n vs stored reference
MC_SIGMAS = 5.0              # Monte Carlo vs stored high-sample reference

# Stored references.  S_2 by the package's tensor quadrature at G = 128
# (refined at 192), which agrees with G = 64 to ~1e-13 relative.  S_3 at
# kappa = 0.2 + 0.3i is the mean of 40 independent Philox streams of
# 500 000 samples each; its standard error is the spread of those 40 means.
S2_REF = {
    0.5: complex(5.413277704752653e-07, 0.0),
    0.5j: complex(-8.682552169206728e-09, -5.462001396580539e-08),
}
S3_MC_REF = (complex(5.2080388102566976e-18, 2.0190310495494974e-17), 5.796675055007757e-20)


@dataclass
class Op:
    name: str
    cls: str                                  # chi | sn | probe | identity
    call: Callable[[], object]
    flag: Callable[[object], str | None] = lambda res: None


@dataclass
class Check:
    name: str
    ops: tuple                                # names of the operations it covers
    test: Callable[[dict], str | None]        # results by op name -> failure or None


@dataclass
class CliOut:
    code: int
    out: str
    err: str

    def rows(self) -> list[dict]:
        return list(csv.DictReader(io.StringIO(self.out)))


def run_cli(lab, argv) -> CliOut:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lab.cli.main(list(argv))
    return CliOut(code, out.getvalue(), err.getvalue())


def cli_flag(res: CliOut) -> str | None:
    """The CLI's own verdict: a non-zero exit or a row marked flagged."""
    bad = [r["k"] for r in res.rows() if r.get("flagged") == "true"]
    if res.code != 0 or bad:
        why = res.err.strip().splitlines()[-1:] or [""]
        return f"exit {res.code}; flagged rows at k={bad} {why[0]}".strip()
    return None


def chi_flag(res) -> str | None:
    if res.flagged:
        return (f"{res.route} flagged at k={res.k}: terms_used={res.terms_used}, "
                f"est_error={res.est_error:.3g}")
    return None


def within(name: str, got, want, tol: float) -> str | None:
    """None if got matches want to relative tol, else the failure."""
    r = abs(got - want) / max(abs(want), 1e-300)
    return None if r <= tol else f"{name}: relative gap {r:.3g} > {tol:g}"


def warm_up(lab):
    """One cheap call through every layer, on inputs no workload uses."""
    run_cli(lab, ["chi", "--k", "0.05"])
    lab.toeplitz.diagonal_correlation(lab.params.CouplingK.physical(0.05), 3)
    spec = lab.integrals.QuadratureSpec(nodes_per_dim=8)
    lab.integrals.s_n(0.0025, 2, spec)
    lab.boundary.radial_scan(lab.boundary.RootOfUnity(1, 2), 2, 0,
                             lab.boundary.radii_grid(1, 4), spec)


# ---------------------------------------------------------------------------


def det_sweep(lab, seed: int):
    """Fredholm cutoff doubling and Toeplitz LU; integrals stays idle."""
    rng = random.Random(seed)
    K = lab.params.CouplingK
    chi = lab.chi
    k_pair = 0.7 + rng.uniform(-2e-3, 2e-3)
    k_near = {"0.9": 0.9 + rng.uniform(-5e-4, 5e-4), "0.95": 0.95 + rng.uniform(-3e-4, 3e-4)}
    ops = [
        Op("sweep-fredholm", "chi",
           lambda: run_cli(lab, ["sweep", "--grid", "0.1:0.7:0.1", "--route", "fredholm"]),
           cli_flag),
        Op("sweep-toeplitz", "chi",
           lambda: run_cli(lab, ["sweep", "--grid", "0.1:0.7:0.1", "--route", "toeplitz_direct"]),
           cli_flag),
        Op("gcbo-check", "identity",
           lambda: run_cli(lab, ["gcbo-check", "--k", "0.5", "--n-max", "6"]), cli_flag),
    ]
    checks = [
        Check("sweep routes agree", ("sweep-fredholm", "sweep-toeplitz"),
              lambda r: _sweep_gap(r["sweep-fredholm"], r["sweep-toeplitz"])),
        Check("gcbo-check residuals", ("gcbo-check",), _gcbo_residuals),
    ]

    def pair(N):
        k = K.physical(k_pair)
        d = lab.toeplitz.diagonal_correlation(k, N).value
        m2 = lab.params.magnetization(k) ** 2
        return d, m2 * lab.fredholm.fredholm_det(k, N, 1e-10).det_value.real

    for N in range(1, 33):
        name = f"identity-N{N}"
        ops.append(Op(name, "identity", lambda N=N: pair(N)))
        checks.append(Check(f"D({N}) = M^2 det(I-K_{N}) at k={k_pair:.6f}", (name,),
                            lambda r, name=name: within(name, *r[name], IDENTITY_REL)))
    for label, kv in k_near.items():
        names = []
        for route in ("fredholm", "toeplitz_direct"):
            names.append(f"chi-{route}-{label}")
            ops.append(Op(names[-1], "chi",
                          lambda kv=kv, route=route: chi.chi_d(K.physical(kv), 1e-8, route),
                          chi_flag))
        checks.append(Check(
            f"chi_d routes agree at k={kv:.6f}", tuple(names),
            lambda r, a=names[0], b=names[1]: within(
                "fredholm vs toeplitz_direct", r[b].beta_inv_chi_d,
                r[a].beta_inv_chi_d, DET_ROUTES_REL)))
    return ops, checks


def _sweep_gap(a: CliOut, b: CliOut) -> str | None:
    ra, rb = a.rows(), b.rows()
    if len(ra) != 7 or [r["k"] for r in ra] != [r["k"] for r in rb]:
        return f"sweep rows differ: {len(ra)} vs {len(rb)}"
    for x, y in zip(ra, rb):
        bad = within(f"k={x['k']}", float(y["beta_inv_chi_d"]), float(x["beta_inv_chi_d"]),
                     DET_ROUTES_REL)
        if bad:
            return bad
    return None


def _gcbo_residuals(r) -> str | None:
    rows = r["gcbo-check"].rows()
    worst = max((float(x["rel_residual"]) for x in rows), default=math.inf)
    if len(rows) != 6 or worst > IDENTITY_REL:
        return f"{len(rows)} rows, worst residual {worst:.3g}"
    return None


# ---------------------------------------------------------------------------


def form_factor(lab, seed: int):
    """Production integral paths: tensor quadrature at G = 64/96 and MC."""
    rng = random.Random(seed)
    integrals = lab.integrals
    spec = integrals.QuadratureSpec(nodes_per_dim=64)
    mc_seed = rng.randrange(1, 2**31)
    k_int = 0.3 + rng.uniform(-2e-3, 2e-3)
    kappas_1 = [c + rng.uniform(-5e-3, 5e-3) for c in (0.1, 0.3, 0.5, 0.7)]
    ops = [
        Op("sn-readme", "sn",
           lambda: run_cli(lab, ["sn", "--kappa", "0.5", "--n", "2", "--nodes", "64"]),
           cli_flag),
        Op("sn-mc-readme", "sn",
           lambda: run_cli(lab, ["sn", "--kappa", "0.2,0.3", "--n", "3", "--mc-samples",
                                 "200000", "--seed", str(mc_seed)]),
           cli_flag),
        Op("chi-integral", "chi",
           lambda: lab.chi.chi_d(lab.params.CouplingK.physical(k_int), 1e-7, "integral"),
           chi_flag),
        Op("sn2-complex", "sn", lambda: integrals.s_n(0.5j, 2, spec)),
    ]
    checks = [
        Check("S_2(0.5) vs reference", ("sn-readme",),
              lambda r: within("S_2(0.5)", _cli_value(r["sn-readme"]), S2_REF[0.5],
                               REFERENCE_REL)),
        Check(f"S_3(0.2+0.3i) Monte Carlo (seed {mc_seed}) within {MC_SIGMAS:g} SE",
              ("sn-mc-readme",), lambda r: _mc_gap(r["sn-mc-readme"])),
        Check(f"integral vs fredholm chi_d at k={k_int:.6f}", ("chi-integral",),
              lambda r: within("integral route", r["chi-integral"].beta_inv_chi_d,
                               lab.chi.chi_d(lab.params.CouplingK.physical(k_int), 1e-8,
                                             "fredholm").beta_inv_chi_d,
                               INTEGRAL_ROUTE_REL)),
        Check("S_2(0.5i) vs reference", ("sn2-complex",),
              lambda r: within("S_2(0.5i)", r["sn2-complex"].value, S2_REF[0.5j],
                               REFERENCE_REL)),
    ]
    fine = integrals.QuadratureSpec(nodes_per_dim=200)
    for i, kap in enumerate(kappas_1):
        name = f"sn1-{i}"
        ops.append(Op(name, "sn", lambda kap=kap: integrals.s_n(kap, 1, spec)))
        checks.append(Check(
            f"S_1({kap:.6f}) vs G=200", (name,),
            lambda r, name=name, kap=kap: within(
                name, r[name].value, integrals.s_n(kap, 1, fine).value, REFERENCE_REL)))
    return ops, checks


def _cli_value(res: CliOut) -> complex:
    row = res.rows()[0]
    return complex(float(row["value_re"]), float(row["value_im"]))


def _mc_gap(res: CliOut) -> str | None:
    value = _cli_value(res)
    se = float(res.rows()[0]["rel_error_est"]) * abs(value)
    ref, ref_se = S3_MC_REF
    sigma = math.hypot(se, ref_se)
    gap = abs(value - ref)
    if gap > MC_SIGMAS * sigma:
        return f"|MC - ref| = {gap:.3g} > {MC_SIGMAS:g} x {sigma:.3g}"
    return None


# ---------------------------------------------------------------------------


def boundary_probe(lab, seed: int):
    """Resonant moment series at G = 128, B_m reuse, pool over radii, fits."""
    rng = random.Random(seed)
    b = lab.boundary
    spec = lab.integrals.QuadratureSpec(nodes_per_dim=64)
    minus_one = b.RootOfUnity(1, 2)
    # the README scan takes integer j only; the library calls reuse its
    # radii so that their B_m moments come from the cache
    radii = b.radii_grid(4, 8)
    delta = rng.uniform(0.0, 0.25)
    radii_1 = tuple(1.0 - 2.0 ** -(j + delta) for j in range(4, 9))
    ops = [
        Op("scan-readme-ell7", "probe",
           lambda: run_cli(lab, ["boundary-scan", "--eps", "1/2", "--n", "2", "--ell", "7",
                                 "--radii", "4..8"]),
           cli_flag),
        Op("scan-ell6", "probe", lambda: b.radial_scan(minus_one, 2, 6, radii, spec)),
    ]
    checks = [
        Check("n=2 ell=7 diverging", ("scan-readme-ell7",),
              lambda r: _labels_are(
                  [row["classification"] for row in r["scan-readme-ell7"].rows()],
                  ["diverging"] * len(radii))),
        Check("n=2 ell=6 bounded", ("scan-ell6",),
              lambda r: _labels_are([b._classify(r["scan-ell6"].radii,
                                                       r["scan-ell6"].values)], ["bounded"])),
    ]
    for ell in range(8):
        name = f"n1-ell{ell}"
        ops.append(Op(name, "probe", lambda ell=ell: [
            lab.integrals.lint_integral(-r, 1, ell, spec) for r in radii_1]))
        checks.append(Check(f"n=1 ell={ell} bounded (delta={delta:.4f})", (name,),
                            lambda r, name=name: _labels_are(
                                [b._classify(radii_1, r[name])], ["bounded"])))
    ops.append(Op("smoothness", "probe",
                  lambda: b.smoothness_probe(7, minus_one, spec, radii=radii)))
    checks.append(Check("ladder: ell<=6 bounded, ell=7 diverging", ("smoothness",),
                        lambda r: _labels_are(
                            [r["smoothness"].classification(e) for e in range(8)],
                            ["bounded"] * 7 + ["diverging"])))
    return ops, checks


def _labels_are(got, want) -> str | None:
    return None if list(got) == list(want) else f"labels {got}, expected {want}"


WORKLOADS = {
    "det-sweep": det_sweep,
    "form-factor": form_factor,
    "boundary-probe": boundary_probe,
}


# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    name: str
    cls: str
    start: float                              # clock reading when it was issued
    seconds: float
    status: str                               # ok | raised | flagged | check_failed
    reason: str = ""


def run_ops(ops, clock) -> tuple[dict, list]:
    """Issue the operations one after another; returns results and
    (op, start, seconds, error) per operation."""
    results, timed = {}, []
    for op in ops:
        t0 = clock()
        try:
            results[op.name] = op.call()
            err = None
        except Exception as exc:              # an operation that raises is a failure
            err = f"raised {type(exc).__name__}: {exc}"
        timed.append((op, t0, clock() - t0, err))
    return results, timed


def judge(timed, results, checks) -> tuple[list, list]:
    """Outcome per operation and verdict per check.

    An operation fails if it raised, came back flagged by the program, or
    a check covering it failed.  A check whose operations did not all
    succeed is skipped (its operations already count as failed).
    """
    outcomes = {}
    for op, start, secs, err in timed:
        if err is not None:
            outcomes[op.name] = Outcome(op.name, op.cls, start, secs, "raised", err)
            continue
        why = op.flag(results[op.name])
        status = "flagged" if why else "ok"
        outcomes[op.name] = Outcome(op.name, op.cls, start, secs, status, why or "")
    verdicts = []
    for chk in checks:
        blocked = [n for n in chk.ops if outcomes[n].status != "ok"]
        if blocked:
            verdicts.append({"check": chk.name, "verdict": "skipped",
                             "detail": "not run: " + ", ".join(
                                 f"{n} {outcomes[n].status}" for n in blocked)})
            continue
        try:
            why = chk.test(results)
        except Exception as exc:              # a check that cannot read a result fails
            why = f"check raised {type(exc).__name__}: {exc}"
        verdicts.append({"check": chk.name, "verdict": "fail" if why else "pass",
                         "detail": why or ""})
        if why:
            for n in chk.ops:
                outcomes[n].status = "check_failed"
                outcomes[n].reason = f"{chk.name}: {why}"
    return [outcomes[op.name] for op, *_ in timed], verdicts

