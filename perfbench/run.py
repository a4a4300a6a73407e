"""Benchmark of ising-lab: three workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload det-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Workloads (operation lists in workloads.py):

* ``det-sweep``: the determinant side.  Most of its time is the fredholm
  cutoff-doubling loop and Toeplitz LU; integrals does nothing.
* ``form-factor``: the production integral paths (tensor quadrature at
  G = 64/96 and Monte Carlo); the determinant layers do nothing.
* ``boundary-probe``: resonant moment series at G = 128 with B_m reused
  across ell, the thread pool over radii, and the log-fit classification.

A run issues passes of the operation list, each in a fresh interpreter so
the program's result caches start cold, until ``--seconds`` have passed.
Before each pass it starts two interpreters that only import ising_lab
and make one warm-up call; ``setup_s`` is the median of their set-up
times and those of the passes.  ``wall_s`` is the time of one pass's
operation list, set-up and checks excluded.  With ``--trace 0`` every
pass is untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported, with the tracing overhead.  Values are medians
over passes.  Peak memory, the time per
operation class and the failed fraction are printed in both modes but
carry no bound: they are zero on workloads without that class.

Times are reference seconds (speed.py): the runner pins itself and its
workers to one vCPU, samples that vCPU's speed with a fixed kernel while
each worker runs, and scales every interval to a fixed reference speed,
so that the host's slow and fast phases do not show as changes of the
program.  The raw wall time and the measured speed are reported with
``--trace 1`` as ``process.raw_wall_s`` and ``process.speed``; the
layers' self times are raw wall seconds of the traced passes.

Every pass runs on that one vCPU with one BLAS thread and
``ISING_LAB_THREADS=1``, so pool threads times BLAS threads stays within
the vCPUs it may use.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
report: environment, passes, failed operations, check verdicts and every
metric with its unit, sample count and quartiles.

An operation fails if it raised, came back flagged by the program, or a
correctness check on it failed.  ``correct`` is false if an operation
raised or a check failed; a flagged result is the program declining to
answer, so it counts as failed but not as incorrect.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import CATALOGUE  # noqa: E402
from speed import PERIOD_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES_PER_PASS = 2
RUN_BUDGET_S = 170.0
CLASSES = ("chi", "sn", "probe", "identity")
END_TO_END = {"setup_s": "s", "wall_s": "s"}


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        ISING_LAB_THREADS="1",
    )
    return env


def pin_to_one_cpu() -> int:
    """Pin this process, and so every worker it starts, to its last vCPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_pass(workload: str, seed: int, traced: bool, deadline: float,
             probe: SpeedProbe, setup_only: bool = False) -> dict:
    """Start one worker and sample the vCPU's speed until it exits.

    Returns the worker's pass record with every time in reference
    seconds; the raw wall time of the operation list stays as raw_wall_s.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    probe.sample()
    t_start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = bytearray(), bytearray()
    streams = {proc.stdout.fileno(): out, proc.stderr.fileno(): err}
    t_ready = None
    try:
        while streams:
            if time.monotonic() > deadline:
                raise BenchError("out of time")
            ready, _, _ = select.select(list(streams), [], [], PERIOD_S)
            for fd in ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    del streams[fd]
                    continue
                streams[fd] += chunk
                if t_ready is None and fd == proc.stdout.fileno() and b"\n" in out:
                    t_ready = time.monotonic()
            if not ready:
                probe.sample()
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} pass failed: {exc}\n{err.decode()[-2000:]}") from None
    finally:
        proc.stdout.close()
        proc.stderr.close()
    probe.sample()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise BenchError(f"{workload} worker exited {proc.returncode}, first line "
                         f"{lines[:1]}\n{err.decode()[-2000:]}")
    setup_s = probe.ref_seconds(t_start, t_ready)
    if setup_only:
        return {"setup_s": setup_s}
    record = json.loads(lines[-1])
    for o in record["ops"]:
        o["seconds"] = probe.ref_seconds(o["start"], o["start"] + o["seconds"])
    raw = record["wall_s"]
    record.update(setup_s=setup_s, pass_s=time.monotonic() - t_start, raw_wall_s=raw,
                  wall_s=probe.ref_seconds(record["t0"], record["t1"]))
    record["speed"] = record["wall_s"] / raw
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Passes until ``seconds`` are used (closed loop), set-up probes between.

    The machine's speed drifts over seconds, so the set-up probes are
    spread over the run instead of being taken back to back.
    """
    probe = SpeedProbe()
    setups, passes = [], []
    start = time.monotonic()
    while True:
        if not trace:
            setups += [run_pass(workload, seed, False, deadline, probe,
                                setup_only=True)["setup_s"]
                       for _ in range(SETUP_PROBES_PER_PASS)]
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, traced, deadline, probe))
        kinds_done = not trace or len(passes) >= 2
        longest = max(p["pass_s"] for p in passes)
        out_of_time = time.monotonic() + longest > deadline
        if kinds_done and (time.monotonic() - start >= seconds or out_of_time):
            return setups, passes
        if out_of_time:
            raise BenchError(f"{workload}: no time left for a traced pass")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(trace: bool, setups, passes):
    """Report lines and the result object of one workload."""
    lines = []
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    ops = [o for p in passes for o in p["ops"]]
    attempted = len(ops)
    failed = sum(o["status"] != "ok" for o in ops)
    raised = any(o["status"] == "raised" for o in ops)
    check_failed = any(v["verdict"] == "fail" for p in passes for v in p["checks"])

    for i, p in enumerate(passes, 1):
        bad = [o for o in p["ops"] if o["status"] != "ok"]
        lines.append(f"pass {i} ({'traced' if p['traced'] else 'untraced'}): "
                     f"wall {p['wall_s']:.3f} s (raw {p['raw_wall_s']:.3f} s, "
                     f"speed {p['speed']:.3f}), setup {p['setup_s']:.3f} s, "
                     f"rss {p['rss_mb']:.1f} MB, {len(p['ops'])} ops, {len(bad)} failed")
        for o in bad:
            lines.append(f"  failed {o['name']} ({o['status']}): {o['reason']}")
    tally = {}
    for p in passes:
        for v in p["checks"]:
            tally.setdefault(v["check"], {}).setdefault(v["verdict"], []).append(v["detail"])
    lines.append("checks:")
    for name, by_verdict in tally.items():
        for verdict, details in by_verdict.items():
            detail = f" -- {details[0]}" if details[0] else ""
            lines.append(f"  {verdict:7s} x{len(details)} {name}{detail}")

    samples = {}
    class_sums = {c: [] for c in CLASSES}
    for p in untraced:
        for c in CLASSES:
            class_sums[c].append(sum(o["seconds"] for o in p["ops"] if o["cls"] == c))
    if not trace:
        samples["setup_s"] = (setups + [p["setup_s"] for p in passes], "s")
    samples["wall_s"] = ([p["wall_s"] for p in untraced], "s")
    samples["process.raw_wall_s"] = ([p["raw_wall_s"] for p in untraced], "s")
    samples["process.speed"] = ([p["speed"] for p in untraced], "ratio")
    samples["process.peak_rss_mb"] = ([p["rss_mb"] for p in untraced], "MB")
    for c in CLASSES:
        samples[f"ops.{c}_s"] = (class_sums[c], "s")
    samples["ops.fail_frac"] = ([failed / attempted], "ratio")
    absent = set()
    if trace:
        for name, (unit, _, _) in CATALOGUE.items():
            if name in samples:
                continue
            if name == "trace.wall_s":
                vals = [p["wall_s"] for p in traced]
            elif name == "trace.overhead_s":
                vals = [statistics.median(p["wall_s"] for p in traced)
                        - statistics.median(p["wall_s"] for p in untraced)]
            else:
                vals = [p["layers"][name] for p in traced if name in p["layers"]]
            if len(vals) == 0:
                absent.add(name)
            else:
                samples[name] = (vals, unit)
        absent.update(n for p in traced for n in p["layers"]["absent"])

    lines.append(f"{'metric':38s} {'median':>14s} {'unit':6s} {'n':>3s} {'q1':>12s} "
                 f"{'q3':>12s}  should move")
    for name, (vals, unit) in samples.items():
        q1, q3 = quartiles(vals)
        moves = CATALOGUE.get(name, ("", "", ""))[2]
        lines.append(f"{name:38s} {statistics.median(vals):14.6g} {unit:6s} {len(vals):3d} "
                     f"{q1:12.6g} {q3:12.6g}  {moves}")
    if absent:
        lines.append("absent (wrapped names missing): " + ", ".join(sorted(absent)))
    if trace:
        cover = statistics.median(samples["trace.coverage"][0])
        lines.append(f"layer self time covers {cover:.1%} of traced wall_s "
                     f"({'meets' if cover >= 0.95 else 'BELOW'} the 95% target)")

    wanted = END_TO_END if not trace else {n: u for n, (u, _, _) in CATALOGUE.items()}
    metrics = {n: {"value": statistics.median(samples[n][0]), "unit": samples[n][1]}
               for n in wanted if n in samples}
    result = {"correct": not (raised or check_failed), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ising_lab" / "__init__.py").is_file():
        print(f"error: no ising_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    header = {"nproc": nproc(), "pinned_cpu": pin_to_one_cpu()}
    os.environ.update(pinned_env())           # the speed probe's numpy too
    header.update({k: os.environ[k] for k in ("ISING_LAB_THREADS", "OPENBLAS_NUM_THREADS",
                                              "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    header["commit"] = git_commit()
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            setups, passes = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        lines, results[name] = summarize(bool(args.trace), setups, passes)
        print(f"== {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        print(json.dumps({"env": {**header, **passes[0]["env"]}}))
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
