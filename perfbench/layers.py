"""Where each layer of ising_lab is wrapped, and the per-layer metrics.

One layer per module.  ``install`` wraps the functions below in every
module that looks them up; ``layer_metrics`` turns the recorded spans and
counters of one traced pass into the per-layer metrics.  A metric whose
function no longer exists is left out (reported absent), never set to 0.
"""
from __future__ import annotations

from collections import defaultdict

from spans import Tracer, self_times

# (span name, module, attribute).  Private names are wrapped where they are
# defined; Tracer.replace also rebinds every module that imported them.
TARGETS = (
    ("params.phi_series", "params", "_phi_series"),
    ("params.lambda_pair", "params", "_lambda_pair"),
    ("params.magnetization", "params", "magnetization"),
    ("toeplitz.diagonal_correlation", "toeplitz", "diagonal_correlation"),
    ("fredholm.s_terms", "fredholm", "_s_fredholm_terms"),
    ("fredholm.fredholm_det", "fredholm", "fredholm_det"),
    ("fredholm.det_at", "fredholm", "_det_at"),
    ("chi.chi_d", "chi", "chi_d"),
    ("chi.sweep", "chi", "sweep"),
    ("integrals.s_n", "integrals", "s_n"),
    ("integrals.tensor_core", "integrals", "_tensor_core"),
    ("integrals.mc_core", "integrals", "_mc_core"),
    ("integrals.lint_integral", "integrals", "lint_integral"),
    ("integrals.lint_series", "integrals", "_lint_series"),
    ("integrals.bm_prefix", "integrals", "_bm_prefix"),
    ("integrals.bm_chunk", "integrals", "_bm_chunk"),
    ("boundary.radial_scan", "boundary", "radial_scan"),
    ("boundary.smoothness_probe", "boundary", "smoothness_probe"),
    ("boundary.classify", "boundary", "_classify"),
    ("cli.main", "cli", "main"),
)
MAP_TARGET = ("parallel.map", "parallel", "parallel_map")
CACHED = ("params.phi_series", "params.lambda_pair")

# name -> (unit, better, the end-to-end metric and workload it should move)
CATALOGUE = {
    "params.phi_series.calls": ("count", "lower", "wall_s (chi, identity) on det-sweep"),
    "params.lambda_pair.calls": ("count", "lower", "wall_s (chi, identity) on det-sweep"),
    "params.phi_series.hit_ratio": ("ratio", "higher", "wall_s (chi, identity) on det-sweep"),
    "params.lambda_pair.hit_ratio": ("ratio", "higher", "wall_s (chi, identity) on det-sweep"),
    "params.self_s": ("s", "lower", "wall_s (chi, identity) on det-sweep"),
    "toeplitz.diagonal_correlation.calls": ("count", "lower", "wall_s (chi, identity) on det-sweep"),
    "toeplitz.self_s": ("s", "lower", "wall_s (chi, identity) on det-sweep"),
    "toeplitz.order3_sum": ("count", "lower", "wall_s (chi, identity) on det-sweep"),
    "fredholm.fredholm_det.calls": ("count", "lower", "wall_s (chi) on det-sweep"),
    "fredholm.det_at.calls": ("count", "lower", "wall_s (chi) on det-sweep"),
    "fredholm.cutoff3_computed": ("count", "lower", "wall_s (chi) on det-sweep"),
    "fredholm.useful_ratio": ("ratio", "higher", "wall_s (chi) on det-sweep"),
    "fredholm.self_s": ("s", "lower", "wall_s (chi) on det-sweep"),
    "chi.chi_d.calls": ("count", "lower", "fail_frac, wall_s (chi) on det-sweep and form-factor"),
    "chi.flagged": ("count", "lower", "fail_frac on det-sweep and form-factor"),
    "chi.self_s": ("s", "lower", "wall_s (chi) on det-sweep and form-factor"),
    "integrals.s_n.calls": ("count", "lower", "wall_s (sn, chi) on form-factor"),
    "integrals.tensor_core.calls": ("count", "lower", "wall_s (sn, chi) on form-factor"),
    "integrals.tensor_core.node_evals": ("count", "lower", "wall_s (sn, chi) on form-factor"),
    "integrals.tensor_core.self_s": ("s", "lower", "wall_s (sn, chi) on form-factor"),
    "integrals.mc_core.samples": ("count", "lower", "wall_s (sn) on form-factor"),
    "integrals.mc_core.self_s": ("s", "lower", "wall_s (sn) on form-factor"),
    "integrals.lint_series.calls": ("count", "lower", "wall_s (probe) on boundary-probe"),
    "integrals.lint_series.self_s": ("s", "lower", "wall_s (probe) on boundary-probe"),
    "integrals.bm_moments": ("count", "lower", "wall_s (probe) on boundary-probe"),
    "integrals.bm_chunk.self_s": ("s", "lower", "wall_s (probe) on boundary-probe"),
    "integrals.bm_cache.hit_ratio": ("ratio", "higher", "wall_s (probe) on boundary-probe"),
    "integrals.self_s": ("s", "lower", "wall_s on form-factor and boundary-probe"),
    "boundary.radial_scan.calls": ("count", "lower", "wall_s (probe) on boundary-probe"),
    "boundary.probe_points": ("count", "higher", "wall_s (probe) on boundary-probe"),
    "boundary.self_s": ("s", "lower", "wall_s (probe) on boundary-probe"),
    "parallel.map.calls": ("count", "lower", "wall_s on det-sweep and boundary-probe"),
    "parallel.map.items": ("count", "lower", "wall_s on det-sweep and boundary-probe"),
    "parallel.workers": ("count", "higher", "wall_s on det-sweep and boundary-probe"),
    "parallel.busy_ratio": ("ratio", "higher", "wall_s on det-sweep and boundary-probe"),
    "cli.main.calls": ("count", "lower", "wall_s on every workload"),
    "cli.self_s": ("s", "lower", "wall_s on every workload"),
    "process.raw_wall_s": ("s", "lower", "wall_s before scaling to the reference speed"),
    "process.speed": ("ratio", "higher", "vCPU speed over the reference (host load, not the program)"),
    "process.peak_rss_mb": ("MB", "lower", "memory a user needs"),
    "ops.chi_s": ("s", "lower", "wall_s: chi_d and sweep operations"),
    "ops.sn_s": ("s", "lower", "wall_s: s_n operations"),
    "ops.probe_s": ("s", "lower", "wall_s: radial_scan, lint_integral, smoothness_probe"),
    "ops.identity_s": ("s", "lower", "wall_s: D(N) vs det(I - K_N) pairs"),
    "ops.fail_frac": ("ratio", "lower", "failed over attempted operations"),
    "trace.wall_s": ("s", "lower", "traced wall_s"),
    "trace.overhead_s": ("s", "lower", "traced wall_s minus untraced wall_s"),
    "trace.coverage": ("ratio", "higher", "summed layer self time over traced wall_s"),
}
LAYERS = ("params", "toeplitz", "fredholm", "chi", "integrals", "boundary", "parallel", "cli")


def install(tracer: Tracer, lab) -> dict:
    """Wrap every target; returns the original functions by span name."""
    counters = {
        "toeplitz.diagonal_correlation": ("toeplitz.order3_sum", lambda b, r: b["N"] ** 3),
        "fredholm.fredholm_det": ("fredholm.cutoff3_used", lambda b, r: r.cutoff_used ** 3),
        "fredholm.det_at": ("fredholm.cutoff3_computed", lambda b, r: b["cutoff"] ** 3),
        "chi.chi_d": ("chi.flagged", lambda b, r: 1 if r.flagged else 0),
        "integrals.tensor_core": ("integrals.tensor_core.node_evals",
                                  lambda b, r: b["G"] ** (2 * b["n"])),
        "integrals.mc_core": ("integrals.mc_core.samples", lambda b, r: b["spec"].mc_samples),
        "integrals.bm_chunk": ("integrals.bm_moments", lambda b, r: b["m1"] - b["m0"]),
        "boundary.radial_scan": ("boundary.probe_points", lambda b, r: len(r.values)),
        "boundary.smoothness_probe": (
            "boundary.probe_points",
            lambda b, r: sum(len(r.radii) * len(e.per_n) for e in r.entries),
        ),
    }
    originals = {}
    for name, mod, attr in TARGETS:
        originals[name] = tracer.wrap(getattr(lab, mod), attr, name, counters.get(name))
    name, mod, attr = MAP_TARGET
    originals[name] = tracer.wrap_map(getattr(lab, mod), attr, name)
    return originals


def cache_counts(originals: dict) -> dict:
    """(hits, misses) of each lru-cached target that still has cache_info."""
    out = {}
    for name in CACHED:
        info = getattr(originals.get(name), "cache_info", None)
        if info is not None:
            ci = info()
            out[name] = (ci.hits, ci.misses)
    return out


def _ratio(num: float, den: float) -> float:
    """num/den, 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_before: dict, cache_after: dict) -> dict:
    """Per-layer metrics of one traced pass; absent names are left out."""
    own = self_times(tracer.spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for s in tracer.spans:
        by_name[s.name].append(s)
        layer_self[s.layer] += own[s.id]
    cnt = tracer.counters
    out = {}

    def put(metric, value, *needs):
        if not tracer.absent.intersection(needs):
            out[metric] = float(value)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for span in ("params.phi_series", "params.lambda_pair", "toeplitz.diagonal_correlation",
                 "fredholm.fredholm_det", "fredholm.det_at", "chi.chi_d", "integrals.s_n",
                 "integrals.tensor_core", "integrals.lint_series", "boundary.radial_scan",
                 "parallel.map", "cli.main"):
        put(f"{span}.calls", len(by_name[span]), span)
    for span in ("integrals.tensor_core", "integrals.mc_core", "integrals.lint_series",
                 "integrals.bm_chunk"):
        put(f"{span}.self_s", sum(own[s.id] for s in by_name[span]), span)
    for key, span in (("toeplitz.order3_sum", "toeplitz.diagonal_correlation"),
                      ("fredholm.cutoff3_computed", "fredholm.det_at"),
                      ("chi.flagged", "chi.chi_d"),
                      ("integrals.tensor_core.node_evals", "integrals.tensor_core"),
                      ("integrals.mc_core.samples", "integrals.mc_core"),
                      ("integrals.bm_moments", "integrals.bm_chunk"),
                      ("parallel.map.items", "parallel.map")):
        put(key, cnt[key], key, span)
    put("boundary.probe_points", cnt["boundary.probe_points"], "boundary.probe_points",
        "boundary.radial_scan", "boundary.smoothness_probe")
    put("fredholm.useful_ratio",
        _ratio(cnt["fredholm.cutoff3_used"], cnt["fredholm.cutoff3_computed"]),
        "fredholm.cutoff3_used", "fredholm.cutoff3_computed",
        "fredholm.fredholm_det", "fredholm.det_at")
    for name in CACHED:
        if name in cache_before and name in cache_after:
            hits = cache_after[name][0] - cache_before[name][0]
            misses = cache_after[name][1] - cache_before[name][1]
            out[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
    # a prefix lookup that computed no new chunk was served from the cache
    chunk_parents = {s.parent for s in by_name["integrals.bm_chunk"]}
    prefixes = by_name["integrals.bm_prefix"]
    put("integrals.bm_cache.hit_ratio",
        _ratio(sum(1 for s in prefixes if s.id not in chunk_parents), len(prefixes)),
        "integrals.bm_prefix", "integrals.bm_chunk")

    items_by_map = defaultdict(list)
    for s in by_name["parallel.item"]:
        items_by_map[s.parent].append(s)
    busy = capacity = 0.0
    workers = 0
    for m in by_name["parallel.map"]:
        items = items_by_map[m.id]
        w = len({s.thread for s in items})
        workers = max(workers, w)
        busy += sum(s.end - s.start for s in items)
        capacity += w * (m.end - m.start)
    put("parallel.workers", workers, "parallel.map")
    put("parallel.busy_ratio", _ratio(busy, capacity), "parallel.map")
    return out
