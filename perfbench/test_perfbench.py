"""The benchmark's own arithmetic, on synthetic spans and operations.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""
import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from layers import CATALOGUE, layer_metrics
from run import END_TO_END, summarize
from spans import Span, Tracer, self_times, union_length
from speed import ref_seconds
from workloads import Check, Op, judge, run_ops

HERE = Path(__file__).resolve().parent


def span(i, start, end, parent=None, layer="x", name="x.f", thread=1):
    return Span(id=i, name=name, layer=layer, parent=parent, thread=thread,
                start=start, end=end)


class TestSelfTime:
    def test_union_merges_overlaps_and_clips(self):
        assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
        assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
        assert union_length([], 0, 10) == 0

    def test_nested_spans(self):
        spans = [span(1, 0, 10), span(2, 2, 5, parent=1), span(3, 3, 4, parent=2),
                 span(4, 6, 7, parent=1)]
        assert self_times(spans) == {1: 6, 2: 2, 3: 1, 4: 1}

    def test_threaded_children_counted_once(self):
        # a map span whose two items ran side by side on two threads
        spans = [span(1, 0, 10), span(2, 0, 8, parent=1, thread=2),
                 span(3, 1, 9, parent=1, thread=3), span(4, 2, 6, parent=3, thread=3)]
        own = self_times(spans)
        assert own == {1: 1, 2: 8, 3: 4, 4: 4}
        # layer self times may sum past the wall time when threads overlap
        assert sum(own.values()) == 17


@pytest.fixture
def fake_pkg():
    """A two-module package standing in for ising_lab."""
    pkg = types.ModuleType("fakelab")
    core = types.ModuleType("fakelab.core")
    user = types.ModuleType("fakelab.user")

    def leaf(n, G=4):
        return n * G

    def pmap(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    def outer(xs):
        barrier = threading.Barrier(2, timeout=10)

        def one(x):
            barrier.wait()              # force both pool threads to take an item
            return core.leaf(x)

        return core.pmap(one, xs)

    core.leaf, core.pmap, core.outer = leaf, pmap, outer
    user.leaf = leaf                    # as after ``from .core import leaf``
    pkg.core, pkg.user = core, user
    mods = {"fakelab": pkg, "fakelab.core": core, "fakelab.user": user}
    sys.modules.update(mods)
    yield pkg
    for name in mods:
        sys.modules.pop(name, None)


class TestRefSeconds:
    def test_constant_speed_scales_wall_time(self):
        times, costs = [0.0, 1.0, 2.0, 3.0], [2e-3] * 4
        assert ref_seconds(times, costs, 0.5, 2.5, ref_cost=1e-3) == pytest.approx(1.0)

    def test_speed_change_inside_the_interval(self):
        # half speed before t = 1.5 (between the samples at 1 and 2), full after
        times, costs = [0.0, 1.0, 2.0, 3.0], [2.0, 2.0, 1.0, 1.0]
        assert ref_seconds(times, costs, 0.0, 3.0, ref_cost=1.0) == pytest.approx(
            1.5 / 2 + 1.5)

    def test_outer_samples_extend_and_short_intervals_count(self):
        times, costs = [10.0, 11.0], [1.0, 1.0]
        assert ref_seconds(times, costs, 0.0, 20.0, ref_cost=1.0) == pytest.approx(20.0)
        assert ref_seconds(times, costs, 10.2, 10.21, ref_cost=1.0) == pytest.approx(0.01)

    def test_single_slow_kernel_is_ignored(self):
        times, costs = [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 9.0, 1.0, 1.0]
        assert ref_seconds(times, costs, 0.0, 4.0, ref_cost=1.0) == pytest.approx(4.0)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            ref_seconds([], [], 0.0, 1.0)


class TestTracer:
    def test_wraps_every_lookup_and_unwraps(self, fake_pkg):
        tr = Tracer(package="fakelab")
        orig = tr.wrap(fake_pkg.core, "leaf", "core.leaf",
                       ("core.nodes", lambda b, r: b["G"] ** 2))
        assert fake_pkg.user.leaf is fake_pkg.core.leaf is not orig
        assert fake_pkg.user.leaf(3) == 12
        assert fake_pkg.core.leaf(1, G=2) == 2
        assert [s.name for s in tr.spans] == ["core.leaf", "core.leaf"]
        assert tr.counters["core.nodes"] == 16 + 4
        tr.unwrap()
        assert fake_pkg.user.leaf is orig and fake_pkg.core.leaf is orig

    def test_threaded_spans_name_their_parent(self, fake_pkg):
        tr = Tracer(package="fakelab")
        tr.wrap(fake_pkg.core, "outer", "core.outer")
        tr.wrap(fake_pkg.core, "leaf", "core.leaf")
        tr.wrap_map(fake_pkg.core, "pmap", "parallel.map")
        assert fake_pkg.core.outer([1, 2]) == [4, 8]
        by = {}
        for s in tr.spans:
            by.setdefault(s.name, []).append(s)
        (outer,), (pmap,) = by["core.outer"], by["parallel.map"]
        items = by["parallel.item"]
        assert pmap.parent == outer.id
        assert all(s.parent == pmap.id for s in items)
        assert len({s.thread for s in items}) == 2
        assert {s.parent for s in by["core.leaf"]} == {s.id for s in items}
        assert tr.counters["parallel.map.items"] == 2
        m = layer_metrics(tr, {}, {})
        assert m["parallel.workers"] == 2
        busy = sum(s.end - s.start for s in items) / (2 * (pmap.end - pmap.start))
        assert m["parallel.busy_ratio"] == pytest.approx(busy)
        assert 0 < busy <= 1

    def test_missing_name_is_absent_not_zero(self, fake_pkg):
        tr = Tracer(package="fakelab")
        assert tr.wrap(fake_pkg.core, "_tensor_core", "integrals.tensor_core") is None
        # a counter whose argument was renamed drops only that counter
        tr.wrap(fake_pkg.core, "leaf", "integrals.bm_chunk",
                ("integrals.bm_moments", lambda b, r: b["m1"] - b["m0"]))
        assert fake_pkg.core.leaf(2) == 8
        m = layer_metrics(tr, {}, {})
        assert "integrals.tensor_core.calls" not in m
        assert "integrals.tensor_core.node_evals" not in m
        assert "integrals.bm_moments" not in m
        assert m["integrals.bm_chunk.self_s"] > 0
        assert m["integrals.s_n.calls"] == 0

    def test_bm_cache_hits_are_prefixes_without_chunks(self):
        tr = Tracer()
        tr.spans = [span(1, 0, 4, name="integrals.bm_prefix"),
                    span(2, 1, 3, parent=1, name="integrals.bm_chunk"),
                    span(3, 5, 6, name="integrals.bm_prefix"),
                    span(4, 7, 8, name="integrals.bm_prefix")]
        assert layer_metrics(tr, {}, {})["integrals.bm_cache.hit_ratio"] == pytest.approx(2 / 3)

    def test_cache_hit_ratio_from_deltas(self):
        m = layer_metrics(Tracer(), {"params.phi_series": (5, 5)},
                          {"params.phi_series": (8, 6)})
        assert m["params.phi_series.hit_ratio"] == pytest.approx(0.75)
        assert "params.lambda_pair.hit_ratio" not in m


class Flagged:
    flagged = True


def boom():
    raise RuntimeError("no result")


def judged(ops, checks):
    results, timed = run_ops(ops, iter(range(100)).__next__)
    return judge(timed, results, checks)


def as_pass(outcomes, verdicts, wall=2.0):
    return {"traced": False, "wall_s": wall, "raw_wall_s": wall / 0.8, "speed": 0.8,
            "rss_mb": 10.0, "setup_s": 0.5,
            "ops": [vars(o) for o in outcomes], "checks": verdicts, "layers": None}


class TestFailFrac:
    def outcomes(self):
        ops = [
            Op("ok", "chi", lambda: 1.0),
            Op("raises", "chi", boom),
            Op("flagged", "chi", Flagged, lambda r: "cap reached" if r.flagged else None),
            Op("wrong", "sn", lambda: 2.0),
            Op("partner", "sn", lambda: 2.0),
        ]
        checks = [
            Check("ok equals 1", ("ok",), lambda r: None if r["ok"] == 1.0 else "no"),
            Check("wrong vs partner", ("wrong", "partner"),
                  lambda r: "gap 1" if r["wrong"] != r["partner"] + 1 else None),
            Check("flagged vs ok", ("flagged", "ok"), lambda r: None),
        ]
        return judged(ops, checks)

    def test_each_failure_kind_counts_once(self):
        outcomes, _ = self.outcomes()
        status = {o.name: o.status for o in outcomes}
        assert status == {"ok": "ok", "raises": "raised", "flagged": "flagged",
                          "wrong": "check_failed", "partner": "check_failed"}
        assert all(o.seconds == 1 for o in outcomes)
        assert "RuntimeError: no result" in outcomes[1].reason
        assert outcomes[2].reason == "cap reached"

    def test_checks_on_failed_ops_are_skipped(self):
        _, verdicts = self.outcomes()
        got = {v["check"]: v["verdict"] for v in verdicts}
        assert got == {"ok equals 1": "pass", "wrong vs partner": "fail",
                       "flagged vs ok": "skipped"}

    def test_check_that_raises_fails(self):
        outcomes, verdicts = judged([Op("a", "chi", lambda: None)],
                                    [Check("reads a", ("a",), lambda r: r["a"].value)])
        assert verdicts[0]["verdict"] == "fail"
        assert outcomes[0].status == "check_failed"

    def test_summary_counts_every_pass(self):
        p = as_pass(*self.outcomes())
        lines, result = summarize(False, [0.4, 0.6], [p, as_pass(*self.outcomes(), wall=4.0)])
        assert (result["attempted"], result["failed"], result["correct"]) == (10, 8, False)
        assert result["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"},
                                     "wall_s": {"value": 3.0, "unit": "s"}}
        frac = next(line for line in lines if line.startswith("ops.fail_frac"))
        assert float(frac.split()[1]) == pytest.approx(0.8)

    def test_flagged_alone_fails_but_stays_correct(self):
        p = as_pass(*judged([Op("a", "chi", Flagged, lambda r: "cap"),
                             Op("b", "chi", lambda: 1.0)], []))
        _, result = summarize(False, [0.5], [p])
        assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, True)


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(CATALOGUE)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == CATALOGUE[m["name"]][:2]
