"""Tests for the benchmark's own code: spans, percentiles, checks, setup,
the speed probe and the clean-up of child processes."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans
import speed
import workloads
from checks import Checks, check_detection
from shims import METHOD_ROLES, SPAN_ROLES, Shims

ROOT = Path(__file__).resolve().parents[2]


def node(name, start, end, *children):
    return spans.Node(name, float(start), float(end), children=list(children))


class TestSelfTime:
    def test_self_time_subtracts_union_of_children(self):
        root = node("detect", 0, 10, node("a", 1, 4), node("b", 3, 6), node("c", 8, 9))
        # children cover [1, 6] and [8, 9]: 6 of 10 units
        assert spans.self_time(root) == pytest.approx(4.0)
        assert spans.coverage_pct(root) == pytest.approx(60.0)

    def test_nest_moves_spans_into_the_span_that_contains_them(self):
        # A shard span attached after the fact, as a sibling of the shim
        # spans recorded while it ran.
        frames = node(
            "localization.frames", 0, 10,
            node("mds.smacof", 1, 3),
            node("mds.smacof", 6, 7),
            node("localization.shard", 0.5, 5),
            node("localization.shard", 5, 9.5),
        )
        (root,) = spans.nest([frames])
        assert [c.name for c in root.children] == ["localization.shard"] * 2
        first, second = root.children
        assert [c.start for c in first.children] == [1.0]
        assert [c.start for c in second.children] == [6.0]
        assert spans.self_time(root) == pytest.approx(1.0)
        assert spans.self_time(first) == pytest.approx(2.5)
        # Self times over the re-nested tree partition the root's duration.
        total = sum(spans.self_time(n) for n in spans.walk([root]))
        assert total == pytest.approx(root.duration)

    def test_identical_intervals_keep_their_depth_order(self):
        inner = node("inner", 2, 3)
        outer = node("outer", 2, 3, inner)
        (root,) = spans.nest([outer])
        assert root.name == "outer" and root.children[0].name == "inner"

    def test_totals_count_outermost_spans_once(self):
        tree = [node("ubf", 0, 4, node("ubf", 1, 2)), node("ubf", 5, 6)]
        assert spans.total(tree, "ubf") == pytest.approx(5.0)
        assert spans.count(tree, "ubf") == 3


class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond_it(self):
        # 100 samples: rank 90 leaves exactly 10 above it.
        assert spans.percentile([float(i) for i in range(100)], 90.0) == 89.0
        # 99 samples: rank 90 leaves only 9.
        with pytest.raises(ValueError):
            spans.percentile(list(range(99)), 90.0)

    def test_nearest_rank_value(self):
        samples = [float(i) for i in range(1, 121)]
        assert spans.percentile(samples, 90.0) == 108.0


class TestFailureCounting:
    def test_checks_and_operations_count_failures(self):
        checks = Checks()
        checks.check("holds", True)
        checks.check("broken", False, "detail")
        with checks.operation("raises"):
            raise RuntimeError("boom")
        with checks.operation("fine"):
            pass
        assert (checks.attempted, checks.failed) == (4, 2)
        assert checks.failed_pct == pytest.approx(50.0)
        assert any("broken" in f for f in checks.failures)

    def test_detection_checks_catch_bad_outputs(self):
        good = SimpleNamespace(candidates={1, 2, 3}, boundary={1, 2}, groups=[[1], [2]])
        checks = Checks()
        check_detection(checks, good, "good")
        assert checks.failed == 0

        bad = SimpleNamespace(candidates={1}, boundary={1, 2}, groups=[[1, 2], [2]])
        check_detection(checks, bad, "bad")
        assert checks.failed == 2


class TestCampaignSetup:
    def test_setup_history_is_cache_hits(self, tmp_path):
        store = workloads.campaign_setup(3, tmp_path, history=5)
        assert workloads.history_is_cache_hits(store, history=5)
        hits = [r for r in store.jobs() if r.cache_hit]
        assert len(hits) == 5
        assert all(r.spec == workloads.history_spec(3) for r in hits)
        # A fresh spec is not in the cache: it is born queued.
        assert store.submit(workloads.fresh_spec(0)).state == "queued"


class TestShims:
    def test_shims_restore_every_replaced_function(self):
        import importlib

        from repro.observability.tracer import Tracer

        targets = [
            (importlib.import_module(module), attr)
            for pairs in SPAN_ROLES.values()
            for module, attr in pairs
        ] + [
            (getattr(importlib.import_module(module), cls), attr)
            for module, cls, attr in METHOD_ROLES.values()
        ]
        before = [getattr(owner, attr) for owner, attr in targets]
        with Shims(Tracer()):
            replaced = [getattr(owner, attr) for owner, attr in targets]
            assert all(a is not b for a, b in zip(replaced, before))
        assert [getattr(owner, attr) for owner, attr in targets] == before

    def test_service_spans_and_claim_reads(self, tmp_path):
        from repro.observability.tracer import Tracer
        from repro.service.jobstore import JobStore

        store = JobStore(str(tmp_path / "store"))
        for index in range(3):
            store.submit(workloads.fresh_spec(index))
        tracer = Tracer()
        with Shims(tracer) as shims:
            store.claim_next("w", 30.0)
            store.load(store.job_ids()[0])  # outside a claim: not counted
        names = [n.name for n in spans.walk(spans.from_span(r) for r in tracer.roots)]
        assert names == ["service.claim"]
        # The first queued record is read, then re-read under its lock.
        assert shims.claim_loads == 2


class TestSpeedProbe:
    def test_scaled_time_is_wall_time_over_the_mean_probe(self, monkeypatch):
        probe = speed.SpeedProbe()
        probe_times = iter([0.1, 0.3])  # before and after the call
        monkeypatch.setattr(probe, "run", lambda: next(probe_times))
        with probe.measure() as sample:
            time.sleep(0.01)
        assert sample.wall_s >= 0.01
        assert sample.scale == pytest.approx(speed.PROBE_REF_S / 0.2)
        assert sample.scaled_s == pytest.approx(sample.wall_s * sample.scale)

    def test_probe_records_each_run(self):
        probe = speed.SpeedProbe()
        assert probe.times == []
        with probe.measure():
            pass
        assert len(probe.times) == 2 and all(t > 0 for t in probe.times)


class TestChildProcesses:
    def test_stop_children_ends_and_reaps_every_child(self):
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        assert child.pid in run._child_pids()
        run._stop_children()
        assert child.pid not in run._child_pids()

    def test_stop_children_ends_the_shared_memory_resource_tracker(self):
        from multiprocessing import resource_tracker, shared_memory

        segment = shared_memory.SharedMemory(create=True, size=64)
        segment.close()
        segment.unlink()
        tracker = resource_tracker._resource_tracker._pid
        assert tracker in run._child_pids()
        run._stop_children()
        assert tracker not in run._child_pids()


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.E2E_METRICS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == workloads.PER_LAYER_METRICS
