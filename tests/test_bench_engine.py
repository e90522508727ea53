"""bench_engine report logic: geomeans, trajectory upserts, gates.

Pure-logic tests over hand-built reports — no simulation runs.  The
bugs this file pins: ``_geomean`` used to return 0.0 for an empty cell
list, which leaked into ``geomean_by_class`` as a phantom catastrophic
regression; ``check_report`` must skip baseline classes the fresh run
did not measure (a narrower ``--classes`` invocation) instead of
failing them.
"""

from __future__ import annotations

import importlib.util
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "benchmarks" / "bench_engine.py"
_spec = importlib.util.spec_from_file_location("bench_engine", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _cell(workload, scheme, cls, speedup):
    return {"workload": workload, "scheme": scheme, "class": cls,
            "reference": {"cycles_per_sec": 1.0},
            "fast": {"cycles_per_sec": speedup},
            "speedups": {"fast": speedup}}


def _gen(engine, by_class, overall=None):
    return {"engine": engine, "cells": [],
            "geomean_speedup": overall if overall is not None
            else min(by_class.values(), default=1.0),
            "geomean_by_class": dict(by_class),
            "max_speedup": 1.0}


class TestGeomean:
    def test_geomean_of_values(self):
        assert bench._geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert bench._geomean([3.0]) == pytest.approx(3.0)

    def test_empty_sequence_raises_instead_of_zero(self):
        with pytest.raises(ValueError, match="empty"):
            bench._geomean([])

    def test_generation_omits_empty_classes(self):
        """Only classes with measured cells appear — never a 0.0."""
        measured = [_cell("mcf", "ST", "single-thread", 2.0),
                    _cell("LLMH", "2SC3", "multithreaded", 4.0)]
        gen = bench._generation(measured, "fast")
        assert set(gen["geomean_by_class"]) \
            == {"single-thread", "multithreaded"}
        assert 0.0 not in gen["geomean_by_class"].values()
        only_st = bench._generation(measured[:1], "fast")
        assert set(only_st["geomean_by_class"]) == {"single-thread"}
        assert only_st["geomean_by_class"]["single-thread"] \
            == pytest.approx(2.0)

    def test_campaign_generation_shape(self):
        gen = bench._campaign_generation([
            {"workload": "sweep", "scheme": "7m x 9wl x 17s",
             "class": "campaign", "cells": 1071, "speedup": 2.5,
             "fast": {"seconds": 10.0, "cells_per_sec": 107.1},
             "batch": {"seconds": 4.0, "cells_per_sec": 267.75}}])
        assert gen["engine"] == "batch"
        assert gen["baseline"] == "fast"
        assert gen["geomean_by_class"] == {"campaign": 2.5}


class TestCheckReport:
    def test_passing_report_has_no_failures(self):
        report = {"generations": [_gen("fast", {"multithreaded": 4.0})]}
        assert bench.check_report(report) == []

    def test_threshold_failure(self):
        report = {"generations": [_gen("fast", {"multithreaded": 0.5},
                                       overall=0.5)]}
        assert any("threshold" in f for f in bench.check_report(report))

    def test_baseline_skips_classes_absent_from_fresh_report(self):
        """A narrower fresh run (--classes multithreaded) must not trip
        over baseline classes it did not measure."""
        fresh = {"generations": [_gen("fast", {"multithreaded": 4.0})]}
        baseline = {"generations": [_gen("fast", {"multithreaded": 4.0,
                                                 "single-thread": 2.0})]}
        assert bench.check_report(fresh, baseline=baseline) == []

    def test_baseline_skips_legacy_zero_placeholders(self):
        fresh = {"generations": [_gen("fast", {"multithreaded": 4.0})]}
        baseline = {"generations": [_gen("fast", {"multithreaded": 0.0})]}
        assert bench.check_report(fresh, baseline=baseline) == []

    def test_baseline_regression_detected(self):
        fresh = {"generations": [_gen("fast", {"multithreaded": 2.0})]}
        baseline = {"generations": [_gen("fast", {"multithreaded": 4.0})]}
        assert any("regressed" in f for f in
                   bench.check_report(fresh, baseline=baseline,
                                      tolerance=0.25))

    def test_absolute_floor_gates_campaign_class(self):
        report = {"generations": [_gen("batch", {"campaign": 2.5})]}
        floor_ok = [bench.parse_floor("batch:campaign:2.0")]
        floor_bad = [bench.parse_floor("batch:campaign:3.0")]
        assert bench.check_report(report, floors=floor_ok) == []
        assert any("floor" in f for f in
                   bench.check_report(report, floors=floor_bad))

    def test_named_floor_on_unmeasured_class_fails_loudly(self):
        """An explicit gate must never pass silently."""
        report = {"generations": [_gen("fast", {"multithreaded": 4.0})]}
        floors = [bench.parse_floor("batch:campaign:2.0"),
                  bench.parse_floor("fast:single-thread:1.0")]
        failures = bench.check_report(report, floors=floors)
        assert len(failures) == 2
        assert any("engine not measured" in f for f in failures)
        assert any("class not measured" in f for f in failures)

    def test_parse_floor_rejects_malformed(self):
        with pytest.raises(ValueError):
            bench.parse_floor("fast:multithreaded")
        with pytest.raises(ValueError):
            bench.parse_floor("fast:multithreaded:1:2")


class TestTrajectory:
    def test_upsert_replaces_in_place_and_appends_new(self):
        def report(*generations):
            return {"benchmark": "bench_engine", "config": {"seed": 1},
                    "python": "3.12", "generations": list(generations)}

        existing = report(_gen("fast", {"multithreaded": 2.0}))
        merged = bench.upsert_generations(
            existing, report(_gen("batch", {"campaign": 2.5})))
        # a newly measured engine appends; the unmeasured one is history
        assert [g["engine"] for g in merged["generations"]] \
            == ["fast", "batch"]
        assert merged["generations"][0]["geomean_by_class"] \
            == {"multithreaded": 2.0}
        merged = bench.upsert_generations(
            merged, report(_gen("fast", {"multithreaded": 5.0})))
        # a re-measured engine is replaced in place
        assert [g["engine"] for g in merged["generations"]] \
            == ["fast", "batch"]
        assert merged["generations"][0]["geomean_by_class"] \
            == {"multithreaded": 5.0}

    def test_geomean_consistency_of_committed_trajectory(self):
        """The committed BENCH_engine.json must satisfy its own gates:
        no empty classes, every geomean the geomean of its cells."""
        traj = bench.load_trajectory(
            str(_PATH.parent.parent / "BENCH_engine.json"))
        assert traj is not None
        engines = [g["engine"] for g in traj["generations"]]
        assert "batch" in engines  # the campaign generation is committed
        for gen in traj["generations"]:
            assert gen["geomean_by_class"], gen["engine"]
            assert all(v > 0 for v in gen["geomean_by_class"].values())
        batch = {g["engine"]: g for g in traj["generations"]}["batch"]
        assert batch["baseline"] == "fast"
        # the acceptance bar the CI gate pins: >= 2x campaign throughput
        assert batch["geomean_by_class"]["campaign"] >= 2.0
        assert math.isfinite(batch["geomean_speedup"])
