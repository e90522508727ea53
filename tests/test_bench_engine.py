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
        assert [g["engine"] for g in traj["generations"]] \
            == list(bench.ENGINES)
        for gen in traj["generations"]:
            assert gen["geomean_by_class"], gen["engine"]
            assert set(gen["geomean_by_class"]) <= set(bench.CLASSES)
            for cls, value in gen["geomean_by_class"].items():
                speedups = [c["speedup"] for c in gen["cells"]
                            if c["class"] == cls]
                assert value == pytest.approx(bench._geomean(speedups),
                                              abs=1e-3)
            assert math.isfinite(gen["geomean_speedup"])
