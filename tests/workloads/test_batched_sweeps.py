"""Correctness of the batched sweep engine.

The batched engine (:mod:`repro.workloads.batched`) must be an
*implementation detail*: lockstep solves agree with per-point solves to
1e-8 on any grid shape — non-monotone, duplicated, or both — and a
killed batched sweep resumed from its journal replays the exact bytes
an uninterrupted run produces.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassConfig, SystemConfig
from repro.resilience import faults
from repro.workloads import sweep

#: A pool of stable loads for ``tiny_config``; sampling with
#: replacement forces duplicate grid values, permutation strategies
#: force non-monotone orderings.
LOAD_POOL = (0.3, 0.45, 0.6, 0.75, 0.9, 1.05)


def tiny_config(lam):
    return SystemConfig(processors=2, classes=(
        ClassConfig.markovian(1, arrival_rate=lam, service_rate=1.0,
                              quantum_mean=2.0, overhead_mean=0.01,
                              name="only"),
    ))


def _assert_points_close(batched, serial, tol=1e-8):
    assert len(batched.points) == len(serial.points)
    for bp, sp in zip(batched.points, serial.points):
        assert bp.value == sp.value
        assert bp.error is None and sp.error is None
        for b, s in zip(bp.mean_jobs + bp.mean_response_time,
                        sp.mean_jobs + sp.mean_response_time):
            assert b == pytest.approx(s, rel=tol, abs=tol)


class TestContinuationParity:
    @given(grid=st.lists(st.sampled_from(LOAD_POOL),
                         min_size=3, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_matches_cold_per_point_on_any_grid(self, grid):
        """Batched results track per-point solves to 1e-8 on grids with
        duplicates and arbitrary (non-monotone) order."""
        batched = sweep("lambda", grid, tiny_config, batch=3)
        serial = sweep("lambda", grid, tiny_config)
        _assert_points_close(batched, serial)

    def test_duplicate_values_solved_once_identical(self):
        """Duplicated grid values yield byte-identical point metrics."""
        res = sweep("lambda", [0.9, 0.3, 0.9, 0.3], tiny_config, batch=4)
        a, b, c, d = res.points
        assert a.mean_jobs == c.mean_jobs
        assert a.mean_response_time == c.mean_response_time
        assert b.mean_jobs == d.mean_jobs

    def test_non_monotone_grid_keeps_input_order(self):
        grid = [0.9, 0.3, 0.6]
        res = sweep("lambda", grid, tiny_config, batch=3)
        assert res.values() == grid
        cold = sweep("lambda", grid, tiny_config)
        _assert_points_close(res, cold)

    def test_provenance_fields(self):
        """Batched and per-point points both carry their solve time."""
        grid = [0.3, 0.45, 0.6, 0.75]
        res = sweep("lambda", grid, tiny_config, batch=4)
        assert all(p.solve_seconds is not None and p.solve_seconds > 0
                   for p in res.points)
        serial = sweep("lambda", grid[:2], tiny_config)
        assert all(p.solve_seconds is not None for p in serial.points)

    def test_solve_seconds_are_per_point_shares(self):
        """A batched point reports its own share of the lockstep work,
        not the chunk's wall time: the shares of one sweep sum to at
        most the sweep's wall time."""
        grid = list(LOAD_POOL)
        t0 = time.perf_counter()
        res = sweep("lambda", grid, tiny_config, batch=len(grid))
        wall = time.perf_counter() - t0
        total = sum(p.solve_seconds for p in res.points)
        assert 0 < total <= wall + 0.01


class TestKillAndResume:
    GRID = [0.3, 0.45, 0.6, 0.75, 0.9, 1.05]

    def test_killed_batched_sweep_resumes_byte_identical(self, tmp_path):
        clean_path = tmp_path / "clean.jsonl"
        crash_path = tmp_path / "crash.jsonl"
        clean = sweep("lambda", self.GRID, tiny_config, batch=3,
                      checkpoint=clean_path)

        # Kill inside the second chunk: fault sites fire before the
        # chunk solves, so the whole second chunk is lost and only the
        # first chunk's three points survive in the journal.
        with faults.inject("sweeps.point", raises=KeyboardInterrupt,
                           keys=(0.9,)):
            with pytest.raises(KeyboardInterrupt):
                sweep("lambda", self.GRID, tiny_config, batch=3,
                      checkpoint=crash_path)
        resumed = sweep("lambda", self.GRID, tiny_config, batch=3,
                        checkpoint=crash_path)

        assert resumed.resumed == 3
        assert resumed.points == clean.points
        # Byte-level: every numeric field matches exactly — every point
        # is a cold solve, so the resumed tail re-solves to the same bits.
        for rp, cp in zip(resumed.points, clean.points):
            assert rp.mean_jobs == cp.mean_jobs
            assert rp.mean_response_time == cp.mean_response_time
            assert rp.iterations == cp.iterations
        assert resumed.render() == clean.render()
        # The journals agree record-for-record once run-local probe
        # timings (measured wall seconds, never identical across runs)
        # are set aside.
        strip = lambda rec: {k: v for k, v in rec.items() if k != "probe"}
        clean_recs = [strip(json.loads(ln)) for ln in
                      clean_path.read_text().splitlines()]
        crash_recs = [strip(json.loads(ln)) for ln in
                      crash_path.read_text().splitlines()]
        assert crash_recs == clean_recs

    def test_resume_skips_all_solves(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep("lambda", self.GRID, tiny_config, batch=3, checkpoint=path)
        with faults.inject("sweeps.point", raises=RuntimeError) as spec:
            second = sweep("lambda", self.GRID, tiny_config, batch=3,
                           checkpoint=path)
        assert spec.fired == 0
        assert second.resumed == len(self.GRID)


class TestLegacyJournal:
    """Journals written before every batched point solved cold."""

    GRID = [0.3, 0.45, 0.6, 0.75, 0.9, 1.05]
    #: Header plus the three chunk-head records of a ``batch=2`` sweep
    #: of :data:`GRID` written by the continuation engine: each head
    #: carries the ``cont`` seed field, the two probe heads a ``probe``.
    LEGACY = pathlib.Path(__file__).parent / "data" / \
        "legacy_batched_journal.jsonl"

    @pytest.fixture(autouse=True)
    def isolated_calibration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GANG_CALIBRATION",
                           str(tmp_path / "calibration.json"))

    def test_resume_ignores_cont_and_matches_clean_run(self, tmp_path):
        legacy = tmp_path / "legacy.jsonl"
        shutil.copyfile(self.LEGACY, legacy)
        assert all("cont" in json.loads(ln) for ln in
                   legacy.read_text().splitlines()[1:])
        clean = sweep("lambda", self.GRID, tiny_config, batch=2,
                      checkpoint=tmp_path / "clean.jsonl")
        resumed = sweep("lambda", self.GRID, tiny_config, batch=2,
                        checkpoint=legacy)

        assert resumed.resumed == 3
        assert resumed.points == clean.points
        for rp, cp in zip(resumed.points, clean.points):
            assert rp.mean_jobs == cp.mean_jobs
            assert rp.mean_response_time == cp.mean_response_time
            assert rp.iterations == cp.iterations
        assert resumed.render() == clean.render()
        # The pending points were solved and journaled without a seed.
        records = [json.loads(ln) for ln in
                   legacy.read_text().splitlines()[1:]]
        assert len(records) == len(self.GRID)
        assert not any("cont" in rec for rec in records[3:])
