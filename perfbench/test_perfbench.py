"""Tests of the benchmark itself: the oracle, the seeded stream, tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import stream  # noqa: E402

REF = oracle.load_reference()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _fig2_point():
    value, want = next(iter(REF["sweep"]["fig2"].items()))
    from repro.workloads.presets import fig23_config
    rates = [c.arrival_rate
             for c in fig23_config(0.4, float(value)).classes]
    return value, want, rates


def test_means_oracle_accepts_reference_and_rejects_a_perturbed_value():
    value, want, rates = _fig2_point()
    assert oracle.check_means("fig2", want["N"], want["T"], want, rates) == []
    bad_n = list(want["N"])
    bad_n[2] *= 1 + 1e-6
    problems = oracle.check_means("fig2", bad_n, want["T"], want, rates)
    assert any("N[2]" in p for p in problems)
    assert any("Little" in p for p in problems)


def test_ladder_oracle_rejects_a_perturbed_quantile():
    want = REF["ladder"]["0.3"]["metrics"]
    assert oracle.check_ladder_point("ladder", want, want) == []
    bad = copy.deepcopy(want)
    bad[1][2] *= 1 + 1e-7
    assert oracle.check_ladder_point("ladder", bad, want)
    assert oracle.check_tail_at_quantile("t", 0.99, 0.01 + 2e-6)
    assert oracle.check_tail_at_quantile("t", 0.99, 0.01 + 1e-8) == []


def test_slo_oracle_checks_quantum_and_verdict():
    ref = REF["slo"]
    assert oracle.check_slo(ref["quantum"], ref["feasible"], ref) == []
    assert oracle.check_slo(ref["quantum"], not ref["feasible"], ref)
    far = ref["quantum"] + 1.01 * ref["tol"] * max(1.0, ref["quantum"])
    assert oracle.check_slo(far, ref["feasible"], ref)


def test_reply_oracle_rejects_a_perturbed_point():
    rate, grid = 0.3, (1.0, 1.8, 2.6)
    points = [REF["service"]["points"][f"{oracle.key(rate)}|{oracle.key(q)}"]
              for q in grid]
    reply = {"status": "ok",
             "result": {**REF["service"]["meta"], "points": points}}
    assert oracle.check_reply("w", reply, rate, grid, REF["service"]) == []
    bad = copy.deepcopy(reply)
    bad["result"]["points"][1]["mean_jobs"][0] *= 1 + 1e-9
    assert oracle.check_reply("w", bad, rate, grid, REF["service"])


def test_reference_covers_every_pool_point():
    for rate, q in stream.pool_points():
        assert f"{oracle.key(rate)}|{oracle.key(q)}" in \
            REF["service"]["points"]


def test_same_seed_same_writer_stream():
    assert stream.writer_stream(7) == stream.writer_stream(7)
    assert stream.writer_stream(7) != stream.writer_stream(8)


def test_other_seed_same_mix_in_every_prefix():
    a, b = stream.writer_stream(1), stream.writer_stream(2)
    for n in (1, 7, 23, 40, len(a)):
        ma, mb = stream.mix(a[:n]), stream.mix(b[:n])
        assert all(abs(ma[k] - mb[k]) <= 1 for k in ma), (n, ma, mb)


def test_walks_cover_the_pool_once():
    requested = {(rate, q) for _, rate, grid in stream.writer_stream(3)
                 for q in grid}
    assert requested == set(stream.pool_points())


def test_self_time_subtracts_children():
    t = layers.Tracer()
    t.spans = [(1, "a", 0.0, 10.0, None, 1), (2, "b", 1.0, 4.0, 1, 1),
               (3, "c", 2.0, 3.0, 2, 1), (4, "b", 5.0, 6.0, 1, 1)]
    assert t.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert t.covered_seconds() == 10.0


def test_patch_layers_restores_every_attribute():
    import repro.pipeline.stages as stages
    import repro.scenario as scenario
    before = (stages.solve_R, stages.drift, scenario.run)
    t = layers.Tracer()
    layers.patch_layers(t)
    assert stages.drift is not before[1]
    t.restore()
    assert (stages.solve_R, stages.drift, scenario.run) == before


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: unit for name, unit, _ in layers.PER_LAYER}
    t = layers.Tracer()
    got = layers.layer_metrics(t, wall_s=1.0, overhead_s=0.0,
                               obs_snapshot={}, lock_wait_s=0.0)
    assert set(got) == {m["name"] for m in SPEC["per_layer"]}


def test_reap_strays_waits_for_orphaned_grandchildren():
    # In a child interpreter: the subreaper setting outlives the call.
    code = (
        "import os, subprocess, sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import workloads\n"
        "workloads.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 0.5 & exit 0'], check=True)\n"
        "before = len(workloads._children(os.getpid()))\n"
        "print(before, workloads.reap_strays(),"
        " len(workloads._children(os.getpid())))\n")
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE.parent / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split("\n")[0] == "1 [] 0"
