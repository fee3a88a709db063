"""Regenerate ``reference.json``, the outputs every run is checked against.

Run once, from the repository root, on the commit whose outputs are the
reference::

    python3 perfbench/make_reference.py

It solves every input a workload can send, in process and serially:
the sweep grids, the tail ladder, the SLO search, and each point of the
service writer's pool (as the daemon's one-point shards would).
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def build() -> dict:
    import oracle
    import stream
    import workloads as w
    from repro.scenario import run, run_point_to_dict, run_result_to_dict
    from repro.serialize import scenario_from_dict

    key = oracle.key
    ref: dict = {"sweep": {}, "ladder": {}, "service": {"points": {}}}
    for name in w.FIGURES:
        result = run(w.scenario_api.get_scenario(name))
        ref["sweep"][name] = {
            key(pt.value): {"N": list(pt.mean_jobs),
                            "T": list(pt.mean_response_time)}
            for pt in result.points}
    ref["sweep"]["scaling"] = {}
    for P in w.SCALING_SIZES:
        pt = run(w.scaling_scenario(P)).points[0]
        ref["sweep"]["scaling"][str(P)] = {
            "N": list(pt.mean_jobs), "T": list(pt.mean_response_time)}
    for pt in run(w.ladder_scenario(w.LADDER_RATES)).points:
        ref["ladder"][key(pt.value)] = {
            "metrics": [list(row) for row in pt.metrics],
            "kinds": list(pt.dist_kinds)}
    best = w.optimize_api.optimize_quantum_for_slo(
        w.slo_config, target=w.SLO_TARGET, bounds=w.SLO_BOUNDS,
        tol=w.SLO_TOL)
    ref["slo"] = {"quantum": best.quantum, "feasible": best.feasible,
                  "metric_value": best.metric_value,
                  "evaluations": best.evaluations, "tol": w.SLO_TOL}
    for rate, q in stream.pool_points():
        result = run(scenario_from_dict(w.writer_scenario(rate, [q])))
        ref["service"]["points"][f"{key(rate)}|{key(q)}"] = \
            run_point_to_dict(result.points[0])
        meta = run_result_to_dict(result)
    ref["service"]["meta"] = {k: meta[k] for k in
                              ("engine", "parameter", "class_names")}
    return ref


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    out = pathlib.Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
