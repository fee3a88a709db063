"""The repository's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload sweep-means --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``repro`` from ``src/`` of
the same tree and exits with code 2 when that is missing.  With
``--trace 0`` it measures the end-to-end metrics with nothing patched.
With ``--trace 1`` it runs the workload once untraced and once with
every measured layer wrapped (see :mod:`layers`), and reports the
per-layer metrics and the tracing overhead.  Every operation is checked
against ``reference.json``.  The last line of standard output is the
result as one JSON object; the lines above it are a readable report,
and the full report (host facts, samples, problems, spans) is written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep-means", "tail-slo", "service-mixed")

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_points_per_s": "1/s",
    "op_p50_s": "s",
}
#: BLAS runs one thread in every process the benchmark starts.  On a
#: small shared host the default of one thread per core spins threads
#: against each other and against the daemon's processes: on 2 cores,
#: fig2 ran about 25% slower with two threads and used twice the CPU.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120.0


# -- host facts ------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it says."""
    import numpy  # noqa: F401 - loads the library

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    """SHA-256 over ``src/`` (the checkout need not be a git tree)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_facts(load1: float) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "load_avg_1min_at_start": load1,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "src_sha256": source_digest(),
    }


# -- statistics ------------------------------------------------------------

def distribution(samples) -> dict:
    """Median, sample count, and the highest percentile with at least
    ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "p50": statistics.median(xs) if xs else None}
    if n >= 21:
        k = n - 11
        out[f"p{math.floor(100 * (k + 1) / n)}"] = xs[k]
    return out


# -- one run ---------------------------------------------------------------

def timed_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter to its warmed set-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--probe-setup", workload],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed "
                           f"(exit {proc.returncode})")
    return seconds


def untraced(args, ref: dict) -> dict:
    import workloads

    if args.workload == "service-mixed":
        res = workloads.service_untraced(ROOT, OUT, args.seed, args.seconds,
                                         ref, setups=SETUP_RUNS)
        ops = res["records"]
        stop = {"kind": "shutdown", "problems": res["problems"]}
        writes = [r["latency"] for r in ops
                  if r["role"] == "writer" and r["latency"] is not None]
        reads = [r["latency"] for r in ops
                 if r["role"] == "reader" and r["latency"] is not None]
        solved = sum(r["solved_points"] for r in ops if r["role"] == "writer")
        lat = writes + reads
        named = {"write_p50_s": distribution(writes),
                 "read_p50_s": distribution(reads),
                 "request_latency_s": distribution(lat)}
        metrics = {
            "setup_s": statistics.median(res["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "sweep_points_per_s": solved / sum(writes) if writes else 0.0,
            "op_p50_s": statistics.median(lat) if lat else 0.0,
        }
        return {"ops": ops + [stop], "metrics": metrics, "named": named,
                "setup_samples": res["setup_s"],
                "mix": {k: sum(1 for r in ops if r["kind"] == k)
                        for k in ("cold", "partial", "hit", "read")}}
    setups = [timed_setup(args.workload) for _ in range(SETUP_RUNS)]
    workloads.setup(args.workload)
    passes = workloads.run_passes(args.workload, args.seed, args.seconds, ref)
    ops = [op for p in passes for op in p]
    secs = [op["seconds"] for op in ops]
    named = {"op_s": distribution(secs)}
    for kind in sorted({op["kind"] for op in ops}):
        named[f"{kind}_s"] = distribution(
            [op["seconds"] for op in ops if op["kind"] == kind])
    if args.workload == "tail-slo":
        named["tail_ladder_s"] = named.pop("ladder_s")
        named["slo_search_s"] = named.pop("slo_s")
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        # Over the whole run, not a median: a pass holds unlike grids.
        "sweep_points_per_s": sum(op["points"] for op in ops) / sum(secs),
        "op_p50_s": statistics.median(secs),
    }
    return {"ops": ops, "metrics": metrics, "named": named,
            "setup_samples": setups, "passes": len(passes)}


def traced(args, ref: dict) -> dict:
    import layers
    import workloads

    res = workloads.traced(args.workload, ROOT, OUT, args.seed, ref)
    tracer = res.pop("tracer")
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    res["crosscheck"] = tracer.crosscheck()
    res["unpatched"] = tracer.missing
    res["units"] = {name: unit for name, unit, _ in layers.PER_LAYER}
    return res


def report(args, facts: dict, res: dict, units: dict) -> None:
    """The readable lines above the result."""
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, value in res["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for name, dist in res.get("named", {}).items():
        parts = " ".join(f"{k}={v:.6g}" if isinstance(v, float)
                         else f"{k}={v}" for k, v in dist.items())
        print(f"  {name:<34} {parts}")
    for row in res.get("crosscheck", []):
        flag = "DISAGREE" if row["disagree"] else "ok"
        print(f"  crosscheck {row['stage']:<14} wrapper={row['wrapper_s']:.4f}s"
              f" program={row['program_s']:.4f}s {flag}")
    for name in res.get("unpatched", []):
        print(f"  not traced (missing from the program): {name}")
    if "mix" in res:
        print("  mix " + " ".join(f"{k}={v}" for k, v in res["mix"].items()))
    print(f"  failed_fraction {res['failed']}/{res['attempted']}")
    for problem in res["problems"][:10]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    load1 = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import oracle
    import workloads

    if args.probe_setup:
        workloads.setup(args.probe_setup)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # A terminated run still stops its daemon and deletes its store.
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, _: sys.exit(128 + signum))
    workloads.adopt_orphans()
    try:
        facts = host_facts(load1)
        OUT.mkdir(exist_ok=True)
        ref = oracle.load_reference()
        res = traced(args, ref) if args.trace else untraced(args, ref)
    finally:
        strays = workloads.reap_strays()
    if strays:
        res["ops"].append({"kind": "cleanup", "problems": strays})
    problems = [p for op in res["ops"] for p in op["problems"]]
    res["problems"] = problems
    res["attempted"] = len(res["ops"])
    res["failed"] = sum(1 for op in res["ops"] if op["problems"])
    units = res.get("units", END_TO_END)
    report(args, facts, res, units)
    detail = {k: v for k, v in res.items() if k not in ("ops",)}
    detail["host"] = facts
    detail["ops"] = [{k: v for k, v in op.items() if k != "problems"}
                     for op in res["ops"]]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, default=str) + "\n")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
