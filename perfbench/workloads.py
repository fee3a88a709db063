"""The benchmark's three workloads: inputs, timed operations, checks.

``sweep-means``
    The fig2 and fig3 default grids through the scenario runner that
    ``repro figure 2``/``3`` use, plus a machine-size axis (P = 64, 128,
    256) on a two-class Erlang-3 system.  Means only, default engine.
    Loads the whole solve stack; ``repro.metrics`` and ``repro.service``
    stay idle.
``tail-slo``
    A load ladder with percentile selectors through the scenario runner,
    and one ``optimize --target "p99<=10"`` search.  Loads the response
    laws and quantiles of ``repro.metrics`` and ``repro.phasetype``.
``service-mixed``
    A real ``repro serve --http`` daemon with one worker and an empty
    store, driven by a closed-loop writer and a closed-loop reader (see
    :mod:`stream`).  Loads ``repro.service`` and its store.

The seed orders the operations and grid values; the program only sees
the generated scenarios.  Every timed operation is checked by
:mod:`oracle` outside its timed region.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import oracle
import stream
from layers import Tracer, layer_metrics, patch_layers

import repro.core.optimize as optimize_api
import repro.scenario as scenario_api
from repro.core.config import ClassConfig, SystemConfig
from repro.core.model import GangSchedulingModel
from repro.obs import metrics as obs_metrics
from repro.phasetype import erlang, exponential
from repro.scenario import OutputSpec, Scenario, SweepAxis, SystemSpec
from repro.serialize import scenario_to_dict
from repro.workloads.presets import fig23_config

WORKLOADS = ("sweep-means", "tail-slo", "service-mixed")

FIGURES = ("fig2", "fig3")
SCALING_SIZES = (64, 128, 256)
LADDER_RATES = (0.2, 0.3, 0.4)
LADDER_QUANTUM = 2.0
LADDER_SELECTORS = ("mean", "p50", "p99", "tail@5")
#: ``repro optimize --target "p99<=10" --min 0.1 --max 8`` at lambda 0.2.
#: The tolerance is coarsened from the CLI's 1e-3 so that one search
#: fits a run; both stages (golden-section probe, then the left-flank
#: bisection) still run and the target stays feasible.
SLO_RATE = 0.2
SLO_TARGET = "p99<=10"
SLO_BOUNDS = (0.1, 8.0)
SLO_TOL = 0.15
#: Closed-loop think times.  The writer pauses so the service lock is
#: free part of the time: reads then see both a free lock and a lock
#: held by a solve.
WRITER_THINK_S = 0.2
READER_THINK_S = 0.01
#: Writer walks in one episode of the traced service run.
TRACE_WALKS = 2
HTTP_TIMEOUT_S = 120.0
DAEMON_START_TIMEOUT_S = 60.0


# -- inputs ----------------------------------------------------------------

def scaling_config(P: int) -> SystemConfig:
    """Two classes with a P-independent per-partition load, Erlang-3
    quanta (``config_for(P, quantum_stages=3)`` of the scaling bench)."""
    quantum = erlang(3, mean=2.0)
    return SystemConfig(processors=P, classes=(
        ClassConfig(partition_size=1, arrival=exponential(0.15 * P),
                    service=exponential(0.5), quantum=quantum,
                    overhead=exponential(mean=0.01), name="small"),
        ClassConfig(partition_size=P, arrival=exponential(1.2),
                    service=exponential(4.0), quantum=quantum,
                    overhead=exponential(mean=0.01), name="huge"),
    ))


def scaling_scenario(P: int) -> Scenario:
    return Scenario(name=f"scaling-P{P}",
                    system=SystemSpec(config=scaling_config(P)))


def figure_scenario(name: str, rng: random.Random) -> Scenario:
    sc = scenario_api.get_scenario(name)
    values = list(sc.grid())
    rng.shuffle(values)
    return sc.with_grid(values)


def ladder_scenario(values) -> Scenario:
    return Scenario(
        name="tail-ladder",
        system=SystemSpec(preset="fig23",
                          args={"quantum_mean": LADDER_QUANTUM},
                          axis=SweepAxis("arrival_rate", tuple(values))),
        output=OutputSpec(metrics=LADDER_SELECTORS))


def slo_config(quantum: float) -> SystemConfig:
    return fig23_config(SLO_RATE, quantum)


def writer_scenario(rate: float, grid) -> dict:
    """The inline scenario dict of one writer request."""
    return scenario_to_dict(Scenario(
        name="writer",
        system=SystemSpec(preset="fig23", args={"arrival_rate": rate},
                          axis=SweepAxis("quantum_mean", tuple(grid)))))


def warm_scenario(selectors=("mean",)) -> Scenario:
    """A small unswept point, outside every workload's inputs."""
    return Scenario(name="warm-up",
                    system=SystemSpec(preset="fig23",
                                      args={"arrival_rate": 0.1,
                                            "quantum_mean": 1.0}),
                    output=OutputSpec(metrics=selectors))


def setup(workload: str) -> None:
    """Warm lazy imports and first-call paths before timing."""
    if workload == "sweep-means":
        scenario_api.run(warm_scenario())
    elif workload == "tail-slo":
        scenario_api.run(warm_scenario(("mean", "p99", "tail@5")))


# -- timed operations ------------------------------------------------------

def _op(kind: str, seconds: float, points: int, check) -> dict:
    """A timed operation; ``check()`` lists its problems, run later by
    :func:`check_ops` so that no check runs inside a traced pass."""
    return {"kind": kind, "seconds": seconds, "points": points,
            "check": check}


def check_ops(ops: list[dict]) -> list[dict]:
    for op in ops:
        op["problems"] = op.pop("check")()
    return ops


def _timed_run(sc: Scenario):
    t0 = time.perf_counter()
    result = scenario_api.run(sc)
    return result, time.perf_counter() - t0


def figure_op(name: str, rng: random.Random, ref: dict) -> dict:
    sc = figure_scenario(name, rng)
    result, seconds = _timed_run(sc)

    def check():
        problems = []
        for pt in result.points:
            where = f"{name} quantum={pt.value}"
            if pt.error is not None:
                problems.append(f"{where}: {pt.error}")
                continue
            rates = [c.arrival_rate
                     for c in sc.system.config_for(pt.value).classes]
            problems += oracle.check_means(
                where, pt.mean_jobs, pt.mean_response_time,
                ref["sweep"][name][oracle.key(pt.value)], rates)
        return problems

    return _op(name, seconds, len(result.points), check)


def scaling_op(rng: random.Random, ref: dict) -> dict:
    sizes = list(SCALING_SIZES)
    rng.shuffle(sizes)
    seconds, results = 0.0, []
    for P in sizes:
        sc = scaling_scenario(P)
        result, dt = _timed_run(sc)
        seconds += dt
        results.append((P, sc, result.points[0]))

    def check():
        problems = []
        for P, sc, pt in results:
            if pt.error is not None:
                problems.append(f"scaling P={P}: {pt.error}")
                continue
            rates = [c.arrival_rate for c in sc.system.config.classes]
            problems += oracle.check_means(
                f"scaling P={P}", pt.mean_jobs, pt.mean_response_time,
                ref["sweep"]["scaling"][str(P)], rates)
        return problems

    return _op("scaling", seconds, len(sizes), check)


def ladder_op(rng: random.Random, ref: dict) -> dict:
    values = list(LADDER_RATES)
    rng.shuffle(values)
    result, seconds = _timed_run(ladder_scenario(values))
    p50 = LADDER_SELECTORS.index("p50")
    p99 = LADDER_SELECTORS.index("p99")

    def check():
        problems = []
        for pt in result.points:
            where = f"ladder rate={pt.value}"
            want = ref["ladder"][oracle.key(pt.value)]
            if pt.error is not None or pt.metrics is None:
                problems.append(f"{where}: {pt.error or 'no metrics'}")
                continue
            problems += oracle.check_ladder_point(where, pt.metrics,
                                                  want["metrics"])
            if list(pt.dist_kinds) != want["kinds"]:
                problems.append(f"{where}: kinds {pt.dist_kinds} "
                                f"!= {want['kinds']}")
            # tail(quantile(q)) = 1 - q on the law behind the values.
            solved = GangSchedulingModel(
                fig23_config(pt.value, LADDER_QUANTUM)).solve()
            for p, row in enumerate(pt.metrics):
                law = solved.distributions(p)
                for level, col in ((0.5, p50), (0.99, p99)):
                    problems += oracle.check_tail_at_quantile(
                        f"{where} class {p}", level, law.tail(row[col]))
        return problems

    return _op("ladder", seconds, len(result.points), check)


def slo_op(ref: dict) -> dict:
    t0 = time.perf_counter()
    best = optimize_api.optimize_quantum_for_slo(
        slo_config, target=SLO_TARGET, bounds=SLO_BOUNDS, tol=SLO_TOL)
    seconds = time.perf_counter() - t0
    return _op("slo", seconds, best.evaluations,
               lambda: oracle.check_slo(best.quantum, best.feasible,
                                        ref["slo"]))


def pass_ops(workload: str, rng: random.Random, ref: dict) -> list[dict]:
    """One pass over a workload's operations, in seeded order."""
    if workload == "sweep-means":
        ops = [lambda name=name: figure_op(name, rng, ref)
               for name in FIGURES]
        ops.append(lambda: scaling_op(rng, ref))
    else:
        ops = [lambda: ladder_op(rng, ref), lambda: slo_op(ref)]
    rng.shuffle(ops)
    return [op() for op in ops]


def run_passes(workload: str, seed: int, seconds: float, ref: dict,
               ) -> list[list[dict]]:
    """Whole passes while another one is expected to end within
    ``seconds`` (at least one pass)."""
    rng = random.Random(seed)
    t0 = time.perf_counter()
    passes = [check_ops(pass_ops(workload, rng, ref))]
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        passes.append(check_ops(pass_ops(workload, rng, ref)))


# -- the service workload --------------------------------------------------

def post(port: int, payload: dict) -> tuple[float, dict]:
    """One closed-loop request: ``(client latency, reply)``."""
    body = json.dumps(payload).encode("utf-8")
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=HTTP_TIMEOUT_S)
    try:
        t0 = time.perf_counter()
        conn.request("POST", "/", body, {"Content-Type": "application/json"})
        data = conn.getresponse().read()
        latency = time.perf_counter() - t0
    finally:
        conn.close()
    return latency, json.loads(data)


#: What the reply to each kind of request must say about the store.
EXPECTED = {
    "cold": {"cached": False, "store_points": 0, "solved_points": 3},
    "partial": {"cached": False, "store_points": 2, "solved_points": 1},
    "hit": {"cached": True},
    "read": {"cached": True},
}


def _record(role: str, kind: str, rate: float, grid, latency: float,
            reply: dict, ref: dict) -> dict:
    where = f"{role} {kind} rate={rate} grid={list(grid)}"
    problems = oracle.check_reply(where, reply, rate, grid, ref["service"])
    for field, want in EXPECTED[kind].items():
        if reply.get(field) != want:
            problems.append(f"{where}: {field}={reply.get(field)!r}, "
                            f"expected {want!r}")
    return {"role": role, "kind": kind, "latency": latency,
            "elapsed": reply.get("elapsed"),
            "solved_points": reply.get("solved_points") or 0,
            "problems": problems}


def drive(port: int, requests, seconds: float | None, seed: int,
          ref: dict) -> list[dict]:
    """Run the writer and the reader until the writer stops.

    The writer sends ``requests`` in order, stopping early once
    ``seconds`` have gone by; the reader re-requests scenarios the
    writer has completed, chosen by a generator seeded from ``seed``.
    """
    deadline = None if seconds is None else time.perf_counter() + seconds
    completed: list[tuple] = []
    records: list[dict] = []
    lock = threading.Lock()
    writer_done = threading.Event()

    def failure(role, exc):
        records.append({"role": role, "kind": "error", "latency": None,
                        "elapsed": None, "solved_points": 0,
                        "problems": [f"{role}: {type(exc).__name__}: {exc}"]})

    def writer():
        try:
            for i, (kind, rate, grid) in enumerate(requests):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                scenario = writer_scenario(rate, grid)
                try:
                    latency, reply = post(port, {"id": f"w{i}", "op": "run",
                                                 "scenario": scenario})
                    rec = _record("writer", kind, rate, grid, latency, reply,
                                  ref)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    failure("writer", exc)
                    continue
                records.append(rec)
                if not rec["problems"]:
                    with lock:
                        completed.append((rate, grid, scenario))
                time.sleep(WRITER_THINK_S)
        finally:
            writer_done.set()

    def reader():
        rng = random.Random(seed)
        i = 0
        while not writer_done.is_set():
            with lock:
                pick = rng.choice(completed) if completed else None
            if pick is not None:
                rate, grid, scenario = pick
                i += 1
                try:
                    latency, reply = post(port, {"id": f"r{i}", "op": "run",
                                                 "scenario": scenario})
                    records.append(_record("reader", "read", rate, grid,
                                           latency, reply, ref))
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    failure("reader", exc)
            time.sleep(READER_THINK_S)

    threads = [threading.Thread(target=writer, name="perfbench-writer"),
               threading.Thread(target=reader, name="perfbench-reader")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def _children(pid: int) -> list[int]:
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out += [int(c) for c in fh.read().split()]
    except OSError:
        pass
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _does_work(pid: int) -> bool:
    """Anything but the ``multiprocessing`` resource tracker, which
    belongs to the interpreter and exits with it."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"resource_tracker" not in fh.read()
    except OSError:
        return False


#: ``prctl`` options (``linux/prctl.h``).
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
#: How long descendants get to end by themselves once the run is over.
REAP_GRACE_S = 10.0


def _prctl(option: int, arg: int) -> None:
    if ctypes.CDLL(None, use_errno=True).prctl(option, arg, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), f"prctl({option}, {arg})")


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    ends first (the daemon's worker and resource tracker), so that
    :func:`reap_strays` can wait for them instead of leaving them to
    init."""
    _prctl(PR_SET_CHILD_SUBREAPER, 1)


def _die_with_parent() -> None:
    """In a child before ``exec``: get SIGTERM when the benchmark dies."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_strays() -> list[str]:
    """Wait until no descendant of this process is left.

    Stops this process's ``multiprocessing`` resource tracker, gives
    every other descendant :data:`REAP_GRACE_S` to end, then kills and
    reports those still running; every one is waited for.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    problems = []
    deadline = time.perf_counter() + REAP_GRACE_S
    while True:
        _reap_exited()
        live = [pid for pid in _children(os.getpid()) if _alive(pid)]
        if not live:
            return problems
        if time.perf_counter() < deadline:
            time.sleep(0.02)
            continue
        for pid in live:
            if _does_work(pid):
                problems.append(f"process {pid} outlived its run")
            os.kill(pid, signal.SIGKILL)
        deadline = float("inf")


class Daemon:
    """A ``repro serve --http`` process with one worker and its own store."""

    def __init__(self, root, out_dir, tag: str):
        self.root = root
        self.store = out_dir / f"store-{tag}"
        self.err = out_dir / f"daemon-{tag}.err"
        self.proc = None
        self.port = None
        self.setup_s = None

    def start(self) -> "Daemon":
        """Start, wait for the port, and warm the worker with one solve."""
        shutil.rmtree(self.store, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        t0 = time.perf_counter()
        with open(self.err, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--store", str(self.store), "--workers", "1",
                 "--http", "0"],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=_die_with_parent)
        while self.port is None:
            match = re.search(rb"serving HTTP on [^\s:]+:(\d+)",
                              self.err.read_bytes())
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}"
                                   f": {self.err.read_text()[-500:]}")
            elif time.perf_counter() - t0 > DAEMON_START_TIMEOUT_S:
                raise RuntimeError("daemon did not report its port")
            else:
                time.sleep(0.01)
        _, reply = post(self.port, {"id": "warm", "op": "run",
                                    "scenario": scenario_to_dict(
                                        warm_scenario())})
        if reply.get("status") != "ok":
            raise RuntimeError(f"warm-up request failed: {reply}")
        self.setup_s = time.perf_counter() - t0
        return self

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon and its worker processes."""
        pids = [self.proc.pid] + [c for c in _children(self.proc.pid)
                                  if _does_work(c)]
        return sum(_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> list[str]:
        """Shut down, reap, delete the store; report leftover processes."""
        problems = []
        if self.proc is None:
            return problems
        children = _children(self.proc.pid)
        if self.port is not None and self.proc.poll() is None:
            try:
                post(self.port, {"id": "bye", "op": "shutdown"})
            except (OSError, ValueError) as exc:
                problems.append(f"shutdown request failed: {exc}")
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            problems.append("daemon did not exit after shutdown")
        deadline = time.perf_counter() + 10
        while any(map(_alive, children)) and time.perf_counter() < deadline:
            time.sleep(0.05)
        for pid in filter(_alive, children):
            os.kill(pid, signal.SIGKILL)
            problems.append(f"process {pid} outlived the daemon")
        self.proc = None
        shutil.rmtree(self.store, ignore_errors=True)
        return problems


def service_untraced(root, out_dir, seed: int, seconds: float, ref: dict,
                     setups: int = 3) -> dict:
    """Set up ``setups`` daemons (the last one serves), drive it, stop."""
    setup_s, problems = [], []
    for n in range(setups - 1):
        probe = Daemon(root, out_dir, f"probe{n}")
        try:
            setup_s.append(probe.start().setup_s)
        finally:
            problems += probe.stop()
    daemon = Daemon(root, out_dir, "main")
    try:
        setup_s.append(daemon.start().setup_s)
        records = drive(daemon.port, stream.writer_stream(seed), seconds,
                        seed, ref)
        rss = daemon.peak_rss_mb()
    finally:
        problems += daemon.stop()
    return {"setup_s": setup_s, "records": records, "peak_rss_mb": rss,
            "problems": problems}


def service_episode(out_dir, tag: str, requests, seed: int, ref: dict,
                    tracer: Tracer | None = None):
    """Host the service in this process and run one writer prefix.

    With ``tracer`` the layers are patched after the warm-up and
    restored before shutdown.  Returns ``(records, writer wall time)``.
    """
    from repro.service import ScenarioService, ServiceConfig

    store = out_dir / f"store-{tag}"
    shutil.rmtree(store, ignore_errors=True)
    service = ScenarioService(ServiceConfig(store_dir=str(store),
                                            workers=1)).open()
    httpd = service.serve_http("127.0.0.1", 0)
    server = threading.Thread(target=httpd.serve_forever,
                              name="perfbench-http")
    server.start()
    try:
        port = httpd.server_address[1]
        post(port, {"id": "warm", "op": "run",
                    "scenario": scenario_to_dict(warm_scenario())})
        if tracer is not None:
            patch_layers(tracer)
        t0 = time.perf_counter()
        try:
            records = drive(port, requests, None, seed, ref)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.join()
        service.close()
        shutil.rmtree(store, ignore_errors=True)
    return records, wall


# -- traced runs -----------------------------------------------------------

def traced(workload: str, root, out_dir, seed: int, ref: dict) -> dict:
    """One untraced and one traced pass over the same inputs.

    Returns the per-layer metrics of the traced pass, the ops of both
    passes, and the tracer (for its spans and the cross-check).
    """
    tracer = Tracer()
    if workload == "service-mixed":
        requests = stream.writer_stream(seed)[:TRACE_WALKS
                                               * len(stream.KINDS)]
        plain, plain_wall = service_episode(out_dir, "plain", requests,
                                            seed, ref)
        records, wall = service_episode(out_dir, "traced", requests, seed,
                                        ref, tracer)
        waits = [r["latency"] - r["elapsed"] for r in records
                 if r["latency"] is not None and r["elapsed"] is not None]
        lock_wait = statistics.fmean(waits) if waits else 0.0
        snapshot = {}
        ops = plain + records
    else:
        setup(workload)
        t0 = time.perf_counter()
        plain = pass_ops(workload, random.Random(seed), ref)
        plain_wall = time.perf_counter() - t0
        check_ops(plain)
        obs_metrics.reset()
        obs_metrics.enable()
        patch_layers(tracer)
        t0 = time.perf_counter()
        try:
            ops = pass_ops(workload, random.Random(seed), ref)
        finally:
            wall = time.perf_counter() - t0
            tracer.restore()
            obs_metrics.disable()
        snapshot = obs_metrics.snapshot()
        lock_wait = 0.0
        ops = plain + check_ops(ops)
    metrics = layer_metrics(tracer, wall_s=wall, overhead_s=wall - plain_wall,
                            obs_snapshot=snapshot, lock_wait_s=lock_wait)
    return {"metrics": metrics, "ops": ops, "tracer": tracer,
            "untraced_wall_s": plain_wall, "traced_wall_s": wall}
