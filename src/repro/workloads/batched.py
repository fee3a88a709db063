"""Lockstep batched sweep engine: many grid points, stacked BLAS.

:func:`repro.workloads.sweeps.sweep` solves grid points one at a time;
profiling shows the per-point cost is dominated by Python call
overhead around small dense BLAS calls — exactly the workload shape
that batching fixes.  This engine advances *all pending points of a
sweep chunk through the same fixed-point iteration simultaneously*:

* Each point keeps its own :class:`~repro.pipeline.context.SolveContext`
  and follows the exact control flow of
  :func:`repro.core.fixed_point._run_fixed_point` (bootstrap,
  per-class saturation, Aitken windows, identical convergence tests),
  so a batched point's trajectory is the serial trajectory.
* The per-class linear algebra of one lockstep iteration — drift
  tests, logarithmic reductions, dense boundary solves — is gathered
  across points, grouped by matrix shape, and dispatched as
  ``(njobs, m, m)`` stacked kernels (:mod:`repro.kernels.batched`).
  Points converge and drop out of the batch individually; any
  per-slice failure falls back to the serial resilience chain for just
  that point.

Chunks
------
Chunks are anchored to the *sorted unique grid*: chunk ``k`` covers
sorted values ``[k*batch, (k+1)*batch)``, and every pending point of a
chunk goes through one lockstep run.  Every point solves cold — no
point reads anything from another — and the stacked kernels are
composition independent, so a point's bytes do not depend on which
other points share its batch.  That is what makes a killed-and-resumed
batched sweep byte-identical to an uninterrupted one, and what lets the
service daemon shard a batched sweep without changing any point.
Journals written by older versions carry a ``cont`` field on chunk
heads; it is ignored.

Adaptive backend crossover
--------------------------
In ``backend="auto"`` mode on grids with at least three chunks, the
first two chunks act as probes: chunk 0's head solves alone with the
dense kernels, chunk 1's head alone with the sparse ones (tail points
stay on the static policy), and the heads' per-stage timings pick
a per-site winner (:func:`repro.kernels.adaptive.pick_winners`) that
is armed for every later chunk.  Probe timings ride on the heads'
journal records, so a resumed sweep re-derives the same winners; a
sidecar (:func:`repro.kernels.adaptive.store_calibration`) lets later
runs skip probing entirely.  On systems below the sparse kernels'
minimum operand size the winner cannot change any result — both
probes degrade to dense — so calibration is always safe to engage.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.fixed_point import (
    FixedPointResult,
    IterationRecord,
    _aitken_target,
    _optimistic_quanta,
)
from repro.core.model import GangSchedulingModel
from repro.core.vacation import fixed_point_vacation, heavy_traffic_vacation, reduce_order
from repro.errors import UnstableSystemError, ValidationError
from repro.kernels import adaptive, to_dense
from repro.kernels import batched as bk
from repro.kernels.backend import resolve_backend, select_backend
from repro.obs import metrics
from repro.obs.trace import span
from repro.phasetype import PhaseType
from repro.pipeline.assembly import build_class_qbd_fast
from repro.pipeline.context import SolveContext
from repro.pipeline.extract import _off_diag, extract_effective_quantum
from repro.policy import resolve_policy
from repro.kernels.sparse import row_sums, sub_dense
from repro.qbd.boundary import solve_boundary
from repro.qbd.rmatrix import solve_R
from repro.qbd.stability import DriftReport, drift
from repro.qbd.stationary import QBDStationaryDistribution
from repro.resilience.fallback import resilient_solve_R
from repro.resilience.faults import maybe_fault

__all__ = ["plan_chunks", "run_batched_pending"]


def plan_chunks(values, batch: int) -> list[list[float]]:
    """Anchored chunks of a grid.

    Chunks partition the *sorted unique* values into runs of ``batch``
    adjacent points.  The anchoring is positional, so the chunk layout
    of a grid never depends on which points are already solved — the
    invariant behind byte-identical resume and service sharding.
    """
    order = sorted({float(v) for v in values})
    batch = max(1, int(batch))
    return [order[i:i + batch] for i in range(0, len(order), batch)]


class _Task:
    """One grid point advancing through the lockstep iteration."""

    def __init__(self, value: float, config, model: GangSchedulingModel,
                 opts):
        self.value = value
        self.config = config
        self.model = model
        self.opts = opts
        self.ctx = SolveContext.create(config, opts)
        self.pol = resolve_policy(model.policy)
        self.vacations: list[PhaseType] = []
        self.result = FixedPointResult(spaces=[], processes=[], solutions=[],
                                       vacations=[])
        self.state = None
        self.prev_means = None
        self.prev_sat = None
        self.eff_hist: list[np.ndarray] = []
        self.error: BaseException | None = None
        self.finished = False

    @property
    def L(self) -> int:
        return self.config.num_classes

    @property
    def elapsed(self) -> float:
        """This point's own solve seconds: its shares of the batched
        stages plus its own reduce and recombine time."""
        return sum(self.ctx.timings.as_dict().values())

    def fail(self, exc: BaseException) -> None:
        self.error = exc
        self.finished = True

    def finish(self) -> None:
        self.finished = True


class _Job:
    """One (task, class) solve inside a lockstep iteration."""

    __slots__ = ("task", "p", "art", "report", "R", "sol", "sat", "done")

    def __init__(self, task: _Task, p: int):
        self.task = task
        self.p = p
        self.art = task.ctx.classes[p]
        self.report = None
        self.R = None
        self.sol = None
        self.sat = False
        self.done = False


def _live(tasks: list[_Task]) -> list[_Task]:
    return [t for t in tasks if not t.finished]


def _solve_all_batched(tasks: list[_Task]) -> None:
    """Batched mirror of :func:`repro.pipeline.stages.solve_all`.

    Assembles every (task, class) QBD, then runs drift, ``R`` and
    boundary solves grouped by shape as stacked kernels.  Per-class
    ``UnstableSystemError`` marks the class saturated (exactly the
    serial guard); any other per-task exception fails that task only.
    """
    tasks = _live(tasks)
    if not tasks:
        return
    jobs: list[_Job] = []
    t0 = time.perf_counter()
    for t in tasks:
        try:
            for p in range(t.L):
                view = t.ctx.views[p]
                art = t.ctx.classes[p]
                process, space, art.assembly = build_class_qbd_fast(
                    view.partitions, view.arrival, view.service,
                    view.quantum, t.vacations[p],
                    policy=t.config.empty_queue_policy,
                    workspace=art.assembly,
                    backend=getattr(t.opts, "backend", None),
                )
                art.process, art.space, art.vacation = (process, space,
                                                        t.vacations[p])
                jobs.append(_Job(t, p))
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            t.fail(exc)
    _charge(tasks, "assemble", time.perf_counter() - t0)
    jobs = [j for j in jobs if not j.task.finished]

    # Fault sites fire per (task, class) in deterministic order, with
    # the serial semantics: an UnstableSystemError saturates the class,
    # anything else fails the point.
    for j in jobs:
        if j.task.finished:
            continue
        try:
            maybe_fault("fixed_point.class_solve", key=j.p)
            maybe_fault("qbd.solve")
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
    jobs = [j for j in jobs if not j.task.finished and not j.done]

    _stage_stability(tasks, jobs)
    jobs = [j for j in jobs if not j.task.finished and not j.done]
    _stage_rsolve(tasks, jobs)
    jobs = [j for j in jobs if not j.task.finished and not j.done]
    _stage_boundary(tasks, jobs)

    for t in tasks:
        if t.finished:
            continue
        spaces, processes, solutions, saturated = [], [], [], []
        for p in range(t.L):
            art = t.ctx.classes[p]
            spaces.append(art.space)
            processes.append(art.process)
            solutions.append(art.solution)
            saturated.append(art.saturated)
        t.state = (spaces, processes, solutions, saturated)


def _saturate(j: _Job) -> None:
    j.sat = True
    j.done = True
    j.art.saturated = True
    j.art.solution = None


def _complete(j: _Job) -> None:
    j.art.saturated = False
    j.art.solution = j.sol
    j.done = True


def _charge(tasks: list[_Task], stage: str, seconds: float) -> None:
    """Split a batched stage's wall time across its live tasks."""
    live = _live(tasks)
    if not live:
        return
    share = seconds / len(live)
    for t in live:
        t.ctx.timings.add(stage, share)


def _dense_blocks(j: _Job):
    p = j.art.process
    return (to_dense(p.A0), to_dense(p.A1), to_dense(p.A2))


def _stage_stability(tasks: list[_Task], jobs: list[_Job]) -> None:
    t0 = time.perf_counter()
    groups: dict[int, list[_Job]] = {}
    for j in jobs:
        groups.setdefault(j.art.process.phase_dim, []).append(j)
    for group in groups.values():
        blocks = [_dense_blocks(j) for j in group]
        A0 = bk.stack_blocks([b[0] for b in blocks])
        A1 = bk.stack_blocks([b[1] for b in blocks])
        A2 = bk.stack_blocks([b[2] for b in blocks])
        up, down, y, ok = bk.batched_drift(A0, A1, A2)
        for i, j in enumerate(group):
            if not ok[i]:
                # Reducible chain (or numerical trouble): the serial
                # path owns the proper error.
                try:
                    j.report = drift(*blocks[i])
                except Exception as exc:  # noqa: BLE001 - per-task
                    j.task.fail(exc)
                    continue
            else:
                j.report = DriftReport(up=float(up[i]), down=float(down[i]),
                                       phase_stationary=y[i])
            if not j.report.stable:
                _saturate(j)
    _charge(tasks, "stability", time.perf_counter() - t0)


def _stage_rsolve(tasks: list[_Task], jobs: list[_Job]) -> None:
    """Logarithmic reductions are batched; other methods run serially.

    Jobs configured for ``logreduction`` (the default) run the stacked
    cold solve, which mirrors the serial recurrence step for step.
    Other methods, and slices the stacked kernel flags as failed, go
    through the serial solve with the job's resilience policy.
    """
    t0 = time.perf_counter()
    groups: dict[int, list[_Job]] = {}
    serial: list[_Job] = []
    for j in jobs:
        if j.task.opts.rmatrix_method == "logreduction":
            groups.setdefault(j.art.process.phase_dim, []).append(j)
        else:
            serial.append(j)
    for group in groups.values():
        blocks = [_dense_blocks(j) for j in group]
        A0 = bk.stack_blocks([b[0] for b in blocks])
        A1 = bk.stack_blocks([b[1] for b in blocks])
        A2 = bk.stack_blocks([b[2] for b in blocks])
        R, ok = bk.batched_solve_R(A0, A1, A2)
        n_ok = int(ok.sum())
        if n_ok:
            metrics.inc("rsolve.solves", n_ok, method="logreduction",
                        batched=True)
        for i, j in enumerate(group):
            if ok[i]:
                j.R = R[i]
            else:
                serial.append(j)
    for j in serial:
        try:
            opts = j.task.opts
            process = j.art.process
            if opts.resilience is None:
                j.R = solve_R(process.A0, process.A1, process.A2,
                              method=opts.rmatrix_method, tol=1e-12)
            else:
                j.R, _ = resilient_solve_R(
                    process.A0, process.A1, process.A2,
                    method=opts.rmatrix_method, tol=1e-12,
                    policy=opts.resilience)
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
    _charge(tasks, "rsolve", time.perf_counter() - t0)


def _stage_boundary(tasks: list[_Task], jobs: list[_Job]) -> None:
    t0 = time.perf_counter()
    groups: dict[tuple, list[_Job]] = {}
    serial: list[_Job] = []
    for j in jobs:
        if j.task.finished or j.done:
            continue
        process = j.art.process
        dims = tuple(process.boundary_dims())
        n = int(sum(dims))
        backend = getattr(j.task.opts, "backend", None)
        if process.boundary_levels >= 1 and \
                select_backend(backend, n, site="boundary") == "sparse":
            serial.append(j)  # block-tridiagonal kernel, per point
        else:
            groups.setdefault((dims, process.phase_dim), []).append(j)
    for (dims, d), group in groups.items():
        offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        N = int(offsets[-1])
        b = len(dims) - 1
        M = np.zeros((len(group), N, N))
        A2 = np.empty((len(group), d, d))
        R = np.empty((len(group), d, d))
        for i, j in enumerate(group):
            process = j.art.process
            for col in range(b + 1):
                cols = slice(offsets[col], offsets[col + 1])
                for row in (col - 1, col, col + 1):
                    if row < 0 or row > b:
                        continue
                    blk = process.boundary[row][col]
                    if blk is None:
                        continue
                    M[i, offsets[row]:offsets[row + 1], cols] += to_dense(blk)
            A2[i] = to_dense(process.A2)
            R[i] = j.R
        x, ok = bk.batched_boundary_solve(M, A2, R, offsets, b)
        n_ok = int(ok.sum())
        if n_ok:
            metrics.inc("boundary.solves", n_ok, path="batched-dense")
        for i, j in enumerate(group):
            if ok[i]:
                pi = [x[i, offsets[k]:offsets[k + 1]].copy()
                      for k in range(b + 1)]
                _finish_boundary(j, pi)
            else:
                serial.append(j)
    for j in serial:
        try:
            pi = solve_boundary(j.art.process, j.R,
                                backend=getattr(j.task.opts, "backend", None))
            _finish_boundary(j, pi)
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
    _charge(tasks, "boundary", time.perf_counter() - t0)


def _finish_boundary(j: _Job, pi) -> None:
    j.sol = QBDStationaryDistribution(boundary_pi=tuple(pi), R=j.R,
                                      drift_report=j.report,
                                      solve_report=None)
    _complete(j)


def _batched_extract(tasks: list[_Task]) -> dict:
    """Effective-quantum extraction for every live (task, class) job.

    Batched mirror of
    :func:`repro.pipeline.extract.extract_effective_quantum`: jobs are
    grouped by state space, the truncation tail-walk runs lockstep
    across the group, and within each truncation-depth subgroup the
    repeating-level band placement and the ``pi R^n`` entry-flow
    recurrence are stacked across jobs.  The boundary-level code is the
    serial code verbatim per job (it is a handful of levels).  Any
    group-level surprise falls back to the serial extractor per job;
    per-job failures fail only that task.

    Returns ``{(id(task), class): raw PhaseType}``.
    """
    t0 = time.perf_counter()
    raws: dict[tuple[int, int], PhaseType] = {}
    groups: dict = {}
    for t in tasks:
        saturated = t.state[3]
        for p in range(t.L):
            if not saturated[p]:
                art = t.ctx.classes[p]
                groups.setdefault(art.space, []).append((t, p, art))
    for space, group in groups.items():
        try:
            _extract_group(space, group, raws)
        except Exception:  # noqa: BLE001 - serial path owns the error
            for t, p, art in group:
                if t.finished or (id(t), p) in raws:
                    continue
                try:
                    raws[(id(t), p)] = extract_effective_quantum(
                        art.space, art.process, art.solution, art.vacation,
                        truncation_mass=t.opts.truncation_mass,
                        max_levels=t.opts.max_truncation_levels,
                        workspace=art.extraction)
                except Exception as exc:  # noqa: BLE001 - per-task
                    t.fail(exc)
    _charge(tasks, "extract", time.perf_counter() - t0)
    return raws


def _extract_group(space, group: list, raws: dict) -> None:
    """Extract one space-group of jobs (see :func:`_batched_extract`)."""
    plan = group[0][2].extraction.plan(space)
    c = space.boundary_levels
    lvl_start = plan.lvl_start
    rep = plan.repeating
    rs = rep.svc
    nrep = len(rs)
    n = len(group)
    sols = [art.solution for _, _, art in group]

    Rs = np.stack([np.asarray(s.R, dtype=np.float64) for s in sols])
    d = Rs.shape[1]
    pib = np.stack([np.asarray(s.boundary_pi[s.boundary_levels],
                               dtype=np.float64) for s in sols])
    mass = np.array([t.opts.truncation_mass for t, _, _ in group])
    max_levels = np.array([t.opts.max_truncation_levels
                           for t, _, _ in group], dtype=np.intp)

    # Lockstep truncation tail-walk: every slice follows the serial
    # rule (tail(K) = pi_b R^{K-c+1} (I - R)^{-1} e) and freezes as its
    # own threshold is met.  The powers pi_b R^j generated along the
    # way are exactly the entry-flow vectors the repeating levels need,
    # so they are kept.
    w = np.linalg.solve(np.eye(d)[None] - Rs, np.ones((n, d, 1)))[..., 0]
    cur = np.matmul(pib[:, None, :], Rs)
    powers = [cur[:, 0, :]]                  # powers[j] = pi_b R^{j+1}
    cur = np.matmul(cur, Rs)
    powers.append(cur[:, 0, :])
    K = np.full(n, c + 1, dtype=np.intp)
    tail = np.einsum("nd,nd->n", powers[-1], w)
    done = ~((K < max_levels) & (tail > mass))
    while not done.all():
        # Speculative block of 8 steps: the powers are the same
        # sequential matmuls (bitwise), the tails are evaluated in one
        # stacked einsum, and the per-step freeze rule replays in order
        # below.  Powers past the stopping step are computed but never
        # used (downstream slices by depth, not by count).
        block = []
        for _ in range(8):
            cur = np.matmul(cur, Rs)
            block.append(cur[:, 0, :])
        tails = np.einsum("nbd,nd->nb", np.stack(block, axis=1), w)
        powers.extend(block)
        for s in range(8):
            K[~done] += 1
            done |= ~((K < max_levels) & (tails[:, s] > mass))
            if done.all():
                break
    P = np.stack(powers, axis=1) if rep.wait.size else None

    by_depth: dict[int, list[int]] = {}
    for i in range(n):
        by_depth.setdefault(int(K[i]), []).append(i)

    def indices(lvl: int):
        return rep if lvl > c else plan.boundary[lvl - lvl_start]

    for Kv, idxs in by_depth.items():
        ns = len(idxs)
        offsets: dict[int, int] = {}
        pos = 0
        for lvl in range(lvl_start, Kv + 1):
            offsets[lvl] = pos
            pos += len(indices(lvl).svc)
        order = pos
        if order == 0:
            raise ValidationError(
                "no service states found; is m_quantum zero?")
        nlev = Kv - c
        if nlev > 0 and (c < lvl_start
                         or offsets[c + 1] - nrep != offsets[c]):
            # The down band of level c+1 must land exactly on level c's
            # block; anything else is a layout the serial extractor
            # should handle (and error on) itself.
            raise RuntimeError("repeating layout mismatch")

        T = np.zeros((ns, order, order))
        absorb = np.zeros((ns, order))
        xi = np.zeros((ns, order))
        rep_local = np.empty((ns, nrep, nrep))
        rep_up = np.empty((ns, nrep, nrep))
        rep_down = np.empty((ns, nrep, nrep))
        labs = np.zeros((ns, nrep))
        dabs = np.zeros((ns, nrep))
        Wm = np.empty((ns, rep.wait.size, nrep))

        # Boundary levels: the serial per-level slice adds, but each
        # level's blocks are stacked across the subgroup so one fancy
        # gather (pure element copies — bitwise) replaces the per-job
        # ``sub_dense`` calls.  A level whose blocks are not all dense
        # falls back to the per-job serial gathers for that level.
        procs = [group[gi][2].process for gi in idxs]
        for lvl in range(lvl_start, c + 1):
            idx = indices(lvl)
            rows = idx.svc
            nr = len(rows)
            base = offsets[lvl]
            blocks = [pr.block(lvl, lvl) for pr in procs]
            dense = all(isinstance(b, np.ndarray) for b in blocks)
            loc = np.stack(blocks) if dense else None
            if dense:
                sub = loc[:, rows[:, None], rows[None, :]]
                sub[:, np.arange(nr), np.arange(nr)] = 0.0
                T[:, base:base + nr, base:base + nr] += sub
                if idx.wait.size:
                    absorb[:, base:base + nr] += \
                        loc[:, rows[:, None], idx.wait[None, :]].sum(axis=2)
            else:
                for si, b in enumerate(blocks):
                    T[si, base:base + nr, base:base + nr] += \
                        _off_diag(sub_dense(b, rows, rows))
                    if idx.wait.size:
                        absorb[si, base:base + nr] += \
                            sub_dense(b, rows, idx.wait).sum(axis=1)
            if lvl < Kv and lvl < c + 1:
                up_rows = indices(lvl + 1).svc
                o1 = offsets[lvl + 1]
                ubs = [pr.block(lvl, lvl + 1) for pr in procs]
                if all(isinstance(b, np.ndarray) for b in ubs):
                    T[:, base:base + nr, o1:o1 + len(up_rows)] += \
                        np.stack(ubs)[:, rows[:, None], up_rows[None, :]]
                else:
                    for si, b in enumerate(ubs):
                        T[si, base:base + nr, o1:o1 + len(up_rows)] += \
                            sub_dense(b, rows, up_rows)
            if lvl > lvl_start:
                dn = indices(lvl - 1)
                o0 = offsets[lvl - 1]
                dbs = [pr.block(lvl, lvl - 1) for pr in procs]
                if all(isinstance(b, np.ndarray) for b in dbs):
                    dstack = np.stack(dbs)
                    T[:, base:base + nr, o0:o0 + len(dn.svc)] += \
                        dstack[:, rows[:, None], dn.svc[None, :]]
                    if dn.wait.size:
                        absorb[:, base:base + nr] += \
                            dstack[:, rows[:, None], dn.wait[None, :]].sum(axis=2)
                else:
                    for si, b in enumerate(dbs):
                        T[si, base:base + nr, o0:o0 + len(dn.svc)] += \
                            sub_dense(b, rows, dn.svc)
                        if dn.wait.size:
                            absorb[si, base:base + nr] += \
                                sub_dense(b, rows, dn.wait).sum(axis=1)
            elif lvl == 1 and lvl_start == 1:
                dbs = [pr.block(1, 0) for pr in procs]
                if all(isinstance(b, np.ndarray) for b in dbs):
                    absorb[:, base:base + nr] += \
                        np.stack(dbs).sum(axis=2)[:, rows]
                else:
                    for si, b in enumerate(dbs):
                        absorb[si, base:base + nr] += row_sums(b)[rows]
            if idx.wait.size:
                pis = np.stack([sols[gi].level(lvl) for gi in idxs])
                if dense:
                    wsub = loc[:, idx.wait[:, None], idx.svc[None, :]]
                else:
                    wsub = np.stack([sub_dense(b, idx.wait, idx.svc)
                                     for b in blocks])
                flow = np.matmul(pis[:, None, idx.wait], wsub)[:, 0, :]
                xi[:, offsets[lvl]:offsets[lvl] + len(idx.svc)] += flow

        if nlev > 0:
            for si, gi in enumerate(idxs):
                process = group[gi][2].process
                A0, A1, A2 = process.A0, process.A1, process.A2
                rep_local[si] = _off_diag(A1[np.ix_(rs, rs)])
                rep_up[si] = A0[np.ix_(rs, rs)]
                rep_down[si] = A2[np.ix_(rs, rs)]
                if rep.wait.size:
                    labs[si] = A1[np.ix_(rs, rep.wait)].sum(axis=1)
                    dabs[si] = A2[np.ix_(rs, rep.wait)].sum(axis=1)
                    Wm[si] = A1[np.ix_(rep.wait, rs)]

        if nlev > 0:
            # Repeating levels: the three bands are diagonal block
            # runs, so a strided view places all K - c levels of every
            # job with three block copies (values identical to the
            # serial per-level slice adds — each location is written
            # exactly once onto zeros).
            off0 = offsets[c + 1]
            s0, s1, s2 = T.strides
            lstep = (order + 1) * nrep * s2
            dview = np.lib.stride_tricks.as_strided(
                T[:, off0:, off0:], shape=(ns, nlev, nrep, nrep),
                strides=(s0, lstep, s1, s2))
            dview += rep_local[:, None]
            if nlev > 1:
                uview = np.lib.stride_tricks.as_strided(
                    T[:, off0:, off0 + nrep:],
                    shape=(ns, nlev - 1, nrep, nrep),
                    strides=(s0, lstep, s1, s2))
                uview += rep_up[:, None]
            dnview = np.lib.stride_tricks.as_strided(
                T[:, off0:, off0 - nrep:], shape=(ns, nlev, nrep, nrep),
                strides=(s0, lstep, s1, s2))
            dnview += rep_down[:, None]
            absorb[:, off0:off0 + nlev * nrep] += np.tile(labs + dabs,
                                                          (1, nlev))

        diag = np.arange(order)
        T[:, diag, diag] = 0.0
        T[:, diag, diag] = -(T.sum(axis=2) + absorb)

        if nlev > 0 and rep.wait.size:
            # Entry flows of the repeating levels: levels c+1..K need
            # pi_b R^1 .. R^{nlev} restricted to waiting phases — the
            # collected powers, pushed through one stacked matmul.
            flows = np.matmul(P[idxs][:, :nlev][:, :, rep.wait], Wm)
            xi[:, off0:off0 + nlev * nrep] += flows.reshape(
                ns, nlev * nrep)

        for si, gi in enumerate(idxs):
            t, p, art = group[gi]
            atom_flow = 0.0
            if lvl_start == 1:
                pi0 = sols[gi].level(0)
                v0 = art.vacation.exit_rates
                atom_flow = float(
                    (pi0.reshape(-1, space.m_vacation) @ v0).sum())
            total = xi[si].sum() + atom_flow
            if total <= 0:
                t.fail(ValidationError(
                    "no probability flow into quantum starts; the chain "
                    "never serves"))
                continue
            raws[(id(t), p)] = PhaseType.from_trusted(xi[si] / total, T[si])


def _iteration_top(t: _Task, it: int) -> None:
    """Convergence bookkeeping: the head of the serial iteration body."""
    spaces, processes, solutions, saturated = t.state
    L = t.L
    means = np.array([sol.mean_level if sol is not None else np.inf
                      for sol in solutions])
    stable_idx = [p for p in range(L) if not saturated[p]]
    if t.prev_means is None or t.prev_sat != saturated:
        change = float("inf")
    elif stable_idx:
        diffs = [abs(means[p] - t.prev_means[p]) / max(1.0, abs(means[p]))
                 for p in stable_idx]
        change = float(max(diffs))
    else:  # pragma: no cover - guarded by the all-saturated failure
        change = 0.0
    t.result.history.append(IterationRecord(
        iteration=it,
        mean_jobs=tuple(float(m) for m in means),
        vacation_means=tuple(v.mean for v in t.vacations),
        max_rel_change=change,
    ))
    t.result.spaces, t.result.processes = spaces, processes
    t.result.solutions, t.result.vacations = solutions, t.vacations
    t.result.saturated = saturated
    if t.opts.heavy_traffic_only:
        t.result.converged = True
        t.finish()
    elif t.prev_means is not None and t.prev_sat == saturated \
            and change < t.opts.tol:
        t.result.converged = True
        t.finish()
    else:
        t.prev_means, t.prev_sat = means, saturated


def _iteration_bottom(t: _Task, it: int, raws: dict) -> None:
    """Effective quanta, Aitken, recombination: the iteration's tail."""
    saturated = t.state[3]
    L = t.L
    eff: dict[int, PhaseType] = {}
    for p in range(L):
        if saturated[p]:
            eff[p] = t.ctx.views[p].quantum
        else:
            t0r = time.perf_counter()
            eff[p] = reduce_order(raws[(id(t), p)], t.opts.reduction,
                                  backend=getattr(t.opts, "backend", None))
            t.ctx.timings.add("reduce", time.perf_counter() - t0r)
    t.eff_hist.append(np.array([eff[p].mean for p in range(L)]))
    if t.opts.acceleration == "aitken" and len(t.eff_hist) >= 3 \
            and it % 3 == 2 and not any(saturated):
        target, ok = _aitken_target(*t.eff_hist[-3:], t.opts.tol)
        if ok:
            for p in range(L):
                if eff[p].mean > 0 and target[p] != eff[p].mean:
                    eff[p] = PhaseType.from_trusted(
                        eff[p].alpha,
                        np.asarray(eff[p].S) * (eff[p].mean / target[p]))
            t.eff_hist.clear()
    t0 = time.perf_counter()
    t.vacations = [fixed_point_vacation(t.config, p, eff, policy=t.pol)
                   for p in range(L)]
    t.ctx.timings.add("recombine", time.perf_counter() - t0)


def _solve_tasks(tasks: list[_Task]) -> None:
    """Run a set of points through the lockstep fixed-point iteration.

    Control flow is :func:`repro.core.fixed_point._run_fixed_point`
    applied to every task simultaneously; a finished (converged or
    failed) task drops out of the lockstep while the rest continue.
    """
    for t in tasks:
        try:
            t.vacations = [heavy_traffic_vacation(t.config, p, policy=t.pol)
                           for p in range(t.L)]
            t.result.vacations = t.vacations
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            t.fail(exc)
    _solve_all_batched(tasks)

    bootstrap: list[_Task] = []
    for t in _live(tasks):
        saturated = t.state[3]
        if t.opts.heavy_traffic_only and any(saturated):
            bad = [p for p, s in enumerate(saturated) if s]
            t.fail(UnstableSystemError(
                f"heavy-traffic model unstable for class(es) {bad} "
                f"({', '.join(t.config.class_names[p] for p in bad)})"))
            continue
        if any(saturated) and t.opts.allow_optimistic_bootstrap \
                and not t.opts.heavy_traffic_only:
            t.result.used_bootstrap = True
            eff0 = _optimistic_quanta(t.ctx.views)
            t.vacations = [fixed_point_vacation(t.config, p, eff0,
                                                policy=t.pol)
                           for p in range(t.L)]
            bootstrap.append(t)
    _solve_all_batched(bootstrap)
    for t in _live(tasks):
        if all(t.state[3]):
            t.fail(UnstableSystemError(
                "every class is saturated: the offered load exceeds the "
                "system's capacity under any vacation assignment"))

    max_iterations = max((max(1, t.opts.max_iterations)
                          for t in _live(tasks)), default=0)
    for it in range(max_iterations):
        live = [t for t in _live(tasks) if it < max(1, t.opts.max_iterations)]
        if not live:
            break
        for t in live:
            _iteration_top(t, it)
        live = _live(live)
        if not live:
            break
        raws = _batched_extract(live)
        for t in _live(live):
            try:
                _iteration_bottom(t, it, raws)
            except Exception as exc:  # noqa: BLE001 - per-task isolation
                t.fail(exc)
        _solve_all_batched(live)
        for t in _live(live):
            if all(t.state[3]):
                t.fail(UnstableSystemError(
                    "every class became saturated during the fixed-point "
                    "iteration: the system is over capacity"))
    for t in tasks:
        if not t.finished:  # iteration budget exhausted: not converged
            t.finish()
        if t.error is None:
            t.result.timings = t.ctx.timings.as_dict()
            t.result.cache_stats = t.ctx.cache.stats()
            metrics.inc("fixed_point.runs", converged=t.result.converged,
                        bootstrap=t.result.used_bootstrap, policy=t.pol.kind)
            metrics.observe("fixed_point.iterations", t.result.iterations)


def _shape_signature(config, pol) -> dict:
    views = pol.views(config)
    return {"P": int(config.processors),
            "classes": [[int(v.partitions), int(v.arrival.order),
                         int(v.service.order), int(v.quantum.order)]
                        for v in views]}


class _Calibration:
    """Probe / sidecar bookkeeping for one batched sweep."""

    def __init__(self, mode: str, chunks: list[list[float]],
                 done_records: dict):
        self.engaged = mode == "auto" and len(chunks) >= 3
        self.probe_values = ([chunks[0][0], chunks[1][0]]
                             if self.engaged else [])
        self.timings: dict[str, dict] = {}   # backend -> stage seconds
        self.decisions: dict[str, str] = {}
        self.from_sidecar = False
        self.key: str | None = None
        if not self.engaged:
            return
        journaled = False
        for v, forced in zip(self.probe_values, ("dense", "sparse")):
            rec = done_records.get(v) or {}
            probe = rec.get("probe")
            if probe and probe.get("backend") == forced:
                self.timings[forced] = dict(probe.get("stage_seconds") or {})
                journaled = True
        self.journal_has_probes = journaled

    def prepare(self, config, pol) -> None:
        """Consult the sidecar (journal probe data outranks it)."""
        if not self.engaged:
            return
        self.key = adaptive.calibration_key(_shape_signature(config, pol))
        if not self.journal_has_probes:
            stored = adaptive.load_calibration(self.key)
            if stored is not None:
                self.decisions = stored
                self.from_sidecar = True

    def forced_backend(self, chunk_index: int) -> str | None:
        """Probe chunks pin their head's backend; others run armed."""
        if not self.engaged or self.from_sidecar:
            return None
        return ("dense", "sparse")[chunk_index] if chunk_index < 2 else None

    def record_probe(self, chunk_index: int, stage_seconds: dict) -> dict:
        forced = ("dense", "sparse")[chunk_index]
        self.timings[forced] = dict(stage_seconds)
        return {"backend": forced, "stage_seconds": dict(stage_seconds)}

    def resolve(self) -> dict[str, str]:
        """Winners for chunks past the probes (may be empty)."""
        if not self.engaged or self.from_sidecar:
            return self.decisions
        if not self.decisions and "dense" in self.timings \
                and "sparse" in self.timings:
            self.decisions = adaptive.pick_winners(self.timings["dense"],
                                                   self.timings["sparse"])
            if self.decisions and self.key is not None:
                adaptive.store_calibration(self.key, self.decisions,
                                           self.timings)
        return self.decisions


def run_batched_pending(*, grid, pending, batch: int,
                        heavy_traffic_only: bool,
                        model_kwargs: dict | None,
                        solve_kwargs: dict | None,
                        skip_errors: bool,
                        finish, done_records: dict) -> None:
    """Solve a sweep's pending points through the batched engine.

    Parameters mirror the serial loop of
    :func:`repro.workloads.sweeps.sweep`; ``finish(slot, point, extra)``
    journals a completed point (``extra`` carries probe timings on
    probe-chunk head records) and ``done_records`` maps
    already-journaled values to their raw records (the source of probe
    timings on resume).
    """
    from repro.workloads.sweeps import SweepPoint, _error_point

    model_kwargs = dict(model_kwargs or {})
    solve_kwargs = dict(solve_kwargs or {})
    max_iterations = int(solve_kwargs.get("max_iterations", 200))
    tol = float(solve_kwargs.get("tol", 1e-5))

    by_value: dict[float, list[tuple[int, object]]] = {}
    for slot, v, config in pending:
        by_value.setdefault(float(v), []).append((slot, config))

    chunks = plan_chunks(grid, batch)
    mode = resolve_backend(model_kwargs.get("backend") or "auto")
    calib = _Calibration(mode, chunks, done_records)

    def make_task(v: float, forced: str | None = None) -> _Task:
        kwargs = dict(model_kwargs)
        if forced is not None:
            kwargs["backend"] = forced
        config = by_value[v][0][1]
        model = GangSchedulingModel(config, **kwargs)
        opts = model._options(max_iterations, tol, heavy_traffic_only)
        return _Task(v, config, model, opts)

    def emit(t: _Task, extra: dict | None) -> BaseException | None:
        """Turn a finished task into points for all its slots."""
        slots = by_value[t.value]
        if t.error is not None:
            if not skip_errors:
                return t.error
            point = dataclasses.replace(
                _error_point(t.value, t.config.class_names, t.error),
                solve_seconds=t.elapsed)
        else:
            solved = t.model._package(t.result)
            point = SweepPoint(
                value=t.value,
                mean_jobs=tuple(c.mean_jobs for c in solved.classes),
                mean_response_time=tuple(c.mean_response_time
                                         for c in solved.classes),
                iterations=solved.iterations,
                converged=solved.converged,
                solve_seconds=t.elapsed,
            )
        metrics.observe("sweep.point.seconds", t.elapsed)
        for slot, _ in slots:
            finish(slot, point, extra)
            extra = None  # journal head payloads once, not per duplicate
        return None

    abort: BaseException | None = None
    first_config = pending[0][2]
    probe_model = GangSchedulingModel(first_config, **model_kwargs)
    calib.prepare(first_config, resolve_policy(probe_model.policy))

    for ci, chunk in enumerate(chunks):
        todo = [v for v in chunk if v in by_value
                and done_records.get(v) is None]
        if not todo:
            continue
        forced = calib.forced_backend(ci)
        decisions = calib.resolve() if forced is None else {}

        # Fire the sweep-level fault site for every value about to be
        # solved, in ascending order (the serial driver's ordering).
        solvable = []
        for v in todo:
            try:
                maybe_fault("sweeps.point", key=v)
            except Exception as exc:  # noqa: BLE001 - per point
                if not skip_errors:
                    raise
                point = _error_point(v, by_value[v][0][1].class_names, exc)
                for slot, _ in by_value[v]:
                    finish(slot, point, None)
                continue
            solvable.append(v)
        if not solvable:
            continue

        head_v = chunk[0]
        with adaptive.calibrated(decisions or None), \
                span("sweep.chunk", index=ci, size=len(solvable)):
            if forced is not None and head_v in solvable:
                # A probe chunk's head solves alone on the forced
                # backend: its stage timings feed the calibration.  The
                # tail stays on the static policy, keeping its numbers
                # on the serial path's backend choices.
                head = make_task(head_v, forced)
                _solve_tasks([head])
                probe = calib.record_probe(ci, head.ctx.timings.as_dict())
                abort = emit(head, {"probe": probe})
                if abort is not None:
                    break
                solvable.remove(head_v)
            tasks = [make_task(v) for v in solvable]
            if tasks:
                _solve_tasks(tasks)
                for t in tasks:
                    abort = abort or emit(t, None)
        if abort is not None:
            break
    if abort is not None:
        raise abort
