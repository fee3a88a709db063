"""The staged per-class solve: assemble -> stability -> R -> boundary -> extract.

Each stage reads and writes the :class:`~repro.pipeline.context.SolveContext`;
:func:`solve_all` strings them together with exactly the legacy
``_solve_all`` semantics (same fault-injection sites, same saturation
handling, same return shape) so the fixed-point driver stays a thin
loop over iterations.

The stages fold in the pipeline's two per-iteration wins:

* Kronecker assembly with a reused workspace
  (:func:`repro.pipeline.assembly.build_class_qbd_fast`);
* a content-keyed cache of full stationary solutions serving
  bit-identical re-solves (bootstrap restarts, repeated grid points).

Every ``R`` solve is a cold solve of the configured method.
``opts.reuse_artifacts=False`` routes assembly and extraction through
the reference implementations, reproducing the legacy solve path
exactly.

Every stage runs under an observability span (``stage.assemble``,
``stage.stability``, ``stage.rsolve``, ``stage.boundary``,
``stage.extract``, ``stage.reduce``; see :mod:`repro.obs`) tagged with
the class index.  The spans feed ``ctx.timings`` from the same clock
window they trace, so ``FixedPointResult.timings`` is a view over the
trace — and with tracing disabled they degrade to the bare wall-clock
accumulation.
"""

from __future__ import annotations

from repro.core.generator import build_class_qbd
from repro.core.vacation import effective_quantum, reduce_order
from repro.errors import UnstableSystemError
from repro.obs.trace import span
from repro.phasetype import PhaseType
from repro.pipeline.assembly import build_class_qbd_fast
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.context import SolveContext
from repro.pipeline.extract import extract_effective_quantum
from repro.qbd.boundary import solve_boundary
from repro.qbd.rmatrix import solve_R
from repro.qbd.stability import drift
from repro.qbd.stationary import QBDStationaryDistribution
from repro.resilience.fallback import resilient_solve_R
from repro.resilience.faults import maybe_fault

__all__ = ["assemble_class", "solve_class", "extract_class", "solve_all"]

#: Tolerance of the per-class ``R`` solves (the ``solve_qbd`` default).
_R_TOL = 1e-12


def assemble_class(ctx: SolveContext, p: int, vacation: PhaseType) -> None:
    """Build class ``p``'s QBD for the current vacation.

    Capacity ``c_p`` and the arrival/service/quantum distributions come
    from the scheduling policy's cycle view, not the raw config — the
    generator builds whatever cycle the policy granted.
    """
    view = ctx.views[p]
    art = ctx.classes[p]
    with span("stage.assemble", timings=ctx.timings, stage="assemble",
              klass=p):
        if getattr(ctx.opts, "reuse_artifacts", True):
            process, space, art.assembly = build_class_qbd_fast(
                view.partitions, view.arrival, view.service,
                view.quantum, vacation, policy=ctx.config.empty_queue_policy,
                workspace=art.assembly,
                backend=getattr(ctx.opts, "backend", None),
            )
        else:
            process, space = build_class_qbd(
                view.partitions, view.arrival, view.service,
                view.quantum, vacation, policy=ctx.config.empty_queue_policy,
            )
    art.process, art.space, art.vacation = process, space, vacation


def solve_class(ctx: SolveContext, p: int) -> QBDStationaryDistribution:
    """Stability test, ``R`` solve and boundary solve for class ``p``.

    Semantically :func:`repro.qbd.stationary.solve_qbd` (same fault
    site, same instability message, same resilience plumbing) with the
    stages timed separately and the solve served from ``ctx.cache``
    when the blocks are bit-identical to an earlier one.
    """
    opts = ctx.opts
    art = ctx.classes[p]
    process = art.process
    maybe_fault("qbd.solve")
    with span("stage.stability", timings=ctx.timings, stage="stability",
              klass=p):
        report = drift(process.A0, process.A1, process.A2)
    if not report.stable:
        raise UnstableSystemError(
            f"QBD is not positive recurrent: mean up-rate {report.up:.6g} >= "
            f"mean down-rate {report.down:.6g} "
            f"(rho={report.traffic_intensity:.4g})",
            drift=report.drift,
        )
    backend = getattr(opts, "backend", None)
    key = ArtifactCache.key(process, method=opts.rmatrix_method, tol=_R_TOL,
                            policy=opts.resilience, backend=backend)
    cached = ctx.cache.get(key)
    if cached is not None:
        art.solution = cached
        return cached
    with span("stage.rsolve", timings=ctx.timings, stage="rsolve",
              klass=p):
        if opts.resilience is None:
            R = solve_R(process.A0, process.A1, process.A2,
                        method=opts.rmatrix_method, tol=_R_TOL)
            solve_report = None
        else:
            R, solve_report = resilient_solve_R(
                process.A0, process.A1, process.A2,
                method=opts.rmatrix_method, tol=_R_TOL,
                policy=opts.resilience)
    with span("stage.boundary", timings=ctx.timings, stage="boundary",
              klass=p):
        pi = solve_boundary(process, R, backend=backend)
    sol = QBDStationaryDistribution(boundary_pi=tuple(pi), R=R,
                                    drift_report=report,
                                    solve_report=solve_report)
    ctx.cache.put(key, sol)
    art.solution = sol
    return sol


def extract_class(ctx: SolveContext, p: int) -> PhaseType:
    """Effective quantum of (stable, solved) class ``p``, order-reduced."""
    opts = ctx.opts
    art = ctx.classes[p]
    with span("stage.extract", timings=ctx.timings, stage="extract",
              klass=p):
        if getattr(opts, "reuse_artifacts", True):
            raw = extract_effective_quantum(
                art.space, art.process, art.solution, art.vacation,
                truncation_mass=opts.truncation_mass,
                max_levels=opts.max_truncation_levels,
                workspace=art.extraction,
            )
        else:
            raw = effective_quantum(
                art.space, art.process, art.solution, art.vacation,
                truncation_mass=opts.truncation_mass,
                max_levels=opts.max_truncation_levels,
            )
    with span("stage.reduce", timings=ctx.timings, stage="reduce",
              klass=p):
        return reduce_order(raw, opts.reduction,
                            backend=getattr(opts, "backend", None))


def solve_all(ctx: SolveContext, vacations: list[PhaseType]):
    """Solve every class; saturated classes get ``None`` solutions.

    Drop-in for the legacy ``fixed_point._solve_all`` — same return
    shape, same ``fixed_point.class_solve`` fault site inside the
    saturation guard.
    """
    spaces, processes, solutions, saturated = [], [], [], []
    for p in range(ctx.config.num_classes):
        art = ctx.classes[p]
        assemble_class(ctx, p, vacations[p])
        try:
            maybe_fault("fixed_point.class_solve", key=p)
            sol = solve_class(ctx, p)
            sat = False
        except UnstableSystemError:
            sol = None
            sat = True
            art.solution = None
        art.saturated = sat
        spaces.append(art.space)
        processes.append(art.process)
        solutions.append(sol)
        saturated.append(sat)
    return spaces, processes, solutions, saturated
