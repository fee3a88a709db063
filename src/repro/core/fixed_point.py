"""The fixed-point iteration of Section 4.3.

One iteration:

1. For each class ``p``, build the QBD with the current vacation
   distribution ``F_p`` and solve it (Theorem 4.2 machinery).
2. From each solved chain, extract the effective-quantum distribution
   (Theorem 4.3), optionally compressing it by moment matching.
3. Reassemble every ``F_p`` from the other classes' effective quanta
   and repeat until the per-class mean job counts stop moving.

The per-class work runs through the staged pipeline of
:mod:`repro.pipeline`: one :class:`~repro.pipeline.context.SolveContext`
per run carries reusable assembly/extraction workspaces, a
content-keyed cache of solved chains, and per-stage wall-clock
timings.  ``FixedPointOptions(reuse_artifacts=False)`` routes every
stage through the reference implementations instead.

Initialization and saturation handling
--------------------------------------
The natural initialization is the heavy-traffic vacation of
Theorem 4.1 (every class exhausts its quantum) — an upper bound on
vacation lengths, from which the iteration descends monotonically.
Two refinements make the driver robust across the whole parameter
space of the paper's figures:

* **Optimistic bootstrap.**  The heavy-traffic vacations can fail the
  Theorem 4.4 drift test even when the true fixed point is stable
  (e.g. one class is granted most of the cycle, making the raw
  vacations of the others too long).  The driver then restarts from
  near-zero effective quanta and approaches the fixed point from
  below.
* **Partial (per-class) saturation.**  A class can be *genuinely*
  saturated — its share of the cycle cannot carry its load no matter
  how much the other classes shrink.  Such a class never empties, so
  its effective quantum is exactly its full quantum; the driver pins
  it there, reports ``inf`` mean jobs for it, and keeps solving the
  others (this is how the paper's Figure 5 can plot the focus class
  at cycle fractions that starve the rest).  Only when *every* class
  is saturated does the driver raise
  :class:`~repro.errors.UnstableSystemError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SystemConfig
from repro.core.statespace import ClassStateSpace
from repro.core.vacation import (
    fixed_point_vacation,
    heavy_traffic_vacation,
)
from repro.errors import UnstableSystemError
from repro.obs import metrics
from repro.obs.trace import span
from repro.phasetype import PhaseType
from repro.pipeline import stages
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.context import SolveContext
from repro.policy import SchedulingPolicy, resolve_policy
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess
from repro.resilience.fallback import DEFAULT_POLICY, ResiliencePolicy

__all__ = ["FixedPointOptions", "FixedPointResult", "IterationRecord",
           "run_fixed_point"]


@dataclass(frozen=True)
class FixedPointOptions:
    """Tuning knobs of the fixed-point solver.

    Attributes
    ----------
    max_iterations:
        Iteration budget; the heavy-traffic solve counts as iteration 0.
    tol:
        Convergence threshold on the relative change of every stable
        class's mean job count between iterations.
    reduction:
        Effective-quantum order reduction (see
        :data:`repro.core.vacation.REDUCTIONS`).
    rmatrix_method:
        ``R``-matrix algorithm passed through to the QBD solver.
    truncation_mass:
        Tail mass allowed beyond the truncation level when extracting
        effective quanta.
    max_truncation_levels:
        Hard cap on the truncation level.
    heavy_traffic_only:
        Stop after the heavy-traffic solve (Theorem 4.1 model); no
        bootstrap or saturation handling is applied.
    allow_optimistic_bootstrap:
        Restart from near-zero effective quanta when the heavy-traffic
        initialization is unstable.
    """

    max_iterations: int = 200
    tol: float = 1e-5
    reduction: str = "moments2"
    rmatrix_method: str = "logreduction"
    #: Fallback/retry policy for every per-class QBD solve (see
    #: :mod:`repro.resilience.fallback`); ``None`` disables fallback,
    #: restoring fail-fast single-method solves.
    resilience: ResiliencePolicy | None = DEFAULT_POLICY
    truncation_mass: float = 1e-9
    max_truncation_levels: int = 400
    heavy_traffic_only: bool = False
    allow_optimistic_bootstrap: bool = True
    #: Scheduling policy shaping the cycle (``None`` = the paper's
    #: round-robin).  The policy's per-class views feed every stage:
    #: capacity ``c_p``, effective service, quantum mass, and the
    #: vacation cycle order (see :mod:`repro.policy`).
    policy: SchedulingPolicy | None = None
    #: Aitken delta-squared extrapolation of the effective-quantum
    #: means.  The plain iteration converges linearly (ratio ~0.8 on
    #: the paper's configurations), so extrapolating the per-class mean
    #: sequences periodically cuts the iteration count several-fold;
    #: extrapolated iterates that turn out unstable or non-positive are
    #: simply discarded for that round.
    acceleration: str = "aitken"
    #: Use the Kronecker assembler and vectorized extractor with their
    #: per-class workspaces (:mod:`repro.pipeline`); ``False`` routes
    #: every stage through the reference implementations in
    #: :mod:`repro.core`.
    reuse_artifacts: bool = True
    #: Kernel backend for assembly and the QBD solves: ``"auto"``
    #: switches each block/solve between the dense and sparse kernels
    #: on a size-and-density threshold, ``"dense"``/``"sparse"`` force
    #: one side (see :mod:`repro.kernels`).
    backend: str = "auto"
    #: Optional shared artifact cache; ``None`` gives each run its own.
    cache: ArtifactCache | None = field(default=None, compare=False)


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics for one fixed-point iteration.

    ``mean_jobs`` holds ``inf`` for classes saturated at that iterate.
    """

    iteration: int
    mean_jobs: tuple[float, ...]
    vacation_means: tuple[float, ...]
    max_rel_change: float


@dataclass
class FixedPointResult:
    """Raw output of the fixed-point driver (one entry per class).

    ``solutions[p]`` is ``None`` — and ``saturated[p]`` is ``True`` —
    for a class that is unstable at the fixed point.
    """

    spaces: list[ClassStateSpace]
    processes: list[QBDProcess]
    solutions: list[QBDStationaryDistribution | None]
    vacations: list[PhaseType]
    saturated: list[bool] = field(default_factory=list)
    history: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    used_bootstrap: bool = False
    #: Wall-clock seconds per pipeline stage, accumulated over the run.
    timings: dict[str, float] = field(default_factory=dict)
    #: Hit/miss/eviction counters of the run's artifact cache
    #: (:meth:`repro.pipeline.cache.ArtifactCache.stats`).
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.history)


def _optimistic_quanta(views) -> dict[int, PhaseType]:
    """Near-zero effective quanta: the shortest plausible vacations.

    Scaled from the *policy's* quanta so the bootstrap respects
    whatever mass the policy granted each class.
    """
    return {v.index: v.quantum.rescaled(max(1e-6, 1e-3 * v.quantum.mean))
            for v in views}


def _aitken_target(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray,
                   tol: float) -> tuple[np.ndarray, bool]:
    """Aitken delta-squared extrapolation of a vector mean sequence.

    With ``x_{n+1} ~ x* + rho (x_n - x*)``, the extrapolation
    ``x* ~ x_n - (dx_n)^2 / (dx_n - dx_{n-1})`` lands near the fixed
    point in one step.  Returns ``(target, ok)``; ``ok`` is ``False``
    unless the window shows a clean linear-convergence signature:
    meaningful deltas whose componentwise ratios sit well inside
    ``(0, 1)``.  Near the fixed point (or on oscillation) Aitken
    overshoots and *slows* the plain iteration down, so such windows
    are rejected.
    """
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    safe = np.abs(denom) > 1e-14
    target = np.where(safe, x2 - d2 * d2 / np.where(safe, denom, 1.0), x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(d1) > 1e-12, d2 / d1, 0.5)
    meaningful = float(np.max(np.abs(d2) / np.maximum(x2, 1e-12)))
    ok = bool(np.all(target > 0) and np.all(np.isfinite(target))
              and np.all(target <= x2 * 1.5 + 1e-12)
              and np.all((ratio > 0.2) & (ratio < 0.95))
              and meaningful > 50 * tol)
    return target, ok


def run_fixed_point(config: SystemConfig,
                    opts: FixedPointOptions | None = None) -> FixedPointResult:
    """Run the Section 4.3 fixed-point iteration to convergence.

    Raises
    ------
    UnstableSystemError
        When every class is saturated (with ``heavy_traffic_only``,
        when any class fails the drift test — no recovery is attempted
        for the pure Theorem 4.1 model).
    """
    opts = opts or FixedPointOptions()
    pol = resolve_policy(opts.policy)
    with span("fixed_point", classes=config.num_classes, policy=pol.kind):
        return _run_fixed_point(config, opts)


def _run_fixed_point(config: SystemConfig,
                     opts: FixedPointOptions) -> FixedPointResult:
    L = config.num_classes
    pol = resolve_policy(opts.policy)
    ctx = SolveContext.create(config, opts)
    vacations = [heavy_traffic_vacation(config, p, policy=pol)
                 for p in range(L)]

    result = FixedPointResult(spaces=[], processes=[], solutions=[],
                              vacations=vacations)

    state = stages.solve_all(ctx, vacations)
    if opts.heavy_traffic_only and any(state[3]):
        bad = [p for p, s in enumerate(state[3]) if s]
        raise UnstableSystemError(
            f"heavy-traffic model unstable for class(es) {bad} "
            f"({', '.join(config.class_names[p] for p in bad)})")
    if any(state[3]) and opts.allow_optimistic_bootstrap \
            and not opts.heavy_traffic_only:
        # Heavy-traffic init failed for someone: approach from below.
        result.used_bootstrap = True
        eff0 = _optimistic_quanta(ctx.views)
        vacations = [fixed_point_vacation(config, p, eff0, policy=pol)
                     for p in range(L)]
        state = stages.solve_all(ctx, vacations)
    if all(state[3]):
        raise UnstableSystemError(
            "every class is saturated: the offered load exceeds the "
            "system's capacity under any vacation assignment")

    prev_means: np.ndarray | None = None
    prev_sat: list[bool] | None = None
    eff_means_history: list[np.ndarray] = []
    for it in range(max(1, opts.max_iterations)):
        spaces, processes, solutions, saturated = state
        means = np.array([
            sol.mean_level if sol is not None else np.inf
            for sol in solutions
        ])
        stable_idx = [p for p in range(L) if not saturated[p]]
        if prev_means is None or prev_sat != saturated:
            change = float("inf")
        elif stable_idx:
            diffs = [abs(means[p] - prev_means[p])
                     / max(1.0, abs(means[p])) for p in stable_idx]
            change = float(max(diffs))
        else:  # pragma: no cover - guarded by the all-saturated raise
            change = 0.0
        result.history.append(IterationRecord(
            iteration=it,
            mean_jobs=tuple(float(m) for m in means),
            vacation_means=tuple(v.mean for v in vacations),
            max_rel_change=change,
        ))
        result.spaces, result.processes = spaces, processes
        result.solutions, result.vacations = solutions, vacations
        result.saturated = saturated
        if opts.heavy_traffic_only:
            result.converged = True
            break
        if prev_means is not None and prev_sat == saturated \
                and change < opts.tol:
            result.converged = True
            break
        prev_means, prev_sat = means, saturated

        # Effective quanta: Theorem 4.3 for stable classes; a saturated
        # class never empties, so its effective quantum is its full
        # quantum (the heavy-traffic behaviour, exactly).
        eff: dict[int, PhaseType] = {}
        for p in range(L):
            if saturated[p]:
                eff[p] = ctx.views[p].quantum
            else:
                eff[p] = stages.extract_class(ctx, p)

        # Aitken delta-squared acceleration on the per-class effective-
        # quantum means, applied every third round from a window of
        # three consecutive mean vectors.
        eff_means_history.append(np.array([eff[p].mean for p in range(L)]))
        if opts.acceleration == "aitken" and len(eff_means_history) >= 3 \
                and it % 3 == 2 and not any(saturated):
            target, ok = _aitken_target(*eff_means_history[-3:], opts.tol)
            if ok:
                for p in range(L):
                    if eff[p].mean > 0 and target[p] != eff[p].mean:
                        eff[p] = PhaseType.from_trusted(
                            eff[p].alpha,
                            np.asarray(eff[p].S) * (eff[p].mean / target[p]))
                eff_means_history.clear()

        with span("stage.recombine", timings=ctx.timings, stage="recombine"):
            vacations = [fixed_point_vacation(config, p, eff, policy=pol)
                         for p in range(L)]
        state = stages.solve_all(ctx, vacations)
        if all(state[3]):
            raise UnstableSystemError(
                "every class became saturated during the fixed-point "
                "iteration: the system is over capacity")
    result.timings = ctx.timings.as_dict()
    result.cache_stats = ctx.cache.stats()
    metrics.inc("fixed_point.runs", converged=result.converged,
                bootstrap=result.used_bootstrap, policy=pol.kind)
    metrics.observe("fixed_point.iterations", result.iterations)
    return result
