"""Shared state of the staged fixed-point solve.

The legacy driver threaded ``(spaces, processes, solutions, saturated)``
tuples through each iteration and rebuilt everything else from scratch.
The pipeline instead keeps one :class:`ClassArtifacts` per job class —
the QBD, its solution and the reusable assembly/extraction
workspaces — plus a solved-artifact cache and per-stage wall-clock
accounting, all bundled in a :class:`SolveContext` created once per
fixed-point run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.core.statespace import ClassStateSpace
from repro.obs.trace import StageTimings
from repro.phasetype import PhaseType
from repro.pipeline.assembly import AssemblyWorkspace
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.extract import ExtractionWorkspace
from repro.policy import ClassCycleView, resolve_policy
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess

# ``StageTimings`` moved to :mod:`repro.obs.trace` with the
# observability layer (the pipeline stages now feed it through obs
# spans); re-exported here for compatibility.
__all__ = ["ClassArtifacts", "SolveContext", "StageTimings"]


@dataclass
class ClassArtifacts:
    """Everything the pipeline knows about one job class.

    The workspaces survive vacation updates and saturation episodes;
    only a change in the distributions they were built from rebuilds
    them.
    """

    index: int
    assembly: AssemblyWorkspace | None = None
    extraction: ExtractionWorkspace = field(default_factory=ExtractionWorkspace)
    space: ClassStateSpace | None = None
    process: QBDProcess | None = None
    vacation: PhaseType | None = None
    solution: QBDStationaryDistribution | None = None
    saturated: bool = False


@dataclass
class SolveContext:
    """One fixed-point run's worth of shared pipeline state."""

    config: SystemConfig
    opts: "FixedPointOptions"  # noqa: F821 - import cycle; typing only
    classes: list[ClassArtifacts]
    cache: ArtifactCache
    #: Per-class cycle views granted by the scheduling policy; every
    #: stage consumes these instead of the raw config (for the default
    #: round-robin they alias the config's own distributions).
    views: tuple[ClassCycleView, ...] = ()
    timings: StageTimings = field(default_factory=StageTimings)

    @classmethod
    def create(cls, config: SystemConfig, opts,
               cache: ArtifactCache | None = None) -> "SolveContext":
        """Build a fresh context (one per ``run_fixed_point`` call).

        ``cache`` lets a caller — e.g. a model solving several related
        systems — share solved artifacts across runs; by default each
        run gets its own.
        """
        if cache is None:
            cache = getattr(opts, "cache", None)
        if cache is None:  # NB: an empty ArtifactCache is falsy
            cache = ArtifactCache()
        policy = resolve_policy(getattr(opts, "policy", None))
        return cls(config=config, opts=opts,
                   classes=[ClassArtifacts(index=p)
                            for p in range(config.num_classes)],
                   cache=cache,
                   views=policy.views(config))
