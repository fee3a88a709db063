"""Adaptive dense/sparse crossover calibrated from measured timings.

The static size × density thresholds of :mod:`repro.kernels.backend`
encode one machine's crossover; ``BENCH_scaling.json`` shows they are
wrong below ``P ≈ 64`` on others (sparse "speedup" 0.2x at ``P = 8``).
The batched sweep engine (:mod:`repro.workloads.batched`) therefore
*measures* the crossover at runtime: the first two sweep chunks run
with the dense and sparse kernels respectively, their per-site stage
timings are compared, and every later point uses the winner.

This module holds the two pieces that outlive a single sweep:

* **Armed decisions.**  ``arm_decisions({"boundary": "dense", ...})``
  installs per-site winners that :func:`repro.kernels.select_backend`
  consults in ``auto`` mode (forced ``dense``/``sparse`` modes and the
  tiny-operand guard are unaffected).  Arming is process-global and
  scoped with :func:`calibrated` so nested sweeps restore the caller's
  state.
* **A JSON sidecar** keyed by host + model shape, so repeated CLI or
  service runs skip re-timing.  The sidecar is best-effort: a missing,
  stale, or corrupt file silently falls back to fresh calibration —
  never fatal — and writes are atomic (tempfile + rename).

Calibration outcomes are exposed through :mod:`repro.obs.metrics` as
``backend.calibration{site, winner, source}`` counters and
``backend.calibration.seconds{site, backend}`` gauges.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import socket
import tempfile

from repro.obs import metrics

__all__ = [
    "CALIBRATION_ENV",
    "arm_decisions",
    "armed_decision",
    "armed_decisions",
    "calibrated",
    "calibration_key",
    "calibration_path",
    "load_calibration",
    "store_calibration",
]

#: Environment variable overriding the sidecar location.
CALIBRATION_ENV = "REPRO_GANG_CALIBRATION"

#: Calibratable sites (the ``site=`` labels of ``select_backend``
#: call sites with both a dense and a sparse implementation).
SITES = ("boundary", "assembly", "reduce")

_DECISIONS: dict[str, str] = {}


def arm_decisions(decisions: dict[str, str] | None) -> None:
    """Install (or clear, with ``None``/empty) per-site winners."""
    _DECISIONS.clear()
    for site, choice in (decisions or {}).items():
        if choice in ("dense", "sparse"):
            _DECISIONS[site] = choice


def armed_decisions() -> dict[str, str]:
    """The currently armed per-site winners (a copy)."""
    return dict(_DECISIONS)


def armed_decision(site: str | None) -> str | None:
    """The armed winner for ``site``, if any (fast path for the hook)."""
    if site is None or not _DECISIONS:
        return None
    return _DECISIONS.get(site)


@contextlib.contextmanager
def calibrated(decisions: dict[str, str] | None):
    """Scope armed decisions: restore the previous state on exit."""
    prev = armed_decisions()
    arm_decisions(decisions)
    try:
        yield
    finally:
        arm_decisions(prev)


def calibration_path() -> pathlib.Path:
    """Sidecar location (env override, else ``~/.cache/repro-gang/``)."""
    env = os.environ.get(CALIBRATION_ENV)
    if env:
        return pathlib.Path(env)
    return (pathlib.Path(os.environ.get("XDG_CACHE_HOME",
                                        pathlib.Path.home() / ".cache"))
            / "repro-gang" / "backend-calibration.json")


def calibration_key(shape) -> str:
    """Sidecar key for one (host, model shape) pair.

    ``shape`` is any JSON-ish structure describing the swept system's
    dimensions (processors, per-class orders); the key ties a
    measurement to the hardware *and* the operand sizes it was taken
    on, so a different machine or model re-calibrates.
    """
    host = socket.gethostname() or "unknown-host"
    return f"{host}|{json.dumps(shape, sort_keys=True, default=str)}"


def load_calibration(key: str, *,
                     path: os.PathLike | None = None) -> dict[str, str] | None:
    """Load sidecar decisions for ``key``; ``None`` on any problem.

    Corrupt JSON, wrong structure, unreadable file, unknown key — all
    mean "calibrate afresh", never an exception.
    """
    p = pathlib.Path(path) if path is not None else calibration_path()
    try:
        data = json.loads(p.read_text())
        entry = data[key]
        decisions = {site: choice
                     for site, choice in entry["decisions"].items()
                     if choice in ("dense", "sparse")}
    except Exception:  # noqa: BLE001 - sidecar is best-effort by design
        return None
    for site, choice in decisions.items():
        metrics.inc("backend.calibration", site=site, winner=choice,
                    source="sidecar")
    return decisions


def store_calibration(key: str, decisions: dict[str, str],
                      timings: dict | None = None, *,
                      path: os.PathLike | None = None) -> bool:
    """Persist decisions for ``key``; returns ``False`` on any failure."""
    p = pathlib.Path(path) if path is not None else calibration_path()
    try:
        try:
            data = json.loads(p.read_text())
            if not isinstance(data, dict):
                data = {}
        except Exception:  # noqa: BLE001 - start fresh over corruption
            data = {}
        data[key] = {"decisions": dict(decisions),
                     "timings": timings or {}}
        p.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=p.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        os.replace(tmp, p)
        return True
    except Exception:  # noqa: BLE001 - never fatal
        return False


def pick_winners(dense_timings: dict[str, float],
                 sparse_timings: dict[str, float]) -> dict[str, str]:
    """Per-site winners from two probe runs' stage timings.

    Stage names map one-to-one onto the calibratable sites; a site
    missing from either probe keeps the static policy (no decision).
    """
    stage_to_site = {"boundary": "boundary",
                     "assemble": "assembly", "reduce": "reduce"}
    winners: dict[str, str] = {}
    for stage, site in stage_to_site.items():
        td, ts = dense_timings.get(stage), sparse_timings.get(stage)
        if td is None or ts is None:
            continue
        winners[site] = "dense" if td <= ts else "sparse"
        metrics.inc("backend.calibration", site=site, winner=winners[site],
                    source="probe")
        metrics.set_gauge("backend.calibration.seconds", float(td),
                          site=site, backend="dense")
        metrics.set_gauge("backend.calibration.seconds", float(ts),
                          site=site, backend="sparse")
    return winners
