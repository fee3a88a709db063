"""Multi-method ``R``-matrix solving: fallback chains, retries, budgets.

A single :class:`~repro.errors.ConvergenceError` in one R-matrix solve
used to abort an entire fixed-point run (and with it a whole sweep
point).  :func:`resilient_solve_R` instead walks a *chain* of solver
methods — by default the configured method first, then the remaining
algorithms of :data:`repro.qbd.rmatrix.METHODS` — retrying each with
adjusted tolerances and mild regularization, validating every result,
and recording a structured :class:`AttemptRecord` per attempt so the
caller can see which method succeeded and why the others failed.

Retry semantics
---------------
The two failure modes call for opposite tolerance adjustments:

* the iteration *ran out of budget* (``ConvergenceError``) — retry
  with a **relaxed** tolerance and a mild diagonal regularization
  (a tiny uniform killing rate on ``A1``), which rescues
  nearly-converged and nearly-singular iterations;
* the iteration *converged to a bad answer* (non-finite entries,
  quadratic residual too large, ``sp(R) >= 1``) — retry with a
  **tightened** tolerance, which rescues premature stopping.

Every candidate ``R`` — including regularized ones — is accepted only
if the *unregularized* quadratic residual passes the policy's
acceptance threshold, so fallback never trades a loud failure for a
silently wrong answer.

Budgets
-------
:class:`RetryPolicy` carries a per-solve iteration budget (summed over
all attempts) and an optional wall-clock budget.  Exhausting either
raises :class:`~repro.errors.SolverBudgetExceededError` with the
attempt history attached as ``exc.report``.  The wall-clock budget is
enforced both between attempts and *inside* each attempt: the
per-attempt deadline is threaded into the solver's iteration loops,
so a single runaway attempt (large blocks creeping toward an unstable
fixed point) is cut off mid-iteration instead of running to its full
iteration cap first.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.errors import (
    ConvergenceError,
    SolverBudgetExceededError,
    ValidationError,
)
from repro.obs import metrics

__all__ = ["RetryPolicy", "ResiliencePolicy", "AttemptRecord", "SolveReport",
           "DEFAULT_POLICY", "default_chain", "resilient_solve_R"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry and budget knobs of a resilient solve."""

    #: Attempts per method (the initial try counts as one).
    max_attempts_per_method: int = 2
    #: Tolerance factor for retries after an *invalid result*
    #: (``< 1``: tighten).
    tol_tighten: float = 1e-2
    #: Tolerance factor for retries after a *convergence failure*
    #: (``> 1``: relax).
    tol_relax: float = 1e2
    #: Uniform killing rate (relative to ``max |diag A1|``) added to the
    #: diagonal of ``A1`` on convergence-failure retries.
    regularization: float = 1e-10
    #: Iteration budget summed across every attempt of the solve;
    #: ``None`` disables the check.
    max_total_iterations: int | None = 400_000
    #: Wall-clock budget in seconds for the whole solve.  Checked
    #: between attempts *and* threaded into every attempt's iteration
    #: loop as a deadline (see ``solve_R(..., deadline=)``), so one
    #: runaway attempt cannot exceed the budget by more than a single
    #: iteration.  ``None`` disables the check.
    wall_clock_budget: float | None = None


@dataclass(frozen=True)
class ResiliencePolicy:
    """What :func:`resilient_solve_R` is allowed to do.

    Attributes
    ----------
    chain:
        Method names to try in order.  ``None`` (default) derives the
        chain from the configured primary method via
        :func:`default_chain`.
    retry:
        The :class:`RetryPolicy` applied to each method.
    acceptance_residual:
        A candidate ``R`` is accepted only if
        ``max|R^2 A2 + R A1 + A0| <= acceptance_residual * max(1, max|A1|)``.
    """

    chain: tuple[str, ...] | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    acceptance_residual: float = 1e-8


#: The policy :func:`repro.qbd.stationary.solve_qbd` applies by default.
DEFAULT_POLICY = ResiliencePolicy()


@dataclass(frozen=True)
class AttemptRecord:
    """One solve attempt: what was tried and how it ended.

    ``outcome`` is ``"ok"``, ``"error"`` (the solver raised), or
    ``"invalid"`` (the solver returned, but the result failed
    validation — ``error`` then holds the reason).
    """

    method: str
    attempt: int
    tol: float
    regularization: float
    outcome: str
    error: str | None
    iterations: int | None
    residual: float | None
    elapsed: float

    def describe(self) -> str:
        detail = "" if self.error is None else f": {self.error}"
        return (f"{self.method}[#{self.attempt} tol={self.tol:.3g}"
                f"{f' reg={self.regularization:.1g}' if self.regularization else ''}]"
                f" -> {self.outcome}{detail}")

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AttemptRecord":
        # Unknown keys are ignored: records written while attempts
        # still carried a ``backend`` field load unchanged.
        return cls(**{f: data.get(f, None) for f in cls.__dataclass_fields__})


@dataclass
class SolveReport:
    """Structured record of a resilient solve.

    ``method`` is the winning method (``None`` if every attempt
    failed); ``attempts`` lists every try in order.
    """

    attempts: list[AttemptRecord] = field(default_factory=list)
    method: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.method is not None

    @property
    def fallbacks(self) -> int:
        """Failed attempts before the winning (or final) one."""
        n = len(self.attempts)
        return n - 1 if self.succeeded else n

    @property
    def total_elapsed(self) -> float:
        return sum(a.elapsed for a in self.attempts)

    @property
    def total_iterations(self) -> int:
        return sum(a.iterations or 0 for a in self.attempts)

    def describe(self) -> str:
        head = (f"resilient solve: method={self.method or 'FAILED'} "
                f"({len(self.attempts)} attempt(s), "
                f"{self.total_elapsed:.3g}s)")
        return "\n".join([head] + ["  " + a.describe() for a in self.attempts])

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        return {"method": self.method,
                "attempts": [a.to_dict() for a in self.attempts]}

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        return cls(method=data.get("method"),
                   attempts=[AttemptRecord.from_dict(a)
                             for a in data.get("attempts", [])])


def default_chain(method: str = "logreduction") -> tuple[str, ...]:
    """The fallback chain: ``method`` first, then the other algorithms
    in :data:`~repro.qbd.rmatrix.METHODS` order."""
    from repro.qbd.rmatrix import METHODS
    if method not in METHODS:
        raise ValidationError(
            f"unknown R-matrix method {method!r}; use one of {METHODS}")
    return (method,) + tuple(m for m in METHODS if m != method)


def _validate_R(R: np.ndarray, A0, A1, A2, *, threshold: float) -> str | None:
    """``None`` if ``R`` is acceptable, else a human-readable reason."""
    if not np.all(np.isfinite(R)):
        return "non-finite entries in R"
    residual = float(np.max(np.abs(R @ R @ A2 + R @ A1 + A0)))
    scale = max(1.0, float(np.max(np.abs(A1))))
    if residual > threshold * scale:
        return f"quadratic residual {residual:.3g} above threshold"
    sp = float(np.max(np.abs(np.linalg.eigvals(R))))
    if sp >= 1.0:
        return f"sp(R)={sp:.6g} >= 1 (not the minimal solution)"
    return None


def _method_max_iter(method: str) -> int:
    # Substitution counts linear-convergence steps; the reduction
    # methods count quadratic doubling steps.
    return 100_000 if method == "substitution" else 64


def resilient_solve_R(A0, A1, A2, *, method: str = "logreduction",
                      tol: float = 1e-12,
                      policy: ResiliencePolicy | None = None,
                      ) -> tuple[np.ndarray, SolveReport]:
    """Solve ``R^2 A2 + R A1 + A0 = 0`` with fallback, retries, budgets.

    Returns ``(R, report)`` on the first attempt that passes
    validation.

    Raises
    ------
    SolverBudgetExceededError
        The iteration or wall-clock budget ran out first.  The partial
        attempt history is attached as ``exc.report``.
    ConvergenceError
        Every method and retry failed within budget (``exc.report``
        attached).
    """
    from repro.qbd.rmatrix import solve_R

    policy = policy or DEFAULT_POLICY
    retry = policy.retry
    chain = policy.chain or default_chain(method)
    A0 = np.asarray(A0, dtype=np.float64)
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)

    report = SolveReport()
    t0 = time.monotonic()
    deadline = (t0 + retry.wall_clock_budget
                if retry.wall_clock_budget is not None else None)
    iterations_used = 0
    best_residual: float | None = None

    def _out_of_budget() -> None:
        elapsed = time.monotonic() - t0
        if retry.wall_clock_budget is not None \
                and elapsed > retry.wall_clock_budget:
            exc = SolverBudgetExceededError(
                f"R-matrix solve exceeded its wall-clock budget "
                f"({elapsed:.3g}s > {retry.wall_clock_budget:.3g}s) after "
                f"{len(report.attempts)} attempt(s)",
                iterations=iterations_used, residual=best_residual,
                elapsed=elapsed, budget=retry.wall_clock_budget)
            exc.report = report
            raise exc
        if retry.max_total_iterations is not None \
                and iterations_used >= retry.max_total_iterations:
            exc = SolverBudgetExceededError(
                f"R-matrix solve exceeded its iteration budget "
                f"({iterations_used} >= {retry.max_total_iterations}) after "
                f"{len(report.attempts)} attempt(s)",
                iterations=iterations_used, residual=best_residual,
                elapsed=time.monotonic() - t0,
                budget=float(retry.max_total_iterations))
            exc.report = report
            raise exc

    for m in chain:
        attempt_tol = tol
        regularization = 0.0
        budget_attempts = max(1, retry.max_attempts_per_method)
        attempt = 0
        while attempt < budget_attempts:
            _out_of_budget()
            max_iter = _method_max_iter(m)
            if retry.max_total_iterations is not None:
                max_iter = min(max_iter,
                               retry.max_total_iterations - iterations_used)
            A1_eff = A1
            if regularization > 0.0:
                scale = float(np.max(np.abs(np.diag(A1)))) or 1.0
                A1_eff = A1 - regularization * scale * np.eye(A1.shape[0])
            t_attempt = time.monotonic()
            try:
                R, info = solve_R(A0, A1_eff, A2, method=m, tol=attempt_tol,
                                  max_iter=max_iter, return_info=True,
                                  deadline=deadline)
            except (ConvergenceError, np.linalg.LinAlgError) as exc:
                elapsed = time.monotonic() - t_attempt
                iters = getattr(exc, "iterations", None)
                resid = getattr(exc, "residual", None)
                iterations_used += iters if iters is not None else max_iter
                if resid is not None:
                    best_residual = resid if best_residual is None \
                        else min(best_residual, resid)
                report.attempts.append(AttemptRecord(
                    method=m, attempt=attempt, tol=attempt_tol,
                    regularization=regularization, outcome="error",
                    error=f"{type(exc).__name__}: {exc}",
                    iterations=iters, residual=resid, elapsed=elapsed))
                metrics.inc("fallback.attempts", method=m, outcome="error")
                attempt += 1
                # Ran out of steam: relax the tolerance, add a tiny
                # killing rate to break near-singularity.
                attempt_tol *= retry.tol_relax
                regularization = retry.regularization \
                    if regularization == 0.0 else regularization * 100.0
                continue
            elapsed = time.monotonic() - t_attempt
            reason = _validate_R(R, A0, A1, A2,
                                 threshold=policy.acceptance_residual)
            if reason is None:
                # Validate against the *unregularized* blocks; the
                # solver's own diagnostics supply the iteration count
                # that used to be discarded on success.
                report.attempts.append(AttemptRecord(
                    method=m, attempt=attempt, tol=attempt_tol,
                    regularization=regularization, outcome="ok", error=None,
                    iterations=info.iterations, residual=float(np.max(np.abs(
                        R @ R @ A2 + R @ A1 + A0))), elapsed=elapsed))
                metrics.inc("fallback.attempts", method=m, outcome="ok")
                metrics.inc("fallback.solves", status="ok",
                            fallback=attempt > 0 or m != chain[0])
                report.method = m
                return np.clip(R, 0.0, None), report
            iterations_used += _method_max_iter(m) if m != "spectral" else 1
            report.attempts.append(AttemptRecord(
                method=m, attempt=attempt, tol=attempt_tol,
                regularization=regularization, outcome="invalid",
                error=reason, iterations=info.iterations,
                residual=info.residual, elapsed=elapsed))
            metrics.inc("fallback.attempts", method=m, outcome="invalid")
            attempt += 1
            # Converged to a bad answer: tighten, drop regularization.
            attempt_tol *= retry.tol_tighten
            regularization = 0.0

    # A deadline that fired inside the last attempt must still surface
    # as a budget error, not a generic every-method-failed one.
    _out_of_budget()
    metrics.inc("fallback.solves", status="failed")
    exc = ConvergenceError(
        f"every R-matrix method failed ({len(report.attempts)} attempts "
        f"over chain {chain}); last: {report.attempts[-1].describe()}",
        iterations=iterations_used, residual=best_residual)
    exc.report = report
    raise exc
