"""Batched (stacked) linear-algebra kernels for sweep-shaped workloads.

Every figure of the paper is a sweep: dozens of nearby grid points,
each solving the same family of QBDs with slightly perturbed blocks.
The per-point solvers in :mod:`repro.qbd` are small dense BLAS calls
wrapped in Python control flow, so solving points one at a time pays
the interpreter overhead once per matrix product.  The kernels here
run the *same recurrences* on ``(npoints, m, m)`` stacks — one
``np.matmul``/``np.linalg.solve`` per step for the whole batch — with
per-slice convergence masks so points converge and drop out of the
batch individually, exactly where their serial solve would stop.

Design rules (all load-bearing for the parity and resume guarantees of
:mod:`repro.workloads.batched`):

* **Same recurrence, same stopping rule.**  Each kernel mirrors its
  serial counterpart step for step (``solve_G`` logreduction, GTH
  elimination, the dense boundary solve), so a batched slice follows
  the trajectory its serial solve would, up to the rounding of the
  stacked BLAS calls.
* **Composition independence.**  Stacked ``matmul``/``solve``/``inv``
  dispatch to LAPACK/BLAS per slice, so a slice's result does not
  depend on which other points share the batch — a resumed sweep
  (smaller batch: only the pending points) reproduces the interrupted
  run's numbers.
* **Per-slice failure isolation.**  A slice that diverges, hits a
  singular system, or trips a guard is flagged in the returned ``ok``
  mask and frozen; the caller re-solves just that point through the
  serial resilience chain.  A batched kernel never raises for a
  per-slice numerical failure.

Nothing here imports above the kernels layer; callers pass plain
``ndarray`` stacks (dense — sparse operands stay on the per-point
paths, where :func:`repro.kernels.select_backend` routes them).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "stack_blocks",
    "batched_gth",
    "batched_drift",
    "batched_solve_G",
    "batched_r_from_g",
    "batched_solve_R",
    "batched_boundary_solve",
]


def stack_blocks(mats) -> np.ndarray:
    """Stack same-shaped matrices into a C-contiguous ``(n, m, m)`` array."""
    return np.ascontiguousarray(
        np.stack([np.asarray(m, dtype=np.float64) for m in mats]))


# ---------------------------------------------------------------------------
# Stationary vectors / drift


def batched_gth(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GTH stationary vectors of a stack of rate-like matrices.

    Mirrors :func:`repro.utils.linalg.solve_stationary_gth` (diagonal
    ignored, recomputed from row sums) slice by slice; the elimination
    loop runs over the small phase dimension while every update is
    vectorized across the batch.  Returns ``(pi, ok)`` where ``ok[i]``
    is ``False`` for slices whose elimination detected a reducible
    structure (the serial solver raises ``ReducibleChainError`` there).
    """
    T = np.asarray(T, dtype=np.float64)
    n, m, _ = T.shape
    ok = np.ones(n, dtype=bool)
    if m == 1:
        return np.ones((n, 1)), ok
    A = T.copy()
    idx = np.arange(m)
    A[:, idx, idx] = 0.0
    for k in range(m - 1, 0, -1):
        scale = A[:, k, :k].sum(axis=1)
        good = scale > 0.0
        ok &= good
        s = np.where(good, scale, 1.0)
        A[:, :k, k] /= s[:, None]
        A[:, :k, :k] += A[:, :k, k, None] * A[:, k, None, :k]
        A[:, idx[:k], idx[:k]] = 0.0
    pi = np.zeros((n, m))
    pi[:, 0] = 1.0
    for k in range(1, m):
        pi[:, k] = np.einsum("ni,ni->n", pi[:, :k], A[:, :k, k])
    total = pi.sum(axis=1)
    good = np.isfinite(total) & (total > 0)
    ok &= good
    return pi / np.where(good, total, 1.0)[:, None], ok


def batched_drift(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 4.4 drift test across a stack of repeating blocks.

    Returns ``(up, down, phase_stationary, ok)``; slices with
    ``ok=False`` need the serial :func:`repro.qbd.stability.drift`
    (which raises the proper ``ReducibleChainError``).
    """
    y, ok = batched_gth(A0 + A1 + A2)
    up = np.einsum("ni,ni->n", y, A0.sum(axis=2))
    down = np.einsum("ni,ni->n", y, A2.sum(axis=2))
    return up, down, y, ok


# ---------------------------------------------------------------------------
# Logarithmic reduction for G / recovery of R


def _batched_uniformize(A0, A1, A2):
    """Per-slice uniformization; returns ``(D0, D1, D2, ok)``."""
    diag = np.diagonal(A1, axis1=1, axis2=2)
    rate = -diag.min(axis=1)
    ok = rate > 0.0
    r = np.where(ok, rate, 1.0)[:, None, None]
    I = np.eye(A1.shape[1])
    return A0 / r, A1 / r + I, A2 / r, ok


def _masked_solve(lhs: np.ndarray, rhs: np.ndarray,
                  ok: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack with per-slice failure isolation.

    Updates ``ok`` in place for slices whose system is singular and
    returns the solutions (failed slices hold garbage but are masked).
    """
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i in range(lhs.shape[0]):
            try:
                out[i] = np.linalg.solve(lhs[i], rhs[i])
            except np.linalg.LinAlgError:
                out[i] = 0.0
                ok[i] = False
        return out


def batched_solve_G(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, *,
                    tol: float = 1e-12, max_iter: int = 64,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep logarithmic reduction for ``G`` across a block stack.

    The recurrence is :func:`repro.qbd.rmatrix.solve_G` verbatim; each
    slice checks the same stochasticity-defect / correction stopping
    rule and freezes at its own convergence step.  Returns
    ``(G, iterations, ok)`` with per-slice doubling-step counts;
    ``ok=False`` marks slices that failed to uniformize, went
    non-finite, hit a singular ``I - U``, or exhausted ``max_iter``.
    """
    A0 = np.asarray(A0, dtype=np.float64)
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)
    n, d, _ = A1.shape
    D0, D1, D2, ok = _batched_uniformize(A0, A1, A2)
    I = np.eye(d)
    inv_ok = ok.copy()
    inv = _masked_solve(I - D1, np.broadcast_to(I, D1.shape).copy(), inv_ok)
    ok &= inv_ok
    H = inv @ D0
    L = inv @ D2
    G = L.copy()
    T = H.copy()
    iters = np.zeros(n, dtype=np.int64)
    active = ok.copy()
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Ha, La, Ta = H[idx], L[idx], T[idx]
        U = Ha @ La + La @ Ha
        sub_ok = np.ones(idx.size, dtype=bool)
        Hn = _masked_solve(I - U, Ha @ Ha, sub_ok)
        Ln = _masked_solve(I - U, La @ La, sub_ok)
        Gn = G[idx] + Ta @ Ln
        Tn = Ta @ Hn
        defect = np.abs(1.0 - Gn.sum(axis=2)).max(axis=1)
        correction = np.abs(Tn).max(axis=(1, 2))
        finite = np.isfinite(defect) & np.isfinite(correction) & sub_ok
        H[idx], L[idx], G[idx], T[idx] = Hn, Ln, Gn, Tn
        iters[idx] = it
        converged = (correction < tol) | (defect < tol)
        ok[idx[~finite]] = False
        active[idx] = finite & ~converged
    ok &= ~active  # slices still iterating at max_iter did not converge
    return np.clip(G, 0.0, None), iters, ok


def batched_r_from_g(A0: np.ndarray, A1: np.ndarray, G: np.ndarray,
                     ok: np.ndarray | None = None) -> np.ndarray:
    """``R = A0 (-(A1 + A0 G))^{-1}`` per slice (cf. ``r_from_g``).

    Slices masked out by ``ok`` (or whose ``U`` is singular) yield
    garbage rows; callers re-check finiteness and mask them.
    """
    d = A1.shape[1]
    U = A1 + A0 @ G
    mask = np.ones(A0.shape[0], dtype=bool) if ok is None else ok.copy()
    lhs = np.where(mask[:, None, None], -U, np.eye(d))
    eye = np.broadcast_to(np.eye(d), lhs.shape).copy()
    inv = _masked_solve(lhs, eye, mask)
    inv[~mask] = np.nan  # surface singular slices as non-finite R
    return A0 @ inv


def batched_solve_R(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, *,
                    tol: float = 1e-12, max_iter: int = 64,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep logarithmic-reduction ``R`` solve across a stack.

    The batched ``solve_R(method="logreduction")``: ``G`` by
    :func:`batched_solve_G`, then ``R`` by :func:`batched_r_from_g`.
    Returns ``(R, ok)``; ``ok=False`` marks slices the caller must
    re-solve serially (resilience chain, other methods).
    """
    G, _, ok = batched_solve_G(A0, A1, A2, tol=tol, max_iter=max_iter)
    R = batched_r_from_g(A0, A1, G, ok)
    ok &= np.isfinite(R).all(axis=(1, 2))
    return R, ok


# ---------------------------------------------------------------------------
# Dense boundary solve


def batched_boundary_solve(M: np.ndarray, A2: np.ndarray, R: np.ndarray,
                           offsets: np.ndarray, b: int,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Batched mirror of the dense reference boundary solve.

    ``M`` is the stack of pre-assembled balance systems *without* the
    repeating-tail fold (the caller loops the per-point boundary blocks
    once; everything afterwards — the ``R A2`` fold, normalization,
    column drop, equilibration, solve, residual check — runs batched
    here, following :func:`repro.qbd.boundary.solve_boundary` step for
    step).  Returns ``(x, ok)`` with the stacked boundary vectors;
    failed slices (singular system, residual too large, negative
    entries, non-positive mass) have ``ok=False`` and fall back to the
    serial path, which also owns the lstsq rescue.
    """
    n, N, _ = M.shape
    d = R.shape[1]
    lb = slice(int(offsets[b]), int(offsets[b + 1]))
    M = M.copy()
    M[:, lb, lb] += R @ A2
    ok = np.ones(n, dtype=bool)

    norm = np.ones((n, N))
    tail_ok = ok.copy()
    tail = _masked_solve(np.eye(d) - R, np.ones((n, d, 1)), tail_ok)[..., 0]
    ok &= tail_ok & ~(tail < 0).any(axis=1)
    norm[:, lb] = tail

    col_norms = np.linalg.norm(M, axis=1)
    ok &= (col_norms > 0.0).any(axis=1)
    drop = col_norms.argmax(axis=1)
    rows = np.arange(n)
    A = M.copy()
    A[rows, :, drop] = norm
    # Pin dead (all-zero) balance columns to pi_k = 0.
    dead_i, dead_k = np.nonzero((col_norms == 0.0)
                                & (np.arange(N)[None, :] != drop[:, None]))
    A[dead_i, dead_k, dead_k] = 1.0
    rhs = np.zeros((n, N))
    rhs[rows, drop] = 1.0
    scales = np.linalg.norm(A, axis=1)
    scales[scales == 0.0] = 1.0
    solve_ok = ok.copy()
    x = _masked_solve(np.transpose(A / scales[:, None, :], (0, 2, 1)),
                      (rhs / scales)[..., None], solve_ok)[..., 0]
    ok &= solve_ok
    residual = np.abs(np.einsum("nk,nkj->nj", x, M)).max(axis=1)
    limit = 1e-6 * np.maximum(1.0, np.abs(M).max(axis=(1, 2)))
    ok &= np.isfinite(residual) & (residual <= limit)
    ok &= ~(x < -1e-8).any(axis=1)
    x = np.clip(x, 0.0, None)
    mass = np.einsum("nk,nk->n", x, norm)
    ok &= mass > 0
    return x / np.where(mass > 0, mass, 1.0)[:, None], ok
