"""Uniformization (randomization) of continuous-time chains.

Section 2.4 of the paper: given a CTMC with generator ``Q`` and
``q_max >= max_i(-Q[i,i])`` finite, the discrete-time chain with
transition matrix ``P = Q / q_max + I`` has the *same stationary
vector* as the CTMC (substitute ``P`` into ``pi P = pi`` and multiply
through by ``q_max``).  The paper uses this to define the steady-state
quantum-start vector ``xi_p`` in Theorem 4.3; we additionally use it
for transient analysis, where the time-``t`` distribution is a Poisson
mixture of DTMC step distributions — numerically robust because every
term is a proper probability vector.

``Q`` may be dense or CSR throughout: uniformizing keeps the
representation (a sparse generator yields a sparse ``P``), and the
transient series is a sequence of vector-matrix products, which is
exactly where CSR pays — ``O(nnz)`` per Poisson term instead of
``O(n^2)``.

:func:`poisson_window` is the one home of the truncated Poisson
weights every uniformization series here sums against — the transient
distribution below and the distribution functions of
:class:`repro.phasetype.PhaseType`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse as _sp
from scipy import special

from repro.errors import ValidationError
from repro.kernels import diagonal, is_sparse, row_sums, to_csr
from repro.utils.validation import check_generator

__all__ = ["uniformization_rate", "uniformize", "poisson_window",
           "transient_distribution"]


def uniformization_rate(Q, *, slack: float = 1.0) -> float:
    """A valid uniformization constant ``q_max`` for generator ``Q``.

    ``slack > 1`` inflates the rate, which adds self-loops to the
    uniformized chain; this is sometimes useful to guarantee
    aperiodicity.  ``slack`` must be ``>= 1``.
    """
    if slack < 1.0:
        raise ValidationError(f"slack must be >= 1, got {slack}")
    diag = -diagonal(Q)
    q = float(np.max(diag)) if diag.size else 0.0
    if q <= 0.0:
        # All states absorbing; any positive rate works.
        return 1.0
    return q * slack


def uniformize(Q, *, q_max: float | None = None,
               validate: bool = True):
    """Return the uniformized DTMC ``P = Q / q_max + I`` and the rate used.

    Parameters
    ----------
    Q:
        CTMC generator, dense or CSR; ``P`` comes back in the same
        representation.
    q_max:
        Uniformization constant; defaults to the maximal exit rate.
        Must be at least that rate or the result would have negative
        diagonal entries.
    validate:
        Whether to validate ``Q`` as a generator first (skip inside
        hot loops that already guarantee it).  Sparse generators skip
        the structural check — they only arise internally, from
        builders that guarantee the generator property.
    """
    if is_sparse(Q):
        Q = to_csr(Q)
    else:
        Q = check_generator(Q) if validate else np.asarray(Q, dtype=np.float64)
    max_exit = float(np.max(-diagonal(Q))) if Q.shape[0] else 0.0
    rate = uniformization_rate(Q) if q_max is None else float(q_max)
    if rate < max_exit - 1e-12 * max(1.0, rate):
        raise ValidationError(
            f"q_max={rate} is below the maximal exit rate {max_exit}"
        )
    if is_sparse(Q):
        P = _sp.csr_array(Q / rate + _sp.eye_array(Q.shape[0], format="csr"))
        # Round-off can leave tiny negatives on the diagonal.
        np.clip(P.data, 0.0, None, out=P.data)
        rows = row_sums(P)
        inv = np.where(rows > 0, 1.0 / rows, 1.0)
        # Row renormalization = left diagonal scaling.
        P = _sp.csr_array(_sp.diags_array(inv) @ P)
        return P, rate
    P = Q / rate + np.eye(Q.shape[0])
    np.clip(P, 0.0, None, out=P)
    rows = P.sum(axis=1, keepdims=True)
    # Rows of a generator sum to 0, so rows of P sum to 1 up to round-off;
    # renormalize so downstream stochastic checks pass exactly.
    np.divide(P, rows, out=P, where=rows > 0)
    return P, rate


def _poisson_quantile(q: float, lam: float) -> int:
    """Smallest ``k`` with ``P{Poisson(lam) <= k} >= q``.

    The inverse of ``pdtr`` rounded up, stepped back one term where the
    CDF already reaches ``q`` there (``pdtrik`` solves for a continuous
    ``k``).
    """
    k = math.ceil(special.pdtrik(q, lam))
    below = max(k - 1, 0)
    return below if special.pdtr(below, lam) >= q else max(k, 0)


def poisson_window(lam: float, tol: float) -> tuple[int, np.ndarray]:
    """Poisson(``lam``) weights on a window holding ``>= 1 - tol`` of the mass.

    Returns ``(lo, w)`` with ``w[i] = P{Poisson(lam) = lo + i}``.  The
    window runs from the ``tol/2`` quantile to one term past the
    ``1 - tol/2`` quantile, so each cut-off tail holds at most
    ``tol/2``.  Weights are evaluated in log space,
    ``exp(k log lam - log k! - lam)``, which neither underflows at
    ``exp(-lam)`` for large ``lam`` nor overflows at ``lam^k``.
    """
    if lam <= 0.0:
        return 0, np.ones(1)
    conf = 1.0 - tol
    lo = _poisson_quantile(0.5 * (1.0 - conf), lam)
    hi = _poisson_quantile(0.5 * (1.0 + conf), lam) + 1
    k = np.arange(lo, hi + 1, dtype=np.float64)
    return lo, np.exp(special.xlogy(k, lam) - special.gammaln(k + 1.0) - lam)


def transient_distribution(Q, p0: np.ndarray, t: float,
                           *, tol: float = 1e-12) -> np.ndarray:
    """Distribution at time ``t``: ``p0 expm(Q t)`` via Poisson-weighted steps.

    Truncates the Poisson(``q_max * t``) series at mass ``1 - tol``
    (two-sided), guaranteeing an absolute error below ``tol`` in each
    component.  ``Q`` may be dense or CSR; each series term is one
    vector-matrix product either way.
    """
    if t < 0:
        raise ValidationError(f"t must be non-negative, got {t}")
    p0 = np.asarray(p0, dtype=np.float64)
    if t == 0.0:
        return p0.copy()
    P, rate = uniformize(Q)
    lo, weights = poisson_window(rate * t, tol)
    out = np.zeros_like(p0)
    v = p0.copy()
    for k in range(lo + len(weights)):
        if k >= lo:
            out += weights[k - lo] * v
        v = np.asarray(v @ P)
    # Renormalize the truncated series.
    s = out.sum()
    if s > 0:
        out /= s
    return out
