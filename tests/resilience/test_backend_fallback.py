"""Kernel backends and the resilient solve: every backend, same answer.

The ``R`` solve has no backend-dependent path; the ``backend`` knob of
:func:`repro.qbd.stationary.solve_qbd` reaches only the boundary solve.
Whichever backend is asked for, the resilient solve must land on the
same stationary distribution.
"""

import numpy as np
import pytest

from repro.qbd import QBDProcess, solve_qbd


def phase_process(d=10, lam=0.4, mu=1.0, sw=0.2):
    """A ``d``-phase QBD with cyclic phase switching."""
    A0 = lam * np.eye(d)
    A2 = mu * np.eye(d)
    A1 = -(lam + mu + sw) * np.eye(d)
    for i in range(d):
        A1[i, (i + 1) % d] = sw
    # Level 0 reflects the down-rates back onto the diagonal.
    return QBDProcess(boundary=((A1 + A2, A0), (A2, A1)),
                      A0=A0, A1=A1, A2=A2)


class TestEndToEndParity:
    @pytest.mark.parametrize("backend", ["dense", "sparse", "auto", None])
    def test_backends_agree(self, backend):
        process = phase_process()
        ref = solve_qbd(process, backend="dense")
        sol = solve_qbd(process, backend=backend)
        assert sol.solve_report.succeeded
        assert np.allclose(sol.R, ref.R, atol=1e-9)
        for a, b in zip(sol.boundary_pi, ref.boundary_pi):
            assert np.allclose(a, b, atol=1e-9)
