"""Tests for uniformization (Section 2.4 of the paper)."""

import numpy as np
import pytest
from scipy import special, stats
from scipy.linalg import expm

from repro.errors import ValidationError
from repro.markov import DiscreteTimeMarkovChain
from repro.markov.uniformization import (
    poisson_window,
    transient_distribution,
    uniformization_rate,
    uniformize,
)
from repro.utils.linalg import solve_stationary_gth


@pytest.fixture
def Q():
    return np.array([
        [-2.0, 1.0, 1.0],
        [0.5, -1.0, 0.5],
        [1.0, 3.0, -4.0],
    ])


class TestRate:
    def test_default_is_max_exit(self, Q):
        assert uniformization_rate(Q) == 4.0

    def test_slack_inflates(self, Q):
        assert uniformization_rate(Q, slack=1.5) == 6.0

    def test_slack_below_one_rejected(self, Q):
        with pytest.raises(ValidationError):
            uniformization_rate(Q, slack=0.5)

    def test_all_absorbing_gets_positive_rate(self):
        assert uniformization_rate(np.zeros((2, 2))) == 1.0


class TestUniformize:
    def test_produces_stochastic_matrix(self, Q):
        P, rate = uniformize(Q)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert np.all(P >= 0)
        assert rate == 4.0

    def test_paper_identity_P_equals_Q_over_qmax_plus_I(self, Q):
        P, rate = uniformize(Q)
        assert P == pytest.approx(Q / rate + np.eye(3))

    def test_stationary_vector_preserved(self, Q):
        # The core claim of Section 2.4: pi of the DTMC equals pi of
        # the CTMC.
        P, _ = uniformize(Q)
        pi_ctmc = solve_stationary_gth(Q)
        pi_dtmc = DiscreteTimeMarkovChain(P).stationary_distribution()
        assert pi_dtmc == pytest.approx(pi_ctmc, abs=1e-12)

    def test_too_small_qmax_rejected(self, Q):
        with pytest.raises(ValidationError):
            uniformize(Q, q_max=3.0)

    def test_larger_qmax_accepted(self, Q):
        P, rate = uniformize(Q, q_max=10.0)
        assert rate == 10.0
        assert np.allclose(P.sum(axis=1), 1.0)


class TestTransient:
    def test_matches_matrix_exponential(self, Q):
        p0 = np.array([1.0, 0.0, 0.0])
        for t in [0.1, 1.0, 5.0]:
            expect = p0 @ expm(Q * t)
            got = transient_distribution(Q, p0, t)
            assert got == pytest.approx(expect, abs=1e-9)

    def test_zero_time(self, Q):
        p0 = np.array([0.0, 0.5, 0.5])
        assert transient_distribution(Q, p0, 0.0) == pytest.approx(p0)

    def test_negative_time_rejected(self, Q):
        with pytest.raises(ValidationError):
            transient_distribution(Q, np.array([1.0, 0.0, 0.0]), -1.0)

    def test_long_time_reaches_stationarity(self, Q):
        p0 = np.array([0.0, 0.0, 1.0])
        got = transient_distribution(Q, p0, 500.0)
        assert got == pytest.approx(solve_stationary_gth(Q), abs=1e-9)


LAMBDAS = np.logspace(-3, 5, 41)


class TestPoissonWindow:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_weights_match_scipy_pmf(self, lam):
        lo, w = poisson_window(lam, 1e-14)
        ref = stats.poisson.pmf(np.arange(lo, lo + len(w)), lam)
        assert w == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("tol", [1e-14, 1e-12, 1e-6])
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_window_holds_all_but_tol_of_the_mass(self, lam, tol):
        lo, w = poisson_window(lam, tol)
        hi = lo + len(w) - 1
        left = special.pdtr(lo - 1, lam) if lo > 0 else 0.0
        right = special.pdtrc(hi, lam)
        assert left + right <= tol

    def test_zero_rate_is_a_point_mass(self):
        lo, w = poisson_window(0.0, 1e-14)
        assert lo == 0 and w.tolist() == [1.0]
