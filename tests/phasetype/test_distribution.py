"""Tests for the PhaseType class."""

import pickle

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from repro.errors import NotAPhaseTypeError
from repro.obs import metrics
from repro.phasetype import PhaseType, erlang, exponential, hyperexponential


class TestConstruction:
    def test_valid(self):
        d = PhaseType([1.0], [[-2.0]])
        assert d.order == 1

    def test_mismatched_sizes(self):
        with pytest.raises(NotAPhaseTypeError):
            PhaseType([1.0, 0.0], [[-2.0]])

    def test_rejects_recurrent_phase(self):
        with pytest.raises(NotAPhaseTypeError):
            PhaseType([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]])

    def test_alpha_deficit_is_atom(self):
        d = PhaseType([0.7], [[-1.0]])
        assert d.atom_at_zero == pytest.approx(0.3)

    def test_readonly_views(self):
        d = exponential(1.0)
        with pytest.raises(ValueError):
            d.alpha[0] = 0.5
        with pytest.raises(ValueError):
            d.S[0, 0] = -3.0

    def test_repr_mentions_order_and_mean(self):
        r = repr(erlang(3, mean=1.5))
        assert "order=3" in r and "mean=1.5" in r

    def test_equality_and_hash(self):
        a = exponential(2.0)
        b = exponential(2.0)
        assert a == b and hash(a) == hash(b)
        assert a != exponential(3.0)


class TestMoments:
    def test_exponential_moments(self):
        d = exponential(2.0)
        assert d.mean == pytest.approx(0.5)
        assert d.variance == pytest.approx(0.25)
        assert d.scv == pytest.approx(1.0)
        assert d.moment(3) == pytest.approx(6 / 8)

    def test_erlang_moments(self):
        d = erlang(4, mean=2.0)
        assert d.mean == pytest.approx(2.0)
        assert d.scv == pytest.approx(0.25)
        assert d.std == pytest.approx(1.0)

    def test_hyperexponential_scv_above_one(self):
        d = hyperexponential([0.3, 0.7], [0.2, 2.0])
        assert d.scv > 1.0

    def test_moment_zero(self):
        assert exponential(1.0).moment(0) == 1.0

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError):
            exponential(1.0).moment(-1)

    def test_rate_is_reciprocal_mean(self):
        d = erlang(2, mean=4.0)
        assert d.rate == pytest.approx(0.25)

    def test_atom_shrinks_mean(self):
        full = exponential(1.0)
        with_atom = PhaseType([0.5], [[-1.0]])
        assert with_atom.mean == pytest.approx(0.5 * full.mean)


class TestDistributionFunctions:
    def test_exponential_cdf(self):
        d = exponential(2.0)
        x = np.array([0.0, 0.5, 1.0, 2.0])
        assert d.cdf(x) == pytest.approx(1 - np.exp(-2 * x))

    def test_sf_complements_cdf(self):
        d = erlang(3, mean=1.0)
        for x in [0.1, 0.7, 2.5]:
            assert d.cdf(x) + d.sf(x) == pytest.approx(1.0)

    def test_pdf_integrates_to_one(self):
        d = erlang(2, mean=1.0)
        xs = np.linspace(0, 30, 30_001)
        integral = np.trapezoid(d.pdf(xs), xs)
        assert integral == pytest.approx(1.0, abs=1e-5)

    def test_negative_argument_conventions(self):
        d = exponential(1.0)
        assert d.cdf(-1.0) == 0.0
        assert d.sf(-1.0) == 1.0
        assert d.pdf(-1.0) == 0.0

    def test_scalar_in_scalar_out(self):
        d = exponential(1.0)
        assert isinstance(d.cdf(1.0), float)

    def test_atom_at_zero_in_cdf(self):
        d = PhaseType([0.6], [[-1.0]])
        assert d.cdf(0.0) == pytest.approx(0.4)

    def test_laplace_transform_at_zero_is_one(self):
        d = erlang(2, mean=1.0)
        assert d.laplace_transform(0.0) == pytest.approx(1.0)

    def test_laplace_transform_exponential(self):
        lam = 2.0
        d = exponential(lam)
        for s in [0.5, 1.0, 3.0]:
            assert d.laplace_transform(s) == pytest.approx(lam / (lam + s))

    def test_quantile_roundtrip(self):
        d = erlang(3, mean=2.0)
        for q in [0.1, 0.5, 0.9]:
            assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-8)

    def test_quantile_below_atom_is_zero(self):
        d = PhaseType([0.5], [[-1.0]])
        assert d.quantile(0.3) == 0.0

    def test_quantile_rejects_bad_level(self):
        with pytest.raises(ValueError):
            exponential(1.0).quantile(1.0)

    def test_ulp_close_rates_stay_accurate(self):
        # scipy.linalg.expm's triangular shortcut returns garbage (a
        # negative superdiagonal) when two diagonal entries differ by
        # ~1 ulp; the uniformization evaluator must not.  Found by
        # hypothesis via maximum(exp, hypoexp) in test_properties.
        from repro.phasetype import hypoexponential, maximum

        r = 0.05
        g = hypoexponential([r, np.nextafter(r, 1.0)])
        near = erlang(2, rate=r)
        for x in [0.5, 1.0, 10.0]:
            assert g.cdf(x) == pytest.approx(near.cdf(x), abs=1e-10)
        f = exponential(9.0)
        m = maximum(f, g)
        for x in [0.5, 1.0, 10.0]:
            assert m.cdf(x) == pytest.approx(f.cdf(x) * g.cdf(x), abs=1e-10)


def random_ph(seed: int, order: int) -> PhaseType:
    """A dense, well-conditioned PH: every phase exits at rate >= 0.5."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.0, 1.0, (order, order))
    np.fill_diagonal(S, 0.0)
    exits = rng.uniform(0.5, 2.0, order)
    S[np.diag_indices(order)] = -(S.sum(axis=1) + exits)
    alpha = rng.dirichlet(np.ones(order)) * rng.uniform(0.8, 1.0)
    return PhaseType(alpha, S)


class TestUniformizedSeries:
    """Distribution functions as Poisson mixtures of one cached sequence."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_exponential(self, seed):
        d = random_ph(seed, order=2 + seed)
        for x in [0.01, 0.3, 1.0, 4.0, 12.0]:
            front = d.alpha @ expm(d.S * x)
            assert d.sf(x) == pytest.approx(front.sum(), abs=1e-12)
            assert d.cdf(x) == pytest.approx(1.0 - front.sum(), abs=1e-12)
            assert d.pdf(x) == pytest.approx(front @ d.exit_rates,
                                             abs=1e-12)

    def test_probe_order_does_not_change_values(self):
        d = random_ph(7, order=6)
        got = [d.sf(10.0), d.sf(1.0), d.pdf(3.0), d.sf(20.0), d.cdf(0.5)]
        fresh = [random_ph(7, order=6).sf(10.0),
                 random_ph(7, order=6).sf(1.0),
                 random_ph(7, order=6).pdf(3.0),
                 random_ph(7, order=6).sf(20.0),
                 random_ph(7, order=6).cdf(0.5)]
        assert got == fresh

    def test_probes_inside_the_cached_window_run_no_steps(self):
        d = random_ph(3, order=4)
        metrics.reset()
        metrics.enable()
        try:
            d.sf(20.0)
            after_first = metrics.snapshot()["counters"]
            d.sf(1.0)
            d.cdf(10.0)
            d.pdf(5.0)
            d.quantile(0.9)
            after_more = metrics.snapshot()["counters"]
        finally:
            metrics.disable()
            metrics.reset()
        assert after_first["phasetype.uniformization.laws"] == 1
        assert after_first["phasetype.uniformization.steps"] > 0
        assert after_more == after_first

    def test_array_inputs_keep_their_shape(self):
        d = erlang(3, mean=1.0)
        x = np.array([[0.5, 1.0, -1.0], [0.0, 2.0, 3.0]])
        for fn in (d.cdf, d.sf, d.pdf):
            out = fn(x)
            assert out.shape == x.shape
            assert out[0, 1] == fn(1.0)
            assert out[1, 0] == fn(0.0)
        assert isinstance(d.cdf(np.float64(1.0)), float)
        assert isinstance(d.cdf(np.array(1.0)), float)
        assert d.sf([1.0, 2.0]).shape == (2,)

    @pytest.mark.parametrize("order", [3, 300])
    def test_probed_law_pickles(self, order):
        d = erlang(order, mean=1.0)
        before = d.sf(1.5)
        back = pickle.loads(pickle.dumps(d))
        assert back == d
        assert back.sf(1.5) == before
        assert back.sf(2.5) == d.sf(2.5)

    def test_large_sparse_law_matches_closed_form(self):
        # Erlang-300 is bidiagonal (0.7% dense): the series runs on CSR.
        k, rate = 300, 2.0
        d = erlang(k, rate=rate)
        for x in [100.0, 150.0, 200.0]:
            assert d.sf(x) == pytest.approx(
                stats.poisson.cdf(k - 1, rate * x), abs=1e-12)
            assert d.pdf(x) == pytest.approx(
                stats.gamma.pdf(x, k, scale=1.0 / rate), abs=1e-12)


class TestSampling:
    def test_sample_scalar(self, rng):
        x = exponential(1.0).sample(rng)
        assert isinstance(x, float) and x >= 0

    def test_sample_mean_converges(self, rng):
        d = erlang(3, mean=2.0)
        xs = d.sample(rng, size=40_000)
        assert xs.mean() == pytest.approx(2.0, rel=0.03)

    def test_sample_variance_converges(self, rng):
        d = hyperexponential([0.4, 0.6], [0.5, 3.0])
        xs = d.sample(rng, size=60_000)
        assert xs.var() == pytest.approx(d.variance, rel=0.1)

    def test_atom_sampled_as_zero(self, rng):
        d = PhaseType([0.5], [[-1.0]])
        xs = d.sample(rng, size=5_000)
        assert np.mean(xs == 0.0) == pytest.approx(0.5, abs=0.03)

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ValueError):
            exponential(1.0).sample(rng, size=-1)


class TestUtilities:
    def test_rescaled(self):
        d = erlang(2, mean=1.0).rescaled(5.0)
        assert d.mean == pytest.approx(5.0)
        assert d.scv == pytest.approx(0.5)

    def test_rescaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exponential(1.0).rescaled(0.0)

    def test_embedded_generator_rows_sum_zero(self):
        Q = erlang(3, mean=1.0).embedded_generator()
        assert np.allclose(Q.sum(axis=1), 0.0)
        assert Q.shape == (4, 4)

    def test_irreducible_representation(self):
        assert erlang(2, mean=1.0).is_irreducible_representation()

    def test_trimmed_removes_unreachable(self):
        # Phase 2 unreachable: alpha mass only on phase 0, no 0->1 rate.
        d = PhaseType([1.0, 0.0], [[-1.0, 0.0], [0.0, -2.0]])
        assert not d.is_irreducible_representation()
        t = d.trimmed()
        assert t.order == 1
        assert t.mean == pytest.approx(d.mean)

    def test_trimmed_noop_when_irreducible(self):
        d = erlang(2, mean=1.0)
        assert d.trimmed() is d
