"""The four ``ClassDistributions`` kinds and the selector surface.

One configuration per kind: all-exponential Figure-2/3 workload
(``exact``), Erlang service under Poisson arrivals (``moment``), an
Erlang *arrival* stream (``unsupported``), and an overloaded hot class
(``saturated``) — plus the selector grammar that names the columns
every reporting surface shares.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.core import GangSchedulingModel, SystemConfig
from repro.core.config import ClassConfig
from repro.core.response import waiting_time_distribution
from repro.errors import UnstableSystemError, ValidationError
from repro.metrics import (
    ClassDistributions,
    MetricSelector,
    metric_values,
    parse_metric,
    parse_metrics,
)
from repro.obs import metrics
from repro.phasetype import erlang, exponential
from repro.scenario import OutputSpec, Scenario, SystemSpec, run
from repro.utils.validation import (
    check_subgenerator,
    check_subprobability_vector,
)
from repro.workloads.presets import fig23_config


def _solve(config):
    return GangSchedulingModel(config).solve()


def _class(arrival, service, *, name=""):
    return ClassConfig(partition_size=2, arrival=arrival, service=service,
                       quantum=exponential(mean=2.0),
                       overhead=exponential(mean=0.1), name=name)


@pytest.fixture(scope="module")
def exact_solved():
    return _solve(fig23_config(0.4, 2.0))


@pytest.fixture(scope="module")
def moment_solved():
    config = SystemConfig(processors=4, classes=(
        _class(exponential(0.3), erlang(2, mean=1.0)),))
    return _solve(config)


@pytest.fixture(scope="module")
def unsupported_solved():
    config = SystemConfig(processors=4, classes=(
        _class(erlang(2, mean=3.0), exponential(1.0)),))
    return _solve(config)


@pytest.fixture(scope="module")
def saturated_solved():
    # The hot class is hopelessly overloaded (lambda = 5 against mu = 1
    # on two partitions); the cold class keeps the system solvable.
    config = SystemConfig(processors=4, classes=(
        _class(exponential(5.0), exponential(1.0), name="hot"),
        _class(exponential(0.2), exponential(1.0), name="cold")))
    return _solve(config)


class TestExact:
    def test_kind_and_laws(self, exact_solved):
        dist = exact_solved.distributions(0)
        assert dist.kind == "exact"
        assert dist.supported
        assert dist.response is not None and dist.waiting is not None
        assert "tagged-job" in dist.detail
        assert dist.arrival_poisson

    def test_mean_matches_littles_law(self, exact_solved):
        for p in range(len(exact_solved.classes)):
            dist = exact_solved.distributions(p)
            assert dist.mean == pytest.approx(
                exact_solved.classes[p].mean_response_time, rel=1e-6)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    def test_tail_of_quantile_inverts(self, exact_solved, q):
        dist = exact_solved.distributions(0)
        assert dist.tail(dist.quantile(q)) == pytest.approx(1.0 - q,
                                                            abs=1e-6)

    def test_quantiles_are_monotone(self, exact_solved):
        dist = exact_solved.distributions(0)
        p50, p95, p99 = (dist.quantile(q) for q in (0.5, 0.95, 0.99))
        assert 0.0 < p50 < p95 < p99 < math.inf

    def test_waiting_has_atom_at_zero(self, exact_solved):
        """Some arrivals enter service immediately, so the waiting law
        carries a point mass at zero and ``Q(q)`` stays 0 below it."""
        waiting = exact_solved.distributions(0).waiting
        atom = waiting.cdf(0.0)
        assert 0.0 < atom < 1.0
        assert waiting.quantile(atom / 2.0) == 0.0

    def test_loss_probability_decreases_in_capacity(self, exact_solved):
        dist = exact_solved.distributions(0)
        losses = [dist.loss_probability(k) for k in (1, 2, 5, 20)]
        assert all(l is not None for l in losses)
        assert losses == sorted(losses, reverse=True)
        assert 0.0 <= losses[-1] < losses[0] <= 1.0
        with pytest.raises(ValueError):
            dist.loss_probability(0)

    def test_distributions_are_model_cached(self, exact_solved):
        assert exact_solved.distributions(0) is exact_solved.distributions(0)


#: ``(p50, p99)`` per class of ``fig23_config(rate, 2.0)``, computed
#: when every distribution-function probe still ran its own
#: uniformization from scratch.
PINNED_LADDER = {
    0.2: [(1.6618317024416687, 9.882166021612253),
          (1.1082230326666558, 6.32566336789562),
          (0.7591224945894807, 5.011480355864029),
          (0.564931196111524, 4.638741980032604)],
    0.3: [(1.81751145419293, 10.548988873736462),
          (1.3295549981715518, 7.283409782934335),
          (1.0288683116886885, 5.982045326267858),
          (0.8824889844091264, 5.599222964404426)],
    0.4: [(2.2837568643362776, 13.968415263199596),
          (1.777499060560237, 10.297231232315184),
          (1.5329645843466848, 8.536629273069565),
          (1.4494581911932949, 8.008058278772282)],
}

#: The quantum grid of ``benchmarks/test_bench_tail.py`` (at rate 0.4).
BENCH_TAIL_GRID = (0.5, 1.0, 2.0, 3.0, 4.5)


@pytest.fixture(scope="module")
def ladder():
    return {rate: _solve(fig23_config(rate, 2.0)) for rate in PINNED_LADDER}


class TestLadderLaws:
    """The fig23 load ladder's laws: pinned quantiles, valid inputs."""

    def test_quantiles_match_pinned_values(self, ladder):
        for rate, rows in PINNED_LADDER.items():
            for p, (p50, p99) in enumerate(rows):
                dist = ladder[rate].distributions(p)
                assert dist.quantile(0.5) == pytest.approx(p50, rel=1e-9)
                assert dist.quantile(0.99) == pytest.approx(p99, rel=1e-9)

    @staticmethod
    def _assert_valid(law):
        # The internal laws skip construction-time validation; the
        # validators must accept them unchanged.
        assert np.array_equal(check_subgenerator(law.S), law.S)
        assert np.array_equal(check_subprobability_vector(law.alpha),
                              law.alpha)

    def test_ladder_laws_are_valid_phase_types(self, ladder):
        for solved in ladder.values():
            for p in range(len(solved.classes)):
                dist = solved.distributions(p)
                self._assert_valid(dist.response)
                self._assert_valid(dist.waiting)

    @pytest.mark.slow
    def test_bench_tail_laws_are_valid_phase_types(self):
        for q in BENCH_TAIL_GRID:
            solved = _solve(fig23_config(0.4, q))
            for p in range(len(solved.classes)):
                dist = solved.distributions(p)
                assert dist.kind == "exact"
                self._assert_valid(dist.response)
                self._assert_valid(dist.waiting)

    def test_waiting_law_reuses_the_response_chain(self, ladder):
        solved = ladder[0.2]
        for p in range(len(solved.classes)):
            dist = solved.distributions(p)
            assert dist.waiting == waiting_time_distribution(solved, p)
            assert dist.waiting == waiting_time_distribution(
                solved, p, response=dist.response)


class TestObservability:
    def test_traced_run_emits_spans_and_steps(self, tmp_path):
        scenario = Scenario(
            name="traced-p99",
            system=SystemSpec(preset="fig23",
                              args={"quantum_mean": 2.0,
                                    "arrival_rate": 0.2}),
            output=OutputSpec(metrics=("mean", "p99")))
        path = tmp_path / "trace.jsonl"
        with obs.session(trace_path=path):
            run(scenario)
        summary = obs.summarize_trace(path)
        classes = len(fig23_config(0.2, 2.0).classes)
        assert summary.spans["metrics.build"]["count"] == classes
        assert summary.spans["metrics.quantile"]["count"] == classes
        counters = summary.metrics["counters"]
        assert counters["phasetype.uniformization.laws"] == classes
        assert counters["phasetype.uniformization.steps"] > 0
        report = obs.render_report(summary)
        assert "distributions:" in report
        assert "phasetype.uniformization.steps" in report

    def test_untraced_evaluation_records_nothing(self):
        solved = _solve(fig23_config(0.2, 2.0))
        metrics.reset()
        assert not obs.tracing_enabled() and not metrics.enabled()
        assert metric_values(solved, 0, ("p99", "tail@5"))[0] > 0.0
        assert metrics.snapshot()["counters"] == {}


class TestMoment:
    def test_kind_and_mean_preserved(self, moment_solved):
        dist = moment_solved.distributions(0)
        assert dist.kind == "moment"
        assert "distributional Little" in dist.detail
        assert dist.waiting is None
        assert dist.mean == pytest.approx(
            moment_solved.classes[0].mean_response_time, rel=1e-9)

    def test_quantiles_usable(self, moment_solved):
        dist = moment_solved.distributions(0)
        q = dist.quantile(0.95)
        assert math.isfinite(q) and q > dist.mean
        assert dist.tail(q) == pytest.approx(0.05, abs=1e-6)

    def test_loss_probability_available(self, moment_solved):
        assert moment_solved.distributions(0).loss_probability(10) is not None


class TestUnsupported:
    def test_marker_semantics(self, unsupported_solved):
        dist = unsupported_solved.distributions(0)
        assert dist.kind == "unsupported"
        assert not dist.supported
        assert "PASTA" in dist.detail and "order-2" in dist.detail
        assert math.isnan(dist.mean)
        assert math.isnan(dist.quantile(0.99))
        assert math.isnan(dist.tail(1.0))
        assert dist.loss_probability(5) is None


class TestSaturated:
    def test_partial_saturation_degrades_not_raises(self, saturated_solved):
        hot = saturated_solved.distributions(0)
        cold = saturated_solved.distributions(1)
        assert hot.kind == "saturated"
        assert cold.kind == "exact"

    def test_marker_semantics(self, saturated_solved):
        hot = saturated_solved.distributions(0)
        assert hot.mean == math.inf
        assert hot.quantile(0.99) == math.inf
        assert hot.quantile(0.0) == 0.0
        assert hot.tail(1e9) == 1.0
        assert hot.loss_probability(1000) == 1.0

    def test_marker_constructor(self):
        marker = ClassDistributions.saturated()
        assert marker.kind == "saturated" and not marker.supported

    def test_all_saturated_still_raises(self):
        config = SystemConfig(processors=4, classes=(
            _class(exponential(5.0), exponential(1.0)),))
        with pytest.raises(UnstableSystemError):
            _solve(config)


class TestMetricValues:
    def test_values_match_distribution_calls(self, exact_solved):
        dist = exact_solved.distributions(0)
        values = metric_values(exact_solved, 0,
                               ("mean", "p95", "tail@10"))
        assert values[0] == pytest.approx(
            exact_solved.classes[0].measures.mean_response_time)
        assert values[1] == pytest.approx(dist.quantile(0.95))
        assert values[2] == pytest.approx(dist.tail(10.0))

    def test_mean_only_never_builds_distributions(self, moment_solved):
        values = metric_values(moment_solved, 0, ("mean",))
        assert values == (
            pytest.approx(moment_solved.classes[0].measures
                          .mean_response_time),)

    def test_saturated_values(self, saturated_solved):
        values = metric_values(saturated_solved, 0, ("p99", "tail@5"))
        assert values == (math.inf, 1.0)


class TestSelectorGrammar:
    def test_quantile_value_is_a_level(self):
        sel = parse_metric("p99")
        assert sel == MetricSelector(raw="p99", kind="quantile", value=0.99)
        assert parse_metric("p99.9").value == pytest.approx(0.999)

    def test_tail_and_mean(self):
        assert parse_metric("tail@2.5") == MetricSelector(
            raw="tail@2.5", kind="tail", value=2.5)
        assert parse_metric("mean").kind == "mean"

    @pytest.mark.parametrize("bad", ["p0", "p100", "pq", "tail@", "q95", ""])
    def test_unknown_selectors_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_metric(bad)

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            parse_metrics(("mean", "p99", "mean"))
