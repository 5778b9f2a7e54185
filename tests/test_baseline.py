import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugsize.baseline import (
    BaselineState,
    ComparisonConfig,
    DegenerateUpdateError,
    PhaseDetection,
    _wins,
    baseline_stopping_phase,
    baseline_update,
    compare_models,
    initial_state,
    phase_log_evidence,
    posterior_remaining,
)
from bugsize.simulator import default_scenario, generate


def detection(counts, q_detect):
    q_detect = tuple(q_detect)
    return PhaseDetection(counts=tuple(counts), q_detect=q_detect, q_none=1.0 - sum(q_detect))


class TestBaselineUpdate:
    def test_no_detection_phase_is_fixed_point(self):
        state = initial_state(10, 0.5)
        updated = baseline_update(state, detection([0], [0.0]))
        assert updated.p == state.p
        assert updated.q == state.q
        assert updated.phase == 1

    def test_recursion_example(self):
        state = initial_state(10, 0.5)
        updated = baseline_update(state, detection([2], [0.4]))
        assert updated.p == pytest.approx(0.375)
        assert updated.q == pytest.approx(0.625)
        assert updated.detected_cum == 2

    def test_probabilities_stay_complementary(self):
        state = initial_state(12, 0.35)
        for counts, q in [([2, 1], [0.2, 0.15]), ([0, 3], [0.1, 0.3]), ([1, 0], [0.25, 0.05])]:
            state = baseline_update(state, detection(counts, q))
            assert abs(state.p + state.q - 1.0) <= 1e-12

    def test_degenerate_denominator(self):
        # p can only reach 1.0 through float rounding; the update must
        # still fail cleanly rather than divide by zero
        state = BaselineState(n_total=5, p=1.0, q=0.0, detected_cum=0, phase=0)
        bad = PhaseDetection(counts=(1,), q_detect=(1.0,), q_none=0.0)
        with pytest.raises(DegenerateUpdateError):
            baseline_update(state, bad)

    def test_overdetection_rejected(self):
        state = initial_state(3, 0.5)
        with pytest.raises(ValueError, match="exceed"):
            baseline_update(state, detection([4], [0.4]))

    @settings(max_examples=300)
    @given(
        p0=st.floats(0.001, 0.999),
        q1=st.floats(0.0, 0.5),
        q2=st.floats(0.0, 0.4),
        counts=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    def test_complementarity_random(self, p0, q1, q2, counts):
        state = initial_state(20, p0)
        updated = baseline_update(state, detection(list(counts), [q1, q2]))
        assert abs(updated.p + updated.q - 1.0) <= 1e-12

    def test_update_depends_only_on_count_sums(self):
        # splitting the same totals across classes differently changes nothing
        state = initial_state(20, 0.4)
        a = baseline_update(state, detection([3, 1], [0.2, 0.3]))
        b = baseline_update(state, detection([1, 3], [0.3, 0.2]))
        assert (a.p, a.q, a.detected_cum) == (b.p, b.q, b.detected_cum)


class TestPosteriorRemaining:
    def test_zero_faults_term(self):
        state = baseline_update(initial_state(6, 0.5), detection([2], [0.4]))
        assert posterior_remaining(state, 0) == pytest.approx(state.q**4)

    def test_pmf_sums_to_one(self):
        state = baseline_update(initial_state(9, 0.37), detection([3], [0.45]))
        total = sum(posterior_remaining(state, v) for v in range(state.remaining_pool + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_exhausted_population(self):
        state = baseline_update(initial_state(2, 0.5), detection([2], [0.4]))
        assert posterior_remaining(state, 0) == 1.0
        assert posterior_remaining(state, 1) == 0.0

    def test_out_of_range_is_zero(self):
        state = initial_state(4, 0.5)
        assert posterior_remaining(state, 5) == 0.0
        assert posterior_remaining(state, -1) == 0.0

    def test_matches_brute_force_bayes_update(self):
        # the closed-form recursion must equal the direct Bayes update of
        # the binomial prior against the multinomial detection likelihood
        state = baseline_update(initial_state(10, 0.5), detection([2], [0.4]))
        det = detection([1, 2], [0.15, 0.25])
        updated = baseline_update(state, det)

        pool, total = state.remaining_pool, det.total
        raw = []
        for v in range(pool - total + 1):
            w = total + v
            prior = posterior_remaining(state, w)
            multinomial = (
                math.factorial(w)
                / (math.prod(math.factorial(c) for c in det.counts) * math.factorial(v))
                * math.prod(q**c for q, c in zip(det.q_detect, det.counts))
                * det.q_none**v
            )
            raw.append(prior * multinomial)
        brute = np.array(raw) / sum(raw)
        closed = np.array([posterior_remaining(updated, v) for v in range(len(raw))])
        assert np.allclose(brute, closed, atol=1e-14)


class TestStoppingPhase:
    def test_exhausting_all_faults_stops_immediately(self):
        detections = [detection([5], [0.5]), detection([5], [0.5])]
        assert baseline_stopping_phase(detections, 10, 0.5, 0.3) == 2
        assert baseline_stopping_phase(detections, 10, 0.5, 0.001) == 2

    def test_no_detections_continues(self):
        detections = [detection([0], [0.5])] * 2
        assert baseline_stopping_phase(detections, 8, 0.9, 0.05) is None

    def test_probability_sequence_monotone_when_detecting(self):
        state = initial_state(6, 0.6)
        values = []
        for counts in ([2], [2], [1]):
            state = baseline_update(state, detection(counts, [0.5]))
            values.append(posterior_remaining(state, 0))
        assert values == sorted(values)

    def test_monotone_in_delta(self):
        detections = [detection([3], [0.45]), detection([2], [0.45]), detection([1], [0.45])]
        phases = []
        for delta in (0.01, 0.1, 0.4, 0.9):
            phase = baseline_stopping_phase(detections, 7, 0.5, delta)
            phases.append(math.inf if phase is None else phase)
        assert phases == sorted(phases, reverse=True)


class TestEvidence:
    def test_matches_direct_normalizer(self):
        state = baseline_update(initial_state(10, 0.5), detection([2], [0.4]))
        det = detection([1, 2], [0.15, 0.25])
        pool, total = state.remaining_pool, det.total
        direct = sum(
            posterior_remaining(state, total + v)
            * math.factorial(total + v)
            / (math.prod(math.factorial(c) for c in det.counts) * math.factorial(v))
            * math.prod(q**c for q, c in zip(det.q_detect, det.counts))
            * det.q_none**v
            for v in range(pool - total + 1)
        )
        assert math.exp(phase_log_evidence(state, det)) == pytest.approx(direct, rel=1e-12)

    def test_impossible_counts_have_no_evidence(self):
        # a class with detection probability 0 cannot have detected faults
        state = initial_state(10, 0.5)
        assert phase_log_evidence(state, detection([1, 2], [0.0, 0.25])) == -math.inf
        assert phase_log_evidence(state, detection([11], [0.5])) == -math.inf


class TestCompareModels:
    def test_tie_convention(self):
        assert _wins([1.0, 2.0], [1.0, 3.0]) == 0.75  # tie counts half

    def test_deterministic_given_seed(self):
        report_a = compare_models(default_scenario(0), trials=4, seed=13)
        report_b = compare_models(default_scenario(0), trials=4, seed=13)
        assert report_a == report_b

    def test_trials_draw_distinct_scenario_seeds(self, monkeypatch):
        import bugsize.baseline as baseline_mod

        def seeds_of(seed):
            seeds = []

            def recording(config):
                seeds.append(config.seed)
                return generate(config)

            monkeypatch.setattr(baseline_mod, "generate", recording)
            quick = ComparisonConfig(iterations=40, burn_in=10)
            compare_models(default_scenario(0), trials=3, seed=seed, comparison=quick)
            return seeds

        seeds = seeds_of(13)
        assert len(set(seeds)) == 3 and all(0 <= s < 2**64 for s in seeds)
        assert seeds_of(13) == seeds
        assert not set(seeds_of(14)) & set(seeds)

    def test_report_fields_sane(self):
        report = compare_models(default_scenario(0), trials=6, seed=5)
        assert 0.0 <= report.win_fraction <= 1.0
        assert report.scored_trials + report.skipped_trials == report.trials
        assert report.relative_mse_size_biased >= 0
        assert report.relative_mse_baseline >= 0
        doc = report.as_doc()
        assert set(doc) == {
            "trials", "scored_trials", "skipped_trials", "win_fraction",
            "relative_mse_size_biased", "relative_mse_baseline", "seed",
        }

    def test_comparison_config_knobs(self):
        report = compare_models(
            default_scenario(0),
            trials=3,
            seed=2,
            comparison=ComparisonConfig(q_detect=0.3, iterations=300, burn_in=100),
        )
        assert report.scored_trials >= 1
