
import numpy as np
import pytest
from scipy.stats import binom

from bugsize.ingest import summarize_phases
from bugsize.simulator import (
    ScenarioConfig,
    ScenarioInfeasibleError,
    binomial_pmf,
    default_scenario,
    generate,
    matched_t_prior,
    oracle_hyperparams,
    size_biased_pmf,
)


def small_scenario(seed=0, **overrides):
    base = dict(
        phases=2,
        bugs_per_phase=(3, 2),
        n_trials_range=(5, 12),
        t_range=(0.3, 0.8),
        p_true=(0.7, 0.7),
        seed=seed,
        exposure_offset=20.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGenerate:
    def test_deterministic(self):
        log_a, truth_a = generate(small_scenario(3))
        log_b, truth_b = generate(small_scenario(3))
        assert log_a.records == log_b.records
        assert log_a.runs_per_phase == log_b.runs_per_phase
        assert all(
            np.array_equal(x, y) for x, y in zip(truth_a.eventual, truth_b.eventual)
        )

    def test_degenerate_detection_rate_pins_sizes(self):
        config = small_scenario(1, t_range=(1.0, 1.0), n_trials_range=(7, 7))
        _, truth = generate(config)
        for trials, eventual in zip(truth.trials, truth.eventual):
            assert np.array_equal(eventual, trials)
            assert np.all(eventual == 7)

    def test_runs_strictly_increasing(self):
        for seed in range(20):
            log, truth = generate(small_scenario(seed))
            runs = truth.runs_cumulative
            assert all(b > a for a, b in zip(runs, runs[1:]))
            # r_k = C_k - sum_{i<k} C_i over the cumulative totals C
            C = np.cumsum(truth.per_phase_totals)
            assert all(C[k] - C[:k].sum() > 0 for k in range(len(C)))

    def test_eventual_sizes_never_zero(self):
        for seed in range(20):
            _, truth = generate(small_scenario(seed))
            for row in truth.eventual:
                assert np.all(row >= 1)

    def test_observed_at_most_eventual(self):
        for seed in range(10):
            _, truth = generate(small_scenario(seed))
            for observed, eventual in zip(truth.observed, truth.eventual):
                assert np.all(observed <= eventual)

    def test_round_trip_through_summaries(self):
        log, truth = generate(small_scenario(9))
        summaries = summarize_phases(log.records, log.runs_per_phase)
        for summary, observed_row in zip(summaries, truth.observed):
            assert summary.observed_total == int(observed_row.sum())
            assert summary.distinct_bugs == int((observed_row >= 1).sum())
        assert [s.runs_cumulative for s in summaries] == truth.runs_cumulative

    def test_infeasible_scenario_raises(self):
        # a huge first phase and a tiny third phase cannot satisfy the
        # size-parameter positivity constraint
        config = ScenarioConfig(
            phases=3,
            bugs_per_phase=(40, 1, 1),
            n_trials_range=(10, 12),
            t_range=(0.8, 0.9),
            p_true=(0.5, 0.5, 0.5),
            seed=0,
            max_retries=50,
        )
        with pytest.raises(ScenarioInfeasibleError):
            generate(config)


def test_size_biased_binomial_mean():
    # size-biased Binomial(n, t) has mean 1 + (n - 1) t
    n, t = 9, 0.4
    pmf = size_biased_pmf(binomial_pmf(n, t))
    assert pmf.mean() == pytest.approx(1 + (n - 1) * t, abs=1e-12)
    rng = np.random.default_rng(123)
    draws = pmf.sample(rng, size=200_000)
    assert draws.min() >= 1
    assert draws.mean() == pytest.approx(1 + (n - 1) * t, abs=0.01)


@pytest.mark.parametrize("n", [1030, 20_000])
def test_binomial_mean_at_large_trial_counts(n):
    # math.comb(n, k) as a float overflows from n = 1030; the log-space
    # pmf must keep both means exact: n t, and n t + 1 - t size-biased
    t = 0.37
    pmf = binomial_pmf(n, t)
    assert pmf.mean() == pytest.approx(n * t, rel=1e-12)
    assert size_biased_pmf(pmf).mean() == pytest.approx(n * t + 1 - t, rel=1e-12)


@pytest.mark.parametrize("n", [14, 1030, 30_000])
@pytest.mark.parametrize("t", [0.03, 0.37, 0.9])
def test_binomial_pmf_matches_scipy(n, t):
    pmf = binomial_pmf(n, t)
    reference = binom.pmf(pmf.support, n, t)
    held = reference > 1e-300
    assert held.sum() >= min(n, 100)
    np.testing.assert_allclose(pmf.mass[held], reference[held], rtol=1e-9, atol=0)
    assert np.all(pmf.mass[~held] <= 1e-290)
    assert pmf.mass.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 37, 1030])
@pytest.mark.parametrize("t", [0.03, 0.37, 1.0])
def test_size_biased_binomial_is_shifted_binomial(n, t):
    # the identity the simulator draws eventual sizes by
    pmf = size_biased_pmf(binomial_pmf(n, t))
    shifted = np.zeros(n + 1)
    shifted[1:] = binom.pmf(np.arange(n), n - 1, t)
    np.testing.assert_allclose(pmf.mass, shifted, rtol=0, atol=1e-12)


def test_binomial_degenerate_rates_are_point_masses():
    assert binomial_pmf(5, 0.0).mass.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert binomial_pmf(5, 1.0).mass.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def test_generate_at_large_trial_counts():
    log, truth = generate(small_scenario(n_trials_range=(1030, 1030)))
    assert all(np.all(row >= 1) and np.all(row <= 1030) for row in truth.eventual)


def test_matched_t_prior_round_trip():
    a, b = matched_t_prior((0.35, 0.85))
    alpha = a + 1.0
    mean = alpha / (alpha + b)
    var = alpha * b / ((alpha + b) ** 2 * (alpha + b + 1))
    assert mean == pytest.approx(0.6, abs=1e-12)
    assert var == pytest.approx(0.5**2 / 12, rel=1e-12)


def test_default_scenario_valid():
    config = default_scenario(5)
    log, truth = generate(config)
    assert len(truth.per_phase_totals) == config.phases
    assert config.seed == 5


def test_scenario_config_validation():
    with pytest.raises(ValueError, match="p_true"):
        small_scenario(p_true=(1.5, 0.5))
    with pytest.raises(ValueError, match="bugs_per_phase"):
        small_scenario(bugs_per_phase=(3,))
    with pytest.raises(ValueError, match="n_trials_range must list two values"):
        small_scenario(n_trials_range=(6,))
    with pytest.raises(ValueError, match="t_range must list two values"):
        small_scenario(t_range=(0.3, 0.5, 0.8))


def test_oracle_hyperparams_pin_logged_bugs():
    config = small_scenario(9)
    log, truth = generate(config)
    summaries = summarize_phases(log.records, log.runs_per_phase)
    hyper = oracle_hyperparams(truth, config.t_range)
    assert (hyper.a, hyper.b) == matched_t_prior(config.t_range)
    assert hyper.alpha_hat == [1.0, 1.0] and hyper.beta_hat == [1.0, 1.0]
    for summary, row, n_row, s_row in zip(summaries, hyper.m_weights, truth.trials, truth.observed):
        assert len(row) == summary.distinct_bugs
        assert row == [[n] for n, s in zip(n_row, s_row) if s >= 1]
