
import hashlib
import json
import random

import numpy as np
import pytest
from scipy.stats import binom, nbinom

from bugsize.ingest import summarize_phases
from bugsize.simulator import (
    ScenarioConfig,
    binomial,
    binomial_pmf,
    default_scenario,
    generate,
    matched_t_prior,
    negative_binomial,
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
        assert truth_a.as_doc() == truth_b.as_doc()
        assert generate(small_scenario(4))[1].as_doc() != truth_a.as_doc()

    def test_truth_document_keeps_value_types(self):
        doc = json.loads(json.dumps(generate(small_scenario(3))[1].as_doc()))
        for key in ("eventual_sizes", "observed_sizes", "trial_counts"):
            assert all(type(v) is int for row in doc[key] for v in row)
        assert all(type(v) is float for row in doc["detect_rates"] for v in row)
        assert all(type(v) is float for v in doc["p_true"] + doc["per_phase_totals"])
        assert all(type(v) is int for v in doc["runs_per_phase"] + doc["runs_cumulative"])

    def test_degenerate_detection_rate_pins_sizes(self):
        config = small_scenario(1, t_range=(1.0, 1.0), n_trials_range=(7, 7))
        _, truth = generate(config)
        for trials, eventual in zip(truth.trials, truth.eventual):
            assert np.array_equal(eventual, trials)
            assert np.all(np.asarray(eventual) == 7)

    def test_runs_strictly_increasing(self):
        for seed in range(20):
            log, truth = generate(small_scenario(seed))
            runs = truth.runs_cumulative
            assert all(b > a for a, b in zip(runs, runs[1:]))
            # each phase's size parameter, its own total, is positive
            assert all(total >= 1 for total in truth.per_phase_totals)

    def test_eventual_sizes_never_zero(self):
        for seed in range(20):
            _, truth = generate(small_scenario(seed))
            for row in truth.eventual:
                assert np.all(np.asarray(row) >= 1)

    def test_observed_at_most_eventual(self):
        for seed in range(10):
            _, truth = generate(small_scenario(seed))
            for observed, eventual in zip(truth.observed, truth.eventual):
                assert np.all(np.asarray(observed) <= np.asarray(eventual))

    def test_round_trip_through_summaries(self):
        log, truth = generate(small_scenario(9))
        summaries = summarize_phases(log.records, log.runs_per_phase)
        for summary, observed_row in zip(summaries, truth.observed):
            observed_row = np.asarray(observed_row)
            assert summary.observed_total == int(observed_row.sum())
            assert summary.distinct_bugs == int((observed_row >= 1).sum())
        assert [s.runs_cumulative for s in summaries] == truth.runs_cumulative

    def test_shrinking_scenario_generates(self):
        # a huge first phase and tiny later ones: the totals shrink, and the
        # first draw of the latents is kept
        config = ScenarioConfig(
            phases=3,
            bugs_per_phase=(40, 1, 1),
            n_trials_range=(10, 12),
            t_range=(0.8, 0.9),
            p_true=(0.5, 0.5, 0.5),
            seed=0,
        )
        log, truth = generate(config)
        assert truth.per_phase_totals[0] > truth.per_phase_totals[1] + truth.per_phase_totals[2]
        assert all(b > a for a, b in zip(truth.runs_cumulative, truth.runs_cumulative[1:]))


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
    rows = [np.asarray(row) for row in truth.eventual]
    assert all(np.all(row >= 1) and np.all(row <= 1030) for row in rows)


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


# (n, p) on both sides of the n p = 10 switch between the geometric method
# and BTRS, and through the p > 0.5 reflection.
BINOMIAL_CASES = [(1, 0.3), (12, 0.4), (30, 0.33), (30, 0.34), (40, 0.9), (5000, 0.37)]


@pytest.mark.parametrize("n, p", BINOMIAL_CASES)
def test_binomial_matches_exact_law(n, p, chi2_pvalue):
    # 50 000 draws; the gate, p-value above 0.001, was fixed before the
    # first run
    rng = random.Random(f"{n} {p}")
    draws = np.array([binomial(rng, n, p) for _ in range(50_000)])
    assert 0 <= draws.min() and draws.max() <= n
    assert chi2_pvalue(draws, binom(n, p)) > 1e-3


def test_binomial_degenerate_rates_are_exact():
    rng = random.Random(0)
    assert [binomial(rng, n, 0.0) for n in (0, 1, 7, 40_000)] == [0, 0, 0, 0]
    assert [binomial(rng, n, 1.0) for n in (0, 1, 7, 40_000)] == [0, 1, 7, 40_000]
    assert rng.random() == random.Random(0).random()  # no uniform was spent


# sha256 of repr() of the first 2 000 draws of
# random.Random(n).binomialvariate(n, p) on CPython 3.12.1, so that every
# interpreter checks `binomial` against 3.12's stream
BINOMIALVARIATE_DIGESTS = {
    (1, 0.3): "15a7e995e9e27bf2ef9de63cbd25baed1024b8390dda7573cfde812dd113d792",
    (12, 0.4): "8ed298cd0826c3ba0704c2046845bf7304f80a62f3315a503e9ce29bae8a0c93",
    (30, 0.33): "77d2fab43ba8d5db7671ca3ac95a456f9c3979be155fda2431f1c7c4e5453d5e",
    (30, 0.34): "dcc90f4ee4aa26abf1e7bcbd7bfde0c0acce5c605a5655a8aa45945993c19896",
    (40, 0.9): "983dd7a0356c42cab98da12a7b68637086da258b95d2c16881b1800eb01e8b31",
    (5000, 0.37): "0b63a707a5c98b2010f96bf6c60440fbd8b5b480e7be17dd5b87d8238d659c38",
    (0, 0.5): "08a1aa07da184f6f6f2be829cf7bbcc77af63460b78a2cb18a5db0e52c01e998",
    (40_000, 0.999): "033c980b839a48d8b1a2b874f7eafb95d30845c5592bf13e909ab09818af880a",
}


@pytest.mark.parametrize("n, p", list(BINOMIALVARIATE_DIGESTS))
def test_binomial_repeats_binomialvariate(n, p):
    rng = random.Random(n)
    draws = [binomial(rng, n, p) for _ in range(2_000)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == BINOMIALVARIATE_DIGESTS[n, p]


@pytest.mark.parametrize("r", [2.5, 40])
def test_negative_binomial_matches_exact_law(r, chi2_pvalue):
    # P(N = k) = C(k + r - 1, k) p^k (1 - p)^r is scipy's nbinom(r, 1 - p);
    # 50 000 draws, the gate fixed before the first run as above
    p = 0.7
    rng = random.Random(f"nb {r}")
    draws = np.array([negative_binomial(rng, r, p) for _ in range(50_000)])
    assert draws.min() >= 0
    assert chi2_pvalue(draws, nbinom(r, 1 - p)) > 1e-3
