import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bugsize.ingest import PhaseSummary
from bugsize.model import (
    ChainState,
    Hyperparams,
    log_bug_term,
    log_likelihood,
    log_phase_term,
    log_posterior_S_kernel,
    resolve_for_data,
    sample_hyper,
    sample_n_trials,
    solve_beta_hyper,
)
from bugsize.simulator import DiscretePmf, binomial_pmf, size_biased_pmf


class TestSizeBiased:
    def test_binomial_2_half(self):
        h = size_biased_pmf(binomial_pmf(2, 0.5))
        assert np.allclose(h.mass, [0.0, 0.5, 0.5])

    def test_point_mass_is_fixed_point(self):
        f = DiscretePmf([5], [1.0])
        h = size_biased_pmf(f)
        assert h.support.tolist() == [5] and h.mass.tolist() == [1.0]

    def test_two_point_example(self):
        h = size_biased_pmf(DiscretePmf([1, 3], [0.5, 0.5]))
        assert np.allclose(h.mass, [0.25, 0.75])

    def test_point_mass_at_zero_rejected(self):
        with pytest.raises(ValueError, match="zero mean"):
            size_biased_pmf(DiscretePmf([0], [1.0]))

    @settings(max_examples=50)
    @given(
        masses=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        offset=st.integers(0, 3),
    )
    def test_double_bias_is_square_weighting(self, masses, offset):
        mass = np.array(masses) / sum(masses)
        support = np.arange(offset + 1, offset + 1 + len(masses))
        f = DiscretePmf(support, mass)
        twice = size_biased_pmf(size_biased_pmf(f))
        expected = support**2 * mass
        expected = expected / expected.sum()
        assert np.allclose(twice.mass, expected, atol=1e-12)


class TestSolveBetaHyper:
    def test_symmetric(self):
        assert solve_beta_hyper(0.5, 0.125) == pytest.approx((0.5, 0.5))

    def test_uniform(self):
        assert solve_beta_hyper(0.5, 1 / 12) == pytest.approx((1.0, 1.0))

    def test_variance_bound_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve_beta_hyper(0.5, 0.25)

    def test_mean_domain(self):
        with pytest.raises(ValueError, match="inside"):
            solve_beta_hyper(1.2, 0.01)

    @settings(max_examples=100)
    @given(
        mu=st.floats(0.01, 0.99),
        frac=st.floats(0.01, 0.99),
    )
    def test_moment_round_trip(self, mu, frac):
        sigma2 = frac * mu * (1 - mu)
        alpha, beta = solve_beta_hyper(mu, sigma2)
        assert alpha > 0 and beta > 0
        mean = alpha / (alpha + beta)
        var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1))
        assert mean == pytest.approx(mu, abs=1e-12)
        assert var == pytest.approx(sigma2, rel=1e-12)


class TestSampleHyper:
    def test_deterministic_given_seed(self):
        first = sample_hyper(4, 99)
        second = sample_hyper(4, 99)
        assert np.array_equal(first.alpha_hat, second.alpha_hat)
        assert np.array_equal(first.beta_hat, second.beta_hat)

    def test_variance_inside_support(self):
        for seed in range(25):
            hyper = sample_hyper(3, seed)
            alpha, beta = np.asarray(hyper.alpha_hat), np.asarray(hyper.beta_hat)
            total = alpha + beta
            mu = alpha / total
            sigma2 = mu * (1 - mu) / (total + 1)
            assert np.all(sigma2 < mu * (1 - mu))
            assert np.all(sigma2 > 0)

    def test_single_phase_positive(self):
        hyper = sample_hyper(1, 1234)
        assert hyper.alpha_hat[0] > 0
        assert hyper.beta_hat[0] > 0


class TestSampleNTrials:
    def test_singleton(self):
        rng = random.Random(0)
        assert sample_n_trials([4], rng) == 4

    def test_proportional_frequencies(self):
        rng = random.Random(7)
        draws = np.array([sample_n_trials([1, 3], rng) for _ in range(100_000)])
        assert np.mean(draws == 1) == pytest.approx(0.25, abs=0.01)
        assert np.mean(draws == 3) == pytest.approx(0.75, abs=0.01)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            sample_n_trials([0, 0], random.Random(0))


class TestLogLikelihood:
    def test_single_phase(self):
        assert log_likelihood([2], [1], [0.5]) == pytest.approx(math.log(0.25))

    def test_zero_runs(self):
        q = 0.37
        assert log_likelihood([1], [0], [q]) == pytest.approx(math.log(1 - q))

    def test_two_phases(self):
        # phase 2 has total 3 - 1 = 2 and 2 - 1 = 1 run: C(2, 1) / 2 / 4
        value = log_likelihood([1, 3], [1, 2], [0.5, 0.5])
        assert value == pytest.approx(math.log(0.25) + math.log(0.25))

    def test_shrinking_totals_are_in_the_support(self):
        # per-phase totals 5, 3, 2: the phase's own total is its size
        value = log_likelihood([5, 8, 10], [3, 4, 5], [0.5, 0.5, 0.5])
        brute = math.comb(7, 3) / 2**8 * math.comb(3, 1) / 2**4 * math.comb(2, 1) / 2**3
        assert math.exp(value) == pytest.approx(brute, rel=1e-12)

    def test_nonincreasing_input_rejected(self):
        for totals, runs, message in (
            ([5, 5, 10], [3, 4, 5], "totals must strictly increase"),
            ([0, 2], [3, 4], "totals must strictly increase"),
            ([5, 8, 10], [3, 2, 5], "runs must not decrease"),
        ):
            with pytest.raises(ValueError, match=message):
                log_likelihood(totals, runs, [0.5] * len(totals))

    def test_boundary_p_rejected(self):
        with pytest.raises(ValueError, match="strictly"):
            log_likelihood([2], [1], [1.0])

    def test_brute_force_equivalence_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            # per-phase totals r and runs n, in any order; the likelihood
            # reads their cumulative sums
            r = rng.integers(1, 11, size=m)
            n = rng.integers(0, 12, size=m)
            p = rng.uniform(0.05, 0.95, size=m)
            brute = 1.0
            for k in range(m):
                brute *= math.comb(int(n[k] + r[k] - 1), int(n[k])) * p[k] ** n[k] * (1 - p[k]) ** r[k]
            value = log_likelihood(np.cumsum(r), np.cumsum(n), p)
            assert math.exp(value) == pytest.approx(brute, rel=1e-10)


def _two_bug_instance():
    data = [PhaseSummary(1, 3, {7: 2}), PhaseSummary(2, 7, {9: 1})]
    state = ChainState(S=[np.array([3]), np.array([2])], n_trials=[np.array([5]), np.array([4])])
    hyper = Hyperparams(alpha_hat=[2.0, 0.6], beta_hat=[1.5, 3.0], a=[[1.2], [2.0]], b=[[0.7], [1.0]])
    return data, state, hyper


def _beta(x, y):
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


def _brute_kernel_product(S_rows, n_rows, hyper, N):
    """The collapsed kernel as a product of the integrals over t and p:
    phase k's runs N_k - N_{k-1} have the beta-negative-binomial mass of
    its own total, and each bug adds S times its beta-binomial mass."""
    r = [sum(row) for row in S_rows]
    runs = np.diff(N, prepend=0)
    out = 1.0
    for k in range(len(r)):
        alpha, beta = hyper.alpha_hat[k], hyper.beta_hat[k]
        out *= math.comb(int(runs[k] + r[k] - 1), int(runs[k])) * _beta(runs[k] + alpha, r[k] + beta) / _beta(alpha, beta)
    for S_row, n_row, a_row, b_row in zip(S_rows, n_rows, hyper.a, hyper.b):
        for S, n, a, b in zip(S_row, n_row, a_row, b_row):
            out *= S * math.comb(n, S) * _beta(S + a, n - S + b) / _beta(a, b)
    return out


class TestPosteriorKernel:
    def test_difference_matches_brute_force_ratio(self):
        data, state, hyper = _two_bug_instance()
        k_a = log_posterior_S_kernel(state, data, hyper)
        state_b = ChainState(S=[np.array([2]), np.array([4])], n_trials=state.n_trials)
        k_b = log_posterior_S_kernel(state_b, data, hyper)
        brute_a = _brute_kernel_product([[3], [2]], [[5], [4]], hyper, [3, 7])
        brute_b = _brute_kernel_product([[2], [4]], [[5], [4]], hyper, [3, 7])
        assert k_a - k_b == pytest.approx(math.log(brute_a / brute_b), rel=1e-10)

    def test_zero_size_annihilates(self):
        data, state, hyper = _two_bug_instance()
        state.S[1][0] = 0
        assert log_posterior_S_kernel(state, data, hyper) == -math.inf

    def test_size_above_trials_rejected(self):
        data, state, hyper = _two_bug_instance()
        state.S[0][0] = 6
        with pytest.raises(ValueError, match="exceeds"):
            log_posterior_S_kernel(state, data, hyper)

    def test_monotone_in_t_at_full_size(self):
        # with t integrated out, the weight of full size S = n against
        # S = n - 1 grows with the prior mean a / (a + b) of t
        data = [PhaseSummary(1, 3, {7: 2})]
        previous = -math.inf
        for a in (0.25, 0.7, 1.5, 4.0, 19.0):  # prior means 0.2 .. 0.95 at b = 1
            hyper = Hyperparams(alpha_hat=[1.0], beta_hat=[1.0], a=[[a]], b=[[1.0]])
            full, short = (
                log_posterior_S_kernel(ChainState(S=[np.array([S])], n_trials=[np.array([5])]), data, hyper)
                for S in (5, 4)
            )
            assert full - short > previous
            previous = full - short

    def test_shrinking_totals_match_brute_force_ratio(self):
        # per-phase totals (5, 6, 2), then (5, 6, 4): phase 3 shrinks below
        # phase 1 in both states, and both have positive mass
        data = [PhaseSummary(j, 3 * j, {j: 2}) for j in (1, 2, 3)]
        n, N = [[8]] * 3, [3, 6, 9]
        hyper = Hyperparams(
            alpha_hat=[1.0, 2.0, 0.5], beta_hat=[1.0, 1.5, 2.5], a=[[1.0], [0.8], [3.0]], b=[[2.0], [1.0], [1.3]]
        )

        def state(S_3):
            return ChainState(S=[[5], [6], [S_3]], n_trials=n)

        k_a = log_posterior_S_kernel(state(2), data, hyper)
        k_b = log_posterior_S_kernel(state(4), data, hyper)
        assert math.isfinite(k_a) and math.isfinite(k_b)
        brute_a = _brute_kernel_product([[5], [6], [2]], n, hyper, N)
        brute_b = _brute_kernel_product([[5], [6], [4]], n, hyper, N)
        assert k_a - k_b == pytest.approx(math.log(brute_a / brute_b), rel=1e-10)


class TestCollapsedTerms:
    """Each collapsed term is the integral of the uncollapsed term against
    its Beta prior, computed by quadrature, once the constants the term
    drops are added back.  The Beta density's algebraic factor
    x^(shape - 1) (1 - x)^(shape - 1) is quad's weight (QAWS), so shapes
    below 1, whose densities are unbounded at an end, integrate as
    accurately as the rest."""

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.4, 2.5), (3.0, 0.6), (5.3, 4.2)])
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    def test_bug_term_integrates_t_out(self, n, a, b):
        log_beta_ab = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        worst = 0.0
        for S in range(1, n + 1):
            # S C(n, S) t^S (1 - t)^(n - S) times the Beta(a, b) density
            integral, _ = quad(
                lambda t: S * math.comb(n, S) * t**S * (1.0 - t) ** (n - S) / math.exp(log_beta_ab),
                0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0), epsabs=0.0, epsrel=1e-12,
            )
            dropped = math.lgamma(n + 1.0) - math.lgamma(n + a + b) - log_beta_ab
            collapsed = math.exp(log_bug_term(S, n, a, b) + dropped)
            worst = max(worst, abs(collapsed - integral) / integral)
        assert worst < 1e-9

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.3, 2.0), (2.5, 0.7), (6.0, 9.0)])
    @pytest.mark.parametrize("runs", [0, 1, 7, 60])
    def test_phase_term_integrates_p_out(self, runs, alpha, beta):
        log_beta_ab = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
        worst = 0.0
        for F in (1, 2, 3, 10, 45):
            # NB(runs; F, p) = C(runs + F - 1, runs) p^runs (1 - p)^F times
            # the Beta(alpha, beta) density
            integral, _ = quad(
                lambda p: math.comb(runs + F - 1, runs) * p**runs * (1.0 - p) ** F / math.exp(log_beta_ab),
                0.0, 1.0, weight="alg", wvar=(alpha - 1.0, beta - 1.0), epsabs=0.0, epsrel=1e-12,
            )
            dropped = math.lgamma(runs + alpha) - math.lgamma(runs + 1.0) - log_beta_ab
            collapsed = math.exp(log_phase_term(F, runs, alpha, beta) + dropped)
            worst = max(worst, abs(collapsed - integral) / integral)
        assert worst < 1e-9


class TestResolveForData:
    def test_defaults(self):
        data = [PhaseSummary(1, 5, {1: 2, 2: 3}), PhaseSummary(2, 9, {3: 1})]
        hyper = resolve_for_data(sample_hyper(2, 0), data)
        assert hyper.m_weights[0][0] == [2, 4, 6, 8]
        assert len(hyper.a[0]) == 2

    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.0, 2.0, 3.0], [1.0]], "phase 1: expected 2 per-bug values"),
            ([[1.0, 2.0], []], "phase 2: expected 1 per-bug values"),
            ([[1.0, 2.0]], "must list one row per phase"),
        ],
    )
    def test_per_bug_rows_of_wrong_shape_rejected(self, name, rows, message):
        data = [PhaseSummary(1, 5, {1: 2, 2: 3}), PhaseSummary(2, 9, {3: 1})]
        hyper = sample_hyper(2, 0)
        setattr(hyper, name, rows)
        with pytest.raises(ValueError, match=message):
            resolve_for_data(hyper, data)

    def test_phase_count_mismatch(self):
        data = [PhaseSummary(1, 5, {1: 2})]
        with pytest.raises(ValueError, match="phases"):
            resolve_for_data(sample_hyper(2, 0), data)
