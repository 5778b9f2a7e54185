import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugsize.ingest import PhaseSummary
from bugsize.model import (
    ChainState,
    DiscretePmf,
    InfeasiblePhaseError,
    binomial_pmf,
    log_likelihood,
    log_posterior_S_kernel,
    resolve_for_data,
    sample_hyper,
    sample_n_trials,
    size_biased_pmf,
    size_params,
    solve_beta_hyper,
)


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
            total = hyper.alpha_hat + hyper.beta_hat
            mu = hyper.alpha_hat / total
            sigma2 = mu * (1 - mu) / (total + 1)
            assert np.all(sigma2 < mu * (1 - mu))
            assert np.all(sigma2 > 0)

    def test_single_phase_positive(self):
        hyper = sample_hyper(1, 1234)
        assert hyper.alpha_hat[0] > 0
        assert hyper.beta_hat[0] > 0


class TestSampleNTrials:
    def test_singleton(self):
        rng = np.random.default_rng(0)
        assert sample_n_trials([4], rng) == 4

    def test_proportional_frequencies(self):
        rng = np.random.default_rng(7)
        draws = np.array([sample_n_trials([1, 3], rng) for _ in range(100_000)])
        assert np.mean(draws == 1) == pytest.approx(0.25, abs=0.01)
        assert np.mean(draws == 3) == pytest.approx(0.75, abs=0.01)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            sample_n_trials([0, 0], np.random.default_rng(0))


class TestLogLikelihood:
    def test_single_phase(self):
        assert log_likelihood([2], [1], [0.5]) == pytest.approx(math.log(0.25))

    def test_zero_runs(self):
        q = 0.37
        assert log_likelihood([1], [0], [q]) == pytest.approx(math.log(1 - q))

    def test_two_phases(self):
        value = log_likelihood([1, 3], [1, 2], [0.5, 0.5])
        assert value == pytest.approx(math.log(0.25) + math.log(3 / 16))

    def test_infeasible_size_names_phase(self):
        with pytest.raises(InfeasiblePhaseError) as excinfo:
            log_likelihood([5, 8, 10], [3, 4, 5], [0.5, 0.5, 0.5])
        assert excinfo.value.phase == 3

    def test_boundary_p_rejected(self):
        with pytest.raises(ValueError, match="strictly"):
            log_likelihood([2], [1], [1.0])

    def test_brute_force_equivalence_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            # build per-phase increments keeping every size parameter positive
            while True:
                per_phase = rng.integers(1, 8, size=m)
                F = np.cumsum(per_phase)
                # r_k = F_k - sum_{i<k} F_i over the cumulative totals F
                r = [F[k] - F[:k].sum() for k in range(m)]
                if F[-1] <= 30 and min(r) > 0:
                    break
            N = rng.integers(0, 12, size=m)
            p = rng.uniform(0.05, 0.95, size=m)
            brute = 1.0
            for k in range(m):
                brute *= (
                    math.comb(int(N[k] + r[k] - 1), int(N[k]))
                    * p[k] ** N[k]
                    * (1 - p[k]) ** r[k]
                )
            assert math.exp(log_likelihood(F, N, p)) == pytest.approx(brute, rel=1e-10)


def _two_bug_instance():
    data = [PhaseSummary(1, 3, {7: 2}), PhaseSummary(2, 7, {9: 1})]
    state = ChainState(
        S=[np.array([3]), np.array([2])],
        p=np.array([0.4, 0.6]),
        t=[np.array([0.5]), np.array([0.3])],
        n_trials=[np.array([5]), np.array([4])],
    )
    return data, state


def _brute_kernel_product(S_rows, t_rows, n_rows, p, N):
    f = [sum(row) for row in S_rows]
    F = np.cumsum(f)
    r = [F[k] - F[:k].sum() for k in range(len(f))]
    out = 1.0
    for k in range(len(f)):
        out *= math.comb(int(N[k] + r[k] - 1), int(N[k])) * (1 - p[k]) ** r[k]
    for S_row, t_row, n_row in zip(S_rows, t_rows, n_rows):
        for S, t, n in zip(S_row, t_row, n_row):
            out *= S * math.comb(n, S) * t**S * (1 - t) ** (n - S)
    return out


class TestPosteriorKernel:
    def test_difference_matches_brute_force_ratio(self):
        data, state = _two_bug_instance()
        k_a = log_posterior_S_kernel(state, data)
        state_b = ChainState(
            S=[np.array([2]), np.array([4])],
            p=state.p,
            t=state.t,
            n_trials=state.n_trials,
        )
        k_b = log_posterior_S_kernel(state_b, data)
        brute_a = _brute_kernel_product([[3], [2]], [[0.5], [0.3]], [[5], [4]], [0.4, 0.6], [3, 7])
        brute_b = _brute_kernel_product([[2], [4]], [[0.5], [0.3]], [[5], [4]], [0.4, 0.6], [3, 7])
        assert k_a - k_b == pytest.approx(math.log(brute_a / brute_b), rel=1e-10)

    def test_zero_size_annihilates(self):
        data, state = _two_bug_instance()
        state.S[1][0] = 0
        assert log_posterior_S_kernel(state, data) == -math.inf

    def test_size_above_trials_rejected(self):
        data, state = _two_bug_instance()
        state.S[0][0] = 6
        with pytest.raises(ValueError, match="exceeds"):
            log_posterior_S_kernel(state, data)

    def test_monotone_in_t_at_full_size(self):
        data = [PhaseSummary(1, 3, {7: 2})]
        previous = -math.inf
        for t in (0.2, 0.4, 0.6, 0.8, 0.95):
            state = ChainState(
                S=[np.array([5])],
                p=np.array([0.5]),
                t=[np.array([t])],
                n_trials=[np.array([5])],
            )
            value = log_posterior_S_kernel(state, data)
            assert value > previous
            previous = value

    def test_infeasible_configuration_has_zero_mass(self):
        # three phases where the third's size parameter goes non-positive
        data = [PhaseSummary(j, 3 * j, {j: 2}) for j in (1, 2, 3)]
        state = ChainState(
            S=[np.array([5]), np.array([6]), np.array([2])],
            p=np.array([0.5, 0.5, 0.5]),
            t=[np.array([0.5])] * 3,
            n_trials=[np.array([8])] * 3,
        )
        assert log_posterior_S_kernel(state, data) == -math.inf


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


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
def test_size_params_match_definition(per_phase):
    # r_k = C_k - sum_{i<k} C_i, where C_k = F_1 + ... + F_k
    C = [sum(per_phase[: k + 1]) for k in range(len(per_phase))]
    r = size_params(per_phase)
    assert r == [C[k] - sum(C[:k]) for k in range(len(C))]
    assert all(type(r_k) is int for r_k in r)
    assert size_params([4, 5, 5]) == [4, 5, 1]
