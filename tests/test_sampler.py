import hashlib
import math
import random
from fractions import Fraction
from functools import reduce
from math import fsum
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import bugsize.model as model_mod
import bugsize.sampler as sampler_mod
from bugsize.ingest import PhaseSummary
from bugsize.model import (
    ChainState,
    Hyperparams,
    flat_hyperparams,
    log_posterior_S_kernel,
    resolve_for_data,
    sample_hyper,
)
from bugsize.sampler import (
    ChainDiagnostics,
    InitializationError,
    PosteriorSummary,
    SamplerConfig,
    chain_rng,
    diagnostics,
    effective_sample_size,
    gibbs_update_p,
    gibbs_update_t,
    init_state,
    mh_log_alpha,
    mh_update_S,
    run_chain,
    split_r_hat,
)


class RecordingRng:
    """Captures Beta parameters instead of sampling."""

    def __init__(self):
        self.calls = []

    def betavariate(self, a, b):
        self.calls.append((float(a), float(b)))
        return 0.5


def _single_bug_setup(s=3, n=10, N=5, a=1.0, b=1.0, alpha=1.0, beta=1.0):
    data = [PhaseSummary(1, N, {1: s})]
    hyper = Hyperparams(alpha_hat=[alpha], beta_hat=[beta], a=a, b=b)
    hyper.m_weights = [[np.array([n])]]
    resolved = resolve_for_data(hyper, data)
    state = ChainState(S=[np.array([s])], n_trials=[np.array([n])])
    return data, resolved, state


def _three_phase_setup():
    data = [
        PhaseSummary(1, 10, {1: 1, 2: 2}),
        PhaseSummary(2, 25, {3: 2, 4: 1}),
        PhaseSummary(3, 45, {5: 3, 6: 2}),
    ]
    hyper = Hyperparams(
        alpha_hat=[2.0, 0.7, 3.5],
        beta_hat=[1.5, 2.5, 0.8],
        a=[[1.0, 2.5], [0.6, 1.0], [3.0, 1.2]],
        b=[[1.0, 0.9], [2.0, 1.4], [1.1, 4.0]],
    )
    return data, hyper, _three_phase_state()


def _three_phase_state():
    # per-phase totals (5, 6, 6), runs per phase (10, 15, 20)
    return ChainState(
        S=[np.array([3, 2]), np.array([4, 2]), np.array([4, 2])],
        n_trials=[np.array([8, 6]), np.array([9, 7]), np.array([10, 6])],
    )


def _beta(x, y):
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


def _reference_log_alpha(state, hyper, data, i, j, proposed, offset=0.0):
    """The acceptance ratio from two full-kernel passes (plus a constant)."""
    current = int(state.S[j][i])
    lam = max(int(data[j].observed_sizes[i]), 1)
    if proposed < lam or proposed > state.n_trials[j][i]:
        return -math.inf
    if proposed == current:
        return 0.0
    kernel_current = log_posterior_S_kernel(state, data, hyper) + offset
    state.S[j][i] = proposed
    kernel_proposed = log_posterior_S_kernel(state, data, hyper) + offset
    state.S[j][i] = current
    if kernel_proposed == -math.inf:
        return -math.inf
    if kernel_current == -math.inf:
        return math.inf
    correction = (current * math.log(lam) - math.lgamma(current + 1.0)) - (
        proposed * math.log(lam) - math.lgamma(proposed + 1.0)
    )
    return kernel_proposed - kernel_current + correction


def _reference_update(state, hyper, data, i, j, rng, offset=0.0):
    current = int(state.S[j][i])
    proposed = sampler_mod.poisson(rng, max(int(data[j].observed_sizes[i]), 1))
    log_alpha = _reference_log_alpha(state, hyper, data, i, j, proposed, offset)
    if log_alpha >= 0.0:
        return proposed, True
    if log_alpha == -math.inf:
        return current, False
    if rng.random() < math.exp(log_alpha):
        return proposed, True
    return current, False


class TestGibbsP:
    def test_posterior_params_read_off(self):
        # N=5, per-phase total 3 gives r=3; alpha=2, beta=4 -> Beta(7, 7)
        data = [PhaseSummary(1, 5, {1: 3})]
        hyper = Hyperparams(alpha_hat=np.array([2.0]), beta_hat=np.array([4.0]))
        state = ChainState(S=[np.array([3])], n_trials=[np.array([6])])
        rng = RecordingRng()
        gibbs_update_p(hyper, data, 0, rng, state.F)
        assert rng.calls == [(7.0, 7.0)]

    def test_long_run_mean_beta_1_2(self):
        # N=0, r=1, flat hyper -> Beta(1, 2) with mean 1/3
        data = [PhaseSummary(1, 0, {1: 1})]
        hyper = flat_hyperparams(1)
        state = ChainState(S=[np.array([1])], n_trials=[np.array([4])])
        rng = random.Random(5)
        draws = [gibbs_update_p(hyper, data, 0, rng, state.F) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(1 / 3, abs=0.005)

    def test_later_phase_reads_its_own_runs_and_total(self):
        # phase 3 of a shrinking history: 9 - 5 = 4 runs and total 1, with
        # alpha = 2, beta = 3 -> Beta(6, 4)
        data = [PhaseSummary(j, runs, {j: 1}) for j, runs in ((1, 2), (2, 5), (3, 9))]
        hyper = Hyperparams(alpha_hat=[1.0, 1.0, 2.0], beta_hat=[1.0, 1.0, 3.0])
        rng = RecordingRng()
        gibbs_update_p(hyper, data, 2, rng, [3, 4, 1])
        assert rng.calls == [(6.0, 4.0)]


class TestGibbsT:
    def test_posterior_params_read_off(self):
        data, hyper, state = _single_bug_setup(s=3, n=10, a=2.0, b=2.0)
        rng = RecordingRng()
        gibbs_update_t(state, hyper, 0, 0, rng)
        assert rng.calls == [(5.0, 9.0)]

    def test_full_size_concentrates_near_one(self):
        data, hyper, state = _single_bug_setup(s=3, n=40)
        state.S[0][0] = 40
        rng = random.Random(11)
        draws = [gibbs_update_t(state, hyper, 0, 0, rng) for _ in range(5000)]
        # Beta(41, 1) has mean 41/42
        assert np.mean(draws) == pytest.approx(41 / 42, abs=0.005)

    def test_zero_size_mirror_case(self):
        data, hyper, state = _single_bug_setup(s=1, n=12)
        state.S[0][0] = 0
        rng = RecordingRng()
        gibbs_update_t(state, hyper, 0, 0, rng)
        assert rng.calls == [(1.0, 13.0)]

    def test_size_above_trials_rejected(self):
        data, hyper, state = _single_bug_setup(s=3, n=10)
        state.S[0][0] = 11
        with pytest.raises(ValueError, match="exceeds"):
            gibbs_update_t(state, hyper, 0, 0, random.Random(0))


class TestMetropolisStep:
    def test_identity_proposal_always_accepted(self):
        data, hyper, state = _single_bug_setup()
        assert mh_log_alpha(state, hyper, data, 0, 0, int(state.S[0][0]), state.F) == 0.0

    def test_zero_proposal_rejected(self):
        data, hyper, state = _single_bug_setup(s=1)
        assert mh_log_alpha(state, hyper, data, 0, 0, 0, state.F) == -math.inf

    def test_below_observed_floor_rejected(self):
        data, hyper, state = _single_bug_setup(s=3)
        assert mh_log_alpha(state, hyper, data, 0, 0, 2, state.F) == -math.inf

    def test_above_trial_count_rejected(self):
        data, hyper, state = _single_bug_setup(s=3, n=10)
        assert mh_log_alpha(state, hyper, data, 0, 0, 11, state.F) == -math.inf

    def test_acceptance_matches_direct_ratio(self):
        # brute-force evaluation of the kernel-ratio-times-proposal-correction;
        # the proposal rate is the observed floor max(s, 1).  The kernel is
        # the collapsed one, written as the integrals over t and p: the
        # beta-negative-binomial mass of the runs and S times the
        # beta-binomial mass of S
        s, n, N, a, b, alpha, beta = 2, 6, 4, 1.5, 0.8, 2.0, 3.0
        lam = s
        data, hyper, state = _single_bug_setup(s=s, n=n, N=N, a=a, b=b, alpha=alpha, beta=beta)

        def kernel_product(S):
            return (
                math.comb(N + S - 1, N) * _beta(N + alpha, S + beta)
                * S * math.comb(n, S) * _beta(S + a, n - S + b)
            )

        for current in range(s, n + 1):
            state.S[0][0] = current
            for proposed in range(s, n + 1):
                ratio = (
                    kernel_product(proposed)
                    / kernel_product(current)
                    * lam**current
                    * math.factorial(proposed)
                    / (lam**proposed * math.factorial(current))
                )
                expected = min(1.0, ratio)
                log_alpha = mh_log_alpha(state, hyper, data, 0, 0, proposed, state.F)
                assert math.exp(min(log_alpha, 0.0)) == pytest.approx(expected, rel=1e-12)

    def test_accept_reject_invariant_to_kernel_offset(self):
        # 200 decisions of the local-delta step against a reference step that
        # scores each proposal by two full-kernel passes shifted by a constant
        data, hyper, _ = _three_phase_setup()
        fast_state, ref_state = _three_phase_state(), _three_phase_state()
        fast_rng, ref_rng = random.Random(123), random.Random(123)
        bugs = [(i, j) for j, summary in enumerate(data) for i in range(summary.distinct_bugs)]
        fast, ref = [], []
        for step in range(200):
            i, j = bugs[step % len(bugs)]
            fast.append(mh_update_S(fast_state, hyper, data, i, j, fast_rng, fast_state.F))
            fast_state.S[j][i] = fast[-1][0]
            ref.append(_reference_update(ref_state, hyper, data, i, j, ref_rng, offset=7.31))
            ref_state.S[j][i] = ref[-1][0]
        assert fast == ref
        assert 0 < sum(accepted for _, accepted in fast) < 200

    def test_update_never_evaluates_full_kernel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Metropolis step evaluated the full kernel")

        monkeypatch.setattr(sampler_mod, "log_posterior_S_kernel", forbidden)
        data, hyper, state = _three_phase_setup()
        rng = random.Random(8)
        for _ in range(20):
            for j, summary in enumerate(data):
                for i in range(summary.distinct_bugs):
                    state.S[j][i] = mh_update_S(state, hyper, data, i, j, rng, state.F)[0]
        run_chain(data, hyper, SamplerConfig(chains=1, iterations=20, burn_in=0, seed=8))

    def test_local_ratio_matches_product_kernel_on_three_phases(self):
        # every move of every bug of a 3-phase state whose totals shrink,
        # (7, 6, 6), scored against the collapsed kernel written as a
        # product: phase k's factor C(n_k + F_k - 1, n_k)
        # B(n_k + alpha_k, F_k + beta_k) reads its own runs n_k and its own
        # total F_k, so a move in one phase leaves the other phases' factors
        # alone
        data, hyper, state = _three_phase_setup()
        state.S[0][0] = 5
        runs = [10, 15, 20]

        def product(S):
            out = 1.0
            for k, (S_row, n_row, a_row, b_row) in enumerate(zip(S, state.n_trials, hyper.a, hyper.b)):
                F = sum(S_row)
                out *= math.comb(runs[k] + F - 1, runs[k]) * _beta(
                    runs[k] + hyper.alpha_hat[k], F + hyper.beta_hat[k]
                )
                for size, n, a, b in zip(S_row, n_row, a_row, b_row):
                    out *= size * math.comb(n, size) * _beta(size + a, n - size + b)
            return out

        checked = 0
        for j, summary in enumerate(data):
            for i in range(summary.distinct_bugs):
                lam = max(summary.observed_sizes[i], 1)
                current = state.S[j][i]
                for proposed in range(lam, state.n_trials[j][i] + 1):
                    moved = [list(row) for row in state.S]
                    moved[j][i] = proposed
                    expected = math.log(product(moved) / product(state.S)) + (
                        (current - proposed) * math.log(lam)
                        + math.lgamma(proposed + 1) - math.lgamma(current + 1)
                    )
                    actual = mh_log_alpha(state, hyper, data, i, j, proposed, state.F)
                    assert actual == pytest.approx(expected, rel=0, abs=1e-9)
                    checked += 1
        assert checked == 41

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_local_delta_matches_full_kernel_difference(self, draw):
        phases = draw.draw(st.integers(1, 4))
        sizes, trials, data = [], [], []
        runs = 0
        for phase in range(1, phases + 1):
            bugs = draw.draw(st.integers(1, 3))
            n_row = draw.draw(st.lists(st.integers(1, 12), min_size=bugs, max_size=bugs))
            S_row = [draw.draw(st.integers(1, n)) for n in n_row]
            observed = [draw.draw(st.integers(0, S)) for S in S_row]
            runs += draw.draw(st.integers(0 if phase == 1 else 1, 40))
            data.append(PhaseSummary(phase, runs, dict(enumerate(observed))))
            sizes.append(np.array(S_row))
            trials.append(np.array(n_row))
        shape = st.floats(0.05, 20.0)

        def shapes(k):
            return draw.draw(st.lists(shape, min_size=k, max_size=k))

        hyper = Hyperparams(
            alpha_hat=shapes(phases),
            beta_hat=shapes(phases),
            a=[shapes(len(r)) for r in sizes],
            b=[shapes(len(r)) for r in sizes],
        )
        state = ChainState(S=sizes, n_trials=trials)
        j = draw.draw(st.integers(0, phases - 1))
        i = draw.draw(st.integers(0, len(sizes[j]) - 1))
        proposed = draw.draw(st.integers(0, int(trials[j][i]) + 1))

        expected = _reference_log_alpha(state, hyper, data, i, j, proposed)
        actual = mh_log_alpha(state, hyper, data, i, j, proposed, state.F)
        if math.isinf(expected):
            assert actual == expected
        else:
            assert actual == pytest.approx(expected, rel=0, abs=1e-9)


class TestInitState:
    def test_starts_at_observed_sizes(self):
        data, hyper, _ = _single_bug_setup(s=3, n=10)
        state = init_state(data, hyper, random.Random(0))
        assert state.S[0] == [3]
        assert state.n_trials[0] == [10]
        # t and p are integrated out: the state is S and the trial counts,
        # and has no room for anything else
        assert type(state).__slots__ == ("S", "n_trials") and not hasattr(state, "__dict__")

    def test_shrinking_history_starts_at_observed_floor(self):
        # per-phase totals (5, 6, 2) at the observed floor: the third phase
        # shrinks, and the state starts there without any repair
        data = [
            PhaseSummary(1, 10, {1: 5}),
            PhaseSummary(2, 20, {2: 6}),
            PhaseSummary(3, 30, {3: 2}),
        ]
        hyper = flat_hyperparams(3)
        hyper.m_weights = [[np.array([5])], [np.array([6])], [np.array([3])]]
        state = init_state(data, resolve_for_data(hyper, data), random.Random(0))
        assert state.S == [[5], [6], [2]]
        assert state.F == [5, 6, 2]

    def test_phase_without_bug_fails(self):
        # its total, the size parameter of its run count, would be 0
        data = [PhaseSummary(1, 10, {1: 5}), PhaseSummary(2, 20, {})]
        hyper = flat_hyperparams(2)
        hyper.m_weights = [[[5]], []]
        with pytest.raises(InitializationError, match="phase 2: no logged bug"):
            init_state(data, resolve_for_data(hyper, data), random.Random(0))

    def test_trial_count_below_observed_fails(self):
        data = [PhaseSummary(1, 10, {1: 5})]
        hyper = flat_hyperparams(1)
        hyper.m_weights = [[np.array([3])]]
        resolved = resolve_for_data(hyper, data)
        with pytest.raises(InitializationError, match="below the observed size"):
            init_state(data, resolved, random.Random(0))

    def test_state_and_priors_are_plain_python(self):
        # numpy rows in, Python numbers out: per-bug priors given as arrays,
        # candidates as arrays (as oracle_hyperparams gives them) and the
        # default candidates
        data = [PhaseSummary(1, 10, {1: 2, 2: 3}), PhaseSummary(2, 30, {3: 4})]
        given = flat_hyperparams(2)
        given.a = [np.array([1.5, 2.0]), np.array([3.0])]
        given.b = [[2.0, 1.0], [0.5]]
        given.m_weights = [[np.array([4, 6]), np.array([3])], [np.array([8])]]

        def kinds(value):
            if isinstance(value, list):
                return set().union(*map(kinds, value))
            return {type(value)}

        for hyper in (given, sample_hyper(2, 3)):
            resolved = resolve_for_data(hyper, data)
            state = init_state(data, resolved, random.Random(0))
            for field in (resolved.a, resolved.b):
                assert kinds(field) == {float}
            for field in (resolved.m_weights, state.S, state.n_trials):
                assert kinds(field) == {int}


def _small_data():
    return [PhaseSummary(1, 12, {1: 2, 2: 3}), PhaseSummary(2, 30, {3: 4})]


class TestRunChain:
    def test_deterministic_given_seed(self):
        config = SamplerConfig(chains=2, iterations=200, burn_in=50, thin=2, seed=77)
        a = run_chain(_small_data(), flat_hyperparams(2), config)
        b = run_chain(_small_data(), flat_hyperparams(2), config)
        assert np.array_equal(a.draws, b.draws)

    def test_degenerate_instance_is_constant(self):
        # trial counts equal observed sizes: S has single-point support
        data = [PhaseSummary(1, 9, {1: 2, 2: 3})]
        hyper = flat_hyperparams(1)
        hyper.m_weights = [[np.array([2]), np.array([3])]]
        config = SamplerConfig(chains=2, iterations=100, burn_in=10, seed=3)
        posterior = run_chain(data, hyper, config)
        assert np.all(np.asarray(posterior.F_draws) == 5.0)

    def test_retained_count(self):
        config = SamplerConfig(chains=1, iterations=103, burn_in=20, thin=7, seed=1)
        posterior = run_chain(_small_data(), flat_hyperparams(2), config)
        assert np.shape(posterior.draws) == (1, len(config.retained), 2)
        assert len(config.retained) == 12

    def test_acceptance_rates_in_unit_interval(self):
        config = SamplerConfig(chains=2, iterations=200, burn_in=50, seed=9)
        posterior = run_chain(_small_data(), flat_hyperparams(2), config)
        for row in posterior.acceptance:
            assert np.all(np.asarray(row) >= 0) and np.all(np.asarray(row) <= 1)
        assert 0.0 <= posterior.acceptance_rate_mean <= 1.0

    def test_carried_totals_match_state_after_every_update(self):
        # The sweep carries each phase's total, and the collapsed terms at
        # the current state, from one proposal to the next.  Replaying each
        # chain's stream through `mh_update_S`, which is handed totals summed
        # from the state before every step, must give the same decision at
        # every step: a stale total or term changes an acceptance ratio, and
        # from then on which uniforms are drawn.  Every sweep is retained,
        # so the draws are the carried totals after each sweep.
        data = [
            PhaseSummary(1, 10, {1: 1, 2: 2}),
            PhaseSummary(2, 25, {3: 2, 4: 1}),
            PhaseSummary(3, 45, {5: 3, 6: 2}),
        ]
        hyper = resolve_for_data(sample_hyper(3, 12), data)
        config = SamplerConfig(chains=2, iterations=150, burn_in=0, seed=12)
        posterior = run_chain(data, hyper, config)
        rates = []
        for c in range(config.chains):
            rng = chain_rng(config.seed, c)
            state = init_state(data, hyper, rng)
            replayed, accepted = [], [[0, 0] for _ in data]
            for _ in range(config.iterations):
                for j in range(len(data)):
                    for i in range(2):
                        new, ok = mh_update_S(state, hyper, data, i, j, rng, state.F)
                        state.S[j][i] = new
                        accepted[j][i] += ok
                replayed.append(state.F)
            assert posterior.draws[c] == replayed
            assert len(set(map(tuple, replayed))) > 10  # the totals did move
            rates.append([[count / config.iterations for count in row] for row in accepted])
        assert posterior.acceptance == [
            [fsum(bug) / config.chains for bug in zip(*(chain[j] for chain in rates))]
            for j in range(len(data))
        ]

    def test_draws_pinned(self):
        # Default trial candidates, a sampled phase prior and a third phase
        # whose observed total is below the first's; the hash pins every
        # retained draw.
        data = [
            PhaseSummary(1, 40, {1: 3, 2: 1, 3: 5}),
            PhaseSummary(2, 95, {4: 4, 5: 2, 6: 6, 7: 1}),
            PhaseSummary(3, 160, {8: 3, 9: 2, 10: 1}),
        ]
        config = SamplerConfig(chains=2, iterations=300, burn_in=60, thin=2, seed=2024)
        posterior = run_chain(data, sample_hyper(3, 5), config)
        digest = hashlib.sha256(repr(posterior.draws).encode()).hexdigest()
        assert digest == "5ff834f5d71fb13314f1f9a2c6b8763ff7d7352c6e5208482dea9b03992c9a14"
        assert posterior.acceptance_rate_mean == 0.25

    def test_chains_draw_from_their_own_streams(self):
        # chain c's draws do not depend on how many chains run beside it
        data = _small_data()
        one = run_chain(data, flat_hyperparams(2), SamplerConfig(chains=1, iterations=120, burn_in=20, seed=4))
        three = run_chain(data, flat_hyperparams(2), SamplerConfig(chains=3, iterations=120, burn_in=20, seed=4))
        assert three.draws[0] == one.draws[0]
        assert three.draws[1] != three.draws[0] and three.draws[2] != three.draws[1]
        other = run_chain(data, flat_hyperparams(2), SamplerConfig(chains=1, iterations=120, burn_in=20, seed=5))
        assert other.draws[0] != one.draws[0]

    def test_chains_and_hyperprior_use_distinct_streams(self, monkeypatch):
        seeds = []

        class Recording(random.Random):
            def __init__(self, x=None):
                seeds.append(x)
                super().__init__(x)

        monkeypatch.setattr(random, "Random", Recording)
        hyper = sample_hyper(2, 11)
        run_chain(_small_data(), hyper, SamplerConfig(chains=3, iterations=20, burn_in=5, seed=11))
        assert len(seeds) == 4 and len(set(seeds)) == 4
        assert seeds[1:] == [f"bugsize chain 11 {c}" for c in range(3)]
        monkeypatch.undo()
        streams = {tuple(random.Random(seed).random() for _ in range(3)) for seed in seeds}
        assert len(streams) == 4
        assert chain_rng(11, 2).random() == random.Random(seeds[3]).random()

    def test_no_beta_or_gamma_draw(self, monkeypatch):
        # t and p are integrated out: a chain draws trial counts, Poisson
        # proposals and acceptance uniforms only
        def forbidden(*args, **kwargs):
            raise AssertionError("the chain drew a Beta or Gamma variate")

        monkeypatch.setattr(random.Random, "betavariate", forbidden)
        monkeypatch.setattr(random.Random, "gammavariate", forbidden)
        posterior = run_chain(_small_data(), sample_hyper(2, 3), SamplerConfig(chains=2, iterations=200, burn_in=50, seed=6))
        assert len({tuple(draw) for draw in posterior.F_draws}) > 1

    @pytest.mark.parametrize("bugs", [10, 100])
    def test_lgamma_calls_per_proposal_do_not_grow_with_bugs(self, monkeypatch, bugs):
        # Every lgamma the sweep evaluates, counted where it is looked up:
        # the collapsed terms in `model` and the proposal ratio in `sampler`.
        # A proposal inside its support evaluates one bug term and one phase
        # term at the proposed state (5 + 4 calls); the chain's start adds
        # the same per bug and per phase once.
        calls = []

        def counted(x):
            calls.append(x)
            return math.lgamma(x)

        monkeypatch.setattr(model_mod, "lgamma", counted)
        monkeypatch.setattr(sampler_mod, "lgamma", counted)
        data = [
            PhaseSummary(j, 400 * j, {j * 1000 + i: 1 + i % 5 for i in range(bugs)}) for j in (1, 2)
        ]
        config = SamplerConfig(chains=1, iterations=40, burn_in=0, seed=3)
        run_chain(data, flat_hyperparams(2), config)
        proposals = config.iterations * 2 * bugs
        assert 0 < len(calls) / proposals < 9 * (1 + 1 / config.iterations)

    def test_nonincreasing_runs_rejected(self):
        data = [PhaseSummary(1, 30, {1: 2}), PhaseSummary(2, 30, {2: 3})]
        with pytest.raises(ValueError, match="strictly increasing"):
            run_chain(data, flat_hyperparams(2), SamplerConfig(seed=0))


class TestDiagnostics:
    def test_constant_chains_flagged(self):
        draws = np.ones((2, 50))
        (result,) = diagnostics(draws)
        assert result.r_hat == 1.0
        assert result.degenerate

    def test_independent_draws_near_one(self):
        rng = np.random.default_rng(21)
        draws = rng.normal(size=(4, 10_000))
        r_hat, degenerate = split_r_hat(draws)
        assert not degenerate
        assert 0.99 <= r_hat <= 1.05
        assert effective_sample_size(draws) > 10_000

    def test_offset_chain_detected(self):
        rng = np.random.default_rng(22)
        draws = rng.normal(size=(2, 500))
        draws[1] += 10.0
        r_hat, _ = split_r_hat(draws)
        assert r_hat > 1.2

    def test_preconditions(self):
        with pytest.raises(ValueError, match="2 chains"):
            diagnostics(np.ones((1, 50)))
        with pytest.raises(ValueError, match="10 retained"):
            diagnostics(np.ones((2, 5)))

    def test_multi_quantity_shape(self):
        rng = np.random.default_rng(23)
        results = diagnostics(rng.normal(size=(2, 100, 3)))
        assert len(results) == 3
        assert all(isinstance(r, ChainDiagnostics) for r in results)


@pytest.mark.parametrize("lam", [1, 9, 10, 60, 5000])
def test_poisson_matches_exact_law(lam, chi2_pvalue):
    # numpy's two methods meet at lam = 10: multiplication below, PTRS from
    # there.  The gate, p-value above 0.001, was fixed before the first run.
    rng = random.Random(lam)
    draws = np.array([sampler_mod.poisson(rng, lam) for _ in range(50_000)])
    assert draws.min() >= 0
    assert chi2_pvalue(draws, poisson(lam)) > 1e-3


def _reference_split_r_hat(draws):
    """The numpy split R-hat the sampler computed before it was pure Python."""
    chains, n = draws.shape
    half = n // 2
    split = np.concatenate([draws[:, :half], draws[:, half : 2 * half]], axis=0)
    within = float(np.mean(np.var(split, axis=1, ddof=1)))
    between_over_n = float(np.var(split.mean(axis=1), ddof=1))
    if within == 0.0:
        return 1.0, True
    return float(math.sqrt(((half - 1) / half * within + between_over_n) / within)), False


def _reference_ess(draws):
    """The numpy effective sample size, from full np.correlate autocovariances."""
    chains, n = draws.shape
    total = chains * n
    if np.all(draws.var(axis=1, ddof=1) == 0.0):
        return float(total)
    acov = np.zeros(n)
    for chain in draws:
        centered = chain - chain.mean()
        acov += np.correlate(centered, centered, mode="full")[n - 1 :] / n
    acov /= chains
    if acov[0] <= 0.0:
        return float(total)
    rho = acov / acov[0]
    tail = 0.0
    for k in range(1, n - 1, 2):
        pair = rho[k] + rho[k + 1] if k + 1 < n else rho[k]
        if pair < 0.0:
            break
        tail += pair
    return float(min(max(total / (1.0 + 2.0 * tail), 1.0), total))


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("chains, n", [(2, 40), (3, 301), (4, 1000)])
def test_diagnostics_match_numpy_reference(phi, chains, n):
    rng = np.random.default_rng(int(phi * 100) + 7 * chains + n)
    draws = np.empty((chains, n))
    draws[:, 0] = rng.normal(size=chains) * 3.0
    for k in range(1, n):
        draws[:, k] = phi * draws[:, k - 1] + rng.normal(size=chains)
    draws += 50.0
    r_hat, degenerate = split_r_hat(draws.tolist())
    ref_r_hat, ref_degenerate = _reference_split_r_hat(draws)
    assert degenerate == ref_degenerate
    assert r_hat == pytest.approx(ref_r_hat, rel=1e-9)
    assert effective_sample_size(draws.tolist()) == pytest.approx(_reference_ess(draws), rel=1e-9)


def test_constant_draws_keep_the_reference_figures():
    draws = [[7] * 30, [7] * 30]
    assert split_r_hat(draws) == _reference_split_r_hat(np.array(draws, dtype=float))
    assert effective_sample_size(draws) == _reference_ess(np.array(draws, dtype=float)) == 60.0
    (result,) = diagnostics(draws)
    assert result.degenerate and result.r_hat == 1.0


@pytest.mark.parametrize("retained", [1, 2, 37, 400])
def test_summaries_follow_numpy_definitions(retained):
    rng = np.random.default_rng(retained)
    draws = rng.integers(1, 30_000, size=(2, retained, 3))
    posterior = PosteriorSummary(
        draws=draws.tolist(), acceptance=[[0.5]], diagnostics=None,
    )
    pooled = draws.reshape(-1, 3).astype(float)
    assert posterior.F_mean == pooled.mean(axis=0).tolist()
    assert posterior.F_median == np.median(pooled, axis=0).tolist()
    low, high = np.quantile(pooled, [0.025, 0.975], axis=0)
    assert posterior.F_ci == (low.tolist(), high.tolist())


def test_reductions_are_exactly_rounded(monkeypatch):
    # Ten rates of 0.1 add up to 0.9999999999999999 left to right, and to
    # 1.0 exactly rounded; Python 3.12's built-in sum gives 1.0, 3.11's
    # the former.  Every reduction of the sampler is exactly rounded, so
    # its figures do not depend on the interpreter.
    rates = [0.1] * 10
    assert reduce(add, rates) != fsum(rates)
    posterior = PosteriorSummary(
        draws=[[[3], [4]]], acceptance=[rates], diagnostics=None,
    )
    assert posterior.acceptance_rate_mean == 0.1

    # The diagnostics of draws in tenths change when every sum is taken
    # left to right, and stay put when every sum is the exact rational one.
    rng = random.Random(3)
    draws = [[round(rng.gauss(50.0, 3.0), 1) for _ in range(40)] for _ in range(2)]
    exact = diagnostics(draws)
    monkeypatch.setattr(sampler_mod, "fsum", lambda values: reduce(add, values, 0.0))
    assert diagnostics(draws) != exact
    monkeypatch.setattr(sampler_mod, "fsum", lambda values: float(sum(map(Fraction, values))))
    assert diagnostics(draws) == exact
