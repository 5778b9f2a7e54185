import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bugsize.sampler as sampler_mod
from bugsize.ingest import PhaseSummary
from bugsize.model import (
    ChainState,
    Hyperparams,
    flat_hyperparams,
    log_posterior_S_kernel,
    resolve_for_data,
    size_params,
)
from bugsize.sampler import (
    ChainDiagnostics,
    InitializationError,
    SamplerConfig,
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

    def beta(self, a, b):
        self.calls.append((float(a), float(b)))
        return 0.5


def _single_bug_setup(s=3, n=10, N=5, p=0.5, t=0.5, a=1.0, b=1.0):
    data = [PhaseSummary(1, N, {1: s})]
    hyper = flat_hyperparams(1)
    hyper.a, hyper.b = a, b
    hyper.m_weights = [[np.array([n])]]
    resolved = resolve_for_data(hyper, data)
    state = ChainState(
        S=[np.array([s])], p=np.array([p]), t=[np.array([t])], n_trials=[np.array([n])]
    )
    return data, resolved, state


def _three_phase_setup():
    data = [
        PhaseSummary(1, 10, {1: 1, 2: 2}),
        PhaseSummary(2, 25, {3: 2, 4: 1}),
        PhaseSummary(3, 45, {5: 3, 6: 2}),
    ]
    return data, _three_phase_state()


def _three_phase_state():
    # per-phase totals (5, 6, 6): size parameters r = (5, 6, 1)
    return ChainState(
        S=[np.array([3, 2]), np.array([4, 2]), np.array([4, 2])],
        p=np.array([0.4, 0.55, 0.6]),
        t=[np.array([0.3, 0.6]), np.array([0.5, 0.45]), np.array([0.7, 0.35])],
        n_trials=[np.array([8, 6]), np.array([9, 7]), np.array([10, 6])],
    )


def _reference_log_alpha(state, data, i, j, proposed, offset=0.0):
    """The acceptance ratio from two full-kernel passes (plus a constant)."""
    current = int(state.S[j][i])
    lam = max(int(data[j].observed_sizes[i]), 1)
    if proposed < lam or proposed > state.n_trials[j][i]:
        return -math.inf
    if proposed == current:
        return 0.0
    kernel_current = log_posterior_S_kernel(state, data) + offset
    state.S[j][i] = proposed
    kernel_proposed = log_posterior_S_kernel(state, data) + offset
    state.S[j][i] = current
    if kernel_proposed == -math.inf:
        return -math.inf
    if kernel_current == -math.inf:
        return math.inf
    correction = (current * math.log(lam) - math.lgamma(current + 1.0)) - (
        proposed * math.log(lam) - math.lgamma(proposed + 1.0)
    )
    return kernel_proposed - kernel_current + correction


def _reference_update(state, data, i, j, rng, offset=0.0):
    current = int(state.S[j][i])
    proposed = int(rng.poisson(max(int(data[j].observed_sizes[i]), 1)))
    log_alpha = _reference_log_alpha(state, data, i, j, proposed, offset)
    if log_alpha >= 0.0:
        return proposed, True
    if log_alpha == -math.inf:
        return current, False
    if rng.uniform() < math.exp(log_alpha):
        return proposed, True
    return current, False


class TestGibbsP:
    def test_posterior_params_read_off(self):
        # N=5, per-phase total 3 gives r=3; alpha=2, beta=4 -> Beta(7, 7)
        data = [PhaseSummary(1, 5, {1: 3})]
        hyper = Hyperparams(alpha_hat=np.array([2.0]), beta_hat=np.array([4.0]))
        state = ChainState(
            S=[np.array([3])], p=np.array([0.5]), t=[np.array([0.5])], n_trials=[np.array([6])]
        )
        rng = RecordingRng()
        gibbs_update_p(hyper, data, 0, rng, state.F)
        assert rng.calls == [(7.0, 7.0)]

    def test_long_run_mean_beta_1_2(self):
        # N=0, r=1, flat hyper -> Beta(1, 2) with mean 1/3
        data = [PhaseSummary(1, 0, {1: 1})]
        hyper = flat_hyperparams(1)
        state = ChainState(
            S=[np.array([1])], p=np.array([0.5]), t=[np.array([0.5])], n_trials=[np.array([4])]
        )
        rng = np.random.default_rng(5)
        draws = [gibbs_update_p(hyper, data, 0, rng, state.F) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(1 / 3, abs=0.005)

    def test_infeasible_size_parameter_rejected(self):
        data = [PhaseSummary(j, 2 * j, {j: 1}) for j in (1, 2, 3)]
        hyper = flat_hyperparams(3)
        state = ChainState(
            S=[np.array([3]), np.array([4]), np.array([1])],
            p=np.array([0.5] * 3),
            t=[np.array([0.5])] * 3,
            n_trials=[np.array([6])] * 3,
        )
        with pytest.raises(ValueError, match="positive"):
            gibbs_update_p(hyper, data, 2, np.random.default_rng(0), state.F)


class TestGibbsT:
    def test_posterior_params_read_off(self):
        data, hyper, state = _single_bug_setup(s=3, n=10, a=2.0, b=2.0)
        rng = RecordingRng()
        gibbs_update_t(state, hyper, 0, 0, rng)
        assert rng.calls == [(5.0, 9.0)]

    def test_full_size_concentrates_near_one(self):
        data, hyper, state = _single_bug_setup(s=3, n=40)
        state.S[0][0] = 40
        rng = np.random.default_rng(11)
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
            gibbs_update_t(state, hyper, 0, 0, np.random.default_rng(0))


class TestMetropolisStep:
    def test_identity_proposal_always_accepted(self):
        data, _, state = _single_bug_setup()
        assert mh_log_alpha(state, data, 0, 0, int(state.S[0][0]), state.F) == 0.0

    def test_zero_proposal_rejected(self):
        data, _, state = _single_bug_setup(s=1)
        assert mh_log_alpha(state, data, 0, 0, 0, state.F) == -math.inf

    def test_below_observed_floor_rejected(self):
        data, _, state = _single_bug_setup(s=3)
        assert mh_log_alpha(state, data, 0, 0, 2, state.F) == -math.inf

    def test_above_trial_count_rejected(self):
        data, _, state = _single_bug_setup(s=3, n=10)
        assert mh_log_alpha(state, data, 0, 0, 11, state.F) == -math.inf

    def test_acceptance_matches_direct_ratio(self):
        # brute-force evaluation of the kernel-ratio-times-proposal-correction;
        # the proposal rate is the observed floor max(s, 1)
        s, n, N, p, t = 2, 6, 4, 0.55, 0.45
        lam = s
        data, _, state = _single_bug_setup(s=s, n=n, N=N, p=p, t=t)

        def kernel_product(S):
            return (
                math.comb(N + S - 1, N)
                * (1 - p) ** S
                * S
                * math.comb(n, S)
                * t**S
                * (1 - t) ** (n - S)
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
                log_alpha = mh_log_alpha(state, data, 0, 0, proposed, state.F)
                assert math.exp(min(log_alpha, 0.0)) == pytest.approx(expected, rel=1e-12)

    def test_accept_reject_invariant_to_kernel_offset(self):
        # 200 decisions of the local-delta step against a reference step that
        # scores each proposal by two full-kernel passes shifted by a constant
        data, _ = _three_phase_setup()
        fast_state, ref_state = _three_phase_state(), _three_phase_state()
        fast_rng, ref_rng = np.random.default_rng(123), np.random.default_rng(123)
        bugs = [(i, j) for j, summary in enumerate(data) for i in range(summary.distinct_bugs)]
        fast, ref = [], []
        for step in range(200):
            i, j = bugs[step % len(bugs)]
            fast.append(mh_update_S(fast_state, data, i, j, fast_rng, fast_state.F))
            fast_state.S[j][i] = fast[-1][0]
            ref.append(_reference_update(ref_state, data, i, j, ref_rng, offset=7.31))
            ref_state.S[j][i] = ref[-1][0]
        assert fast == ref
        assert 0 < sum(accepted for _, accepted in fast) < 200

    def test_update_never_evaluates_full_kernel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Metropolis step evaluated the full kernel")

        monkeypatch.setattr(sampler_mod, "log_posterior_S_kernel", forbidden)
        data, state = _three_phase_setup()
        rng = np.random.default_rng(8)
        for _ in range(20):
            for j, summary in enumerate(data):
                for i in range(summary.distinct_bugs):
                    state.S[j][i] = mh_update_S(state, data, i, j, rng, state.F)[0]

    def test_moved_size_parameter_nonpositive_rejected(self):
        # totals (5, 6, 6): r = (5, 6, 1); raising S_11 by 1 moves r_3 to 0
        data, state = _three_phase_setup()
        assert mh_log_alpha(state, data, 0, 0, 4, state.F) == -math.inf
        assert _reference_log_alpha(state, data, 0, 0, 4) == -math.inf

    def test_infeasible_current_state_accepts_feasible_proposal(self):
        # totals (5, 6, 4): r_3 = -1; lowering S_11 by 2 moves r_3 to 1
        data, state = _three_phase_setup()
        state.S[2][0] = 2
        assert mh_log_alpha(state, data, 0, 0, 1, state.F) == math.inf
        assert _reference_log_alpha(state, data, 0, 0, 1) == math.inf

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
        unit = st.floats(0.02, 0.98)
        state = ChainState(
            S=sizes,
            p=np.array(draw.draw(st.lists(unit, min_size=phases, max_size=phases))),
            t=[np.array(draw.draw(st.lists(unit, min_size=len(r), max_size=len(r)))) for r in sizes],
            n_trials=trials,
        )
        j = draw.draw(st.integers(0, phases - 1))
        i = draw.draw(st.integers(0, len(sizes[j]) - 1))
        proposed = draw.draw(st.integers(0, int(trials[j][i]) + 1))

        expected = _reference_log_alpha(state, data, i, j, proposed)
        actual = mh_log_alpha(state, data, i, j, proposed, state.F)
        if math.isinf(expected):
            assert actual == expected
        else:
            assert actual == pytest.approx(expected, rel=0, abs=1e-9)


class TestInitState:
    def test_starts_at_observed_sizes(self):
        data, hyper, _ = _single_bug_setup(s=3, n=10)
        state = init_state(data, hyper, np.random.default_rng(0))
        assert state.S[0].tolist() == [3]
        assert state.n_trials[0].tolist() == [10]
        assert state.t[0][0] == pytest.approx(0.5)

    def test_repair_raises_later_phase(self):
        # observed floor gives per-phase totals (5, 6, 2): the third size
        # parameter is 2 - 5 <= 0 until phase 3 is raised above 5
        data = [
            PhaseSummary(1, 10, {1: 5}),
            PhaseSummary(2, 20, {2: 6}),
            PhaseSummary(3, 30, {3: 2}),
        ]
        hyper = flat_hyperparams(3)
        hyper.m_weights = [[np.array([5])], [np.array([6])], [np.array([9])]]
        resolved = resolve_for_data(hyper, data)
        state = init_state(data, resolved, np.random.default_rng(0))
        assert state.S[0].tolist() == [5]
        assert state.S[1].tolist() == [6]
        assert state.S[2][0] == 6  # raised from 2 until r_3 = 1
        assert size_params(state.F) == [5, 6, 1]

    def test_repair_without_slack_fails(self):
        data = [
            PhaseSummary(1, 10, {1: 5}),
            PhaseSummary(2, 20, {2: 6}),
            PhaseSummary(3, 30, {3: 2}),
        ]
        hyper = flat_hyperparams(3)
        hyper.m_weights = [[np.array([5])], [np.array([6])], [np.array([3])]]
        resolved = resolve_for_data(hyper, data)
        with pytest.raises(InitializationError, match="phase 3"):
            init_state(data, resolved, np.random.default_rng(0))

    def test_trial_count_below_observed_fails(self):
        data = [PhaseSummary(1, 10, {1: 5})]
        hyper = flat_hyperparams(1)
        hyper.m_weights = [[np.array([3])]]
        resolved = resolve_for_data(hyper, data)
        with pytest.raises(InitializationError, match="below the observed size"):
            init_state(data, resolved, np.random.default_rng(0))


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
        assert np.all(posterior.F_draws == 5.0)

    def test_retained_count(self):
        config = SamplerConfig(chains=1, iterations=103, burn_in=20, thin=7, seed=1)
        posterior = run_chain(_small_data(), flat_hyperparams(2), config)
        assert posterior.draws.shape == (1, config.n_retained, 2)
        assert config.n_retained == 12

    def test_acceptance_rates_in_unit_interval(self):
        config = SamplerConfig(chains=2, iterations=200, burn_in=50, seed=9)
        posterior = run_chain(_small_data(), flat_hyperparams(2), config)
        for row in posterior.acceptance:
            assert np.all(row >= 0) and np.all(row <= 1)
        assert 0.0 <= posterior.acceptance_rate_mean <= 1.0

    def test_carried_totals_match_state_after_every_update(self, monkeypatch):
        # The sweep hands its running per-phase totals to every S step and
        # p update.  Each call checks them against the chain's state, so each
        # S step, accepted or not, is checked by the call after it.
        calls = {"mh_update_S": 0, "gibbs_update_p": 0}
        seen = set()
        states = []

        def capture_state(*args):
            states.append(init_state(*args))
            return states[-1]

        def checked(update):
            def wrapper(*args):
                totals = inspect.signature(update).bind(*args).arguments["totals"]
                assert isinstance(totals, list)
                assert totals == states[-1].F
                calls[update.__name__] += 1
                seen.add(tuple(totals))
                return update(*args)

            return wrapper

        monkeypatch.setattr(sampler_mod, "init_state", capture_state)
        monkeypatch.setattr(sampler_mod, "mh_update_S", checked(mh_update_S))
        monkeypatch.setattr(sampler_mod, "gibbs_update_p", checked(gibbs_update_p))
        data = [
            PhaseSummary(1, 10, {1: 1, 2: 2}),
            PhaseSummary(2, 25, {3: 2, 4: 1}),
            PhaseSummary(3, 45, {5: 3, 6: 2}),
        ]
        config = SamplerConfig(chains=2, iterations=150, burn_in=50, seed=12)
        run_chain(data, flat_hyperparams(3), config)
        assert calls == {"mh_update_S": 2 * 150 * 6, "gibbs_update_p": 2 * 150 * 3}
        assert len(states) == 2
        assert len(seen) > 10  # the totals did move

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
