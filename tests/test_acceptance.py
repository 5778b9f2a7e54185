"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import math
import random
import time

import numpy as np
from scipy.integrate import quad

from bugsize.baseline import PhaseDetection, baseline_update, compare_models, initial_state, posterior_remaining
from bugsize.cli import run
from bugsize.ingest import PhaseSummary, summarize_phases
from bugsize.model import (
    ChainState,
    Hyperparams,
    flat_hyperparams,
    log_likelihood,
    resolve_for_data,
)
from bugsize.predictor import (
    PhaseEvent,
    cv_score,
    decide_stop,
    events_from_totals,
    kde_density,
    temporal_weights,
)
from bugsize.sampler import SamplerConfig, gibbs_update_p, gibbs_update_t, mh_update_S, run_chain
from bugsize.simulator import ScenarioConfig, generate, oracle_hyperparams

TABLE_TOTALS = [34007.0, 36157.0, 57738.0, 11409.0, 6.9e-10]


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion} {status}: {label}{suffix}")
    assert ok, f"criterion {criterion} failed: {label} {suffix}"


def _beta(x, y):
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


def _tv(counts, exact) -> float:
    return 0.5 * np.abs(counts / counts.sum() - exact / exact.sum()).sum()


def test_criterion_1_exact_posterior_oracle():
    """Collapsed Metropolis step and sweep vs exactly enumerated collapsed
    posteriors, TV < 0.02: the law of one S under repeated `mh_update_S`,
    and the law of F under `run_chain` on a 1-phase, 2-bug log whose trial
    counts have one candidate each.  The collapsed weights are written as
    the integrals over t and p: the beta-negative-binomial mass of the
    phase's runs at its total F, and per bug S times its beta-binomial
    mass."""

    def phase_weight(F, N, alpha, beta):
        return math.comb(N + F - 1, N) * _beta(N + alpha, F + beta)

    def bug_weight(S, n, a, b):
        return S * math.comb(n, S) * _beta(S + a, n - S + b)

    start = time.time()
    # one bug: the Metropolis step alone
    n, s, N, a, b, alpha, beta = 6, 2, 4, 1.5, 0.8, 2.0, 3.0
    data = [PhaseSummary(1, N, {1: s})]
    hyper = resolve_for_data(Hyperparams([alpha], [beta], a=a, b=b, m_weights=[[[n]]]), data)
    state = ChainState(S=[[s]], n_trials=[[n]])
    support = range(s, n + 1)
    exact = np.array([phase_weight(S, N, alpha, beta) * bug_weight(S, n, a, b) for S in support])
    rng = random.Random(42)
    counts = np.zeros(len(support))
    # The Poisson(2) proposal seldom reaches the top of the support, where
    # this posterior puts most of its mass, so the chain needs more draws
    # than the TV bound alone would: at 100 000, TV ran 0.009-0.033 over
    # seeds 1-6; at 200 000, 0.005-0.014.
    burn, retained = 2_000, 200_000
    for it in range(burn + retained):
        new, _ = mh_update_S(state, hyper, data, 0, 0, rng, state.F)
        state.S[0][0] = new
        if it >= burn:
            counts[new - s] += 1
    tv_step = _tv(counts, exact)

    # two bugs: the sweep's law of the phase total F
    N, observed, trials = 9, (2, 3), (6, 8)
    a_row, b_row, alpha, beta = [1.0, 2.0], [1.0, 0.7], 1.5, 2.0
    data = [PhaseSummary(1, N, dict(enumerate(observed)))]
    hyper = Hyperparams([alpha], [beta], a=[a_row], b=[b_row], m_weights=[[[n] for n in trials]])
    exact_F = {}
    for S_1 in range(observed[0], trials[0] + 1):
        for S_2 in range(observed[1], trials[1] + 1):
            weight = phase_weight(S_1 + S_2, N, alpha, beta) * bug_weight(S_1, trials[0], a_row[0], b_row[0])
            weight *= bug_weight(S_2, trials[1], a_row[1], b_row[1])
            exact_F[S_1 + S_2] = exact_F.get(S_1 + S_2, 0.0) + weight
    # thinned, to keep the retained draws small
    config = SamplerConfig(chains=1, iterations=burn + 2 * retained, burn_in=burn, thin=4, seed=42)
    draws = [F for (F,) in run_chain(data, hyper, config).F_draws]
    support_F = sorted(exact_F)
    counts_F = np.array([draws.count(F) for F in support_F], dtype=float)
    tv_sweep = _tv(counts_F, np.array([exact_F[F] for F in support_F]))
    elapsed = time.time() - start
    report(1, "exact-posterior oracle", tv_step < 0.02 and tv_sweep < 0.02 and elapsed < 10.0,
           f"step TV={tv_step:.4f}, sweep TV={tv_sweep:.4f}, {elapsed:.1f}s")


def test_criterion_2_conjugacy_equivalence():
    """Gibbs long-run means match the analytic Beta means within 3 MC SE."""
    draws = 100_000

    # p update: N=5, per-phase total 3, alpha=2, beta=4 -> Beta(7, 7)
    data = [PhaseSummary(1, 5, {1: 3})]
    hyper = flat_hyperparams(1)
    hyper.alpha_hat = np.array([2.0])
    hyper.beta_hat = np.array([4.0])
    resolved = resolve_for_data(hyper, data)
    state = ChainState(S=[np.array([3])], n_trials=[np.array([6])])
    rng = random.Random(17)
    mean_p = np.mean([gibbs_update_p(resolved, data, 0, rng, state.F) for _ in range(draws)])
    a, b = 7.0, 7.0
    se_p = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)) / draws)
    ok_p = abs(mean_p - a / (a + b)) < 3 * se_p

    # p update of phase 2: its own runs 12 - 5 = 7 and its own total 4,
    # alpha=2, beta=4 -> Beta(9, 8)
    data_2 = [PhaseSummary(1, 5, {1: 3}), PhaseSummary(2, 12, {2: 4})]
    hyper_2 = flat_hyperparams(2)
    hyper_2.alpha_hat = [1.0, 2.0]
    hyper_2.beta_hat = [1.0, 4.0]
    resolved_2 = resolve_for_data(hyper_2, data_2)
    rng = random.Random(19)
    mean_p2 = np.mean([gibbs_update_p(resolved_2, data_2, 1, rng, [3, 4]) for _ in range(draws)])
    a2, b2 = 9.0, 8.0
    se_p2 = math.sqrt(a2 * b2 / ((a2 + b2) ** 2 * (a2 + b2 + 1)) / draws)
    ok_p2 = abs(mean_p2 - a2 / (a2 + b2)) < 3 * se_p2

    # t update: S=3, n=10, a=2, b=2 -> Beta(5, 9)
    hyper_t = flat_hyperparams(1)
    hyper_t.a, hyper_t.b = 2.0, 2.0
    resolved_t = resolve_for_data(hyper_t, [PhaseSummary(1, 5, {1: 3})])
    state_t = ChainState(S=[np.array([3])], n_trials=[np.array([10])])
    rng = random.Random(18)
    mean_t = np.mean([gibbs_update_t(state_t, resolved_t, 0, 0, rng) for _ in range(draws)])
    at, bt = 5.0, 9.0
    se_t = math.sqrt(at * bt / ((at + bt) ** 2 * (at + bt + 1)) / draws)
    ok_t = abs(mean_t - at / (at + bt)) < 3 * se_t

    report(2, "conjugacy equivalence",
           ok_p and ok_p2 and ok_t,
           f"p dev={abs(mean_p - 0.5) / se_p:.2f} SE, "
           f"phase-2 p dev={abs(mean_p2 - a2 / (a2 + b2)) / se_p2:.2f} SE, "
           f"t dev={abs(mean_t - at/(at+bt)) / se_t:.2f} SE")


def test_criterion_3_likelihood_brute_force():
    """exp(log_likelihood) equals the direct product of the per-phase NB
    terms: phase k's runs n_k ~ NB(F_k, p_k), F_k its own total."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        # per-phase totals in any order, so histories may shrink, and
        # strictly increasing cumulative runs
        r = rng.integers(1, 8, size=m)
        n = rng.integers(1, 12, size=m)
        p = rng.uniform(0.05, 0.95, size=m)
        brute = 1.0
        for k in range(m):
            brute *= (
                math.comb(int(n[k] + r[k] - 1), int(n[k]))
                * p[k] ** n[k]
                * (1 - p[k]) ** r[k]
            )
        rel = abs(math.exp(log_likelihood(np.cumsum(r), np.cumsum(n), p)) - brute) / brute
        worst = max(worst, rel)
    report(3, "likelihood brute-force equivalence", worst < 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_4_estimator_recovery():
    """Posterior 95% intervals cover the true per-phase totals >= 80%.

    Each fit receives the scenario's structural knowns: the true trial
    counts (trial counts are held fixed per chain, no conditional is
    sampled for them) and a detection-rate prior moment-matched to the
    scenario's uniform t law through the kernel's implied Beta(a+1, b)
    tilt.
    """
    start = time.time()
    covered = total = skipped = 0
    for i in range(50):
        phases = 2 + (i % 2)
        bugs = (3, 2) if phases == 2 else (2, 2, 3)
        scenario = ScenarioConfig(
            phases=phases,
            bugs_per_phase=bugs,
            n_trials_range=(6, 14),
            t_range=(0.35, 0.85),
            p_true=tuple([0.7] * phases),
            seed=1000 + i,
            exposure_offset=30.0,
        )
        log, truth = generate(scenario)
        summaries = summarize_phases(log.records, log.runs_per_phase)
        if any(s.distinct_bugs == 0 for s in summaries):
            skipped += 1
            continue
        hyper = oracle_hyperparams(truth, scenario.t_range)
        config = SamplerConfig(chains=2, iterations=1500, burn_in=500, thin=1, seed=2000 + i)
        posterior = run_chain(summaries, hyper, config)
        low, high = posterior.F_ci
        for j in range(len(summaries)):
            total += 1
            covered += bool(low[j] <= truth.per_phase_totals[j] <= high[j])
    elapsed = time.time() - start
    coverage = covered / total
    report(4, "estimator recovery (simulation-based calibration)",
           coverage >= 0.80 and elapsed < 300.0,
           f"coverage {covered}/{total} = {coverage:.2f}, skipped {skipped}, {elapsed:.0f}s")


def test_criterion_5_kde_correctness():
    """Weights normalize to 1e-12; density integrates to 1e-6; CV matches
    quadrature at five grid points to 1e-6."""
    rng = np.random.default_rng(55)
    worst_weight_gap = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        starts = rng.uniform(0.0, 30.0, size=k)
        widths = rng.uniform(0.1, 4.0, size=k)
        events = [
            PhaseEvent(i + 1, 1.0, float(v), float(v + w))
            for i, (v, w) in enumerate(zip(starts, widths))
        ]
        t = max(e.window_end for e in events) + float(rng.uniform(0.0, 5.0))
        weights = np.asarray(temporal_weights(t, events, float(rng.uniform(0.2, 3.0))))
        worst_weight_gap = max(worst_weight_gap, abs(float(weights.sum()) - 1.0))
        assert np.all(weights >= 0)
    ok_weights = worst_weight_gap <= 1e-12

    events = events_from_totals([3.0, 9.0, 6.0])
    weights = temporal_weights(4.0, events, 1.0)
    h = 1.4
    integral, _ = quad(
        lambda x: kde_density(x, events, weights, h), 3.0 - 10 * h, 9.0 + 10 * h, limit=300
    )
    ok_density = abs(integral - 1.0) <= 1e-6

    samples = [0.0, 1.5, 2.0, 4.5]
    n = len(samples)
    worst_cv_gap = 0.0
    for h_candidate in (0.4, 0.7, 1.0, 1.6, 2.5):

        def fhat(x):
            return sum(
                math.exp(-0.5 * ((x - s) / h_candidate) ** 2)
                / (h_candidate * math.sqrt(2 * math.pi))
                for s in samples
            ) / n

        quad_term, _ = quad(lambda x: fhat(x) ** 2, -30, 35, limit=400)
        loo = 0.0
        for i, x_i in enumerate(samples):
            loo += sum(
                math.exp(-0.5 * ((x_i - x_j) / h_candidate) ** 2)
                / (h_candidate * math.sqrt(2 * math.pi))
                for j, x_j in enumerate(samples)
                if j != i
            ) / (n - 1)
        oracle = quad_term - 2.0 / n * loo
        worst_cv_gap = max(worst_cv_gap, abs(cv_score(samples, h_candidate) - oracle))
    ok_cv = worst_cv_gap <= 1e-6

    report(5, "KDE correctness", ok_weights and ok_density and ok_cv,
           f"weight gap {worst_weight_gap:.1e}, integral gap {abs(integral-1):.1e}, "
           f"CV gap {worst_cv_gap:.1e}")


def test_criterion_6_decision_fixture():
    """The reference per-phase totals with epsilon 1 stop after phase 4, exactly."""
    decision = decide_stop(TABLE_TOTALS, 1.0)
    report(6, "decision fixture", decision.stop_after_phase == 4,
           f"stop_after_phase={decision.stop_after_phase}")


def test_criterion_7_baseline_algebraic_identity():
    """p + q stays 1 within 1e-12 over 1e4 random updates; the remaining-
    fault pmf sums to 1 within 1e-10 on every reachable fixture state."""
    rng = np.random.default_rng(99)
    worst_pq = 0.0
    for _ in range(10_000):
        p0 = float(rng.uniform(0.01, 0.99))
        q1 = float(rng.uniform(0.0, 0.6))
        q2 = float(rng.uniform(0.0, 1.0 - q1 - 1e-9))
        state = initial_state(30, p0)
        counts = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        detection = PhaseDetection(counts=counts, q_detect=(q1, q2), q_none=1.0 - q1 - q2)
        updated = baseline_update(state, detection)
        worst_pq = max(worst_pq, abs(updated.p + updated.q - 1.0))
    ok_pq = worst_pq <= 1e-12

    state = initial_state(12, 0.45)
    worst_pmf = 0.0
    for counts in ((3,), (2,), (4,)):
        state = baseline_update(
            state, PhaseDetection(counts=counts, q_detect=(0.4,), q_none=0.6)
        )
        total = sum(posterior_remaining(state, v) for v in range(state.remaining_pool + 1))
        worst_pmf = max(worst_pmf, abs(total - 1.0))
    ok_pmf = worst_pmf <= 1e-10

    report(7, "baseline algebraic identity", ok_pq and ok_pmf,
           f"max |p+q-1| = {worst_pq:.1e}, max pmf gap = {worst_pmf:.1e}")


def test_criterion_8_comparison_harness_integrity():
    """50-trial comparison is deterministic and bit-for-bit reproducible.

    No particular win rate or relative MSE is targeted: the harness
    defines its own documented protocol and its numbers are a property
    of the configured scenario.
    """
    from bugsize.simulator import default_scenario

    start = time.time()
    first = compare_models(default_scenario(0), trials=50, seed=7)
    second = compare_models(default_scenario(0), trials=50, seed=7)
    same = json.dumps(first.as_doc(), sort_keys=True) == json.dumps(
        second.as_doc(), sort_keys=True
    )
    ok = same and 0.0 <= first.win_fraction <= 1.0 and first.scored_trials >= 1
    report(8, "comparison harness integrity", ok,
           f"win_fraction={first.win_fraction:.2f}, scored={first.scored_trials}, "
           f"skipped={first.skipped_trials}, {time.time()-start:.0f}s")


def test_criterion_9_end_to_end_determinism(tmp_path):
    """simulate -> ingest -> fit -> predict -> decide is byte-identical
    across repeated runs and across worker counts."""

    def pipeline(tag: str, workers: int) -> bytes:
        base = tmp_path / tag
        base.mkdir()
        log = base / "log.csv"
        truth = base / "truth.json"
        assert run(["simulate", "--seed", "7", "--out", str(log), "--truth-out", str(truth), "--quiet"]) == 0
        runs = ",".join(str(x) for x in json.loads(truth.read_text())["runs_per_phase"])
        ingest_out = base / "ingest.json"
        assert run(["ingest", "--data", str(log), "--runs", runs, "--out", str(ingest_out), "--quiet"]) == 0
        fit_out = base / "fit.json"
        assert run([
            "fit", "--data", str(log), "--runs", runs,
            "--iterations", "400", "--burn-in", "100", "--chains", "2",
            "--seed", "7", "--workers", str(workers),
            "--out", str(fit_out), "--quiet",
        ]) == 0
        predict_out = base / "predict.json"
        assert run([
            "predict", "--from-report", str(fit_out), "--epsilon", "1",
            "--out", str(predict_out), "--quiet",
        ]) == 0
        decide_out = base / "decide.json"
        assert run([
            "decide", "--from-report", str(predict_out), "--epsilon", "1",
            "--out", str(decide_out), "--quiet",
        ]) == 0
        return b"".join(
            path.read_bytes() for path in (ingest_out, fit_out, predict_out, decide_out)
        )

    first = pipeline("a", workers=1)
    second = pipeline("b", workers=1)
    threaded = pipeline("c", workers=3)
    report(9, "end-to-end determinism",
           first == second == threaded,
           f"{len(first)} report bytes compared")
