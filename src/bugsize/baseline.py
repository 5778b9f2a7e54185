"""Multi-fault-class Bayesian detection model and the model-comparison
harness.

The reference model tracks, for a known total fault count, the binomial
posterior over how many faults remain undetected after each review
phase.  Detection counts per phase follow a multinomial over fault
classes with configured detection probabilities; the posterior stays
binomial with parameters updated by a closed-form recursion.  Its sums
of probabilities are `math.fsum`s, so a report is the same on every
Python (3.12's built-in `sum` is compensated, earlier ones are not).

The comparison harness pits the size-biased estimator against this
model on simulated scenarios with known truth, scoring both by squared
error of the predicted remaining total size.
"""

from __future__ import annotations

import math
import random
from math import fsum, lgamma, log
from typing import NamedTuple

from .ingest import summarize_phases
from .model import flat_hyperparams  # noqa: F401 -- not called: bench/run.py traces this name
from .sampler import InitializationError, SamplerConfig, run_chain
from .simulator import ScenarioConfig, generate, oracle_hyperparams

__all__ = [
    "DegenerateUpdateError",
    "BaselineState",
    "PhaseDetection",
    "initial_state",
    "baseline_update",
    "posterior_remaining",
    "baseline_stopping_phase",
    "phase_log_evidence",
    "ComparisonConfig",
    "ComparisonReport",
    "compare_models",
]


class DegenerateUpdateError(RuntimeError):
    """The posterior recursion's denominator became non-positive."""


class _PhaseDetection(NamedTuple):
    counts: tuple[int, ...]
    q_detect: tuple[float, ...]
    q_none: float


class PhaseDetection(_PhaseDetection):
    """Detected fault counts per class in one phase, with the class
    detection probabilities and the no-detection probability."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.counts) != len(self.q_detect):
            raise ValueError("one detection probability per fault class is required")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if any(not 0.0 <= q <= 1.0 for q in self.q_detect) or not 0.0 <= self.q_none <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(fsum([self.q_none, *self.q_detect]) - 1.0) > 1e-9:
            raise ValueError("q_none plus class detection probabilities must sum to 1")
        return self

    @property
    def total(self) -> int:
        return sum(self.counts)


class _BaselineState(NamedTuple):
    n_total: int
    p: float
    q: float
    detected_cum: int
    phase: int


class BaselineState(_BaselineState):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_total < 1:
            raise ValueError("n_total must be >= 1")
        if abs(self.p + self.q - 1.0) > 1e-9:
            raise ValueError(f"p + q must equal 1, got {self.p + self.q}")
        if not 0 <= self.detected_cum <= self.n_total:
            raise ValueError("detected_cum must lie in [0, n_total]")
        return self

    @property
    def remaining_pool(self) -> int:
        return self.n_total - self.detected_cum


def initial_state(n_total: int, p0: float) -> BaselineState:
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie strictly inside (0, 1)")
    return BaselineState(n_total=n_total, p=p0, q=1.0 - p0, detected_cum=0, phase=0)


def baseline_update(state: BaselineState, detection: PhaseDetection) -> BaselineState:
    """Advance the binomial posterior by one phase.

    p_j = p_{j-1} q_0j / (1 - p_{j-1} sum_i q_ij), and q_j divides the
    previous q by the same denominator, which preserves p + q = 1
    exactly whenever the detection probabilities are a proper simplex.
    """
    sum_q = fsum(detection.q_detect)
    denominator = 1.0 - state.p * sum_q
    if denominator <= 0.0:
        raise DegenerateUpdateError(
            f"phase {state.phase + 1}: denominator {denominator} is not positive"
        )
    detected = state.detected_cum + detection.total
    if detected > state.n_total:
        raise ValueError(
            f"phase {state.phase + 1}: cumulative detections {detected} exceed n_total"
        )
    return BaselineState(
        n_total=state.n_total,
        p=state.p * detection.q_none / denominator,
        q=state.q / denominator,
        detected_cum=detected,
        phase=state.phase + 1,
    )


def posterior_remaining(state: BaselineState, v: int) -> float:
    """Probability that exactly v faults remain undetected.

    Binomial(n_total - detected_cum, p) evaluated in log space; values
    outside the support return 0.
    """
    pool = state.remaining_pool
    if v < 0 or v > pool:
        return 0.0
    if state.p <= 0.0:
        return 1.0 if v == 0 else 0.0
    if state.q <= 0.0:
        return 1.0 if v == pool else 0.0
    log_pmf = (
        lgamma(pool + 1)
        - lgamma(v + 1)
        - lgamma(pool - v + 1)
        + v * log(state.p)
        + (pool - v) * log(state.q)
    )
    return math.exp(log_pmf)


def baseline_stopping_phase(
    detections: list[PhaseDetection],
    n_total: int,
    p0: float,
    delta: float,
) -> int | None:
    """Smallest phase j with P(no faults remain) >= 1 - delta, else None."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly inside (0, 1)")
    state = initial_state(n_total, p0)
    for detection in detections:
        state = baseline_update(state, detection)
        if posterior_remaining(state, 0) >= 1.0 - delta:
            return state.phase
    return None


def phase_log_evidence(state: BaselineState, detection: PhaseDetection) -> float:
    """Log predictive probability of one phase's detection counts.

    Marginalizes the multinomial detection likelihood over the binomial
    prior on the number of faults present entering the phase; this is
    exactly the normalizer of the posterior recursion.  The package does
    not call it; it is kept, with its tests, as a check on that recursion.
    """
    pool = state.remaining_pool
    total = detection.total
    if total > pool:
        return -math.inf
    counts_norm = fsum(lgamma(c + 1) for c in detection.counts)
    log_q = [log(q) if q > 0 else -math.inf for q in detection.q_detect]
    fixed = fsum(c * lq if c else 0.0 for c, lq in zip(detection.counts, log_q))
    terms = []
    for v in range(pool - total + 1):
        prior = posterior_remaining(state, total + v)
        if prior <= 0.0:
            continue
        log_mn = lgamma(total + v + 1) - counts_norm - lgamma(v + 1) + fixed
        log_mn += v * log(detection.q_none) if v else 0.0
        terms.append(math.log(prior) + log_mn)
    top = max(terms, default=-math.inf)
    if top == -math.inf:
        return -math.inf
    return top + math.log(fsum(math.exp(term - top) for term in terms))


class ComparisonConfig(NamedTuple):
    """Knobs of the comparison protocol."""

    q_detect: float = 0.5
    p0: float = 0.5
    chains: int = 1
    iterations: int = 600
    burn_in: int = 200
    thin: int = 2


class ComparisonReport(NamedTuple):
    trials: int
    scored_trials: int
    skipped_trials: int
    win_fraction: float
    relative_mse_size_biased: float
    relative_mse_baseline: float
    seed: int

    def as_doc(self) -> dict:
        """The report's fields, keyed in declaration order."""
        return self._asdict()


def _wins(errors_a: list[float], errors_b: list[float]) -> float:
    """Fraction of trials the first model scored strictly better; exact
    ties count one half."""
    score = 0.0
    for a, b in zip(errors_a, errors_b):
        if a < b:
            score += 1.0
        elif a == b:
            score += 0.5
    return score / len(errors_a)


def compare_models(
    scenario: ScenarioConfig,
    trials: int,
    seed: int,
    comparison: ComparisonConfig | None = None,
) -> ComparisonReport:
    """Score both models on simulated scenarios with known truth.

    Each trial simulates a log, fits the size-biased sampler, rolls the
    detection-count recursion forward, and scores each model's squared
    error in predicting the remaining total size (eventual minus
    observed).  Both models receive their structural knowns: the
    detection-count model gets the true fault count, the size-biased fit
    gets the true trial counts and a detection-rate prior matched to the
    scenario.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    comparison = comparison or ComparisonConfig()

    errors_sized, errors_base, truths = [], [], []
    skipped = 0
    for i in range(trials):
        # a 64-bit seed from the trial's own stream; it seeds both the
        # trial's scenario and its chain
        trial_seed = random.Random(f"bugsize compare {seed} {i}").getrandbits(64)
        # built anew rather than by `_replace`, which skips the validation
        trial_scenario = ScenarioConfig(**{**scenario._asdict(), "seed": trial_seed})
        try:
            log, truth = generate(trial_scenario)
            summaries = summarize_phases(log.records, log.runs_per_phase)
            observed_total = sum(s.observed_total for s in summaries)
            truth_remaining = fsum(truth.per_phase_totals) - observed_total

            config = SamplerConfig(
                chains=comparison.chains,
                iterations=comparison.iterations,
                burn_in=comparison.burn_in,
                thin=comparison.thin,
                seed=trial_seed,
            )
            hyper = oracle_hyperparams(truth, trial_scenario.t_range)
            posterior = run_chain(summaries, hyper, config)
            predicted_sized = fsum(posterior.F_mean) - observed_total

            n_total = sum(trial_scenario.bugs_per_phase)
            state = initial_state(n_total, comparison.p0)
            detected = 0
            for summary in summaries:
                detection = PhaseDetection(
                    counts=(summary.distinct_bugs,),
                    q_detect=(comparison.q_detect,),
                    q_none=1.0 - comparison.q_detect,
                )
                state = baseline_update(state, detection)
                detected += summary.distinct_bugs
            mean_size = observed_total / detected if detected else 0.0
            predicted_base = state.remaining_pool * state.p * mean_size
        except (DegenerateUpdateError, InitializationError):
            skipped += 1
            continue

        errors_sized.append((predicted_sized - truth_remaining) ** 2)
        errors_base.append((predicted_base - truth_remaining) ** 2)
        truths.append(truth_remaining)

    if not errors_sized:
        raise RuntimeError("every comparison trial was skipped")

    # Relative MSE: mean squared error over the mean squared truth.  The
    # means are exactly rounded sums (fsum), so the report does not depend
    # on how an interpreter's built-in sum adds floats.
    scored = len(errors_sized)
    truth_scale = fsum(truth * truth for truth in truths) / scored
    if truth_scale == 0.0:
        truth_scale = 1.0
    return ComparisonReport(
        trials=trials,
        scored_trials=scored,
        skipped_trials=skipped,
        win_fraction=_wins(errors_sized, errors_base),
        relative_mse_size_biased=fsum(errors_sized) / scored / truth_scale,
        relative_mse_baseline=fsum(errors_base) / scored / truth_scale,
        seed=seed,
    )
