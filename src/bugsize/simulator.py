"""Synthetic testing-log generator with known ground truth.

Scenarios draw eventual bug sizes from the size-biased binomial law the
estimator assumes, chain run counts through the negative-binomial link,
and thin eventual sizes down to observed sizes with a run-dependent
exposure probability.  Serves as the oracle for estimator-recovery and
model-comparison tests.

An eventual size S is drawn as 1 + Binomial(n - 1, t): size-biasing
Binomial(n, t) gives exactly that law, since
s C(n, s) t^s (1-t)^(n-s) / (n t) = C(n-1, s-1) t^(s-1) (1-t)^(n-s).
One draw costs the same at n = 40 000 as at n = 10, where building the
pmf would cost O(n).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ingest import TestLogRecord
from .model import (
    Hyperparams,
    binomial_pmf,  # noqa: F401 -- not called: bench/run.py traces this name
    flat_hyperparams,
    size_biased_pmf,  # noqa: F401 -- not called: bench/run.py traces this name
    size_params,
    solve_beta_hyper,
)

__all__ = [
    "ScenarioInfeasibleError",
    "ScenarioConfig",
    "TestLog",
    "GroundTruth",
    "generate",
    "default_scenario",
    "matched_t_prior",
    "oracle_hyperparams",
]


class ScenarioInfeasibleError(RuntimeError):
    """Feasibility resampling was exhausted without a usable draw."""


@dataclass(frozen=True)
class ScenarioConfig:
    phases: int
    bugs_per_phase: tuple[int, ...]
    n_trials_range: tuple[int, int]
    t_range: tuple[float, float]
    p_true: tuple[float, ...]
    seed: int
    exposure_offset: float = 100.0
    max_retries: int = 1000

    def __post_init__(self) -> None:
        if self.phases < 1:
            raise ValueError("phases must be >= 1")
        if len(self.bugs_per_phase) != self.phases or any(b < 1 for b in self.bugs_per_phase):
            raise ValueError("bugs_per_phase needs one positive entry per phase")
        for name in ("n_trials_range", "t_range"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must list two values, low and high")
        lo, hi = self.n_trials_range
        if not 1 <= lo <= hi:
            raise ValueError("n_trials_range must be a non-empty range of positive integers")
        t_lo, t_hi = self.t_range
        if not 0.0 < t_lo <= t_hi <= 1.0:
            raise ValueError("t_range must be a non-empty interval inside (0, 1]")
        if len(self.p_true) != self.phases or any(not 0.0 < p < 1.0 for p in self.p_true):
            raise ValueError("p_true needs one entry in (0, 1) per phase")
        if self.exposure_offset < 0:
            raise ValueError("exposure_offset must be non-negative")
        if self.seed < 0:
            raise ValueError(f"scenario 'seed' must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class TestLog:
    records: list[TestLogRecord]
    runs_per_phase: list[int]


@dataclass(frozen=True)
class GroundTruth:
    eventual: list[np.ndarray]  # S_ij
    observed: list[np.ndarray]  # s_ij, zeros kept for unobserved bugs
    trials: list[np.ndarray]  # n_ij
    detect_rate: list[np.ndarray]  # t_ij
    p: np.ndarray
    runs_per_phase: list[int]
    runs_cumulative: list[int]
    per_phase_totals: np.ndarray  # sums of eventual sizes by phase

    def as_doc(self) -> dict:
        return {
            "eventual_sizes": [row.tolist() for row in self.eventual],
            "observed_sizes": [row.tolist() for row in self.observed],
            "trial_counts": [row.tolist() for row in self.trials],
            "detect_rates": [row.tolist() for row in self.detect_rate],
            "p_true": self.p.tolist(),
            "runs_per_phase": list(self.runs_per_phase),
            "runs_cumulative": list(self.runs_cumulative),
            "per_phase_totals": self.per_phase_totals.tolist(),
        }


def _draw_latents(config: ScenarioConfig, rng: np.random.Generator):
    lo, hi = config.n_trials_range
    t_lo, t_hi = config.t_range
    trials, rates, eventual = [], [], []
    for bugs in config.bugs_per_phase:
        n_row = rng.integers(lo, hi + 1, size=bugs)
        t_row = rng.uniform(t_lo, t_hi, size=bugs)
        S_row = 1 + rng.binomial(n_row - 1, t_row)  # size-biased Binomial(n, t)
        trials.append(n_row.astype(np.int64))
        rates.append(t_row)
        eventual.append(S_row)
    return trials, rates, eventual


def generate(config: ScenarioConfig) -> tuple[TestLog, GroundTruth]:
    """Generate one scenario; deterministic given config.seed.

    Latents are resampled (bounded retries) until every phase's
    negative-binomial size parameter is positive, matching the support
    of the likelihood.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    for _ in range(config.max_retries):
        trials, rates, eventual = _draw_latents(config, rng)
        r = size_params([int(row.sum()) for row in eventual])
        if min(r) > 0:
            break
    else:
        raise ScenarioInfeasibleError(
            f"no feasible eventual-size draw in {config.max_retries} attempts; "
            "later phases must be able to out-size earlier ones"
        )

    runs_per_phase = []
    for r_k, p_k in zip(r, config.p_true):
        # NB can draw 0 runs; cumulative run counts must strictly increase.
        increment = int(rng.negative_binomial(float(r_k), 1.0 - p_k))
        runs_per_phase.append(max(increment, 1))
    runs_cumulative = list(np.cumsum(runs_per_phase))

    observed = []
    records = []
    defect_id = 0
    for j, (S_row, N_j) in enumerate(zip(eventual, runs_cumulative), start=1):
        exposure = N_j / (N_j + config.exposure_offset)
        s_row = rng.binomial(S_row, exposure).astype(np.int64)
        observed.append(s_row)
        for i, s in enumerate(s_row):
            defect_id += 1
            if s >= 1:
                records.append(
                    TestLogRecord(
                        cycle=j, defect_header=defect_id, defect_id=defect_id, size=int(s)
                    )
                )

    truth = GroundTruth(
        eventual=eventual,
        observed=observed,
        trials=trials,
        detect_rate=rates,
        p=np.array(config.p_true),
        runs_per_phase=runs_per_phase,
        runs_cumulative=[int(n) for n in runs_cumulative],
        per_phase_totals=np.array([float(row.sum()) for row in eventual]),
    )
    return TestLog(records=records, runs_per_phase=runs_per_phase), truth


def default_scenario(seed: int = 0) -> ScenarioConfig:
    """Small two-phase scenario used by the comparison harness."""
    return ScenarioConfig(
        phases=2,
        bugs_per_phase=(3, 3),
        n_trials_range=(6, 14),
        t_range=(0.35, 0.85),
        p_true=(0.7, 0.7),
        seed=seed,
        exposure_offset=30.0,
    )


def matched_t_prior(t_range: tuple[float, float]) -> tuple[float, float]:
    """Beta(a, b) detection-rate prior matched to a scenario's uniform t law.

    The estimator's joint kernel carries the per-bug size-bias factor
    without the 1/(n t) normalizer, so a configured Beta(a, b) behaves
    like the generative law t ~ Beta(a+1, b).  Moment-matching
    Beta(a+1, b) to U(t_range) and shifting back by one compensates for
    that tilt.  The first shape is floored at 0.5 since wide ranges push
    the matched value toward zero.
    """
    lo, hi = t_range
    mean = (lo + hi) / 2.0
    var = (hi - lo) ** 2 / 12.0
    if var <= 0:  # degenerate range: concentrate near the point value
        return max(20.0 * mean, 0.5), max(20.0 * (1.0 - mean), 0.5)
    alpha, beta = solve_beta_hyper(mean, var)
    return max(alpha - 1.0, 0.5), beta


def oracle_hyperparams(truth: GroundTruth, t_range: tuple[float, float]) -> Hyperparams:
    """Hyperparameters carrying a simulated log's structural knowns.

    Flat Beta(1, 1) phase priors, the detection-rate prior
    ``matched_t_prior(t_range)``, and each logged bug's trial count pinned
    to its true n_ij (a single candidate), in the order ``summarize_phases``
    lists the logged bugs.
    """
    a, b = matched_t_prior(t_range)
    m_weights = [
        [np.array([int(n)]) for n, s in zip(n_row, s_row) if s >= 1]
        for n_row, s_row in zip(truth.trials, truth.observed)
    ]
    return replace(flat_hyperparams(len(truth.trials)), a=a, b=b, m_weights=m_weights)
