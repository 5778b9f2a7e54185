"""Synthetic testing-log generator with known ground truth.

Scenarios draw eventual bug sizes from the size-biased binomial law the
estimator assumes, draw each phase's runs from the model's run-count law,
NB(F_j, p_j) with F_j the phase's total of eventual sizes (`model`), and
thin eventual sizes down to observed sizes with a run-dependent exposure
probability.  Every phase has at least one bug of size at least 1, so
every draw of the latents is in the model's support.  Serves as the
oracle for estimator-recovery and model-comparison tests.

An eventual size S is drawn as 1 + Binomial(n - 1, t): size-biasing
Binomial(n, t) gives exactly that law, since
s C(n, s) t^s (1-t)^(n-s) / (n t) = C(n-1, s-1) t^(s-1) (1-t)^(n-s).
One draw costs the same at n = 40 000 as at n = 10, where building the
pmf would cost O(n).  `binomial_pmf` and `size_biased_pmf` build both
laws as explicit pmfs (`DiscretePmf`); the tests check the identity
against them.  Only they use numpy, imported when they run, so that
generating a scenario needs only the standard library.

Random source.  A scenario seeded with ``seed`` draws from its own
``random.Random``, seeded with a string that names the scenario and
``seed``, so it shares no stream with a chain (``sampler.chain_rng``) or
the hyperprior draw.  Trial counts come from ``randint`` and detection
rates from ``uniform``.  Binomial draws (`binomial`) port CPython 3.12's
``random.binomialvariate``, so that every supported interpreter draws the
same stream: p > 0.5 by symmetry, Devroye's geometric method below
n p = 10 and, from there, the transformed rejection method BTRS (Hörmann
1993, *The generation of binomial random variates*, J. Statist. Comput.
Simul. 46).  A negative-binomial run increment (`negative_binomial`) is
numpy's gamma-Poisson mixture: lam ~ Gamma(r, p / (1 - p)), then a
Poisson(lam) draw by ``sampler.poisson``.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import fabs, floor, lgamma, log, log1p, log2, sqrt
from typing import TYPE_CHECKING, NamedTuple

from .ingest import TestLogRecord
from .model import Hyperparams, flat_hyperparams, solve_beta_hyper
from .sampler import poisson

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiscretePmf",
    "binomial_pmf",
    "size_biased_pmf",
    "binomial",
    "negative_binomial",
    "ScenarioConfig",
    "TestLog",
    "GroundTruth",
    "generate",
    "default_scenario",
    "matched_t_prior",
    "oracle_hyperparams",
]


class _DiscretePmf(NamedTuple):
    support: np.ndarray
    mass: np.ndarray


class DiscretePmf(_DiscretePmf):
    """A finite discrete distribution over non-negative integer support."""

    __slots__ = ()

    def __new__(cls, support, mass):
        import numpy as np

        support = np.asarray(support, dtype=np.int64)
        mass = np.asarray(mass, dtype=float)
        if support.shape != mass.shape or support.ndim != 1 or support.size == 0:
            raise ValueError("support and mass must be equal-length 1-d arrays")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(mass < 0):
            raise ValueError("probability mass must be non-negative")
        if abs(float(mass.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mass sums to {mass.sum()!r}, not 1")
        return super().__new__(cls, support, mass)

    def mean(self) -> float:
        return float(self.support @ self.mass)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        mass = self.mass / self.mass.sum()
        return rng.choice(self.support, size=size, p=mass)


def binomial_pmf(n: int, t: float) -> DiscretePmf:
    """Binomial(n, t) as an explicit pmf over 0..n.

    The mass is built in log space and normalised after subtracting its
    maximum, so n in the tens of thousands neither overflows nor
    underflows; t = 0 and t = 1 are exact point masses.
    """
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    support = np.arange(n + 1)
    if t in (0.0, 1.0):
        mass = (support == (0 if t == 0.0 else n)).astype(float)
        return DiscretePmf(support, mass)
    log_factorial = np.fromiter(map(lgamma, range(1, n + 2)), float, n + 1)
    log_mass = (
        log_factorial[n]
        - log_factorial
        - log_factorial[::-1]
        + support * log(t)
        + (n - support) * log1p(-t)
    )
    mass = np.exp(log_mass - log_mass.max())
    return DiscretePmf(support, mass / mass.sum())


def size_biased_pmf(f: DiscretePmf) -> DiscretePmf:
    """Reweight a size distribution proportionally to size: h(s) = s f(s) / E[S].

    The mass at s = 0 becomes 0; a point mass at 0 has no size-biased
    counterpart and is rejected.
    """
    mean = f.mean()
    if mean <= 0.0:
        raise ValueError("size-biased transform undefined: distribution has zero mean")
    return DiscretePmf(f.support, f.support * f.mass / mean)


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, n >= 0 and 0 <= p <= 1.

    The draws are those of CPython 3.12's ``binomialvariate(n, p)`` on the
    same stream, with one exception: a uniform of exactly 0, on which 3.12
    divides by zero or takes log(0), is handled as the limit.  The
    geometric method stops, BTRS draws again (as ``sampler.poisson`` does)
    and its acceptance test passes.
    """
    if p == 0.0:
        return 0
    if p == 1.0:
        return n
    if n == 1:
        return int(rng.random() < p)
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)

    if n * p < 10.0:
        # Devroye's geometric method: O(n p) uniforms, one per success
        x = y = 0
        c = log2(1.0 - p)
        if not c:  # 1 - p rounds to 1
            return x
        while True:
            u = rng.random()
            if u == 0.0:  # an infinite gap: no further success
                return x
            y += floor(log2(u) / c) + 1
            if y > n:
                return x
            x += 1

    # BTRS
    spq = sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = log(p / (1.0 - p))
    m = floor((n + 1) * p)  # the mode
    h = lgamma(m + 1) + lgamma(n - m + 1)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - fabs(u)
        if us == 0.0:  # u = -0.5 sends k to -inf
            continue
        k = floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= vr:  # the squeeze
            return k
        v *= alpha / (a / (us * us) + b)
        # log(0) = -inf always accepts
        if v == 0.0 or log(v) <= h - lgamma(k + 1) - lgamma(n - k + 1) + (k - m) * lpq:
            return k


class _ScenarioConfig(NamedTuple):
    phases: int
    bugs_per_phase: tuple[int, ...]
    n_trials_range: tuple[int, int]
    t_range: tuple[float, float]
    p_true: tuple[float, ...]
    seed: int
    exposure_offset: float = 100.0


class ScenarioConfig(_ScenarioConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self


class TestLog(NamedTuple):
    records: list[TestLogRecord]
    runs_per_phase: list[int]


def negative_binomial(rng: random.Random, r: float, p: float) -> int:
    """One draw N of the run-count law, P(N = k) = C(k + r - 1, k) p^k (1 - p)^r,
    r > 0 and 0 < p < 1: numpy's ``negative_binomial(r, 1 - p)``, drawn as
    numpy draws it, a Poisson(lam) count with lam ~ Gamma(r, p / (1 - p))."""
    return poisson(rng, rng.gammavariate(r, p / (1.0 - p)))


class GroundTruth(NamedTuple):
    eventual: list[list[int]]  # S_ij
    observed: list[list[int]]  # s_ij, zeros kept for unobserved bugs
    trials: list[list[int]]  # n_ij
    detect_rate: list[list[float]]  # t_ij
    p: list[float]
    runs_per_phase: list[int]
    runs_cumulative: list[int]
    per_phase_totals: list[float]  # sums of eventual sizes by phase

    def as_doc(self) -> dict:
        return {
            "eventual_sizes": [list(row) for row in self.eventual],
            "observed_sizes": [list(row) for row in self.observed],
            "trial_counts": [list(row) for row in self.trials],
            "detect_rates": [list(row) for row in self.detect_rate],
            "p_true": list(self.p),
            "runs_per_phase": list(self.runs_per_phase),
            "runs_cumulative": list(self.runs_cumulative),
            "per_phase_totals": list(self.per_phase_totals),
        }


def generate(config: ScenarioConfig) -> tuple[TestLog, GroundTruth]:
    """Generate one scenario; deterministic given config.seed."""
    rng = random.Random(f"bugsize scenario {config.seed}")
    lo, hi = config.n_trials_range
    t_lo, t_hi = config.t_range
    trials, rates, eventual = [], [], []
    for bugs in config.bugs_per_phase:
        n_row = [rng.randint(lo, hi) for _ in range(bugs)]
        t_row = [rng.uniform(t_lo, t_hi) for _ in range(bugs)]
        # size-biased Binomial(n, t)
        S_row = [1 + binomial(rng, n - 1, t) for n, t in zip(n_row, t_row)]
        trials.append(n_row)
        rates.append(t_row)
        eventual.append(S_row)

    runs_per_phase = []
    for S_row, p_k in zip(eventual, config.p_true):
        # NB can draw 0 runs; cumulative run counts must strictly increase.
        runs_per_phase.append(max(negative_binomial(rng, sum(S_row), p_k), 1))
    runs_cumulative = list(accumulate(runs_per_phase))

    observed = []
    records = []
    defect_id = 0
    for j, (S_row, N_j) in enumerate(zip(eventual, runs_cumulative), start=1):
        exposure = N_j / (N_j + config.exposure_offset)
        s_row = [binomial(rng, S, exposure) for S in S_row]
        observed.append(s_row)
        for s in s_row:
            defect_id += 1
            if s >= 1:
                records.append(
                    TestLogRecord(cycle=j, defect_header=defect_id, defect_id=defect_id, size=s)
                )

    truth = GroundTruth(
        eventual=eventual,
        observed=observed,
        trials=trials,
        detect_rate=rates,
        p=[float(p) for p in config.p_true],
        runs_per_phase=runs_per_phase,
        runs_cumulative=runs_cumulative,
        per_phase_totals=[float(sum(row)) for row in eventual],
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
        [[n] for n, s in zip(n_row, s_row) if s >= 1]
        for n_row, s_row in zip(truth.trials, truth.observed)
    ]
    flat = flat_hyperparams(len(truth.trials))
    return Hyperparams(flat.alpha_hat, flat.beta_hat, a, b, m_weights)
