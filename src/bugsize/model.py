"""Hierarchical size-biased model of eventual bug sizes.

Latent quantities, per testing phase j with bugs i = 1..m_j:

* ``S_ij`` -- eventual size of a bug (inputs that would ever traverse it),
  with prior ``Binomial(n_ij, t_ij)`` reweighted proportionally to size.
* ``t_ij`` -- a bug's detectability, ``Beta(a_ij, b_ij)``.
* ``p_j`` -- per-run detection-side probability, ``Beta(alpha_j, beta_j)``
  with the Beta moments themselves drawn from uniform hyperpriors.
* ``n_j = N_j - N_{j-1}`` -- the runs of phase j (``N`` cumulative,
  ``N_0 = 0``), negative binomial with size parameter ``F_j``, the phase's
  own total of eventual sizes:
  ``P(n_j) = C(n_j + F_j - 1, n_j) p_j^n_j (1 - p_j)^F_j``.

The run-count law.  The size parameter of phase j is F_j alone, and the
negative binomial sits on the phase's run increment, which is what
`simulator.generate` draws.  F_j is positive whenever every eventual size
is at least 1, so every history in which each phase logs a bug is in the
support, including one whose per-phase totals shrink, as they must for
the stopping rule to say "stop": the reference totals 34 007, 36 157,
57 738, 11 409 of acceptance criterion 6 (``TABLE_TOTALS`` in
``tests/test_acceptance.py``) shrink at phase 4.  An earlier
law, r_k = C_k - sum_{i<k} C_i on the cumulative totals C, ruled such
histories out (at those totals r_4 < 0); on the first two phases the two
laws coincide, since r_1 = C_1 = F_1 and r_2 = C_2 - C_1 = F_2.

Collapsed terms.  Both t_ij ~ Beta(a_ij, b_ij) and p_j ~ Beta(alpha_j,
beta_j) are conjugate, so they integrate out in closed form and the
posterior of S given the trial counts is a product of two kinds of term
(Liu, Wong & Kong 1994, *Biometrika* 81(1), on why integrating out helps a
Gibbs sampler):

* per bug, `log_bug_term`: the size-biased kernel
  S C(n, S) t^S (1 - t)^(n - S) integrated against Beta(a, b), which is
  S C(n, S) B(S + a, n - S + b) / B(a, b), a beta-binomial mass times S;
* per phase, `log_phase_term`: the run-count mass NB(n_j; F_j, p_j)
  integrated against Beta(alpha_j, beta_j), which is
  C(n_j + F_j - 1, n_j) B(n_j + alpha_j, F_j + beta_j) / B(alpha_j, beta_j),
  a beta-negative-binomial mass.

These are exact marginals, not approximations: the joint density of
(S, t, p) is the product of the size-biased binomial terms, the run-count
terms and the Beta priors, and each t_ij and each p_j appears in exactly
one term, so integrating each out replaces that term by its integral.  The
marginal of S is therefore the one a Metropolis-within-Gibbs sampler on
(S, t, p) targets.  Each function drops the factors that do not depend on
the size it scores, so it is a log density up to a constant in S (or F)
only while n, a, b (or n_j, alpha_j, beta_j) are fixed.

Everything probabilistic is evaluated in log space; totals in real data
reach tens of thousands and direct products underflow.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from math import fsum, lgamma, log, log1p

from .ingest import PhaseSummary

__all__ = [
    "solve_beta_hyper",
    "sample_hyper",
    "sample_n_trials",
    "Hyperparams",
    "HyperConfig",
    "flat_hyperparams",
    "resolve_for_data",
    "ChainState",
    "log_likelihood",
    "log_bug_term",
    "log_phase_term",
    "log_posterior_S_kernel",
]

# Trial-count candidates default to these multiples of the observed size,
# keeping the support of S_ij a non-empty superset of the observed floor.
TRIAL_CANDIDATE_MULTIPLIERS = (1, 2, 3, 4)


def solve_beta_hyper(mu: float, sigma2: float) -> tuple[float, float]:
    """Beta parameters matching a given mean and variance.

    alpha = mu (mu(1-mu)/sigma2 - 1), beta = alpha (1-mu)/mu.  Requires
    0 < sigma2 < mu(1-mu); the variance of a Beta with mean mu cannot
    reach mu(1-mu).
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mean must lie strictly inside (0, 1), got {mu}")
    bound = mu * (1.0 - mu)
    if not 0.0 < sigma2 < bound:
        raise ValueError(
            f"variance {sigma2} is infeasible for mean {mu}: needs 0 < sigma2 < {bound}"
        )
    alpha = mu * (bound / sigma2 - 1.0)
    beta = alpha * (1.0 - mu) / mu
    return alpha, beta


@dataclass
class Hyperparams:
    """Phase-level Beta parameters plus bug-level prior settings.

    ``a`` and ``b`` may be scalars (broadcast over bugs) or one row of
    per-bug values per phase.  ``m_weights[j][i]`` lists the candidate trial
    counts for bug i of phase j; a candidate is drawn with probability
    proportional to its own value.  ``resolve_for_data`` produces the
    expanded form, in which ``a``, ``b`` and ``m_weights`` are nested lists
    of Python numbers.  ``alpha_hat`` and ``beta_hat`` are held as lists of
    Python floats, one per phase.
    """

    alpha_hat: list[float]
    beta_hat: list[float]
    a: float | list[list[float]] = 1.0
    b: float | list[list[float]] = 1.0
    m_weights: list[list[list[int]]] | None = None

    def __post_init__(self) -> None:
        self.alpha_hat = [float(x) for x in self.alpha_hat]
        self.beta_hat = [float(x) for x in self.beta_hat]
        if any(x <= 0 for x in self.alpha_hat + self.beta_hat):
            raise ValueError("alpha_hat and beta_hat must be positive")

    @property
    def n_phases(self) -> int:
        return len(self.alpha_hat)


def sample_hyper(num_phases: int, seed) -> Hyperparams:
    """Draw phase-level hyperparameters from their uniform hyperpriors.

    mu_j ~ U(0,1), sigma2_j | mu_j ~ U(0, mu_j(1-mu_j)); alpha_hat and
    beta_hat follow by moment matching.  Deterministic given the seed: the
    draws come from a ``random.Random`` seeded with a string that names the
    hyperprior and ``seed``, so no sampler chain shares the stream.
    """
    if num_phases < 1:
        raise ValueError("num_phases must be >= 1")
    rng = random.Random(f"bugsize hyperprior {seed}")
    mu = [rng.random() for _ in range(num_phases)]
    sigma2 = [rng.random() * m * (1.0 - m) for m in mu]
    pairs = [solve_beta_hyper(m, s) for m, s in zip(mu, sigma2)]
    return Hyperparams(alpha_hat=[p[0] for p in pairs], beta_hat=[p[1] for p in pairs])


def flat_hyperparams(num_phases: int) -> Hyperparams:
    """Uniform Beta(1, 1) phase priors; handy for tests and calibration."""
    return Hyperparams(alpha_hat=[1.0] * num_phases, beta_hat=[1.0] * num_phases)


def sample_n_trials(weights: list[int], rng: random.Random) -> int:
    """Draw a trial count: candidate value w is chosen with probability
    proportional to w itself."""
    if not weights or min(weights) < 0:
        raise ValueError("candidate trial counts must be non-negative and non-empty")
    if sum(weights) <= 0:
        raise ValueError("candidate trial counts are all zero")
    return rng.choices(weights, weights=weights)[0]


@dataclass(frozen=True)
class HyperConfig:
    """Raw hyperparameter configuration as read from a config document."""

    a: float | list[list[float]] = 1.0
    b: float | list[list[float]] = 1.0
    hyper_seed: int | None = None
    mu: float | list[float] | None = None
    sigma2: float | list[float] | None = None

    def __post_init__(self) -> None:
        if self.hyper_seed is not None and self.hyper_seed < 0:
            raise ValueError(f"config 'hyper_seed' must be a non-negative integer, got {self.hyper_seed}")


def build_hyperparams(data: list[PhaseSummary], config: HyperConfig, seed) -> Hyperparams:
    """Assemble hyperparameters for a dataset from a config document.

    When ``mu``/``sigma2`` are pinned in the config the Beta parameters
    are solved from them; otherwise they are drawn from the hyperpriors
    using ``hyper_seed`` (falling back to ``seed``).
    """
    m = len(data)
    if config.mu is not None and config.sigma2 is not None:
        for name, value in (("mu", config.mu), ("sigma2", config.sigma2)):
            if isinstance(value, list) and len(value) != m:
                raise ValueError(f"config '{name}' lists {len(value)} values for {m} phases")
        mu = config.mu if isinstance(config.mu, list) else [config.mu] * m
        sigma2 = config.sigma2 if isinstance(config.sigma2, list) else [config.sigma2] * m
        pairs = [solve_beta_hyper(u, s) for u, s in zip(mu, sigma2)]
        hyper = Hyperparams(alpha_hat=[p[0] for p in pairs], beta_hat=[p[1] for p in pairs])
    elif (config.mu is None) != (config.sigma2 is None):
        raise ValueError("mu and sigma2 must be configured together")
    else:
        hyper = sample_hyper(m, config.hyper_seed if config.hyper_seed is not None else seed)
    hyper.a, hyper.b = config.a, config.b
    return hyper


def resolve_for_data(hyper: Hyperparams, data: list[PhaseSummary]) -> Hyperparams:
    """Expand and validate the bug-level settings against a concrete dataset.

    A scalar ``a`` or ``b`` is broadcast over every bug; a list must hold
    one row per phase with one value per bug.  Defaults: a = b = 1; trial
    candidates s_ij times TRIAL_CANDIDATE_MULTIPLIERS.
    """
    if hyper.n_phases != len(data):
        raise ValueError(
            f"hyperparameters cover {hyper.n_phases} phases but data has {len(data)}"
        )

    def broadcast(value, name):
        if not isinstance(value, list):
            return [[float(value)] * s.distinct_bugs for s in data]
        if len(value) != len(data):
            raise ValueError(f"{name} must list one row per phase")
        rows = [[float(v) for v in row] for row in value]
        for row, summary in zip(rows, data):
            if len(row) != summary.distinct_bugs:
                raise ValueError(
                    f"phase {summary.phase}: expected {summary.distinct_bugs} per-bug values"
                )
        return rows

    a = broadcast(hyper.a, "a")
    b = broadcast(hyper.b, "b")
    if any(v <= 0 for row in a + b for v in row):
        raise ValueError("a and b must be positive")
    if hyper.m_weights is None:
        m_weights = [
            [[max(s, 1) * k for k in TRIAL_CANDIDATE_MULTIPLIERS] for s in summary.observed_sizes]
            for summary in data
        ]
    else:
        m_weights = [[[int(n) for n in w] for w in row] for row in hyper.m_weights]
    return replace(hyper, a=a, b=b, m_weights=m_weights)


@dataclass
class ChainState:
    """Current draw of one MCMC chain.

    ``S[j][i]`` and ``n_trials[j][i]`` hold bug i of phase j; ``init_state``
    builds them as lists of Python ints.  t and p are integrated out, so the
    eventual sizes are the whole chain state once the trial counts are
    drawn.  ``S[j][i]`` must stay within [max(observed size, 1), n_trials];
    the sampler's Metropolis step reads only the bug it updates and relies
    on every other bug keeping these bounds.  Per-phase totals ``F`` are
    summed on demand, never stored, so direct writes to ``S`` can never
    leave a stale total.
    """

    S: list[list[int]]
    n_trials: list[list[int]]

    @property
    def F(self) -> list[int]:
        return [sum(row) for row in self.S]


def _increments(cumulative, name: str, strict: bool) -> list[float]:
    """Per-phase amounts from cumulative ones, the first phase's from 0.
    They must be positive if `strict`, else non-negative."""
    values = [float(x) for x in cumulative]
    out = [b - a for a, b in zip([0.0, *values], values)]
    if any(x <= 0.0 if strict else x < 0.0 for x in out):
        rule = "strictly increase" if strict else "not decrease"
        raise ValueError(f"cumulative {name} must {rule} from 0")
    return out


def _log_nb(n: float, r: float, p: float) -> float:
    """Log negative-binomial mass of n runs at size r, without the n log p
    term, which the posterior of S does not need."""
    return lgamma(n + r) - lgamma(n + 1.0) - lgamma(r) + r * log1p(-p)


def log_likelihood(totals_cumulative, runs_cumulative, p) -> float:
    """Log of the run-count likelihood.

    Phase k contributes log C(n_k + F_k - 1, n_k) + n_k log p_k
    + F_k log(1 - p_k), with n_k = N_k - N_{k-1} its runs and
    F_k = C_k - C_{k-1} its total, from the cumulative runs N and totals C.
    C must strictly increase and N must not decrease; every p_k must lie
    strictly inside (0, 1).
    """
    p = [float(x) for x in p]
    if not len(totals_cumulative) == len(runs_cumulative) == len(p):
        raise ValueError("totals, runs and p must be equal-length vectors")
    if any(p_k <= 0.0 or p_k >= 1.0 for p_k in p):
        raise ValueError("p must lie strictly inside (0, 1)")
    F = _increments(totals_cumulative, "totals", strict=True)
    runs = _increments(runs_cumulative, "runs", strict=False)
    return fsum(_log_nb(n, r, p_k) + n * log(p_k) for n, r, p_k in zip(runs, F, p))


def log_bug_term(S: int, n: int, a: float, b: float) -> float:
    """Collapsed per-bug term of eventual size S, 1 <= S <= n, with t
    integrated out against Beta(a, b).

    log S + log C(n, S) + log B(S + a, n - S + b), less lgamma(n + 1) and
    -lgamma(n + a + b), which do not depend on S.
    """
    return log(S) + lgamma(S + a) + lgamma(n - S + b) - lgamma(S + 1.0) - lgamma(n - S + 1.0)


def log_phase_term(F: int, runs: int, alpha: float, beta: float) -> float:
    """Collapsed per-phase term of a phase total F >= 1 whose phase ran
    `runs` times, with p integrated out against Beta(alpha, beta).

    lgamma(runs + F) - lgamma(F) + lgamma(F + beta)
    - lgamma(runs + alpha + F + beta): the log of
    C(runs + F - 1, runs) B(runs + alpha, F + beta) / B(alpha, beta), less
    lgamma(runs + alpha) - lgamma(runs + 1) - log B(alpha, beta), which do
    not depend on F.
    """
    return lgamma(runs + F) - lgamma(F) + lgamma(F + beta) - lgamma(runs + alpha + F + beta)


def log_posterior_S_kernel(state: ChainState, data: list[PhaseSummary], hyper: Hyperparams) -> float:
    """Unnormalized collapsed log posterior of the eventual-size matrix S
    given the trial counts, with t and p integrated out.

    The sum of every phase's `log_phase_term` at its total F_k and its runs
    n_k, and every bug's `log_bug_term`; `hyper` must be resolved
    (`resolve_for_data`).  States with any S = 0 have zero mass and return
    -inf; S above its trial count is a structural violation.
    """
    for j, (S_row, n_row) in enumerate(zip(state.S, state.n_trials)):
        if any(S > n for S, n in zip(S_row, n_row)):
            raise ValueError(f"phase {j + 1}: eventual size exceeds its trial count")
        if any(S < 0 for S in S_row):
            raise ValueError(f"phase {j + 1}: negative eventual size")
    if any(S == 0 for S_row in state.S for S in S_row):
        return -math.inf

    runs = _increments([s.runs_cumulative for s in data], "runs", strict=False)
    terms = list(map(log_phase_term, state.F, runs, hyper.alpha_hat, hyper.beta_hat))
    for rows in zip(state.S, state.n_trials, hyper.a, hyper.b):
        terms += map(log_bug_term, *rows)
    return fsum(terms)
