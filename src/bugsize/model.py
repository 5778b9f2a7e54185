"""Hierarchical size-biased model of eventual bug sizes.

Latent quantities, per testing phase j with bugs i = 1..n_j:

* ``S_ij`` -- eventual size of a bug (inputs that would ever traverse it),
  with prior ``Binomial(n_ij, t_ij)`` reweighted proportionally to size.
* ``p_j`` -- per-run detection-side probability, ``Beta(alpha_j, beta_j)``
  with the Beta moments themselves drawn from uniform hyperpriors.
* ``N_j`` -- cumulative run counts, tied to the cumulative size totals via
  a chain of negative binomials.

Everything probabilistic is evaluated in log space; totals in real data
reach tens of thousands and direct products underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import lgamma, log, log1p

import numpy as np

from .ingest import PhaseSummary

__all__ = [
    "InfeasiblePhaseError",
    "DiscretePmf",
    "binomial_pmf",
    "size_biased_pmf",
    "solve_beta_hyper",
    "sample_hyper",
    "sample_n_trials",
    "Hyperparams",
    "HyperConfig",
    "flat_hyperparams",
    "resolve_for_data",
    "ChainState",
    "size_params",
    "log_likelihood",
    "log_posterior_S_kernel",
]

# Trial-count candidates default to these multiples of the observed size,
# keeping the support of S_ij a non-empty superset of the observed floor.
TRIAL_CANDIDATE_MULTIPLIERS = (1, 2, 3, 4)


class InfeasiblePhaseError(ValueError):
    """A phase's negative-binomial size parameter came out non-positive."""

    def __init__(self, phase: int, value: float):
        self.phase = phase
        self.value = value
        super().__init__(
            f"phase {phase}: negative-binomial size {value} is not positive; "
            "the configuration has zero likelihood"
        )


@dataclass(frozen=True)
class DiscretePmf:
    """A finite discrete distribution over non-negative integer support."""

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)
        if support.shape != mass.shape or support.ndim != 1 or support.size == 0:
            raise ValueError("support and mass must be equal-length 1-d arrays")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(mass < 0):
            raise ValueError("probability mass must be non-negative")
        if abs(float(mass.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mass sums to {mass.sum()!r}, not 1")

    def mean(self) -> float:
        return float(np.dot(self.support, self.mass))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        mass = self.mass / self.mass.sum()
        return rng.choice(self.support, size=size, p=mass)


def binomial_pmf(n: int, t: float) -> DiscretePmf:
    """Binomial(n, t) as an explicit pmf over 0..n.

    The mass is built in log space and normalised after subtracting its
    maximum, so n in the tens of thousands neither overflows nor
    underflows; t = 0 and t = 1 are exact point masses.
    """
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
    of Python numbers.
    """

    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    a: float | list[list[float]] = 1.0
    b: float | list[list[float]] = 1.0
    m_weights: list[list[list[int]]] | None = None

    def __post_init__(self) -> None:
        self.alpha_hat = np.asarray(self.alpha_hat, dtype=float)
        self.beta_hat = np.asarray(self.beta_hat, dtype=float)
        if np.any(self.alpha_hat <= 0) or np.any(self.beta_hat <= 0):
            raise ValueError("alpha_hat and beta_hat must be positive")

    @property
    def n_phases(self) -> int:
        return len(self.alpha_hat)


def sample_hyper(num_phases: int, seed) -> Hyperparams:
    """Draw phase-level hyperparameters from their uniform hyperpriors.

    mu_j ~ U(0,1), sigma2_j | mu_j ~ U(0, mu_j(1-mu_j)); alpha_hat and
    beta_hat follow by moment matching.  Deterministic given the seed.
    """
    if num_phases < 1:
        raise ValueError("num_phases must be >= 1")
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, 1.0, size=num_phases)
    sigma2 = rng.uniform(0.0, mu * (1.0 - mu))
    pairs = [solve_beta_hyper(m, s) for m, s in zip(mu, sigma2)]
    return Hyperparams(alpha_hat=[p[0] for p in pairs], beta_hat=[p[1] for p in pairs])


def flat_hyperparams(num_phases: int) -> Hyperparams:
    """Uniform Beta(1, 1) phase priors; handy for tests and calibration."""
    ones = np.ones(num_phases)
    return Hyperparams(alpha_hat=ones.copy(), beta_hat=ones.copy())


def sample_n_trials(weights, rng: np.random.Generator) -> int:
    """Draw a trial count: candidate value w is chosen with probability
    proportional to w itself."""
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0 or np.any(weights < 0):
        raise ValueError("candidate trial counts must be non-negative and non-empty")
    total = weights.sum()
    if total <= 0:
        raise ValueError("candidate trial counts are all zero")
    return int(rng.choice(weights, p=weights / total))


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
        mu = np.broadcast_to(np.asarray(config.mu, dtype=float), (m,))
        sigma2 = np.broadcast_to(np.asarray(config.sigma2, dtype=float), (m,))
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
        rows = [np.asarray(v, dtype=float) for v in value]
        for row, summary in zip(rows, data):
            if row.shape != (summary.distinct_bugs,):
                raise ValueError(
                    f"phase {summary.phase}: expected {summary.distinct_bugs} per-bug values"
                )
        return [row.tolist() for row in rows]

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
        m_weights = [[np.asarray(w).tolist() for w in row] for row in hyper.m_weights]
    return replace(hyper, a=a, b=b, m_weights=m_weights)


@dataclass
class ChainState:
    """Current draw of one MCMC chain.

    ``S[j][i]``, ``t[j][i]`` and ``n_trials[j][i]`` hold bug i of phase j,
    ``p[j]`` phase j; ``init_state`` builds them as lists of Python ints
    and floats.  ``S[j][i]`` must stay within [max(observed size, 1),
    n_trials]; the sampler's Metropolis step reads only the bug it updates
    and relies on every other bug keeping these bounds.  Per-phase totals
    ``F`` are summed on demand, never stored, so direct writes to ``S`` can
    never leave a stale total.
    """

    S: list[list[int]]
    p: list[float]
    t: list[list[float]]
    n_trials: list[list[int]]

    @property
    def F(self) -> list[int]:
        return [sum(row) for row in self.S]


def size_params(per_phase_totals) -> list:
    """Negative-binomial size parameters r_k = C_k - sum_{i<k} C_i, where
    C_k = F_1 + ... + F_k cumulates the per-phase totals F; exact for
    integer totals."""
    r, cumulative, prior = [], 0, 0
    for F_k in per_phase_totals:
        cumulative += F_k
        r.append(cumulative - prior)
        prior += cumulative
    return r


def log_likelihood(totals_cumulative, runs_cumulative, p) -> float:
    """Log of the chained negative-binomial run-count likelihood.

    Phase k contributes log C(N_k + r_k - 1, N_k) + N_k log p_k
    + r_k log(1 - p_k) with r_k = F_k - sum_{i<k} F_i.  All r_k must be
    positive; every p_k must lie strictly inside (0, 1).
    """
    F = np.asarray(totals_cumulative, dtype=float)
    N = np.asarray(runs_cumulative, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (F.shape == N.shape == p.shape) or F.ndim != 1:
        raise ValueError("totals, runs and p must be equal-length vectors")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    r = size_params(np.diff(F, prepend=0.0).tolist())  # per-phase totals from cumulative
    for k, r_k in enumerate(r):
        if r_k <= 0.0:
            raise InfeasiblePhaseError(k + 1, float(r_k))
    out = 0.0
    for N_k, r_k, p_k in zip(N, r, p):
        out += lgamma(N_k + r_k) - lgamma(N_k + 1.0) - lgamma(r_k)
        out += N_k * log(p_k) + r_k * log1p(-p_k)
    return out


def log_posterior_S_kernel(state: ChainState, data: list[PhaseSummary], hyper=None) -> float:
    """Unnormalized log posterior of the eventual-size matrix S.

    The run-count factors enter through the combinatorial and (1-p)
    terms only (the p^N factor does not involve S), and each bug adds
    its size-biased binomial term
    log S + log C(n, S) + S log t + (n - S) log(1-t).  States with any
    S = 0 or with a non-positive phase size parameter have zero mass and
    return -inf; S above its trial count is a structural violation.
    """
    for j, (S_row, n_row) in enumerate(zip(state.S, state.n_trials)):
        if any(S > n for S, n in zip(S_row, n_row)):
            raise ValueError(f"phase {j + 1}: eventual size exceeds its trial count")
        if any(S < 0 for S in S_row):
            raise ValueError(f"phase {j + 1}: negative eventual size")
    if any(S == 0 for S_row in state.S for S in S_row):
        return -math.inf

    r = size_params(state.F)
    if min(r) <= 0:
        return -math.inf

    out = 0.0
    for summary, r_k, p_k in zip(data, r, state.p):
        N_k = float(summary.runs_cumulative)
        out += lgamma(N_k + r_k) - lgamma(N_k + 1.0) - lgamma(r_k)
        out += r_k * log1p(-p_k)
    for S_row, n_row, t_row in zip(state.S, state.n_trials, state.t):
        for S, n, t in zip(S_row, n_row, t_row):
            S = float(S)
            n = float(n)
            out += log(S) + lgamma(n + 1.0) - lgamma(S + 1.0) - lgamma(n - S + 1.0)
            out += S * log(t) + (n - S) * log1p(-t)
    return out
