"""Metropolis-within-Gibbs sampler for per-phase eventual bug-size totals.

Each sweep updates every S_ij by an independence Metropolis step with a
Poisson(max(s_ij, 1)) proposal, s_ij being the observed size, then every
t_ij and every p_j from their conjugate Beta conditionals.  Chains run one
after another, each reproducible from its own sub-seed spawned from a
single configured seed.  A chain's state and per-bug priors are plain
Python numbers; numpy supplies the random streams, the retained draws and
the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma, log, log1p

import numpy as np

from .ingest import PhaseSummary
from .model import (
    ChainState,
    Hyperparams,
    log_likelihood,  # noqa: F401 -- not called: bench/run.py traces this name
    log_posterior_S_kernel,  # noqa: F401 -- not called: the reference mh_log_alpha must match
    resolve_for_data,
    sample_n_trials,
    size_params,
)

__all__ = [
    "InitializationError",
    "SamplerConfig",
    "ChainDiagnostics",
    "PosteriorSummary",
    "gibbs_update_p",
    "gibbs_update_t",
    "mh_update_S",
    "mh_log_alpha",
    "init_state",
    "run_chain",
    "split_r_hat",
    "effective_sample_size",
    "diagnostics",
]


# Every probability the chain holds, t_ij and p_j, is kept inside
# [EPSILON_FLOOR, 1 - EPSILON_FLOOR] so that its logarithms stay finite.
EPSILON_FLOOR = 1e-12


class InitializationError(RuntimeError):
    """No feasible starting state could be constructed for the chain."""


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 2
    iterations: int = 2000
    burn_in: int = 500
    thin: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def n_retained(self) -> int:
        return len(range(self.burn_in, self.iterations, self.thin))


@dataclass(frozen=True)
class ChainDiagnostics:
    r_hat: float
    ess: float
    degenerate: bool = False


@dataclass
class PosteriorSummary:
    """Retained draws of the per-phase eventual-size totals plus summaries."""

    draws: np.ndarray  # (chains, retained, phases)
    acceptance: list[np.ndarray]  # per phase, per bug, mean over chains
    diagnostics: list[ChainDiagnostics] | None
    chains: int
    iterations: int
    burn_in: int
    thin: int
    seed: int

    @property
    def F_draws(self) -> np.ndarray:
        """Pooled draws, shape (chains * retained, phases)."""
        return self.draws.reshape(-1, self.draws.shape[-1])

    @property
    def F_mean(self) -> np.ndarray:
        return self.F_draws.mean(axis=0)

    @property
    def F_median(self) -> np.ndarray:
        return np.median(self.F_draws, axis=0)

    @property
    def F_ci(self) -> tuple[np.ndarray, np.ndarray]:
        low, high = np.quantile(self.F_draws, [0.025, 0.975], axis=0)
        return low, high

    @property
    def acceptance_rate_mean(self) -> float:
        rates = np.concatenate([row for row in self.acceptance]) if self.acceptance else []
        return float(np.mean(rates))


def _clamped_beta(rng: np.random.Generator, a: float, b: float) -> float:
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"Beta parameters must be positive, got ({a}, {b})")
    return float(min(max(rng.beta(a, b), EPSILON_FLOOR), 1.0 - EPSILON_FLOOR))


def gibbs_update_p(
    hyper: Hyperparams,
    data: list[PhaseSummary],
    j: int,
    rng: np.random.Generator,
    totals: list[int],
) -> float:
    """Draw p_j from its conjugate conditional Beta(N_j + alpha_j, r_j + beta_j).

    `totals` are the per-phase totals of the state's eventual sizes
    (``ChainState.F``); the sweep carries them instead of summing the state.
    """
    r_j = size_params(totals)[j]
    if r_j <= 0:
        raise ValueError(f"phase {j + 1}: size parameter {r_j} must be positive")
    a = data[j].runs_cumulative + hyper.alpha_hat[j]
    b = r_j + hyper.beta_hat[j]
    return _clamped_beta(rng, a, b)


def gibbs_update_t(
    state: ChainState,
    hyper: Hyperparams,
    i: int,
    j: int,
    rng: np.random.Generator,
) -> float:
    """Draw t_ij from Beta(S_ij + a_ij, n_ij - S_ij + b_ij)."""
    S = state.S[j][i]
    n = state.n_trials[j][i]
    if S > n:
        raise ValueError(f"bug ({i}, {j}): eventual size {S} exceeds trial count {n}")
    a = S + hyper.a[j][i]
    b = n - S + hyper.b[j][i]
    return _clamped_beta(rng, a, b)


def mh_log_alpha(
    state: ChainState,
    data: list[PhaseSummary],
    i: int,
    j: int,
    proposed: int,
    totals: list[int],
) -> float:
    """Log acceptance ratio of an independence Poisson proposal for S_ij.

    log alpha = kernel(S') - kernel(S) + [S log lam - log S!]
    - [S' log lam - log S'!], where the proposal rate lam = max(s_ij, 1)
    is also the floor S' must reach, and the kernel difference is computed
    from the terms the move touches, in O(phases): bug (i, j)'s own
    size-biased binomial term, and the negative-binomial terms of the
    phases whose size parameter moves.  With delta = S' - S, r_j moves
    by +delta, r_{j+1} stays put and r_k moves by -(k - j - 1) delta for
    k >= j + 2.  The other bugs are not read; they are taken to satisfy
    the ChainState bounds.  Proposals below the observed size, below 1,
    above the trial count, or breaking a phase's size-parameter
    positivity are rejected outright (-inf); from an infeasible current
    state any feasible proposal is accepted (+inf).  `totals` are the
    per-phase totals of ``state.S`` (``state.F``).
    """
    s = data[j].observed_sizes[i]
    lam = s if s > 1 else 1  # max(s, 1), without the call on the hot path
    n = state.n_trials[j][i]
    if proposed < lam or proposed > n:
        return -math.inf
    current = state.S[j][i]
    if proposed == current:
        return 0.0
    if current > n:
        raise ValueError(f"phase {j + 1}: eventual size exceeds its trial count")

    delta = proposed - current
    r = size_params(totals)
    r_new = list(r)
    r_new[j] += delta
    for k in range(j + 2, len(r)):
        r_new[k] -= (k - j - 1) * delta
    if min(r_new) <= 0.0:
        return -math.inf
    if current < 1 or min(r) <= 0.0:
        return math.inf

    t = state.t[j][i]
    out = log(proposed) - log(current) + lgamma(current + 1.0) - lgamma(proposed + 1.0)
    out += lgamma(n - current + 1.0) - lgamma(n - proposed + 1.0)
    out += delta * (log(t) - log1p(-t))
    for k in (j, *range(j + 2, len(r))):
        N_k = data[k].runs_cumulative
        out += lgamma(N_k + r_new[k]) - lgamma(r_new[k])
        out -= lgamma(N_k + r[k]) - lgamma(r[k])
        out += (r_new[k] - r[k]) * log1p(-state.p[k])

    correction = (current * log(lam) - lgamma(current + 1.0)) - (
        proposed * log(lam) - lgamma(proposed + 1.0)
    )
    return out + correction


def mh_update_S(
    state: ChainState,
    data: list[PhaseSummary],
    i: int,
    j: int,
    rng: np.random.Generator,
    totals: list[int],
) -> tuple[int, bool]:
    """One Metropolis step for S_ij; returns (new value, accepted).

    `totals` (``state.F``) is passed on to `mh_log_alpha`; the step does
    not change it.
    """
    current = state.S[j][i]
    s = data[j].observed_sizes[i]
    proposed = int(rng.poisson(s if s > 1 else 1))  # Poisson(max(s_ij, 1))
    log_alpha = mh_log_alpha(state, data, i, j, proposed, totals)
    if log_alpha >= 0.0:
        return proposed, True
    if log_alpha == -math.inf:
        return current, False
    if rng.uniform() < math.exp(log_alpha):
        return proposed, True
    return current, False


def init_state(
    data: list[PhaseSummary], hyper: Hyperparams, rng: np.random.Generator
) -> ChainState:
    """Build a feasible starting state.

    S starts at the observed sizes, t and p at their prior means.  If
    some phase's size parameter is non-positive at the observed floor,
    eventual sizes in the offending (later) phases are raised toward
    their trial-count caps until every parameter is positive; running
    out of slack is an initialization failure.
    """
    n_trials = []
    for j, summary in enumerate(data):
        row = [sample_n_trials(hyper.m_weights[j][i], rng) for i in range(summary.distinct_bugs)]
        floors = [max(s, 1) for s in summary.observed_sizes]
        bad = next((i for i, (n, f) in enumerate(zip(row, floors)) if n < f), None)
        if bad is not None:
            raise InitializationError(
                f"phase {summary.phase}, bug {bad}: sampled trial count {row[bad]} "
                f"is below the observed size {floors[bad]}"
            )
        n_trials.append(row)

    S = [[max(s, 1) for s in summary.observed_sizes] for summary in data]
    total_slack = sum(n - s for n_row, S_row in zip(n_trials, S) for n, s in zip(n_row, S_row))
    for _ in range(total_slack + 1):
        r = size_params([sum(row) for row in S])
        if min(r) > 0:
            break
        k = next(k for k, r_k in enumerate(r) if r_k <= 0)
        need = 1 - r[k]
        slack = [n - s for n, s in zip(n_trials[k], S[k])]
        if sum(slack) < need:
            raise InitializationError(
                f"phase {k + 1}: size parameter {r[k]} cannot be made positive; "
                f"needs {need} more eventual size but only {sum(slack)} slack"
            )
        # numpy's argsort fixes the order among bugs with equal slack
        for i in np.argsort(slack)[::-1].tolist():
            take = min(slack[i], need)
            S[k][i] += take
            need -= take
            if need == 0:
                break
    else:
        raise InitializationError("feasibility repair did not converge")

    def clip(x):
        return min(max(x, EPSILON_FLOOR), 1.0 - EPSILON_FLOOR)

    t = [[clip(a / (a + b)) for a, b in zip(*rows)] for rows in zip(hyper.a, hyper.b)]
    p = [clip(a / (a + b)) for a, b in zip(hyper.alpha_hat.tolist(), hyper.beta_hat.tolist())]
    return ChainState(S=S, p=p, t=t, n_trials=n_trials)


def _run_single_chain(data, hyper, config, seed_seq):
    rng = np.random.default_rng(seed_seq)
    state = init_state(data, hyper, rng)
    m = len(data)
    n_bugs = [s.distinct_bugs for s in data]

    draws = np.empty((config.n_retained, m))
    accept_counts = [[0] * n for n in n_bugs]
    # Per-phase totals of state.S, moved with every accepted S step so the
    # updates need not sum the state.
    F = state.F

    out = 0
    for it in range(config.iterations):
        for j in range(m):
            S_row = state.S[j]
            for i in range(n_bugs[j]):
                new_S, accepted = mh_update_S(state, data, i, j, rng, F)
                if accepted:
                    F[j] += new_S - S_row[i]
                    S_row[i] = new_S
                    accept_counts[j][i] += 1
        for j in range(m):
            for i in range(n_bugs[j]):
                state.t[j][i] = gibbs_update_t(state, hyper, i, j, rng)
        for j in range(m):
            state.p[j] = gibbs_update_p(hyper, data, j, rng, F)

        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            draws[out] = F
            out += 1

    rates = [[count / config.iterations for count in row] for row in accept_counts]
    return draws, rates


def run_chain(
    data: list[PhaseSummary], hyper: Hyperparams, config: SamplerConfig
) -> PosteriorSummary:
    """Run the configured number of chains in turn and summarize the
    retained draws; chain c uses the c-th sub-seed spawned from
    config.seed.
    """
    if not data:
        raise ValueError("data must contain at least one phase summary")
    runs = [s.runs_cumulative for s in data]
    if any(later <= earlier for earlier, later in zip(runs, runs[1:])):
        raise ValueError("cumulative run counts must be strictly increasing")
    resolved = resolve_for_data(hyper, data)
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    results = [_run_single_chain(data, resolved, config, s) for s in seeds]
    draws = np.stack([r[0] for r in results])
    acceptance = [
        np.mean([r[1][j] for r in results], axis=0) for j in range(len(data))
    ]
    diag = None
    if config.chains >= 2 and config.n_retained >= 10:
        diag = diagnostics(draws)
    return PosteriorSummary(
        draws=draws,
        acceptance=acceptance,
        diagnostics=diag,
        chains=config.chains,
        iterations=config.iterations,
        burn_in=config.burn_in,
        thin=config.thin,
        seed=config.seed,
    )


def split_r_hat(draws: np.ndarray) -> tuple[float, bool]:
    """Split-chain potential scale reduction factor for one quantity.

    Returns (r_hat, degenerate); zero within-chain variance reports 1.0
    with the degeneracy flag set.
    """
    chains, n = draws.shape
    half = n // 2
    if half < 1:
        raise ValueError("chains must hold at least 2 draws each")
    split = np.concatenate([draws[:, :half], draws[:, half : 2 * half]], axis=0)
    within = float(np.mean(np.var(split, axis=1, ddof=1)))
    means = split.mean(axis=1)
    between_over_n = float(np.var(means, ddof=1))
    if within == 0.0:
        return 1.0, True
    var_plus = (half - 1) / half * within + between_over_n
    return float(math.sqrt(var_plus / within)), False


def effective_sample_size(draws: np.ndarray) -> float:
    """Autocorrelation-based effective sample size across chains.

    Chain-averaged autocorrelations are summed over Geyer initial
    positive pairs; degenerate (constant) draws report the raw count.
    """
    chains, n = draws.shape
    total = chains * n
    variances = draws.var(axis=1, ddof=1)
    if np.all(variances == 0.0):
        return float(total)
    acov = np.zeros(n)
    for chain in draws:
        centered = chain - chain.mean()
        full = np.correlate(centered, centered, mode="full")[n - 1 :]
        acov += full / n
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
    ess = total / (1.0 + 2.0 * tail)
    return float(min(max(ess, 1.0), total))


def diagnostics(draws: np.ndarray) -> list[ChainDiagnostics]:
    """Per-quantity split R-hat and effective sample size.

    `draws` has shape (chains, retained) or (chains, retained,
    quantities); at least 2 chains with 10 retained draws each.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 2:
        draws = draws[:, :, None]
    if draws.ndim != 3:
        raise ValueError("draws must have shape (chains, retained[, quantities])")
    chains, n, _ = draws.shape
    if chains < 2:
        raise ValueError("diagnostics need at least 2 chains")
    if n < 10:
        raise ValueError("diagnostics need at least 10 retained draws per chain")
    out = []
    for q in range(draws.shape[2]):
        r_hat, degenerate = split_r_hat(draws[:, :, q])
        ess = effective_sample_size(draws[:, :, q])
        out.append(ChainDiagnostics(r_hat=r_hat, ess=ess, degenerate=degenerate))
    return out
