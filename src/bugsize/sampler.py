"""Collapsed Metropolis sampler for per-phase eventual bug-size totals.

t and p are integrated out (`model`: each t_ij and each p_j has a
conjugate Beta prior), so once a chain has drawn its trial counts its
whole state is the eventual-size matrix S, and it samples the marginal
posterior of S: the one a Metropolis-within-Gibbs sampler over (S, t, p)
targets, without a Beta draw.  Each sweep updates every S_ij in turn by an
independence Metropolis step with a Poisson(max(s_ij, 1)) proposal, s_ij
being the observed size; proposals below that floor or above the trial
count are rejected outright.  The log acceptance ratio is the change in
the two collapsed terms a move touches, bug (i, j)'s `model.log_bug_term`
and phase j's `model.log_phase_term`, whose total F_j moves by the step,
plus the proposal's ratio; so a step costs O(1) whatever the number of
bugs and phases.  The sweep fuses the step into one loop: it computes each
bug's constants and Poisson set-up once per chain and carries every bug's
and every phase's current term between proposals, so a proposal evaluates
each term once, at the proposed value.  `mh_log_alpha` and `mh_update_S`
are the same step for one bug, scored from scratch.

The sampler is pure Python: a chain's state and per-bug priors are Python
numbers, and the retained draws and their summaries and diagnostics are
lists.  Every mean, variance and autocovariance is an exactly rounded sum
(``math.fsum``), so a report does not depend on how an interpreter's
built-in ``sum`` adds floats.

Random source.  Chains run one after another, and chain c of a run seeded
with ``seed`` draws from its own ``random.Random``, seeded with a string
that names the chain, ``seed`` and c (`chain_rng`).  Equal seeds therefore
reproduce every chain, and no two chains, nor the hyperprior draw of
``model.sample_hyper``, share a stream.  Trial counts are drawn with
``choices``, first, and acceptance uniforms with ``random()``.  A Poisson
proposal uses numpy's two methods (`poisson_sampler`): below lam = 10 it
multiplies uniforms until the product falls to exp(-lam); from lam = 10 it
uses the transformed rejection method PTRS (Hörmann 1993, *The transformed
rejection method for generating Poisson random variables*, Insurance:
Math. Econ. 12).

`gibbs_update_t` and `gibbs_update_p` draw t and p from their conjugate
conditionals.  Nothing in the package calls them: they stay because
``bench/run.py`` traces their names, and acceptance criterion 2 tests
them.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from math import exp, floor, fsum, lgamma, log, sqrt
from operator import mul
from typing import NamedTuple

from .ingest import PhaseSummary
from .model import (
    ChainState,
    Hyperparams,
    log_bug_term,
    log_likelihood,  # noqa: F401 -- not called: bench/run.py traces this name
    log_phase_term,
    log_posterior_S_kernel,  # noqa: F401 -- not called: bench/run.py traces this name
    resolve_for_data,
    sample_n_trials,
)

__all__ = [
    "InitializationError",
    "SamplerConfig",
    "ChainDiagnostics",
    "PosteriorSummary",
    "chain_rng",
    "poisson_sampler",
    "poisson",
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


# Every t and p draw is kept inside [EPSILON_FLOOR, 1 - EPSILON_FLOOR] so
# that its logarithms stay finite.
EPSILON_FLOOR = 1e-12
_CEILING = 1.0 - EPSILON_FLOOR


class InitializationError(RuntimeError):
    """No starting state could be constructed for the chain."""


class _SamplerConfig(NamedTuple):
    chains: int = 2
    iterations: int = 2000
    burn_in: int = 500
    thin: int = 1
    seed: int = 0


class SamplerConfig(_SamplerConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        return self

    @property
    def retained(self) -> range:
        return range(self.burn_in, self.iterations, self.thin)


class ChainDiagnostics(NamedTuple):
    r_hat: float
    ess: float
    degenerate: bool = False


def _quantile(ordered: list[float], q: float) -> float:
    """numpy's default ("linear") quantile of values sorted ascending: the
    linear interpolation at position (n - 1) q, computed as numpy computes
    it so that the two agree to the last bit."""
    position = (len(ordered) - 1) * q
    low = floor(position)
    if low >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[low], ordered[low + 1]
    gamma = position - low
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


class PosteriorSummary(NamedTuple):
    """Retained draws of the per-phase eventual-size totals plus summaries.

    ``draws[c][k][j]`` is the total of phase j in chain c's k-th retained
    draw; ``acceptance[j][i]`` is bug i of phase j's acceptance rate, the
    mean over chains.  The summaries are per phase, over the draws of every
    chain, and follow numpy's definitions: the mean, the median (the mean of
    the two middle values for an even count) and the linear-interpolation
    quantile.
    """

    draws: list[list[list[int]]]
    acceptance: list[list[float]]
    diagnostics: list[ChainDiagnostics] | None

    @property
    def F_draws(self) -> list[list[int]]:
        """Pooled draws, one row of phase totals per retained draw, chain
        by chain."""
        return [row for chain in self.draws for row in chain]

    def _sorted_phases(self) -> list[list[float]]:
        return [sorted(map(float, column)) for column in zip(*self.F_draws)]

    @property
    def F_mean(self) -> list[float]:
        return [fsum(column) / len(column) for column in zip(*self.F_draws)]

    @property
    def F_median(self) -> list[float]:
        out = []
        for column in self._sorted_phases():
            half = len(column) // 2
            out.append(column[half] if len(column) % 2 else (column[half - 1] + column[half]) / 2)
        return out

    @property
    def F_ci(self) -> tuple[list[float], list[float]]:
        columns = self._sorted_phases()
        return [_quantile(c, 0.025) for c in columns], [_quantile(c, 0.975) for c in columns]

    @property
    def acceptance_rate_mean(self) -> float:
        rates = [rate for row in self.acceptance for rate in row]
        return fsum(rates) / len(rates)


def chain_rng(seed: int, chain: int) -> random.Random:
    """The random stream of chain `chain` in a run seeded with `seed`."""
    return random.Random(f"bugsize chain {seed} {chain}")


def poisson_sampler(lam: float) -> Callable[[Callable[[], float]], int]:
    """Poisson(lam) draws, lam > 0, by numpy's two methods, with every
    constant that depends on lam computed once.

    The returned function takes a source of uniforms on [0, 1), such as a
    ``random.Random``'s ``random`` method, and makes one draw.  Below
    lam = 10, it counts the uniforms whose running product stays above
    exp(-lam).  From lam = 10, Hörmann's PTRS: a transformed-rejection draw
    whose hat and squeeze constants follow from sqrt(lam).
    """
    if lam < 10.0:
        limit = exp(-lam)

        def multiply(uniform: Callable[[], float]) -> int:
            k = 0
            product = uniform()
            while product > limit:
                k += 1
                product *= uniform()
            return k

        return multiply
    slam = sqrt(lam)
    loglam = log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_invalpha = log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2.0)

    def ptrs(uniform: Callable[[], float]) -> int:
        while True:
            U = uniform() - 0.5
            V = uniform()
            us = 0.5 - abs(U)
            if us == 0.0:  # U = -0.5 sends k to -inf, which numpy rejects
                continue
            k = floor((2.0 * a / us + b) * U + lam + 0.43)
            if us >= 0.07 and V <= vr:
                return k
            if k < 0 or (us < 0.013 and V > us):
                continue
            # log(0) = -inf always accepts
            if V == 0.0 or log(V) + log_invalpha - log(a / (us * us) + b) <= (
                -lam + k * loglam - lgamma(k + 1.0)
            ):
                return k

    return ptrs


def poisson(rng: random.Random, lam: float) -> int:
    """One Poisson(lam) draw, lam > 0, from `rng` (`poisson_sampler`)."""
    return poisson_sampler(lam)(rng.random)


def _clamped_beta(rng: random.Random, a: float, b: float) -> float:
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"Beta parameters must be positive, got ({a}, {b})")
    return min(max(rng.betavariate(a, b), EPSILON_FLOOR), _CEILING)


def _phase_runs(data: list[PhaseSummary], j: int) -> int:
    """The runs of phase j alone, N_j - N_{j-1}."""
    return data[j].runs_cumulative - (data[j - 1].runs_cumulative if j else 0)


def gibbs_update_p(
    hyper: Hyperparams,
    data: list[PhaseSummary],
    j: int,
    rng: random.Random,
    totals: list[int],
) -> float:
    """Draw p_j from its conjugate conditional Beta(n_j + alpha_j, F_j + beta_j),
    with n_j the runs of phase j and F_j its total.

    `totals` are the per-phase totals of the state's eventual sizes
    (``ChainState.F``); the sweep carries them instead of summing the state.
    """
    a = _phase_runs(data, j) + hyper.alpha_hat[j]
    b = totals[j] + hyper.beta_hat[j]
    return _clamped_beta(rng, a, b)


def gibbs_update_t(
    state: ChainState,
    hyper: Hyperparams,
    i: int,
    j: int,
    rng: random.Random,
) -> float:
    """Draw t_ij from Beta(S_ij + a_ij, n_ij - S_ij + b_ij)."""
    S = state.S[j][i]
    n = state.n_trials[j][i]
    if S > n:
        raise ValueError(f"bug ({i}, {j}): eventual size {S} exceeds trial count {n}")
    a = S + hyper.a[j][i]
    b = n - S + hyper.b[j][i]
    return _clamped_beta(rng, a, b)


def _bug_log_ratio(S: int, n: int, a: float, b: float, log_lam: float) -> float:
    """A bug's collapsed term at S over the Poisson proposal's mass at S,
    in logs, up to a constant: the proposal's log S! cancels the term's."""
    return log_bug_term(S, n, a, b) + lgamma(S + 1.0) - S * log_lam


def mh_log_alpha(
    state: ChainState,
    hyper: Hyperparams,
    data: list[PhaseSummary],
    i: int,
    j: int,
    proposed: int,
    totals: list[int],
) -> float:
    """Log acceptance ratio of an independence Poisson proposal for S_ij.

    log alpha = kernel(S') - kernel(S) + [S log lam - log S!]
    - [S' log lam - log S'!], where the kernel is the collapsed one
    (``model.log_posterior_S_kernel``) and the proposal rate
    lam = max(s_ij, 1) is also the floor S' must reach.  The kernel
    difference is computed in O(1) from the two terms the move touches:
    bug (i, j)'s `log_bug_term` and phase j's `log_phase_term`, whose total
    F_j moves by S' - S.  No other bug or phase is read; the other bugs are
    taken to satisfy the ChainState bounds.  Proposals below the observed
    size, below 1 or above the trial count are rejected outright (-inf).
    `hyper` is resolved (`resolve_for_data`); `totals` are the per-phase
    totals of ``state.S`` (``state.F``).
    """
    lam = max(data[j].observed_sizes[i], 1)
    n = state.n_trials[j][i]
    if proposed < lam or proposed > n:
        return -math.inf
    current = state.S[j][i]
    if proposed == current:
        return 0.0
    if current > n:
        raise ValueError(f"phase {j + 1}: eventual size exceeds its trial count")

    a, b, log_lam = hyper.a[j][i], hyper.b[j][i], log(lam)
    runs, alpha, beta, F = _phase_runs(data, j), hyper.alpha_hat[j], hyper.beta_hat[j], totals[j]
    return (_bug_log_ratio(proposed, n, a, b, log_lam) - _bug_log_ratio(current, n, a, b, log_lam)) + (
        log_phase_term(F + proposed - current, runs, alpha, beta) - log_phase_term(F, runs, alpha, beta)
    )


def mh_update_S(
    state: ChainState,
    hyper: Hyperparams,
    data: list[PhaseSummary],
    i: int,
    j: int,
    rng: random.Random,
    totals: list[int],
) -> tuple[int, bool]:
    """One Metropolis step for S_ij; returns (new value, accepted).

    It draws what one step of the sweep in `run_chain` draws: the proposal,
    then an acceptance uniform only if log alpha is finite and negative.
    `totals` (``state.F``) is passed on to `mh_log_alpha`; the step does
    not change it.
    """
    current = state.S[j][i]
    proposed = poisson(rng, max(data[j].observed_sizes[i], 1))
    log_alpha = mh_log_alpha(state, hyper, data, i, j, proposed, totals)
    if log_alpha >= 0.0:
        return proposed, True
    if log_alpha == -math.inf:
        return current, False
    if rng.random() < exp(log_alpha):
        return proposed, True
    return current, False


def init_state(data: list[PhaseSummary], hyper: Hyperparams, rng: random.Random) -> ChainState:
    """Build a starting state: draw every trial count, then start S at the
    observed floors max(s_ij, 1).

    Every phase must log a bug, so that its total, the size parameter of
    its run count, is positive; and every sampled trial count must reach
    its bug's observed size.
    """
    n_trials = []
    for j, summary in enumerate(data):
        if not summary.distinct_bugs:
            raise InitializationError(
                f"phase {summary.phase}: no logged bug, so its run count would have size parameter 0"
            )
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
    return ChainState(S=S, n_trials=n_trials)


def _run_single_chain(data, hyper, config, chain):
    """One chain: the step of `mh_update_S` for every bug in turn, each
    sweep, with each bug's constants and current `_bug_log_ratio`, and each
    phase's total and current `log_phase_term`, carried between proposals."""
    rng = chain_rng(config.seed, chain)
    state = init_state(data, hyper, rng)
    uniform = rng.random
    F = state.F
    phases, ratios, terms = [], [], []
    for j, summary in enumerate(data):
        runs, alpha, beta = _phase_runs(data, j), hyper.alpha_hat[j], hyper.beta_hat[j]
        bugs, ratio_row = [], []
        for s, S, n, a, b in zip(
            summary.observed_sizes, state.S[j], state.n_trials[j], hyper.a[j], hyper.b[j]
        ):
            lam = max(s, 1)
            log_lam = log(lam)
            bugs.append((poisson_sampler(lam), lam, n, a, b, log_lam))
            ratio_row.append(_bug_log_ratio(S, n, a, b, log_lam))
        phases.append((bugs, runs, alpha, beta))
        ratios.append(ratio_row)
        terms.append(log_phase_term(F[j], runs, alpha, beta))

    draws = []
    retained = config.retained
    accept_counts = [[0] * s.distinct_bugs for s in data]
    for it in range(config.iterations):
        for j, (bugs, runs, alpha, beta) in enumerate(phases):
            S_row, ratio_row, counts = state.S[j], ratios[j], accept_counts[j]
            total, term = F[j], terms[j]
            for i, (draw, lam, n, a, b, log_lam) in enumerate(bugs):
                proposed = draw(uniform)
                if proposed < lam or proposed > n:
                    continue
                current = S_row[i]
                if proposed == current:
                    counts[i] += 1
                    continue
                new_ratio = _bug_log_ratio(proposed, n, a, b, log_lam)
                new_total = total + proposed - current
                new_term = log_phase_term(new_total, runs, alpha, beta)
                log_alpha = (new_ratio - ratio_row[i]) + (new_term - term)
                if log_alpha >= 0.0 or uniform() < exp(log_alpha):
                    S_row[i], ratio_row[i], total, term = proposed, new_ratio, new_total, new_term
                    counts[i] += 1
            F[j], terms[j] = total, term

        if it in retained:
            draws.append(list(F))

    rates = [[count / config.iterations for count in row] for row in accept_counts]
    return draws, rates


def run_chain(
    data: list[PhaseSummary], hyper: Hyperparams, config: SamplerConfig
) -> PosteriorSummary:
    """Run the configured number of chains in turn and summarize the
    retained draws; chain c draws from ``chain_rng(config.seed, c)``.
    """
    if not data:
        raise ValueError("data must contain at least one phase summary")
    runs = [s.runs_cumulative for s in data]
    if any(later <= earlier for earlier, later in zip(runs, runs[1:])):
        raise ValueError("cumulative run counts must be strictly increasing")
    resolved = resolve_for_data(hyper, data)
    results = [_run_single_chain(data, resolved, config, c) for c in range(config.chains)]
    draws = [r[0] for r in results]
    acceptance = [
        [fsum(rates) / config.chains for rates in zip(*(r[1][j] for r in results))]
        for j in range(len(data))
    ]
    diag = None
    if config.chains >= 2 and len(config.retained) >= 10:
        diag = diagnostics(draws)
    return PosteriorSummary(draws, acceptance, diag)


def _mean(values: list[float]) -> float:
    return fsum(values) / len(values)


def _variance(values: list[float]) -> float:
    """Sample variance, with n - 1 in the denominator (numpy's ddof=1)."""
    mean = _mean(values)
    return fsum((x - mean) ** 2 for x in values) / (len(values) - 1)


def split_r_hat(draws) -> tuple[float, bool]:
    """Split-chain potential scale reduction factor for one quantity.

    `draws` holds one sequence of draws per chain, all of one length.
    Returns (r_hat, degenerate); zero within-chain variance reports 1.0
    with the degeneracy flag set.
    """
    chains = [[float(x) for x in chain] for chain in draws]
    half = len(chains[0]) // 2
    if half < 1:
        raise ValueError("chains must hold at least 2 draws each")
    split = [chain[:half] for chain in chains] + [chain[half : 2 * half] for chain in chains]
    within = _mean([_variance(part) for part in split])
    between_over_n = _variance([_mean(part) for part in split])
    if within == 0.0:
        return 1.0, True
    var_plus = (half - 1) / half * within + between_over_n
    return math.sqrt(var_plus / within), False


def effective_sample_size(draws) -> float:
    """Autocorrelation-based effective sample size across chains.

    `draws` holds one sequence of draws per chain, all of one length.
    Chain-averaged autocorrelations are summed over Geyer initial
    positive pairs; degenerate (constant) draws report the raw count.
    Each autocovariance is computed only when the pair sum reaches it.
    """
    chains = [[float(x) for x in chain] for chain in draws]
    n = len(chains[0])
    total = len(chains) * n
    if all(_variance(chain) == 0.0 for chain in chains):
        return float(total)
    centered = [[x - mean for x in chain] for chain, mean in zip(chains, map(_mean, chains))]

    def acov(lag: int) -> float:
        return fsum([fsum(map(mul, c, c[lag:])) for c in centered]) / (n * len(centered))

    acov0 = acov(0)
    if acov0 <= 0.0:
        return float(total)
    tail = 0.0
    for k in range(1, n - 1, 2):
        pair = (acov(k) + acov(k + 1)) / acov0
        if pair < 0.0:
            break
        tail += pair
    ess = total / (1.0 + 2.0 * tail)
    return min(max(ess, 1.0), total)


def diagnostics(draws) -> list[ChainDiagnostics]:
    """Per-quantity split R-hat and effective sample size.

    `draws` is indexed [chain][draw] or [chain][draw][quantity] (nested
    lists or an array); at least 2 chains with 10 retained draws each.
    """
    chains = [list(chain) for chain in draws]
    if len(chains) < 2:
        raise ValueError("diagnostics need at least 2 chains")
    n = len(chains[0])
    if any(len(chain) != n for chain in chains):
        raise ValueError("draws must have shape (chains, retained[, quantities])")
    if n < 10:
        raise ValueError("diagnostics need at least 10 retained draws per chain")
    if not hasattr(chains[0][0], "__len__"):
        per_quantity = [chains]
    else:
        width = len(chains[0][0])
        if any(len(draw) != width for chain in chains for draw in chain):
            raise ValueError("draws must have shape (chains, retained[, quantities])")
        per_quantity = [[[draw[q] for draw in chain] for chain in chains] for q in range(width)]
    out = []
    for quantity in per_quantity:
        r_hat, degenerate = split_r_hat(quantity)
        ess = effective_sample_size(quantity)
        out.append(ChainDiagnostics(r_hat=r_hat, ess=ess, degenerate=degenerate))
    return out
