"""Forward prediction of the next phase's total bug size.

The predictive density over totals is a Gaussian kernel mixture whose
component weights decay with event age through an exponential temporal
kernel integrated over each event's time window.  The next-phase point
prediction is the mean of the density restricted to [0, last observed
total), which enforces that predicted totals shrink phase over phase.
The stop-testing rule lives in `decision`; it is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erf, exp, expm1, pi, sqrt

import numpy as np

from .decision import StopDecision, decide_stop

__all__ = [
    "PhaseEvent",
    "KdeConfig",
    "Prediction",
    "StopDecision",
    "events_from_totals",
    "temporal_weights",
    "kde_density",
    "cv_score",
    "select_bandwidth",
    "predict_next_total",
    "decide_stop",
]

_SQRT_2PI = sqrt(2.0 * pi)
# Points of the grid over [0, last total) on which the mode is located.
MODE_GRID_POINTS = 2048
# Rows of the pairwise difference matrix, one per distinct sample value,
# that cv_score holds at a time.
CV_BLOCK_ROWS = 128


@dataclass(frozen=True)
class PhaseEvent:
    """One phase's estimated total size with its event-time window."""

    phase: int
    total_size: float
    window_start: float
    window_end: float

    def __post_init__(self) -> None:
        if not self.window_start < self.window_end:
            raise ValueError(
                f"phase {self.phase}: window [{self.window_start}, {self.window_end}] is empty"
            )
        if self.total_size < 0:
            raise ValueError(f"phase {self.phase}: total size must be non-negative")


@dataclass(frozen=True)
class KdeConfig:
    bandwidth: float | str = "auto"
    temporal_rate: float = 1.0
    cv_grid: tuple[float, ...] | None = None
    cv_samples: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.temporal_rate <= 0:
            raise ValueError("temporal_rate must be positive")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError("bandwidth must be a positive number or 'auto'")
        elif self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class Prediction:
    """Point predictions for the next phase's total, with KDE details."""

    mean: float
    median: float
    mode: float
    bandwidth: float
    weights: tuple[float, ...]
    truncated_mass: float


def events_from_totals(totals, windows=None) -> list[PhaseEvent]:
    """Wrap plain totals as events; default windows are [j-1, j] in
    phase-index time."""
    totals = [float(x) for x in totals]
    if windows is None:
        windows = [(j - 1.0, float(j)) for j in range(1, len(totals) + 1)]
    if len(windows) != len(totals):
        raise ValueError(f"need one window per total: {len(windows)} windows for {len(totals)} totals")
    return [
        PhaseEvent(phase=j, total_size=x, window_start=float(v), window_end=float(e))
        for j, (x, (v, e)) in enumerate(zip(totals, windows), start=1)
    ]


def temporal_weights(t: float, events: list[PhaseEvent], rate: float = 1.0) -> np.ndarray:
    """Normalized exponential-decay weights of past events at time t.

    Each unnormalized weight is the exponential CDF averaged over the
    event's window, [e^{-rate (t - end)} - e^{-rate (t - start)}] /
    (end - start); t must not precede any window end.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not events:
        raise ValueError("at least one event is required")
    for event in events:
        if t < event.window_end:
            raise ValueError(
                f"prediction time {t} precedes the end of phase {event.phase}'s window"
            )
    # Factor out the smallest age so distant histories cannot underflow
    # all weights to zero at once.
    min_age = min(rate * (t - e.window_end) for e in events)
    raw = np.array(
        [
            exp(-(rate * (t - e.window_end) - min_age))
            * -expm1(-rate * (e.window_end - e.window_start))
            / (e.window_end - e.window_start)
            for e in events
        ]
    )
    return raw / raw.sum()


def _gauss(u: float, h: float) -> float:
    return exp(-0.5 * (u / h) ** 2) / (h * _SQRT_2PI)


def _norm_cdf(z) -> np.ndarray:
    """Standard normal CDF of each value in z."""
    return np.array([0.5 * (1.0 + erf(v / sqrt(2.0))) for v in z])


def kde_density(s, events: list[PhaseEvent], weights, h: float):
    """Weighted Gaussian mixture density over totals, evaluated at s.

    The size variable is scalar, so a one-dimensional Gaussian kernel is
    used; any constant-factor difference in kernel normalization would
    cancel after weight normalization anyway.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    weights = np.asarray(weights, dtype=float)
    centers = np.array([e.total_size for e in events])
    s_arr = np.asarray(s, dtype=float)
    z = (s_arr[..., None] - centers) / h
    out = (np.exp(-0.5 * z**2) / (h * _SQRT_2PI)) @ weights
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def cv_score(samples, h: float) -> float:
    """Least-squares cross-validation score of bandwidth h.

    CV(h) = integral of fhat_h^2 - (2/n) sum_i fhat_{h,-i}(X_i), with
    the squared-density integral in closed form: the pairwise Gaussian
    convolution has scale h*sqrt(2).  The n x n pairwise sums run over
    the distinct sample values, each pair weighted by the product of the
    two values' counts, so tied samples (posterior draws of integer
    totals are heavily tied) cost nothing extra.  They are taken
    CV_BLOCK_ROWS distinct values at a time, so memory stays linear in
    n, and the kernel exp(-u^2/2) is the square of the convolution's
    exp(-u^2/4).  The n diagonal terms of the leave-one-out sum, each
    1 / (h sqrt(2 pi)), are subtracted at the end.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("cross-validation needs at least 2 samples")
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    values, counts = np.unique(x, return_counts=True)
    quad_sum = kernel_sum = 0.0
    for start in range(0, values.size, CV_BLOCK_ROWS):
        block = slice(start, start + CV_BLOCK_ROWS)
        conv = np.exp(-0.25 * ((values[block, None] - values) / h) ** 2)
        quad_sum += float(counts[block] @ conv @ counts)
        kernel_sum += float(counts[block] @ (conv * conv) @ counts)
    quad_term = quad_sum / (h * sqrt(2.0) * _SQRT_2PI) / n**2
    loo_sum = (kernel_sum - n) / (h * _SQRT_2PI) / (n - 1)
    return quad_term - 2.0 / n * loo_sum


def select_bandwidth(samples, cv_grid) -> float:
    """Grid minimizer of the cross-validation score; ties go to the
    smaller bandwidth."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("bandwidth selection needs at least 2 samples")
    grid = sorted(float(h) for h in cv_grid)
    if not grid:
        raise ValueError("cv_grid must not be empty")
    if any(h <= 0 for h in grid):
        raise ValueError("cv_grid bandwidths must be positive")
    scores = [cv_score(x, h) for h in grid]
    best = min(range(len(grid)), key=lambda k: (scores[k], grid[k]))
    return grid[best]


def _default_grid(samples) -> tuple[float, ...]:
    x = np.asarray(samples, dtype=float)
    spread = float(x.std(ddof=1)) if x.size > 1 else 0.0
    reference = 1.06 * spread * x.size ** (-0.2)
    if reference <= 0:
        reference = max(abs(float(x.mean())) * 0.1, 1.0)
    return tuple(reference * g for g in np.geomspace(0.25, 4.0, 13))


def _truncated_moments(centers, weights, h, upper):
    """Per-component mass on [0, upper), the matching first-moment
    contribution, the mass on [0, inf), and the normal CDF at 0.

    Uses the truncated-normal identity
    int_a^b x phi((x-c)/h)/h dx = c (Phi(B) - Phi(A)) + h (phi(A) - phi(B)).
    """
    alpha = (0.0 - centers) / h
    beta = (upper - centers) / h
    cdf_a = _norm_cdf(alpha)
    cdf_b = _norm_cdf(beta)
    mass = weights * (cdf_b - cdf_a)
    pos_mass = weights * (1.0 - cdf_a)
    phi_a = np.array([_gauss(a, 1.0) for a in alpha])
    phi_b = np.array([_gauss(b, 1.0) for b in beta])
    mean_part = centers * mass + weights * h * (phi_a - phi_b)
    return mass, mean_part, pos_mass, cdf_a


def predict_next_total(events: list[PhaseEvent], config: KdeConfig) -> Prediction:
    """Predict the next phase's total from past events.

    Builds the temporally weighted mixture one phase-unit past the last
    window, truncates it to the non-negative axis, then restricts it to
    [0, last total) so the prediction respects the required phase-over-
    phase decrease.  Returns zero when essentially no mass lies below
    the last total.
    """
    if len(events) < 2:
        raise ValueError("prediction needs at least 2 past events")
    t_eval = max(e.window_end for e in events) + 1.0
    weights = temporal_weights(t_eval, events, config.temporal_rate)
    centers = np.array([e.total_size for e in events])
    upper = float(events[-1].total_size)

    if isinstance(config.bandwidth, str):
        samples = config.cv_samples if config.cv_samples is not None else centers
        grid = config.cv_grid if config.cv_grid is not None else _default_grid(samples)
        h = select_bandwidth(samples, grid)
    else:
        h = float(config.bandwidth)

    mass, mean_part, pos_mass, cdf_zero = _truncated_moments(centers, weights, h, upper)
    total_mass = float(mass.sum())
    total_pos = float(pos_mass.sum())
    if total_pos <= 0.0 or total_mass / total_pos < 1e-12:
        return Prediction(0.0, 0.0, 0.0, h, tuple(float(w) for w in weights), 0.0)

    # the truncated mean lies strictly below the truncation point; keep
    # that true under floating-point rounding as well
    mean = min(float(mean_part.sum()) / total_mass, float(np.nextafter(upper, 0.0)))

    def truncated_cdf(x):
        return float((weights * (_norm_cdf((x - centers) / h) - cdf_zero)).sum()) / total_mass

    lo, hi = 0.0, upper
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if truncated_cdf(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    median = 0.5 * (lo + hi)

    grid_x = np.linspace(0.0, upper, MODE_GRID_POINTS, endpoint=False)
    density = kde_density(grid_x, events, weights, h)
    mode = float(grid_x[int(np.argmax(density))])

    return Prediction(
        mean=mean,
        median=median,
        mode=mode,
        bandwidth=h,
        weights=tuple(float(w) for w in weights),
        truncated_mass=total_mass / total_pos,
    )
