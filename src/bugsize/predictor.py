"""Forward prediction of the next phase's total bug size.

The predictive density over totals is a Gaussian kernel mixture whose
component weights decay with event age through an exponential temporal
kernel integrated over each event's time window.  The next-phase point
prediction is the mean of the density restricted to [0, last observed
total), which enforces that predicted totals shrink phase over phase.
The stop-testing rule lives in `decision`; it is re-exported here.

A prediction works on a handful of phase totals, so this module runs on
the standard library, and `bugsize predict` without `--draws` loads no
numpy.  numpy is imported only where a computation grows with its input:
a sum of NUMPY_MIN_TERMS or more terms (`_sum`), which keeps numpy's
pairwise summation so that results do not depend on the input's size,
and the cross-validation pair sums over that many or more distinct
sample values (`_pair_sums_numpy`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import erf, exp, expm1, isfinite, nextafter, pi, sqrt

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
# that the numpy pair sums hold at a time.
CV_BLOCK_ROWS = 128
# numpy's add.reduce adds fewer terms than this one by one, left to right,
# as `_sum` does; from this many on it sums pairwise.  Sums and pair sums
# of this many terms or more therefore go through numpy.
NUMPY_MIN_TERMS = 8
# Factors of the reference bandwidth that make up the default
# cross-validation grid: np.geomspace(0.25, 4.0, 13), bit for bit.
GRID_FACTORS = (
    0.25,
    0.31498026247371824,
    0.39685026299204984,
    0.5,
    0.6299605249474366,
    0.7937005259840998,
    1.0,
    1.2599210498948732,
    1.5874010519681994,
    1.9999999999999998,
    2.5198420997897464,
    3.1748021039363983,
    4.0,
)


@dataclass(frozen=True)
class PhaseEvent:
    """One phase's estimated total size with its event-time window."""

    phase: int
    total_size: float
    window_start: float
    window_end: float

    def __post_init__(self) -> None:
        if not (isfinite(self.window_start) and isfinite(self.window_end)):
            raise ValueError(
                f"phase {self.phase}: window [{self.window_start}, {self.window_end}] "
                "must have finite bounds"
            )
        if not self.window_start < self.window_end:
            raise ValueError(
                f"phase {self.phase}: window [{self.window_start}, {self.window_end}] is empty"
            )
        if not isfinite(self.total_size):
            raise ValueError(f"phase {self.phase}: total size must be finite, got {self.total_size}")
        if self.total_size < 0:
            raise ValueError(f"phase {self.phase}: total size must be non-negative")


@dataclass(frozen=True)
class KdeConfig:
    bandwidth: float | str = "auto"
    temporal_rate: float = 1.0
    cv_grid: tuple[float, ...] | None = None
    cv_samples: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isfinite(self.temporal_rate):
            raise ValueError(f"temporal_rate must be finite, got {self.temporal_rate}")
        if self.temporal_rate <= 0:
            raise ValueError("temporal_rate must be positive")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError("bandwidth must be a positive number or 'auto'")
        elif not isfinite(self.bandwidth):
            raise ValueError(f"bandwidth must be finite, got {self.bandwidth}")
        elif self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        for name in ("cv_grid", "cv_samples"):
            values = getattr(self, name)
            if values is not None and not all(map(isfinite, values)):
                raise ValueError(f"{name} must hold finite numbers")


@dataclass(frozen=True)
class Prediction:
    """Point predictions for the next phase's total, with KDE details."""

    mean: float
    median: float
    mode: float
    bandwidth: float
    weights: tuple[float, ...]
    truncated_mass: float


def _sum(values) -> float:
    """The float sum numpy's add.reduce gives for ``values``: added one by
    one from 0.0 below NUMPY_MIN_TERMS terms, pairwise by numpy above.
    (The built-in sum compensates rounding from Python 3.12 on, so it
    would not match.)"""
    values = list(values)
    if len(values) >= NUMPY_MIN_TERMS:
        import numpy as np

        return float(np.sum(values))
    total = 0.0
    for value in values:
        total += value
    return total


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


def temporal_weights(t: float, events: list[PhaseEvent], rate: float = 1.0) -> list[float]:
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
    raw = [
        exp(-(rate * (t - e.window_end) - min_age))
        * -expm1(-rate * (e.window_end - e.window_start))
        / (e.window_end - e.window_start)
        for e in events
    ]
    total = _sum(raw)
    return [w / total for w in raw]


def _gauss(u: float, h: float) -> float:
    return exp(-0.5 * (u / h) ** 2) / (h * _SQRT_2PI)


def _norm_cdf(z: float) -> float:
    """Standard normal CDF at z."""
    return 0.5 * (1.0 + erf(z / sqrt(2.0)))


def kde_density(s, events: list[PhaseEvent], weights, h: float):
    """Weighted Gaussian mixture density over totals, evaluated at s: a
    float for a number, a list for a sequence of numbers.

    The size variable is scalar, so a one-dimensional Gaussian kernel is
    used; any constant-factor difference in kernel normalization would
    cancel after weight normalization anyway.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    try:
        points = [float(x) for x in s]
    except TypeError:
        return kde_density([s], events, weights, h)[0]
    terms = [(e.total_size, float(w)) for e, w in zip(events, weights, strict=True)]
    norm = h * _SQRT_2PI
    density = []
    for x in points:
        value = 0.0
        for center, weight in terms:
            z = (x - center) / h
            value += exp(-0.5 * (z * z)) / norm * weight
        density.append(value)
    return density


def _pair_sums(samples: list[float], h: float) -> tuple[float, float]:
    """Sums over all ordered pairs of distinct sample values, each weighted
    by the product of the two values' counts, of exp(-u^2/4) and of its
    square exp(-u^2/2), with u the pair's difference over h."""
    tally = sorted(Counter(samples).items())
    values, counts = [v for v, _ in tally], [c for _, c in tally]
    quad_sum = kernel_sum = 0.0
    for v_j, c_j in zip(values, counts):
        quad_col = kernel_col = 0.0
        for v_i, c_i in zip(values, counts):
            u = (v_i - v_j) / h
            conv = exp(-0.25 * (u * u))
            quad_col += c_i * conv
            kernel_col += c_i * (conv * conv)
        quad_sum += quad_col * c_j
        kernel_sum += kernel_col * c_j
    return quad_sum, kernel_sum


def _pair_sums_numpy(samples: list[float], h: float) -> tuple[float, float]:
    """`_pair_sums` with numpy, CV_BLOCK_ROWS distinct values at a time, so
    memory stays linear in the number of distinct values."""
    import numpy as np

    values, counts = np.unique(np.array(samples), return_counts=True)
    quad_sum = kernel_sum = 0.0
    for start in range(0, values.size, CV_BLOCK_ROWS):
        block = slice(start, start + CV_BLOCK_ROWS)
        conv = np.exp(-0.25 * ((values[block, None] - values) / h) ** 2)
        quad_sum += float(counts[block] @ conv @ counts)
        kernel_sum += float(counts[block] @ (conv * conv) @ counts)
    return quad_sum, kernel_sum


def cv_score(samples, h: float) -> float:
    """Least-squares cross-validation score of bandwidth h.

    CV(h) = integral of fhat_h^2 - (2/n) sum_i fhat_{h,-i}(X_i), with
    the squared-density integral in closed form: the pairwise Gaussian
    convolution has scale h*sqrt(2).  The n x n pairwise sums run over
    the distinct sample values, each pair weighted by the product of the
    two values' counts, so tied samples (posterior draws of integer
    totals are heavily tied) cost nothing extra; the kernel exp(-u^2/2)
    is the square of the convolution's exp(-u^2/4).  The pair sums run in
    Python below NUMPY_MIN_TERMS distinct values and with numpy from
    there on.  The n diagonal terms of the leave-one-out sum, each
    1 / (h sqrt(2 pi)), are subtracted at the end.
    """
    x = [float(v) for v in samples]
    n = len(x)
    if n < 2:
        raise ValueError("cross-validation needs at least 2 samples")
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    pair_sums = _pair_sums if len(set(x)) < NUMPY_MIN_TERMS else _pair_sums_numpy
    quad_sum, kernel_sum = pair_sums(x, h)
    quad_term = quad_sum / (h * sqrt(2.0) * _SQRT_2PI) / n**2
    loo_sum = (kernel_sum - n) / (h * _SQRT_2PI) / (n - 1)
    return quad_term - 2.0 / n * loo_sum


def select_bandwidth(samples, cv_grid) -> float:
    """Grid minimizer of the cross-validation score; ties go to the
    smaller bandwidth."""
    x = [float(v) for v in samples]
    if len(x) < 2:
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
    """GRID_FACTORS times the normal reference bandwidth 1.06 s n^(-1/5),
    with s the samples' standard deviation (ddof 1, as numpy computes it)."""
    x = [float(v) for v in samples]
    n = len(x)
    mean = _sum(x) / n
    spread = sqrt(_sum([(v - mean) * (v - mean) for v in x]) / (n - 1)) if n > 1 else 0.0
    reference = 1.06 * spread * n ** (-0.2)
    if not isfinite(reference):
        raise ValueError(
            f"the reference bandwidth of these totals overflows to {reference}; "
            "set a fixed --bandwidth"
        )
    if reference <= 0:
        reference = max(abs(mean) * 0.1, 1.0)
    return tuple(reference * g for g in GRID_FACTORS)


def _truncated_moments(centers, weights, h, upper):
    """The mixture's mass on [0, upper), its first moment there, its mass
    on [0, inf), and each component's normal CDF at 0.

    Uses the truncated-normal identity
    int_a^b x phi((x-c)/h)/h dx = c (Phi(B) - Phi(A)) + h (phi(A) - phi(B)).
    """
    mass, mean_part, pos_mass, cdf_zero = [], [], [], []
    for c, w in zip(centers, weights):
        alpha = (0.0 - c) / h
        beta = (upper - c) / h
        cdf_a, cdf_b = _norm_cdf(alpha), _norm_cdf(beta)
        mass.append(w * (cdf_b - cdf_a))
        pos_mass.append(w * (1.0 - cdf_a))
        mean_part.append(c * mass[-1] + w * h * (_gauss(alpha, 1.0) - _gauss(beta, 1.0)))
        cdf_zero.append(cdf_a)
    return _sum(mass), _sum(mean_part), _sum(pos_mass), cdf_zero


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
    centers = [float(e.total_size) for e in events]
    upper = centers[-1]

    if isinstance(config.bandwidth, str):
        samples = config.cv_samples if config.cv_samples is not None else centers
        grid = config.cv_grid if config.cv_grid is not None else _default_grid(samples)
        h = select_bandwidth(samples, grid)
    else:
        h = float(config.bandwidth)

    total_mass, mean_sum, total_pos, cdf_zero = _truncated_moments(centers, weights, h, upper)
    if total_pos <= 0.0 or total_mass / total_pos < 1e-12:
        return Prediction(0.0, 0.0, 0.0, h, tuple(weights), 0.0)

    # the truncated mean lies strictly below the truncation point; keep
    # that true under floating-point rounding as well
    mean = min(mean_sum / total_mass, nextafter(upper, 0.0))

    def truncated_cdf(x):
        terms = zip(weights, centers, cdf_zero)
        return _sum([w * (_norm_cdf((x - c) / h) - cz) for w, c, cz in terms]) / total_mass

    lo, hi = 0.0, upper
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if truncated_cdf(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    median = 0.5 * (lo + hi)

    # the points of np.linspace(0, upper, MODE_GRID_POINTS, endpoint=False)
    step = upper / MODE_GRID_POINTS
    grid_x = [i * step if step else i / MODE_GRID_POINTS * upper for i in range(MODE_GRID_POINTS)]
    density = kde_density(grid_x, events, weights, h)
    mode = grid_x[max(range(MODE_GRID_POINTS), key=density.__getitem__)]

    return Prediction(
        mean=mean,
        median=median,
        mode=mode,
        bandwidth=h,
        weights=tuple(weights),
        truncated_mass=total_mass / total_pos,
    )
