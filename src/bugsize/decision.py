"""The epsilon stop-testing rule on per-phase totals.

Like `predictor`, this module runs on the standard library.  It stays a
module of its own, so that `bugsize decide` does not pay for importing
the predictor: about 5 ms, most of it compiling the module's source,
which a command started without bytecode caching does each time.
`predictor` re-exports `decide_stop`.
"""

from __future__ import annotations

from math import isfinite
from typing import NamedTuple

__all__ = ["StopDecision", "decide_stop"]


class StopDecision(NamedTuple):
    """Outcome of the epsilon rule: stop after this phase, or keep testing."""

    stop_after_phase: int | None

    @property
    def should_stop(self) -> bool:
        return self.stop_after_phase is not None


def decide_stop(per_phase_totals, epsilon: float) -> StopDecision:
    """First-crossing epsilon rule: stop after phase k-1 when phase k's
    (estimated or predicted) total falls below epsilon."""
    if not isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    totals = [float(x) for x in per_phase_totals]
    if not all(map(isfinite, totals)):
        raise ValueError("totals must be finite")
    if any(x < 0 for x in totals):
        raise ValueError("totals must be non-negative")
    for k, total in enumerate(totals, start=1):
        if total < epsilon:
            return StopDecision(stop_after_phase=k - 1)
    return StopDecision(stop_after_phase=None)
