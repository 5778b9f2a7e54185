"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns both the file text the
CLI reads and the benchmark's own counts of what it wrote, so that the
correctness checks compare the program's reports against numbers computed
here rather than against stored reports.

With per-phase totals f_k the size parameters of the run-count chain are
r_1 = f_1, r_2 = f_2 and r_3 = f_3 - f_1, so in the three-phase logs phase
3's observed total exceeds phase 1's; a fit then starts from a feasible
state.  Every phase logs at least one defect, because ``bugsize fit`` drops
phases without one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bug counts and per-phase defect rows are fixed, so every seed asks for the
# same amount of work.  In the summary logs the seed shuffles a fixed multiset
# of sizes, splits some sizes over two rows and draws the run counts; in the
# per-input log it splits each phase's defect rows over the bugs and
# scatters them among the plain rows.

# wide-fit: many bugs of size 1 or 2, half of each (phase 3 rounds up).  Phase
# 3's observed total exceeds phase 1's (98 > 45), so r_3 > 0 at the
# observed sizes.
WIDE_BUGS = (30, 30, 65)
WIDE_RUNS_RANGE = (300, 600)
# Share of bugs whose size is logged over two rows that the ingest sums.
WIDE_SPLIT_SHARE = 0.2

# paper-scale: one row per executed input, a handful of bugs per phase and
# per-phase defect rows in the thousands, so eventual totals reach tens of
# thousands.  Phase 3's defect rows exceed phase 1's (r_3 > 0).
PAPER_RUNS = (60_000, 64_000, 76_000)
PAPER_BUGS = (4, 5, 6)
PAPER_DEFECT_ROWS = (12_000, 11_000, 28_000)

# Toy sizes for the self-check divide the counts above; the ratios that keep
# r_3 positive survive the division (6 * 1.5 < 13 and 600 < 1400).
WIDE_TOY_DIVISOR = 5
PAPER_TOY_DIVISOR = 20


@dataclass(frozen=True)
class SummaryLog:
    """A ``cycle,defect_id,size`` log and the sizes it encodes."""

    text: str
    runs: tuple[int, ...]
    # per phase, defect id -> summed size, in first-appearance order
    sizes: tuple[dict[int, int], ...]

    @property
    def runs_arg(self) -> str:
        return ",".join(str(r) for r in self.runs)


@dataclass(frozen=True)
class InputLog:
    """A raw ``cycle,defect_id`` log with one row per executed input."""

    text: str
    runs: tuple[int, ...]
    sizes: tuple[dict[int, int], ...]


def _summary_log(rng: np.random.Generator, bug_sizes, runs, split_share) -> SummaryLog:
    lines = ["cycle,defect_id,size"]
    sizes: list[dict[int, int]] = []
    defect_id = 0
    for phase, row in enumerate(bug_sizes, start=1):
        phase_sizes: dict[int, int] = {}
        for size in rng.permutation(row).tolist():
            defect_id += 1
            phase_sizes[defect_id] = size
            if size >= 2 and rng.uniform() < split_share:
                first = int(rng.integers(1, size))
                lines.append(f"{phase},{defect_id},{first}")
                lines.append(f"{phase},{defect_id},{size - first}")
            else:
                lines.append(f"{phase},{defect_id},{size}")
        sizes.append(phase_sizes)
    return SummaryLog("\n".join(lines) + "\n", tuple(int(r) for r in runs), tuple(sizes))


def wide_log(seed: int, toy: bool = False) -> SummaryLog:
    """Summary log with over a hundred small bugs across three phases."""
    rng = np.random.default_rng([seed, 1])
    bugs = [n // WIDE_TOY_DIVISOR for n in WIDE_BUGS] if toy else WIDE_BUGS
    bug_sizes = [[1] * (n // 2) + [2] * (n - n // 2) for n in bugs]
    runs = rng.integers(WIDE_RUNS_RANGE[0], WIDE_RUNS_RANGE[1] + 1, size=len(bugs))
    return _summary_log(rng, bug_sizes, runs, WIDE_SPLIT_SHARE)


def paper_log(seed: int, toy: bool = False) -> InputLog:
    """Per-input log of about 200k rows with paper-scale per-phase totals.

    Each phase's defect rows are split over its bugs at random (every bug
    gets at least one row) and scattered among the phase's plain rows.
    """
    rng = np.random.default_rng([seed, 2])
    divisor = PAPER_TOY_DIVISOR if toy else 1
    run_counts = [n // divisor for n in PAPER_RUNS]
    lines = ["cycle,defect_id"]
    sizes: list[dict[int, int]] = []
    defect_id = 0
    for phase, (runs, bugs, defect_rows) in enumerate(
        zip(run_counts, PAPER_BUGS, [n // divisor for n in PAPER_DEFECT_ROWS]), start=1
    ):
        split = 1 + rng.multinomial(defect_rows - bugs, rng.dirichlet(np.ones(bugs)))
        ids = np.arange(defect_id + 1, defect_id + bugs + 1)
        defect_id += bugs
        column = np.zeros(runs, dtype=np.int64)
        column[:defect_rows] = np.repeat(ids, split)
        rng.shuffle(column)
        count = dict(zip(ids.tolist(), split.tolist()))
        sizes.append({d: count[d] for d in dict.fromkeys(column[column > 0].tolist())})
        cells = np.where(column > 0, column.astype(str), "")
        lines.extend(f"{phase},{cell}" for cell in cells.tolist())
    return InputLog("\n".join(lines) + "\n", tuple(run_counts), tuple(sizes))
