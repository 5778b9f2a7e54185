"""Parsing and per-phase aggregation of discrete software testing logs.

Two input shapes are supported: a summary table with one row per
(cycle, defect) carrying an observed size, and a raw per-input log with
one row per executed test input, from which sizes and run counts are
derived by counting.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

__all__ = [
    "SchemaError",
    "RowError",
    "TestLogRecord",
    "PhaseSummary",
    "parse_test_log",
    "parse_input_log",
    "summarize_phases",
    "phase_summary_doc",
]

REQUIRED_COLUMNS = ("cycle", "defect_id", "size")


class SchemaError(ValueError):
    """The input table is missing a required column or a header row."""


class RowError(ValueError):
    """A data row holds a value that cannot be interpreted."""


@dataclass(frozen=True)
class TestLogRecord:
    """One logged defect observation: `size` inputs went through defect
    `defect_id` during testing cycle `cycle`."""

    cycle: int
    defect_header: int
    defect_id: int
    size: int
    severity: str | None = None

    def __post_init__(self) -> None:
        if self.cycle < 1:
            raise ValueError(f"cycle must be >= 1, got {self.cycle}")
        if self.size < 0:
            raise ValueError(f"size must be non-negative, got {self.size}")


@dataclass(frozen=True)
class PhaseSummary:
    """Aggregated view of one testing phase.

    `sizes_by_defect` preserves first-appearance order of defect ids so
    that downstream array layouts are reproducible.
    """

    phase: int
    runs_cumulative: int
    sizes_by_defect: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.phase < 1:
            raise ValueError(f"phase must be >= 1, got {self.phase}")
        if self.runs_cumulative < 0:
            raise ValueError("runs_cumulative must be non-negative")
        for defect_id, size in self.sizes_by_defect.items():
            if size < 0:
                raise ValueError(f"negative size for defect {defect_id}")

    @property
    def distinct_bugs(self) -> int:
        return len(self.sizes_by_defect)

    @cached_property
    def observed_sizes(self) -> tuple[int, ...]:
        # Cached because the MH step reads it once per proposal; nothing
        # writes to `sizes_by_defect` after construction.
        return tuple(self.sizes_by_defect.values())

    @property
    def observed_total(self) -> int:
        return sum(self.sizes_by_defect.values())


def _read_lines(source) -> list[str]:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    elif isinstance(source, bytes):
        text = source.decode("utf-8")
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    return [line for line in text.splitlines() if line.strip()]


def _split_header(lines: list[str], delimiter: str | None) -> tuple[list[str], str]:
    if not lines:
        raise SchemaError("input has no header row")
    if delimiter is None:
        delimiter = "\t" if "\t" in lines[0] else ","
    header = [cell.strip().lower() for cell in next(csv.reader([lines[0]], delimiter=delimiter))]
    return header, delimiter


def _cell(row: list[str], index: int) -> str:
    return row[index].strip() if index < len(row) else ""


def _int_cell(raw: str, column: str, line_no: int) -> int:
    try:
        value = int(raw.strip())
    except ValueError:
        raise RowError(f"line {line_no}: column '{column}' has non-integer value {raw!r}") from None
    return value


def parse_test_log(source, delimiter: str | None = None) -> list[TestLogRecord]:
    """Parse a summary-style log (one row per logged defect per cycle).

    `source` may be a path, bytes, or an open text/byte stream. The
    delimiter is auto-detected from the header row (tab or comma) when
    not given. A header-only input yields an empty list.
    """
    lines = _read_lines(source)
    header, delimiter = _split_header(lines, delimiter)
    for column in REQUIRED_COLUMNS:
        if column not in header:
            raise SchemaError(f"missing required column '{column}'")
    idx = {name: header.index(name) for name in header}

    records = []
    for line_no, row in enumerate(csv.reader(lines[1:], delimiter=delimiter), start=2):
        if not any(cell.strip() for cell in row):
            continue
        cycle = _int_cell(_cell(row, idx["cycle"]), "cycle", line_no)
        if cycle < 1:
            raise RowError(f"line {line_no}: cycle must be >= 1, got {cycle}")
        size = _int_cell(_cell(row, idx["size"]), "size", line_no)
        if size < 0:
            raise RowError(f"line {line_no}: column 'size' is negative ({size})")
        defect_id = _int_cell(_cell(row, idx["defect_id"]), "defect_id", line_no)
        header_cell = _cell(row, idx["defect_header"]) if "defect_header" in idx else ""
        defect_header = int(header_cell) if header_cell else 0
        severity = (_cell(row, idx["severity"]) or None) if "severity" in idx else None
        records.append(TestLogRecord(cycle, defect_header, defect_id, size, severity))
    return records


def parse_input_log(source, delimiter: str | None = None) -> tuple[list[TestLogRecord], list[int]]:
    """Parse a raw per-input log (one row per executed test input).

    Rows with a non-empty `defect_id` each contribute one unit of
    observed size; every row counts toward the cycle's run total,
    including "no run"-style rows, which are treated as plain non-defect
    rows. Returns the defect records plus per-cycle run counts.
    """
    lines = _read_lines(source)
    header, delimiter = _split_header(lines, delimiter)
    for column in ("cycle", "defect_id"):
        if column not in header:
            raise SchemaError(f"missing required column '{column}'")
    idx = {name: header.index(name) for name in header}

    records = []
    run_counts: dict[int, int] = {}
    for line_no, row in enumerate(csv.reader(lines[1:], delimiter=delimiter), start=2):
        if not any(cell.strip() for cell in row):
            continue
        cycle = _int_cell(_cell(row, idx["cycle"]), "cycle", line_no)
        if cycle < 1:
            raise RowError(f"line {line_no}: cycle must be >= 1, got {cycle}")
        run_counts[cycle] = run_counts.get(cycle, 0) + 1
        defect_cell = _cell(row, idx["defect_id"])
        if not defect_cell:
            continue
        defect_id = _int_cell(defect_cell, "defect_id", line_no)
        header_cell = _cell(row, idx["defect_header"]) if "defect_header" in idx else ""
        defect_header = int(header_cell) if header_cell else 0
        severity = (_cell(row, idx["severity"]) or None) if "severity" in idx else None
        records.append(TestLogRecord(cycle, defect_header, defect_id, 1, severity))

    n_phases = max(run_counts, default=0)
    runs_per_phase = [run_counts.get(cycle, 0) for cycle in range(1, n_phases + 1)]
    return records, runs_per_phase


def summarize_phases(
    records: Iterable[TestLogRecord], runs_per_phase: list[int]
) -> list[PhaseSummary]:
    """Aggregate records into per-phase summaries.

    Sizes of rows sharing (cycle, defect_id) are summed; cumulative run
    counts are the running sum of `runs_per_phase`. Every cycle in
    `records` must have a run count.
    """
    runs = list(runs_per_phase)
    if not runs:
        raise ValueError("runs_per_phase must not be empty")
    for value in runs:
        if int(value) != value or value < 1:
            raise ValueError(
                f"runs_per_phase entries must be positive integers so cumulative "
                f"runs increase strictly; got {value}"
            )

    per_phase: list[dict[int, int]] = [dict() for _ in runs]
    for record in records:
        if record.cycle > len(runs):
            raise ValueError(
                f"cycle {record.cycle} present in records but absent from runs_per_phase"
            )
        sizes = per_phase[record.cycle - 1]
        sizes[record.defect_id] = sizes.get(record.defect_id, 0) + record.size

    summaries = []
    runs_cumulative = 0
    for phase, (run_count, sizes) in enumerate(zip(runs, per_phase), start=1):
        runs_cumulative += int(run_count)
        summaries.append(PhaseSummary(phase, runs_cumulative, sizes))
    return summaries


def phase_summary_doc(summaries: Iterable[PhaseSummary]) -> dict:
    """Canonical serializable form of a phase-summary list."""
    return {
        "phases": [
            {
                "phase": s.phase,
                "runs_cumulative": s.runs_cumulative,
                "distinct_bugs": s.distinct_bugs,
                "sizes": list(s.observed_sizes),
            }
            for s in summaries
        ]
    }
