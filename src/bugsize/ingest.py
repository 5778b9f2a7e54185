"""Parsing and per-phase aggregation of discrete software testing logs.

Three tables are read: a summary log with one row per (cycle, defect)
carrying an observed size; a raw per-input log with one row per executed
test input, from which sizes and run counts are derived by counting; and
the `phase,class,count` detection table of the `baseline` command. All
three follow the same rules. The source is a path, bytes, or an open
text/byte stream, and bytes are read as UTF-8 with an optional byte-order
mark. The first non-blank row is the header, whose names are
trimmed and case-insensitive. The delimiter is a tab if the first
non-blank line holds one, else a comma. Blank rows
are skipped, and errors name the physical line and the column.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "SchemaError",
    "RowError",
    "TestLogRecord",
    "PhaseSummary",
    "parse_test_log",
    "parse_input_log",
    "parse_detections",
    "summarize_phases",
    "phase_summary_doc",
]

REQUIRED_COLUMNS = ("cycle", "defect_id", "size")
INPUT_COLUMNS = ("cycle", "defect_id")
OPTIONAL_COLUMNS = ("defect_header", "severity")


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


def _lines(source) -> list[str]:
    """The lines of a table given as a path, bytes or an open stream."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    text = source if isinstance(source, bytes) else source.read()
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # become part of the first header name
    return (text.decode("utf-8-sig") if isinstance(text, bytes) else text).splitlines()


@contextmanager
def _csv_errors(reader):
    """Report a malformed row (such as an oversized cell) as a RowError
    naming the reader's current line."""
    try:
        yield
    except csv.Error as exc:
        raise RowError(f"line {reader.line_num}: {exc}") from None


def _table(
    lines: list[str], required: tuple[str, ...], optional: tuple[str, ...]
) -> tuple[Iterator[list[str]], list[int]]:
    """Read a table's header by the rules above.  Returns the csv reader,
    positioned after the header, and each of the `required`, then the
    `optional`, columns' index in a row (-1 where the table has none)."""
    first = next((line for line in lines if line.strip()), "")
    reader = csv.reader(lines, delimiter="\t" if "\t" in first else ",")
    with _csv_errors(reader):
        for row in reader:
            if _blank(row):
                continue
            names = [cell.strip().lower() for cell in row]
            for column in required:
                if column not in names:
                    raise SchemaError(f"missing required column '{column}'")
            index = [names.index(name) if name in names else -1 for name in required + optional]
            return reader, index
    raise SchemaError("input has no header row")


def _blank(row) -> bool:
    return not "".join(row).strip()


def _cells(row, index: list[int]) -> list[str]:
    """A data row's trimmed cells in `index` order ("" where the row is
    short or the table lacks the column)."""
    return [row[i].strip() if 0 <= i < len(row) else "" for i in index]


def _rows(
    lines: list[str], required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> Iterator[tuple[int, list[str]]]:
    """Yield `(line, cells)` for each non-blank data row of a table, with
    `cells` as `_cells` gives them."""
    reader, index = _table(lines, required, optional)
    with _csv_errors(reader):
        for row in reader:
            if not _blank(row):
                yield reader.line_num, _cells(row, index)


def _int_cell(raw: str, column: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise RowError(f"line {line_no}: column '{column}' has non-integer value {raw!r}") from None


def _cycle(raw: str, line_no: int) -> int:
    cycle = _int_cell(raw, "cycle", line_no)
    if cycle < 1:
        raise RowError(f"line {line_no}: cycle must be >= 1, got {cycle}")
    return cycle


def _record(line_no: int, cycle: int, defect_id: int, size: int, extra: list[str]) -> TestLogRecord:
    """A defect row's record; `extra` holds its `defect_header` (blank reads
    0) and `severity` (blank reads None) cells."""
    defect_header, severity = extra
    header = _int_cell(defect_header, "defect_header", line_no) if defect_header else 0
    return TestLogRecord(cycle, header, defect_id, size, severity or None)


def parse_test_log(source) -> list[TestLogRecord]:
    """Parse a summary-style log (one row per logged defect per cycle).
    A header-only input yields an empty list."""
    records = []
    for line_no, cells in _rows(_lines(source), REQUIRED_COLUMNS, OPTIONAL_COLUMNS):
        cycle = _cycle(cells[0], line_no)
        size = _int_cell(cells[2], "size", line_no)
        if size < 0:
            raise RowError(f"line {line_no}: column 'size' is negative ({size})")
        defect_id = _int_cell(cells[1], "defect_id", line_no)
        records.append(_record(line_no, cycle, defect_id, size, cells[3:]))
    return records


def _input_row(line_no: int, cells: list[str], count: int) -> tuple[int, TestLogRecord | None]:
    """A per-input row's cycle, and its defect record of size `count` (None
    for a row without a defect id)."""
    cycle = _cycle(cells[0], line_no)
    if not cells[1]:
        return cycle, None
    defect_id = _int_cell(cells[1], "defect_id", line_no)
    return cycle, _record(line_no, cycle, defect_id, count, cells[2:])


def parse_input_log(source) -> tuple[list[TestLogRecord], list[int]]:
    """Parse a raw per-input log (one row per executed test input).

    Rows with a non-empty `defect_id` each contribute one unit of
    observed size; every row counts toward the cycle's run total,
    including "no run"-style rows, which are treated as plain non-defect
    rows. Returns the defect records plus per-cycle run counts.

    Identical rows are counted before any is parsed, so the parsing cost
    grows with the number of distinct rows, not of rows: each distinct
    defect row gives one record, in first-appearance order, whose size is
    the row's count.  A bad row is reported at the first physical line
    that holds it.
    """
    lines = _lines(source)
    reader, index = _table(lines, INPUT_COLUMNS, OPTIONAL_COLUMNS)
    records = []
    run_counts: dict[int, int] = {}
    try:
        for row, count in Counter(map(tuple, reader)).items():
            if _blank(row):
                continue
            # line 0 stands in until the error path below finds the line
            cycle, record = _input_row(0, _cells(row, index), count)
            run_counts[cycle] = run_counts.get(cycle, 0) + count
            if record is not None:
                records.append(record)
    except (csv.Error, RowError) as exc:
        error = exc
    else:
        n_phases = max(run_counts, default=0)
        return records, [run_counts.get(cycle, 0) for cycle in range(1, n_phases + 1)]
    # The counted pass cannot tell which line a bad row is on.  The same
    # checks made row by row raise the error of the first bad physical
    # line, or the csv error if no bad row comes before it.
    for line_no, cells in _rows(lines, INPUT_COLUMNS, OPTIONAL_COLUMNS):
        _input_row(line_no, cells, 1)
    raise error


def parse_detections(source) -> dict[int, dict[int, int]]:
    """Parse a `phase,class,count` detection table into phase -> class ->
    count, phases in order. Phases must run 1, 2, ... without a gap, and
    each (phase, class) pair may appear once."""
    counts_by_phase: dict[int, dict[int, int]] = {}
    for line_no, (phase, cls, count) in _rows(_lines(source), ("phase", "class", "count")):
        phase, cls = _int_cell(phase, "phase", line_no), _int_cell(cls, "class", line_no)
        counts = counts_by_phase.setdefault(phase, {})
        if cls in counts:
            raise RowError(f"line {line_no}: phase {phase}, class {cls} is listed twice")
        counts[cls] = _int_cell(count, "count", line_no)
    if sorted(counts_by_phase) != list(range(1, len(counts_by_phase) + 1)):
        raise ValueError("detection phases must form a contiguous range starting at 1")
    return dict(sorted(counts_by_phase.items()))


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
    for phase, value in enumerate(runs, start=1):
        if int(value) != value or value < 1:
            raise ValueError(
                f"phase {phase} has {value} runs; runs_per_phase entries must be positive "
                f"integers so cumulative runs increase strictly"
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
