import codecs
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugsize import ingest
from bugsize.ingest import (
    RowError,
    SchemaError,
    TestLogRecord as LogRecord,
    parse_detections,
    parse_input_log,
    parse_test_log,
    phase_summary_doc,
    summarize_phases,
)

# Ten-row sample log: four cycles, defect id 31 recurring inside cycle 2,
# defect id 4 recurring across cycles 3 and 4.
SAMPLE_LOG = """cycle,defect_header,defect_id,size
1,2,3,1
1,5,6,3
1,5,7,13
2,13,31,2
2,15,31,16
3,14,10,1
3,23,4,8
3,25,2,1
4,5,13,4
4,42,4,2
"""

# Run counts are synthetic: the sample log carries no run information.
SYNTHETIC_RUNS = [2000, 2500, 2200, 2057]


def test_parse_single_row_fields():
    records = parse_test_log(io.StringIO("cycle,defect_header,defect_id,size\n1,5,7,13\n"))
    assert records == [LogRecord(cycle=1, defect_header=5, defect_id=7, size=13)]


def test_parse_second_sample_row():
    records = parse_test_log(SAMPLE_LOG.encode())
    assert records[4] == LogRecord(cycle=2, defect_header=15, defect_id=31, size=16)


def test_parse_header_only_is_empty():
    assert parse_test_log(io.StringIO("cycle,defect_header,defect_id,size\n")) == []


def test_parse_tab_delimited_auto_detected():
    text = "cycle\tdefect_id\tsize\n1\t7\t13\n"
    records = parse_test_log(io.StringIO(text))
    assert records[0].size == 13
    assert records[0].defect_header == 0  # column absent


def test_parse_severity_carried_as_metadata():
    text = "cycle,defect_id,size,severity\n1,7,13,complex\n"
    assert parse_test_log(io.StringIO(text))[0].severity == "complex"


def test_parse_missing_column_names_it():
    with pytest.raises(SchemaError, match="'size'"):
        parse_test_log(io.StringIO("cycle,defect_id\n1,7\n"))


def test_parse_bad_size_reports_line_number():
    text = "cycle,defect_id,size\n1,7,13\n2,8,oops\n"
    with pytest.raises(RowError, match="line 3"):
        parse_test_log(io.StringIO(text))


def test_parse_negative_size_rejected():
    with pytest.raises(RowError, match="negative"):
        parse_test_log(io.StringIO("cycle,defect_id,size\n1,7,-2\n"))


def test_summarize_sample_cycle_totals():
    summaries = summarize_phases(parse_test_log(SAMPLE_LOG.encode()), SYNTHETIC_RUNS)
    by_phase = {s.phase: s for s in summaries}
    assert by_phase[1].distinct_bugs == 3
    assert by_phase[1].observed_total == 17  # 1 + 3 + 13
    # cycle 2 logs defect 31 twice; the sizes are summed
    assert by_phase[2].distinct_bugs == 1
    assert by_phase[2].observed_total == 18
    assert by_phase[3].observed_total == 10
    assert by_phase[4].observed_total == 6


def test_summarize_cumulative_runs():
    summaries = summarize_phases(parse_test_log(SAMPLE_LOG.encode()), SYNTHETIC_RUNS)
    assert [s.runs_cumulative for s in summaries] == [2000, 4500, 6700, 8757]


def test_summarize_singleton():
    record = LogRecord(cycle=1, defect_header=0, defect_id=9, size=4)
    (summary,) = summarize_phases([record], [1])
    assert summary.runs_cumulative == 1
    assert summary.observed_sizes == (4,)


def test_summarize_missing_cycle_run_count():
    records = parse_test_log(SAMPLE_LOG.encode())
    with pytest.raises(ValueError, match="cycle 4"):
        summarize_phases(records, [100, 100, 100])


def test_summarize_nonpositive_runs_rejected():
    record = LogRecord(cycle=1, defect_header=0, defect_id=9, size=4)
    with pytest.raises(ValueError, match="strictly"):
        summarize_phases([record], [5, 0])


def test_distinct_counts_are_per_phase():
    # defect id 4 appears in cycles 3 and 4 and is counted in both
    summaries = summarize_phases(parse_test_log(SAMPLE_LOG.encode()), SYNTHETIC_RUNS)
    total_per_phase = sum(s.distinct_bugs for s in summaries)
    overall = len({r.defect_id for r in parse_test_log(SAMPLE_LOG.encode())})
    assert total_per_phase == 9
    assert total_per_phase >= overall == 8


record_strategy = st.builds(
    LogRecord,
    cycle=st.integers(min_value=1, max_value=4),
    defect_header=st.integers(min_value=0, max_value=50),
    defect_id=st.integers(min_value=1, max_value=12),
    size=st.integers(min_value=1, max_value=40),
)


@settings(max_examples=60)
@given(records=st.lists(record_strategy, max_size=30), permutation=st.randoms())
def test_aggregation_is_order_independent(records, permutation):
    runs = [10, 20, 30, 40]
    baseline = summarize_phases(records, runs)
    shuffled = list(records)
    permutation.shuffle(shuffled)
    assert summarize_phases(shuffled, runs) == baseline


@settings(max_examples=60)
@given(records=st.lists(record_strategy, max_size=30))
def test_phase_totals_match_brute_force(records):
    summaries = summarize_phases(records, [10, 20, 30, 40])
    for summary in summaries:
        brute = sum(r.size for r in records if r.cycle == summary.phase)
        assert summary.observed_total == brute
        assert summary.distinct_bugs == len(summary.observed_sizes)


def test_per_input_log_counts_runs_and_sizes():
    text = (
        "cycle,result,defect_id\n"
        "1,executed successfully,\n"
        "1,fail,7\n"
        "1,fail,7\n"
        "1,no run,\n"
        "2,executed successfully,\n"
        "2,fail,9\n"
    )
    records, runs = parse_input_log(io.StringIO(text))
    assert runs == [4, 2]
    summaries = summarize_phases(records, runs)
    assert summaries[0].sizes_by_defect == {7: 2}
    assert summaries[1].sizes_by_defect == {9: 1}


def test_unique_input_column_gives_the_same_records():
    # every row of the second log is distinct, but only the columns the
    # parse reads are counted
    rows = ["1,7", "1,", "1,7", "2,", "2,9", "2,", "1,7"]
    plain = "cycle,defect_id\n" + "\n".join(rows) + "\n\n"
    unique = "cycle,defect_id,input_id\n" + "\n".join(
        f"{row},{i}" for i, row in enumerate(rows)
    ) + "\n\n"
    records, runs = parse_input_log(plain.encode())
    assert (records, runs) == ([LogRecord(1, 0, 7, 3), LogRecord(2, 0, 9, 1)], [4, 3])
    assert parse_input_log(unique.encode()) == (records, runs)
    # a whitespace line is skipped as blank
    assert parse_input_log((unique + "   \n").encode()) == (records, runs)


def test_blank_lines_keep_the_counted_pass(monkeypatch):
    # Every column is read, so blank lines are skipped as their distinct
    # lines are read, and the table's header is read once.
    rows = ["1,7", "1,", "1,7", "2,", "2,9", "2,"]
    plain = "cycle,defect_id\n" + "\n".join(rows) + "\n"
    blank = "cycle,defect_id\n" + "\n".join(rows[:2] + ["   "] + rows[2:4] + [","] + rows[4:]) + "\n"
    expected = parse_input_log(plain.encode())
    table, calls = ingest._table, []
    monkeypatch.setattr(ingest, "_table", lambda *args: calls.append(args) or table(*args))
    assert parse_input_log(blank.encode()) == expected
    assert len(calls) == 1


def test_blank_lines_with_an_unread_column_keep_the_counted_pass(monkeypatch):
    # The input id is not read, so rows are counted as csv reads them; a
    # whitespace-only and a "," line are short rows, skipped as blank
    # rather than sending the table row by row.
    rows = ["1,7,a", "1,,b", "1,7,c", "2,,d", "2,9,e", "2,,f"]
    plain = "cycle,defect_id,input_id\n" + "\n".join(rows) + "\n"
    blank = "cycle,defect_id,input_id\n" + "\n".join(rows[:2] + ["   "] + rows[2:4] + [","] + rows[4:]) + "\n"
    expected = parse_input_log(plain.encode())

    def row_by_row(*args):
        raise AssertionError("the table was read row by row")

    monkeypatch.setattr(ingest, "_rows", row_by_row)
    assert parse_input_log(blank.encode()) == expected


def test_row_blank_only_in_read_columns_is_an_error():
    # the row has content, so it is not skipped as blank: its empty cycle
    # is reported at its own line
    log = "cycle,defect_id,input_id\n1,7,a\n , ,b\n2,,c\n"
    with pytest.raises(RowError, match="^line 3: column 'cycle' has non-integer value ''"):
        parse_input_log(log.encode())


def test_phase_summary_doc_schema():
    summaries = summarize_phases(parse_test_log(SAMPLE_LOG.encode()), SYNTHETIC_RUNS)
    doc = phase_summary_doc(summaries)
    assert list(doc["phases"][0]) == ["phase", "runs_cumulative", "distinct_bugs", "sizes"]
    assert doc["phases"][1]["sizes"] == [18]


def test_bad_cell_line_counts_blank_lines():
    text = "cycle,defect_id,size\n\n1,7,13\n\n2,8,oops\n"
    with pytest.raises(RowError, match="^line 5: column 'size'"):
        parse_test_log(io.StringIO(text))


def test_bad_defect_header_is_row_error():
    text = "cycle,defect_header,defect_id,size\n1,x,7,13\n"
    with pytest.raises(RowError, match="^line 2: column 'defect_header' has non-integer value 'x'"):
        parse_test_log(io.StringIO(text))


def test_oversized_cell_is_row_error():
    text = "cycle,defect_id,size\n1,7,13\n1,8," + "9" * 200_000 + "\n"
    with pytest.raises(RowError, match="^line 3: .*field limit"):
        parse_test_log(text.encode())


def test_header_names_trimmed_and_case_insensitive():
    text = "\n , \n Cycle ,DEFECT_ID, Size\n1,7,13\n"
    assert parse_test_log(io.StringIO(text)) == [LogRecord(1, 0, 7, 13)]


LOG_COLUMNS = ("cycle", "defect_header", "defect_id", "size", "severity")


def _write_log(records, delimiter, newline, blanks_before, blank_line):
    """Write `records` as a log with `blanks_before[i]` blank lines ahead of
    row i (the header is row 0); return the text and each record's line."""
    lines, record_lines = [], []
    rows = [list(LOG_COLUMNS)] + [
        [str(r.cycle), str(r.defect_header), str(r.defect_id), str(r.size), r.severity or ""]
        for r in records
    ]
    for row, blanks in zip(rows, blanks_before):
        lines.extend([blank_line] * blanks)
        lines.append(delimiter.join(row))
        record_lines.append(len(lines))
    return newline.join(lines) + newline, record_lines[1:]


round_trip_record = st.builds(
    LogRecord,
    cycle=st.integers(min_value=1, max_value=4),
    defect_header=st.integers(min_value=0, max_value=50),
    defect_id=st.integers(min_value=1, max_value=12),
    size=st.integers(min_value=0, max_value=40),
    severity=st.sampled_from([None, "minor", "complex"]),
)


@settings(max_examples=80)
@given(
    records=st.lists(round_trip_record, min_size=1, max_size=15),
    delimiter=st.sampled_from([",", "\t"]),
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_line=st.sampled_from(["", "   ", " \t ", None]),
    data=st.data(),
)
def test_summary_log_round_trip(records, delimiter, newline, blank_line, data):
    rows = len(records) + 1
    blanks = data.draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    blank_line = delimiter * 2 if blank_line is None else blank_line
    text, record_lines = _write_log(records, delimiter, newline, blanks, blank_line)
    assert parse_test_log(text.encode()) == records

    row = data.draw(st.integers(0, len(records) - 1))
    column = data.draw(st.sampled_from(["cycle", "defect_header", "defect_id", "size"]))
    lines = text.split(newline)
    cells = lines[record_lines[row] - 1].split(delimiter)
    cells[LOG_COLUMNS.index(column)] = "1.5"
    lines[record_lines[row] - 1] = delimiter.join(cells)
    with pytest.raises(RowError, match=f"^line {record_lines[row]}: column '{column}'"):
        parse_test_log(io.StringIO(newline.join(lines)))


def test_per_input_log_matches_summary_log():
    records = parse_test_log(SAMPLE_LOG.encode())
    lines = ["cycle,result,defect_header,defect_id"]
    for cycle, runs in enumerate(SYNTHETIC_RUNS, start=1):
        defect_rows = [r for r in records if r.cycle == cycle]
        for r in defect_rows:
            lines += [f"{cycle},fail,{r.defect_header},{r.defect_id}"] * r.size
        lines += [f"{cycle},executed successfully,,"] * (runs - sum(r.size for r in defect_rows))
    per_input, per_input_runs = parse_input_log("\n".join(lines).encode())
    assert per_input_runs == SYNTHETIC_RUNS
    from_inputs = summarize_phases(per_input, per_input_runs)
    from_summary = summarize_phases(records, SYNTHETIC_RUNS)
    assert from_inputs == from_summary
    assert phase_summary_doc(from_inputs) == phase_summary_doc(from_summary)


def test_summarize_names_phase_with_no_runs():
    records, runs = parse_input_log(io.StringIO("cycle,defect_id\n1,3\n3,4\n"))
    assert runs == [1, 0, 1]
    with pytest.raises(ValueError, match="phase 2 .*strictly"):
        summarize_phases(records, runs)


def test_parse_detections():
    text = "phase\tclass\tcount\n2\t1\t4\n\n1\t2\t3\n1\t1\t5\n"
    assert parse_detections(io.StringIO(text)) == {1: {2: 3, 1: 5}, 2: {1: 4}}
    assert list(parse_detections(io.StringIO(text))) == [1, 2]


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("phase,count\n1,5\n", SchemaError, "'class'"),
        ("phase,class,count\n1,1,5\n1,1,6\n", RowError, "^line 3: phase 1, class 1 is listed"),
        ("phase,class,count\n1,1,five\n", RowError, "^line 2: column 'count'"),
        ("phase,class,count\n1,x,5\n", RowError, "^line 2: column 'class'"),
        ("phase,class,count\n\n1.0,1,5\n", RowError, "^line 3: column 'phase'"),
        ("phase,class,count\n1,1,5\n3,1,5\n", ValueError, "contiguous"),
        ("phase,class,count\n1,1,-3", RowError, r"^line 2: column 'count' is negative \(-3\)$"),
    ],
)
def test_parse_detections_rejects(text, error, message):
    with pytest.raises(error, match=message):
        parse_detections(io.StringIO(text))


@pytest.mark.parametrize("parse", [parse_test_log, parse_input_log, parse_detections])
def test_not_utf8_names_its_line(parse):
    text = b"cycle,defect_id,size\r\n1,7,13\r\n2,\xff,4\r\n"
    with pytest.raises(RowError, match="^line 3: not UTF-8: .* byte 0xff"):
        parse(text)
    with pytest.raises(RowError, match="^line 2: not UTF-8"):
        parse(codecs.BOM_UTF8 + b"cycle,defect_id,size\n\xfe")


@pytest.mark.parametrize("parse", [parse_test_log, parse_input_log])
def test_byte_order_mark_is_dropped(parse, tmp_path):
    text = "cycle,defect_id,size\n1,7,13\n"
    path = tmp_path / "log.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert parse(path) == parse(text.encode())


def _reference_input_log(source):
    """The per-input log parsed row by row: one size-1 record per defect row."""
    records, run_counts = [], {}
    lines = ingest._lines(source)
    for line_no, cells in ingest._rows(lines, ingest.INPUT_COLUMNS, ingest.OPTIONAL_COLUMNS):
        cycle = ingest._cycle(cells[0], line_no)
        run_counts[cycle] = run_counts.get(cycle, 0) + 1
        if cells[1]:
            defect_id = ingest._int_cell(cells[1], "defect_id", line_no)
            records.append(ingest._record(line_no, cycle, defect_id, 1, cells[2:]))
    return records, [run_counts.get(cycle, 0) for cycle in range(1, max(run_counts, default=0) + 1)]


def _outcome(parse, text):
    """What a parse of `text` reports: its phase summaries and run counts,
    or its error."""
    try:
        records, runs = parse(text.encode())
    except RowError as exc:
        return "error", str(exc)
    return phase_summary_doc(summarize_phases(records, runs)), runs


# cycle, defect id (None for a plain row), defect_header, severity (quoted
# where it holds the delimiter {d} or a line break {nl}), how the defect id
# is padded (padded ids are distinct rows but the same defect), and whether
# the row's result spans two physical lines
input_row = st.tuples(
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(1, 4)),
    st.integers(0, 2),
    st.sampled_from(["", "minor", "complex", "minor{d}major", "minor{nl}major"]),
    st.sampled_from(["{}", " {}", "{} ", " {} "]),
    st.booleans(),
)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(st.one_of(input_row, st.sampled_from(["", "   ", " \t ", None])), max_size=40),
    extra=st.sets(st.sampled_from(["defect_header", "severity", "result"])),
    delimiter=st.sampled_from([",", "\t"]),
    newline=st.sampled_from(["\n", "\r\n"]),
    data=st.data(),
)
def test_counted_input_log_matches_row_by_row(rows, extra, delimiter, newline, data):
    # Without a `result` column every column is read and distinct lines are
    # counted, unless a quoted severity puts a quote on a line.
    header = data.draw(st.permutations(["cycle", "defect_id", *sorted(extra)]))
    # one plain row per cycle, so that every phase has runs
    rows = data.draw(st.permutations(rows + [(c, None, 0, "", "{}", False) for c in (1, 2, 3)]))

    def line(row, corrupt=None):
        if not isinstance(row, tuple):
            return delimiter * 2 if row is None else row
        cycle, defect_id, defect_header, severity, pad, two_lines = row
        result = "ok" if defect_id is None else "fail"
        cells = {
            "cycle": str(cycle),
            "defect_id": "" if defect_id is None else pad.format(defect_id),
            "defect_header": str(defect_header),
            "severity": f'"{severity}"'.format(d=delimiter, nl=newline) if "{" in severity else severity,
            "result": f'"{result}{newline}retried"' if two_lines else result,
        }
        if corrupt:
            column, value = corrupt
            cells[column] = value
        return delimiter.join(cells[name] for name in header)

    text = newline.join([delimiter.join(header)] + [line(row) for row in rows]) + newline
    expected = _outcome(_reference_input_log, text)
    assert expected[0] != "error"
    assert _outcome(parse_input_log, text) == expected

    # corrupt one cell of a data row; the error, if any, names the same line
    bad = data.draw(st.sampled_from([i for i, row in enumerate(rows) if isinstance(row, tuple)]))
    corrupt = (data.draw(st.sampled_from(header)), data.draw(st.sampled_from(["1.5", "0", "x"])))
    lines = [line(row, corrupt if i == bad else None) for i, row in enumerate(rows)]
    if data.draw(st.booleans()):
        # an oversized cell after the bad row loses to it
        oversized = delimiter.join("9" * 200_000 if name == "defect_id" else "1" for name in header)
        lines.insert(data.draw(st.integers(bad + 1, len(lines))), oversized)
    text = newline.join([delimiter.join(header)] + lines) + newline
    assert _outcome(parse_input_log, text) == _outcome(_reference_input_log, text)


def test_quote_joining_lines_is_one_row():
    # Every column is read, but the quote makes lines 2 and 3 one row, so
    # the table's rows are counted as csv reads them, not its lines.
    text = 'cycle,defect_id\n1,"4\n"\n1,\n1,\n2,\n'
    assert parse_input_log(text.encode()) == _reference_input_log(text.encode())
    assert parse_input_log(text.encode())[1] == [3, 1]
