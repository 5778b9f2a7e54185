import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bugsize
from bugsize.cli import _jsonable, run

TABLE_TOTALS = "34007,36157,57738,11409,6.9e-10"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_table_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--totals", TABLE_TOTALS, "--epsilon", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["stop_after_phase"] == 4
        assert report["action"] == "stop"

    def test_continue_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "--totals", "5,5", "--epsilon", "1")
        assert code == 0
        assert json.loads(out)["action"] == "continue"

    def test_missing_epsilon_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "decide", "--totals", "1,2")
        assert code == 1
        assert "--epsilon" in err

    def test_bad_totals_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "decide", "--totals", "a,b", "--epsilon", "1")
        assert code == 1
        assert "--totals" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_fit_missing_data_flag(self, capsys):
        code, _, err = run_cli(capsys, "fit")
        assert code == 1
        assert "--data" in err

    def test_decide_takes_no_config(self, capsys):
        # only fit, predict and baseline read a --config document
        code, out, err = run_cli(
            capsys, "decide", "--totals", "3,2,1", "--epsilon", "1", "--config", "x.json"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: unrecognized arguments: --config x.json\nusage: bugsize")

    def test_fit_takes_no_epsilon_floor(self, capsys):
        # the sampler's probability floor is a constant, not an option
        code, out, err = run_cli(capsys, "fit", "--data", "x.csv", "--epsilon-floor", "1e-9")
        assert (code, out) == (1, "")
        assert err.startswith("error: unrecognized arguments: --epsilon-floor 1e-9\nusage: bugsize")


@pytest.fixture
def sample_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "cycle,defect_header,defect_id,size\n"
        "1,2,3,1\n1,5,6,3\n1,5,7,13\n"
        "2,13,31,2\n2,15,31,16\n"
    )
    return path


class TestIngest:
    def test_report_schema(self, capsys, sample_log):
        code, out, _ = run_cli(
            capsys, "ingest", "--data", str(sample_log), "--runs", "100,120"
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "ingest"
        assert report["seed"] == 0
        assert len(report["config_sha256"]) == 64
        assert report["phases"][0]["sizes"] == [1, 3, 13]
        assert report["phases"][1]["runs_cumulative"] == 220

    def test_table_format(self, capsys, sample_log):
        code, out, _ = run_cli(
            capsys,
            "ingest",
            "--data",
            str(sample_log),
            "--runs",
            "100,120",
            "--format",
            "table",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["phase", "runs_cumulative", "distinct_bugs", "sizes"]
        assert rows[1][0] == "1"

    def test_missing_runs(self, capsys, sample_log):
        code, _, err = run_cli(capsys, "ingest", "--data", str(sample_log))
        assert code == 1
        assert "--runs" in err

    def test_paper_scale_per_input_log(self, capsys, tmp_path):
        # 200 000 executed inputs over three phases, with tens of thousands
        # of defect rows per phase split over a few bugs each
        runs = (60_000, 64_000, 76_000)
        bug_sizes = (
            (6_000, 3_500, 2_000, 500),
            (5_000, 4_000, 1_500, 400, 100),
            (12_000, 9_000, 4_000, 2_000, 600, 400),
        )
        rng = np.random.default_rng(11)
        lines, expected_sizes, defect_id = ["cycle,result,defect_id"], [], 0
        for cycle, (phase_runs, sizes) in enumerate(zip(runs, bug_sizes), start=1):
            ids = np.arange(defect_id + 1, defect_id + len(sizes) + 1)
            defect_id += len(sizes)
            column = np.zeros(phase_runs, dtype=np.int64)
            column[: sum(sizes)] = np.repeat(ids, sizes)
            rng.shuffle(column)
            # the report lists a phase's sizes in the order the bugs first appear
            found, first = np.unique(column, return_index=True)
            size_of = dict(zip(ids.tolist(), sizes))
            expected_sizes.append([size_of[i] for i in found[np.argsort(first)].tolist() if i])
            text = {i: f"{cycle},fail,{i}" for i in ids.tolist()}
            text[0] = f"{cycle},pass,"
            lines += [text[i] for i in column.tolist()]
        log = tmp_path / "inputs.csv"
        log.write_text("\n".join(lines) + "\n")

        code, out, err = run_cli(capsys, "ingest", "--data", str(log), "--per-input")
        assert code == 0, err
        phases = json.loads(out)["phases"]
        assert [row["sizes"] for row in phases] == expected_sizes
        assert [row["runs_cumulative"] for row in phases] == np.cumsum(runs).tolist()


class TestFitPipeline:
    def fit_args(self, log_path, out_path, extra=()):
        return [
            "fit",
            "--data",
            str(log_path),
            "--runs",
            "40,90",
            "--iterations",
            "300",
            "--burn-in",
            "100",
            "--chains",
            "2",
            "--seed",
            "9",
            "--out",
            str(out_path),
            "--quiet",
            *extra,
        ]

    def test_fit_report_and_determinism(self, capsys, sample_log, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(self.fit_args(sample_log, out_a)) == 0
        assert run(self.fit_args(sample_log, out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["command"] == "fit"
        assert report["seed"] == 9
        row = report["per_phase"][0]
        assert set(row) == {"phase", "F_mean", "F_median", "F_ci_low", "F_ci_high", "r_hat", "ess"}
        assert report["chains"] == 2

    def test_draw_dump_row_count(self, capsys, sample_log, tmp_path):
        out = tmp_path / "fit.json"
        dump = tmp_path / "draws.csv"
        code = run(self.fit_args(sample_log, out, extra=["--dump-draws", str(dump)]))
        assert code == 0
        with dump.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        # (300 - 100) retained per chain x 2 chains x 2 phases
        assert len(rows) == 200 * 2 * 2
        assert {row["phase"] for row in rows} == {"1", "2"}

    def test_predict_and_decide_from_report(self, capsys, sample_log, tmp_path):
        out = tmp_path / "fit.json"
        assert run(self.fit_args(sample_log, out)) == 0
        code, predict_out, _ = run_cli(
            capsys, "predict", "--from-report", str(out), "--epsilon", "1"
        )
        assert code == 0
        report = json.loads(predict_out)
        totals = [row["F_mean"] for row in json.loads(out.read_text())["per_phase"]]
        assert report["predicted_next_total"] < totals[-1]
        assert report["decision"]["action"] in {"stop", "continue"}
        assert sum(report["weights"]) == pytest.approx(1.0)


    def test_empty_phase_rejected(self, capsys, sample_log, tmp_path):
        # phase 2 of three logs no defect; fitting without it would
        # re-index the negative-binomial chain
        log = tmp_path / "gap.csv"
        log.write_text(sample_log.read_text().replace("\n2,", "\n3,"))
        code, _, err = run_cli(
            capsys, "fit", "--data", str(log), "--runs", "40,50,60", "--iterations", "20",
            "--burn-in", "5",
        )
        assert code == 1
        assert "phase(s) 2" in err


class TestFitConfig:
    def fit(self, capsys, sample_log, tmp_path, config):
        path = tmp_path / "hyper.json"
        path.write_text(json.dumps(config))
        return run_cli(
            capsys, "fit", "--data", str(sample_log), "--runs", "40,90", "--iterations", "60",
            "--burn-in", "10", "--seed", "4", "--config", str(path),
        )

    def test_per_phase_lists_match_scalars(self, capsys, sample_log, tmp_path):
        scalar = {"a": 2.0, "b": 3.0}
        lists = {key: [[value] * 3, [value]] for key, value in scalar.items()}
        code, out_scalar, _ = self.fit(capsys, sample_log, tmp_path, scalar)
        assert code == 0
        code, out_lists, _ = self.fit(capsys, sample_log, tmp_path, lists)
        assert code == 0
        assert json.loads(out_lists)["per_phase"] == json.loads(out_scalar)["per_phase"]

    def test_per_phase_row_of_wrong_length(self, capsys, sample_log, tmp_path):
        code, _, err = self.fit(capsys, sample_log, tmp_path, {"a": [[1.0, 1.0], [1.0]]})
        assert code == 1
        assert "phase 1: expected 3 per-bug values" in err

    @pytest.mark.parametrize("key", ["du_bound", "proposal_rate"])
    def test_du_bound_is_unknown_key(self, capsys, sample_log, tmp_path, key):
        # the proposal rate is max(observed size, 1); no config sets it
        code, out, err = self.fit(capsys, sample_log, tmp_path, {key: 12})
        assert (code, out) == (1, "")
        assert err == f"error: config has unknown keys: ['{key}']\n"

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"a": {"x": 1}}, "'a' must be a number or a list of lists of numbers, got {\"x\": 1}"),
            (
                {"b": [[1, "y"], [1], [1]]},
                "'b' must be a number or a list of lists of numbers, got [[1, \"y\"], [1], [1]]",
            ),
            (
                {"mu": "x", "sigma2": 0.1},
                "'mu' must be a number or a list of numbers or null, got \"x\"",
            ),
        ],
        ids=["a-object", "b-string-in-row", "mu-string"],
    )
    def test_value_of_wrong_type_exits_1(self, capsys, sample_log, tmp_path, config, message):
        code, out, err = self.fit(capsys, sample_log, tmp_path, config)
        assert (code, out, err) == (1, "", f"error: config {message}\n")

    @pytest.mark.parametrize("key", ["mu", "sigma2"])
    def test_moment_list_of_wrong_length_exits_1(self, capsys, sample_log, tmp_path, key):
        config = {"mu": 0.5, "sigma2": 0.01, key: [0.5, 0.4, 0.3]}
        code, out, err = self.fit(capsys, sample_log, tmp_path, config)
        assert (code, out, err) == (1, "", f"error: config '{key}' lists 3 values for 2 phases\n")

    def test_hyper_seed_of_wrong_type_exits_1(self, capsys, sample_log, tmp_path):
        code, out, err = self.fit(capsys, sample_log, tmp_path, {"hyper_seed": "x"})
        assert (code, out) == (1, "")
        assert err == 'error: config \'hyper_seed\' must be an integer or null, got "x"\n'


class TestSimulateRoundTrip:
    def test_simulate_then_ingest(self, capsys, tmp_path):
        log_path = tmp_path / "sim.csv"
        truth_path = tmp_path / "truth.json"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--seed",
            "4",
            "--out",
            str(log_path),
            "--truth-out",
            str(truth_path),
        )
        assert code == 0
        sim_report = json.loads(out)
        truth = json.loads(truth_path.read_text())
        runs = ",".join(str(r) for r in truth["runs_per_phase"])
        code, out, _ = run_cli(capsys, "ingest", "--data", str(log_path), "--runs", runs)
        assert code == 0
        phases = json.loads(out)["phases"]
        for row, expected in zip(phases, truth["observed_sizes"]):
            assert sum(row["sizes"]) == sum(expected)
        assert sim_report["runs_per_phase"] == truth["runs_per_phase"]

    def test_simulate_large_trial_counts(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "phases": 2,
                    "bugs_per_phase": [3, 3],
                    "n_trials_range": [1030, 1030],
                    "t_range": [0.35, 0.85],
                    "p_true": [0.7, 0.7],
                }
            )
        )
        log_path = tmp_path / "sim.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(scenario), "--out", str(log_path)
        )
        assert code == 0, err
        assert json.loads(out)["phases"] == 2

    def test_simulate_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(capsys, "simulate", "--seed", "4", "--out", str(a))
        run_cli(capsys, "simulate", "--seed", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestBaselineCommand:
    def test_report(self, capsys, tmp_path):
        detections = tmp_path / "detections.csv"
        detections.write_text("phase,class,count\n1,1,5\n2,1,5\n")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "n_total": 10,
                    "p0": 0.5,
                    "delta": 0.3,
                    "q": [
                        {"q_detect": [0.5], "q_none": 0.5},
                        {"q_detect": [0.5], "q_none": 0.5},
                    ],
                }
            )
        )
        code, out, _ = run_cli(
            capsys,
            "baseline",
            "--detections",
            str(detections),
            "--config",
            str(config),
        )
        assert code == 0
        report = json.loads(out)
        assert report["stopping_phase"] == 2
        assert report["per_phase"][1]["p_no_fault_remaining"] == 1.0

    def test_missing_config_key(self, capsys, tmp_path):
        detections = tmp_path / "detections.csv"
        detections.write_text("phase,class,count\n1,1,5\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p0": 0.5, "delta": 0.3}))
        code, _, err = run_cli(
            capsys, "baseline", "--detections", str(detections), "--config", str(config)
        )
        assert code == 1
        assert "n_total" in err


class TestIngestBadInput:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("cycle,defect_header,defect_id,size\n1,x,7,13\n", "line 2: column 'defect_header'"),
            ("cycle,defect_id,size\n\n1,7," + "9" * 200_000 + "\n", "line 3: field larger"),
        ],
        ids=["defect_header", "oversized"],
    )
    def test_bad_cell_exits_1_with_line(self, capsys, tmp_path, text, message):
        log = tmp_path / "log.csv"
        log.write_text(text)
        code, out, err = run_cli(capsys, "ingest", "--data", str(log), "--runs", "5")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    def test_per_input_phase_without_runs_named(self, capsys, tmp_path):
        log = tmp_path / "inputs.csv"
        log.write_text("cycle,defect_id\n1,3\n1,\n3,4\n")
        code, _, err = run_cli(capsys, "ingest", "--data", str(log), "--per-input")
        assert code == 1
        assert "phase 2" in err


class TestDetectionTable:
    Q = {"q_detect": [0.5], "q_none": 0.5}

    def run_baseline(self, capsys, tmp_path, table, phases=2, q=None):
        detections = tmp_path / "detections.csv"
        detections.write_text(table)
        config = tmp_path / "config.json"
        q = [self.Q] * phases if q is None else q
        config.write_text(json.dumps({"n_total": 10, "p0": 0.5, "delta": 0.3, "q": q}))
        return run_cli(
            capsys, "baseline", "--detections", str(detections), "--config", str(config)
        )

    @pytest.mark.parametrize(
        "table",
        [" phase , Class,COUNT\n1,1,5\n2,1,5\n", "phase\tclass\tcount\n\n1\t1\t5\n2\t1\t5\n"],
    )
    def test_header_rules_shared(self, capsys, tmp_path, table):
        code, out, _ = self.run_baseline(capsys, tmp_path, table)
        assert code == 0
        _, plain, _ = self.run_baseline(capsys, tmp_path, "phase,class,count\n1,1,5\n2,1,5\n")
        report, plain_report = json.loads(out), json.loads(plain)
        for key in ("per_phase", "stopping_phase"):
            assert report[key] == plain_report[key]

    @pytest.mark.parametrize(
        "table, message",
        [
            ("phase,class,count\n1,1,5\n2,1,x\n", "line 3: column 'count'"),
            ("phase,class,count\n1,1,5\n2,1,5\n\n2,1,6\n", "line 5: phase 2, class 1"),
        ],
    )
    def test_bad_rows_exit_1_with_line(self, capsys, tmp_path, table, message):
        code, _, err = self.run_baseline(capsys, tmp_path, table)
        assert code == 1
        assert err.startswith(f"error: {message}")

    def test_q_longer_than_phases_rejected(self, capsys, tmp_path):
        code, _, err = self.run_baseline(capsys, tmp_path, "phase,class,count\n1,1,5\n", phases=2)
        assert code == 1
        assert "2 entries for 1 phases" in err

    @pytest.mark.parametrize(
        "q, message",
        [
            ({"q_detect": [0.5], "q_none": 0.5}, "config 'q' must be a list"),
            ([Q, [0.5, 0.5]], "config 'q' entry 2 must be an object, got [0.5, 0.5]"),
        ],
        ids=["object", "list-entry"],
    )
    def test_q_of_wrong_type_exits_1(self, capsys, tmp_path, q, message):
        table = "phase,class,count\n1,1,5\n2,1,5\n"
        code, out, err = self.run_baseline(capsys, tmp_path, table, q=q)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_total": [10]}, "config 'n_total' must be an integer, got [10]"),
            ({"n_total": 10.5}, "config 'n_total' must be an integer, got 10.5"),
            ({"n_total": True}, "config 'n_total' must be an integer, got true"),
            ({"p0": [0.5]}, "config 'p0' must be a number, got [0.5]"),
            ({"p0": "0.5"}, 'config \'p0\' must be a number, got "0.5"'),
            ({"delta": [0.3]}, "config 'delta' must be a number, got [0.3]"),
            (
                {"q": [{"q_detect": 0.5, "q_none": 0.5}]},
                "config 'q' entry 1 'q_detect' must be a list of numbers, got 0.5",
            ),
            (
                {"q": [{"q_detect": ["0.5"], "q_none": 0.5}]},
                "config 'q' entry 1 'q_detect' must be a list of numbers, got [\"0.5\"]",
            ),
            (
                {"q": [{"q_detect": [0.5], "q_none": [0.5]}]},
                "config 'q' entry 1 'q_none' must be a number, got [0.5]",
            ),
            ({"q": [{"q_detect": [0.5]}]}, "config 'q' entry 1 is missing keys: ['q_none']"),
        ],
        ids=[
            "n_total-list", "n_total-fraction", "n_total-bool", "p0-list", "p0-string",
            "delta-list", "q_detect-number", "q_detect-string", "q_none-list", "q_none-missing",
        ],
    )
    def test_config_value_of_wrong_type_exits_1(self, capsys, tmp_path, change, message):
        detections = tmp_path / "detections.csv"
        detections.write_text("phase,class,count\n1,1,5\n")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"n_total": 10, "p0": 0.5, "delta": 0.3, "q": [self.Q], **change})
        )
        code, out, err = run_cli(
            capsys, "baseline", "--detections", str(detections), "--config", str(config)
        )
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"



SCENARIO = {
    "phases": 2,
    "bugs_per_phase": [3, 3],
    "n_trials_range": [6, 14],
    "t_range": [0.35, 0.85],
    "p_true": [0.7, 0.7],
}


class TestScenarioValueTypes:
    """A scenario or comparison value of the wrong JSON type exits 1 with a
    message that names its key, instead of ending in a traceback."""

    def check(self, capsys, tmp_path, argv, document, message):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, "--scenario", str(scenario))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"phases": "2"}, 'scenario \'phases\' must be an integer, got "2"'),
            ({"bugs_per_phase": 3}, "scenario 'bugs_per_phase' must be a list of integers, got 3"),
            ({"n_trials_range": [6]}, "scenario 'n_trials_range' must be a list of 2 integers, got [6]"),
            (
                {"t_range": [0.3, 0.5, 0.8]},
                "scenario 't_range' must be a list of 2 numbers, got [0.3, 0.5, 0.8]",
            ),
        ],
        ids=["phases-string", "bugs_per_phase-number", "n_trials_range-short", "t_range-long"],
    )
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_scenario(self, capsys, tmp_path, command, change, message):
        self.check(capsys, tmp_path, [command], {**SCENARIO, **change}, message)

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_missing_keys(self, capsys, tmp_path, command):
        # no merging with the default scenario: a document names every key
        message = (
            "scenario is missing keys: "
            "['bugs_per_phase', 'n_trials_range', 't_range', 'p_true']"
        )
        self.check(capsys, tmp_path, [command], {"phases": 2}, message)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"iterations": "600"}, 'comparison \'iterations\' must be an integer, got "600"'),
            ({"q_detect": "x"}, 'comparison \'q_detect\' must be a number, got "x"'),
        ],
        ids=["iterations-string", "q_detect-string"],
    )
    def test_comparison(self, capsys, tmp_path, change, message):
        argv = ["compare", "--trials", "1"]
        self.check(capsys, tmp_path, argv, {"comparison": change}, message)


class TestConfigDocuments:
    """Every config document is read the same way: one that is not an
    object, an unknown key or a value of the wrong JSON type exits 1 with
    a message naming the key, instead of a traceback or a silent default."""

    @pytest.fixture
    def argv(self, sample_log, tmp_path):
        detections = tmp_path / "detections.csv"
        detections.write_text("phase,class,count\n1,1,5\n")
        data = ["--data", str(sample_log), "--runs", "40,90", "--iterations", "20", "--burn-in", "5"]
        return {
            "fit": ["fit", *data, "--config"],
            "predict": ["predict", "--totals", "10,4", "--bandwidth", "0.1", "--config"],
            "baseline": ["baseline", "--detections", str(detections), "--config"],
            "scenario": ["simulate", "--scenario"],
            "comparison": ["compare", "--trials", "1", "--scenario"],
        }

    BASELINE = {"n_total": 10, "p0": 0.5, "delta": 0.3, "q": [TestDetectionTable.Q]}

    @pytest.mark.parametrize(
        "kind, document, message",
        [
            ("fit", [1.0], "config must be an object, got [1.0]"),
            ("fit", {"c": 1.0}, "config has unknown keys: ['c']"),
            ("fit", {"hyper_seed": 1.5}, "config 'hyper_seed' must be an integer or null, got 1.5"),
            ("predict", [[0, 1], [1, 2]], "config must be an object, got [[0, 1], [1, 2]]"),
            ("predict", {"window": [[0, 1], [1, 2]]}, "config has unknown keys: ['window']"),
            (
                "predict",
                {"windows": 5},
                "config 'windows' must be a list of lists of 2 numbers or null, got 5",
            ),
            (
                "predict",
                {"windows": [[0, 1], [1, 2], [2]]},
                "config 'windows' must be a list of lists of 2 numbers or null, "
                "got [[0, 1], [1, 2], [2]]",
            ),
            (
                "predict",
                {"windows": [["a", 3], [3, 4]]},
                "config 'windows' must be a list of lists of 2 numbers or null, "
                "got [[\"a\", 3], [3, 4]]",
            ),
            ("baseline", "x", 'config must be an object, got "x"'),
            ("baseline", {**BASELINE, "n": 10}, "config has unknown keys: ['n']"),
            ("baseline", {**BASELINE, "delta": None}, "config 'delta' must be a number, got null"),
            (
                "baseline",
                {**BASELINE, "q": [{**TestDetectionTable.Q, "q_nnone": 0.5}]},
                "config 'q' entry 1 has unknown keys: ['q_nnone']",
            ),
            ("scenario", None, "scenario must be an object, got null"),
            ("scenario", {**SCENARIO, "bogus": 2}, "scenario has unknown keys: ['bogus']"),
            (
                "scenario",
                {**SCENARIO, "p_true": [0.7, None]},
                "scenario 'p_true' must be a list of numbers, got [0.7, null]",
            ),
            ("comparison", {"comparison": 5}, "comparison must be an object, got 5"),
            ("comparison", {"comparison": {"bogus": 1}}, "comparison has unknown keys: ['bogus']"),
            (
                "comparison",
                {"comparison": {"chains": True}},
                "comparison 'chains' must be an integer, got true",
            ),
        ],
        ids=[
            "fit-list", "fit-unknown", "fit-hyper_seed-fraction",
            "predict-list", "predict-window-typo", "predict-windows-number",
            "predict-windows-short-pair", "predict-windows-string",
            "baseline-string", "baseline-unknown", "baseline-delta-null", "baseline-q-unknown",
            "scenario-null", "scenario-unknown", "scenario-p_true-null",
            "comparison-number", "comparison-unknown", "comparison-chains-bool",
        ],
    )
    def test_bad_document_exits_1(self, capsys, tmp_path, argv, kind, document, message):
        path = tmp_path / "document.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv[kind], str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_window_count_named(self, capsys, argv, tmp_path):
        path = tmp_path / "document.json"
        path.write_text(json.dumps({"windows": [[0, 1], [1, 2], [2, 3]]}))
        code, out, err = run_cli(capsys, *argv["predict"], str(path))
        message = "error: need one window per total: 3 windows for 2 totals\n"
        assert (code, out, err) == (1, "", message)


class TestReportEnvelope:
    """Every report opens with the command, the seed and the config hash."""

    @pytest.fixture
    def argv(self, request, sample_log, tmp_path):
        detections = tmp_path / "detections.csv"
        detections.write_text("phase,class,count\n1,1,5\n")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"n_total": 10, "p0": 0.5, "delta": 0.3, "q": [TestDetectionTable.Q]})
        )
        data = ["--data", str(sample_log), "--runs", "40,90"]
        return {
            "ingest": ["ingest", *data],
            "fit": ["fit", *data, "--iterations", "60", "--burn-in", "10", "--chains", "1"],
            "predict": ["predict", "--totals", "10,4", "--bandwidth", "0.1"],
            "decide": ["decide", "--totals", "10,4", "--epsilon", "1"],
            "baseline": ["baseline", "--detections", str(detections), "--config", str(config)],
            "compare": ["compare", "--trials", "1"],
            "simulate": ["simulate", "--out", str(tmp_path / "log.csv")],
        }[request.param]

    @pytest.mark.parametrize(
        "argv", ["ingest", "fit", "predict", "decide", "baseline", "compare", "simulate"],
        indirect=True,
    )
    def test_first_keys(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "5")
        assert code == 0, err
        report = json.loads(out)
        assert list(report)[:3] == ["command", "seed", "config_sha256"]
        assert (report["command"], report["seed"]) == (argv[0], 5)
        assert len(report["config_sha256"]) == 64

class TestPredictFromTotals:
    def test_fixed_bandwidth(self, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--totals", "10,4", "--bandwidth", "0.1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["h_selected"] == 0.1
        assert 3.8 < report["predicted_next_total"] < 4.0

    # Reports computed with numpy arrays throughout; the standard-library
    # predictor must repeat them to the last bit.  Ten totals take the
    # numpy path of every sum of eight or more terms.
    @pytest.mark.parametrize(
        "totals, expected",
        [
            (
                "34007,36157,57738,11409",
                {
                    "predicted_next_total": 5837.531719586285,
                    "predicted_median": 5903.236711442694,
                    "predicted_mode": 11403.42919921875,
                    "h_selected": 30424.294477522537,
                    "weights": [
                        0.032058603280084995,
                        0.08714431874203257,
                        0.23688281808991016,
                        0.6439142598879724,
                    ],
                    "truncated_mass": 0.15106445879659353,
                },
            ),
            (
                "34007,36157,57738,11409,9000,8000,7000,6000,5000,4000",
                {
                    "predicted_next_total": 2312.9166603579097,
                    "predicted_median": 2440.860482517698,
                    "predicted_mode": 3998.046875,
                    "h_selected": 3062.443384130371,
                    "weights": [
                        7.801341612780744e-05,
                        0.00021206245143623275,
                        0.0005764455082375902,
                        0.0015669413501390804,
                        0.004259388198344144,
                        0.0115782175399118,
                        0.03147285834468804,
                        0.08555209892803112,
                        0.23255471590259755,
                        0.6321492583604866,
                    ],
                    "truncated_mass": 0.3849173390680804,
                },
            ),
        ],
        ids=["table", "ten-phases"],
    )
    def test_report_pinned(self, capsys, totals, expected):
        code, out, _ = run_cli(capsys, "predict", "--totals", totals, "--epsilon", "1")
        assert code == 0
        report = json.loads(out)
        assert {key: report[key] for key in expected} == expected
        assert report["decision"] == {"action": "continue", "stop_after_phase": None}


class TestNonFinite:
    """NaN and infinity exit 1 naming the flag or field, instead of
    reaching a report as `NaN` or `Infinity`, which are not JSON."""

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            (["predict", "--totals", "nan,3"], {}, "--totals must list finite numbers, got nan,3"),
            (["predict", "--totals", "3,inf"], {}, "--totals must list finite numbers, got 3,inf"),
            (["decide", "--totals", "3,-inf", "--epsilon", "1"], {},
             "--totals must list finite numbers, got 3,-inf"),
            (["predict", "--totals", "3,2", "--bandwidth", "nan"], {}, "bandwidth must be finite, got nan"),
            (["predict", "--totals", "3,2", "--cv-grid", "nan,1"], {},
             "--cv-grid must list finite numbers, got nan,1"),
            (["predict", "--totals", "3,2", "--temporal-rate", "nan"], {},
             "temporal_rate must be finite, got nan"),
            (["predict", "--totals", "3,2", "--epsilon", "inf"], {}, "epsilon must be finite, got inf"),
            (["decide", "--totals", "3,2", "--epsilon", "nan"], {}, "epsilon must be finite, got nan"),
            (["predict", "--from-report", "{fit}"], {"fit": '{"per_phase": [{"F_mean": NaN}]}'},
             "{fit} 'F_mean' must be a finite number, got nan"),
            (["decide", "--from-report", "{fit}", "--epsilon", "1"],
             {"fit": '{"totals": [3, 2], "predicted_next_total": Infinity}'},
             "{fit} 'predicted_next_total' must be a finite number, got inf"),
            (["decide", "--from-report", "{fit}", "--epsilon", "1"], {"fit": '{"totals": [3, -Infinity]}'},
             "{fit} 'totals' entry must be a finite number, got -inf"),
            (["predict", "--totals", "3,2", "--draws", "{draws}"],
             {"draws": "iteration,chain,phase,F\n1,0,1,3\n1,0,2,nan\n"},
             "{draws} 'F' must hold finite numbers"),
            (["predict", "--totals", "3,2", "--config", "{windows}"],
             {"windows": '{"windows": [[0, 1], [1, Infinity]]}'},
             "config 'windows' must be a list of lists of 2 numbers or null, got [[0, 1], [1, Infinity]]"),
            (["predict", "--totals", "1e200,1e100,1e150"], {},
             "the reference bandwidth of these totals overflows to inf; set a fixed --bandwidth"),
            (["predict", "--totals", "1e308,1e300"], {},
             "the reference bandwidth of these totals overflows to inf; set a fixed --bandwidth"),
            (["fit", "--data", "{log}", "--runs", "40,90", "--config", "{hyper}"],
             {"log": "cycle,defect_header,defect_id,size\n1,2,3,1\n2,13,31,2\n", "hyper": '{"a": NaN}'},
             "config 'a' must be a number or a list of lists of numbers, got NaN"),
        ],
        ids=[
            "totals-nan", "totals-inf", "decide-totals-inf", "bandwidth-nan", "cv-grid-nan",
            "temporal-rate-nan", "predict-epsilon-inf", "decide-epsilon-nan", "report-F_mean",
            "report-predicted", "report-totals", "draws-F", "config-window", "bandwidth-overflow",
            "bandwidth-overflow-max", "fit-config",
        ],
    )
    def test_exits_1(self, capsys, tmp_path, argv, files, message):
        paths = {name: str(tmp_path / name) for name in files}
        for name, text in files.items():
            Path(paths[name]).write_text(text)
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out, err) == (1, "", f"error: {message.format(**paths)}\n")


class TestNegativeSeed:
    """numpy seeds only from non-negative integers; a negative seed exits 1
    naming the flag or key, not with numpy's own message."""

    @pytest.mark.parametrize(
        "command", ["ingest", "fit", "predict", "decide", "baseline", "compare", "simulate"]
    )
    def test_flag_rejected_at_parsing(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.startswith(
            "error: argument --seed: must be a non-negative integer, got '-1'\nusage: bugsize"
        )

    def test_hyper_seed(self, capsys, sample_log, tmp_path):
        config = tmp_path / "hyper.json"
        config.write_text('{"hyper_seed": -3}')
        code, out, err = run_cli(
            capsys, "fit", "--data", str(sample_log), "--runs", "40,90", "--config", str(config)
        )
        assert (code, out, err) == (
            1, "", "error: config 'hyper_seed' must be a non-negative integer, got -3\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_scenario_seed(self, capsys, tmp_path, command):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**SCENARIO, "seed": -4}))
        code, out, err = run_cli(capsys, command, "--scenario", str(scenario))
        assert (code, out, err) == (
            1, "", "error: scenario 'seed' must be a non-negative integer, got -4\n"
        )


class TestExitCodes:
    def test_unwritable_out_path_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "decide",
            "--totals",
            "5,0.1",
            "--epsilon",
            "1",
            "--out",
            str(tmp_path / "missing-dir" / "report.json"),
        )
        assert code == 2
        assert "error" in err


class TestInputsUntouched:
    def test_fit_does_not_mutate_inputs(self, capsys, sample_log, tmp_path):
        before = sample_log.read_bytes()
        out = tmp_path / "fit.json"
        code = run(
            [
                "fit", "--data", str(sample_log), "--runs", "40,90",
                "--iterations", "60", "--burn-in", "10", "--chains", "1",
                "--out", str(out), "--quiet",
            ]
        )
        assert code == 0
        assert sample_log.read_bytes() == before


class TestCompareCommand:
    def test_compare_reproducible(self, capsys):
        code, out_a, _ = run_cli(capsys, "compare", "--trials", "3", "--seed", "21")
        assert code == 0
        code, out_b, _ = run_cli(capsys, "compare", "--trials", "3", "--seed", "21")
        assert code == 0
        assert out_a == out_b
        report = json.loads(out_a)
        assert 0.0 <= report["win_fraction"] <= 1.0


def _modules_loaded(snippet, *argv):
    """Run `snippet` in a fresh interpreter and report whether numpy and
    scipy were imported by the time it finished."""
    src = str(Path(bugsize.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = snippet + "\nimport sys\nprint('numpy' in sys.modules, 'scipy' in sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
        check=True,
    )
    numpy_loaded, scipy_loaded = done.stdout.split()[-2:]
    return numpy_loaded == "True", scipy_loaded == "True"


RUN_CLI = "import sys\nfrom bugsize.cli import run\nassert run(sys.argv[1:]) == 0"


class TestImportHygiene:
    def test_bare_import_loads_neither(self):
        assert _modules_loaded("import bugsize") == (False, False)
        # a submodule reached as a package attribute is imported on demand
        snippet = "import bugsize\nassert bugsize.decision.decide_stop([2, 0], 1).should_stop"
        assert _modules_loaded(snippet) == (False, False)

    @pytest.mark.parametrize("command", ["ingest", "decide"])
    def test_ingest_and_decide_skip_numpy(self, command, sample_log, tmp_path):
        if command == "ingest":
            argv = ["ingest", "--data", str(sample_log), "--runs", "100,120"]
        else:
            argv = ["decide", "--totals", TABLE_TOTALS, "--epsilon", "1"]
        argv += ["--out", str(tmp_path / "report.json"), "--quiet"]
        assert _modules_loaded(RUN_CLI, *argv) == (False, False)

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_simulate_and_compare_skip_scipy(self, command, tmp_path):
        if command == "simulate":
            argv = ["simulate", "--out", str(tmp_path / "log.csv"), "--quiet"]
        else:
            argv = ["compare", "--trials", "1", "--out", str(tmp_path / "report.json"), "--quiet"]
        assert _modules_loaded(RUN_CLI, *argv) == (True, False)

    def test_fit_and_predict_skip_scipy(self, sample_log, tmp_path):
        report, draws = tmp_path / "fit.json", tmp_path / "draws.csv"
        fit = [
            "fit", "--data", str(sample_log), "--runs", "40,90", "--iterations", "60",
            "--burn-in", "10", "--chains", "1", "--dump-draws", str(draws),
            "--out", str(report), "--quiet",
        ]
        assert _modules_loaded(RUN_CLI, *fit) == (True, False)
        predict = [
            "predict", "--from-report", str(report), "--epsilon", "1",
            "--out", str(tmp_path / "predict.json"), "--quiet",
        ]
        # a prediction from a handful of totals runs on the standard library
        assert _modules_loaded(RUN_CLI, *predict) == (False, False)
        assert _modules_loaded(RUN_CLI, *predict, "--bandwidth", "2.0") == (False, False)
        # cross-validation over the posterior draws uses numpy
        assert _modules_loaded(RUN_CLI, *predict, "--draws", str(draws)) == (True, False)

    def test_every_export_resolves(self):
        for name in bugsize.__all__:
            assert getattr(bugsize, name).__module__.startswith("bugsize.")
        from bugsize import run_chain

        assert run_chain is bugsize.sampler.run_chain
        assert bugsize.decide_stop is bugsize.predictor.decide_stop

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bugsize.no_such_name


def _reference_jsonable(value):
    """The conversion by explicit numpy type checks that `_jsonable`'s
    duck-typed `.tolist()` replaced."""
    if isinstance(value, dict):
        return {key: _reference_jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_reference_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


@pytest.mark.parametrize(
    "value",
    [
        np.float64(0.1),
        np.float64(-3.0e-300),
        np.int64(2**40),
        np.bool_(True),
        np.array([0.5, 1.0, 2.5]),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        {"weights": np.array([0.25, 0.75]), "pair": (np.int64(3), np.array([True, False]))},
        ({"nested": [np.float64(1.5), None]}, "text"),
        {"a": 1, "b": 2.5, "c": [True, None, "x"], "d": (1, 2)},
        7,
        None,
        "plain",
    ],
)
def test_jsonable_matches_explicit_conversion(value):
    assert json.dumps(_jsonable(value)) == json.dumps(_reference_jsonable(value))
