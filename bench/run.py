"""Benchmark of the bugsize command-line pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from anywhere inside a checkout; the package is read from ``src/`` next
to this directory.  The workload's inputs are generated from ``--seed`` into
``.bench_work/`` at the checkout root.  Each round runs the workload's CLI
commands in order and then checks their outputs; rounds repeat, at least
MIN_ROUNDS of them, while the longest round so far still fits in
``--seconds``.

``--trace 0`` starts one CLI subprocess per command, as a user would, and
reports the end-to-end metrics as medians over rounds.  ``--trace 1`` calls
``bugsize.cli.run`` in-process with the package's functions wrapped by
``tracer.Tracer`` and reports the per-layer metrics; its spans go to
``.bench_work/trace-<workload>.jsonl``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--toy`` shrinks every workload so a round takes seconds; ``--self-check``
runs each workload at toy size in both modes and checks the printed metric
names and units against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CLI_BOOT = "from bugsize.cli import main; main()"
WORKLOADS = ("wide-fit", "paper-scale")
EPSILON = 1.0
CHAINS = 2
MIN_ROUNDS = 3
TOY_MIN_ROUNDS = 2
SETUPS = 5
START_SAMPLES = 5
COMMAND_TIMEOUT_S = 120
# Bandwidth grid for the paper-scale prediction, passed with --cv-grid so the
# benchmark can recompute the LSCV minimiser over the same grid.
CV_GRID = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


@dataclass(frozen=True)
class Settings:
    iterations: int
    burn_in: int
    workers: int
    trials: int


# wide-fit: 2 chains on 2 workers over 125 bugs; the fit takes most of a round.
# paper-scale: 300 retained draws per chain, so predict --draws cross-validates
#   the bandwidth over 1800 pooled draws.
# Every round ends with a 2-trial `compare`: many short single-chain fits,
# where per-fit set-up, simulation and evidence costs weigh.  Rounds are kept
# short (5.5-7 s) so that a run's medians rest on 7-10 rounds: the host's
# speed drifts, and a median over few rounds follows the drift.
SETTINGS = {
    "wide-fit": Settings(iterations=30, burn_in=8, workers=2, trials=2),
    "paper-scale": Settings(iterations=400, burn_in=100, workers=1, trials=2),
}
TOY_SETTINGS = {
    "wide-fit": Settings(iterations=30, burn_in=10, workers=2, trials=1),
    "paper-scale": Settings(iterations=60, burn_in=20, workers=1, trials=1),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "fit_s": "s",
    "ingest_s": "s",
    "predict_s": "s",
    "compare_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.start_s": "s",
    "cli.self_s": "s",
    "ingest.parse_s": "s",
    "ingest.rows_per_s": "rows/s",
    "ingest.summarize_s": "s",
    "model.kernel_calls": "count",
    "model.kernel_calls_per_update": "ratio",
    "model.kernel_us": "us/call",
    "model.resolve_s": "s",
    "model.loglik_s": "s",
    "sampler.run_chain_s": "s",
    "sampler.mh_updates": "count",
    "sampler.mh_updates_per_s": "1/s",
    "sampler.mh_update_us": "us/call",
    "sampler.mh_accept_ratio": "ratio",
    "sampler.gibbs_updates_per_s": "1/s",
    "sampler.init_state_s": "s",
    "sampler.diagnostics_s": "s",
    "sampler.ess_min": "draws",
    "sampler.ess_per_s": "1/s",
    "predictor.select_bandwidth_s": "s",
    "predictor.cv_score_calls": "count",
    "predictor.predict_self_s": "s",
    "simulator.generate_s": "s",
    "baseline.trial_s": "s",
    "baseline.log_evidence_s": "s",
    "baseline.trials_skipped": "count",
}


class Plan:
    """One workload's generated inputs and its CLI command sequence."""

    def __init__(self, workload: str, seed: int, work: Path, toy: bool):
        self.settings = (TOY_SETTINGS if toy else SETTINGS)[workload]
        self.work = work
        s = self.settings
        log_path = self.path("log.csv")
        if workload == "paper-scale":
            log = inputs.paper_log(seed, toy)
            data_args = ["--data", log_path, "--per-input"]
        else:
            log = inputs.wide_log(seed, toy)
            data_args = ["--data", log_path, "--runs", log.runs_arg]
        Path(log_path).write_text(log.text, encoding="utf-8")
        self.runs, self.sizes = log.runs, log.sizes

        fit = ["fit", *data_args, "--chains", str(CHAINS), "--iterations", str(s.iterations),
               "--burn-in", str(s.burn_in), "--workers", str(s.workers), "--seed", str(seed)]
        predict = ["predict", "--from-report", self.path("fit.json"), "--epsilon", str(EPSILON)]
        self.draws = None
        if workload == "paper-scale":
            self.draws = self.path("draws.csv")
            fit += ["--dump-draws", self.draws]
            predict += ["--draws", self.draws, "--cv-grid", ",".join(str(h) for h in CV_GRID)]
        self.data_steps = [
            ("ingest", ["ingest", *data_args]),
            ("fit", fit),
            ("predict", predict),
            ("decide", ["decide", "--from-report", self.path("predict.json"),
                        "--epsilon", str(EPSILON)]),
        ]

    def steps(self, round_index: int) -> list[tuple[str, list[str]]]:
        """The commands of one round.  `compare` simulates fresh trials in
        each round, seeded by the round index alone: the median over rounds
        does not hang on the cost of a few scenarios, and every run meets
        the same scenarios in the same order, whatever its seed."""
        compare = ["compare", "--trials", str(self.settings.trials),
                   "--seed", str(round_index)]
        return [
            (stage, args + ["--out", self.path(f"{stage}.json"), "--quiet"])
            for stage, args in self.data_steps + [("compare", compare)]
        ]

    def path(self, name: str) -> str:
        return str(self.work / name)

    def report(self, stage: str) -> dict:
        return json.loads(Path(self.path(f"{stage}.json")).read_text(encoding="utf-8"))

    def check_round(self, first_fit: bytes | None) -> list[str]:
        """Checks on one round's outputs; `first_fit` is the first round's
        fit report, which every later round at the same seed must repeat."""
        s = self.settings
        fit = self.report("fit")
        predict = self.report("predict")
        errors = checks.ingest_report(self.report("ingest"), self.sizes, self.runs)
        errors += checks.fit_report(fit, self.sizes, CHAINS, s.iterations, s.burn_in)
        errors += checks.predict_report(predict, fit)
        errors += checks.decide_report(self.report("decide"), predict, EPSILON)
        errors += checks.compare_report(self.report("compare"), s.trials)
        if self.draws is not None:
            draws = checks.read_draws(self.draws)
            errors += checks.draw_dump(draws, fit, CHAINS, s.iterations - s.burn_in)
        fit_bytes = Path(self.path("fit.json")).read_bytes()
        if first_fit is not None and fit_bytes != first_fit:
            errors.append("fit: report differs from the first round's at the same seed")
        return errors

    def check_once(self) -> list[str]:
        """The costly check, made once per run: h_selected minimises LSCV."""
        if self.draws is None:
            return []
        samples = checks.read_draws(self.draws)[:, 2]
        return checks.bandwidth_choice(self.report("predict"), samples, CV_GRID)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    returncode: int


def run_cli(args: list[str], work: Path) -> Child:
    """Run one CLI command in a subprocess; peak RSS is the child's own,
    read from wait4, so an earlier larger child does not carry over."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(work / "child.out", "wb") as out, open(work / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_BOOT, *args], cwd=work, env=env, stdout=out, stderr=err
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; record its status so Popen never waits for it
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        message = (work / "child.err").read_text(encoding="utf-8", errors="replace").strip()
        print(f"command failed ({proc.returncode}): {args[0]}: {message}", file=sys.stderr)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def start_probe(work: Path) -> Child:
    """A trivial command: its wall time is the CLI's start-up cost."""
    return run_cli(["decide", "--totals", "3,2,1", "--epsilon", "1", "--out",
                    str(work / "probe.json"), "--quiet"], work)


class Tally:
    """Operations attempted and failed, and check failures, over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_fit: bytes | None = None

    def round_done(self, plan: Plan, returncodes: list[int]) -> bool:
        """Count a round; check its outputs when every command succeeded."""
        commands = len(plan.data_steps) + 1
        self.attempted += commands
        failed = sum(1 for rc in returncodes if rc != 0) + commands - len(returncodes)
        self.failed += failed
        if failed:
            return False
        self.errors += plan.check_round(self.first_fit)
        if self.first_fit is None:
            self.first_fit = Path(plan.path("fit.json")).read_bytes()
        return True


def setup(workload: str, seed: int, work: Path, toy: bool) -> tuple[Plan, list[float]]:
    """Generate the inputs and start the CLI once, SETUPS times; the last
    plan is used.  Returns the plan and each set-up's wall time."""
    times = []
    plan = None
    for _ in range(SETUPS):
        start = time.perf_counter()
        plan = Plan(workload, seed, work, toy)
        probe = start_probe(work)
        times.append(time.perf_counter() - start)
        if probe.returncode != 0:
            raise RuntimeError("the CLI does not start")
    return plan, times


class Clock:
    """Decides whether to start another round: at least the minimum count,
    then only while the longest round so far still fits in the run."""

    def __init__(self, seconds: float, toy: bool):
        self.seconds = seconds
        self.minimum = TOY_MIN_ROUNDS if toy else MIN_ROUNDS
        self.rounds = 0
        self.longest = 0.0
        self.started = self.last = time.perf_counter()

    def another(self) -> bool:
        now = time.perf_counter()
        self.longest, self.last = max(self.longest, now - self.last), now
        if self.rounds < self.minimum or now - self.started + self.longest <= self.seconds:
            self.rounds += 1
            return True
        return False


def measure(plan: Plan, seconds: float, toy: bool, tally: Tally) -> list[dict[str, float]]:
    """Untraced rounds, one subprocess per command."""
    per_round = []
    clock = Clock(seconds, toy)
    while clock.another():
        children: dict[str, Child] = {}
        for stage, args in plan.steps(clock.rounds):
            child = run_cli(args, plan.work)
            children[stage] = child
            if child.returncode != 0:
                break
        if not tally.round_done(plan, [c.returncode for c in children.values()]):
            continue
        scored = plan.report("compare")["scored_trials"]
        per_round.append(
            {
                "pipeline_s": sum(c.wall_s for c in children.values()),
                "fit_s": children["fit"].wall_s,
                "ingest_s": children["ingest"].wall_s,
                "predict_s": children["predict"].wall_s,
                "compare_trials_per_s": scored / children["compare"].wall_s,
                "peak_rss_mb": max(c.rss_mb for c in children.values()),
            }
        )
    return per_round


# Functions traced, by the module whose namespace the caller reads them from.
# The CLI reads ingest_mod.*, model_mod.*, sampler_mod.*, predictor_mod.* and
# baseline_mod.* as module attributes; the sampler, predictor, baseline and
# simulator read their collaborators as module globals.
TRACED = {
    "cli": ("run",),
    "ingest": ("parse_test_log", "parse_input_log", "summarize_phases"),
    "model": ("build_hyperparams",),
    "sampler": (
        "run_chain", "resolve_for_data", "init_state", "sample_n_trials", "mh_update_S",
        "mh_log_alpha", "log_posterior_S_kernel", "gibbs_update_t", "gibbs_update_p",
        "log_likelihood", "diagnostics", "split_r_hat", "effective_sample_size",
    ),
    "predictor": (
        "events_from_totals", "temporal_weights", "predict_next_total", "select_bandwidth",
        "cv_score", "kde_density", "decide_stop",
    ),
    "baseline": (
        "compare_models", "generate", "summarize_phases", "flat_hyperparams", "run_chain",
        "initial_state", "baseline_update", "phase_log_evidence",
    ),
    "simulator": ("binomial_pmf", "size_biased_pmf"),
}
# Span notes: rows parsed, and whether an MH proposal was accepted.
NOTES = {
    "ingest.parse_test_log": len,
    "ingest.parse_input_log": lambda result: sum(result[1]),
    "sampler.mh_update_S": lambda result: int(result[1]),
}


def install(tracer: tracing.Tracer):
    import importlib

    for module, names in TRACED.items():
        namespace = importlib.import_module(f"bugsize.{module}")
        for name in names:
            tracer.wrap(namespace, name, NOTES.get(f"{module}.{name}"))


def in_process_round(plan: Plan) -> tuple[list[int], dict[str, float]]:
    """One round through `bugsize.cli.run`.  Every traced round repeats the
    first round's commands, so per-round counts repeat exactly."""
    from bugsize import cli

    returncodes, walls = [], {}
    for stage, args in plan.steps(1):
        start = time.perf_counter()
        returncodes.append(cli.run(args))
        walls[stage] = time.perf_counter() - start
        if returncodes[-1] != 0:
            break
    return returncodes, walls


def layer_metrics(spans: list[tuple], plan: Plan, walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    The MH, kernel, Gibbs, likelihood and diagnostics metrics count only the
    spans under the `fit` command's `sampler.run_chain`, not those of the
    short fits inside `compare`, so they describe the workload's own fit.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[tracing.NAME]].append(span)
        children[span[tracing.PARENT]].append(span)
    in_fit = defaultdict(list)
    pending = [s[tracing.ID] for s in by_name["sampler.run_chain"]]
    while pending:
        for child in children[pending.pop()]:
            in_fit[child[tracing.NAME]].append(child)
            pending.append(child[tracing.ID])

    def seconds(*names, spans=by_name):
        return sum(s[tracing.END] - s[tracing.START] for n in names for s in spans[n]) / 1e9

    def count(*names, spans=by_name):
        return sum(len(spans[n]) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    selfs = tracing.self_times(spans)
    parse = ("ingest.parse_test_log", "ingest.parse_input_log")
    mh, kernel = "sampler.mh_update_S", "sampler.log_posterior_S_kernel"
    gibbs = ("sampler.gibbs_update_t", "sampler.gibbs_update_p")
    predict_self = sum(
        s[tracing.END] - s[tracing.START]
        - sum(c[tracing.END] - c[tracing.START] for c in children[s[tracing.ID]]
              if c[tracing.NAME] == "predictor.select_bandwidth")
        for s in by_name["predictor.predict_next_total"]
    ) / 1e9
    ess_min = min(row["ess"] for row in plan.report("fit")["per_phase"])
    compare = plan.report("compare")
    generate = by_name["baseline.generate"]
    return {
        "cli.self_s": sum(selfs[s[tracing.ID]] for s in by_name["cli.run"]) / 1e9,
        "ingest.parse_s": seconds(*parse),
        "ingest.rows_per_s": ratio(sum(s[tracing.NOTE] or 0 for n in parse for s in by_name[n]),
                                   seconds(*parse)),
        "ingest.summarize_s": seconds("ingest.summarize_phases"),
        "model.kernel_calls": count(kernel, spans=in_fit),
        "model.kernel_calls_per_update": ratio(count(kernel, spans=in_fit),
                                               count(mh, spans=in_fit)),
        "model.kernel_us": ratio(seconds(kernel, spans=in_fit) * 1e6, count(kernel, spans=in_fit)),
        "model.resolve_s": seconds("model.build_hyperparams", "sampler.resolve_for_data",
                                   "baseline.flat_hyperparams"),
        "model.loglik_s": seconds("sampler.log_likelihood", spans=in_fit),
        "sampler.run_chain_s": seconds("sampler.run_chain"),
        "sampler.mh_updates": count(mh, spans=in_fit),
        "sampler.mh_updates_per_s": ratio(count(mh, spans=in_fit), seconds(mh, spans=in_fit)),
        "sampler.mh_update_us": ratio(seconds(mh, spans=in_fit) * 1e6, count(mh, spans=in_fit)),
        "sampler.mh_accept_ratio": ratio(sum(s[tracing.NOTE] for s in in_fit[mh]),
                                         count(mh, spans=in_fit)),
        "sampler.gibbs_updates_per_s": ratio(count(*gibbs, spans=in_fit),
                                             seconds(*gibbs, spans=in_fit)),
        "sampler.init_state_s": seconds("sampler.init_state"),
        "sampler.diagnostics_s": seconds("sampler.diagnostics", spans=in_fit),
        "sampler.ess_min": ess_min,
        "sampler.ess_per_s": ess_min / walls["fit"],
        "predictor.select_bandwidth_s": seconds("predictor.select_bandwidth"),
        "predictor.cv_score_calls": count("predictor.cv_score"),
        "predictor.predict_self_s": predict_self,
        "simulator.generate_s": ratio(seconds("baseline.generate"), len(generate)),
        "baseline.trial_s": seconds("baseline.compare_models") / compare["trials"],
        "baseline.log_evidence_s": seconds("baseline.phase_log_evidence"),
        "baseline.trials_skipped": compare["skipped_trials"],
    }


def layer_self_seconds(spans: list[tuple]) -> dict[str, float]:
    selfs = tracing.self_times(spans)
    out = defaultdict(float)
    for span in spans:
        out[span[tracing.LAYER]] += selfs[span[tracing.ID]] / 1e9
    return out


def measure_traced(plan: Plan, seconds: float, toy: bool, tally: Tally, trace_path: Path):
    """Pairs of in-process rounds, one traced and one untraced; the ratio of
    their median pipeline times is the tracing overhead."""
    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer()
    rounds, per_round, traced, untraced = [], [], [], []
    clock = Clock(seconds, toy)
    while clock.another():
        install(tracer)
        try:
            returncodes, walls = in_process_round(plan)
        finally:
            tracer.remove()
        rounds.append(tracer.take())
        if tally.round_done(plan, returncodes):
            per_round.append(layer_metrics(rounds[-1], plan, walls))
            traced.append(sum(walls.values()))
        returncodes, walls = in_process_round(plan)
        if tally.round_done(plan, returncodes):
            untraced.append(sum(walls.values()))
    tracing.write_jsonl(trace_path, rounds)

    self_totals = defaultdict(float)
    for spans in rounds:
        for layer, value in layer_self_seconds(spans).items():
            self_totals[layer] += value / len(rounds)
    print("self time per layer, per round (thread-summed):")
    for layer, value in sorted(self_totals.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {value:10.4f} s")
    if traced and untraced:
        on, off = statistics.median(traced), statistics.median(untraced)
        print(f"in-process pipeline medians: traced {on:.4f} s, untraced {off:.4f} s, "
              f"tracing overhead {100.0 * (on / off - 1.0):+.1f}%")
    print(f"spans: {sum(len(r) for r in rounds)} written to {trace_path}")
    return per_round


def medians(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool) -> int:
    if not (SRC / "bugsize" / "cli.py").is_file():
        print(f"error: no bugsize package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    work.mkdir()
    try:
        plan, setup_times = setup(workload, seed, work, toy)
        tally = Tally()
        if trace:
            starts = [start_probe(work).wall_s for _ in range(START_SAMPLES)]
            trace_path = WORK / f"trace-{workload}.jsonl"
            per_round = measure_traced(plan, seconds, toy, tally, trace_path)
            units = PER_LAYER_UNITS
        else:
            per_round = measure(plan, seconds, toy, tally)
            units = END_TO_END_UNITS
        if not per_round:
            print("error: no round completed", file=sys.stderr)
            return 1
        tally.errors += plan.check_once()
        values = medians(per_round)
        if trace:
            values["cli.start_s"] = statistics.median(starts)
        else:
            values["setup_s"] = statistics.median(setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{workload}: seed {seed}, {len(per_round)} rounds, medians:")
    for name, unit in units.items():
        rounds = " ".join(f"{r[name]:.4g}" for r in per_round) if name in per_round[0] else ""
        print(f"  {name:<32} {values[name]:14.6g} {unit:<8} {rounds}")
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """Run every workload at toy size in both modes; the printed metrics must
    match BENCHMARK.json by name and unit, every output must pass its
    checks, and the traced counts must repeat between two traced runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {done.stderr.strip()} {result}")
            if {k: v["unit"] for k, v in metrics.items()} != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            if not all(math.isfinite(v["value"]) for v in metrics.values()):
                problems.append(f"{label}: a metric is not finite")
            if trace:
                counts.append({k: metrics[k]["value"] for k in
                               ("model.kernel_calls", "sampler.mh_updates",
                                "predictor.cv_score_calls")})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ between runs: {counts}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # a terminated run still kills its CLI child and removes its work directory
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="shrink every workload")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)


if __name__ == "__main__":
    sys.exit(main())
