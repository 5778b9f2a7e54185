"""Command-line entry point wiring the pipeline stages together.

Subcommands: ingest | fit | predict | decide | baseline | compare |
simulate.  Every report opens with the command, the seed and a hash of
the effective configuration; all randomness flows from --seed.  Exit
codes: 0 on success, 1 on validation errors, 2 on runtime/model errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import types
import typing
from pathlib import Path

# Only ingest is imported here; every handler imports the modules it runs,
# so ingest, decide and predict without --draws never load numpy.  Handlers
# call through the module (sampler_mod.run_chain) so that a tracer patching
# the module attribute sees the call.
from . import ingest as ingest_mod

if typing.TYPE_CHECKING:
    from .decision import StopDecision
    from .sampler import PosteriorSummary

__all__ = ["main", "run", "emit_report"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        # numpy arrays and scalars, without importing numpy here
        return _jsonable(value.tolist())
    return value


def _config_hash(config: dict) -> str:
    canonical = json.dumps(_jsonable(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_config(path: str | None):
    """The JSON document at ``path``, or an empty object without one."""
    if not path:
        return {}
    return json.loads(Path(path).read_text(encoding="utf-8"))


class _Mismatch(Exception):
    """A config value is not of the JSON type its field asks for."""


def _read_config(cls, raw, where: str):
    """Build the dataclass ``cls`` from the JSON object ``raw``, with the
    field annotations as its schema.  Unknown and missing keys and values
    of the wrong JSON type raise a ValueError naming the key within
    ``where``.  JSON lists become tuples where the field is a tuple; every
    other value passes through unchanged."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be an object, got {json.dumps(raw)}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(f"{where} has unknown keys: {unknown}")
    fields = dataclasses.fields(cls)
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"{where} is missing keys: {missing}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _config_value(value, hints[key], f"{where} '{key}'")
        except _Mismatch:
            kind = _describe(hints[key])
            raise ValueError(f"{where} '{key}' must be {kind}, got {json.dumps(value)}") from None
    return cls(**values)


def _config_value(value, hint, where: str):
    """``value`` as the field type ``hint`` asks: a number (finite: NaN and
    Infinity are not JSON), an integer (not a bool), null, a list, a
    fixed-length tuple, a nested dataclass or a union of these.  Raises
    _Mismatch if its JSON type does not fit."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        for arm in args:
            with contextlib.suppress(_Mismatch):
                return _config_value(value, arm, where)
    elif dataclasses.is_dataclass(hint):
        return _read_config(hint, value, where)
    elif origin in (list, tuple):
        variadic = origin is list or args[-1] is Ellipsis
        if isinstance(value, list) and (variadic or len(value) == len(args)):
            items = [
                _config_value(item, args[0 if variadic else i], f"{where} entry {i + 1}")
                for i, item in enumerate(value)
            ]
            return items if origin is list else tuple(items)
    elif hint is type(None):
        if value is None:
            return value
    elif not isinstance(value, bool) and isinstance(value, int if hint is int else (int, float)):
        if not isinstance(value, float) or math.isfinite(value):
            return value
    raise _Mismatch


def _describe(hint, plural: bool = False) -> str:
    """The JSON values the field type ``hint`` accepts, in words; a
    fixed-length tuple is described by its first item type."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_describe(arm, plural) for arm in args)
    if origin in (list, tuple):
        count = "" if origin is list or args[-1] is Ellipsis else f"{len(args)} "
        return f"{'lists' if plural else 'a list'} of {count}{_describe(args[0], plural=True)}"
    nouns = {int: ("an integer", "integers"), float: ("a number", "numbers"), type(None): ("null", "nulls")}
    return nouns.get(hint, ("an object", "objects"))[plural]  # else a nested dataclass


def _scenario(raw, seed: int):
    """The scenario a config document describes, or the default one; the
    document's `seed` defaults to --seed."""
    from . import simulator as simulator_mod

    if raw == {}:
        return simulator_mod.default_scenario(seed)
    if isinstance(raw, dict):
        raw = {"seed": seed, **raw}
    return _read_config(simulator_mod.ScenarioConfig, raw, "scenario")


def _parse_list(text: str, flag: str, kind=float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} expects a comma-separated list of {noun}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} must list finite numbers, got {text}")
    return values


def _finite(value, what: str) -> float:
    """``value`` as a float; ``what`` names it if it is not finite."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value}")
    return number


def _seed(text: str) -> int:
    """The --seed type: numpy's seeding accepts no negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def emit_report(report: dict, fmt: str, out_path: str | None, quiet: bool = False) -> None:
    """Serialize a stage report as a JSON document or a delimited table."""
    if fmt == "doc":
        text = json.dumps(_jsonable(report), indent=2) + "\n"
    else:
        rows = report.get("per_phase") or report.get("phases")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(row.get(k)) for k in header])
        else:
            writer.writerow(["key", "value"])
            for key, value in report.items():
                writer.writerow([key, _format_cell(value)])
        text = buffer.getvalue()
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        if not quiet:
            print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


def _format_cell(value) -> str:
    value = _jsonable(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return "" if value is None else str(value)


def _data_config(args) -> dict:
    # reports carry content hashes, not paths, so identical inputs give
    # byte-identical reports wherever the files live
    return {"data_sha256": _file_sha256(args.data), "runs": args.runs, "per_input": args.per_input}


def _summaries_from_args(args) -> list[ingest_mod.PhaseSummary]:
    if args.per_input:
        records, runs = ingest_mod.parse_input_log(args.data)
    else:
        records = ingest_mod.parse_test_log(args.data)
        if not args.runs:
            raise ValueError("--runs is required unless --per-input is set")
        runs = _parse_list(args.runs, "--runs", int)
    return ingest_mod.summarize_phases(records, runs)


# Each handler returns (effective config, report body); run() opens the
# report with the command, the seed and the effective config's hash.
def _cmd_ingest(args) -> tuple[dict, dict]:
    summaries = _summaries_from_args(args)
    return _data_config(args), ingest_mod.phase_summary_doc(summaries)


def _cmd_fit(args) -> tuple[dict, dict]:
    from . import model as model_mod
    from . import sampler as sampler_mod

    summaries = _summaries_from_args(args)
    empty = [s.phase for s in summaries if s.distinct_bugs == 0]
    if empty:
        # dropping an empty phase would re-index the negative-binomial chain
        raise ValueError(
            f"no logged defect in phase(s) {', '.join(map(str, empty))}; "
            "the model needs at least one defect in every phase"
        )
    raw_config = _load_config(args.config)
    hyper_config = _read_config(model_mod.HyperConfig, raw_config, "config")
    hyper = model_mod.build_hyperparams(summaries, hyper_config, args.seed)
    sampler_config = sampler_mod.SamplerConfig(
        chains=args.chains,
        iterations=args.iterations,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=args.seed,
    )
    posterior = sampler_mod.run_chain(summaries, hyper, sampler_config)

    if args.dump_draws:
        _dump_draws(posterior, args.dump_draws)

    effective = {
        **_data_config(args),
        "hyper": raw_config,
        "chains": args.chains,
        "iterations": args.iterations,
        "burn_in": args.burn_in,
        "thin": args.thin,
    }
    low, high = posterior.F_ci
    per_phase = []
    for idx, summary in enumerate(summaries):
        diag = posterior.diagnostics[idx] if posterior.diagnostics else None
        per_phase.append(
            {
                "phase": summary.phase,
                "F_mean": float(posterior.F_mean[idx]),
                "F_median": float(posterior.F_median[idx]),
                "F_ci_low": float(low[idx]),
                "F_ci_high": float(high[idx]),
                "r_hat": diag.r_hat if diag else None,
                "ess": diag.ess if diag else None,
            }
        )
    body = {
        "config": effective,
        "per_phase": per_phase,
        "acceptance_rate_mean": posterior.acceptance_rate_mean,
        "iterations": posterior.iterations,
        "burn_in": posterior.burn_in,
        "thin": posterior.thin,
        "chains": posterior.chains,
    }
    if posterior.diagnostics and any(d.r_hat > 1.1 for d in posterior.diagnostics):
        body["convergence_warning"] = "split R-hat above 1.1 for at least one phase"
    return effective, body


def _dump_draws(posterior: PosteriorSummary, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["iteration", "chain", "phase", "F"])
        for chain in range(posterior.chains):
            for k in range(posterior.draws.shape[1]):
                iteration = posterior.burn_in + k * posterior.thin
                for phase_idx in range(posterior.draws.shape[2]):
                    writer.writerow(
                        [iteration, chain, phase_idx + 1, repr(float(posterior.draws[chain, k, phase_idx]))]
                    )


def _totals_from_args(args) -> list[float]:
    if args.totals:
        return _parse_list(args.totals, "--totals")
    if args.from_report:
        path = args.from_report
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        totals: list[float] = []
        if "per_phase" in report:
            totals = [_finite(row["F_mean"], f"{path} 'F_mean'") for row in report["per_phase"]]
        elif "totals" in report:
            totals = [_finite(x, f"{path} 'totals' entry") for x in report["totals"]]
        if "predicted_next_total" in report:
            totals.append(_finite(report["predicted_next_total"], f"{path} 'predicted_next_total'"))
        if not totals:
            raise ValueError(f"{path} holds no per-phase totals")
        return totals
    raise ValueError("either --totals or --from-report is required")


@dataclasses.dataclass(frozen=True)
class _PredictConfig:
    """The `predict --config` document: one ``[start, end]`` window per total."""

    windows: list[tuple[float, float]] | None = None


def _cmd_predict(args) -> tuple[dict, dict]:
    from . import predictor as predictor_mod

    totals = _totals_from_args(args)
    windows = _read_config(_PredictConfig, _load_config(args.config), "config").windows
    events = predictor_mod.events_from_totals(totals, windows)
    cv_samples = None
    if args.draws:
        cv_samples = tuple(_draws_from_dump(args.draws))
    kde_config = predictor_mod.KdeConfig(
        bandwidth=args.bandwidth if args.bandwidth is not None else "auto",
        temporal_rate=args.temporal_rate,
        cv_grid=tuple(_parse_list(args.cv_grid, "--cv-grid")) if args.cv_grid else None,
        cv_samples=cv_samples,
    )
    prediction = predictor_mod.predict_next_total(events, kde_config)
    effective = {
        "totals": totals,
        "bandwidth": args.bandwidth,
        "temporal_rate": args.temporal_rate,
        "cv_grid": args.cv_grid,
        "windows": windows,
        "epsilon": args.epsilon,
    }
    body = {
        "totals": totals,
        "predicted_next_total": prediction.mean,
        "predicted_median": prediction.median,
        "predicted_mode": prediction.mode,
        "h_selected": prediction.bandwidth,
        "weights": list(prediction.weights),
        "truncated_mass": prediction.truncated_mass,
        "epsilon": args.epsilon,
        "decision": None,
    }
    if args.epsilon is not None:
        decision = predictor_mod.decide_stop(totals + [prediction.mean], args.epsilon)
        body["decision"] = _decision_doc(decision)
    return effective, body


def _draws_from_dump(path: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        values = [float(row["F"]) for row in reader]
    if not values:
        raise ValueError(f"{path} holds no draws")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path} 'F' must hold finite numbers")
    return values


def _decision_doc(decision: StopDecision) -> dict:
    if decision.should_stop:
        return {"action": "stop", "stop_after_phase": decision.stop_after_phase}
    return {"action": "continue", "stop_after_phase": None}


def _cmd_decide(args) -> tuple[dict, dict]:
    from . import decision as decision_mod

    totals = _totals_from_args(args)
    decision = decision_mod.decide_stop(totals, args.epsilon)
    return {"totals": totals, "epsilon": args.epsilon}, {
        "epsilon": args.epsilon,
        "totals": totals,
        "stop_after_phase": decision.stop_after_phase,
        **_decision_doc(decision),
    }


@dataclasses.dataclass(frozen=True)
class _PhaseQ:
    q_detect: list[float]
    q_none: float


@dataclasses.dataclass(frozen=True)
class _BaselineConfig:
    """The `baseline --config` document, with one `q` entry per phase."""

    n_total: int
    p0: float
    delta: float
    q: list[_PhaseQ]


def _cmd_baseline(args) -> tuple[dict, dict]:
    from . import baseline as baseline_mod

    raw_config = _load_config(args.config)
    config = _read_config(_BaselineConfig, raw_config, "config")
    n_total, p0, delta = config.n_total, float(config.p0), float(config.delta)

    counts_by_phase = ingest_mod.parse_detections(args.detections)
    phases = len(counts_by_phase)
    if len(config.q) != phases:
        raise ValueError(f"config 'q' lists {len(config.q)} entries for {phases} phases")
    detections = []
    classes = sorted({cls for counts in counts_by_phase.values() for cls in counts})
    for phase, q_entry in zip(counts_by_phase, config.q):
        q_detect = tuple(float(x) for x in q_entry.q_detect)
        if len(q_detect) != len(classes):
            raise ValueError(f"phase {phase}: expected {len(classes)} class probabilities")
        counts = tuple(counts_by_phase[phase].get(cls, 0) for cls in classes)
        detections.append(
            baseline_mod.PhaseDetection(counts=counts, q_detect=q_detect, q_none=float(q_entry.q_none))
        )

    state = baseline_mod.initial_state(n_total, p0)
    per_phase = []
    for detection in detections:
        state = baseline_mod.baseline_update(state, detection)
        per_phase.append(
            {"phase": state.phase, "p_no_fault_remaining": baseline_mod.posterior_remaining(state, 0)}
        )
    stopping = baseline_mod.baseline_stopping_phase(detections, n_total, p0, delta)
    effective = {"detections_sha256": _file_sha256(args.detections), "config": raw_config}
    return effective, {
        "n_total": n_total,
        "p0": p0,
        "delta": delta,
        "per_phase": per_phase,
        "stopping_phase": stopping,
    }


def _cmd_compare(args) -> tuple[dict, dict]:
    from . import baseline as baseline_mod

    raw_config = _load_config(args.scenario)
    comparison_raw = raw_config.pop("comparison", {}) if isinstance(raw_config, dict) else {}
    scenario = _scenario(raw_config, args.seed)
    comparison = _read_config(baseline_mod.ComparisonConfig, comparison_raw, "comparison")
    report = baseline_mod.compare_models(scenario, args.trials, args.seed, comparison)
    effective = {
        "scenario_sha256": _file_sha256(args.scenario) if args.scenario else "default",
        "trials": args.trials,
        "comparison": comparison_raw,
    }
    return effective, report.as_doc()


def _cmd_simulate(args) -> tuple[dict, dict]:
    from . import simulator as simulator_mod

    scenario = _scenario(_load_config(args.scenario), args.seed)
    log, truth = simulator_mod.generate(scenario)

    if args.log_out:
        with open(args.log_out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["cycle", "defect_header", "defect_id", "size"])
            for record in log.records:
                writer.writerow([record.cycle, record.defect_header, record.defect_id, record.size])
    if args.truth_out:
        Path(args.truth_out).write_text(
            json.dumps(_jsonable(truth.as_doc()), indent=2) + "\n", encoding="utf-8"
        )

    effective = {"scenario_sha256": _file_sha256(args.scenario) if args.scenario else "default"}
    return effective, {
        "phases": scenario.phases,
        "records": len(log.records),
        "runs_per_phase": list(log.runs_per_phase),
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="bugsize", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, report_out=True):
        sub.add_argument("--seed", type=_seed, default=0, help="root seed for all randomness")
        if report_out:
            sub.add_argument("--out", default=None, help="write the report here instead of stdout")
        sub.add_argument("--format", choices=("doc", "table"), default="doc")
        sub.add_argument("--quiet", action="store_true")

    def add_data(sub):
        sub.add_argument("--data", required=True)
        sub.add_argument("--runs", default=None, help="comma-separated runs per phase")
        sub.add_argument("--per-input", action="store_true", help="input is a raw per-input log")

    ingest_p = subparsers.add_parser("ingest", help="parse and aggregate a testing log")
    add_data(ingest_p)
    add_common(ingest_p)
    ingest_p.set_defaults(handler=_cmd_ingest)

    fit_p = subparsers.add_parser("fit", help="fit the size-biased model")
    add_data(fit_p)
    fit_p.add_argument("--chains", type=int, default=2)
    fit_p.add_argument("--iterations", type=int, default=2000)
    fit_p.add_argument("--burn-in", type=int, default=500)
    fit_p.add_argument("--thin", type=int, default=1)
    # Accepted for compatibility and ignored: chains run one after another,
    # since pure-Python chains on threads gain nothing under the GIL.
    fit_p.add_argument("--workers", type=int, default=1, help="ignored; chains run serially")
    fit_p.add_argument("--dump-draws", default=None, help="write retained draws as CSV")
    fit_p.add_argument("--config", default=None, help="hyperparameter config JSON")
    add_common(fit_p)
    fit_p.set_defaults(handler=_cmd_fit)

    predict_p = subparsers.add_parser("predict", help="predict the next phase's total")
    predict_p.add_argument("--totals", default=None)
    predict_p.add_argument("--from-report", default=None)
    predict_p.add_argument("--bandwidth", type=float, default=None)
    predict_p.add_argument("--temporal-rate", type=float, default=1.0)
    predict_p.add_argument("--cv-grid", default=None)
    predict_p.add_argument("--draws", default=None, help="draw dump used for bandwidth selection")
    predict_p.add_argument("--epsilon", type=float, default=None)
    predict_p.add_argument("--config", default=None, help="event windows config JSON")
    add_common(predict_p)
    predict_p.set_defaults(handler=_cmd_predict)

    decide_p = subparsers.add_parser("decide", help="apply the epsilon stopping rule")
    decide_p.add_argument("--totals", default=None)
    decide_p.add_argument("--from-report", default=None)
    decide_p.add_argument("--epsilon", type=float, required=True)
    add_common(decide_p)
    decide_p.set_defaults(handler=_cmd_decide)

    baseline_p = subparsers.add_parser("baseline", help="run the detection-count model")
    baseline_p.add_argument("--detections", required=True, help="CSV with phase,class,count")
    baseline_p.add_argument("--config", default=None, help="detection-model config JSON")
    add_common(baseline_p)
    baseline_p.set_defaults(handler=_cmd_baseline)

    compare_p = subparsers.add_parser("compare", help="compare both models on simulations")
    compare_p.add_argument("--trials", type=int, default=50)
    compare_p.add_argument("--scenario", default=None, help="scenario config JSON")
    add_common(compare_p)
    compare_p.set_defaults(handler=_cmd_compare)

    simulate_p = subparsers.add_parser("simulate", help="generate a synthetic log")
    simulate_p.add_argument("--scenario", default=None)
    # --out names the log here; the report always goes to stdout
    simulate_p.add_argument("--out", dest="log_out", metavar="OUT", help="log CSV path")
    simulate_p.add_argument("--truth-out", default=None, help="ground-truth JSON path")
    add_common(simulate_p, report_out=False)
    simulate_p.set_defaults(handler=_cmd_simulate, out=None)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        effective, body = args.handler(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"command": args.command, "seed": args.seed, "config_sha256": _config_hash(effective)}
    try:
        emit_report({**report, **body}, args.format, args.out, args.quiet)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
