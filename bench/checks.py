"""Correctness checks on the CLI's reports.

Each check compares a report against a number the benchmark computes apart
from the program (from the inputs it generated, or with scipy), or against a
property the method must have.  A check returns a list of failure messages;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.stats import norm

# Trial-count candidates default to observed size x {1, 2, 3, 4}, so no
# eventual size can exceed four times its floor.
MAX_TRIAL_MULTIPLIER = 4
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def ingest_report(report: dict, sizes, runs) -> list[str]:
    """Per-phase cumulative runs, bug counts and sizes equal the generator's."""
    errors = []
    phases = report["phases"]
    if len(phases) != len(sizes):
        return [f"ingest: {len(phases)} phases reported, {len(sizes)} generated"]
    cumulative = np.cumsum(runs).tolist()
    for row, expected, runs_cum in zip(phases, sizes, cumulative):
        if row["runs_cumulative"] != runs_cum:
            errors.append(f"ingest phase {row['phase']}: runs {row['runs_cumulative']} != {runs_cum}")
        if row["distinct_bugs"] != len(expected):
            errors.append(f"ingest phase {row['phase']}: {row['distinct_bugs']} bugs != {len(expected)}")
        if row["sizes"] != list(expected.values()):
            errors.append(f"ingest phase {row['phase']}: sizes differ from the generated log")
    return errors


def nb_sizes(per_phase_totals) -> np.ndarray:
    """r_k = F_k - sum_{i<k} F_i on cumulative totals F."""
    cumulative = np.cumsum(np.asarray(per_phase_totals, dtype=float))
    return cumulative - np.concatenate(([0.0], np.cumsum(cumulative)[:-1]))


def fit_report(report: dict, sizes, chains: int, iterations: int, burn_in: int) -> list[str]:
    """Credible-interval order, the support of F, positive r and ESS range."""
    errors = []
    rows = report["per_phase"]
    if len(rows) != len(sizes):
        return [f"fit: {len(rows)} phases reported, {len(sizes)} generated"]
    retained = iterations - burn_in
    for row, phase_sizes in zip(rows, sizes):
        phase = row["phase"]
        if not row["F_ci_low"] <= row["F_median"] <= row["F_ci_high"]:
            errors.append(f"fit phase {phase}: median outside its credible interval")
        observed = sum(phase_sizes.values())
        cap = MAX_TRIAL_MULTIPLIER * sum(max(s, 1) for s in phase_sizes.values())
        if not observed <= row["F_mean"] <= cap:
            errors.append(f"fit phase {phase}: F_mean {row['F_mean']} outside [{observed}, {cap}]")
        ess = row["ess"]
        if ess is None or not 0.0 < ess <= chains * retained:
            errors.append(f"fit phase {phase}: ess {ess} outside (0, {chains * retained}]")
    r = nb_sizes([row["F_mean"] for row in rows])
    if np.any(r <= 0.0):
        errors.append(f"fit: size parameters of F_mean not all positive: {r.tolist()}")
    if (report["chains"], report["iterations"], report["burn_in"]) != (chains, iterations, burn_in):
        errors.append("fit: report does not echo the requested sampler settings")
    return errors


def truncated_mixture_mean(totals, weights, h: float) -> float:
    """Mean of the weighted Gaussian mixture centred on `totals`, restricted
    to [0, last total); 0 when that interval holds no mass."""
    centers = np.asarray(totals, dtype=float)
    weights = np.asarray(weights, dtype=float)
    upper = float(centers[-1])
    a = (0.0 - centers) / h
    b = (upper - centers) / h
    mass = weights * (norm.cdf(b) - norm.cdf(a))
    positive = weights * norm.sf(a)
    if positive.sum() <= 0.0 or mass.sum() / positive.sum() < 1e-12:
        return 0.0
    first_moment = weights * (centers * (norm.cdf(b) - norm.cdf(a)) + h * (norm.pdf(a) - norm.pdf(b)))
    return float(first_moment.sum() / mass.sum())


def predict_report(report: dict, fit: dict) -> list[str]:
    """Totals come from the fit; the prediction is the truncated mixture mean."""
    errors = []
    totals = report["totals"]
    if totals != [row["F_mean"] for row in fit["per_phase"]]:
        errors.append("predict: totals differ from the fit report's F_mean")
    predicted = report["predicted_next_total"]
    if not 0.0 <= predicted < totals[-1]:
        errors.append(f"predict: {predicted} outside [0, {totals[-1]})")
    expected = truncated_mixture_mean(totals, report["weights"], report["h_selected"])
    if not _close(predicted, expected):
        errors.append(f"predict: {predicted} != truncated mixture mean {expected}")
    return errors


def epsilon_rule(totals, epsilon: float):
    """Stop after phase k-1 at the first phase k whose total is below epsilon."""
    for k, total in enumerate(totals, start=1):
        if total < epsilon:
            return "stop", k - 1
    return "continue", None


def decide_report(report: dict, predict: dict, epsilon: float) -> list[str]:
    errors = []
    totals = predict["totals"] + [predict["predicted_next_total"]]
    if report["totals"] != totals:
        errors.append("decide: totals differ from the predict report")
    action, stop_after = epsilon_rule(totals, epsilon)
    if (report["action"], report["stop_after_phase"]) != (action, stop_after):
        errors.append(
            f"decide: ({report['action']}, {report['stop_after_phase']}) != ({action}, {stop_after})"
        )
    return errors


def compare_report(report: dict, trials: int) -> list[str]:
    errors = []
    scored, skipped = report["scored_trials"], report["skipped_trials"]
    if scored + skipped != trials or scored < 1:
        errors.append(f"compare: {scored} scored + {skipped} skipped for {trials} trials")
    if not 0.0 <= report["win_fraction"] <= 1.0:
        errors.append(f"compare: win_fraction {report['win_fraction']} outside [0, 1]")
    for key in ("relative_mse_size_biased", "relative_mse_baseline"):
        value = report[key]
        if not (math.isfinite(value) and value >= 0.0):
            errors.append(f"compare: {key} {value} is not finite and non-negative")
    return errors


def read_draws(path) -> np.ndarray:
    """Draw dump as an array of (chain, phase, F) rows."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [(int(r["chain"]), int(r["phase"]), float(r["F"])) for r in csv.DictReader(handle)]
    return np.array(rows, dtype=float).reshape(-1, 3)


def draw_dump(draws: np.ndarray, fit: dict, chains: int, retained: int) -> list[str]:
    """Row count is chains x retained x phases; per-phase means equal F_mean."""
    errors = []
    phases = len(fit["per_phase"])
    if draws.shape[0] != chains * retained * phases:
        errors.append(f"draws: {draws.shape[0]} rows != {chains} x {retained} x {phases}")
    for row in fit["per_phase"]:
        values = draws[draws[:, 1] == row["phase"], 2]
        if values.size == 0 or not _close(float(values.mean()), row["F_mean"]):
            errors.append(f"draws: phase {row['phase']} mean differs from F_mean")
    return errors


def lscv_score(samples: np.ndarray, h: float, block: int = 512) -> float:
    """Least-squares cross-validation score of a Gaussian KDE with bandwidth h.

    LSCV(h) = int fhat^2 - (2/n) sum_i fhat_{-i}(X_i), where int fhat^2 is the
    mean of N(0, 2h^2) densities over all pairs.  Built in row blocks so the
    n x n pair matrix never exists at once.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    pair_sq = 0.0
    pair_loo = 0.0
    for start in range(0, n, block):
        diff = x[start : start + block, None] - x[None, :]
        pair_sq += norm.pdf(diff, scale=h * math.sqrt(2.0)).sum()
        pair_loo += norm.pdf(diff, scale=h).sum()
    pair_loo -= n * norm.pdf(0.0, scale=h)
    return pair_sq / n**2 - 2.0 / (n * (n - 1)) * pair_loo


def bandwidth_choice(report: dict, samples: np.ndarray, grid) -> list[str]:
    """The selected bandwidth attains the smallest LSCV score on the grid."""
    scores = {h: lscv_score(samples, h) for h in grid}
    best = min(scores.values())
    chosen = report["h_selected"]
    if chosen not in scores:
        return [f"predict: h_selected {chosen} is not on the grid {list(grid)}"]
    if scores[chosen] > best + 1e-9 * abs(best):
        return [f"predict: h_selected {chosen} scores {scores[chosen]}, grid minimum is {best}"]
    return []
