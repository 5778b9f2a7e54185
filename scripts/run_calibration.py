#!/usr/bin/env python3
"""Coverage study: how often the 95% posterior interval of each phase's
total eventual size contains the simulated truth.

Each scenario draws latent sizes, run counts and observed sizes; the fit
receives the scenario's true trial counts and a detection-rate prior
matched to the scenario's t law.  Prints one row per scenario batch and
a final coverage summary.
"""

import argparse
import sys
import time

from bugsize.ingest import summarize_phases
from bugsize.sampler import SamplerConfig, run_chain
from bugsize.simulator import ScenarioConfig, generate, oracle_hyperparams


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--iterations", type=int, default=1500)
    parser.add_argument("--burn-in", type=int, default=500)
    parser.add_argument("--chains", type=int, default=2)
    parser.add_argument("--exposure-offset", type=float, default=30.0)
    parser.add_argument("--p-true", type=float, default=0.7)
    args = parser.parse_args()

    covered = total = skipped = 0
    start = time.time()
    for i in range(args.scenarios):
        phases = 2 + (i % 2)
        bugs = (3, 2) if phases == 2 else (2, 2, 3)
        scenario = ScenarioConfig(
            phases=phases,
            bugs_per_phase=bugs,
            n_trials_range=(6, 14),
            t_range=(0.35, 0.85),
            p_true=tuple([args.p_true] * phases),
            seed=args.seed + i,
            exposure_offset=args.exposure_offset,
        )
        log, truth = generate(scenario)
        summaries = summarize_phases(log.records, log.runs_per_phase)
        if any(s.distinct_bugs == 0 for s in summaries):
            skipped += 1
            continue
        hyper = oracle_hyperparams(truth, scenario.t_range)
        config = SamplerConfig(
            chains=args.chains,
            iterations=args.iterations,
            burn_in=args.burn_in,
            seed=args.seed + 1000 + i,
        )
        posterior = run_chain(summaries, hyper, config)
        low, high = posterior.F_ci
        hits = [
            bool(low[j] <= truth.per_phase_totals[j] <= high[j]) for j in range(len(summaries))
        ]
        covered += sum(hits)
        total += len(hits)
        print(f"scenario {i:3d}: {sum(hits)}/{len(hits)} phases covered")

    print("-" * 40)
    if total:
        print(
            f"coverage {covered}/{total} = {covered / total:.3f} "
            f"(skipped {skipped}) in {time.time() - start:.0f}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
