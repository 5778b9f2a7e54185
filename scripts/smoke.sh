#!/usr/bin/env bash
# Smoke-run every bugsize command on the standard library alone.
#
# usage: scripts/smoke.sh PYTHON DIR
#
# Runs each command with the interpreter PYTHON and writes every output into
# DIR, which must not exist yet.  The outputs are deterministic, so those of
# two interpreters can be compared byte for byte:
#
#   scripts/smoke.sh python3.11 out-3.11 && scripts/smoke.sh python3.13 out-3.13
#   for f in out-3.11/*; do cmp "$f" "out-3.13/${f#out-3.11/}"; done
set -e
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
py=$1
mkdir "$2" && cd "$2"
bugsize() { "$py" -c "from bugsize.cli import main; main()" "$@"; }
field() { "$py" -c "import json, sys; print(','.join(map(str, json.load(open(sys.argv[1]))[sys.argv[2]])))" "$@"; }
bugsize simulate --seed 7 --out log.csv --truth-out truth.json > simulate.json
runs=$(field simulate.json runs_per_phase)
bugsize ingest --data log.csv --runs "$runs" --out ingest.json
bugsize fit --data log.csv --runs "$runs" --iterations 200 --burn-in 50 --seed 7 --dump-draws draws.csv --out fit.json
bugsize predict --from-report fit.json --epsilon 1 --out predict.json
bugsize predict --from-report fit.json --draws draws.csv --epsilon 1 --out predict-draws.json
bugsize predict --from-report fit.json --draws draws.csv --cv-grid 0.5,1,2,4,8,16 --epsilon 1 --out predict-grid.json
bugsize decide --from-report predict-draws.json --epsilon 1 --out decide.json
# decide and predict start without dataclasses and without the table parser
for command in "decide --totals 3,2,1 --epsilon 1" "predict --totals 30,20,12 --draws draws.csv --epsilon 1"; do
  "$py" -c "import sys; from bugsize.cli import run; assert run(sys.argv[1:]) == 0; loaded = {'dataclasses', 'bugsize.ingest'} & set(sys.modules); assert not loaded, loaded" $command --out /dev/null --quiet
done
# a per-input log whose columns are all read (its distinct lines are
# counted), and the same rows with an unread input id (rows are counted)
printf 'cycle,defect_id\n1,3\n1,\n1,3\n1,5\n1,\n1,3\n2,\n2,7\n2,7\n2,4\n2,\n2,7\n' > inputs.csv
awk 'NR == 1 { print "input_id," $0; next } { print NR - 1 "," $0 }' inputs.csv > inputs-id.csv
# both with a whitespace-only and a "," line: counted lines skip them,
# and the log with an input id cannot key them, so it is read row by row
for log in inputs inputs-id; do
  awk 'NR == 4 { print "   " } NR == 9 { print "," } { print }' "$log.csv" > "$log-blank.csv"
done
for log in inputs inputs-id inputs-blank inputs-id-blank; do
  bugsize ingest --data "$log.csv" --per-input --out "ingest-$log.json"
  bugsize fit --data "$log.csv" --per-input --iterations 200 --burn-in 50 --seed 7 --out "fit-$log.json"
done
printf 'phase,class,count\n1,1,5\n' > detections.csv
echo '{"n_total": 10, "p0": 0.5, "delta": 0.3, "q": [{"q_detect": [0.5], "q_none": 0.5}]}' > baseline-config.json
bugsize baseline --detections detections.csv --config baseline-config.json --out baseline.json
# five classes, whose detection probabilities a left-to-right sum rounds differently
printf 'phase,class,count\n1,1,1\n1,2,1\n1,3,1\n1,4,1\n1,5,1\n' > detections-5.csv
echo '{"n_total": 50, "p0": 0.5, "delta": 0.3, "q": [{"q_detect": [0.15, 0.16, 0.19, 0.15, 0.19], "q_none": 0.16}]}' > baseline-config-5.json
bugsize baseline --detections detections-5.csv --config baseline-config-5.json --out baseline-5.json
bugsize compare --trials 1 --out compare.json
# one document of each kind the config reader types
"$py" -c "import json; rows = [len(p['sizes']) for p in json.load(open('ingest.json'))['phases']]; json.dump({'a': [[1.0] * n for n in rows], 'b': [[2.0] * n for n in rows], 'mu': [0.5] * len(rows), 'sigma2': 0.02}, open('hyper.json', 'w'))"
bugsize fit --data log.csv --runs "$runs" --iterations 200 --burn-in 50 --seed 7 --config hyper.json --out fit-config.json
"$py" -c "import json; n = len(json.load(open('fit.json'))['per_phase']); json.dump({'windows': [[j, j + 1] for j in range(n)]}, open('windows.json', 'w'))"
bugsize predict --from-report fit.json --config windows.json --bandwidth 2.0 --out predict-windows.json
echo '{"phases": 2, "bugs_per_phase": [3, 3], "n_trials_range": [6, 14], "t_range": [0.35, 0.85], "p_true": [0.7, 0.7], "comparison": {"iterations": 200, "burn_in": 50}}' > scenario.json
bugsize compare --trials 1 --scenario scenario.json --out compare-scenario.json
# a paper-scale log: trial counts in the tens of thousands
echo '{"phases": 3, "bugs_per_phase": [4, 5, 6], "n_trials_range": [10000, 40000], "t_range": [0.35, 0.85], "p_true": [0.7, 0.7, 0.7]}' > paper-scenario.json
bugsize simulate --seed 7 --scenario paper-scenario.json --out paper-log.csv > paper-simulate.json
paper_runs=$(field paper-simulate.json runs_per_phase)
bugsize fit --data paper-log.csv --runs "$paper_runs" --iterations 200 --burn-in 50 --seed 7 --dump-draws paper-draws.csv --out paper-fit.json
bugsize predict --from-report paper-fit.json --draws paper-draws.csv --epsilon 1 --out paper-predict.json
bugsize predict --from-report paper-fit.json --draws paper-draws.csv --cv-grid 5,10,20,40,80,160,320 --epsilon 1 --out paper-predict-grid.json
# the table serializer, compared across versions like every other output
bugsize ingest --data log.csv --runs "$runs" --format table --out ingest-table.txt
bugsize fit --data log.csv --runs "$runs" --iterations 200 --burn-in 50 --seed 7 --format table --out fit-table.txt
bugsize predict --from-report fit.json --draws draws.csv --epsilon 1 --format table --out predict-draws-table.txt
bugsize decide --from-report predict-draws.json --epsilon 1 --format table --out decide-table.txt
bugsize baseline --detections detections.csv --config baseline-config.json --format table --out baseline-table.txt
