#!/usr/bin/env bash
# The benchmark smoke check of one workload, run from any directory:
#
#     bash tools/bench_smoke.sh <workload> <seed>...
#
# a one-second run of perfbench/run.py for each seed, then a one-second traced
# run of the first seed (the tracer wraps every public function, belt_balance
# included).  run.py exits 0 on an incorrect run too, so each run's verdict is
# read from the last line it prints: correct, with no failed operation.  The
# first failing run ends the check with a non-zero status.
set -euo pipefail
if [ $# -lt 2 ]; then
    echo "usage: bash tools/bench_smoke.sh <workload> <seed>..." >&2
    exit 2
fi
cd "$(dirname "$0")/.."
workload=$1
shift

verdict() {  # <seed> <trace>
    python3 perfbench/run.py --workload "$workload" --seed "$1" --seconds 1 --trace "$2" \
        | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print({key: result[key] for key in ("correct", "attempted", "failed")})
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)'
}

for seed in "$@"; do
    verdict "$seed" 0
done
verdict "$1" 1
