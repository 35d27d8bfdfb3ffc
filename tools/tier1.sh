#!/usr/bin/env bash
# The tier-1 checks, run from any directory:
#
#     bash tools/tier1.sh
#
# the tests with the derandomized hypothesis profile, so a run repeats exactly
# (tests/test_demos.py runs each demo once; they reach resample_16hz and
# rise_time_90 through the package re-exports); and the source size, which
# prints and gates nothing.  The first failure ends the run with its exit status.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest -q --continue-on-collection-errors --hypothesis-profile=ci
python tools/size.py
