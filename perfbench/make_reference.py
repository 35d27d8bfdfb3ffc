"""Rewrite perfbench/reference/figures.json from the current program.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the seed-independent figure
artifacts, and say in the change which columns moved and by how much.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = ROOT / ".perfbench-out" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    if any(workloads.run_figures_pass(out, seed=0)):
        print("error: a subcommand failed", file=sys.stderr)
        return 1
    doc = {name: workloads.summarize_csv(out / name) for name in workloads.SEED_FREE_ARTIFACTS}
    shutil.rmtree(out, ignore_errors=True)
    workloads.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(workloads.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
