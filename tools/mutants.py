"""Run the mutants listed in tools/mutants.json against the tests named for each.

    python3 tools/mutants.py

Each mutant is a source file, an exact snippet of it, the snippet's
replacement, and the test ids that must fail once the replacement is made.
A mutant that is expected to survive carries the reason instead, under
``survives``.  For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the replacement
there, and runs the named tests with ``--hypothesis-profile=ci -x``.  It
prints ``killed`` or ``survived`` per mutant, with ``UNEXPECTED`` where the
outcome is not the recorded one.

Before any mutant runs, every snippet must occur exactly once in its file,
and the named tests must pass on the unmutated tree; otherwise the run
stops with exit status 2.  Exits 1 if any outcome is unexpected, else 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_suffix(".json")


def _pytest(tree: Path, tests: list[str]) -> int:
    """Exit status of the named tests run in ``tree``, with no bytecode or cache written."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--hypothesis-profile=ci",
           "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy(tree: Path) -> None:
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tree / "pyproject.toml")


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    stale = [f"{m['id']}: snippet occurs {n} times in {m['file']}" for m in mutants
             if (n := (ROOT / m["file"]).read_text(encoding="utf-8").count(m["snippet"])) != 1]
    if stale:
        print("\n".join(stale))
        return 2
    named = sorted({t for m in mutants for t in m["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        if _pytest(Path(tmp), named):
            print("the named tests fail on the unmutated tree")
            return 2
    unexpected = 0
    start = time.monotonic()
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _copy(tree)
            path = tree / m["file"]
            path.write_text(path.read_text(encoding="utf-8").replace(m["snippet"],
                                                                      m["replacement"]),
                            encoding="utf-8")
            status = _pytest(tree, m["tests"])
        if status in (4, 5):  # a named test id that is not there
            print(f"{m['id']}: pytest exited {status}")
            return 2
        killed = status != 0  # a failure, or an error such as one in collection
        ok = killed != ("survives" in m)
        unexpected += not ok
        print(f"{'killed' if killed else 'survived':<9} {m['id']}"
              + ("" if ok else "  UNEXPECTED")
              + (f"  ({m['survives']})" if "survives" in m and not killed else ""))
    print(f"{len(mutants)} mutants, {unexpected} unexpected, "
          f"{time.monotonic() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
