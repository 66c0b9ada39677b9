"""Run the tier-1 suite and check that it fails exactly where it is meant to.

    python3 tools/tier1.py

Runs `PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q
--continue-on-collection-errors` from the repository root, the tier-1
command of ROADMAP.md, and prints the passed and failed counts and the wall
time. Six acceptance criteria, tests/test_acceptance.py::test_criterion_01..06,
fail on purpose: each quantifies a textbook rule over a universe holding
graphs with isolated vertices, where the rule is false. The exit status is 0
when the failures are exactly those six and nothing errored, and 1 otherwise,
with each unexpected failure or error and each intended failure that passed
named. It selects, deselects, skips and marks nothing. Standard library only;
not part of tier-1, as it runs tier-1.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTENDED = {
    f"tests/test_acceptance.py::test_criterion_{name}" for name in (
        "01_pd_and_reg_bounds", "02_cm_characterization", "03_heights",
        "04_forest_reg_pd", "05_licci_equivalence", "06_implication_suite")}
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


def main() -> int:
    path = os.environ.get("PYTHONPATH")
    env = os.environ | {"PYTHONPATH": f"src:{path}" if path else "src"}
    start = time.monotonic()
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    # the short test summary names each failure and error by node id
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in lines if line.startswith("FAILED ")}
    errored = sorted(line.split(" ", 1)[1].split(" - ", 1)[0]
                     for line in lines if line.startswith("ERROR "))
    totals = {"passed": 0, "failed": 0, "error": 0}
    for count, kind in COUNT.findall(lines[-1] if lines else ""):
        totals[kind.rstrip("s")] += int(count)
    print(f"{totals['passed']} passed, {totals['failed']} failed, {totals['error']} errors "
          f"in {wall:.1f} s")
    if totals["failed"] != len(failed) or totals["error"] != len(errored) or proc.returncode > 1:
        print(f"pytest exited {proc.returncode} with a summary this script cannot read:",
              file=sys.stderr)
        print("\n".join(lines[-20:]) or proc.stderr, file=sys.stderr)
        return 1
    for node in sorted(failed - INTENDED):
        print(f"unexpected failure: {node}")
    for node in errored:
        print(f"error: {node}")
    for node in sorted(INTENDED - failed):
        print(f"intended failure passed: {node}")
    if failed != INTENDED or errored:
        return 1
    print("the only failures are the six intended acceptance criteria")
    return 0


if __name__ == "__main__":
    sys.exit(main())
