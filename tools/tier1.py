"""Run the tier-1 suite and check that it fails exactly where it is meant to.

    python3 tools/tier1.py

Runs `PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q
--continue-on-collection-errors --durations=10` from the repository root,
the tier-1 command of ROADMAP.md with pytest's report of its ten slowest
test phases, and prints the passed and failed counts and the wall time,
then those ten phases, slowest first. Six acceptance criteria,
tests/test_acceptance.py::test_criterion_01..06, fail on purpose: each
quantifies a textbook rule over a universe holding graphs with isolated
vertices, where the rule is false. The first E line of
each, the assertion message that carries its counterexample census, must equal
the copy in tools/tier1_censuses.json, so a failure that moved to another
assertion or changed its census is seen. The exit status is 0 when the
failures are exactly those six, each with its committed census, and nothing
errored, and 1 otherwise, with each unexpected failure or error, each intended
failure that passed and each changed census named. A census changes only with
the code it counts; update the copy with that change and say so in CHANGES.md.
It selects, deselects, skips and marks nothing. Standard library only; not
part of tier-1, as it runs tier-1.
"""
from __future__ import annotations

import json
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
CENSUSES = ROOT / "tools" / "tier1_censuses.json"
COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")
# the header of one failure's traceback: its test name between rules of underscores
SECTION = re.compile(r"^_{3,} (\S+) _{3,}$")
# pytest's --durations report: a header between rules of equals signs, then one
# line per test phase, "12.34s call     tests/...::test_name"
SLOWEST = re.compile(r"^=+ slowest \d+ durations =+$")
DURATION = re.compile(r"^\d+\.\d+s \w+ ")


def first_e_lines(lines: list[str]) -> dict[str, str]:
    """The first E line of each failure's traceback, stripped, keyed by its test name."""
    found: dict[str, str] = {}
    name = None
    for line in lines:
        head = SECTION.match(line)
        if head:
            name = head.group(1)
        elif name and line.startswith("E ") and name not in found:
            found[name] = line[1:].strip()
    return found


def slowest(lines: list[str]) -> list[str]:
    """The lines of pytest's --durations report, slowest first, with its header."""
    for k, line in enumerate(lines):
        if SLOWEST.match(line):
            report = [line.strip("= ")]
            for entry in lines[k + 1:]:
                if not DURATION.match(entry):
                    break
                report.append(f"  {entry}")
            return report
    return []


def main() -> int:
    path = os.environ.get("PYTHONPATH")
    env = os.environ | {"PYTHONPATH": f"src:{path}" if path else "src"}
    start = time.monotonic()
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "--durations=10"]
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
    for line in slowest(lines):
        print(line)
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
    expected = json.loads(CENSUSES.read_text())
    found = first_e_lines(lines)
    changed = False
    for node in sorted(INTENDED & failed):
        name = node.split("::", 1)[1]
        if found.get(name) != expected[name]:
            print(f"census changed: {node}\n  committed: {expected[name]}\n  found:     "
                  f"{found.get(name)}")
            changed = True
    if failed != INTENDED or errored or changed:
        return 1
    print("the only failures are the six intended acceptance criteria, each with its census")
    return 0


if __name__ == "__main__":
    sys.exit(main())
