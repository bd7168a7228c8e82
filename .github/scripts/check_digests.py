"""Fail if a benchmark workload's output changed or was judged incorrect.

Runs each perfbench workload for one second with seed 1 and no tracing,
then requires that the final JSON line reports "correct": true and that
every digest line matches the value pinned below. A speed-only change
must leave every digest alone; a change that means to alter a report
re-pins the value here in the same commit.

    python3 .github/scripts/check_digests.py              # all four workloads
    python3 .github/scripts/check_digests.py waterfall    # a subset
"""

import json
import subprocess
import sys

# digest name -> pinned value, per workload (seed 1)
PINNED = {
    "waterfall": {"waterfall.report": "45f55a0ec090d360"},
    "campaign": {"campaign.report": "045a1d358a22cc25"},
    "link": {"link.report": "4b548ac503f14df2"},
    "daemon": {"daemon.reports": "0c1ac28c416dde58"},
}


def check(workload):
    """Run one workload; return a list of problems (empty when it passes)."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    run = subprocess.run(cmd, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return [f"run failed (exit {run.returncode}): {run.stderr.strip()[-500:]}"]
    problems = []
    try:
        correct = json.loads(lines[-1]).get("correct")
    except json.JSONDecodeError:
        correct = None
    if correct is not True:
        problems.append(f"last line is not \"correct\": true: {lines[-1][:200]}")
    seen = {}
    for line in lines:
        if line.startswith("digest "):
            name, _, value = line[len("digest "):].partition(": ")
            seen.setdefault(name, []).append(value.strip())
    for name, want in PINNED[workload].items():
        got = seen.pop(name, [])
        if not got:
            problems.append(f"no {name} digest printed")
        for value in got:
            if value != want:
                problems.append(f"{name} is {value}, pinned {want}")
    for name in seen:
        problems.append(f"unpinned digest {name}")
    return problems


def main():
    workloads = sys.argv[1:] or list(PINNED)
    unknown = [w for w in workloads if w not in PINNED]
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(unknown)}; known: {', '.join(PINNED)}")
    failed = False
    for workload in workloads:
        problems = check(workload)
        for p in problems:
            print(f"{workload}: {p}")
        if problems:
            failed = True
        else:
            print(f"{workload}: correct, digests match")
    if failed:
        sys.exit("benchmark output check failed")


if __name__ == "__main__":
    main()
