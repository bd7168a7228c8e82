"""Fail if a run changed or dropped a recorded trajectory point.

Compares every committed BENCH_*.json (`git show HEAD:<file>`) with the
working copy. Points with "mode": "quick" may be replaced by a newer
quick point; every other point, legacy points without a mode included,
must still be there, in order and value for value. New points may only
be appended.

    python3 .github/scripts/check_trajectories.py
"""

import json
import subprocess
import sys


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def recorded(doc):
    return [p for p in doc["points"] if p.get("mode") != "quick"]


def main():
    files = git("ls-files", "BENCH_*.json").split()
    bad = []
    for name in files:
        before = recorded(json.loads(git("show", f"HEAD:{name}")))
        with open(name) as f:
            after = recorded(json.load(f))
        if after[: len(before)] != before:
            bad.append(name)
    if bad:
        sys.exit("recorded trajectory points changed or disappeared in: " + ", ".join(bad))
    print(f"{len(files)} trajectory files: every recorded point intact")


if __name__ == "__main__":
    main()
