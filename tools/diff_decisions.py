#!/usr/bin/env python3
"""Compare two outputs of ``compare_decisions.py``: decisions must match.

    python3 tools/compare_decisions.py ../parent/src > parent.txt
    python3 tools/compare_decisions.py src > change.txt
    python3 tools/diff_decisions.py parent.txt change.txt

Exits 1 if the two files hold other jobs, if any job's k, ``stop_reason``,
``swap_count``, permutation hash or swap-log hash differs, or if any
``qrcp`` or volume-decay line differs; 0 otherwise.  Either way it prints,
for each job class (the label before ``:``, such as ``swap-det``), how many
jobs moved each factor hash (R11, R12, R22) and each state hash (omega,
gamma and ``a`` for a deterministic job, the sketch for a randomized one),
and the largest relative ``rho`` gap, to be read against the 1-ulp
sensitivity of the deterministic engine's ``rho`` on these jobs.
"""
from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

# relative rho gap that one ulp of change in the input moves on swap-det
RHO_ULP_SENSITIVITY = 3.7e-8
# fields of a job line after the label, and the decisions among them
FIELDS = ("k", "stop_reason", "swap_count", "rho", "perm", "swaps", "R11", "R12", "R22")
DECISIONS = ("k", "stop_reason", "swap_count", "perm", "swaps")
# trailing hashes of a deterministic and of a randomized job line
STATE_HASHES = {3: ("omega", "gamma", "a"), 1: ("sketch",)}


def parse(path: Path) -> tuple[dict[str, dict[str, str]], dict[str, str]]:
    """(job label -> named fields, label -> whole line of the other lines)."""
    jobs, other = {}, {}
    for line in path.read_text().splitlines():
        label, *rest = line.split()
        if label.startswith("qrcp:") or label == "volume-decay":
            other[label] = line
            continue
        extra = STATE_HASHES.get(len(rest) - len(FIELDS))
        if extra is None:
            raise ValueError(f"{path}: not a job line: {line}")
        jobs[label] = dict(zip(FIELDS + extra, rest))
    return jobs, other


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="compare_decisions.py output of the parent")
    p.add_argument("change", type=Path, help="compare_decisions.py output of the change")
    args = p.parse_args(argv)
    try:
        old_jobs, old_other = parse(args.parent)
        new_jobs, new_other = parse(args.change)
    except ValueError as err:
        p.error(str(err))
    failures = []
    if old_jobs.keys() != new_jobs.keys():
        failures.append(f"job labels differ: {sorted(old_jobs.keys() ^ new_jobs.keys())}")
    for label in sorted(old_other.keys() | new_other.keys()):
        if old_other.get(label) != new_other.get(label):
            failures.append(f"{label}: line differs")

    moved = defaultdict(lambda: defaultdict(int))
    count = defaultdict(int)
    gaps = defaultdict(lambda: (0.0, ""))
    for label in (label for label in old_jobs if label in new_jobs):
        old, new = old_jobs[label], new_jobs[label]
        cls = label.split(":")[0]
        count[cls] += 1
        for name in DECISIONS:
            if old[name] != new[name]:
                failures.append(f"{label}: {name} {old[name]} -> {new[name]}")
        for name in old.keys() - set(FIELDS[:6]):
            moved[cls][name] += old[name] != new.get(name)
        r0, r1 = float(old["rho"]), float(new["rho"])
        gap = abs(r1 - r0) / abs(r0) if r0 else abs(r1)
        if gap > gaps[cls][0]:
            gaps[cls] = (gap, label)

    order = ("R11", "R12", "R22", "omega", "gamma", "a", "sketch")
    for cls in count:
        hashes = ", ".join(
            f"{name} {moved[cls][name]}" for name in order if name in moved[cls]
        )
        gap, where = gaps[cls]
        print(f"{cls}: {count[cls]} jobs; hashes moved: {hashes}; "
              f"max rel rho gap {gap:.2g} {where}")
    worst, where = max(gaps.values(), default=(0.0, ""))
    print(f"largest relative rho gap {worst:.2g} {where}; "
          f"1-ulp sensitivity {RHO_ULP_SENSITIVITY:.2g}")
    print(f"qrcp and volume-decay lines: {len(old_other)} in the parent, "
          f"{sum(old_other.get(k) == v for k, v in new_other.items())} identical")
    for line in failures:
        print("DIFFERS", line)
    print("decisions match" if not failures else f"{len(failures)} differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
