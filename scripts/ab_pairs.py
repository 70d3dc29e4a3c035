#!/usr/bin/env python3
"""Alternating parent/change ``perfbench`` pairs for a performance claim.

Exports the parent revision into a temporary directory (``git
archive``, so the repository gains no worktree or branch), then runs
``python3 -m perfbench`` — as a black box, in each tree — alternately
on the parent and on the working tree, for every named workload.  The
order flips every pair so neither side always runs on a warmer box.
For each workload and metric it prints the median and quartiles of both
sides, the change/parent ratio of the medians, how many pairs the change
won (by the direction ``BENCHMARK.json`` declares), and a two-sided
sign-test p-value on those wins; then one summary line per workload for
``CHANGES.md``.

Run from the repo root::

    python3 scripts/ab_pairs.py --workload archive_read --pairs 10
    python3 scripts/ab_pairs.py --workload job_life --workload ingest_archive \\
        --pairs 3 --seed 7 --trace 1

``--parent`` names the revision (default ``HEAD``: the working tree's
uncommitted change against its last commit).  ``--metric``
(repeatable) limits the summary lines to the named metrics.  Failed
checks are counted and shown.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def sign_test(wins: int, losses: int) -> float:
    """Two-sided binomial p-value of ``wins`` out of the untied pairs."""
    n = wins + losses
    if not n:
        return 1.0
    extreme = min(wins, losses)
    tail = sum(math.comb(n, k) for k in range(extreme + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def run_perfbench(tree: Path, workload: str, args: argparse.Namespace,
                  ) -> Dict[str, float]:
    """One perfbench run in ``tree``: its metrics plus ``failed``."""
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as out:
        command = [
            sys.executable, "-m", "perfbench", "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", out,
        ] + (["--quick"] if args.quick else [])
        completed = subprocess.run(command, cwd=tree, capture_output=True,
                                   text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench in {tree} exited "
                         f"{completed.returncode}:\n{completed.stderr}")
    document = json.loads(lines[-1])
    readings = {name: metric["value"]
                for name, metric in document["metrics"].items()}
    readings["failed"] = document["failed"]
    return readings


def directions(tree: Path) -> Dict[str, str]:
    """Metric name -> "lower"/"higher", as BENCHMARK.json declares."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    better["failed"] = "lower"
    return better


def report(workload: str, runs: Dict[str, List[Dict[str, float]]],
           better: Dict[str, str], chosen: Sequence[str]) -> List[str]:
    """Print one workload's table; its summary parts for ``chosen``
    metrics (every metric when none is chosen)."""
    pairs = len(runs["change"])
    print(f"\n## {workload}: {pairs} pair(s), median [q1, q3]")
    print(f"{'metric':50s} {'parent':>28s} {'change':>28s} "
          f"{'ratio':>7s} {'wins':>6s} {'p':>6s}")
    summary = []
    for name in runs["parent"][0]:
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        if not any(parent) and not any(change):
            continue  # A layer this workload never enters.
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        ratio = cq[1] / pq[1] if pq[1] else math.nan
        print(f"{name:50s} {pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
              f"{'':>2s}{cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]"
              f"{'':>2s}{ratio:7.3f} {wins:3d}/{pairs:<2d} "
              f"{sign_test(wins, losses):6.3f}")
        if chosen and name not in chosen:
            continue
        summary.append(
            f"{name} {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] -> "
            f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] "
            f"({ratio:.3f}x, change wins {wins}/{pairs})")
    return summary


def export_revision(revision: str, directory: Path) -> Path:
    """The files of ``revision``, written to ``directory``."""
    tar = subprocess.run(["git", "archive", "--format=tar", revision],
                         cwd=REPO_ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(directory)], input=tar.stdout,
                   check=True)
    return directory


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20170518)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--metric", action="append", default=[],
                        help="metric for the summary line (repeatable)")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="ab-parent-"))
    trees = {"parent": export_revision(args.parent, workdir),
             "change": REPO_ROOT}
    better = directions(REPO_ROOT)
    lines = []
    try:
        for workload in args.workload:
            runs: Dict[str, List[Dict[str, float]]] = {
                "parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else (
                    "change", "parent")
                for side in order:
                    runs[side].append(
                        run_perfbench(trees[side], workload, args))
                print(f"{workload} pair {pair + 1}/{args.pairs} done",
                      file=sys.stderr)
            summary = report(workload, runs, better, args.metric)
            lines.append(f"{workload} (seed {args.seed}, trace "
                         f"{args.trace}, {args.pairs} pairs): "
                         + "; ".join(summary))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n## summary")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
