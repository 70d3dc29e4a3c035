"""Command line of the benchmark.

``python -m perfbench --workload W --seed N --seconds S --trace 0|1``
is one run: it prints every metric by name and unit and ends with the
one-line JSON result ``BENCHMARK.json``'s contract asks for.  Without
``--workload``/``--trace`` it runs the whole set, each run in a fresh
process, and writes the result document; ``--check-repeat`` runs the
set twice and compares.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench.harness import REPO_ROOT, RunResult, run_workload

#: Seed of a run that names none.
DEFAULT_SEED = 20170518
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
DEFAULT_OUT = Path(__file__).resolve().parent / "out"


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def declared(spec: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """Declared metrics of one trace mode, by name."""
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def contract_metrics(spec: Dict[str, Any], result: RunResult,
                     ) -> Dict[str, Dict[str, Any]]:
    """Exactly the declared metrics, each with its declared unit.

    A layer this workload's traced pass never enters reads 0: its busy
    time and its counts on this workload are none.
    """
    names = declared(spec, result.trace)
    unknown = set(result.metrics) - set(names)
    if unknown:
        raise SystemExit(
            f"{result.workload}: metrics not declared in BENCHMARK.json: "
            f"{', '.join(sorted(unknown))}")
    missing = set(names) - set(result.metrics)
    if missing and not result.trace:
        raise SystemExit(
            f"{result.workload}: end-to-end metrics not measured: "
            f"{', '.join(sorted(missing))}")
    return {
        name: {"value": result.metrics.get(name, 0.0), "unit": meta["unit"]}
        for name, meta in names.items()
    }


# -- one run ---------------------------------------------------------------------


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    from perfbench.workloads import WORKLOADS

    result = run_workload(
        WORKLOADS[args.workload[0]], args.seed, args.seconds,
        bool(args.trace), args.out, args.quick)
    metrics = contract_metrics(spec, result)
    print(f"# {result.workload}  trace={int(result.trace)}  "
          f"seed={args.seed}  passes={result.envelope['passes']}"
          f"{'  NOISY' if result.envelope['noisy'] else ''}")
    for name, metric in metrics.items():
        print(f"{name:55s} {metric['value']:14.6g} {metric['unit']}")
    if result.self_time:
        print("# self time per layer span (s): total, self, calls")
        for name, row in sorted(result.self_time.items(),
                                key=lambda item: -item[1]["self_s"]):
            print(f"{name:55s} {row['total_s']:10.4f} {row['self_s']:10.4f}"
                  f" {row['calls']:6d}")
    for failure in result.failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    document = {
        "correct": result.correct,
        "attempted": result.attempted + len(result.failures),
        "failed": result.failed + len(result.failures),
        "metrics": metrics,
    }
    run_file = args.out / f"run-{result.workload}-trace{int(result.trace)}.json"
    run_file.write_text(json.dumps(
        dict(document, workload=result.workload, envelope=result.envelope,
             self_time=result.self_time), indent=1))
    print(json.dumps(document))
    return 0 if result.correct else 1


# -- the whole set -----------------------------------------------------------------


def run_child(args: argparse.Namespace, workload: str, trace: int,
              ) -> Dict[str, Any]:
    """One run in a fresh process; its run file, parsed."""
    command = [
        sys.executable, "-m", "perfbench", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(args.out),
    ] + (["--quick"] if args.quick else [])
    completed = subprocess.run(command, cwd=REPO_ROOT)
    run_file = args.out / f"run-{workload}-trace{trace}.json"
    if completed.returncode not in (0, 1) or not run_file.exists():
        raise SystemExit(
            f"{workload} trace={trace}: run exited {completed.returncode}")
    return json.loads(run_file.read_text())


def run_set(args: argparse.Namespace, workloads: Sequence[str],
            traces: Sequence[int]) -> Dict[str, Any]:
    """Every workload × trace mode; the result document."""
    runs: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        for trace in traces:
            runs.setdefault(workload, {})[f"trace{trace}"] = run_child(
                args, workload, trace)
    return {"seed": args.seed, "seconds": args.seconds, "runs": runs}


def print_set(document: Dict[str, Any], spec: Dict[str, Any]) -> None:
    workloads = list(document["runs"])
    for trace, title in ((0, "end-to-end"), (1, "per-layer")):
        rows = declared(spec, bool(trace))
        if not any(f"trace{trace}" in document["runs"][w] for w in workloads):
            continue
        print(f"\n## {title} metrics")
        print(f"{'metric':52s} {'unit':6s} "
              + " ".join(f"{w:>15s}" for w in workloads))
        for name, meta in rows.items():
            cells = []
            for workload in workloads:
                run = document["runs"][workload].get(f"trace{trace}")
                cells.append(
                    f"{run['metrics'][name]['value']:15.6g}" if run
                    else " " * 15)
            print(f"{name:52s} {meta['unit']:6s} " + " ".join(cells))


def all_correct(document: Dict[str, Any]) -> bool:
    return all(run["correct"] for modes in document["runs"].values()
               for run in modes.values())


def check_repeat(args: argparse.Namespace, spec: Dict[str, Any],
                 workloads: Sequence[str]) -> int:
    """Two sets of end-to-end runs, the second in reverse workload order."""
    first = run_set(args, workloads, [0])
    second = run_set(args, list(reversed(workloads)), [0])
    rows, outside = [], 0
    print(f"\n{'metric':30s} {'workload':16s} {'first':>13s} {'second':>13s}"
          f" {'diff':>8s} {'bound':>6s}")
    for name, meta in declared(spec, False).items():
        for workload in workloads:
            a, b = (doc["runs"][workload]["trace0"]["metrics"][name]["value"]
                    for doc in (first, second))
            diff = abs(b - a) / abs(a) if a else float(b != a)
            ok = diff <= meta["bound"]
            outside += not ok
            rows.append({"metric": name, "workload": workload, "first": a,
                         "second": b, "relative_difference": diff,
                         "bound": meta["bound"], "within_bound": ok})
            print(f"{name:30s} {workload:16s} {a:13.6g} {b:13.6g} "
                  f"{diff:8.2%} {meta['bound']:6.2f}"
                  f"{'' if ok else '  OUTSIDE'}")
    (args.out / "repeat.json").write_text(json.dumps(rows, indent=1))
    correct = all_correct(first) and all_correct(second)
    return 0 if correct and not outside else 1


# -- entry -------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="every input derives from it")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, tracing off; "
                             "1: the traced pass and per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for results, traces and temp files")
    parser.add_argument("--quick", action="store_true",
                        help="one pass over tiny inputs (names, not numbers)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice and compare against the bounds")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    workloads = args.workload or names
    if args.check_repeat:
        return check_repeat(args, spec, workloads)
    if len(workloads) == 1 and args.trace is not None:
        return run_one(args, spec)
    traces = [0, 1] if args.trace is None else [args.trace]
    document = run_set(args, workloads, traces)
    print_set(document, spec)
    (args.out / "result.json").write_text(json.dumps(document, indent=1))
    return 0 if all_correct(document) else 1
