#!/usr/bin/env python3
"""ctwindow benchmark: end-to-end cost of a workload, or its per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref_sweep --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --record-digests

Each workload builds its inputs from ``--seed`` in a fresh process, three
times before one more process runs checked passes for ``--seconds`` and twice
after it; ``setup_s`` is the median of the five set-ups. The lines before the
last are for people: every metric with its unit and sample count,
``error_rate`` and the environment.
The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. README.md explains each metric.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench"
WORKLOADS = ("ref_sweep", "fit_heavy", "cli_volume")
DEFAULT_SEED = 7
SETUPS = (3, 2)  # before and after the measured passes, so slow spells average out
TIME_LIMIT_S = 170  # per workload, under the 180 s a run may take
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(args, deadline):
    """Run child.py with the checkout's sources and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("CTWINDOW_THREADS", "CTWINDOW_KERNELS"):  # the program's defaults
        env.pop(name, None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child.py {args[0]} {args[1]} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child.py {args[0]} {args[1]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def cache_size(level):
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = RUNS / f"{name}-s{seed}-{os.getpid()}"
    setup = ["setup", name, str(seed), str(workdir)]
    try:
        setups = [child(setup, deadline) for _ in range(SETUPS[0])]
        measured = child(["measure", name, str(seed), str(workdir), str(seconds),
                          str(int(trace))], deadline)
        setups += [child(setup, deadline) for _ in range(SETUPS[1])]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(s["input_digest"] != setups[0]["input_digest"] for s in setups):
        raise BenchError(f"{name}: one seed built different inputs")
    if not measured["wall_s"] or measured.get("untraced_wall_s", 0) is None:
        raise BenchError(f"{name}: no pass completed")

    setup_s = [s["import_s"] + s["build_s"] for s in setups]
    wall, cpu = measured["wall_s"], measured["cpu_s"]
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           **measured["environment"], "l2_cache_bytes": cache_size(2),
           "l3_cache_bytes": cache_size(3), "input": setups[0]["input_size"]}
    lines = [f"{name} environment {json.dumps(env, sort_keys=True)}"]
    if not trace:
        metrics = {"wall_s": median(wall), "cpu_s": median(cpu), "setup_s": median(setup_s),
                   "peak_rss_mib": measured["peak_rss_mib"]}
        units = dict(END_TO_END)
        notes = {"wall_s": _samples(wall, "passes"), "cpu_s": _samples(cpu, "passes"),
                 "setup_s": _samples(setup_s, "set-ups") + " (import "
                 + f"{median(s['import_s'] for s in setups):.3f} s + build "
                 + f"{median(s['build_s'] for s in setups):.3f} s)",
                 "peak_rss_mib": "1 process"}
    else:
        import tracing
        metrics = dict(measured["layers"])
        for kernel, rate in measured["kernels_1e6"].items():
            metrics[f"kernels.{kernel}.mvox_s_1e6"] = rate
        metrics["trace.wall_s"] = median(wall)
        metrics["trace.untraced_wall_s"] = measured["untraced_wall_s"]
        metrics["trace.overhead_s"] = median(wall) - measured["untraced_wall_s"]
        units = dict(tracing.PER_LAYER)
        metrics = {k: metrics[k] for k in units}
        notes = {k: f"median of {len(wall)} traced passes" for k in units}
        notes["trace.untraced_wall_s"] = "median of the untraced passes"
    for key, value in metrics.items():
        lines.append(f"{name} {key:<36} {value:>14.6g} {units[key]:<7} {notes[key]}")
    attempted, failed = measured["attempted"], measured["failed"]
    lines.append(f"{name} {'error_rate':<36} {failed / attempted:>14.6g} {'ratio':<7} "
                 f"{failed} of {attempted} passes failed")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "attempted": attempted, "failed": failed,
              "samples": {"wall_s": wall, "cpu_s": cpu, "setup_s": setup_s},
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(RUNS / f"result-{name}-s{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record, lines


def _samples(values, what):
    return f"median of {len(values)} {what}, min {min(values):.4g}, max {max(values):.4g}"


def record_digests():
    """Rewrite digests.json from one pass of every workload at DEFAULT_SEED."""
    digests = {}
    for name in WORKLOADS:
        deadline = time.monotonic() + TIME_LIMIT_S
        workdir = RUNS / f"{name}-record-{os.getpid()}"
        try:
            child(["setup", name, str(DEFAULT_SEED), str(workdir)], deadline)
            out = child(["record", name, str(DEFAULT_SEED), str(workdir)], deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if "digests" not in out:
            raise BenchError(f"{name}: the pass failed; no digests recorded")
        digests[name] = out["digests"]
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite digests.json from seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "ctwindow" / "__init__.py",
                   ROOT / "benchmarks" / "bench_kernels.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; "
                  "run from the root of a ctwindow checkout", file=sys.stderr)
            return 2
    RUNS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.record_digests:
            record_digests()
            return 0
        records = []
        for name in names:
            record, lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
