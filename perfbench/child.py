"""One benchmark process: build a workload's inputs, or measure its passes.

Usage (started by run.py, with the checkout's ``src`` on PYTHONPATH):

    python3 perfbench/child.py setup   WORKLOAD SEED WORKDIR
    python3 perfbench/child.py measure WORKLOAD SEED WORKDIR SECONDS TRACE
    python3 perfbench/child.py record  WORKLOAD SEED WORKDIR

Each role prints one JSON object as its last line of standard output.
Inputs live in WORKDIR/inputs and pass outputs in WORKDIR/out. ``setup``
times ``import ctwindow`` in this fresh interpreter plus the input build.
``record`` runs one checked pass and prints its output digests. ``measure``
runs one untimed warm-up pass, then timed passes until SECONDS have passed;
with TRACE=1 it gives half the time to untraced passes and half to traced
ones, then times the kernels at 1e6 voxels.
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

_start = time.perf_counter()
import ctwindow  # noqa: E402 - timed: set-up time includes this import
IMPORT_S = time.perf_counter() - _start

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3


def main(argv):
    if Path(ctwindow.__file__).resolve().parent != ROOT / "src" / "ctwindow":
        sys.exit(f"perfbench: imported ctwindow from {ctwindow.__file__}, "
                 f"not from {ROOT / 'src'}")
    role, name, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    wl = workloads.WORKLOADS[name]
    inputs_dir = os.path.join(workdir, "inputs")
    if role == "setup":
        os.makedirs(inputs_dir, exist_ok=True)
        start = time.perf_counter()
        inputs = wl.build(seed, inputs_dir)
        build_s = time.perf_counter() - start
        result = {"import_s": IMPORT_S, "build_s": build_s,
                  "input_size": wl.input_size(inputs, inputs_dir),
                  "input_digest": wl.input_digest(inputs, inputs_dir)}
    elif role == "record":
        passes = Passes(wl, wl.load(seed, inputs_dir), None, workdir)
        passes.run(workloads.no_span)
        result = {"digests": passes.digests} if not passes.failed else {}
    else:
        result = measure(wl, wl.load(seed, inputs_dir), seed, workdir,
                         float(argv[4]), argv[5] == "1")
    print(json.dumps(result))


class Passes:
    """Runs passes into a scratch directory and checks every output."""

    def __init__(self, wl, inputs, seed, workdir):
        self.wl = wl
        self.inputs = inputs
        self.outdir = os.path.join(workdir, "out")
        self.expected = None
        if seed == workloads.DEFAULT_SEED:
            with open(HERE / "digests.json", encoding="utf-8") as fh:
                self.expected = json.load(fh)[wl.name]
        self.attempted = 0
        self.failed = 0
        self.digests = None

    def run(self, span):
        """One pass; returns (wall_s, cpu_s), or None if the program raised.

        A pass that completes but fails its output check keeps its timing
        and counts as failed.
        """
        self.attempted += 1
        shutil.rmtree(self.outdir, ignore_errors=True)
        os.makedirs(self.outdir)
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            files = self.wl.run_pass(self.inputs, self.outdir, span)
            sample = time.perf_counter() - wall0, time.process_time() - cpu0
        except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        try:
            self.check(files)
        except Exception:  # noqa: BLE001
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        return sample

    def check(self, files):
        self.wl.check(self.inputs, files)
        digests = workloads.digest_files(files)
        if self.expected is not None and digests != self.expected:
            raise workloads.CheckError(
                f"outputs differ from the recorded digests: {diff(digests, self.expected)}")
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            raise workloads.CheckError(
                f"outputs differ from the first pass: {diff(digests, self.digests)}")

    def timed(self, seconds, span, minimum=MIN_PASSES):
        samples = []
        start = time.perf_counter()
        while len(samples) < minimum or time.perf_counter() - start < seconds:
            sample = self.run(span)
            if sample is not None:
                samples.append(sample)
            elif self.failed > self.attempted // 2:
                break
        return samples


def diff(got, want):
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def measure(wl, inputs, seed, workdir, seconds, trace):
    import numpy
    import scipy

    from ctwindow.simulation import worker_count

    passes = Passes(wl, inputs, seed, workdir)
    passes.run(workloads.no_span)  # warm-up: lazy imports, page cache
    result = {"environment": {
        "backend": ctwindow.BACKEND,
        "worker_count": worker_count(wl.cells(inputs)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }}
    if not trace:
        samples = passes.timed(seconds, workloads.no_span)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import tracing
        untraced = passes.timed(seconds / 2, workloads.no_span, minimum=2)
        tracer = tracing.Tracer()
        per_pass, samples, spans = [], [], []
        tracer.install()
        try:
            start = time.perf_counter()
            while len(samples) < 2 or time.perf_counter() - start < seconds / 2:
                sample = passes.run(tracer.span)
                spans = tracer.take()
                if sample is None:
                    break
                samples.append(sample)
                per_pass.append(tracing.layer_metrics(spans))
        finally:
            tracer.uninstall()
        result["layers"] = {k: median([p[k] for p in per_pass]) for k in per_pass[0]} \
            if per_pass else {}
        result["untraced_wall_s"] = median([w for w, _ in untraced]) if untraced else None
        result["kernels_1e6"] = kernel_microbench()
        with open(ROOT / ".perfbench" / f"spans-{wl.name}-s{seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "extra"],
                       "spans": spans}, fh)
    result.update(attempted=passes.attempted, failed=passes.failed,
                  wall_s=[w for w, _ in samples], cpu_s=[c for _, c in samples])
    return result


def kernel_microbench(n=10**6, repeats=7):
    """MVox/s of the active kernel backend, timed by benchmarks/bench_kernels.py."""
    import importlib.util

    import numpy as np

    from ctwindow import _kernels

    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rng = np.random.default_rng(0)
    values = rng.uniform(-2000, 2000, n).astype(np.float32)
    norm = rng.uniform(0, 255, n).astype(np.float32)
    la = rng.integers(0, 4, n).astype(np.uint8)
    lb = rng.integers(0, 4, n).astype(np.uint8)
    backend = _kernels._backend
    times = {
        "window_normalize": bench.bench_window(backend, values, repeats),
        "classify_bands": bench.bench_classify(backend, norm, repeats),
        "label_overlap_counts": bench.bench_counts(backend, la, lb, repeats),
    }
    return {k: n / t / 1e6 for k, t in times.items()}


if __name__ == "__main__":
    main(sys.argv[1:])
