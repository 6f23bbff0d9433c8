#!/usr/bin/env python3
"""Throughput of the NumPy voxel kernels.

Times the three voxel hot loops of ``ctwindow._kernels``, through their
public signatures, on synthetic data and prints MVox/s for each kernel and
size.

Usage: python benchmarks/bench_kernels.py [--sizes 1e5,1e6,1e7] [--repeats 7]
"""

import argparse
import time

import numpy as np

from ctwindow import _kernels


def best_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# perfbench/child.py calls the three bench_* timers as (kernel module, data, repeats).
def bench_window(kernels, values, repeats):
    lo, hi = np.float32(-160.0), np.float32(240.0)
    return best_time(lambda: kernels.window_normalize(values, lo, hi), repeats)


def bench_classify(kernels, values, repeats):
    lo = np.array([52.0, 108.0, 181.0], np.float32)
    hi = np.array([199.0, 255.0, 255.0], np.float32)
    center = (lo + hi) / 2
    labels = np.array([1, 2, 3], np.uint8)
    return best_time(lambda: kernels.classify_bands(values, lo, hi, center, labels,
                                                    "nearest_center"), repeats)


def bench_counts(kernels, labels_a, labels_b, repeats):
    return best_time(lambda: kernels.label_overlap_counts(labels_a, labels_b), repeats)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="1e5,1e6,1e7")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    sizes = [int(float(s)) for s in args.sizes.split(",")]

    rng = np.random.default_rng(0)
    header = f"{'kernel':<22}{'n':>12}{'MVox/s':>10}"
    print(header)
    print("-" * len(header))

    for n in sizes:
        values = rng.uniform(-2000, 2000, n).astype(np.float32)
        norm = rng.uniform(0, 255, n).astype(np.float32)
        la = rng.integers(0, 4, n).astype(np.uint8)
        lb = rng.integers(0, 4, n).astype(np.uint8)
        for kernel, seconds in (
            ("window_normalize", bench_window(_kernels, values, args.repeats)),
            ("classify_bands", bench_classify(_kernels, norm, args.repeats)),
            ("label_overlap_counts", bench_counts(_kernels, la, lb, args.repeats)),
        ):
            print(f"{kernel:<22}{n:>12,}{n / seconds / 1e6:>10.1f}")


if __name__ == "__main__":
    main()
