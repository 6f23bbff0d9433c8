"""In-memory span tracing of the calls into ctwindow's modules.

``Tracer.install`` wraps each traced function at every attribute its callers
look it up through: ``simulation`` and ``cli`` import ``extract_slice`` by
name, so wrapping ``ctwindow.volume.extract_slice`` alone would miss their
calls. Methods are wrapped on their class. ``uninstall`` puts the original
objects back.

A span is ``(id, name, start, end, parent, extra)``. The parent is the
innermost span open on the same thread; a span opened on a pool thread with
nothing open on that thread belongs to the innermost span open on the thread
that installed the tracer, which is the sweep that submitted the work.

Layers are named after their modules, except that ``ctwindow._kernels``
reports as ``kernels``: metric names must start with a letter or a digit.
"""

import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

KERNELS = ("window_normalize", "classify_bands", "label_overlap_counts")
STRATEGIES = ("stn", "wir", "swn")
MODULES = ("kernels", "volume", "windowing", "simulation", "metrics", "stats",
           "augmentation", "cli")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(f"kernels.{k}.{m}", u) for k in KERNELS
     for m, u in (("calls", "count"), ("mvox", "Mvox"), ("s", "s"), ("mvox_s", "Mvox/s"),
                  ("mb_moved", "MB"), ("mvox_s_1e6", "Mvox/s"))]
    + [("volume.extract_slice.calls", "count"), ("volume.extract_slice.s", "s"),
       ("volume.stack_slices.s", "s"), ("volume.shift_intensity.s", "s"),
       ("volume.label_volume_init.calls", "count"), ("volume.label_volume_init.s", "s"),
       ("volume.load.s", "s"), ("volume.load.mb", "MB"),
       ("volume.save.s", "s"), ("volume.save.mb", "MB"),
       ("windowing.normalize.calls", "count"), ("windowing.normalize.s", "s"),
       ("windowing.sample.calls", "count"),
       ("simulation.generate_phantom.s", "s")]
    + [(f"simulation.fit.s.{s}", "s") for s in STRATEGIES]
    + [(f"simulation.sweep.s.{s}", "s") for s in STRATEGIES]
    + [("simulation.predict.calls", "count"), ("simulation.predict.s", "s"),
       ("simulation.sweep.cells", "count"), ("simulation.sweep.threads", "count"),
       ("simulation.sweep.busy_frac", "ratio"),
       ("metrics.multi_label_dice.calls", "count"), ("metrics.multi_label_dice.s", "s"),
       ("stats.compare_methods.s", "s"),
       ("stats.wilcoxon.calls", "count"), ("stats.wilcoxon.exact_calls", "count"),
       ("augmentation.augment_pair.calls", "count"), ("augmentation.augment_pair.s", "s"),
       ("cli.window.s", "s"), ("cli.window.extract_slice_frac", "ratio"),
       ("cli.dice.s", "s"), ("cli.compare.s", "s"), ("cli.augment.s", "s")]
    + [(f"self_s.{m}", "s") for m in MODULES]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
)


def _array_bytes(args, kwargs, result):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    return {"vox": int(np.size(args[0])),
            "bytes": sum(a.nbytes for a in arrays) + result.nbytes}


def _strategy(args, kwargs, index):
    return str(kwargs.get("strategy", args[index] if len(args) > index else "")).lower()


def _sweep_extra(args, kwargs, result):
    from ctwindow.simulation import worker_count
    shifts = kwargs.get("shifts", args[3] if len(args) > 3 else None)
    cells = len(shifts) * len(args[1])
    return {"cells": cells, "threads": worker_count(cells)}


# (owner, attribute, span name, name suffix from the arguments, extra from the call)
TARGETS = (
    [("ctwindow._kernels", k, f"kernels.{k}", None, _array_bytes) for k in KERNELS]
    + [(m, "extract_slice", "volume.extract_slice", None, None)
       for m in ("ctwindow.volume", "ctwindow.simulation", "ctwindow.cli")]
    + [(m, "stack_slices", "volume.stack_slices", None, None)
       for m in ("ctwindow.volume", "ctwindow.simulation", "ctwindow.cli")]
    + [(m, "shift_intensity", "volume.shift_intensity", None, None)
       for m in ("ctwindow.volume", "ctwindow.simulation")]
    + [("ctwindow.volume:LabelVolume", "__post_init__", "volume.label_volume_init", None, None)]
    + [("ctwindow.cli", f, "volume.load", None,
        lambda a, k, r: {"bytes": r.voxels.nbytes})
       for f in ("load_volume", "load_label_volume")]
    + [("ctwindow.cli", f, "volume.save", None,
        lambda a, k, r: {"bytes": a[0].voxels.nbytes})
       for f in ("save_volume", "save_label_volume")]
    + [(m, f, "windowing.normalize", None, None)
       for m in ("ctwindow.simulation", "ctwindow.cli")
       for f in ("normalize_for_training", "normalize_for_testing")]
    + [("ctwindow.cli", "apply_window", "windowing.normalize", None, None),
       ("ctwindow.windowing:WindowSampler", "sample", "windowing.sample", None, None),
       ("ctwindow.simulation", "generate_phantom", "simulation.generate_phantom", None, None),
       ("ctwindow.simulation", "fit_band_segmenter", "simulation.fit",
        lambda a, k: _strategy(a, k, 1), None),
       ("ctwindow.simulation", "run_shift_sweep", "simulation.sweep",
        lambda a, k: _strategy(a, k, 2), _sweep_extra),
       ("ctwindow.simulation:BandSegmenter", "predict", "simulation.predict", None, None),
       ("ctwindow.simulation", "multi_label_dice", "metrics.multi_label_dice", None, None),
       ("ctwindow.cli", "multi_label_dice", "metrics.multi_label_dice", None, None),
       ("ctwindow.cli", "compare_methods", "stats.compare_methods", None, None),
       ("ctwindow.stats", "wilcoxon_signed_rank", "stats.wilcoxon", None,
        lambda a, k, r: {"exact": r.method == "exact"}),
       ("ctwindow.cli", "augment_pair", "augmentation.augment_pair", None, None)]
)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans in memory; ``install`` wraps the program's functions."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = self._stack()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._root[-1]
        except IndexError:
            return None

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, fn, name, suffix, extra):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            label = f"{name}.{suffix(args, kwargs)}" if suffix else name
            info = extra(args, kwargs, result) if extra else None
            tracer.spans.append((sid, label, start, end, parent, info))
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, suffix, extra in TARGETS:
            obj = _resolve(owner)
            original = vars(obj)[attr]
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(original, name, suffix, extra))

    def uninstall(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


class _Span:
    """Context manager recording one span from the benchmark's own code."""

    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = self.tracer._parent(stack)
        stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end, self.parent, None))
        return False


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - covered_length(children[sid], start, end)
            for sid, _, start, end, _, _ in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, named as in ``PER_LAYER``."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls, total, selfs, vox, nbytes = (defaultdict(int), defaultdict(float),
                                        defaultdict(float), defaultdict(int), defaultdict(int))
    exact = cells = threads = 0
    busy = capacity = window_extract = 0.0
    children = defaultdict(list)
    for sid, name, start, end, parent, info in spans:
        children[parent].append(sid)
    for sid, name, start, end, parent, info in spans:
        calls[name] += 1
        total[name] += end - start
        selfs[name] += own[sid]
        if info:
            vox[name] += info.get("vox", 0)
            nbytes[name] += info.get("bytes", 0)
            exact += info.get("exact", False)
        if name.startswith("simulation.sweep."):
            cells += info["cells"]
            threads = max(threads, info["threads"])
            busy += sum(by_id[c][3] - by_id[c][2] for c in children[sid])
            capacity += (end - start) * info["threads"]
        if name == "volume.extract_slice" and _has_ancestor(by_id, parent, "cli.window"):
            window_extract += end - start

    m = {}
    for k in KERNELS:
        layer = f"kernels.{k}"
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.mvox"] = vox[layer] / 1e6
        m[f"{layer}.s"] = total[layer]
        m[f"{layer}.mvox_s"] = vox[layer] / 1e6 / total[layer] if total[layer] else 0.0
        m[f"{layer}.mb_moved"] = nbytes[layer] / 1e6
    m.update({
        "volume.extract_slice.calls": calls["volume.extract_slice"],
        "volume.extract_slice.s": total["volume.extract_slice"],
        "volume.stack_slices.s": total["volume.stack_slices"],
        "volume.shift_intensity.s": total["volume.shift_intensity"],
        "volume.label_volume_init.calls": calls["volume.label_volume_init"],
        "volume.label_volume_init.s": total["volume.label_volume_init"],
        "volume.load.s": total["volume.load"],
        "volume.load.mb": nbytes["volume.load"] / 1e6,
        "volume.save.s": total["volume.save"],
        "volume.save.mb": nbytes["volume.save"] / 1e6,
        "windowing.normalize.calls": calls["windowing.normalize"],
        "windowing.normalize.s": selfs["windowing.normalize"],
        "windowing.sample.calls": calls["windowing.sample"],
        "simulation.generate_phantom.s": total["simulation.generate_phantom"],
    })
    for s in STRATEGIES:
        m[f"simulation.fit.s.{s}"] = total[f"simulation.fit.{s}"]
        m[f"simulation.sweep.s.{s}"] = total[f"simulation.sweep.{s}"]
    m.update({
        "simulation.predict.calls": calls["simulation.predict"],
        "simulation.predict.s": total["simulation.predict"],
        "simulation.sweep.cells": cells,
        "simulation.sweep.threads": threads,
        "simulation.sweep.busy_frac": busy / capacity if capacity else 0.0,
        "metrics.multi_label_dice.calls": calls["metrics.multi_label_dice"],
        "metrics.multi_label_dice.s": total["metrics.multi_label_dice"],
        "stats.compare_methods.s": total["stats.compare_methods"],
        "stats.wilcoxon.calls": calls["stats.wilcoxon"],
        "stats.wilcoxon.exact_calls": exact,
        "augmentation.augment_pair.calls": calls["augmentation.augment_pair"],
        "augmentation.augment_pair.s": total["augmentation.augment_pair"],
        "cli.window.s": total["cli.window"],
        "cli.window.extract_slice_frac":
            window_extract / total["cli.window"] if total["cli.window"] else 0.0,
        "cli.dice.s": total["cli.dice"],
        "cli.compare.s": total["cli.compare"],
        "cli.augment.s": total["cli.augment"],
    })
    module_self = defaultdict(float)
    for name, value in selfs.items():
        module_self[name.split(".")[0]] += value
    m.update({f"self_s.{mod}": module_self[mod] for mod in MODULES})
    return m


def _has_ancestor(by_id, sid, name):
    while sid is not None:
        span = by_id[sid]
        if span[1] == name:
            return True
        sid = span[4]
    return False
