"""Synthetic phantoms, their seeded stream, and the subjects the fit and the sweep read.

A phantom is an air background with ellipsoidal soft-tissue organs, each
drawn as Gaussian noise around a mean HU. It is a draw-free layout
(``_layout``: labels, names, each organ's box and mask) plus one seeded
stream, which ``_fill`` writes into float32 buffers its caller allocated.
``_fill_all`` is the stream's one entry point: it fills the phantoms of a
list of seeds on ``_fill_threads`` threads. ``generate_phantom`` (and so
``ctwindow phantom``) reads it with one seed, on the calling thread alone,
and ``run_experiment`` with a suite's seeds. Each phantom's stream and
buffers are its own, so no byte depends on the thread count or on the
order the fills finish in.

The fit reads a (CtVolume, LabelVolume) pair as a training subject: each
nonzero id's float32 values in plane order along the slice axis, with its
voxel count per plane (``_in_planes``). The sweep reads a test subject:
every id's float32 values, sorted (``_sorted_subject``). The ids are the
ones ``LabelVolume`` found when it was built. Neither depends on the
strategy. A subject built from a phantom's draws goes through the same two
helpers, so it holds the values a reduction of ``generate_phantom``'s pair
gives.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from ._checks import _list_of, number, number_list, text
from .volume import CtVolume, LabelVolume

DRAW_SLAB = 1 << 14  # float64 values a phantom fill draws at a time: 128 KiB per fill thread
# Each fill thread keeps about 0.3 MiB in its own glibc malloc arena, and the
# draws are under half of a sweep's time, so more threads add memory for
# little time.
MAX_FILL_THREADS = 4


# The config classes check every field as they are built; each message starts
# with the field name, so a parser need only put the JSON path in front of it.
# Lists become tuples of the same numbers, and whole-number fields become ints.


@dataclass
class OrganSpec:
    label_id: int
    label_name: str
    center: tuple
    radii: tuple
    mean_hu: float
    noise_std: float = 0.0

    def __post_init__(self):
        self.label_id = number(self.label_id, "label_id", whole=True, lo=1, hi=255)
        text(self.label_name, "label_name")  # str() would write rows named None or ['x', 1]
        self.center = number_list(self.center, "center", 3)
        self.radii = number_list(self.radii, "radii", 3, above=0)
        number(self.mean_hu, "mean_hu")
        number(self.noise_std, "noise_std", lo=0)


@dataclass
class PhantomConfig:
    dims: tuple
    organs: list
    background_hu: float = -1000.0
    background_noise_std: float = 0.0
    spacing: tuple = (1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        self.dims = number_list(self.dims, "dims", 3, whole=True, lo=1)
        _list_of(self.organs, "organs", OrganSpec)
        number(self.background_hu, "background_hu")
        number(self.background_noise_std, "background_noise_std", lo=0)
        self.spacing = number_list(self.spacing, "spacing", 3, above=0)
        self.seed = number(self.seed, "seed", whole=True, lo=0)
        ids = [o.label_id for o in self.organs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"organs: label ids must be unique, got {ids}")
        for i, organ in enumerate(self.organs):
            if any(float(c) - float(r) < 0 or float(c) + float(r) > d - 1
                   for c, r, d in zip(organ.center, organ.radii, self.dims)):
                raise ValueError(f"organs[{i}]: the ellipsoid of {organ.label_name!r} "
                                 f"extends outside dims {self.dims}")


def generate_phantom(cfg):
    """Build one (CtVolume, LabelVolume) pair; deterministic under cfg.seed.

    The labels come from the draw-free layout (``_layout``) and the values
    from its stream (``_fill_all`` with one seed, which starts no thread):
    the background's at the zeros of the labels, then each organ's onto its
    mask, in C order inside its box.
    """
    if not isinstance(cfg, PhantomConfig):
        raise ValueError(f"cfg: expected a PhantomConfig, got {cfg!r}")
    labels, names, organs = _layout(cfg)
    background, drawn = _fill_all(cfg, organs, [cfg.seed], labels)[0]
    voxels = np.empty(cfg.dims, dtype=np.float32)
    voxels[labels == 0] = background
    for (_, box, mask), values in zip(organs, drawn):
        voxels[box][mask] = values
    return (CtVolume(voxels, spacing=cfg.spacing), LabelVolume(labels, label_names=names))


def _layout(cfg):
    """The draw-free part of a phantom: ``(labels, names, organs)``.

    ``labels`` is the uint8 label volume, ``names`` maps each id to its
    name, and ``organs`` holds one ``(organ, box, mask)`` per organ in config
    order. An organ's mask is the float64 sum of one term
    ``((g - c) / r) ** 2`` per axis, ``<= 1``. Each axis' term is computed
    once over that axis, and the mask only on the box of indices where every
    axis' term is ``<= 1``: outside it one term exceeds 1, and a float64 sum
    of non-negative terms is at least each term, so the mask there is all
    False. C order inside the box is the volume's C order restricted to the
    box, so an organ's draws land on the same voxels as with a mask over the
    whole volume. An organ with radii too small to cover a grid point has an
    empty box and draws nothing. The layout depends on no seed, so every
    phantom of one config shares it.
    """
    labels = np.zeros(cfg.dims, dtype=np.uint8)
    axes = [np.arange(d, dtype=np.float64) for d in cfg.dims]
    names = {0: "background"}
    organs = []
    for organ in cfg.organs:
        # a subnormal radius overflows a term to inf, which still compares > 1
        with np.errstate(over="ignore"):
            terms = [((x - c) / r) ** 2 for x, c, r in zip(axes, organ.center, organ.radii)]
        inside = [np.flatnonzero(t <= 1.0) for t in terms]
        box = tuple(slice(i[0], i[-1] + 1) if i.size else slice(0, 0) for i in inside)
        t0, t1, t2 = (t[b] for t, b in zip(terms, box))
        mask = t0[:, None, None] + t1[:, None] + t2 <= 1.0
        if np.any(labels[box][mask]):
            raise ValueError(f"organ {organ.label_name!r} overlaps another organ")
        labels[box][mask] = organ.label_id
        names[organ.label_id] = organ.label_name
        organs.append((organ, box, mask))
    return labels, names, organs


def _buffers(cfg, organs, background):
    """Unwritten float32 buffers for one phantom's ``_fill``; ``background`` False gives None."""
    sizes = [int(mask.sum()) for *_, mask in organs]
    return (np.empty(math.prod(cfg.dims) - sum(sizes), dtype=np.float32) if background else None,
            [np.empty(size, dtype=np.float32) for size in sizes])


def _fill(cfg, organs, seed, background, drawn, labels=None):
    """Write phantom ``seed``'s stream into the caller's buffers; the only code that opens one.

    The stream is the background over the whole volume in C order, then
    each organ in config order, in C order inside its box. ``background``
    and ``drawn`` are ``_buffers``; ``organs`` and ``labels`` are those of
    ``_layout(cfg)``. ``Generator.normal`` computes ``mean + std * z`` in
    float64 for the stream's next standard normal z. One slab loop draws
    every label in stream order: each checks its arguments with a ``normal``
    call of size 0, then draws the same z into one shared float64 slab of
    at most ``DRAW_SLAB`` values, scales it in place and casts it into its
    float32 buffer, so no float64 array of a whole volume or organ is held.
    An organ keeps every draw; the background keeps only the values at the
    zeros of ``labels``. With ``labels`` None, the background draws only
    move the stream: no scaling, no cast, and ``background`` is None. Each
    phantom's stream and buffers are its own, so phantoms may be filled on
    different threads at once (``_fill_all``).
    """
    rng = np.random.default_rng(seed)
    size = math.prod(cfg.dims)
    slab = np.empty(min(size, DRAW_SLAB))
    fills = [(cfg.background_hu, cfg.background_noise_std, size, background, labels)]
    fills += [(organ.mean_hu, organ.noise_std, out.size, out, None)
              for (organ, _, _), out in zip(organs, drawn)]
    for mean, std, n, out, zeros_of in fills:
        rng.normal(mean, std, size=0)  # its argument checks and errors, with no draw
        written = 0
        for start in range(0, n, DRAW_SLAB):
            part = slab[:n - start]
            rng.standard_normal(out=part)
            if out is None:
                continue
            part *= std
            part += mean
            if zeros_of is not None:
                part = part[zeros_of.reshape(-1)[start:start + part.size] == 0]
            out[written:written + part.size] = part
            written += part.size


def _fill_all(cfg, organs, seeds, labels):
    """Each seed's phantom, in seed order: buffers allocated here, filled on worker threads.

    A phantom is ``(background, organ_values)``, filled by ``_fill``;
    ``organs`` and ``labels`` are those of ``_layout(cfg)``. ``background``
    holds the float32 values at the zeros of ``labels`` (the non-organ
    voxels) in C order, or is None when ``labels`` is; ``organ_values``
    holds each organ's float32 values in config order, in C order inside
    its box.

    The fills run on ``_fill_threads(len(seeds))`` threads, the calling
    thread one of them: thread t fills phantoms t, t + threads, ... and
    allocates none of the buffers it writes. Every thread is joined before
    this returns or raises, and the first failing thread's exception is
    re-raised here. (``concurrent.futures.ThreadPoolExecutor`` leaves the
    calling thread idle; on a 2-CPU Linux host ``fit_heavy`` ran about 7%
    slower and peaked about 1 MiB higher with it.)
    """
    buffers = [_buffers(cfg, organs, labels is not None) for _ in seeds]
    threads = _fill_threads(len(seeds))
    errors = [None] * threads

    def work(t):
        try:
            for seed, (background, drawn) in zip(seeds[t::threads], buffers[t::threads]):
                _fill(cfg, organs, seed, background, drawn, labels)
        except BaseException as exc:  # re-raised in the calling thread
            errors[t] = exc

    workers = []
    try:
        for t in range(1, threads):
            worker = threading.Thread(target=work, args=(t,))
            worker.start()
            workers.append(worker)
        work(0)
    finally:
        for worker in workers:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return buffers


def _fill_threads(n):
    """Threads ``_fill_all`` fills ``n`` phantoms on: at most ``n`` and ``MAX_FILL_THREADS``.

    Within those, one per CPU this process may run on
    (``os.sched_getaffinity`` where the platform has it, else
    ``os.cpu_count()``), so a run pinned to one CPU fills on the calling
    thread alone.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(n, cpus, MAX_FILL_THREADS))


@dataclass
class _Subject:
    """A (CtVolume, LabelVolume) pair as the fit (``_training_subject``) or the sweep reads it."""

    label_names: dict
    values: dict  # label id -> its voxel values as float32, in plane order or sorted
    plane_counts: dict = None  # training only: label id -> its voxel count in each plane
    planes: int = 0  # training only


def _entries(items, what):
    """``enumerate(items)``, or a ValueError naming ``what`` when ``items`` is no collection."""
    try:
        return enumerate(items)
    except TypeError:  # a bare CtVolume or LabelVolume, say
        raise ValueError(f"{what}: expected a collection of (CtVolume, LabelVolume) pairs, "
                         f"got {type(items).__name__}") from None


def _pair(entry, what):
    """``entry`` if it is a (CtVolume, LabelVolume) pair of equal dims, else a ValueError."""
    if not (isinstance(entry, (tuple, list)) and len(entry) == 2
            and isinstance(entry[0], CtVolume) and isinstance(entry[1], LabelVolume)):
        got = (f"({', '.join(type(e).__name__ for e in entry)})"
               if isinstance(entry, (tuple, list)) else type(entry).__name__)
        raise ValueError(f"{what}: expected a (CtVolume, LabelVolume) pair, got {got}")
    if entry[0].dims != entry[1].dims:
        raise ValueError(f"{what}: volume/label dims mismatch: {entry[0].dims} vs {entry[1].dims}")
    return entry


def _in_planes(voxels, mask, slice_axis):
    """The float32 values at ``mask`` in plane order along ``slice_axis``, and its plane counts."""
    mask = np.moveaxis(mask, slice_axis, 0)
    values = np.moveaxis(voxels, slice_axis, 0)[mask].astype(np.float32, copy=False)
    return values, mask.reshape(len(mask), -1).sum(axis=1)


def _training_subject(vol, lab, slice_axis):
    """Each nonzero id's values in plane order along ``slice_axis``, with its plane counts.

    The labels are copied into plane order once, so each id's mask is laid
    out plane by plane and its per-plane counts are row sums.
    """
    labels = np.ascontiguousarray(np.moveaxis(lab.voxels, slice_axis, 0))
    voxels = np.moveaxis(vol.voxels, slice_axis, 0)
    values, plane_counts = {}, {}
    for lid in lab.ids[lab.ids != 0].tolist():
        values[lid], plane_counts[lid] = _in_planes(voxels, labels == lid, 0)
    return _Subject(lab.label_names, values, plane_counts, labels.shape[0])


def _drawn_training_subject(cfg, names, organs, drawn, slice_axis):
    """``_training_subject`` of a phantom of ``cfg``, from its organs' draws ``drawn``.

    ``names`` and ``organs`` are those of ``_layout(cfg)``; no label volume is
    read and no background value kept. Each organ's draws are laid onto its
    box's mask and read back through ``_in_planes``, as a pair's id mask is.
    """
    values, plane_counts = {}, {}
    for (organ, box, mask), drawn in zip(organs, drawn):
        if drawn.size:
            laid = np.empty(mask.shape, dtype=np.float32)  # only the mask's voxels are read
            laid[mask] = drawn
            values[organ.label_id], per_plane = _in_planes(laid, mask, slice_axis)
            counts = plane_counts[organ.label_id] = np.zeros(cfg.dims[slice_axis], per_plane.dtype)
            counts[box[slice_axis]] = per_plane
    return _Subject(names, dict(sorted(values.items())), dict(sorted(plane_counts.items())),
                    cfg.dims[slice_axis])


def _sorted_subject(names, values):
    """A subject as the sweep reads it: each id's nonempty float32 values, sorted in place."""
    values = {lid: v for lid, v in sorted(values.items()) if v.size}
    for v in values.values():
        v.sort()
    return _Subject(names, values)


def _test_subject(vol, lab):
    """A test pair as the sweep reads it (``_sorted_subject``)."""
    values = {lid: vol.voxels[lab.voxels == lid].astype(np.float32, copy=False)
              for lid in lab.ids.tolist()}
    return _sorted_subject(lab.label_names, values)


def _drawn_test_subject(names, organs, background, drawn):
    """``_test_subject`` of a phantom, from its draws ``(background, drawn)`` (``_fill_all``).

    ``names`` and ``organs`` are those of ``_layout``; the draws are the
    multisets of the phantom's id masks, and are sorted in place.
    """
    values = {organ.label_id: v for (organ, _, _), v in zip(organs, drawn)}
    return _sorted_subject(names, {0: background, **values})
