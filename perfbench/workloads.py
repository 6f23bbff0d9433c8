"""The benchmark's workloads: seeded inputs, one pass each, and output checks.

A workload builds its inputs from a seed alone, runs one pass through the
program's public API or CLI, and names the files the pass wrote, so that
passes can be compared byte for byte with each other and, at
``DEFAULT_SEED``, with the digests recorded in ``digests.json``.

Passes take a ``span(name)`` callable that returns a context manager. The
untraced run passes ``no_span``; the traced run passes ``Tracer.span``, so
both runs execute the same code.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import replace

import numpy as np

import ctwindow
from ctwindow import cli

DEFAULT_SEED = 7  # the seed of ``reference_experiment()``

FIT_HEAVY_DIMS = (128, 128, 32)
FIT_HEAVY_SHIFTS = [-100, 0, 100]

CLI_SHAPE = (512, 512, 24)
CLI_SPACING = (0.8, 0.8, 2.5)
CLI_SUBJECTS = 30
CLI_TIED_SUBJECTS = 12  # label 3 ties on these, so its Wilcoxon tests run exact
CLI_CROP = (448, 448)
CLI_METHODS = ("STN", "WIR", "SWN")
CLI_LABELS = {0: "background", 1: "liver", 2: "kidney", 3: "spine"}
# (label, center as a share of dims, radii as a share of dims, mean HU)
CLI_ORGANS = (
    (1, (0.38, 0.45, 0.5), (0.16, 0.13, 0.40), 60.0),
    (2, (0.65, 0.55, 0.5), (0.07, 0.09, 0.30), 150.0),
    (3, (0.50, 0.70, 0.5), (0.05, 0.05, 0.48), 400.0),
)


class CheckError(Exception):
    """A pass wrote an output that fails the output check."""


def no_span(name):
    return contextlib.nullcontext()


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_files(files):
    return {name: sha256_file(path) for name, path in sorted(files.items())}


# --- the two sweep workloads -------------------------------------------------

def ref_sweep_config(seed):
    return ctwindow.reference_experiment(seed)


def fit_heavy_config(seed):
    """The reference organs scaled into larger phantoms, few shifts."""
    exp = ctwindow.reference_experiment(seed)
    scale = [new / old for new, old in zip(FIT_HEAVY_DIMS, exp.phantom.dims)]
    organs = [replace(o, center=tuple(c * s for c, s in zip(o.center, scale)),
                      radii=tuple(r * s for r, s in zip(o.radii, scale)))
              for o in exp.phantom.organs]
    phantom = replace(exp.phantom, dims=FIT_HEAVY_DIMS, organs=organs)
    return replace(exp, phantom=phantom, n_train=5, n_test=2, shifts=FIT_HEAVY_SHIFTS)


class SweepWorkload:
    """``run_experiment`` on a config derived from the seed."""

    def __init__(self, name, make_config):
        self.name = name
        self.make_config = make_config

    def build(self, seed, workdir):
        return self.make_config(seed)

    def load(self, seed, workdir):
        return self.make_config(seed)

    def input_size(self, cfg, workdir):
        n_voxels = (cfg.n_train + cfg.n_test) * math.prod(cfg.phantom.dims)
        # phantoms are generated in memory: float32 HU plus uint8 labels
        return {"voxels": n_voxels, "bytes_in_memory": 5 * n_voxels, "bytes_on_disk": 0}

    def input_digest(self, cfg, workdir):
        return hashlib.sha256(repr(cfg).encode()).hexdigest()

    def cells(self, cfg):
        return len(cfg.shifts) * cfg.n_test

    def run_pass(self, cfg, outdir, span):
        with span("simulation.run_experiment"):
            rows, _ = ctwindow.run_experiment(cfg)
        path = os.path.join(outdir, "sweep.csv")
        ctwindow.write_sweep_csv(rows, path)
        return {"sweep.csv": path}

    def check(self, cfg, files):
        with open(files["sweep.csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if tuple(rows[0]) != ("shift_hu", "strategy", "label_id", "label_name", "mean_dice"):
            raise CheckError(f"sweep.csv header {rows[0]}")
        expected = len(cfg.shifts) * len(cfg.phantom.organs) * len(cfg.strategies)
        if len(rows) - 1 != expected:
            raise CheckError(f"sweep.csv has {len(rows) - 1} rows, expected {expected}")
        for row in rows[1:]:
            if not 0.0 <= float(row[4]) <= 1.0:
                raise CheckError(f"sweep.csv dice out of [0, 1]: {row}")


# --- the CLI workload --------------------------------------------------------

def _ellipsoid(shape, center, radii):
    axes = np.ogrid[tuple(slice(0, n) for n in shape)]
    return sum(((a - c * n) / (r * n)) ** 2
               for a, n, c, r in zip(axes, shape, center, radii)) <= 1.0


def make_cli_arrays(seed, shape=CLI_SHAPE):
    """Scan-shaped int16 image, truth labels and a jittered prediction."""
    rng = np.random.default_rng(seed)
    body = _ellipsoid(shape, (0.5, 0.5, 0.5), (0.42, 0.34, 10.0))
    hu = np.where(body, np.float32(20.0), np.float32(-1000.0))
    truth = np.zeros(shape, np.uint8)
    pred = np.zeros(shape, np.uint8)
    for label, center, radii, mean_hu in CLI_ORGANS:
        center = np.add(center, rng.uniform(-0.02, 0.02, 3))
        mask = _ellipsoid(shape, center, radii)
        truth[mask] = label
        hu[mask] = mean_hu + rng.uniform(-10.0, 10.0)
        # a prediction that misses by a few voxels and a few percent of size
        pred_center = center + rng.uniform(-2.0, 2.0, 3) / np.asarray(shape)
        pred_radii = np.multiply(radii, rng.uniform(0.93, 1.07, 3))
        pred[_ellipsoid(shape, pred_center, pred_radii)] = label
    hu += rng.standard_normal(shape, dtype=np.float32) * np.float32(20.0)
    image = np.clip(np.rint(hu), -1024, 3071).astype(np.int16)
    return image, truth, pred


def make_dice_tables(seed):
    """Per-method dice scores, 30 subjects x 3 labels, with ties on label 3."""
    rng = np.random.default_rng([seed, 1])
    base = rng.beta(20.0, 3.0, size=(CLI_SUBJECTS, 3))
    scores = {
        "STN": base,
        "WIR": np.clip(base - rng.uniform(0.0, 0.05, base.shape), 0.0, 1.0),
        "SWN": np.clip(base + rng.uniform(-0.01, 0.04, base.shape), 0.0, 1.0),
    }
    for method in ("WIR", "SWN"):
        scores[method][:CLI_TIED_SUBJECTS, 2] = base[:CLI_TIED_SUBJECTS, 2]
    return scores


def cli_input_paths(workdir):
    paths = {"image": "image.ctv.json", "truth": "truth.ctv.json",
             "pred": "pred.ctv.json", "augment": "augment.json"}
    paths.update({f"dice_{m}": f"dice_{m}.csv" for m in CLI_METHODS})
    return {k: os.path.join(workdir, v) for k, v in paths.items()}


class CliWorkload:
    """Five CLI commands on scan-shaped CTV files read back from disk."""

    name = "cli_volume"

    def __init__(self, shape=CLI_SHAPE):
        self.shape = tuple(shape)

    def build(self, seed, workdir):
        paths = cli_input_paths(workdir)
        image, truth, pred = make_cli_arrays(seed, self.shape)
        ctwindow.save_volume(ctwindow.CtVolume(image, spacing=CLI_SPACING), paths["image"])
        for key, labels in (("truth", truth), ("pred", pred)):
            ctwindow.save_label_volume(ctwindow.LabelVolume(labels, label_names=CLI_LABELS),
                                       paths[key], spacing=CLI_SPACING)
        for method, table in make_dice_tables(seed).items():
            records = [ctwindow.DiceRecord(f"s{i:02d}", label, CLI_LABELS[label],
                                           float(table[i, label - 1]))
                       for i in range(CLI_SUBJECTS) for label in (1, 2, 3)]
            ctwindow.write_dice_csv(records, paths[f"dice_{method}"])
        with open(paths["augment"], "w", encoding="utf-8") as fh:
            json.dump({"crop_size": list(CLI_CROP), "max_rotation_deg": 10.0,
                       "max_translation": [20.0, 20.0], "seed": seed}, fh)
        return self.load(seed, workdir)

    def load(self, seed, workdir):
        return {"seed": seed, "paths": cli_input_paths(workdir)}

    def input_size(self, inputs, workdir):
        on_disk = sum(os.path.getsize(os.path.join(workdir, f)) for f in os.listdir(workdir))
        # an int16 image and two uint8 label volumes, truth and prediction
        n_voxels = 3 * math.prod(self.shape)
        return {"voxels": n_voxels, "bytes_in_memory": 4 * math.prod(self.shape),
                "bytes_on_disk": on_disk}

    def input_digest(self, inputs, workdir):
        return digest_files({f: os.path.join(workdir, f) for f in os.listdir(workdir)})

    def cells(self, inputs):
        return 1

    def run_pass(self, inputs, outdir, span):
        p = inputs["paths"]

        def out(name):
            return os.path.join(outdir, name)

        def call(layer, argv, stdout_name=None):
            buf = io.StringIO()
            with span(layer), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise CheckError(f"ctwindow {argv[0]} exited with {code}")
            if stdout_name:
                with open(out(stdout_name), "w", encoding="utf-8") as fh:
                    fh.write(buf.getvalue())

        call("cli.window", ["window", p["image"], out("stn.ctv.json"),
                            "--strategy", "STN", "--mode", "test"], "stn.stdout")
        call("cli.window", ["window", p["image"], out("swn.ctv.json"),
                            "--strategy", "SWN", "--mode", "train", "--x", "50", "--y", "50",
                            "--seed", str(inputs["seed"])], "swn.stdout")
        call("cli.dice", ["dice", p["pred"], p["truth"], "-o", out("dice.csv")])
        call("cli.compare", ["compare", *[f"--table={m}={p['dice_' + m]}" for m in CLI_METHODS],
                             "--reference", "STN", "-o", out("compare.csv")])
        call("cli.augment", ["augment", p["image"], p["truth"], p["augment"],
                             "--out-image", out("aug_image.ctv.json"),
                             "--out-labels", out("aug_labels.ctv.json")])
        names = [f"{stem}.{ext}" for stem in ("stn", "swn", "aug_image", "aug_labels")
                 for ext in ("ctv.json", "raw")]
        names += ["stn.stdout", "swn.stdout", "dice.csv", "compare.csv", "compare.meta.json"]
        return {name: out(name) for name in names}

    def check(self, inputs, files):
        nz = self.shape[2]
        for name in ("stn", "swn"):
            values = _read_raw(files, name, "float32", list(self.shape))
            if not (np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 255.0):
                raise CheckError(f"window {name} output outside [0, 255]")
        with open(files["swn.stdout"], encoding="utf-8") as fh:
            draws = [json.loads(line) for line in fh]
        if [d["slice"] for d in draws] != list(range(nz)):
            raise CheckError("window SWN printed the wrong per-slice windows")
        _check_csv(files["dice.csv"], 3, lambda row: 0.0 <= float(row[3]) <= 1.0)
        _check_csv(files["compare.csv"], 3 * len(CLI_METHODS),
                   lambda row: int(row[3]) == CLI_SUBJECTS)
        with open(files["compare.meta.json"], encoding="utf-8") as fh:
            if json.load(fh)["reference"] != "STN":
                raise CheckError("compare.meta.json names the wrong reference")
        _read_raw(files, "aug_image", "float32", [*CLI_CROP, nz])
        labels = _read_raw(files, "aug_labels", "uint8", [*CLI_CROP, nz])
        if not set(np.unique(labels).tolist()) <= set(CLI_LABELS):
            raise CheckError("augment invented label ids")


def _read_raw(files, name, dtype, dims):
    with open(files[f"{name}.ctv.json"], encoding="utf-8") as fh:
        header = json.load(fh)
    if header["dtype"] != dtype or header["dims"] != dims:
        raise CheckError(f"{name}: header {header['dtype']} {header['dims']}, "
                         f"expected {dtype} {dims}")
    values = np.fromfile(files[f"{name}.raw"], dtype=dtype)
    if values.size != math.prod(dims):
        raise CheckError(f"{name}: raw file holds {values.size} voxels")
    return values


def _check_csv(path, n_rows, row_ok):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != n_rows or not all(row_ok(row) for row in rows):
        raise CheckError(f"{os.path.basename(path)}: {len(rows)} rows, expected {n_rows} valid")


WORKLOADS = {
    "ref_sweep": SweepWorkload("ref_sweep", ref_sweep_config),
    "fit_heavy": SweepWorkload("fit_heavy", fit_heavy_config),
    "cli_volume": CliWorkload(),
}
