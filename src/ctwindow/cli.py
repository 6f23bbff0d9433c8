"""Command-line surface.

Subcommands: window, dice, compare, sweep, phantom, augment. Every command
is deterministic given its arguments and config seeds; reruns produce
byte-identical outputs.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import _kernels
from ._checks import FLOAT32_MAX, number, shift_grid
from .augmentation import AugmentConfig, augment_pair
from .metrics import multi_label_dice, read_dice_csv, write_dice_csv
from .model import FitParams
from .phantom import OrganSpec, PhantomConfig
from .simulation import (ExperimentConfig, StrategySpec, experiment_phantom, reference_experiment,
                         run_experiment)
from .stats import compare_methods, write_comparison_csv, write_comparison_metadata
from .sweep import write_sweep_csv
from .volume import (CtVolume, LabelVolume, extract_slice, load_label_volume, load_volume,
                     save_label_volume, save_volume)
from .windowing import MODES, STRATEGIES, SwnParams, WindowSampler, strategy_window

# Not called here; kept because perfbench's tracer wraps these names on this module.
from .volume import stack_slices  # noqa: F401
from .windowing import apply_window, normalize_for_testing, normalize_for_training  # noqa: F401


class ConfigError(ValueError):
    pass


def _check_keys(obj, context, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _objects(value, context):
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list, got {value!r}")
    return value


def _build(cls, obj, context, **parsed):
    """``cls`` built from the keys of a checked JSON object, some replaced by ``parsed``.

    This is the rule for every parser: it checks the keys, passes on only
    those present, and puts the JSON path in front of the class's
    ValueError. The config classes check and default every field, and
    their messages start with the field name.
    """
    try:
        return cls(**{**obj, **parsed})
    except ValueError as exc:
        raise ConfigError(f"{context}.{exc}") from None


def parse_strategy(obj, context="strategy"):
    _check_keys(obj, context, required=("strategy",), optional=("x", "y", "seed"))
    spec = _build(StrategySpec, obj, context)
    if spec.strategy != "SWN":  # the sigmas and the seed are SWN's alone
        _check_keys(obj, context, required=("strategy",))
    return spec


def _integral(value, context):
    """An integral number float32 can hold, as int; 12.0 is accepted, 12.5 is an error, not 12."""
    if not float(number(value, context, lo=-FLOAT32_MAX, hi=FLOAT32_MAX)).is_integer():
        raise ConfigError(f"{context}: shifts must be whole HU, got {value!r}")
    return int(value)


def parse_shifts(obj, context="shifts"):
    if isinstance(obj, list):
        shifts = [_integral(s, context) for s in obj]
    else:
        _check_keys(obj, context, required=("start", "stop", "step"))
        start, stop, step = (_integral(obj[k], context) for k in ("start", "stop", "step"))
        if step <= 0 or stop < start:
            raise ConfigError(f"{context}: need step > 0 and stop >= start")
        shifts = range(start, stop + 1, step)
    try:
        return shift_grid(shifts, context)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_phantom(obj, context="phantom"):
    _check_keys(obj, context, required=("dims", "organs"),
                optional=("spacing_mm", "background_hu", "background_noise_std"))
    organs = []
    for i, org in enumerate(_objects(obj["organs"], f"{context}.organs")):
        octx = f"{context}.organs[{i}]"
        _check_keys(org, octx,
                    required=("label_id", "label_name", "center", "radii", "mean_hu"),
                    optional=("noise_std",))
        organs.append(_build(OrganSpec, org, octx))
    fields = {("spacing" if k == "spacing_mm" else k): v for k, v in obj.items()}
    return _build(PhantomConfig, fields, context, organs=organs)


def parse_fit(obj, context="fit"):
    _check_keys(obj, context, required=(),
                optional=("epochs", "percentiles", "band_epsilon", "tie_break"))
    return _build(FitParams, obj, context)


def parse_experiment(cfg):
    _check_keys(cfg, "config", required=("seed", "phantom", "strategies", "shifts"),
                optional=("n_train", "n_test", "fit", "slice_axis"))
    strategies = [parse_strategy(s, f"strategies[{i}]")
                  for i, s in enumerate(_objects(cfg["strategies"], "config.strategies"))]
    parsed = dict(phantom=parse_phantom(cfg["phantom"]), strategies=strategies,
                  shifts=parse_shifts(cfg["shifts"]))
    if "fit" in cfg:
        parsed["fit"] = parse_fit(cfg["fit"])
    return _build(ExperimentConfig, cfg, "config", **parsed)


def parse_augment(obj, context="augment"):
    _check_keys(obj, context, required=("crop_size",),
                optional=("max_rotation_deg", "max_translation",
                          "pad_value_image", "pad_value_label", "seed"))
    return _build(AugmentConfig, obj, context)


def experiment_to_config(exp):
    """Inverse of parse_experiment; used to print the default config."""
    return {
        "seed": exp.seed,
        "slice_axis": exp.slice_axis,
        "n_train": exp.n_train,
        "n_test": exp.n_test,
        "phantom": {
            "dims": list(exp.phantom.dims),
            "spacing_mm": list(exp.phantom.spacing),
            "background_hu": exp.phantom.background_hu,
            "background_noise_std": exp.phantom.background_noise_std,
            "organs": [asdict(o) for o in exp.phantom.organs],
        },
        "strategies": [
            {k: v for k, v in asdict(s).items() if v is not None} if s.strategy == "SWN"
            else {"strategy": s.strategy} for s in exp.strategies
        ],
        "fit": asdict(exp.fit),
        "shifts": _shifts_to_config(list(exp.shifts)),
    }


def _shifts_to_config(shifts):
    """start/stop/step where that re-encodes the same grid, else the list itself."""
    step = shifts[1] - shifts[0] if len(shifts) > 1 else 1
    if (isinstance(step, int) and step > 0
            and shifts == list(range(shifts[0], shifts[-1] + 1, step))):
        return {"start": shifts[0], "stop": shifts[-1], "step": step}
    return shifts


def cmd_window(args):
    number(args.seed, "--seed", whole=True, lo=0)  # NumPy's own message would not name it
    for option, sigma in (("--x", args.x), ("--y", args.y)):
        number(sigma, option, lo=0)
    volume = load_volume(args.input)
    axis = args.slice_axis
    window = strategy_window(args.strategy, args.mode)
    if window is None:
        # one fresh window per slice, exactly what training normalization draws;
        # WindowSpec checks each as it is drawn, so a bad draw fails before any output.
        # The volume is then windowed in one kernel call, each slice with its own
        # bounds laid along the slice axis; the output keeps the loaded layout.
        sampler = WindowSampler(SwnParams(args.x, args.y, seed=args.seed))
        windows = [sampler.sample() for _ in range(volume.dims[axis])]
        along = [1, 1, 1]
        along[axis] = -1
        voxels = _kernels.window_normalize(volume.voxels,
                                           np.reshape([w.lower for w in windows], along),
                                           np.reshape([w.upper for w in windows], along))
        lines = [{"slice": index, "level": w.level, "half_width": w.half_width}
                 for index, w in enumerate(windows)]
    else:
        voxels = _kernels.window_normalize(volume.voxels, window.lower, window.upper)
        lines = [{"strategy": args.strategy, "level": window.level,
                  "half_width": window.half_width}]
    save_volume(CtVolume(voxels, spacing=volume.spacing), args.output)
    for line in lines:
        print(json.dumps(line))
    return 0


def parse_labels(text):
    """``--labels``: comma-separated whole numbers in 0..255, each at most once.

    A duplicate would write two rows for one label, which ``compare`` refuses.
    """
    labels = []
    for field in text.split(","):
        # at most 3 digits after leading zeros, so int() never meets a huge number
        if not re.fullmatch(r"\s*0*[0-9]{1,3}\s*", field) or int(field) > 255:
            raise ConfigError(f"--labels: expected whole numbers in 0..255, got {field!r}")
        label = int(field)
        if label in labels:
            raise ConfigError(f"--labels: label {label} is given more than once")
        labels.append(label)
    return labels


def cmd_dice(args):
    labels = None if args.labels is None else parse_labels(args.labels)
    pred = load_label_volume(args.pred)
    truth = load_label_volume(args.truth)
    if labels is None:
        labels = sorted(lid for lid in truth.label_names if lid != 0)
    subject = args.subject
    if subject is None:
        subject = os.path.basename(args.truth)
        if subject.endswith(".ctv.json"):
            subject = subject[: -len(".ctv.json")]
    records = multi_label_dice(pred, truth, labels, subject_id=subject)
    write_dice_csv(records, args.output)
    return 0


def cmd_compare(args):
    tables = {}
    for item in args.table:
        if "=" not in item:
            raise ConfigError(f"--table expects name=path, got {item!r}")
        name, path = item.split("=", 1)
        if name in tables:
            raise ConfigError(f"duplicate method name {name!r}")
        tables[name] = read_dice_csv(path)
    rows = compare_methods(tables, args.reference, alpha=args.alpha, m=args.m)
    write_comparison_csv(rows, args.output)
    meta_path = (args.output[:-4] if args.output.endswith(".csv") else args.output) + ".meta.json"
    write_comparison_metadata(meta_path, args.reference, args.alpha, args.m)
    return 0


def cmd_sweep(args):
    if args.default_config:
        print(json.dumps(experiment_to_config(reference_experiment()), indent=2))
        return 0
    if not args.config or not args.output:
        raise ConfigError("sweep requires a config path and -o output.csv")
    exp = parse_experiment(_load_json(args.config))
    rows, _ = run_experiment(exp)
    write_sweep_csv(rows, args.output)
    return 0


def cmd_phantom(args):
    exp = parse_experiment(_load_json(args.config))
    os.makedirs(args.out_dir, exist_ok=True)
    for role, kind, count in (("train", 0, exp.n_train), ("test", 1, exp.n_test)):
        for i in range(count):
            vol, lab = experiment_phantom(exp, kind, i)
            stem = os.path.join(args.out_dir, f"{role}_{i:02d}")
            save_volume(vol, stem + "_image.ctv.json")
            save_label_volume(lab, stem + "_labels.ctv.json", spacing=exp.phantom.spacing)
    return 0


def cmd_augment(args):
    if os.path.realpath(args.out_image) == os.path.realpath(args.out_labels):
        # the labels would be written over the image's header and raw file
        raise ConfigError(f"--out-labels: names the same file as --out-image: {args.out_labels}")
    raw = _load_json(args.config)
    cfg = parse_augment(raw.get("augment", raw) if isinstance(raw, dict) else raw)
    volume = load_volume(args.image)
    labels = load_label_volume(args.labels)
    if volume.dims != labels.dims:
        raise ConfigError(f"image/label dims mismatch: {volume.dims} vs {labels.dims}")
    axis = args.slice_axis
    rng = np.random.default_rng(cfg.seed)
    # each plane goes straight into its output volume, laid out as stack_slices
    # lays it: F-ordered, so saving writes the x-fastest raw file without a copy.
    # The loaded volumes are F-ordered too, and extract_slice and augment_pair keep
    # a plane's memory order, so no plane or crop is copied across it.
    shape = list(cfg.crop_size)
    shape.insert(axis, volume.dims[axis])
    out_img = np.empty(shape, dtype=np.float32, order="F")
    out_lab = np.empty(shape, dtype=np.uint8, order="F")
    img_planes = np.moveaxis(out_img, axis, 0)
    lab_planes = np.moveaxis(out_lab, axis, 0)
    for index in range(volume.dims[axis]):
        s = extract_slice(volume, axis, index)
        plane = np.moveaxis(labels.voxels, axis, 0)[index]
        aug_img, aug_lab = augment_pair(s, plane, cfg, rng)
        img_planes[index] = aug_img.values
        lab_planes[index] = aug_lab
    save_volume(CtVolume(out_img, spacing=volume.spacing), args.out_image)
    save_label_volume(LabelVolume(out_lab, label_names=labels.label_names),
                      args.out_labels, spacing=volume.spacing)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctwindow",
        description="CT window normalization, segmentation metrics, paired "
                    "statistics, and the intensity-shift robustness sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("window", help="normalize a CTV volume slice-wise")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--x", type=float, default=0.0, help="sigma of the level draw (SWN)")
    p.add_argument("--y", type=float, default=0.0, help="sigma of the width draw (SWN)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="train")
    p.add_argument("--slice-axis", type=int, default=2, choices=(0, 1, 2))
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("dice", help="per-label dice between two label CTVs")
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--labels", help="comma-separated label ids in 0..255, each at most once "
                                    "(default: all in truth)")
    p.add_argument("--subject", help="subject id for the CSV (default: truth file stem)")
    p.set_defaults(func=cmd_dice)

    p = sub.add_parser("compare", help="Wilcoxon + FDR comparison of dice tables")
    p.add_argument("--table", action="append", required=True, metavar="NAME=CSV")
    p.add_argument("--reference", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--m", type=int, default=12, help="comparison count for FDR")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="phantom suite, band fit, and shift sweep")
    p.add_argument("config", nargs="?")
    p.add_argument("-o", "--output")
    p.add_argument("--default-config", action="store_true",
                   help="print the bundled reference config and exit")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("phantom", help="write a phantom suite as CTV files")
    p.add_argument("config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("augment", help="paired spatial augmentation of a CTV pair")
    p.add_argument("image")
    p.add_argument("labels")
    p.add_argument("config")
    p.add_argument("--out-image", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--slice-axis", type=int, default=2, choices=(0, 1, 2))
    p.set_defaults(func=cmd_augment)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"ctwindow: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # NumPy says how much it asked for; a bare one says nothing
        print(f"ctwindow: error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
