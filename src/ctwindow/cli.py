"""Command-line surface.

Subcommands: window, dice, compare, sweep, phantom, augment. Every command
is deterministic given its arguments and config seeds; reruns produce
byte-identical outputs.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import _kernels
from .augmentation import AugmentConfig, augment_pair
from .metrics import multi_label_dice, read_dice_csv, write_dice_csv
from .simulation import (TIE_BREAKS, ExperimentConfig, FitParams, OrganSpec, PhantomConfig,
                         StrategySpec, experiment_phantom, reference_experiment,
                         run_experiment, write_sweep_csv)
from .stats import compare_methods, write_comparison_csv, write_comparison_metadata
from .volume import (CtVolume, LabelVolume, extract_slice, is_number_list, load_label_volume,
                     load_volume, save_label_volume, save_volume, stack_slices)
from .windowing import STRATEGIES, SwnParams, WindowSampler, strategy_window

# Not called here; kept because perfbench's tracer wraps these names on this module.
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


def _number(value, context, whole=False, lo=None, hi=None):
    """A finite JSON number in [lo, hi] as float, or as int when ``whole``.

    Anything else (a list, a string, a bool, null, NaN, a fraction where a
    whole number is due) is a ConfigError that names ``context``.
    """
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value) and (not whole or float(value).is_integer())
    except OverflowError:  # an int too large for a float
        ok = False
    if not (ok and (lo is None or value >= lo) and (hi is None or value <= hi)):
        span = f" in {lo}..{hi}" if hi is not None else f" >= {lo}" if lo is not None else ""
        kind = "a whole number" if whole else "a finite number"
        raise ConfigError(f"{context}: expected {kind}{span}, got {value!r}")
    return int(value) if whole else float(value)


def _numbers(value, context, count=3):
    """A JSON list of ``count`` numbers as a tuple; a ConfigError names ``context`` otherwise."""
    if not is_number_list(value, count):
        raise ConfigError(f"{context}: expected a list of {count} numbers, got {value!r}")
    return tuple(value)


def _objects(value, context):
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list, got {value!r}")
    return value


def parse_strategy(obj, context="strategy"):
    _check_keys(obj, context, required=("strategy",), optional=("x", "y", "seed"))
    if obj["strategy"] not in STRATEGIES:
        raise ConfigError(f"{context}: unknown strategy {obj['strategy']!r}")
    seed = obj.get("seed")
    return StrategySpec(obj["strategy"], x=_number(obj.get("x", 0.0), f"{context}.x"),
                        y=_number(obj.get("y", 0.0), f"{context}.y"),
                        seed=None if seed is None else _number(seed, f"{context}.seed",
                                                               whole=True, lo=0))


def _integral(value, context):
    """An integral number as int; 12.0 is accepted, 12.5 is an error, not 12."""
    if not _number(value, context).is_integer():
        raise ConfigError(f"{context}: shifts must be whole HU, got {value!r}")
    return int(value)


def parse_shifts(obj, context="shifts"):
    if isinstance(obj, list):
        if not obj:
            raise ConfigError(f"{context}: shift list must be nonempty")
        return [_integral(s, context) for s in obj]
    _check_keys(obj, context, required=("start", "stop", "step"))
    start, stop, step = (_integral(obj[k], context) for k in ("start", "stop", "step"))
    if step <= 0 or stop < start:
        raise ConfigError(f"{context}: need step > 0 and stop >= start")
    return list(range(start, stop + 1, step))


def parse_phantom(obj, context="phantom"):
    _check_keys(obj, context, required=("dims", "organs"),
                optional=("spacing_mm", "background_hu", "background_noise_std", "seed"))
    organs = []
    for i, org in enumerate(_objects(obj["organs"], f"{context}.organs")):
        octx = f"{context}.organs[{i}]"
        _check_keys(org, octx,
                    required=("label_id", "label_name", "center", "radii", "mean_hu"),
                    optional=("noise_std",))
        organs.append(OrganSpec(_number(org["label_id"], f"{octx}.label_id", whole=True),
                                str(org["label_name"]),
                                _numbers(org["center"], f"{octx}.center"),
                                _numbers(org["radii"], f"{octx}.radii"),
                                _number(org["mean_hu"], f"{octx}.mean_hu"),
                                _number(org.get("noise_std", 0.0), f"{octx}.noise_std", lo=0)))
    return PhantomConfig(dims=_numbers(obj["dims"], f"{context}.dims"), organs=organs,
                         background_hu=_number(obj.get("background_hu", -1000.0),
                                               f"{context}.background_hu"),
                         background_noise_std=_number(obj.get("background_noise_std", 0.0),
                                                      f"{context}.background_noise_std", lo=0),
                         spacing=_numbers(obj.get("spacing_mm", [1.0, 1.0, 1.0]),
                                          f"{context}.spacing_mm"),
                         seed=_number(obj.get("seed", 0), f"{context}.seed", whole=True, lo=0))


def parse_fit(obj, context="fit"):
    _check_keys(obj, context, required=(),
                optional=("epochs", "percentiles", "band_epsilon", "tie_break"))
    defaults = FitParams()
    percentiles = _numbers(obj.get("percentiles", list(defaults.percentiles)),
                           f"{context}.percentiles", count=2)
    lo, hi = (_number(p, f"{context}.percentiles", lo=0, hi=100) for p in percentiles)
    if not lo < hi:
        raise ConfigError(f"{context}.percentiles: expected 0 <= lo < hi <= 100, "
                          f"got {list(percentiles)!r}")
    tie_break = obj.get("tie_break", defaults.tie_break)
    if tie_break not in TIE_BREAKS:
        raise ConfigError(f"{context}.tie_break: expected one of {', '.join(TIE_BREAKS)}, "
                          f"got {tie_break!r}")
    return FitParams(epochs=_number(obj.get("epochs", defaults.epochs), f"{context}.epochs",
                                    whole=True, lo=1),
                     percentiles=percentiles,
                     band_epsilon=_number(obj.get("band_epsilon", defaults.band_epsilon),
                                          f"{context}.band_epsilon", lo=0),
                     tie_break=tie_break)


def parse_experiment(cfg):
    _check_keys(cfg, "config", required=("seed", "phantom", "strategies", "shifts"),
                optional=("n_train", "n_test", "fit", "slice_axis"))
    strategies = [parse_strategy(s, f"strategies[{i}]")
                  for i, s in enumerate(_objects(cfg["strategies"], "config.strategies"))]
    if not strategies:
        raise ConfigError("config: strategies must be nonempty")
    n_train = _number(cfg.get("n_train", 5), "config.n_train", whole=True)
    n_test = _number(cfg.get("n_test", 5), "config.n_test", whole=True)
    if n_train <= 0 or n_test <= 0:
        raise ConfigError(f"config: n_train and n_test must be positive, got {n_train}, {n_test}")
    return ExperimentConfig(
        phantom=parse_phantom(cfg["phantom"]),
        strategies=strategies,
        shifts=parse_shifts(cfg["shifts"]),
        n_train=n_train,
        n_test=n_test,
        fit=parse_fit(cfg.get("fit", {})),
        seed=_number(cfg["seed"], "config.seed", whole=True, lo=0),
        slice_axis=_number(cfg.get("slice_axis", 2), "config.slice_axis", whole=True, lo=0, hi=2),
    )


def parse_augment(obj, context="augment"):
    _check_keys(obj, context, required=("crop_size",),
                optional=("max_rotation_deg", "max_translation",
                          "pad_value_image", "pad_value_label", "seed"))
    defaults = AugmentConfig(crop_size=(1, 1))
    crop = f"{context}.crop_size"
    shift = f"{context}.max_translation"
    fields = dict(
        crop_size=tuple(_number(c, crop, whole=True, lo=1)
                        for c in _numbers(obj["crop_size"], crop, count=2)),
        max_rotation_deg=_number(obj.get("max_rotation_deg", defaults.max_rotation_deg),
                                 f"{context}.max_rotation_deg", lo=0),
        max_translation=tuple(_number(t, shift, lo=0) for t in _numbers(
            obj.get("max_translation", list(defaults.max_translation)), shift, count=2)),
        pad_value_image=_number(obj.get("pad_value_image", defaults.pad_value_image),
                                f"{context}.pad_value_image"),
        pad_value_label=_number(obj.get("pad_value_label", defaults.pad_value_label),
                                f"{context}.pad_value_label", whole=True, lo=0, hi=255),
        seed=_number(obj.get("seed", 0), f"{context}.seed", whole=True, lo=0),
    )
    try:
        return AugmentConfig(**fields)
    except ValueError as exc:  # AugmentConfig's messages start with the field name
        raise ConfigError(f"{context}.{exc}") from None


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
            "organs": [
                {"label_id": o.label_id, "label_name": o.label_name,
                 "center": list(o.center), "radii": list(o.radii),
                 "mean_hu": o.mean_hu, "noise_std": o.noise_std}
                for o in exp.phantom.organs
            ],
        },
        "strategies": [
            {k: v for k, v in asdict(s).items() if not (k == "seed" and v is None)}
            for s in exp.strategies
        ],
        "fit": {"epochs": exp.fit.epochs, "percentiles": list(exp.fit.percentiles),
                "band_epsilon": exp.fit.band_epsilon, "tie_break": exp.fit.tie_break},
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


def cmd_dice(args):
    pred = load_label_volume(args.pred)
    truth = load_label_volume(args.truth)
    if args.labels:
        labels = [int(x) for x in args.labels.split(",")]
    else:
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
    raw = _load_json(args.config)
    cfg = parse_augment(raw.get("augment", raw) if isinstance(raw, dict) else raw)
    volume = load_volume(args.image)
    labels = load_label_volume(args.labels)
    if volume.dims != labels.dims:
        raise ConfigError(f"image/label dims mismatch: {volume.dims} vs {labels.dims}")
    axis = args.slice_axis
    rng = np.random.default_rng(cfg.seed)
    img_planes, lab_planes = [], []
    for index in range(volume.dims[axis]):
        s = extract_slice(volume, axis, index)
        plane = np.moveaxis(labels.voxels, axis, 0)[index]
        out_img, out_lab = augment_pair(s, plane, cfg, rng)
        img_planes.append(out_img.values)
        lab_planes.append(out_lab)
    save_volume(CtVolume(stack_slices(img_planes, axis), spacing=volume.spacing),
                args.out_image)
    save_label_volume(LabelVolume(stack_slices(lab_planes, axis),
                                  label_names=labels.label_names),
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
    p.add_argument("--mode", choices=("train", "test"), default="train")
    p.add_argument("--slice-axis", type=int, default=2, choices=(0, 1, 2))
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("dice", help="per-label dice between two label CTVs")
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--labels", help="comma-separated label ids (default: all in truth)")
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
