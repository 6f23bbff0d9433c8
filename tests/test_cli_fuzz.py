"""Random input files through ``cli.main``: exit 0, or exit 1 with one error line.

CTV headers, sweep configs, augment configs and dice CSVs are drawn as a
valid file with some fields replaced by arbitrary JSON (or, for a CSV, by
arbitrary rows), removed, or joined by unknown keys. Every run must end in
exit 0, or in exit 1 with exactly one ``ctwindow: error:`` line on stderr;
an exception escaping ``main`` is a traceback and fails the test.

Fields that set how much work a run does (phantom dims, subject counts,
epochs, shift ranges, crop sizes) draw their numbers from small ranges, so
that every run stays small: a valid but huge config is not malformed input.
A shift range may also draw huge magnitudes, since a grid over the shift cap
fails before it is built.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctwindow.cli import main
from ctwindow.volume import CtVolume, LabelVolume, save_label_volume, save_volume

MISSING = object()
ERROR = "ctwindow: error: "

any_number = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats(),
                       st.sampled_from([0, 1, -1, 0.5, 2.0, 255, 256, 1e300]))
small_number = st.one_of(st.integers(-2, 9), st.sampled_from([0.5, 2.0, -1.5, math.nan, math.inf]))
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def json_values(numbers=any_number):
    scalars = st.one_of(st.none(), st.booleans(), numbers, text)
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(text, inner, max_size=3)), max_leaves=6)


def junk(numbers=any_number):
    """Arbitrary JSON in place of a field's value, or the key left out."""
    return st.one_of(json_values(numbers), st.just(MISSING))


@st.composite
def json_object(draw, fields):
    """An object whose keys hold valid values except for up to two that hold junk.

    ``fields`` maps each key to (strategy for a valid value, strategy for junk).
    Sometimes an unknown key is added.
    """
    bad = draw(st.sets(st.sampled_from(sorted(fields)),
                       max_size=draw(st.sampled_from([0, 0, 1, 2]))))
    obj = {}
    for key, (valid, wrong) in fields.items():
        value = draw(wrong if key in bad else valid)
        if value is not MISSING:
            obj[key] = value
    if draw(st.integers(0, 29)) == 0:
        obj[draw(text)] = draw(json_values())
    return obj


def ok(value, numbers=any_number):
    """A field that is ``value`` when valid and arbitrary JSON otherwise."""
    return st.just(value), junk(numbers)


def run_cli(argv):
    """main(argv) with captured output, asserting the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith(ERROR)]
    assert (code, len(errors)) in ((0, 0), (1, 1)), (code, err.getvalue())


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# --- CTV headers ------------------------------------------------------------

ITEMSIZE = {"int16": 2, "float32": 4, "uint8": 1}
DIMS = (4, 3, 2)


def ctv_header(units, dtype):
    names = st.dictionaries(st.sampled_from(["0", "1", "7", "-1", "256", "x", " 2"]),
                            json_values(), max_size=3)
    return json_object({
        "dims": ok(list(DIMS)),
        "spacing_mm": ok([1.0, 1.0, 2.5]),
        "dtype": (st.just(dtype), st.one_of(st.sampled_from(sorted(ITEMSIZE) + ["float64"]),
                                            junk())),
        "raw": (st.just("v.raw"), st.one_of(st.sampled_from(["../v.raw", "/v.raw", ".", "",
                                                             "v.ctv.json"]), junk())),
        "units": (st.just(units), st.one_of(st.sampled_from(["HU", "label"]), junk())),
        "label_names": (st.just({"1": "organ", "2": "bone"}), st.one_of(names, junk())),
    })


@st.composite
def ctv_file(draw, units, dtype):
    """A header and a raw payload, usually of the size the header implies."""
    header = draw(ctv_header(units, dtype))
    dtype = header.get("dtype")
    itemsize = ITEMSIZE.get(dtype, 2) if isinstance(dtype, str) else 2
    size = draw(st.sampled_from([DIMS[0] * DIMS[1] * DIMS[2] * itemsize] * 3 + [0, 7, 100]))
    if itemsize == 1:  # mostly small label ids
        payload = bytes(draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 255)),
                                      min_size=size, max_size=size)))
    else:
        payload = draw(st.binary(min_size=size, max_size=size))
    return header, payload


def write_ctv(directory, name, header, payload):
    os.makedirs(os.path.join(directory, name))
    path = write_json(os.path.join(directory, name, "v.ctv.json"), header)
    with open(os.path.join(directory, name, "v.raw"), "wb") as fh:
        fh.write(payload)
    return path


@FUZZ
@given(image=ctv_file("HU", "int16"), labels=ctv_file("label", "uint8"),
       strategy=st.sampled_from(["STN", "WIR", "SWN"]), axis=st.sampled_from(["0", "1", "2"]))
def test_fuzzed_ctv_headers(image, labels, strategy, axis):
    with tempfile.TemporaryDirectory() as tmp:
        img = write_ctv(tmp, "img", *image)
        lab = write_ctv(tmp, "lab", *labels)
        out = os.path.join(tmp, "out")
        run_cli(["window", img, out + "_w.ctv.json", "--strategy", strategy, "--x", "20",
                 "--y", "20", "--slice-axis", axis])
        run_cli(["dice", lab, lab, "-o", out + "_dice.csv"])
        augment = write_json(os.path.join(tmp, "aug.json"), {"crop_size": [3, 3], "seed": 1})
        run_cli(["augment", img, lab, augment, "--out-image", out + "_ai.ctv.json",
                 "--out-labels", out + "_al.ctv.json", "--slice-axis", axis])


# --- sweep configs ------------------------------------------------------------

small_triple = st.lists(small_number, min_size=3, max_size=3)
organ = json_object({
    "label_id": (st.sampled_from([1, 2]), junk()),
    # any string names an organ; anything else in its place is an error, never str()'d
    "label_name": (st.one_of(st.just("organ"), text),
                   st.one_of(json_values().filter(lambda v: not isinstance(v, str)),
                             st.just(MISSING))),
    "center": ok([4, 4, 2]),
    "radii": (st.sampled_from([[3, 3, 2], [2, 2, 1]]), st.one_of(small_triple, junk())),
    "mean_hu": (st.sampled_from([40, 300, -100]), junk()),
    "noise_std": ok(10),
})
# only SWN takes sigmas and a seed
strategy = st.one_of(
    json_object({"strategy": (st.sampled_from(["STN", "WIR"]), junk())}),
    json_object({"strategy": ok("SWN"), "x": ok(30), "y": ok(30), "seed": ok(4)}),
)
# magnitudes up to 3e38: a grid of more than MAX_SHIFTS shifts is rejected before it is
# built, and every other grid these draw is a few dozen shifts at most
range_number = st.one_of(small_number, st.sampled_from([3e38, -3e38, 1e38, 1e9, -1e9]))
shift_range = json_object({"start": ok(-20, range_number), "stop": ok(40, range_number),
                           "step": ok(20, range_number)})
sweep_config = json_object({
    "seed": ok(3),
    "n_train": ok(2, small_number),
    "n_test": ok(1, small_number),
    "slice_axis": (st.sampled_from([0, 1, 2]), junk()),
    "phantom": (json_object({
        "dims": (st.just([9, 9, 5]), st.one_of(small_triple, junk(small_number))),
        "organs": (st.lists(organ, min_size=1, max_size=2), junk()),
        "background_hu": ok(-1000),
        "background_noise_std": ok(10),
        "spacing_mm": ok([1, 1, 1]),
    }), junk()),
    "strategies": (st.lists(strategy, min_size=1, max_size=3), junk(small_number)),
    "shifts": (st.one_of(st.lists(any_number, min_size=1, max_size=4), shift_range), junk()),
    "fit": (json_object({
        "epochs": ok(2, small_number),
        "percentiles": (st.just([2.5, 97.5]),
                        st.one_of(st.lists(any_number, min_size=2, max_size=2), junk())),
        "band_epsilon": ok(0.5),
        "tie_break": (st.sampled_from(["lowest_id", "nearest_center"]), junk()),
    }), junk()),
})


@FUZZ
@given(config=sweep_config)
def test_fuzzed_sweep_configs(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(os.path.join(tmp, "sweep.json"), config)
        run_cli(["sweep", path, "-o", os.path.join(tmp, "sweep.csv")])


# --- augment configs ------------------------------------------------------------

augment_config = json_object({
    "crop_size": (st.sampled_from([[5, 4], [8, 2]]),
                  st.one_of(st.lists(small_number, min_size=2, max_size=2), junk(small_number))),
    # besides small ranges, ranges whose span 2 * t is just inside or beyond float64
    "max_rotation_deg": (st.sampled_from([15, 15, 8.98e307, 9e307, 1e308]), junk()),
    "max_translation": (st.sampled_from([[2, 3], [2, 3], [8.98e307, 1], [9e307, 0],
                                         [1e308, 1e308]]), junk()),
    "pad_value_image": ok(-1000),
    "pad_value_label": ok(0),
    "seed": ok(2),
})


@FUZZ
@given(config=st.one_of(augment_config, augment_config.map(lambda c: {"augment": c}),
                        json_values(small_number)),
       axis=st.sampled_from(["0", "1", "2"]))
def test_fuzzed_augment_configs(config, axis):
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        img = os.path.join(tmp, "img.ctv.json")
        lab = os.path.join(tmp, "lab.ctv.json")
        save_volume(CtVolume(rng.integers(-500, 500, size=(6, 5, 3)).astype(np.int16)), img)
        save_label_volume(LabelVolume(rng.integers(0, 3, size=(6, 5, 3))), lab)
        path = write_json(os.path.join(tmp, "aug.json"), config)
        run_cli(["augment", img, lab, path, "--out-image", os.path.join(tmp, "i.ctv.json"),
                 "--out-labels", os.path.join(tmp, "l.ctv.json"), "--slice-axis", axis])


# --- dice CSVs ------------------------------------------------------------

HEADER = "subject_id,label_id,label_name,dice"
junk_row = st.one_of(text, st.lists(st.one_of(text, st.sampled_from(
    ["s01", "1", "2", "organ", "0.5", "1.5", "-0", "nan", "inf", "1e999", "", '"'])),
    max_size=6).map(",".join))


@st.composite
def dice_csv(draw, subjects):
    """One method's table over the shared subjects, with up to two rows broken."""
    rows = [f"s{i:02d},{lid},organ_{lid},{draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))!r}"
            for i in range(subjects) for lid in (1, 2)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(rows)))
        change = draw(st.sampled_from(["replace", "insert", "delete", "repeat"]))
        if change == "insert" or at == len(rows):
            rows.insert(at, draw(junk_row))
        elif change == "replace":
            rows[at] = draw(junk_row)
        elif change == "delete":
            del rows[at]
        else:
            rows.insert(at, rows[at])
    header = draw(st.sampled_from([HEADER] * 5 + ["", "subject_id,label_id,dice"]))
    return "\n".join([header] + rows) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


@FUZZ
@given(data=st.data(), subjects=st.sampled_from([1, 3, 8, 22]), methods=st.integers(1, 3),
       m=st.integers(-1, 14))
def test_fuzzed_dice_csvs(data, subjects, methods, m):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["compare", "--reference", "M0", "--m", str(m), "-o", os.path.join(tmp, "c.csv")]
        for i in range(methods):
            path = os.path.join(tmp, f"t{i}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(data.draw(dice_csv(subjects)))
            argv += ["--table", f"M{i}={path}"]
        run_cli(argv)
