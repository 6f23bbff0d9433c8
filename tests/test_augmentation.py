import numpy as np
import pytest

from ctwindow.augmentation import AugmentConfig, _moved_crop, augment_pair
from ctwindow.volume import Slice2D


def sample_pair(seed=0, shape=(24, 24)):
    rng = np.random.default_rng(seed)
    img = Slice2D(rng.uniform(0, 255, shape).astype(np.float32))
    lab = np.zeros(shape, dtype=np.uint8)
    lab[6:14, 8:18] = 1
    lab[16:20, 2:6] = 2
    return img, lab


def test_identity_transform_is_exact():
    img, lab = sample_pair()
    cfg = AugmentConfig(crop_size=img.dims, max_rotation_deg=0.0, max_translation=(0.0, 0.0))
    out_img, out_lab = augment_pair(img, lab, cfg, np.random.default_rng(1))
    assert np.array_equal(out_img.values, img.values)
    assert np.array_equal(out_lab, lab)


def test_pure_translation_shifts_content_and_pads():
    plane = np.arange(36, dtype=np.float32).reshape(6, 6)
    moved, _ = _moved_crop(plane, np.zeros(plane.shape, np.uint8), 0.0, (3.0, 0.0), (0, 0),
                           plane.shape, np.float32(-7.0), 0)
    assert np.array_equal(moved[3:, :], plane[:-3, :])
    assert np.all(moved[:3, :] == -7.0)


def test_pure_translation_nearest_for_labels():
    lab = np.zeros((6, 6), dtype=np.uint8)
    lab[0, 0] = 5
    _, moved = _moved_crop(np.zeros(lab.shape, np.float32), lab, 0.0, (2.0, 1.0), (0, 0),
                           lab.shape, np.float32(0.0), 0)
    assert moved[2, 1] == 5
    assert moved.sum() == 5


def test_labels_never_invented():
    img, lab = sample_pair(seed=3)
    cfg = AugmentConfig(crop_size=(20, 20), max_rotation_deg=25.0,
                        max_translation=(6.0, 6.0), pad_value_label=0, seed=0)
    rng = np.random.default_rng(cfg.seed)
    allowed = set(np.unique(lab)) | {cfg.pad_value_label}
    for _ in range(25):
        _, out_lab = augment_pair(img, lab, cfg, rng)
        assert set(np.unique(out_lab)) <= allowed


def test_same_transform_applies_to_image_and_label():
    # bilinear support of an indicator is a superset of the nearest-neighbor mask
    lab = np.zeros((32, 32), dtype=np.uint8)
    lab[10:22, 12:24] = 1
    img = Slice2D(lab.astype(np.float32))
    cfg = AugmentConfig(crop_size=(32, 32), max_rotation_deg=30.0,
                        max_translation=(5.0, 5.0), pad_value_image=0.0)
    rng = np.random.default_rng(17)
    for _ in range(10):
        out_img, out_lab = augment_pair(img, lab, cfg, rng)
        assert np.all(out_img.values[out_lab == 1] > 0.0)


def test_deterministic_under_fixed_seed():
    img, lab = sample_pair(seed=6)
    cfg = AugmentConfig(crop_size=(18, 22), max_rotation_deg=15.0,
                        max_translation=(4.0, 4.0), seed=99)
    a = augment_pair(img, lab, cfg, np.random.default_rng(cfg.seed))
    b = augment_pair(img, lab, cfg, np.random.default_rng(cfg.seed))
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1], b[1])


def test_output_dims_follow_crop_size():
    img, lab = sample_pair()
    cfg = AugmentConfig(crop_size=(10, 30), max_rotation_deg=0.0,
                        max_translation=(0.0, 0.0), pad_value_image=-1.0)
    out_img, out_lab = augment_pair(img, lab, cfg, np.random.default_rng(0))
    assert out_img.dims == (10, 30)
    assert out_lab.shape == (10, 30)
    # axis 1 grew from 24 to 30: symmetric pad strips carry the pad value
    assert np.all(out_img.values[:, :3] == -1.0)
    assert np.all(out_img.values[:, -3:] == -1.0)


def test_dims_mismatch_rejected():
    img, _ = sample_pair()
    with pytest.raises(ValueError, match="mismatch"):
        augment_pair(img, np.zeros((5, 5), np.uint8),
                     AugmentConfig(crop_size=(5, 5)), np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(crop_size=(0, 5))
    # a fraction is an error, not truncated; so are NaN and inf, not a conversion failure
    for size in [(16.5, 8.9), (16, 8.9), (np.nan, 5), (5, np.inf), (10 ** 400, 5), (5,)]:
        with pytest.raises(ValueError, match="crop_size"):
            AugmentConfig(crop_size=size)
    assert AugmentConfig(crop_size=(16.0, np.int64(8))).crop_size == (16, 8)
    with pytest.raises(ValueError):
        AugmentConfig(crop_size=(5, 5), max_rotation_deg=-1.0)
    with pytest.raises(ValueError):
        AugmentConfig(crop_size=(5, 5), max_translation=(-2.0, 0.0))
