"""Codec, manifest, and synthetic-generator tests."""

import os

import numpy as np
import pytest

from epu.data import (
    CLASS_NAMES,
    MANIFEST_NAME,
    DatasetManifest,
    SynthConfig,
    decode_ppm,
    encode_pgm,
    encode_ppm,
    load_dataset,
    load_images,
    read_image,
    synth_generate,
    write_manifest,
)
from epu.errors import ConfigError, DimensionError, IngestionError, ParseError
from epu.pfm import RgbImage, resize_rgb, srgb_to_lab


def _img(pixels):
    return RgbImage(pixels=np.asarray(pixels, dtype=np.uint8))


# ---------------------------------------------------------------------------
# PPM codec


def test_decode_ppm_two_by_one():
    # parse per the format: width 2, height 1, then 6 payload bytes
    blob = b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6])
    img = decode_ppm(blob)
    assert img.pixels.shape == (1, 2, 3)
    assert img.pixels.tolist() == [[[1, 2, 3], [4, 5, 6]]]


def test_decode_ppm_header_comments():
    blob = b"P6 # magic\n# a full comment line\n2 # width\n1\n# before maxval\n255\n" + bytes(6)
    img = decode_ppm(blob)
    assert img.pixels.shape == (1, 2, 3)


def test_decode_ppm_payload_may_start_with_whitespace_byte():
    # pixel value 10 is '\n'; only one separator byte may be consumed
    pixels = np.full((2, 2, 3), 10, dtype=np.uint8)
    img = decode_ppm(encode_ppm(_img(pixels)))
    assert np.array_equal(img.pixels, pixels)


def test_ppm_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        out = decode_ppm(encode_ppm(_img(pixels)))
        assert np.array_equal(out.pixels, pixels)


def test_decode_ppm_bad_magic():
    with pytest.raises(ParseError):
        decode_ppm(b"P5\n2 1\n255\n" + bytes(6))
    with pytest.raises(ParseError):
        decode_ppm(b"JUNK")


def test_decode_ppm_maxval_rejected():
    with pytest.raises(ParseError):
        decode_ppm(b"P6\n2 1\n65535\n" + bytes(12))


def test_decode_ppm_truncated():
    with pytest.raises(ParseError):
        decode_ppm(b"P6\n2 2\n255\n" + bytes(11))


def test_decode_ppm_zero_dimension():
    with pytest.raises(ParseError):
        decode_ppm(b"P6\n0 1\n255\n")


def test_decode_ppm_non_integer_header():
    with pytest.raises(ParseError):
        decode_ppm(b"P6\n2 one\n255\n" + bytes(6))


def test_decode_ppm_byte_mutation_fuzz():
    # a corrupt PPM either decodes or raises ParseError, never anything else
    rng = np.random.default_rng(2024)
    blob = b"P6 # 4x3 image\n4 3\n255\n" + rng.integers(0, 256, size=36, dtype=np.uint8).tobytes()
    for _ in range(2000):
        data = bytearray(blob)
        for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
            data[pos] = rng.integers(0, 256)
        try:
            img = decode_ppm(bytes(data))
        except ParseError:
            continue
        assert img.pixels.dtype == np.uint8 and img.pixels.ndim == 3 and img.pixels.shape[2] == 3


def test_encode_ppm_header():
    blob = encode_ppm(_img(np.zeros((3, 5, 3), dtype=np.uint8)))
    assert blob.startswith(b"P6\n5 3\n255\n")
    assert len(blob) == len(b"P6\n5 3\n255\n") + 45


def test_encode_pgm():
    plane = np.arange(6, dtype=np.uint8).reshape(2, 3)
    blob = encode_pgm(plane)
    assert blob == b"P5\n3 2\n255\n" + bytes(range(6))
    with pytest.raises(ParseError):
        encode_pgm(plane.astype(np.float32))
    with pytest.raises(ParseError):
        encode_pgm(plane.reshape(6))


# ---------------------------------------------------------------------------
# resize


def test_resize_identity():
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(7, 7, 3), dtype=np.uint8)
    out = resize_rgb(_img(pixels), 7, 7)
    assert np.array_equal(out.pixels, pixels)


def test_resize_constant():
    pixels = np.full((5, 9, 3), 77, dtype=np.uint8)
    for side in (1, 4, 16):
        out = resize_rgb(_img(pixels), side, side)
        assert out.pixels.shape == (side, side, 3)
        assert np.all(out.pixels == 77)


def test_resize_ramp_row():
    # hand bilinear with corner alignment: 0 and 255 -> 0, 85, 170, 255
    pixels = np.array([[[0, 0, 0], [255, 255, 255]]], dtype=np.uint8)
    out = resize_rgb(_img(pixels), 4, 4)
    assert out.pixels.shape == (4, 4, 3)
    for row in range(4):
        assert out.pixels[row, :, 0].tolist() == [0, 85, 170, 255]


def test_resize_bad_side():
    with pytest.raises(DimensionError):
        resize_rgb(_img(np.zeros((2, 2, 3), dtype=np.uint8)), 0, 0)


# ---------------------------------------------------------------------------
# dataset loading


def _write_ppm(path, value, side=4):
    pixels = np.full((side, side, 3), value, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(encode_ppm(_img(pixels)))


def _make_tree(root, classes, files_per_class=2):
    for name in classes:
        os.makedirs(os.path.join(root, name))
        for i in range(files_per_class):
            _write_ppm(os.path.join(root, name, f"{i}.ppm"), 50 + i)


def test_load_dataset_ordering(tmp_path):
    # written out of lexicographic order on purpose
    _make_tree(str(tmp_path), ["banana", "apple"])
    man = load_dataset(str(tmp_path))
    assert man.class_names == ("apple", "banana")
    assert man.entries[0] == ("apple/0.ppm", 0)
    assert man.entries[2] == ("banana/0.ppm", 1)
    assert [cls for _, cls in man.entries] == [0, 0, 1, 1]


def test_load_dataset_missing_root(tmp_path):
    with pytest.raises(IngestionError):
        load_dataset(str(tmp_path / "nope"))


def test_load_dataset_empty_root(tmp_path):
    with pytest.raises(IngestionError):
        load_dataset(str(tmp_path))


def test_load_dataset_empty_class_dir_named(tmp_path):
    _make_tree(str(tmp_path), ["apple"])
    os.makedirs(tmp_path / "banana")
    with pytest.raises(IngestionError) as exc:
        load_dataset(str(tmp_path))
    assert "banana" in str(exc.value)


def test_load_dataset_rejects_comma_class_name(tmp_path):
    # "a,b" would reload from a checkpoint header as two class names
    _make_tree(str(tmp_path), ["a,b", "c"])
    with pytest.raises(IngestionError) as exc:
        load_dataset(str(tmp_path))
    assert "a,b" in str(exc.value)


def test_load_dataset_binary_mode_needs_two(tmp_path):
    _make_tree(str(tmp_path), ["a", "b", "c"])
    with pytest.raises(IngestionError):
        load_dataset(str(tmp_path))


def test_load_dataset_single_class_rejected(tmp_path):
    _make_tree(str(tmp_path), ["only"])
    with pytest.raises(IngestionError):
        load_dataset(str(tmp_path))


def test_read_image_missing_file(tmp_path):
    # the file's own error: `epu explain --image` exits 3 on it
    with pytest.raises(FileNotFoundError):
        read_image(str(tmp_path / "absent.ppm"))


def test_load_images_unreadable_file_is_ingestion_error(tmp_path):
    # a dataset file that cannot be read is a dataset problem: exit 2
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "0.ppm").write_bytes(encode_ppm(_img(np.zeros((2, 2, 3)))))
    manifest = DatasetManifest(root=str(tmp_path), class_names=("a", "b"), entries=(("a/0.ppm", 0), ("b/0.ppm", 1)))
    with pytest.raises(IngestionError, match="cannot read .*b/0.ppm"):
        load_images(manifest)


def test_write_manifest_format(tmp_path):
    man = DatasetManifest(
        root=str(tmp_path),
        class_names=("a", "b"),
        entries=(("a/x.ppm", 0), ("b/y.ppm", 1)),
    )
    path = tmp_path / "manifest.tsv"
    write_manifest(man, str(path))
    assert path.read_text() == "a/x.ppm\t0\nb/y.ppm\t1\n"


# ---------------------------------------------------------------------------
# synthetic generator


def _tree_bytes(root):
    blobs = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            full = os.path.join(dirpath, f)
            with open(full, "rb") as fh:
                blobs[os.path.relpath(full, root)] = fh.read()
    return blobs


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(count=0)
    with pytest.raises(ConfigError):
        SynthConfig(side=8)


def test_synth_counts_and_manifest(tmp_path):
    man = synth_generate(SynthConfig(count=5, side=16, seed=3), str(tmp_path))
    assert man.class_names == CLASS_NAMES
    assert len(man.entries) == 10
    for name in CLASS_NAMES:
        files = os.listdir(tmp_path / name)
        assert len(files) == 5
    lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
    assert len(lines) == 10
    assert lines[0] == "crescent/00000.ppm\t0"
    assert lines[-1] == "disk/00004.ppm\t1"


def test_synth_deterministic(tmp_path):
    cfg = SynthConfig(count=3, side=16, seed=11)
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_generate(cfg, str(a))
    synth_generate(cfg, str(b))
    assert _tree_bytes(str(a)) == _tree_bytes(str(b))


def test_synth_seed_changes_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_generate(SynthConfig(count=2, side=16, seed=0), str(a))
    synth_generate(SynthConfig(count=2, side=16, seed=1), str(b))
    assert _tree_bytes(str(a)) != _tree_bytes(str(b))


def test_synth_images_decode_and_resize(tmp_path):
    man = synth_generate(SynthConfig(count=2, side=20, seed=5), str(tmp_path))
    for rel, _ in man.entries:
        img = read_image(os.path.join(str(tmp_path), rel))
        assert img.pixels.shape == (20, 20, 3)
        out = resize_rgb(img, 32, 32)
        assert out.pixels.shape == (32, 32, 3)


def test_synth_loadable_by_dataset_scanner(tmp_path):
    synth_generate(SynthConfig(count=2, side=16, seed=9), str(tmp_path))
    man = load_dataset(str(tmp_path))
    # scanning must skip the manifest file at the root and match the classes
    assert man.class_names == CLASS_NAMES
    assert len(man.entries) == 4


def _class_mean_b(manifest):
    """Mean Lab b per class over every pixel."""
    sums, counts = np.zeros(2), np.zeros(2)
    for rel, cls in manifest.entries:
        _, _, b = srgb_to_lab(read_image(os.path.join(manifest.root, rel)))
        sums[cls] += float(b.sum())
        counts[cls] += b.size
    return sums / counts


def test_synth_class_color_separation(tmp_path):
    # yellowness ordering by construction: crescents sit above disks on Lab b
    man = synth_generate(SynthConfig(count=12, side=48, seed=0), str(tmp_path))
    mean_b = _class_mean_b(man)
    assert mean_b[0] > mean_b[1] + 2.0


def test_synth_separation_holds_across_seeds(tmp_path):
    for seed in (1, 2, 3):
        root = tmp_path / f"s{seed}"
        man = synth_generate(SynthConfig(count=8, side=32, seed=seed), str(root))
        mean_b = _class_mean_b(man)
        assert mean_b[0] > mean_b[1]
