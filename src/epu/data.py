"""Dataset ingestion, binary PPM/PGM codecs, and a synthetic two-class generator.

The on-disk layout is one sub-directory per class under a dataset root,
holding binary PPM images. `load_dataset` scans that layout in pure
lexicographic order, so runs are reproducible across platforms. The
generator also writes a ``manifest.tsv`` of ``path<TAB>class`` lines, which
loading never reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestionError, ParseError
from .pfm import RgbImage

MANIFEST_NAME = "manifest.tsv"


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered view of a dataset on disk.

    ``entries`` holds (path relative to root, class index) pairs; class
    indices are dense from 0 and follow lexicographic class-name order.
    """

    root: str
    class_names: tuple
    entries: tuple


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic crescent/disk generator."""

    count: int = 100
    side: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.side < 16:
            raise ConfigError(f"side must be >= 16, got {self.side}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# netpbm codecs


def _header_ints(data: bytes, pos: int, count: int):
    """Read ``count`` ASCII integers after ``pos``, honoring '#' comments."""
    vals = []
    n = len(data)
    while len(vals) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ParseError(f"expected integer in header, got {token!r}")
        vals.append(int(token))
    return vals, pos


def decode_ppm(data: bytes) -> RgbImage:
    """Decode a binary PPM (P6, maxval 255) byte string."""
    data = bytes(data)
    if data[:2] != b"P6":
        raise ParseError(f"bad magic {data[:2]!r}, expected P6")
    (width, height, maxval), pos = _header_ints(data, 2, 3)
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval}, only 255")
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}")
    # exactly one whitespace byte separates the header from the payload
    pos += 1
    need = height * width * 3
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ParseError(f"truncated payload, need {need} bytes, have {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RgbImage(pixels=pixels.copy())


def encode_ppm(image: RgbImage) -> bytes:
    """Encode an 8-bit RGB image as binary PPM (P6, maxval 255)."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(image.pixels).tobytes()


def encode_pgm(plane: np.ndarray) -> bytes:
    """Encode an 8-bit grayscale plane as binary PGM (P5, maxval 255)."""
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ParseError(f"PGM plane must be 2-D, got shape {plane.shape}")
    if plane.dtype != np.uint8:
        raise ParseError(f"PGM plane must be uint8, got {plane.dtype}")
    header = f"P5\n{plane.shape[1]} {plane.shape[0]}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(plane).tobytes()


# ---------------------------------------------------------------------------
# dataset loading


def load_dataset(root: str) -> DatasetManifest:
    """Scan ``root/<class>/*`` into a manifest with lexicographic ordering.

    A dataset holds exactly two classes: every model is binary.
    """
    if not os.path.isdir(root):
        raise IngestionError(f"dataset root is not a directory: {root}")
    class_names = sorted(
        name for name in os.listdir(root) if os.path.isdir(os.path.join(root, name))
    )
    if not class_names:
        raise IngestionError(f"dataset root has no class directories: {root}")
    for name in class_names:
        # the checkpoint header stores class names as one comma-joined line
        if "," in name or name.splitlines() != [name]:
            raise IngestionError(
                f"class directory name contains a comma or line break: {os.path.join(root, name)!r}"
            )
    if len(class_names) != 2:
        raise IngestionError(f"need exactly 2 classes, found {len(class_names)} under {root}")
    entries = []
    for index, name in enumerate(class_names):
        class_dir = os.path.join(root, name)
        files = sorted(
            f
            for f in os.listdir(class_dir)
            if not f.startswith(".") and os.path.isfile(os.path.join(class_dir, f))
        )
        if not files:
            raise IngestionError(f"class directory is empty: {class_dir}")
        for fname in files:
            full = os.path.join(class_dir, fname)
            if not os.access(full, os.R_OK):
                raise IngestionError(f"unreadable file: {full}")
            entries.append((f"{name}/{fname}", index))
    return DatasetManifest(root=root, class_names=tuple(class_names), entries=tuple(entries))


def read_image(path: str) -> RgbImage:
    """Read and decode one PPM file; a decode error names the file.

    A file that cannot be read raises its `OSError`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return decode_ppm(blob)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_images(manifest: DatasetManifest):
    """Materialize every manifest entry; returns (images, labels).

    A file that cannot be read is an `IngestionError` naming it."""
    images = []
    labels = np.empty(len(manifest.entries), dtype=np.int64)
    for i, (rel, cls) in enumerate(manifest.entries):
        path = os.path.join(manifest.root, rel)
        try:
            images.append(read_image(path))
        except OSError as exc:
            raise IngestionError(f"cannot read {path}: {exc}") from exc
        labels[i] = cls
    return images, labels


def write_manifest(manifest: DatasetManifest, path: str) -> None:
    """Write one ``path<TAB>class`` line per entry."""
    lines = [f"{rel}\t{cls}\n" for rel, cls in manifest.entries]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# synthetic generator

# Class 0 is bow-like and yellow with speckled texture, class 1 is a smooth
# circular disk on the red side; the two therefore separate on intensity,
# fine detail, blue-yellow, and green-red channels at once.  Disk colors are
# kept red-leaning (never pure green) so the class-mean Lab b ordering
# stays fixed: yellow crescents above disks.
CLASS_NAMES = ("crescent", "disk")
# shape radius range, as a fraction of the image side
RADIUS_FRAC = (0.22, 0.34)
# center offset from the image middle, fraction of the image side
CENTER_JITTER = 0.10


def _background(rng: np.random.Generator, side: int) -> np.ndarray:
    base = float(rng.uniform(95.0, 150.0))
    noise = rng.normal(0.0, 6.0, size=(side, side))
    gray = np.clip(base + noise, 0.0, 255.0)
    return np.repeat(gray[:, :, None], 3, axis=2)


def _crescent_mask(rng: np.random.Generator, side: int) -> np.ndarray:
    jit = CENTER_JITTER * side
    cy = side / 2.0 + rng.uniform(-jit, jit)
    cx = side / 2.0 + rng.uniform(-jit, jit)
    radius = side * rng.uniform(*RADIUS_FRAC)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    offset = radius * rng.uniform(0.45, 0.70)
    bite_r = radius * rng.uniform(0.80, 1.00)
    by = cy + offset * np.sin(theta)
    bx = cx + offset * np.cos(theta)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    main = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2
    bite = (yy - by) ** 2 + (xx - bx) ** 2 <= bite_r**2
    return main & ~bite


def _disk_mask(rng: np.random.Generator, side: int) -> np.ndarray:
    jit = CENTER_JITTER * side
    cy = side / 2.0 + rng.uniform(-jit, jit)
    cx = side / 2.0 + rng.uniform(-jit, jit)
    radius = side * rng.uniform(*RADIUS_FRAC)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2


def _render_crescent(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    canvas = _background(rng, cfg.side)
    mask = _crescent_mask(rng, cfg.side)
    color = np.array(
        [rng.uniform(225.0, 255.0), rng.uniform(190.0, 230.0), rng.uniform(20.0, 60.0)]
    )
    # per-pixel brightness speckle puts energy in the fine-detail band
    speckle = rng.uniform(0.62, 1.0, size=(cfg.side, cfg.side))
    layer = speckle[:, :, None] * color[None, None, :]
    canvas[mask] = layer[mask]
    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8)


def _render_disk(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    canvas = _background(rng, cfg.side)
    mask = _disk_mask(rng, cfg.side)
    color = np.array(
        [rng.uniform(150.0, 215.0), rng.uniform(25.0, 70.0), rng.uniform(60.0, 115.0)]
    )
    canvas[mask] = color[None, None, :]
    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8)


def synth_generate(config: SynthConfig, out_dir: str) -> DatasetManifest:
    """Write ``config.count`` PPMs per class under ``out_dir`` plus a manifest.

    Generation is single-threaded and driven by one seeded generator, so the
    same config yields bitwise-identical files.
    """
    rng = np.random.default_rng([config.seed])
    renderers = (_render_crescent, _render_disk)
    entries = []
    for index, name in enumerate(CLASS_NAMES):
        class_dir = os.path.join(out_dir, name)
        os.makedirs(class_dir, exist_ok=True)
        for i in range(config.count):
            pixels = renderers[index](rng, config)
            fname = f"{i:05d}.ppm"
            with open(os.path.join(class_dir, fname), "wb") as fh:
                fh.write(encode_ppm(RgbImage(pixels=pixels)))
            entries.append((f"{name}/{fname}", index))
    manifest = DatasetManifest(root=out_dir, class_names=CLASS_NAMES, entries=tuple(entries))
    write_manifest(manifest, os.path.join(out_dir, MANIFEST_NAME))
    return manifest
