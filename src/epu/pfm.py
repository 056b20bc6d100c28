"""Opponent perceptual feature maps.

An RGB image is resized, converted to CIE-Lab (D65), and decomposed into four
single-channel maps, each expressing one antagonistic perceptual axis:

  light-dark   third-level Haar approximation of L, upsampled back
  coarse-fine  first-level Haar diagonal detail of L, upsampled back
  blue-yellow  the b chroma plane
  green-red    the a chroma plane

Wavelet-derived maps are min-max normalized per image; chroma planes use the
fixed range [-128, 127] so their sign and scale are comparable across images.
All maps land in [-1, 1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError

PFM_LABELS = ("light-dark", "coarse-fine", "blue-yellow", "green-red")
PFM_SLUGS = ("lightdark", "coarsefine", "blueyellow", "greenred")
# Smallest map side: at 8 the third-level Haar approximation is 1x1, so the
# light-dark map is all zeros for every image; at 9 it is 2x2.
MIN_SIDE = 9

_SQRT2 = np.sqrt(2.0)

# sRGB -> XYZ (D65), rows x/y/z
_SRGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE_D65 = np.array([0.95047, 1.00000, 1.08883])
_LAB_EPS = 216.0 / 24389.0
_LAB_KAPPA = 24389.0 / 27.0


def _srgb_decode_table() -> np.ndarray:
    """Linear value of each 8-bit sRGB code, by the IEC 61966-2-1 formula."""
    v = np.arange(256, dtype=np.float64) / 255.0
    return np.where(v > 0.04045, ((v + 0.055) / 1.055) ** 2.4, v / 12.92)


# every pixel is one of 256 codes, so the decode is a lookup
_SRGB_DECODE = _srgb_decode_table()


@dataclass
class RgbImage:
    """8-bit RGB raster, pixels shaped (height, width, 3).

    Pixels of another numeric dtype are converted when every value is a
    finite integer in [0, 255]; any other value raises `ContractError`.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3:
            raise DimensionError(f"RgbImage expects (H, W, 3) pixels, got shape {px.shape}")
        if px.dtype != np.uint8:
            if px.dtype.kind not in "biuf":
                raise ContractError(f"RgbImage expects numeric pixels, got dtype {px.dtype}")
            # a NaN fails every comparison, and an infinity is out of range
            bad = ~((px >= 0) & (px <= 255) & (np.floor(px) == px))
            if bad.any():
                at = np.unravel_index(np.flatnonzero(bad)[0], px.shape)
                value = px[at].item()
                raise ContractError(
                    f"RgbImage pixels must be integers in [0, 255], got {value} at {tuple(map(int, at))}"
                )
            px = px.astype(np.uint8)
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class PfmStack:
    """Stack of perceptual feature maps, shaped (count, H, W), values in [-1, 1]."""

    maps: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.maps, dtype=np.float32)
        if m.ndim != 3:
            raise DimensionError(f"PfmStack expects (N, H, W) maps, got shape {m.shape}")
        self.maps = m


# ---------------------------------------------------------------------------
# color


def srgb_to_lab(image: RgbImage):
    """Per-pixel sRGB -> linear RGB -> XYZ (D65) -> CIE-Lab: the (L, a, b)
    planes, each (H, W); L in [0, 100], a and b unbounded reals."""
    lin = _SRGB_DECODE[image.pixels]
    xyz = lin @ _SRGB_TO_XYZ.T
    xyz /= _WHITE_D65
    f = np.where(xyz > _LAB_EPS, np.cbrt(xyz), (_LAB_KAPPA * xyz + 16.0) / 116.0)
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


# ---------------------------------------------------------------------------
# wavelets


def _split_pairs(x: np.ndarray, axis: int):
    """One Haar analysis step along `axis`; odd length gets symmetric padding."""
    lead = (slice(None),) * axis
    if x.shape[axis] % 2:
        x = np.concatenate([x, x[lead + (slice(-1, None),)]], axis=axis)
    even, odd = x[lead + (slice(0, None, 2),)], x[lead + (slice(1, None, 2),)]
    return (even + odd) / _SQRT2, (even - odd) / _SQRT2


def _merge_pairs(lo: np.ndarray, hi: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of one analysis step (even-length case)."""
    lo = np.moveaxis(lo, axis, -1)
    hi = np.moveaxis(hi, axis, -1)
    even = (lo + hi) / _SQRT2
    odd = (lo - hi) / _SQRT2
    out = np.empty(lo.shape[:-1] + (2 * lo.shape[-1],), dtype=np.result_type(lo, hi))
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return np.moveaxis(out, -1, axis)


def dwt2_level(plane: np.ndarray):
    """One-level 2D Haar transform; returns (LL, LH, HL, HH).

    Filters run along width then height; each subband is ceil(H/2) x ceil(W/2).
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise DimensionError(f"dwt2_level expects a 2-D plane, got shape {plane.shape}")
    if plane.shape[0] < 2 or plane.shape[1] < 2:
        raise DimensionError(f"dwt2_level needs at least 2x2, got {plane.shape}")
    lo_w, hi_w = _split_pairs(plane, axis=1)
    ll, lh = _split_pairs(lo_w, axis=0)
    hl, hh = _split_pairs(hi_w, axis=0)
    return ll, lh, hl, hh


def idwt2_level(ll, lh, hl, hh) -> np.ndarray:
    """Inverse one-level Haar transform for even-dimension planes."""
    shapes = {np.shape(s) for s in (ll, lh, hl, hh)}
    if len(shapes) != 1:
        raise DimensionError(f"idwt2_level subbands must share one shape, got {shapes}")
    lo_w = _merge_pairs(np.asarray(ll, np.float64), np.asarray(lh, np.float64), axis=0)
    hi_w = _merge_pairs(np.asarray(hl, np.float64), np.asarray(hh, np.float64), axis=0)
    return _merge_pairs(lo_w, hi_w, axis=1)


def approximation_level3(plane: np.ndarray) -> np.ndarray:
    """LL subband after three successive one-level transforms."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2 or plane.shape[0] < 8 or plane.shape[1] < 8:
        raise DimensionError(f"approximation_level3 needs at least 8x8, got {np.shape(plane)}")
    ll = plane
    for _ in range(3):
        ll = dwt2_level(ll)[0]
    return ll


def detail_level1(plane: np.ndarray) -> np.ndarray:
    """Diagonal (HH) subband of one transform level."""
    return dwt2_level(plane)[3]


# ---------------------------------------------------------------------------
# resampling


def _axis_positions(src: int, dst: int):
    """Corner-aligned source coordinates for each target index."""
    if src == 1 or dst == 1:
        pos = np.zeros(dst)
    else:
        pos = np.arange(dst) * ((src - 1) / (dst - 1))
    i0 = np.minimum(pos.astype(np.int64), max(src - 2, 0))
    frac = pos - i0
    return i0, frac


def upsample(plane: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Bilinear resampling with corner alignment."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise DimensionError(f"upsample expects a 2-D plane, got shape {plane.shape}")
    if target_h < 1 or target_w < 1:
        raise DimensionError(f"upsample target must be positive, got {target_h}x{target_w}")
    h, w = plane.shape
    if (h, w) == (target_h, target_w):
        return plane.copy()
    iy, fy = _axis_positions(h, target_h)
    ix, fx = _axis_positions(w, target_w)
    iy1 = np.minimum(iy + 1, h - 1)
    ix1 = np.minimum(ix + 1, w - 1)
    fy = fy[:, None]
    # gather the top and bottom source rows at once, then their two columns
    rows = plane[np.concatenate([iy, iy1])]
    across = rows[:, ix] * (1 - fx) + rows[:, ix1] * fx
    top, bot = across[:target_h], across[target_h:]
    return top * (1 - fy) + bot * fy


def resize_rgb(image: RgbImage, target_h: int, target_w: int) -> RgbImage:
    """Bilinear RGB resize, channels resampled independently then rounded."""
    if target_h < 1 or target_w < 1:
        raise DimensionError(f"resize target must be positive, got {target_h}x{target_w}")
    if (image.height, image.width) == (target_h, target_w):
        return RgbImage(image.pixels.copy())
    out = np.empty((target_h, target_w, 3))
    for c in range(3):
        out[..., c] = upsample(image.pixels[..., c].astype(np.float64), target_h, target_w)
    return RgbImage(np.clip(np.rint(out), 0, 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# stack assembly


def _minmax_pm1(plane: np.ndarray) -> np.ndarray:
    lo, hi = plane.min(), plane.max()
    if hi - lo == 0:
        return np.zeros_like(plane)
    return (plane - lo) / (hi - lo) * 2.0 - 1.0


def _chroma_pm1(plane: np.ndarray) -> np.ndarray:
    return (np.clip(plane, -128.0, 127.0) + 128.0) / 255.0 * 2.0 - 1.0


def build_pfm_stack(image: RgbImage, side: int) -> PfmStack:
    """Resize to side x side, at least `MIN_SIDE`, and compute the four opponent maps."""
    if side < MIN_SIDE:
        raise DimensionError(f"feature maps need a side of at least {MIN_SIDE}, got {side}")
    L, a, b = srgb_to_lab(resize_rgb(image, side, side))
    light_dark = _minmax_pm1(upsample(approximation_level3(L), side, side))
    coarse_fine = _minmax_pm1(upsample(detail_level1(L), side, side))
    maps = np.stack([light_dark, coarse_fine, _chroma_pm1(b), _chroma_pm1(a)]).astype(np.float32)
    return PfmStack(maps=maps)
