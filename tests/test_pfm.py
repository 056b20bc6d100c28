import numpy as np
import pytest

from epu import pfm
from epu.errors import ContractError, DimensionError

# frozen from an independent scalar reference-formula computation (D65)
LAB_ORACLE = {
    (255, 0, 0): (53.240794, 80.092460, 67.203197),
    (0, 255, 0): (87.734722, -86.182716, 83.179321),
    (0, 0, 255): (32.297011, 79.187520, -107.860162),
    (255, 255, 0): (97.139267, -21.553748, 94.477975),
}


def solid(rgb, h=4, w=4):
    return pfm.RgbImage(np.tile(np.array(rgb, np.uint8), (h, w, 1)))


def test_rgb_image_accepts_only_byte_values():
    # integer values of another dtype convert exactly; anything else raises
    # instead of wrapping (300 to 44, -1 to 255) or truncating (0.5 to 0)
    twin = np.random.default_rng(5).integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
    img = pfm.RgbImage(twin.astype(np.float64))
    assert img.pixels.dtype == np.uint8 and img.pixels.tobytes() == twin.tobytes()
    for bad, shown in ((300, "300.0"), (-1, "-1.0"), (0.5, "0.5"), (np.nan, "nan")):
        px = twin.astype(np.float64)
        px[2, 1, 0] = bad
        with pytest.raises(ContractError) as info:
            pfm.RgbImage(px)
        assert str(info.value) == f"RgbImage pixels must be integers in [0, 255], got {shown} at (2, 1, 0)"


def test_lab_white_and_black():
    L, a, b = pfm.srgb_to_lab(solid((255, 255, 255)))
    assert abs(L[0, 0] - 100.0) < 0.01
    assert abs(a[0, 0]) < 0.01 and abs(b[0, 0]) < 0.01
    for plane in pfm.srgb_to_lab(solid((0, 0, 0))):
        assert plane[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_lab_primaries_match_oracle():
    for rgb, want in LAB_ORACLE.items():
        for plane, value in zip(pfm.srgb_to_lab(solid(rgb)), want):
            assert plane[0, 0] == pytest.approx(value, abs=1e-4)


def test_lab_achromatic_axis():
    for v in (17, 64, 128, 200, 240):
        _, a, b = pfm.srgb_to_lab(solid((v, v, v)))
        assert np.all(np.abs(a) < 0.01)
        assert np.all(np.abs(b) < 0.01)


def test_dwt_constant_plane():
    ll, lh, hl, hh = pfm.dwt2_level(np.full((6, 6), 3.0))
    assert np.allclose(ll, 6.0)
    for band in (lh, hl, hh):
        assert np.allclose(band, 0.0)


def test_dwt_checkerboard_concentrates_in_hh():
    ll, lh, hl, hh = pfm.dwt2_level(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert ll[0, 0] == pytest.approx(1.0)
    assert lh[0, 0] == pytest.approx(0.0)
    assert hl[0, 0] == pytest.approx(0.0)
    assert abs(hh[0, 0]) == pytest.approx(1.0)


def test_dwt_preserves_energy_even_dims():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 12))
    bands = pfm.dwt2_level(x)
    assert sum(float((b * b).sum()) for b in bands) == pytest.approx(float((x * x).sum()))


@pytest.mark.parametrize("shape", [(2, 2), (4, 6), (8, 8), (16, 10)])
def test_dwt_roundtrip_even_dims(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape)
    rec = pfm.idwt2_level(*pfm.dwt2_level(x))
    assert np.abs(rec - x).max() < 1e-6


def test_dwt_odd_dims_pad_shape():
    bands = pfm.dwt2_level(np.arange(35.0).reshape(5, 7))
    for b in bands:
        assert b.shape == (3, 4)


def test_dwt_rejects_tiny_plane():
    with pytest.raises(DimensionError):
        pfm.dwt2_level(np.ones((1, 5)))


def test_approximation_level3_constant_and_dims():
    out = pfm.approximation_level3(np.full((16, 24), 1.5))
    assert out.shape == (2, 3)
    assert np.allclose(out, 8 * 1.5)
    ragged = pfm.approximation_level3(np.zeros((9, 11)))
    assert ragged.shape == (2, 2)  # ceil-halving three times


def test_approximation_level3_is_lowpass():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((32, 32))
    out = pfm.approximation_level3(x)
    assert out.var() < x.var()


def test_approximation_level3_rejects_small():
    with pytest.raises(DimensionError):
        pfm.approximation_level3(np.zeros((7, 20)))


def test_detail_level1_cases():
    assert np.allclose(pfm.detail_level1(np.full((4, 4), 2.0)), 0.0)
    edge = np.zeros((8, 8))
    edge[:, 5:] = 1.0  # vertical edge inside a column pair
    assert np.abs(pfm.detail_level1(edge)).max() < 1e-12
    checker = np.tile([[1.0, 0.0], [0.0, 1.0]], (4, 4))
    hh = pfm.detail_level1(checker)
    assert np.allclose(np.abs(hh), 1.0)
    bands = pfm.dwt2_level(checker)
    assert np.allclose(bands[1], 0.0) and np.allclose(bands[2], 0.0)


def test_upsample_identity_and_constant():
    x = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(pfm.upsample(x, 3, 4), x)
    one = pfm.upsample(np.array([[7.5]]), 5, 6)
    assert one.shape == (5, 6)
    assert np.all(one == 7.5)


def test_upsample_corner_aligned_1d():
    out = pfm.upsample(np.array([[0.0, 1.0]]), 1, 4)
    assert np.allclose(out, [[0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]])


def test_upsample_rejects_zero_target():
    with pytest.raises(DimensionError):
        pfm.upsample(np.ones((2, 2)), 0, 4)


def test_resize_rgb_linear_ramp():
    img = pfm.RgbImage(np.array([[[0, 0, 0], [255, 255, 255]]], np.uint8))
    out = pfm.resize_rgb(img, 1, 4)
    assert np.array_equal(out.pixels[0, :, 0], [0, 85, 170, 255])


def test_build_pfm_stack_shape_and_range():
    rng = np.random.default_rng(3)
    img = pfm.RgbImage(rng.integers(0, 256, size=(50, 70, 3), dtype=np.uint8))
    stack = pfm.build_pfm_stack(img, 32)
    assert stack.maps.shape == (4, 32, 32)
    assert stack.maps.min() >= -1.0 and stack.maps.max() <= 1.0
    # wavelet maps are min-max scaled, so they span the full range
    assert stack.maps[0].min() == pytest.approx(-1.0, abs=1e-6)
    assert stack.maps[0].max() == pytest.approx(1.0, abs=1e-6)


def test_build_pfm_stack_achromatic_chroma_is_flat():
    rng = np.random.default_rng(4)
    gray = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
    img = pfm.RgbImage(np.stack([gray] * 3, axis=-1))
    stack = pfm.build_pfm_stack(img, 16)
    zero_level = (0.0 + 128.0) / 255.0 * 2.0 - 1.0
    assert np.allclose(stack.maps[2], zero_level, atol=1e-4)
    assert np.allclose(stack.maps[3], zero_level, atol=1e-4)


def test_build_pfm_stack_blue_yellow_sign():
    zero_level = (0.0 + 128.0) / 255.0 * 2.0 - 1.0
    yellow = pfm.build_pfm_stack(solid((255, 255, 0), 16, 16), 16)
    blue = pfm.build_pfm_stack(solid((0, 0, 255), 16, 16), 16)
    assert yellow.maps[2].mean() > zero_level
    assert blue.maps[2].mean() < zero_level


def test_chroma_maps_invariant_to_lightness_change():
    # two achromatic images differ only in L (up to color-transform float
    # noise); chroma maps must agree to that same noise floor
    a = pfm.build_pfm_stack(solid((90, 90, 90), 24, 24), 16)
    b = pfm.build_pfm_stack(solid((200, 200, 200), 24, 24), 16)
    assert np.allclose(a.maps[2], b.maps[2], atol=1e-6)
    assert np.allclose(a.maps[3], b.maps[3], atol=1e-6)


def test_build_pfm_stack_deterministic():
    rng = np.random.default_rng(8)
    img = pfm.RgbImage(rng.integers(0, 256, size=(33, 29, 3), dtype=np.uint8))
    s1 = pfm.build_pfm_stack(img, 16)
    s2 = pfm.build_pfm_stack(img, 16)
    assert np.array_equal(s1.maps, s2.maps)


def test_light_dark_map_varies_from_the_smallest_side():
    # at side 8 the third-level approximation is 1x1, so the map would be all
    # zeros: sides below 9 are refused
    rng = np.random.default_rng(12)
    img = pfm.RgbImage(rng.integers(0, 256, size=(20, 20, 3), dtype=np.uint8))
    assert pfm.approximation_level3(np.zeros((8, 8))).shape == (1, 1)
    assert pfm.MIN_SIDE == 9
    for side in (4, 7, 8):
        with pytest.raises(DimensionError, match="at least 9"):
            pfm.build_pfm_stack(img, side)
    for side in (pfm.MIN_SIDE, 12, 16):
        light_dark = pfm.build_pfm_stack(img, side).maps[0]
        assert light_dark.min() == -1.0 and light_dark.max() == 1.0


def test_constant_image_gives_zero_wavelet_maps():
    stack = pfm.build_pfm_stack(solid((120, 120, 120), 16, 16), 16)
    assert np.all(stack.maps[0] == 0.0)
    assert np.all(stack.maps[1] == 0.0)


# ---------------------------------------------------------------------------
# the earlier per-pixel implementation, kept here as a bitwise reference


def ref_srgb_to_lab(image):
    rgb = image.pixels.astype(np.float64) / 255.0
    lin = np.where(rgb > 0.04045, ((rgb + 0.055) / 1.055) ** 2.4, rgb / 12.92)
    xyz = lin @ pfm._SRGB_TO_XYZ.T
    xyz /= pfm._WHITE_D65
    f = np.where(xyz > pfm._LAB_EPS, np.cbrt(xyz), (pfm._LAB_KAPPA * xyz + 16.0) / 116.0)
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


def ref_split_pairs(x, axis):
    x = np.moveaxis(x, axis, -1)
    if x.shape[-1] % 2:
        x = np.concatenate([x, x[..., -1:]], axis=-1)
    even, odd = x[..., 0::2], x[..., 1::2]
    lo = (even + odd) / np.sqrt(2.0)
    hi = (even - odd) / np.sqrt(2.0)
    return np.moveaxis(lo, -1, axis), np.moveaxis(hi, -1, axis)


def ref_dwt2_level(plane):
    lo_w, hi_w = ref_split_pairs(np.asarray(plane, np.float64), axis=1)
    ll, lh = ref_split_pairs(lo_w, axis=0)
    hl, hh = ref_split_pairs(hi_w, axis=0)
    return ll, lh, hl, hh


def ref_upsample(plane, target_h, target_w):
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    if (h, w) == (target_h, target_w):
        return plane.copy()
    iy, fy = pfm._axis_positions(h, target_h)
    ix, fx = pfm._axis_positions(w, target_w)
    iy1 = np.minimum(iy + 1, h - 1)
    ix1 = np.minimum(ix + 1, w - 1)
    fy = fy[:, None]
    fx = fx[None, :]
    top = plane[np.ix_(iy, ix)] * (1 - fx) + plane[np.ix_(iy, ix1)] * fx
    bot = plane[np.ix_(iy1, ix)] * (1 - fx) + plane[np.ix_(iy1, ix1)] * fx
    return top * (1 - fy) + bot * fy


def ref_build_pfm_stack(image, side):
    px = image.pixels
    if px.shape[:2] != (side, side):
        out = np.stack([ref_upsample(px[..., c].astype(np.float64), side, side) for c in range(3)], axis=-1)
        px = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    L, a, b = ref_srgb_to_lab(pfm.RgbImage(px))
    ll = L
    for _ in range(3):
        ll = ref_dwt2_level(ll)[0]
    light_dark = pfm._minmax_pm1(ref_upsample(ll, side, side))
    coarse_fine = pfm._minmax_pm1(ref_upsample(ref_dwt2_level(L)[3], side, side))
    maps = [light_dark, coarse_fine, pfm._chroma_pm1(b), pfm._chroma_pm1(a)]
    return np.stack(maps).astype(np.float32)


def _reference_images():
    rng = np.random.default_rng(21)
    shapes = [(1, 1), (2, 3), (7, 5), (8, 8), (9, 9), (13, 21), (16, 16), (50, 70)]
    for h, w in shapes:
        yield f"random-{h}x{w}", pfm.RgbImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        yield f"constant-{h}x{w}", solid(tuple(int(v) for v in rng.integers(0, 256, 3)), h, w)


def test_srgb_decode_table_matches_formula():
    codes = pfm.RgbImage(np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2))
    v = np.arange(256, dtype=np.float64) / 255.0
    want = np.where(v > 0.04045, ((v + 0.055) / 1.055) ** 2.4, v / 12.92)
    assert pfm._SRGB_DECODE.tobytes() == want.tobytes()
    for got, ref in zip(pfm.srgb_to_lab(codes), ref_srgb_to_lab(codes)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name,image", list(_reference_images()))
def test_pfm_matches_per_pixel_reference(name, image):
    lab = pfm.srgb_to_lab(image)
    for got, ref in zip(lab, ref_srgb_to_lab(image)):
        assert got.tobytes() == ref.tobytes()
    L = lab[0]
    if min(image.height, image.width) >= 2:
        for got, ref in zip(pfm.dwt2_level(L), ref_dwt2_level(L)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    for th, tw in ((1, 1), (8, 8), (16, 9), (64, 64)):
        assert pfm.upsample(L, th, tw).tobytes() == ref_upsample(L, th, tw).tobytes()
    for side in (pfm.MIN_SIDE, 16, 64):
        assert pfm.build_pfm_stack(image, side).maps.tobytes() == ref_build_pfm_stack(image, side).tobytes()
