import numpy as np

from indoorseg.colorspace import _DELTA, _RGB_TO_XYZ, _WHITE_XYZ, srgb_to_lab


def srgb_to_lab_whole_array(rgb):
    """The conversion as it was before the 256-entry table: the transfer
    curve evaluated on the whole (N, 3) array."""
    rgb = np.asarray(rgb, dtype=np.float64) / 255.0
    linear = np.where(rgb <= 0.04045, rgb / 12.92, ((rgb + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _RGB_TO_XYZ.T
    t = xyz / _WHITE_XYZ
    f = np.where(t > _DELTA**3, np.cbrt(t), t / (3.0 * _DELTA**2) + 4.0 / 29.0)
    lab = np.empty_like(xyz)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


def test_table_matches_whole_array_formula_bytes():
    """Every value of every channel, 64 times each in shuffled combinations,
    plus the greys; compared bit for bit."""
    rng = np.random.default_rng(0)
    shuffled = np.concatenate([
        np.stack([rng.permutation(256) for _ in range(3)], axis=1) for _ in range(64)])
    greys = np.repeat(np.arange(256)[:, None], 3, axis=1)
    rgb = np.concatenate([shuffled, greys]).astype(np.uint8)
    got = srgb_to_lab(rgb)
    want = srgb_to_lab_whole_array(rgb)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # any leading shape, as before
    block = rgb[:60].reshape(4, 5, 3, 3)
    assert srgb_to_lab(block).tobytes() == srgb_to_lab_whole_array(block).tobytes()
