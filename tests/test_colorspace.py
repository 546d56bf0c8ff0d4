import numpy as np
import pytest

from indoorseg import colorspace
from indoorseg.colorspace import _DELTA, _RGB_TO_XYZ, _WHITE_XYZ, srgb_to_lab
from indoorseg.synth import SceneSpec, generate_scene

from conftest import peak_bytes


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


@pytest.mark.parametrize("rows", [0, 1, colorspace._ROWS, colorspace._ROWS + 1],
                         ids=["empty", "one_row", "one_slice", "one_slice_plus_one"])
def test_slices_match_whole_array_formula_bytes(rows):
    """The conversion runs in slices of `_ROWS` colours; at and around a
    slice's end it gives the whole-array formula's bytes."""
    rgb = np.random.default_rng(rows).integers(0, 256, size=(rows, 3), dtype=np.uint8)
    got = srgb_to_lab(rgb)
    want = srgb_to_lab_whole_array(rgb)
    assert got.dtype == want.dtype and got.shape == want.shape == (rows, 3)
    assert got.tobytes() == want.tobytes()


def test_peak_memory_stays_bounded():
    """The output plus one slice's temporaries: four whole-array (N, 3)
    float64 temporaries would take 19 MB more here."""
    colors = generate_scene(SceneSpec()).colors
    out_bytes = colors.shape[0] * 3 * 8
    assert out_bytes > 4e6
    peak = peak_bytes(lambda: srgb_to_lab(colors))
    assert peak < out_bytes + 6e6, f"srgb_to_lab peaked at {peak / 1e6:.1f} MB"
