"""sRGB -> CIELAB conversion (D65 reference white, 2 degree observer)."""

from __future__ import annotations

import numpy as np

# sRGB linear RGB -> XYZ, D65 white point.
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE_XYZ = np.array([0.95047, 1.00000, 1.08883])

_DELTA = 6.0 / 29.0

_ROWS = 1 << 15  # colours per conversion slice

# linear-light value of each 8-bit channel value (the sRGB transfer curve)
_LEVELS = np.arange(256) / 255.0
_LINEAR = np.where(_LEVELS <= 0.04045, _LEVELS / 12.92,
                   ((_LEVELS + 0.055) / 1.055) ** 2.4)


def srgb_to_lab(rgb: np.ndarray) -> np.ndarray:
    """Convert uint8 sRGB values, shape (..., 3), to CIELAB.

    L lies in [0, 100]; a and b are signed chroma axes. Colours are
    converted in slices of ``_ROWS``, each straight into the output, so the
    float64 temporaries stay the size of one slice whatever the input's.
    """
    lab = np.empty(rgb.shape, dtype=np.float64)
    rows, out = rgb.reshape(-1, 3), lab.reshape(-1, 3)
    for start in range(0, rows.shape[0], _ROWS):
        here = slice(start, start + _ROWS)
        t = _LINEAR[rows[here]] @ _RGB_TO_XYZ.T
        t /= _WHITE_XYZ
        f = np.where(t > _DELTA**3, np.cbrt(t), t / (3.0 * _DELTA**2) + 4.0 / 29.0)
        out[here, 0] = 116.0 * f[:, 1] - 16.0
        out[here, 1] = 500.0 * (f[:, 0] - f[:, 1])
        out[here, 2] = 200.0 * (f[:, 1] - f[:, 2])
    return lab
