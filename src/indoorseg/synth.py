"""Deterministic synthetic indoor scenes with per-point ground truth.

Scenes are gravity-aligned: floor at z = 0, walls vertical, ceiling at the
room height. Furniture is sampled on surface rectangles (uniform per area),
so the geometry is exact up to the requested Gaussian position noise, which
is truncated at 3 sigma to keep label-conditioned height bounds sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .cloud import FRAME_GRAVITY, PointCloud
from .errors import GenerationError, InputError
from .labels import Label

DEFAULT_FURNITURE_COUNTS: dict[str, int] = {
    "table": 2,
    "chair": 2,
    "cabinet": 1,
    "object": 3,
}

# Base colors per label; instances get a brightness jitter, surfaces a
# color gradient (fake texture), points a small jitter. The palettes
# deliberately overlap (furniture browns, wall vs ceiling whites) so color
# alone never separates the classes. Objects get a random saturated hue.
_BASE_COLORS = {
    Label.FLOOR: (120, 100, 80),
    Label.WALL: (208, 205, 198),
    Label.CEILING: (230, 228, 222),
    Label.TABLE: (158, 120, 82),
    Label.CHAIR: (138, 98, 70),
    Label.CABINET: (96, 66, 44),
}

_WALL_MARGIN = 0.3
_CLEARANCE = 0.12
_PLACEMENT_RETRIES = 200
# bound on the points sampled before the max_points cap, ~20x the densest
# scene the tests and the benchmark generate: far higher densities would
# allocate without bound for a capped cloud
_MAX_SAMPLES = 1 << 23


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of one generated scene; equal specs yield identical clouds."""

    seed: int = 0
    room_extent: tuple[float, float, float] = (5.0, 4.0, 2.5)
    furniture_counts: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_FURNITURE_COUNTS))
    points_per_m2: float = 2000.0
    noise_sigma: float = 0.005
    max_points: int = 307200

    def __post_init__(self):
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        # each comparison with NaN is False, so NaN fails these bounds too
        if not all(0 < v < math.inf for v in self.room_extent):
            raise InputError(f"room_extent must be finite and positive, got {self.room_extent}")
        if not 0 <= self.noise_sigma < math.inf:
            raise InputError("noise_sigma must be finite and >= 0")
        if not 0 < self.points_per_m2 < math.inf:
            raise InputError("points_per_m2 must be finite and positive")
        if self.max_points < 1:
            raise InputError("max_points must be >= 1")
        unknown = set(self.furniture_counts) - set(DEFAULT_FURNITURE_COUNTS)
        if unknown:
            raise InputError(f"unknown furniture kinds {sorted(unknown)}")
        if any(v < 0 for v in self.furniture_counts.values()):
            raise InputError("furniture counts must be >= 0")


@dataclass
class _Surface:
    origin: np.ndarray       # one corner
    edge_u: np.ndarray       # first side vector
    edge_v: np.ndarray       # second side vector (orthogonal to edge_u)
    normal: np.ndarray       # unit, points out of the solid / into the room
    label: Label
    color: np.ndarray        # uint8 base color


def _box_surfaces(x0, y0, z0, sx, sy, sz, label, color, with_bottom=False) -> list[_Surface]:
    """Axis-aligned box faces: top, four sides, optionally the bottom."""
    c = np.asarray(color, dtype=np.float64)
    ex = np.array([sx, 0.0, 0.0])
    ey = np.array([0.0, sy, 0.0])
    ez = np.array([0.0, 0.0, sz])
    o = np.array([x0, y0, z0])
    faces = [
        _Surface(o + ez, ex, ey, np.array([0.0, 0.0, 1.0]), label, c),        # top
        _Surface(o, ex, ez, np.array([0.0, -1.0, 0.0]), label, c),            # y = y0
        _Surface(o + ey, ex, ez, np.array([0.0, 1.0, 0.0]), label, c),        # y = y0+sy
        _Surface(o, ey, ez, np.array([-1.0, 0.0, 0.0]), label, c),            # x = x0
        _Surface(o + ex, ey, ez, np.array([1.0, 0.0, 0.0]), label, c),        # x = x0+sx
    ]
    if with_bottom:
        faces.append(_Surface(o, ex, ey, np.array([0.0, 0.0, -1.0]), label, c))
    return faces


def _room_shell(extent) -> list[_Surface]:
    w, d, h = extent
    floor_c = np.asarray(_BASE_COLORS[Label.FLOOR], dtype=np.float64)
    wall_c = np.asarray(_BASE_COLORS[Label.WALL], dtype=np.float64)
    ceil_c = np.asarray(_BASE_COLORS[Label.CEILING], dtype=np.float64)
    ex = np.array([w, 0.0, 0.0])
    ey = np.array([0.0, d, 0.0])
    ez = np.array([0.0, 0.0, h])
    zero = np.zeros(3)
    return [
        _Surface(zero, ex, ey, np.array([0.0, 0.0, 1.0]), Label.FLOOR, floor_c),
        _Surface(zero + ez, ex, ey, np.array([0.0, 0.0, -1.0]), Label.CEILING, ceil_c),
        _Surface(zero, ex, ez, np.array([0.0, 1.0, 0.0]), Label.WALL, wall_c),
        _Surface(zero + ey, ex, ez, np.array([0.0, -1.0, 0.0]), Label.WALL, wall_c),
        _Surface(zero, ey, ez, np.array([1.0, 0.0, 0.0]), Label.WALL, wall_c),
        _Surface(zero + ex, ey, ez, np.array([-1.0, 0.0, 0.0]), Label.WALL, wall_c),
    ]


def _hsv_to_rgb(h, s, v):
    i = int(h * 6.0) % 6
    f = h * 6.0 - math.floor(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - f * s), v * (1 - (1 - f) * s)
    r, g, b = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]
    return np.array([r * 255.0, g * 255.0, b * 255.0])


def _footprints_overlap(a, b, clearance):
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return not (ax1 + clearance <= bx0 or bx1 + clearance <= ax0
                or ay1 + clearance <= by0 or by1 + clearance <= ay0)


def _place_footprint(rng, room, size_xy, taken, margin=_WALL_MARGIN):
    """Random non-overlapping axis-aligned footprint, bounded retries."""
    w, d, _ = room
    sx, sy = size_xy
    lo_x, hi_x = margin, w - margin - sx
    lo_y, hi_y = margin, d - margin - sy
    if hi_x < lo_x or hi_y < lo_y:
        raise GenerationError(
            f"footprint {size_xy} does not fit in room {room[:2]} with margin {margin}")
    for _ in range(_PLACEMENT_RETRIES):
        x0 = rng.uniform(lo_x, hi_x)
        y0 = rng.uniform(lo_y, hi_y)
        rect = (x0, y0, x0 + sx, y0 + sy)
        if all(not _footprints_overlap(rect, t, _CLEARANCE) for t in taken):
            taken.append(rect)
            return x0, y0
    raise GenerationError(
        f"could not place footprint {size_xy} after {_PLACEMENT_RETRIES} retries")


def _jitter_color(rng, base):
    return np.clip(base + rng.normal(0.0, 6.0, size=3), 0, 255)


def generate_scene(spec: SceneSpec) -> PointCloud:
    """Generate one labeled scene; a pure function of its parameters."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    room = spec.room_extent
    counts = {**DEFAULT_FURNITURE_COUNTS, **dict(spec.furniture_counts)}

    surfaces = _room_shell(room)
    taken: list[tuple] = []
    table_tops: list[tuple[float, float, float, float, float]] = []  # x0,y0,x1,y1,z

    for _ in range(counts["table"]):
        sx = rng.uniform(0.9, 1.4)
        sy = rng.uniform(0.6, 0.9)
        top = rng.uniform(0.6, 0.8)
        x0, y0 = _place_footprint(rng, room, (sx, sy), taken)
        color = _jitter_color(rng, np.asarray(_BASE_COLORS[Label.TABLE], dtype=np.float64))
        faces = _box_surfaces(x0, y0, 0.0, sx, sy, top, Label.TABLE, color)
        surfaces.extend(faces)
        table_tops.append((x0, y0, x0 + sx, y0 + sy, top))

    for _ in range(counts["cabinet"]):
        sx = rng.uniform(0.5, 1.0)
        sy = rng.uniform(0.4, 0.6)
        h = rng.uniform(1.2, 1.8)
        x0, y0 = _place_footprint(rng, room, (sx, sy), taken)
        color = _jitter_color(rng, np.asarray(_BASE_COLORS[Label.CABINET], dtype=np.float64))
        surfaces.extend(_box_surfaces(x0, y0, 0.0, sx, sy, h, Label.CABINET, color))

    for _ in range(counts["chair"]):
        seat = 0.42
        seat_top = rng.uniform(0.42, 0.48)
        back_h = rng.uniform(0.40, 0.50)
        x0, y0 = _place_footprint(rng, room, (seat, seat), taken)
        color = _jitter_color(rng, np.asarray(_BASE_COLORS[Label.CHAIR], dtype=np.float64))
        # seat slab on four legs, backrest slab on a random side
        surfaces.extend(_box_surfaces(x0, y0, seat_top - 0.05, seat, seat, 0.05,
                                      Label.CHAIR, color, with_bottom=True))
        leg = 0.035
        for lx, ly in ((x0, y0), (x0 + seat - leg, y0),
                       (x0, y0 + seat - leg), (x0 + seat - leg, y0 + seat - leg)):
            surfaces.extend(_box_surfaces(lx, ly, 0.0, leg, leg, seat_top - 0.05,
                                          Label.CHAIR, color)[1:])  # sides only
        side = int(rng.integers(0, 4))
        bt = 0.05
        if side == 0:
            bx, by, bsx, bsy = x0, y0, seat, bt
        elif side == 1:
            bx, by, bsx, bsy = x0, y0 + seat - bt, seat, bt
        elif side == 2:
            bx, by, bsx, bsy = x0, y0, bt, seat
        else:
            bx, by, bsx, bsy = x0 + seat - bt, y0, bt, seat
        back = _box_surfaces(bx, by, seat_top, bsx, bsy, back_h, Label.CHAIR, color)
        surfaces.extend(back)

    for _ in range(counts["object"]):
        sx = rng.uniform(0.06, 0.16)
        sy = rng.uniform(0.06, 0.16)
        sz = rng.uniform(0.06, 0.16)
        hue = rng.uniform(0.0, 1.0)
        color = np.clip(_hsv_to_rgb(hue, 0.8, 0.85) + rng.normal(0.0, 6.0, size=3), 0, 255)
        if table_tops:
            tx0, ty0, tx1, ty1, tz = table_tops[int(rng.integers(0, len(table_tops)))]
            if tx1 - tx0 <= sx or ty1 - ty0 <= sy:
                raise GenerationError("object larger than its table top")
            x0 = rng.uniform(tx0, tx1 - sx)
            y0 = rng.uniform(ty0, ty1 - sy)
            z0 = tz
        else:
            x0, y0 = _place_footprint(rng, room, (sx, sy), taken, margin=_WALL_MARGIN)
            z0 = 0.0
        surfaces.extend(_box_surfaces(x0, y0, z0, sx, sy, sz, Label.OBJECT, color))

    counts = [_sample_count(s, spec.points_per_m2) for s in surfaces]
    if sum(counts) > _MAX_SAMPLES:
        raise InputError(
            f"points_per_m2={spec.points_per_m2} would sample {sum(counts)} points "
            f"before the max_points cap; the limit is {_MAX_SAMPLES}")
    positions, colors, labels, normals = _sample_surfaces(rng, surfaces, counts)

    if positions.shape[0] > spec.max_points:
        keep = rng.choice(positions.shape[0], size=spec.max_points, replace=False)
        keep.sort()
        positions, colors, labels, normals = (
            positions[keep], colors[keep], labels[keep], normals[keep])

    if spec.noise_sigma > 0:
        noise = rng.normal(0.0, spec.noise_sigma, size=positions.shape)
        np.clip(noise, -3.0 * spec.noise_sigma, 3.0 * spec.noise_sigma, out=noise)
        positions = positions + noise

    return PointCloud(
        positions=positions,
        colors=np.clip(np.round(colors), 0, 255).astype(np.uint8),
        labels=labels,
        normals=normals,
        frame=FRAME_GRAVITY,
    )


def _sample_count(surface: _Surface, density: float) -> int | float:
    """Points sampled on a surface: its area times the density, at least 1;
    ``math.inf`` where that product overflows."""
    with np.errstate(over="ignore"):
        expected = np.linalg.norm(surface.edge_u) * np.linalg.norm(surface.edge_v) * density
    return max(1, int(round(expected))) if math.isfinite(expected) else math.inf


def _sample_surfaces(rng, surfaces, counts, color_gradient=40.0, color_jitter=12.0):
    """Uniform-per-area sampling, ``counts[i]`` points on surface i. Colors
    drift linearly across each surface (fake texture/shading) on top of
    per-point jitter, so local color evidence is noisy while the geometry
    stays exact."""
    positions, colors, labels, normals = [], [], [], []
    for s, n in zip(surfaces, counts):
        u = rng.uniform(0.0, 1.0, size=n)
        v = rng.uniform(0.0, 1.0, size=n)
        pts = s.origin[None, :] + u[:, None] * s.edge_u[None, :] + v[:, None] * s.edge_v[None, :]
        positions.append(pts)
        grad_u = rng.normal(0.0, color_gradient, size=3)
        grad_v = rng.normal(0.0, color_gradient, size=3)
        c = (s.color[None, :]
             + (u - 0.5)[:, None] * grad_u[None, :]
             + (v - 0.5)[:, None] * grad_v[None, :]
             + rng.normal(0.0, color_jitter, size=(n, 3)))
        colors.append(np.clip(c, 0, 255))
        labels.append(np.full(n, int(s.label), dtype=np.uint8))
        normals.append(np.tile(s.normal, (n, 1)))
    return (np.concatenate(positions), np.concatenate(colors),
            np.concatenate(labels), np.concatenate(normals))
