import numpy as np
import pytest

from indoorseg.cloud import FRAME_GRAVITY
from indoorseg.errors import GenerationError, InputError
from indoorseg.labels import Label
from indoorseg import synth
from indoorseg.synth import SceneSpec, generate_scene

SMALL = dict(room_extent=(4.2, 3.4, 2.3), points_per_m2=300.0)


def test_spec_validation():
    with pytest.raises(InputError):
        SceneSpec(room_extent=(0.0, 1.0, 1.0))
    with pytest.raises(InputError):
        SceneSpec(noise_sigma=-0.1)
    with pytest.raises(InputError):
        SceneSpec(furniture_counts={"sofa": 1})
    nan, inf = float("nan"), float("inf")
    for bad in ({"seed": -1}, {"room_extent": (nan, 4.0, 2.5)},
                {"room_extent": (5.0, inf, 2.5)}, {"room_extent": (5.0, 4.0, -2.5)},
                {"points_per_m2": nan}, {"points_per_m2": inf}, {"points_per_m2": 0.0},
                {"noise_sigma": nan}, {"noise_sigma": inf}, {"max_points": 0},
                {"max_points": -1}):
        with pytest.raises(InputError):
            SceneSpec(**bad)


def test_empty_room_has_only_shell_labels():
    spec = SceneSpec(seed=3, furniture_counts={"table": 0, "chair": 0,
                                               "cabinet": 0, "object": 0}, **SMALL)
    cloud = generate_scene(spec)
    present = set(np.unique(cloud.labels))
    assert present == {int(Label.FLOOR), int(Label.WALL), int(Label.CEILING)}
    assert cloud.frame == FRAME_GRAVITY


def test_determinism_same_spec_identical_cloud():
    spec = SceneSpec(seed=11, **SMALL)
    a = generate_scene(spec)
    b = generate_scene(spec)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.colors, b.colors)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.normals, b.normals)


def test_different_seed_differs():
    a = generate_scene(SceneSpec(seed=1, **SMALL))
    b = generate_scene(SceneSpec(seed=2, **SMALL))
    assert a.positions.shape != b.positions.shape or \
        not np.array_equal(a.positions, b.positions)


def test_two_tables_noise_zero_tops_on_two_planes():
    """Plane-residual oracle: with zero noise, the points sampled on table
    tops (upward normal) must sit exactly on two horizontal planes."""
    spec = SceneSpec(seed=5, noise_sigma=0.0,
                     furniture_counts={"table": 2, "chair": 0, "cabinet": 0,
                                       "object": 0},
                     room_extent=(5.0, 4.0, 2.5), points_per_m2=400.0)
    cloud = generate_scene(spec)
    table = cloud.labels == int(Label.TABLE)
    upward = cloud.normals[:, 2] > 0.999
    top_z = cloud.positions[table & upward, 2]
    assert top_z.size > 100
    planes = np.unique(np.round(top_z, 9))
    assert planes.size == 2
    for z in planes:
        residual = np.abs(top_z[np.abs(top_z - z) < 1e-6] - z)
        assert residual.max() <= 1e-9
    assert all(0.6 <= z <= 0.8 for z in planes)


def test_all_labels_valid_and_floor_band():
    spec = SceneSpec(seed=9, noise_sigma=0.01, **SMALL)
    cloud = generate_scene(spec)
    assert cloud.labels.max() <= 7
    floor_z = cloud.positions[cloud.labels == int(Label.FLOOR), 2]
    assert np.abs(floor_z).max() <= 3.0 * 0.01 + 1e-12


def test_max_points_cap():
    spec = SceneSpec(seed=4, max_points=5000, **SMALL)
    cloud = generate_scene(spec)
    assert len(cloud) == 5000


def test_objects_on_table_tops():
    spec = SceneSpec(seed=21, noise_sigma=0.0,
                     furniture_counts={"table": 1, "chair": 0, "cabinet": 0,
                                       "object": 2},
                     room_extent=(4.0, 3.0, 2.3), points_per_m2=500.0)
    cloud = generate_scene(spec)
    obj_z = cloud.positions[cloud.labels == int(Label.OBJECT), 2]
    table_top = cloud.positions[(cloud.labels == int(Label.TABLE))
                                & (cloud.normals[:, 2] > 0.999), 2].max()
    assert obj_z.min() >= table_top - 1e-9


def test_object_without_table_lands_on_floor():
    spec = SceneSpec(seed=2, noise_sigma=0.0,
                     furniture_counts={"table": 0, "chair": 0, "cabinet": 0,
                                       "object": 1},
                     room_extent=(3.0, 2.5, 2.2), points_per_m2=300.0)
    cloud = generate_scene(spec)
    obj = cloud.labels == int(Label.OBJECT)
    assert obj.any()
    assert cloud.positions[obj, 2].min() >= -1e-9


def test_infeasible_placement_raises():
    spec = SceneSpec(seed=0, room_extent=(1.0, 1.0, 2.0),
                     furniture_counts={"table": 3, "chair": 0, "cabinet": 0,
                                       "object": 0},
                     points_per_m2=100.0)
    with pytest.raises(GenerationError):
        generate_scene(spec)


def test_huge_density_rejected_before_sampling():
    """Without the bound this spec fails allocating 146 TiB (MemoryError);
    a lower but still huge density would fill memory for a capped cloud."""
    with pytest.raises(InputError, match="would sample 99431424755510 points before "
                                         "the max_points cap; the limit is 8388608"):
        generate_scene(SceneSpec(points_per_m2=1e12))


def test_sample_bound_counts_every_surface(monkeypatch):
    """An empty 1 m cube has six 1 m^2 surfaces: 100 pts/m^2 samples 600."""
    monkeypatch.setattr(synth, "_MAX_SAMPLES", 600)
    empty = {"table": 0, "chair": 0, "cabinet": 0, "object": 0}
    cube = {"room_extent": (1.0, 1.0, 1.0), "furniture_counts": empty}
    assert len(generate_scene(SceneSpec(points_per_m2=100.0, **cube))) == 600
    with pytest.raises(InputError, match="would sample 606 points"):
        generate_scene(SceneSpec(points_per_m2=101.0, **cube))


def test_coverage_over_30_scene_batch():
    """Each of the 7 trainable labels appears in nearly every scene."""
    seen = np.zeros(7, dtype=int)
    for seed in range(30):
        cloud = generate_scene(SceneSpec(
            seed=seed, room_extent=(5.0, 4.0, 2.5), points_per_m2=150.0))
        present = np.unique(cloud.labels)
        for label in present:
            if label < 7:
                seen[label] += 1
    assert (seen >= 25).all(), seen
