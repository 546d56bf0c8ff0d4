import json
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from indoorseg.cloud import FRAME_CAMERA, FRAME_GRAVITY
from indoorseg.errors import InputError, field_types
from indoorseg import overseg, pipeline
from indoorseg.evalkit import ConfusionMatrix, prepare_frame, prepare_frames, score_prep, \
    train_from_preps
from indoorseg.forest import ForestParams
from indoorseg.ground import plane_from_pose
from indoorseg.labels import Label
from indoorseg.overseg import PatchGraph
from indoorseg.pipeline import (
    PipelineConfig,
    patch_majority_labels,
    run_stages,
    segment_cloud,
)
from indoorseg.synth import SceneSpec, generate_scene

from conftest import make_cloud, patch_members, peak_bytes


def small_scene(seed=0, density=900.0):
    return generate_scene(SceneSpec(
        seed=seed, room_extent=(3.6, 3.0, 2.2), points_per_m2=density,
        furniture_counts={"table": 1, "chair": 1, "cabinet": 0, "object": 1}))


def camera_view(cloud, height=1.2, pitch=0.35):
    """``cloud`` (gravity frame, floor at z = 0) as seen by a camera
    ``height`` above its origin, pitched ``pitch`` down, and that camera's
    `plane_from_pose` ground plane."""
    c, s = np.cos(pitch), np.sin(pitch)
    rotation = np.array([[0.0, -1.0, 0.0], [-s, 0.0, -c], [c, 0.0, -s]])
    positions = (cloud.positions - [0.0, 0.0, height]) @ rotation.T
    return (cloud.with_(positions=positions, frame=FRAME_CAMERA),
            plane_from_pose(height, pitch, 0.0))


class _SerialTree(overseg.cKDTree):
    """A kd-tree whose queries run on one scipy worker."""

    def query(self, *args, **kwargs):
        return super().query(*args, **{**kwargs, "workers": 1})


CFG = PipelineConfig(voxel_resolution=0.03, seed_resolution=0.15,
                     min_floor_points=200)


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(voxel_resolution=0.02, num_trees=4, seed=9)
        path = tmp_path / "config.json"
        config.save(path)
        assert PipelineConfig.load(path) == config

    def test_unknown_keys_rejected(self):
        # `workers` is a key of config files written by older versions
        for key, value in (("selfdestruct", True), ("workers", 1)):
            with pytest.raises(InputError, match=rf"config: unknown keys \['{key}'\]"):
                PipelineConfig.from_dict({key: value})

    @pytest.mark.parametrize("data, field", [
        ({"seed": "x"}, "seed"), ({"voxel_resolution": None}, "voxel_resolution"),
        ({"normals_k": "15"}, "normals_k"), ({"num_trees": True}, "num_trees"),
        ({"mrf_lambda": False}, "mrf_lambda"), ({"class_balanced": 1}, "class_balanced"),
        ({"normals_k": 15.0}, "normals_k"), ({"ground_mode": ["fit"]}, "ground_mode"),
    ])
    def test_wrong_json_types_rejected(self, tmp_path, data, field):
        with pytest.raises(InputError, match=f"config: field '{field}' must be"):
            PipelineConfig.from_dict(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InputError, match=f"config.json: field '{field}'"):
            PipelineConfig.load(path)

    def test_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(InputError, match="config.json: expected a JSON object"):
            PipelineConfig.load(path)

    def test_int_accepted_for_float_and_written_back(self, tmp_path):
        config = PipelineConfig.from_dict({"mrf_lambda": 2, "voxel_resolution": 0.02})
        assert config.mrf_lambda == 2 and type(config.mrf_lambda) is int
        path = tmp_path / "config.json"
        config.save(path)
        assert '"mrf_lambda": 2,' in path.read_text()
        assert PipelineConfig.load(path) == config

    def test_stage_params_are_config_fields(self):
        assert PipelineConfig().forest_params() == ForestParams()
        config_types = field_types(PipelineConfig)
        for name, kind in field_types(ForestParams).items():
            assert config_types.get(name) is kind, f"ForestParams.{name}"

    def test_stage_params_copy_the_config(self):
        config = PipelineConfig(
            voxel_resolution=0.02, seed_resolution=0.3, w_spatial=0.5, w_normal=2.0,
            w_color=0.1, min_patch_points=4, num_trees=3, max_depth=5,
            candidates_per_node=2, thresholds_per_candidate=7, min_samples_split=3,
            seed=11, class_balanced=True)
        assert config.forest_params() == ForestParams(
            num_trees=3, max_depth=5, candidates_per_node=2, thresholds_per_candidate=7,
            min_samples_split=3, seed=11, class_balanced=True)

    def test_bounds_validated(self):
        with pytest.raises(InputError):
            PipelineConfig(ground_mode="sideways")
        with pytest.raises(InputError):
            PipelineConfig(seed_resolution=0.005)  # below voxel resolution
        with pytest.raises(InputError):
            PipelineConfig(mrf_sigma=0.0)
        with pytest.raises(InputError, match="min_patch_points must be >= 3"):
            PipelineConfig(min_patch_points=2)


class TestGroundModes:
    def test_auto_passes_through_aligned_clouds(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_GRAVITY)
        assert pipeline._ground_mode(cloud, CFG, None) == "none"

    def test_none_rejects_camera_frame(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_CAMERA)
        config = PipelineConfig(ground_mode="none")
        with pytest.raises(InputError):
            pipeline._ground_mode(cloud, config, None)

    def test_pose_mode_requires_pose(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_CAMERA)
        config = PipelineConfig(ground_mode="pose")
        with pytest.raises(InputError):
            pipeline._ground_mode(cloud, config, None)

    def test_fit_without_labels_names_the_flags(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_CAMERA)
        for mode in ("auto", "fit"):
            config = PipelineConfig(ground_mode=mode)
            with pytest.raises(InputError, match="--pose-file.*--ground-mode"):
                pipeline._ground_mode(cloud, config, None)

    def test_run_stages_rejects_before_normals(self, rng, monkeypatch):
        def no_normals(*args, **kwargs):
            raise AssertionError("normals computed for a cloud that cannot be aligned")

        monkeypatch.setattr(pipeline, "compute_normals", no_normals)
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_CAMERA)
        for mode in ("auto", "fit", "pose", "none"):
            with pytest.raises(InputError):
                run_stages(cloud, PipelineConfig(ground_mode=mode))

    def test_auto_prefers_pose_when_given(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_CAMERA)
        pose = plane_from_pose(1.0, 0.0, 0.0)
        assert pipeline._ground_mode(cloud, CFG, pose) == "pose"


class TestStages:
    def test_run_stages_outputs_consistent(self):
        cloud = small_scene()
        stages = run_stages(cloud, CFG)
        assert stages.cloud.frame == FRAME_GRAVITY
        # one feature row per patch; points and edges index the patches
        graph = stages.graph
        assert [f.name for f in fields(stages)] == ["cloud", "graph", "features", "timings"]
        assert stages.features.shape == (len(graph), 14)
        assert graph.point_to_patch.shape[0] == len(cloud)
        assert (graph.point_to_patch >= 0).any()
        assert graph.edges.shape[0] > 0
        # the MRF edge lengths come from these: the aligned cloud's centroids
        np.testing.assert_allclose(
            graph.centroids,
            [stages.cloud.positions[m].mean(axis=0) for m in patch_members(graph)])
        for key in ("normals", "oversegmentation", "ground", "features"):
            assert key in stages.timings

    @pytest.mark.parametrize("mode", ["fit", "pose", "none"])
    def test_counts_and_centroids_taken_once(self, mode, monkeypatch):
        """A frame averages its patch positions once, in
        `refresh_patch_stats` on the aligned cloud, whatever its ground
        mode. It counts the points of its voxels once too, in `voxel_grid`:
        no unweighted `np.bincount` of the voxel map runs."""
        cloud, pose = small_scene(), None
        if mode != "none":
            cloud, pose = camera_view(cloud)
        grids, refreshed, voxel_counts = [], [], []

        def grid(*args):
            grids.append(overseg.voxel_grid(*args))
            return grids[-1]

        def refresh(graph, cloud):
            refreshed.append(cloud)
            return overseg.refresh_patch_stats(graph, cloud)

        def bincount(x, weights=None, minlength=0, fn=np.bincount):
            if weights is None and any(x.shape == g.vox_of_point.shape
                                       and np.array_equal(x, g.vox_of_point) for g in grids):
                voxel_counts.append(x)
            return fn(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(pipeline, "voxel_grid", grid)
        monkeypatch.setattr(pipeline, "refresh_patch_stats", refresh)
        monkeypatch.setattr(np, "bincount", bincount)
        stages = run_stages(cloud, replace(CFG, ground_mode=mode), pose)
        assert len(grids) == 1 and not voxel_counts
        assert len(refreshed) == 1 and refreshed[0] is stages.cloud
        assert stages.cloud.frame == FRAME_GRAVITY
        np.testing.assert_allclose(
            stages.graph.centroids,
            [stages.cloud.positions[m].mean(axis=0) for m in patch_members(stages.graph)])

    def test_run_stages_peak_memory_stays_bounded(self):
        """Every per-point and per-voxel stage works in slices or columns,
        so no stage holds whole-cloud (N, 3) or (V, k) temporaries it does
        not return. With them, this run peaked at 125 MB."""
        cloud = generate_scene(SceneSpec(seed=77, points_per_m2=4000.0,
                                         max_points=307200))
        assert len(cloud) > 250_000
        peak = peak_bytes(lambda: run_stages(cloud, PipelineConfig()))
        assert peak < 84e6, f"run_stages peaked at {peak / 1e6:.1f} MB"

    def test_patch_majority_labels(self):
        cloud = small_scene()
        stages = run_stages(cloud, CFG)
        gt = patch_majority_labels(stages.graph, stages.cloud)
        assert gt.shape[0] == len(stages.graph)
        assert gt.max() < len(Label)
        # the majority label is the most frequent one among the members
        for p, members in enumerate(patch_members(stages.graph)):
            counts = np.bincount(cloud.labels[members], minlength=len(Label))
            assert counts[gt[p]] == counts.max()
        # ties go to the lowest label id; orphan points (-1) never vote
        graph = PatchGraph(point_to_patch=np.array([0, 0, 1, 1, 1, 1, -1, -1]),
                           edges=np.zeros((0, 2), dtype=np.int64), sizes=np.array([2, 4]))
        tied = make_cloud(np.zeros((8, 3)), labels=[3, 1, 5, 2, 5, 2, 0, 0])
        np.testing.assert_array_equal(patch_majority_labels(graph, tied), [1, 2])

    def test_frame_prep_holds_no_cloud(self):
        """Per point, a prep keeps only the ground truth and the patch map,
        so eval's peak memory does not grow with the cloud's other fields."""
        cloud = small_scene()
        prep = prepare_frame(cloud, CFG)
        assert prep.point_to_feature is prep.graph.point_to_patch

        def arrays(record):
            for value in vars(record).values():
                if isinstance(value, PatchGraph):
                    yield from arrays(value)
                elif isinstance(value, np.ndarray):
                    yield value
                else:
                    assert isinstance(value, (str, dict)), type(value)

        total = sum(a.nbytes for a in arrays(prep))
        assert total <= 9 * len(cloud) + 256 * len(prep.graph)

    def test_segment_and_score_share_one_classify_path(self):
        """segment_cloud's point labels give the confusion matrices that
        score_prep accumulates for the same cloud and model."""
        preps, _ = prepare_frames([small_scene(1)], CFG)
        model = train_from_preps(preps, CFG)
        cloud = small_scene(0)
        result = segment_cloud(cloud, model, CFG)
        cm_mrf, cm_unary = ConfusionMatrix(), ConfusionMatrix()
        score_prep(prepare_frame(cloud, CFG), model, CFG, cm_mrf, cm_unary)
        expected_mrf = ConfusionMatrix().add(cloud.labels, result.point_labels)
        expected_unary = ConfusionMatrix().add(cloud.labels, result.unary_point_labels)
        assert cm_mrf.total > 0
        np.testing.assert_array_equal(cm_mrf.counts, expected_mrf.counts)
        np.testing.assert_array_equal(cm_unary.counts, expected_unary.counts)
        assert cm_mrf.excluded_uncovered == expected_mrf.excluded_uncovered
        assert not np.array_equal(expected_mrf.counts, expected_unary.counts)

    def test_knn_thread_count_does_not_change_results(self, monkeypatch):
        preps, _ = prepare_frames([small_scene(1)], CFG)
        model = train_from_preps(preps, CFG)
        cloud = small_scene(0)
        # several normals query chunks, the last one short
        assert len(cloud) > overseg._KNN_CHUNK
        assert len(cloud) % overseg._KNN_CHUNK != 0
        parallel = segment_cloud(cloud, model, CFG)
        monkeypatch.setattr(overseg, "cKDTree", _SerialTree)
        serial = segment_cloud(cloud, model, CFG)
        np.testing.assert_array_equal(serial.point_labels, parallel.point_labels)
        np.testing.assert_array_equal(serial.stage_output.graph.edges,
                                      parallel.stage_output.graph.edges)
        np.testing.assert_array_equal(serial.stage_output.cloud.normals,
                                      parallel.stage_output.cloud.normals)

    @pytest.mark.parametrize("density, normals_path", [(4000.0, "_voxel_normals"),
                                                       (900.0, "_knn_normals")])
    def test_stages_start_no_thread(self, density, normals_path, monkeypatch):
        """Normals and oversegmentation run on the caller's thread, and so
        does the frame preparation of `train`, `eval` and `cross_validate`.
        A dense cloud builds no kd-tree at all. On a sparse one scipy starts
        its kNN query workers as Python threads, so they are held at one
        there; `test_knn_thread_count_does_not_change_results` shows that
        they change no result."""
        cloud = small_scene(density=density)
        assert len(cloud) > overseg._KNN_CHUNK
        paths = []
        for name in ("_voxel_normals", "_knn_normals"):
            monkeypatch.setattr(overseg, name, lambda *args, name=name, fn=getattr(overseg, name):
                                paths.append(name) or fn(*args))

        def start(thread):
            raise AssertionError(f"thread {thread.name} started")

        if normals_path == "_knn_normals":
            monkeypatch.setattr(overseg, "cKDTree", _SerialTree)
        monkeypatch.setattr(threading.Thread, "start", start)
        stages = run_stages(cloud, CFG)
        assert paths == [normals_path]
        assert len(stages.graph) > 0
        preps, discarded = prepare_frames([cloud], CFG)
        assert paths == [normals_path] * 2
        assert (len(preps), discarded) == (1, 0)
