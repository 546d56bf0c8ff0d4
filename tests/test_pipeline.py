import json

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
from indoorseg.overseg import OversegParams, PatchGraph
from indoorseg.pipeline import (
    PipelineConfig,
    patch_majority_labels,
    resolve_ground_plane,
    run_stages,
    segment_cloud,
)
from indoorseg.synth import SceneSpec, generate_scene

from conftest import make_cloud, patch_members


def small_scene(seed=0):
    return generate_scene(SceneSpec(
        seed=seed, room_extent=(3.6, 3.0, 2.2), points_per_m2=900.0,
        furniture_counts={"table": 1, "chair": 1, "cabinet": 0, "object": 1}))


CFG = PipelineConfig(voxel_resolution=0.03, seed_resolution=0.15,
                     min_floor_points=200)


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(voxel_resolution=0.02, num_trees=4, seed=9)
        path = tmp_path / "config.json"
        config.save(path)
        assert PipelineConfig.load(path) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError, match=r"config: unknown keys \['selfdestruct'\]"):
            PipelineConfig.from_dict({"selfdestruct": True})

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
        assert PipelineConfig().overseg_params() == OversegParams()
        assert PipelineConfig().forest_params() == ForestParams()
        config_types = field_types(PipelineConfig)
        for cls in (OversegParams, ForestParams):
            for name, kind in field_types(cls).items():
                assert config_types.get(name) is kind, f"{cls.__name__}.{name}"

    def test_stage_params_copy_the_config(self):
        config = PipelineConfig(
            voxel_resolution=0.02, seed_resolution=0.3, w_spatial=0.5, w_normal=2.0,
            w_color=0.1, min_patch_points=4, num_trees=3, max_depth=5,
            candidates_per_node=2, thresholds_per_candidate=7, min_samples_split=3,
            seed=11, class_balanced=True)
        assert config.overseg_params() == OversegParams(
            voxel_resolution=0.02, seed_resolution=0.3, w_spatial=0.5, w_normal=2.0,
            w_color=0.1, min_patch_points=4)
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
        with pytest.raises(InputError):
            PipelineConfig(workers=0)


class TestGroundModes:
    def test_auto_passes_through_aligned_clouds(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_GRAVITY)
        assert resolve_ground_plane(cloud, CFG, None) is None

    def test_none_rejects_camera_frame(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_CAMERA)
        config = PipelineConfig(ground_mode="none")
        with pytest.raises(InputError):
            resolve_ground_plane(cloud, config, None)

    def test_pose_mode_requires_pose(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_CAMERA)
        config = PipelineConfig(ground_mode="pose")
        with pytest.raises(InputError):
            resolve_ground_plane(cloud, config, None)

    def test_fit_without_labels_names_the_flags(self, rng):
        cloud = make_cloud(rng.uniform(0, 2, (50, 3)), frame=FRAME_CAMERA)
        for mode in ("auto", "fit"):
            config = PipelineConfig(ground_mode=mode)
            with pytest.raises(InputError, match="--pose-file.*--ground-mode"):
                resolve_ground_plane(cloud, config, None)

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
        assert resolve_ground_plane(cloud, CFG, pose) is pose


class TestStages:
    def test_run_stages_outputs_consistent(self):
        cloud = small_scene()
        stages = run_stages(cloud, CFG)
        assert stages.cloud.frame == FRAME_GRAVITY
        assert stages.features.shape[0] == stages.feature_ids.shape[0]
        assert stages.point_to_feature.shape[0] == len(cloud)
        covered = stages.point_to_feature >= 0
        assert covered.any()
        assert stages.point_to_feature[covered].max() < stages.features.shape[0]
        for key in ("normals", "oversegmentation", "ground", "features"):
            assert key in stages.timings

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
                           edges=np.zeros((0, 2), dtype=np.int64), centroids=np.zeros((2, 3)))
        tied = make_cloud(np.zeros((8, 3)), labels=[3, 1, 5, 2, 5, 2, 0, 0])
        np.testing.assert_array_equal(patch_majority_labels(graph, tied), [1, 2])

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

    def test_worker_pool_does_not_change_results(self):
        clouds = [small_scene(s) for s in range(2)]
        serial, _ = prepare_frames(clouds, CFG)
        threaded, _ = prepare_frames(
            clouds, PipelineConfig(**{**CFG.to_dict(), "workers": 2}))
        assert len(serial) == len(threaded)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.patch_gt, b.patch_gt)
            np.testing.assert_array_equal(a.point_to_feature, b.point_to_feature)

    def test_knn_thread_count_does_not_change_results(self, monkeypatch):
        preps, _ = prepare_frames([small_scene(1)], CFG)
        model = train_from_preps(preps, CFG)
        cloud = small_scene(0)
        # several normals query chunks, the last one short
        assert len(cloud) > overseg._KNN_CHUNK
        assert len(cloud) % overseg._KNN_CHUNK != 0
        parallel = segment_cloud(cloud, model, CFG)

        class SerialTree(overseg.cKDTree):
            def query(self, *args, **kwargs):
                return super().query(*args, **{**kwargs, "workers": 1})

        monkeypatch.setattr(overseg, "cKDTree", SerialTree)
        serial = segment_cloud(cloud, model, CFG)
        np.testing.assert_array_equal(serial.point_labels, parallel.point_labels)
        np.testing.assert_array_equal(serial.stage_output.graph.edges,
                                      parallel.stage_output.graph.edges)
        np.testing.assert_array_equal(serial.stage_output.cloud.normals,
                                      parallel.stage_output.cloud.normals)
