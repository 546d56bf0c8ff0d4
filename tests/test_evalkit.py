from dataclasses import replace

import numpy as np
import pytest

from indoorseg.errors import EvaluationError, InputError
from indoorseg.evalkit import (
    ConfusionMatrix,
    cross_validate,
    kfold_split,
    prepare_frame,
    train_from_preps,
)
from indoorseg.forest import save_model
from indoorseg.labels import Label
from indoorseg.pipeline import PipelineConfig
from indoorseg.synth import SceneSpec, generate_scene


class TestConfusionMatrix:
    def test_perfect_prediction(self, rng):
        gt = rng.integers(0, 7, size=100)
        cm = ConfusionMatrix().add(gt, gt)
        assert np.trace(cm.counts) == cm.total <= 100
        assert cm.global_accuracy() == 1.0
        off_diag = cm.counts - np.diag(np.diag(cm.counts))
        assert off_diag.sum() == 0

    def test_two_class_worked_example(self):
        """cm [[1,1],[0,2]] -> class average (0.5 + 1.0)/2, global 3/4."""
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        cm = ConfusionMatrix().add(gt, pred)
        np.testing.assert_array_equal(cm.counts[:2, :2], [[1, 1], [0, 2]])
        assert cm.class_average() == pytest.approx(0.75)
        assert cm.global_accuracy() == pytest.approx(0.75)

    def test_unknown_ground_truth_excluded(self):
        gt = np.full(50, int(Label.UNKNOWN))
        pred = np.zeros(50)
        cm = ConfusionMatrix().add(gt, pred)
        assert cm.total == 0

    def test_uncovered_points_excluded_but_tracked(self):
        gt = np.zeros(10)
        pred = np.full(10, int(Label.UNKNOWN))
        pred[:4] = 0
        cm = ConfusionMatrix().add(gt, pred)
        assert cm.total == 4
        assert cm.excluded_uncovered == 6
        assert cm.coverage() == pytest.approx(0.4)

    def test_empty_matrix_reads_nan(self):
        cm = ConfusionMatrix()
        assert np.isnan(cm.global_accuracy())
        assert np.isnan(cm.class_average())
        assert np.isnan(cm.coverage())

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            ConfusionMatrix().add(np.zeros(3), np.zeros(4))

    def test_class_average_ignores_absent_classes(self):
        gt = np.array([0, 0, 3, 3])
        pred = np.array([0, 0, 3, 0])
        cm = ConfusionMatrix().add(gt, pred)
        acc = cm.per_class_accuracy()
        assert np.isnan(acc[1])
        assert cm.class_average() == pytest.approx((1.0 + 0.5) / 2)

    def test_scale_invariance_of_diagonal_matrix(self):
        cm = ConfusionMatrix()
        cm.counts[np.arange(7), np.arange(7)] = [1, 10, 100, 1000, 5, 50, 7]
        assert cm.class_average() == pytest.approx(1.0)
        assert cm.global_accuracy() == pytest.approx(1.0)

    def test_merge_is_additive(self, rng):
        gt = rng.integers(0, 7, 200)
        pred = rng.integers(0, 7, 200)
        one = ConfusionMatrix().add(gt, pred)
        a = ConfusionMatrix().add(gt[:100], pred[:100])
        b = ConfusionMatrix().add(gt[100:], pred[100:])
        np.testing.assert_array_equal(one.counts, a.merge(b).counts)


class TestKfold:
    def test_ten_frames_five_folds(self):
        folds = kfold_split(list(range(10)), k=5, seed=0)
        assert len(folds) == 5
        assert all(len(f) == 2 for f in folds)

    def test_union_of_1449_ids_is_input_set(self):
        ids = [f"frame-{i}" for i in range(1449)]
        folds = kfold_split(ids, k=5, seed=3)
        union = set()
        for fold in folds:
            assert union.isdisjoint(fold)
            union.update(fold)
        assert union == set(ids)
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_deterministic(self):
        a = kfold_split(list(range(100)), k=5, seed=9)
        b = kfold_split(list(range(100)), k=5, seed=9)
        assert a == b
        c = kfold_split(list(range(100)), k=5, seed=10)
        assert a != c

    def test_parameter_guards(self):
        with pytest.raises(InputError):
            kfold_split([1, 2, 3], k=1)
        with pytest.raises(InputError):
            kfold_split([1, 2, 3], k=4)


SMALL_CONFIG = dict(voxel_resolution=0.03, seed_resolution=0.15,
                    min_floor_points=200)


def small_scene(seed):
    return generate_scene(SceneSpec(
        seed=seed, room_extent=(3.6, 3.0, 2.2), points_per_m2=900.0,
        furniture_counts={"table": 1, "chair": 1, "cabinet": 1, "object": 1}))


def test_train_seed_overrides_the_config_seed(tmp_path):
    config = PipelineConfig(**SMALL_CONFIG, num_trees=2)
    preps = [prepare_frame(small_scene(0), config)]

    def saved(model, name):
        save_model(model, tmp_path / name)
        return (tmp_path / name).read_bytes()

    seeded = saved(train_from_preps(preps, config, seed=3), "a.json")
    assert seeded == saved(train_from_preps(preps, replace(config, seed=3)), "b.json")
    assert seeded != saved(train_from_preps(preps, config), "c.json")


class TestCrossValidate:
    def test_small_protocol_end_to_end(self):
        clouds = [small_scene(s) for s in range(6)]
        config = PipelineConfig(**SMALL_CONFIG)
        report = cross_validate(clouds, config, k=3, seed=0)
        assert report.frames_evaluated == 6
        assert report.frames_discarded == 0
        assert 0.5 <= report.global_accuracy <= 1.0
        d = report.to_dict()
        for key in ("per_class_accuracy", "class_average", "global_accuracy",
                    "unary_global_accuracy", "coverage", "confusion_matrix",
                    "timing_ms", "frames_evaluated", "frames_discarded"):
            assert key in d
        text = report.to_text()
        assert "class_average" in text and "confusion matrix" in text

    def test_k_below_two_rejected(self):
        clouds = [small_scene(s) for s in range(3)]
        config = PipelineConfig(**SMALL_CONFIG)
        with pytest.raises(InputError):
            cross_validate(clouds, config, k=1, seed=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            cross_validate([], PipelineConfig(), k=2)

    def test_all_frames_discarded(self):
        # camera-frame clouds with no floor labels are discarded by the fit
        clouds = []
        rng = np.random.default_rng(0)
        from conftest import make_cloud
        for _ in range(3):
            pts = rng.uniform(0, 2, size=(800, 3))
            clouds.append(make_cloud(pts, labels=np.full(800, int(Label.WALL)),
                                     frame="camera"))
        with pytest.raises(EvaluationError, match="all 3 frames were discarded without a "
                           "usable ground plane; the first: only 0 floor points, need 500"):
            cross_validate(clouds, PipelineConfig(), k=2)

    def test_unlabeled_cloud_rejected(self):
        cloud = small_scene(0).with_(labels=None)
        with pytest.raises(InputError, match="evaluation needs ground-truth labeled clouds"):
            prepare_frame(cloud, PipelineConfig(**SMALL_CONFIG))

    def test_report_determinism(self):
        clouds = [small_scene(s) for s in range(4)]
        config = PipelineConfig(**SMALL_CONFIG)
        r1 = cross_validate(clouds, config, k=2, seed=5)
        r2 = cross_validate(clouds, config, k=2, seed=5)
        np.testing.assert_array_equal(r1.confusion.counts, r2.confusion.counts)
