import json

import numpy as np
import pytest

from indoorseg.cli import main
from indoorseg.labels import Label
from indoorseg.ply_io import read_cloud, write_cloud

from conftest import make_cloud

# desk-scale settings shared by the CLI round-trip tests
CFG = ["--voxel-resolution", "0.03", "--seed-resolution", "0.15",
       "--min-floor-points", "200"]


def synth_args(out_dir, count, seed=0):
    return ["synth", "--out-dir", str(out_dir), "--count", str(count),
            "--scene-seed", str(seed), "--room-extent", "3.6", "3.0", "2.2",
            "--density", "900", "--n-tables", "1", "--n-chairs", "1",
            "--n-cabinets", "1", "--n-objects", "1"] + CFG


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenes, a trained model, and a segmented cloud shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    scenes = root / "scenes"
    assert main(synth_args(scenes, 4)) == 0
    model = root / "model.json"
    assert main(["train", "--scenes", str(scenes), "--model", str(model)] + CFG) == 0
    labeled = root / "labeled.ply"
    assert main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(model), "--output", str(labeled)] + CFG) == 0
    return root, scenes, model, labeled


def test_synth_writes_scenes_and_config(workspace):
    root, scenes, _, _ = workspace
    files = sorted(scenes.glob("*.ply"))
    assert len(files) == 4
    assert (scenes / "config.json").exists()
    assert (scenes / "synth_params.json").exists()
    cloud = read_cloud(files[0])
    assert cloud.frame == "gravity_aligned"
    assert cloud.labels is not None


def test_synth_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(synth_args(a, 2, seed=7)) == 0
    assert main(synth_args(b, 2, seed=7)) == 0
    for name in ("scene_000.ply", "scene_001.ply", "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_writes_model_and_config(workspace):
    root, _, model, _ = workspace
    assert model.exists()
    config_path = model.with_suffix(model.suffix + ".config.json")
    assert config_path.exists()
    doc = json.loads(config_path.read_text())
    assert doc["voxel_resolution"] == 0.03


def test_train_determinism(workspace, tmp_path):
    _, scenes, model, _ = workspace
    again = tmp_path / "model2.json"
    assert main(["train", "--scenes", str(scenes), "--model", str(again)] + CFG) == 0
    assert model.read_bytes() == again.read_bytes()


def test_segment_outputs(workspace):
    root, scenes, _, labeled = workspace
    out = read_cloud(labeled)
    source = read_cloud(scenes / "scene_000.ply")
    assert len(out) == len(source)
    assert out.frame == "gravity_aligned"
    patches = json.loads(
        labeled.with_suffix(labeled.suffix + ".patches.json").read_text())
    assert "timing_ms" in patches
    for stage in ("normals", "oversegmentation", "ground", "features",
                  "prediction", "mrf", "total"):
        assert stage in patches["timing_ms"]
    entry = patches["patches"][0]
    assert set(entry) == {"patch", "map_label", "distribution"}
    assert len(entry["distribution"]) == 7
    assert abs(sum(entry["distribution"]) - 1.0) <= 1e-3


def test_segment_accuracy_on_easy_scene(tmp_path):
    """Empty-room check: nearly all floor points must come back as floor.

    Needs its own train/test config: fine voxels relative to the sampling
    density keep the floor/wall junction ambiguity below the 1% budget.
    """
    cfg = ["--voxel-resolution", "0.02", "--seed-resolution", "0.12",
           "--min-patch-points", "3", "--mrf-lambda", "2.0",
           "--min-floor-points", "200"]
    scenes = tmp_path / "scenes"
    assert main(["synth", "--out-dir", str(scenes), "--count", "4",
                 "--scene-seed", "0", "--density", "3600"] + cfg) == 0
    model = tmp_path / "model.json"
    assert main(["train", "--scenes", str(scenes), "--model", str(model)] + cfg) == 0
    empty_dir = tmp_path / "empty"
    assert main(["synth", "--out-dir", str(empty_dir), "--count", "1",
                 "--scene-seed", "33", "--density", "3600", "--noise-sigma", "0",
                 "--n-tables", "0", "--n-chairs", "0", "--n-cabinets", "0",
                 "--n-objects", "0"] + cfg) == 0
    out = tmp_path / "empty_labeled.ply"
    assert main(["segment", "--input", str(empty_dir / "scene_000.ply"),
                 "--model", str(model), "--output", str(out)] + cfg) == 0
    truth = read_cloud(empty_dir / "scene_000.ply")
    pred = read_cloud(out)
    floor = truth.labels == int(Label.FLOOR)
    correct = (pred.labels[floor] == int(Label.FLOOR)).mean()
    assert correct >= 0.99


def test_segment_rerun_identical(workspace, tmp_path):
    _, scenes, model, labeled = workspace
    again = tmp_path / "labeled2.ply"
    config = labeled.with_suffix(labeled.suffix + ".config.json")
    assert main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(model), "--output", str(again),
                 "--config", str(config)]) == 0
    assert labeled.read_bytes() == again.read_bytes()


def test_segment_frame_discard_exit_code(workspace, tmp_path):
    _, _, model, _ = workspace
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 2, size=(1000, 3))
    cloud = make_cloud(pts, labels=np.full(1000, int(Label.WALL)), frame="camera")
    path = tmp_path / "nofloor.ply"
    write_cloud(cloud, path)
    code = main(["segment", "--input", str(path), "--model", str(model),
                 "--output", str(tmp_path / "out.ply")] + CFG)
    assert code == 2


def test_segment_unlabeled_camera_cloud_names_the_flags(workspace, tmp_path, capsys):
    _, scenes, model, _ = workspace
    cloud = read_cloud(scenes / "scene_000.ply")
    path = tmp_path / "unlabeled.ply"
    write_cloud(cloud.with_(labels=None, frame="camera"), path)
    code = main(["segment", "--input", str(path), "--model", str(model),
                 "--output", str(tmp_path / "out.ply")] + CFG)
    assert code == 1
    err = capsys.readouterr().err
    assert "--pose-file" in err and "--ground-mode" in err


def test_missing_input_exit_code(workspace, tmp_path):
    _, _, model, _ = workspace
    code = main(["segment", "--input", str(tmp_path / "nope.ply"),
                 "--model", str(model), "--output", str(tmp_path / "o.ply")])
    assert code == 1


def test_unknown_config_key_rejected(workspace, tmp_path):
    _, scenes, model, _ = workspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"voxel_resolution": 0.03, "not_a_key": 1}))
    code = main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(model), "--output", str(tmp_path / "o.ply"),
                 "--config", str(bad)])
    assert code == 1


def test_explicit_flag_overrides_config_file(workspace, tmp_path):
    _, scenes, model, labeled = workspace
    base_config = labeled.with_suffix(labeled.suffix + ".config.json")
    out = tmp_path / "o.ply"
    assert main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(model), "--output", str(out),
                 "--config", str(base_config), "--mrf-lambda", "2.5"]) == 0
    resolved = json.loads(
        out.with_suffix(out.suffix + ".config.json").read_text())
    assert resolved["mrf_lambda"] == 2.5
    assert resolved["voxel_resolution"] == 0.03  # inherited from the file


def test_dump_patches_debug_ply(workspace, tmp_path):
    _, scenes, model, _ = workspace
    dump = tmp_path / "patches.ply"
    assert main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(model), "--output", str(tmp_path / "o.ply"),
                 "--dump-patches", str(dump)] + CFG) == 0
    debug = read_cloud(dump)
    source = read_cloud(scenes / "scene_000.ply")
    assert len(debug) == len(source)
    # orphan points are black, patch members get a palette color
    assert (debug.colors.sum(axis=1) > 0).any()


def test_segment_with_pose_file(workspace, tmp_path):
    """Robot mode: a known camera pose replaces the label-based plane fit.

    A gravity-aligned scene re-tagged as camera frame corresponds to a
    camera pitched straight down with its origin on the floor, i.e. pose
    height 0, pitch -pi/2.
    """
    _, scenes, model, _ = workspace
    source = read_cloud(scenes / "scene_001.ply")
    as_camera = source.with_(frame="camera")
    cam_path = tmp_path / "camera.ply"
    write_cloud(as_camera, cam_path)
    pose = tmp_path / "pose.txt"
    pose.write_text("height 0.0\npitch -1.5707963267948966\nroll 0.0\n")
    out = tmp_path / "posed.ply"
    assert main(["segment", "--input", str(cam_path), "--model", str(model),
                 "--output", str(out), "--pose-file", str(pose)] + CFG) == 0
    labeled = read_cloud(out)
    assert labeled.frame == "gravity_aligned"
    # the pose-based alignment must keep the floor at z ~ 0
    floor = source.labels == int(Label.FLOOR)
    assert np.abs(labeled.positions[floor, 2]).max() <= 0.05


def test_search_positions_command(workspace, tmp_path):
    _, _, _, labeled = workspace
    out = tmp_path / "positions.txt"
    code = main(["search-positions", "--input", str(labeled),
                 "--output", str(out), "--table-min-points", "100"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # one table -> two positions
    assert all(len(line.split()) == 5 for line in lines)


def test_eval_benchmark_command(tmp_path):
    out_dir = tmp_path / "eval"
    code = main(["eval", "--benchmark", "--train-count", "3", "--test-count", "2",
                 "--scene-seed", "50", "--out-dir", str(out_dir)] + CFG)
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert "class_average" in report and "global_accuracy" in report
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "config.json").exists()


def test_ingest_nyu_command(tmp_path):
    rng = np.random.default_rng(3)
    depth = rng.integers(500, 3000, size=(32, 40)).astype(np.uint16)
    depth[0, 0] = 0
    rgb = rng.integers(0, 256, size=(32, 40, 3)).astype(np.uint8)
    raw_labels = rng.integers(0, 41, size=(32, 40)).astype(np.uint16)
    np.save(tmp_path / "depth.npy", depth)
    np.save(tmp_path / "rgb.npy", rgb)
    np.save(tmp_path / "labels.npy", raw_labels)
    (tmp_path / "intr.txt").write_text(
        "fx 525.0\nfy 525.0\ncx 319.5\ncy 239.5\ndepth_scale 0.001\n")
    out = tmp_path / "frame.ply"
    code = main(["ingest-nyu", "--depth", str(tmp_path / "depth.npy"),
                 "--rgb", str(tmp_path / "rgb.npy"),
                 "--labels", str(tmp_path / "labels.npy"),
                 "--intrinsics", str(tmp_path / "intr.txt"),
                 "--output", str(out)])
    assert code == 0
    cloud = read_cloud(out)
    assert len(cloud) == 32 * 40 - 1
    assert cloud.frame == "camera"
    assert cloud.labels.max() <= 7


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("data, field", [
    ({"seed": "x"}, "seed"), ({"voxel_resolution": None}, "voxel_resolution"),
    ({"normals_k": "15"}, "normals_k"), ({"num_trees": True}, "num_trees"),
])
def test_bad_config_value_exits_1(workspace, tmp_path, capsys, data, field):
    _, scenes, model, _ = workspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(model), "--output", str(tmp_path / "o.ply"),
                 "--config", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"bad.json: field '{field}'" in err


@pytest.mark.parametrize("value", ["abc", None])
def test_bad_model_param_exits_1(workspace, tmp_path, capsys, value):
    _, scenes, model, _ = workspace
    doc = json.loads(model.read_text())
    doc["params"]["num_trees"] = value
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code = main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(bad), "--output", str(tmp_path / "o.ply")] + CFG)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "params: field 'num_trees'" in err


def test_bad_pose_file_exits_1(workspace, tmp_path, capsys):
    _, scenes, model, _ = workspace
    pose = tmp_path / "pose.txt"
    pose.write_text("height 1.2\npitch abc\nroll 0.0\n")
    code = main(["segment", "--input", str(scenes / "scene_000.ply"), "--model", str(model),
                 "--output", str(tmp_path / "o.ply"), "--pose-file", str(pose)] + CFG)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "pose.txt:2: expected 'key number'" in err


@pytest.mark.parametrize("field, value", [
    ("voxel_resolution", float("nan")), ("seed_resolution", float("nan")),
    ("w_spatial", float("nan")), ("w_color", -0.1), ("w_normal", float("inf")),
    ("ransac_threshold", float("nan")),
    ("mrf_lambda", float("nan")), ("mrf_sigma", float("nan")),
    ("lbp_damping", float("nan")), ("lbp_damping", 1.5), ("lbp_damping", 1.0),
    ("lbp_damping", -0.1), ("lbp_tol", float("nan")), ("lbp_tol", float("inf")),
    ("lbp_tol", -1e-5), ("lbp_max_iters", 0),
    ("table_cluster_radius", float("nan")), ("table_cluster_radius", -0.05),
    ("table_cluster_radius", 0.0), ("security_distance", float("nan")),
    ("security_distance", -0.4), ("security_distance", 0.0), ("table_min_points", 0),
])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_out_of_bounds_config_exits_1(workspace, tmp_path, capsys, field, value, source):
    _, scenes, model, _ = workspace
    if source == "file":
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({field: value}))  # NaN and Infinity literals
        extra = ["--config", str(bad)]
    else:
        extra = ["--" + field.replace("_", "-") + f"={value}"]
    code = main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(model), "--output", str(tmp_path / "o.ply")] + extra)
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert not (tmp_path / "o.ply").exists()


@pytest.mark.parametrize("which", ["config", "model", "pose"])
def test_non_utf8_file_exits_1(workspace, tmp_path, capsys, which):
    _, scenes, model, _ = workspace
    bad = tmp_path / f"{which}.bin"
    bad.write_bytes(b"\xff\xfe{}\n")
    args = ["segment", "--input", str(scenes / "scene_000.ply"),
            "--output", str(tmp_path / "o.ply")] + CFG
    args += {"config": ["--config", str(bad), "--model", str(model)],
             "model": ["--model", str(bad)],
             "pose": ["--model", str(model), "--pose-file", str(bad)]}[which]
    code = main(args)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"{which}.bin: not UTF-8" in err
    assert "Traceback" not in err
