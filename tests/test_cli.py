import json

import numpy as np
import pytest

from indoorseg import evalkit
from indoorseg.cli import _patches_json, _scene_paths, main
from indoorseg.errors import InputError
from indoorseg.forest import load_model
from indoorseg.labels import Label
from indoorseg.pipeline import PipelineConfig, segment_cloud
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
    # one entry per patch, in patch-id order
    assert [e["patch"] for e in patches["patches"]] == list(range(len(patches["patches"])))
    entry = patches["patches"][0]
    assert set(entry) == {"patch", "map_label", "distribution"}
    assert len(entry["distribution"]) == 7
    assert abs(sum(entry["distribution"]) - 1.0) <= 1e-3


def reference_patches_json(dump, labels, distributions):
    """The document `_patches_json` renders, as one `json.dumps`."""
    patches = [{"patch": i, "map_label": int(label),
                "distribution": [round(float(v), 6) for v in row]}
               for i, (label, row) in enumerate(zip(labels, distributions))]
    return json.dumps({**dump, "patches": patches}, indent=2, sort_keys=True)


DUMP = {"timing_ms": {"normals": 412.25, "total": 1803.5}, "lbp_converged": True,
        "lbp_iterations": 33}


def test_patches_json_matches_json_dumps_on_a_frame(workspace):
    _, scenes, model, labeled = workspace
    config = PipelineConfig(voxel_resolution=0.03, seed_resolution=0.15,
                            min_floor_points=200)
    result = segment_cloud(read_cloud(scenes / "scene_000.ply"), load_model(model), config)
    labels, distributions = result.labeling.assignment, result.distributions
    assert len(labels) > 100
    assert _patches_json(DUMP, labels, distributions) == \
        reference_patches_json(DUMP, labels, distributions)
    # the file segment wrote is the same text json gives for its own values
    text = labeled.with_suffix(labeled.suffix + ".patches.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("rows", [
    [],
    [[-1e-9, -4e-7, 9.6e-7, 1.4e-6, 0.1234565, 0.5, 1.0]],
    [[0.0, 1e-06, -0.0, 2.5e-07, 0.999999, 0.9999996, 7e-05]] * 3,
])
def test_patches_json_edge_values(rows):
    """No patches, and values that round to -0.0, 0.0 or 1e-06."""
    distributions = np.array(rows, dtype=np.float64).reshape(-1, 7)
    labels = np.arange(distributions.shape[0]) % 7
    text = _patches_json(DUMP, labels, distributions)
    assert text == reference_patches_json(DUMP, labels, distributions)
    if rows:
        assert "-0.0," in text and "1e-06," in text


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


@pytest.mark.parametrize("count, row", [(1, "0 0 0 300 2 3"), (1, "0 0 0 -1 2 3"),
                                        (10**13, "0 0 0 1 2 3")])
def test_malformed_ascii_ply_exits_1(workspace, tmp_path, capsys, count, row):
    _, _, model, _ = workspace
    path = tmp_path / "bad.ply"
    path.write_text(f"ply\nformat ascii 1.0\nelement vertex {count}\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                    f"end_header\n{row}\n")
    out = tmp_path / "o.ply"
    code = main(["segment", "--input", str(path), "--model", str(model),
                 "--output", str(out)])
    assert code == 1
    assert "input error:" in capsys.readouterr().err
    assert not out.exists()


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


def test_segment_creates_the_side_outputs_directories(workspace, tmp_path):
    """--patch-probs and --dump-patches into directories that do not exist
    yet, as --output: all four files, exit 0."""
    _, scenes, model, _ = workspace
    out = tmp_path / "out" / "labeled.ply"
    probs = tmp_path / "probs" / "nested" / "p.json"
    dump = tmp_path / "dump" / "nested" / "d.ply"
    assert main(["segment", "--input", str(scenes / "scene_000.ply"),
                 "--model", str(model), "--output", str(out),
                 "--patch-probs", str(probs), "--dump-patches", str(dump)] + CFG) == 0
    assert read_cloud(out).labels is not None
    assert out.with_suffix(".ply.config.json").exists()
    assert "patches" in json.loads(probs.read_text())
    assert len(read_cloud(dump)) == len(read_cloud(out))


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
    ("min_patch_points", 1), ("min_patch_points", 2), ("seed", -1),
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


BAD_SCENE_INPUTS = [
    "synth --density nan", "synth --density inf", "synth --room-extent nan 4 2.5",
    "synth --room-extent inf 4 2.5", "synth --noise-sigma nan", "synth --max-points -1",
    "synth --count -2", "synth --scene-seed -1",
    "eval --benchmark --train-count -1 --test-count 1",
    "eval --benchmark --train-count 1 --test-count 0",
    "eval --benchmark --scene-seed -5000",
]


@pytest.mark.parametrize("args", BAD_SCENE_INPUTS)
def test_bad_scene_input_exits_1(tmp_path, capsys, args):
    command, *flags = args.split()
    out = tmp_path / "out"
    code = main([command, "--out-dir", str(out), *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


@pytest.mark.parametrize("args, code, message", [
    ("eval --scenes {missing}", 1, "input error: no such file or directory"),
    ("eval", 1, "input error: eval needs --scenes or --benchmark"),
    ("synth --n-tables 40", 2, "pipeline error: could not place footprint"),
    ("synth --density 1e12", 1,
     "input error: points_per_m2=1000000000000.0 would sample 99431424755510 points"),
    # surface areas overflow to inf
    ("synth --room-extent 1e160 1e160 1 --n-tables 0 --n-chairs 0 --n-cabinets 0 "
     "--n-objects 0 --density 1e100", 1,
     "input error: points_per_m2=1e+100 would sample inf points"),
])
def test_failed_command_creates_no_out_dir(tmp_path, capsys, args, code, message):
    out = tmp_path / "out"
    args = args.format(missing=tmp_path / "missing.ply").split()
    assert main(args + ["--out-dir", str(out)] + CFG) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_scene_paths_takes_a_single_ply_file(tmp_path):
    path = tmp_path / "one.ply"
    path.write_bytes(b"")
    assert _scene_paths([str(path)]) == [path]


def test_scene_paths_rejects_a_directory_without_ply_files(tmp_path):
    (tmp_path / "notes.txt").write_text("no scenes here")
    with pytest.raises(InputError, match="no .ply scenes found"):
        _scene_paths([str(tmp_path)])


@pytest.mark.parametrize("k", [1, 5])
def test_eval_k_out_of_range_exits_before_prep(workspace, tmp_path, capsys, monkeypatch, k):
    _, scenes, _, _ = workspace  # 4 scenes

    def no_prep(*args, **kwargs):
        raise AssertionError("frames were prepared before --k was checked")

    monkeypatch.setattr(evalkit, "prepare_frames", no_prep)
    code = main(["eval", "--scenes", str(scenes), "--k", str(k),
                 "--out-dir", str(tmp_path / "out")] + CFG)
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert not (tmp_path / "out").exists()


def test_train_without_trainable_patches_names_the_cause(tmp_path, capsys):
    # at the default 1 cm voxels, every patch of this sparse scene falls
    # below min_patch_points
    scenes = tmp_path / "sparse"
    assert main(["synth", "--out-dir", str(scenes), "--count", "1", "--density", "600"]) == 0
    model = tmp_path / "model.json"
    assert main(["train", "--scenes", str(scenes), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: no frame produced a trainable patch")
    assert "min_patch_points=10" in err
    assert '"Matching resolutions to point density"' in err
    assert not model.exists()


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
