"""Print digests of the per-frame stage outputs, the `eval` forests and the
files of a fixed `synth`, `train` and `segment` run.

Two source trees that print the same lines give byte-identical
`pipeline.run_stages` outputs on these inputs, the same `eval` models and
the same CLI files. Two runs of one tree under different hash seeds or BLAS
thread counts that print the same lines show those outputs do not depend on
either. Run it with the package importable, e.g. from the repository root:

    PYTHONPATH=src python tools/stage_digests.py

Each stage line names a fixed `synth` scene, the normals path its grid took
(voxel or kNN), its point and patch counts, and a sha256 prefix of each
`run_stages` output: the aligned positions, the normals, the normal flags,
the partition (``point_to_patch``), the patch edges, sizes and centroids
and the feature rows. The inputs cover both normals paths, the camera and
the gravity frame, the fit, pose and none ground modes, and ``w_spatial``
0. The forest lines give the digests of the 8-tree forests (seeds 0 and 1)
that the benchmark's `eval` workload fits at acceptance criterion 4's
configuration, and of one fit on the same frames with class-balanced
weights and 300 thresholds per candidate, past what an 8-bit bin count
holds.

The CLI lines come last. `synth` writes scenes 0 and 1 at 1000 pts/m^2 and
scene 0 at 4000, and the dense scene is written again in the camera frame
with its pose file. `train` fits the default forest and a class-balanced one
with 300 thresholds per candidate on the sparse scenes. `segment` labels the
sparse scene, the dense one (also with ``--w-spatial 0``) and the camera view
(by the floor fit and by the pose file). Each line gives the digest of every
file the run writes that must not vary: the model, or the labeled PLY,
``patches.json`` without its ``timing_ms`` and the ``--dump-patches`` PLY.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from indoorseg import cli, evalkit, overseg
from indoorseg.cloud import FRAME_CAMERA
from indoorseg.ground import plane_from_pose
from indoorseg.pipeline import PipelineConfig, run_stages
from indoorseg.ply_io import read_cloud, write_cloud
from indoorseg.synth import SceneSpec, generate_scene

# the benchmark's robot camera: 1.2 m above the middle of the floor, looking
# along the room's x-axis, pitched 0.35 rad down (plane_from_pose's convention)
CAMERA_HEIGHT, CAMERA_PITCH = 1.2, 0.35
FRAME = PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15, ground_mode="fit")
EVAL = PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15,
                      candidates_per_node=3, thresholds_per_candidate=10,
                      mrf_lambda=2.0, mrf_sigma=0.1)
WIDE = replace(EVAL, class_balanced=True, thresholds_per_candidate=300)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def scene(seed: int, density: float):
    return generate_scene(SceneSpec(seed=seed, points_per_m2=density))


def camera_view(cloud):
    """``cloud`` (gravity frame) in the frame of the robot's camera."""
    c, s = np.cos(CAMERA_PITCH), np.sin(CAMERA_PITCH)
    rotation = np.array([[0.0, -1.0, 0.0], [-s, 0.0, -c], [c, 0.0, -s]])
    lo, hi = cloud.positions.min(axis=0), cloud.positions.max(axis=0)
    eye = np.array([(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, CAMERA_HEIGHT])
    return cloud.with_(positions=(cloud.positions - eye) @ rotation.T, frame=FRAME_CAMERA)


def normals_path(cloud, config) -> str:
    """The path `compute_normals` takes on ``cloud``."""
    grid = overseg.voxel_grid(cloud.positions, config.voxel_resolution)
    return "knn" if overseg.voxel_normals_reach(grid, config.normals_k) is None else "voxel"


def stage_line(name: str, cloud, config, pose_plane=None) -> str:
    out = run_stages(cloud, config, pose_plane)
    graph = out.graph
    fields = {"aligned": out.cloud.positions, "normals": out.cloud.normals,
              "flags": out.cloud.normal_flags, "partition": graph.point_to_patch,
              "edges": graph.edges, "sizes": graph.sizes, "centroids": graph.centroids,
              "features": out.features}
    return " ".join([name, normals_path(cloud, config), f"points={len(cloud)}",
                     f"patches={len(graph)}"]
                    + [f"{key}={digest(value)}" for key, value in fields.items()])


def model_digest(model) -> str:
    return digest(*[getattr(t, f) for t in model.trees
                    for f in ("kind", "feature", "threshold", "left", "right", "distribution")])


def forest_lines() -> list[str]:
    """The `eval` workload's models: criterion 4's first four scenes."""
    preps = [evalkit.prepare_frame(scene(seed, 2000.0), EVAL) for seed in range(100, 104)]
    lines = [f"eval_forest seed={seed} model="
             + model_digest(evalkit.train_from_preps(preps, EVAL, seed=seed)) for seed in (0, 1)]
    lines.append("eval_forest_balanced_300 seed=0 model="
                 + model_digest(evalkit.train_from_preps(preps, WIDE, seed=0)))
    return lines


def indoorseg(*argv: str) -> None:
    """`cli.main` on ``argv``, its prints kept out of this tool's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(list(argv))
    if status != 0:
        raise SystemExit(f"indoorseg {' '.join(argv)} exited with {status}")


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".patches.json"):
        doc = json.loads(data)
        del doc["timing_ms"]  # the one field that may differ between runs
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def cli_lines(tmp: Path) -> list[str]:
    """Digests of the files `train` and `segment` write, on `FRAME`'s grid."""
    resolutions = ("--voxel-resolution", "0.025", "--seed-resolution", "0.15")
    indoorseg("synth", "--out-dir", str(tmp / "sparse"), "--count", "2", "--density", "1000")
    indoorseg("synth", "--out-dir", str(tmp / "dense"), "--count", "1", "--density", "4000",
              "--max-points", "307200")
    write_cloud(camera_view(read_cloud(tmp / "dense" / "scene_000.ply")), tmp / "camera.ply")
    (tmp / "camera.pose").write_text(
        f"height {CAMERA_HEIGHT}\npitch {CAMERA_PITCH}\nroll 0.0\n")
    lines = []
    for name, flags in (("cli_train", ()), ("cli_train_balanced_300",
                        ("--thresholds-per-candidate", "300", "--class-balanced"))):
        model = tmp / f"{name}.json"
        indoorseg("train", "--scenes", str(tmp / "sparse"), "--model", str(model), *resolutions,
                  *flags)
        lines.append(f"{name} model={file_digest(model)}")
    model = str(tmp / "cli_train.json")
    for name, cloud, dump, flags in (
            ("sparse0", "sparse/scene_000.ply", False, ()),
            ("dense0", "dense/scene_000.ply", True, ()),
            ("dense0_w_spatial0", "dense/scene_000.ply", False, ("--w-spatial", "0")),
            ("camera_fit", "camera.ply", True, ("--ground-mode", "fit")),
            ("camera_pose", "camera.ply", True, ("--pose-file", str(tmp / "camera.pose")))):
        files = {"labeled": tmp / f"{name}.ply", "patches": tmp / f"{name}.ply.patches.json"}
        if dump:
            files["dump"] = tmp / f"{name}.patch-colors.ply"
            flags += ("--dump-patches", str(files["dump"]))
        indoorseg("segment", "--input", str(tmp / cloud), "--model", model,
                  "--output", str(files["labeled"]), *resolutions, *flags)
        lines.append(" ".join([f"cli_segment_{name}"]
                              + [f"{key}={file_digest(path)}" for key, path in files.items()]))
    return lines


def main() -> None:
    frame = camera_view(scene(77, 4000.0))
    pose = plane_from_pose(CAMERA_HEIGHT, CAMERA_PITCH, 0.0)
    lines = [
        stage_line("camera77_fit", frame, FRAME),
        stage_line("camera77_pose_w_spatial0", frame, replace(FRAME, ground_mode="pose",
                                                              w_spatial=0.0), pose),
        stage_line("camera61_sparse_fit", camera_view(scene(61, 1000.0)), FRAME),
        stage_line("gravity78_dense_eval", scene(78, 4000.0), EVAL),
        stage_line("gravity100_eval", scene(100, 2000.0), EVAL),
        stage_line("gravity0_default", scene(0, 2000.0), PipelineConfig()),
    ]
    for line in lines + forest_lines():
        print(line, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for line in cli_lines(Path(tmp)):
            print(line, flush=True)


if __name__ == "__main__":
    main()
