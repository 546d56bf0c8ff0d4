"""Print digests of the per-frame stage outputs and of two trained forests.

Two source trees that print the same lines give byte-identical
`pipeline.run_stages` outputs on these inputs and the same `eval` models.
Run it with the package importable, e.g. from the repository root:

    PYTHONPATH=src python tools/stage_digests.py

Each stage line names a fixed `synth` scene, the normals path its grid took
(voxel or kNN), its point and patch counts, and a sha256 prefix of each
`run_stages` output: the aligned positions, the normals, the normal flags,
the partition (``point_to_patch``), the patch edges, sizes and centroids
and the feature rows. The inputs cover both normals paths, the camera and
the gravity frame, the fit, pose and none ground modes, and ``w_spatial``
0. The forest lines give the digests of the 8-tree forests (seeds 0 and 1)
that the benchmark's `eval` workload fits at acceptance criterion 4's
configuration.
"""

import hashlib
from dataclasses import replace

import numpy as np

from indoorseg import evalkit, overseg
from indoorseg.cloud import FRAME_CAMERA
from indoorseg.ground import plane_from_pose
from indoorseg.pipeline import PipelineConfig, run_stages
from indoorseg.synth import SceneSpec, generate_scene

# the benchmark's robot camera: 1.2 m above the middle of the floor, looking
# along the room's x-axis, pitched 0.35 rad down (plane_from_pose's convention)
CAMERA_HEIGHT, CAMERA_PITCH = 1.2, 0.35
FRAME = PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15, ground_mode="fit")
EVAL = PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15,
                      candidates_per_node=3, thresholds_per_candidate=10,
                      mrf_lambda=2.0, mrf_sigma=0.1)


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
    """The path `compute_normals` takes on ``cloud``, by its own test."""
    grid = overseg.voxel_grid(cloud.positions, config.voxel_resolution)
    reach = grid.counts.astype(np.float64)
    grid.add_neighbours(reach)
    return "voxel" if np.median(reach[grid.vox_of_point]) >= config.normals_k else "knn"


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


def forest_lines() -> list[str]:
    """The `eval` workload's models: criterion 4's first four scenes."""
    preps = [evalkit.prepare_frame(scene(seed, 2000.0), EVAL) for seed in range(100, 104)]
    lines = []
    for seed in (0, 1):
        model = evalkit.train_from_preps(preps, EVAL, seed=seed)
        lines.append(f"eval_forest seed={seed} model=" + digest(
            *[getattr(t, f) for t in model.trees
              for f in ("kind", "feature", "threshold", "left", "right", "distribution")]))
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


if __name__ == "__main__":
    main()
