"""Command-line interface: train / segment / eval / synth / search-positions
/ ingest-nyu.

Every command writes the resolved pipeline configuration next to its
outputs, so any result can be reproduced byte-for-byte by re-running with
`--config <that file>` on the same inputs. Exit codes: 0 success, 1 input
error, 2 pipeline error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cloud import Intrinsics, ingest_depth_frame
from .errors import InputError, PipelineError, field_types
from .evalkit import (
    EvalReport,
    cross_validate,
    evaluate_split,
    mean_timings,
    prepare_frames,
    train_from_preps,
)
from .forest import load_model, save_model
from .ground import load_camera_pose
from .labels import default_mapping_path, load_label_mapping, reduce_label_array
from .overseg import dump_patch_colors
from .pipeline import PipelineConfig, segment_cloud
from .ply_io import read_cloud, write_cloud
from .search import cluster_tables, search_positions, write_positions
from .synth import DEFAULT_FURNITURE_COUNTS, SceneSpec, generate_scene


_CONFIG_TYPES = field_types(PipelineConfig)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipeline config (overrides --config)")
    group.add_argument("--config", type=Path, default=None,
                       help="JSON config file to start from")
    for name, kind in _CONFIG_TYPES.items():
        how = {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": kind}
        group.add_argument("--" + name.replace("_", "-"), dest=name, default=None, **how)


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    overrides = {
        name: getattr(args, name)
        for name in _CONFIG_TYPES
        if getattr(args, name, None) is not None
    }
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _scene_paths(scenes: list[str]) -> list[Path]:
    paths: list[Path] = []
    for entry in scenes:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.ply")))
        elif p.exists():
            paths.append(p)
        else:
            raise InputError(f"no such file or directory: {p}")
    if not paths:
        raise InputError("no .ply scenes found")
    return paths


def _require_counts(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 1:
            raise InputError(f"--{name.replace('_', '-')} must be >= 1")


def _cmd_synth(args) -> int:
    _require_counts(args, "count")
    config = _resolve_config(args)
    out_dir = Path(args.out_dir)
    counts = dict(DEFAULT_FURNITURE_COUNTS)
    for kind in counts:
        value = getattr(args, f"n_{kind}s", None)
        if value is not None:
            counts[kind] = value
    base = args.scene_seed if args.scene_seed is not None else config.seed
    specs = []
    for i in range(args.count):
        spec = SceneSpec(
            seed=base + i,
            room_extent=tuple(args.room_extent),
            furniture_counts=counts,
            points_per_m2=args.density,
            noise_sigma=args.noise_sigma,
            max_points=args.max_points,
        )
        cloud = generate_scene(spec)
        out_dir.mkdir(parents=True, exist_ok=True)  # once a scene exists to write
        write_cloud(cloud, out_dir / f"scene_{i:03d}.ply")
        specs.append(dataclasses.asdict(spec))
    config.save(out_dir / "config.json")
    (out_dir / "synth_params.json").write_text(
        json.dumps(specs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.count} scenes to {out_dir}")
    return 0


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    clouds = [read_cloud(p) for p in _scene_paths(args.scenes)]
    preps, discarded = prepare_frames(clouds, config)
    if discarded:
        print(f"discarded {discarded} frames without a usable ground plane",
              file=sys.stderr)
    model = train_from_preps(preps, config)
    model_path = Path(args.model)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, model_path)
    config.save(model_path.with_suffix(model_path.suffix + ".config.json"))
    n_samples = model.training_meta.get("num_samples")
    print(f"trained {model.num_trees} trees on {n_samples} patches -> {model_path}")
    return 0


def _cmd_segment(args) -> int:
    config = _resolve_config(args)
    cloud = read_cloud(args.input)
    model = load_model(args.model)
    pose_plane = load_camera_pose(args.pose_file) if args.pose_file else None

    result = segment_cloud(cloud, model, config, pose_plane=pose_plane)

    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    labeled = result.stage_output.cloud.with_(
        labels=result.point_labels, normals=None, normal_flags=None)
    write_cloud(labeled, out_path)
    config.save(out_path.with_suffix(out_path.suffix + ".config.json"))

    doc = {
        "timing_ms": {k: round(1000.0 * v, 3) for k, v in result.timings.items()},
        "lbp_converged": bool(result.labeling.converged),
        "lbp_iterations": int(result.labeling.iterations),
        "patches": [
            {"patch": i, "map_label": label,
             "distribution": [round(v, 6) for v in distribution]}
            for i, (label, distribution) in enumerate(zip(
                result.labeling.assignment.tolist(), result.distributions.tolist()))],
    }
    probs_path = Path(args.patch_probs) if args.patch_probs else \
        out_path.with_suffix(out_path.suffix + ".patches.json")
    probs_path.parent.mkdir(parents=True, exist_ok=True)
    probs_path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")

    if args.dump_patches:
        debug = dump_patch_colors(result.stage_output.graph, result.stage_output.cloud,
                                  seed=config.seed)
        dump_path = Path(args.dump_patches)
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        write_cloud(debug, dump_path)

    for stage, seconds in result.timings.items():
        print(f"{stage}: {1000.0 * seconds:.1f} ms")
    print(f"labeled cloud -> {out_path}")
    return 0


def _cmd_eval(args) -> int:
    _require_counts(args, "train_count", "test_count")
    config = _resolve_config(args)

    if args.benchmark:
        train_clouds = [generate_scene(SceneSpec(seed=args.scene_seed + i))
                        for i in range(args.train_count)]
        test_clouds = [generate_scene(SceneSpec(seed=args.scene_seed + 1000 + i))
                       for i in range(args.test_count)]
        train_preps, d1 = prepare_frames(train_clouds, config)
        test_preps, d2 = prepare_frames(test_clouds, config)
        cm_mrf, cm_unary = evaluate_split(train_preps, test_preps, config)
        report = EvalReport(confusion=cm_mrf, confusion_unary=cm_unary,
                            frames_evaluated=len(test_preps),
                            frames_discarded=d1 + d2,
                            timing_ms=mean_timings(test_preps))
    else:
        if not args.scenes:
            raise InputError("eval needs --scenes or --benchmark")
        clouds = [read_cloud(p) for p in _scene_paths(args.scenes)]
        report = cross_validate(clouds, config, k=args.k, seed=config.seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once there is a report
    report.save(out_dir / "report.txt", out_dir / "report.json")
    config.save(out_dir / "config.json")
    print(report.to_text())
    return 0


def _cmd_search_positions(args) -> int:
    config = _resolve_config(args)
    cloud = read_cloud(args.input)
    clusters = cluster_tables(cloud, radius=config.table_cluster_radius,
                              min_points=config.table_min_points)
    positions = []
    for cluster in clusters:
        positions.extend(search_positions(cluster, config.security_distance))
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_positions(positions, out_path)
    config.save(out_path.with_suffix(out_path.suffix + ".config.json"))
    print(f"{len(clusters)} table clusters, {len(positions)} positions -> {out_path}")
    return 0


def _cmd_ingest_nyu(args) -> int:
    config = _resolve_config(args)
    depth = np.load(args.depth)
    rgb = np.load(args.rgb)
    intrinsics = Intrinsics.load(args.intrinsics)
    labels = None
    if args.labels:
        raw = np.load(args.labels)
        mapping = load_label_mapping(args.mapping if args.mapping
                                     else default_mapping_path())
        labels = reduce_label_array(raw, mapping)
    cloud = ingest_depth_frame(depth, rgb, labels, intrinsics)
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_cloud(cloud, out_path)
    config.save(out_path.with_suffix(out_path.suffix + ".config.json"))
    print(f"{len(cloud)} points -> {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indoorseg",
        description="Indoor RGB-D semantic segmentation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate labeled synthetic scenes")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--scene-seed", type=int, default=None,
                   help="seed of the first scene (default: pipeline seed)")
    p.add_argument("--room-extent", type=float, nargs=3, default=[5.0, 4.0, 2.5],
                   metavar=("W", "D", "H"))
    p.add_argument("--density", type=float, default=2000.0,
                   help="surface sampling density, points per square meter")
    p.add_argument("--noise-sigma", type=float, default=0.005)
    p.add_argument("--max-points", type=int, default=307200)
    p.add_argument("--n-tables", type=int, default=None)
    p.add_argument("--n-chairs", type=int, default=None)
    p.add_argument("--n-cabinets", type=int, default=None)
    p.add_argument("--n-objects", type=int, default=None)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a forest on labeled scenes")
    p.add_argument("--scenes", nargs="+", required=True,
                   help=".ply files or directories of them")
    p.add_argument("--model", required=True, help="output model path (JSON)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("segment", help="label one cloud with a trained model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True, help="labeled PLY output")
    p.add_argument("--patch-probs", default=None,
                   help="per-patch distribution dump (default <output>.patches.json)")
    p.add_argument("--dump-patches", default=None,
                   help="debug PLY with one random color per patch")
    p.add_argument("--pose-file", default=None,
                   help="camera pose file (height/pitch/roll) for robot mode")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("eval", help="cross-validate or run the synthetic benchmark")
    p.add_argument("--scenes", nargs="*", default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--benchmark", action="store_true",
                   help="fixed train/test split on generated scenes")
    p.add_argument("--train-count", type=int, default=20)
    p.add_argument("--test-count", type=int, default=10)
    p.add_argument("--scene-seed", type=int, default=100)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search-positions",
                       help="derive robot search positions next to tables")
    p.add_argument("--input", required=True, help="labeled, gravity-aligned PLY")
    p.add_argument("--output", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_search_positions)

    p = sub.add_parser("ingest-nyu", help="back-project depth/rgb(.npy) to a PLY")
    p.add_argument("--depth", required=True, help="2-D .npy, raw depth units")
    p.add_argument("--rgb", required=True, help="(H, W, 3) uint8 .npy")
    p.add_argument("--labels", default=None, help="2-D .npy of raw dataset label ids")
    p.add_argument("--mapping", default=None,
                   help="raw_id,label_name table (default: shipped NYU table)")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--output", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ingest_nyu)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except PipelineError as e:
        print(f"pipeline error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
