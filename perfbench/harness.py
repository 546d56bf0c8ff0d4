"""The three benchmark workloads, their correctness checks and statistics.

All workloads are closed loops with one client and one operation at a
time; the pipeline runs with ``workers=1``. Inputs are generated from the
workload seed; the program only ever sees the generated clouds.

* ``frame``: warm in-process robot loop. One operation is
  ``segment_cloud`` -> ``cluster_tables`` -> ``search_positions`` on a
  307,200-point, 4000 pts/m^2 room, rotating over a few scene seeds.
* ``cli``: cold ``python -m indoorseg.cli segment`` subprocess on the same
  kind of PLY, timed from spawn to exit.
* ``eval``: offline researcher path: ``prepare_frame`` on every frame,
  then repeated 8-tree ``train_from_preps`` + ``score_prep`` cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent

# quality floors checked on every operation; the eval gates are those of
# acceptance criterion 4, applied to the seed-0 model as that criterion does
FRAME_MIN_GLOBAL = 0.90
EVAL_MIN_GLOBAL = 0.90
EVAL_MIN_CLASS_AVG = 0.80


@dataclass(frozen=True)
class Sizes:
    """Input sizes. `FULL` is the benchmark; `TINY` only smoke-tests the harness."""

    train_scenes: int = 3          # set-up training scenes of frame and cli
    train_density: float = 2000.0
    frames: int = 3                # distinct frames the frame loop rotates over
    cli_frames: int = 2            # distinct PLYs the cli loop rotates over
    frame_density: float = 4000.0
    frame_points: int = 307200
    eval_train: int = 4
    eval_test: int = 3
    eval_density: float = 2000.0
    scene_points: int = 307200     # cap of the training and eval scenes
    setup_repeats: int = 2


FULL = Sizes()
TINY = Sizes(train_scenes=2, train_density=1000.0, frames=2, cli_frames=1,
             frame_density=1000.0, frame_points=40000, eval_train=2, eval_test=1,
             eval_density=1000.0, scene_points=40000)


def scene_seeds(seed: int, offset: int, count: int) -> list[int]:
    """Seed 0 gives the scenes of acceptance criteria 4 and 6."""
    return [1000 * seed + offset + i for i in range(count)]


# ---------------------------------------------------------------- stats

def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90.0, 99.0, 99.9):
        if len(values) * (1.0 - q / 100.0) >= 10:
            best = (q, float(np.percentile(values, q)))
    return best


def timing(values) -> dict:
    tail = tail_percentile(values)
    return {"p50": median(values), "n": len(values),
            "tail": None if tail is None else {"q": tail[0], "value": tail[1]}}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def model_digest(model) -> str:
    return digest(*[getattr(t, f) for t in model.trees
                    for f in ("kind", "feature", "threshold", "left", "right",
                              "distribution")])


# ---------------------------------------------------------------- bench state

class Op:
    """One attempted operation: its time, whether it ran to the end, and the
    checks it failed."""

    def __init__(self, kind: str, key: str, op_id: str, traced: bool):
        self.kind, self.key, self.op_id, self.traced = kind, key, op_id, traced
        self.seconds = float("nan")
        self.completed = False
        self.errors: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


class Bench:
    """Set-up repetitions, timed operations, checks and determinism."""

    def __init__(self, seed: int, seconds: float, trace: bool, sizes: Sizes, root: Path):
        self.seed, self.seconds, self.sizes, self.root = seed, seconds, sizes, root
        self.tracer = tracing.Tracer() if trace else None
        self.setup_times: list[float] = []
        self.ops: list[Op] = []
        self.samples: dict[str, list[float]] = {}
        self.outputs: dict[str, dict] = {}  # first output per input
        self._first_op: dict[str, str] = {}
        self.repeats_checked = 0
        self.window_start = 0.0

    # set-up ----------------------------------------------------------------
    def setup(self, build):
        """Run `build` several times, keep the last result, time each."""
        result = None
        for r in range(self.sizes.setup_repeats):
            inst = self._trace_in_process(f"setup{r}")
            t0 = time.perf_counter()
            try:
                result = build()
            finally:
                self.setup_times.append(time.perf_counter() - t0)
                if inst is not None:
                    tracing.uninstall(inst)
        self.window_start = time.perf_counter()
        return result

    def in_window(self, done: int, minimum: int) -> bool:
        """Keep going until the window closes and at least `minimum` ops ran."""
        return done < minimum or time.perf_counter() - self.window_start < self.seconds

    # operations ------------------------------------------------------------
    def run_op(self, kind: str, key: str, fn, group: int = 1, in_process: bool = True):
        """Time `fn(op)` on the input named `key`. A traced run alternates
        groups of `group` traced and `group` untraced operations of a kind,
        so that each input of a rotation over `group` inputs runs both ways."""
        count = sum(1 for o in self.ops if o.kind == kind)
        traced = self.tracer is not None and (count // group) % 2 == 0
        op = Op(kind, key, f"{kind}{count}", traced)
        self.ops.append(op)
        inst = self._trace_in_process(op.op_id) if traced and in_process else None
        t0 = time.perf_counter()
        try:
            result = fn(op)
            op.completed = True
        except Exception as e:  # a failed operation is counted, the loop goes on
            op.errors.append(f"{type(e).__name__}: {e}")
            return op, None
        finally:
            op.seconds = time.perf_counter() - t0
            if inst is not None:
                tracing.uninstall(inst)
        return op, result

    def finish(self, op: Op) -> None:
        """Record the time of an operation that ran to the end. One whose
        output failed a check did the same work: it counts in `failed` and
        its time still counts."""
        if op.completed:
            self.samples.setdefault(op.kind, []).append(op.seconds)

    def same(self, op: Op, value) -> None:
        """Outputs of one input must repeat exactly, traced or not."""
        first = self.outputs.setdefault(op.key, value)
        if first is value:
            self._first_op[op.key] = op.op_id
            return
        self.repeats_checked += 1
        op.require(json.dumps(value, sort_keys=True) == json.dumps(first, sort_keys=True),
                   f"{op.key}: {value} differs from {self._first_op[op.key]}'s {first}")

    def _trace_in_process(self, op_id: str):
        if self.tracer is None:
            return None
        self.tracer.op = op_id
        return tracing.install(self.tracer)

    # results ---------------------------------------------------------------
    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.ops if o.errors)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- frame

def frame_config():
    from indoorseg.pipeline import PipelineConfig
    # acceptance criterion 6: voxel 0.025 / seed 0.15, label-based floor fit
    return PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15,
                          ground_mode="fit")


# The robot's sensor: frame and cli clouds are the synthetic room seen from
# a camera above its centre, pitched down (ground.plane_from_pose's
# convention), so the floor fit recovers a real pose as it does on a robot.
CAMERA_HEIGHT = 1.2
CAMERA_PITCH = 0.35


def camera_view(cloud):
    """The gravity-frame scene in the camera frame (x right, y down, z
    forward) of a sensor CAMERA_HEIGHT above the middle of its floor,
    looking along +x and pitched CAMERA_PITCH down."""
    from indoorseg.cloud import FRAME_CAMERA
    c, s = np.cos(CAMERA_PITCH), np.sin(CAMERA_PITCH)
    rotation = np.array([[0.0, -1.0, 0.0],   # camera x in world coordinates
                         [-s, 0.0, -c],      # camera y (down)
                         [c, 0.0, -s]])      # camera z (forward)
    lo, hi = cloud.positions.min(axis=0), cloud.positions.max(axis=0)
    eye = np.array([(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, CAMERA_HEIGHT])
    normals = None if cloud.normals is None else cloud.normals @ rotation.T
    return cloud.with_(positions=(cloud.positions - eye) @ rotation.T,
                       normals=normals, frame=FRAME_CAMERA)


CLI_CONFIG_FLAGS = ["--voxel-resolution", "0.025", "--seed-resolution", "0.15",
                    "--ground-mode", "fit"]


def eval_config():
    from indoorseg.pipeline import PipelineConfig
    # acceptance criterion 4's benchmark configuration
    return PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15,
                          candidates_per_node=3, thresholds_per_candidate=10,
                          mrf_lambda=2.0, mrf_sigma=0.1)


def generate(seed: int, density: float, max_points: int):
    from indoorseg import synth
    return synth.generate_scene(synth.SceneSpec(seed=seed, points_per_m2=density,
                                                max_points=max_points))


def train_setup_model(bench: Bench, config):
    """The robot's model: 8 trees on the set-up training scenes."""
    from indoorseg import evalkit
    s = bench.sizes
    preps = [evalkit.prepare_frame(
        camera_view(generate(seed, s.train_density, s.scene_points)), config)
        for seed in scene_seeds(bench.seed, 60, s.train_scenes)]
    return evalkit.train_from_preps(preps, config)


def frame_scenes(bench: Bench, count: int):
    s = bench.sizes
    return [camera_view(generate(seed, s.frame_density, s.frame_points))
            for seed in scene_seeds(bench.seed, 77, count)]


class Accuracy:
    """Point accuracy per operation, and over the run's distinct inputs."""

    def __init__(self):
        from indoorseg.evalkit import ConfusionMatrix
        self.total = ConfusionMatrix()
        self._seen: set = set()

    def check(self, op: Op, ground_truth, predicted, floor: float) -> None:
        from indoorseg.evalkit import ConfusionMatrix
        cm = ConfusionMatrix().add(ground_truth, predicted)
        g = cm.global_accuracy()
        op.require(g >= floor, f"global accuracy {g:.4f} < {floor}")
        if op.key not in self._seen:
            self._seen.add(op.key)
            self.total.merge(cm)

    def values(self) -> tuple[float, float]:
        return self.total.global_accuracy(), self.total.class_average()


def check_aligned(op: Op, cloud) -> None:
    """The ground stage put the floor at z = 0 with +z up: floor points
    within a few centimetres of 0, the ceiling above them."""
    from indoorseg.labels import Label
    z = cloud.positions[:, 2]
    floor_z = float(np.median(z[cloud.labels == int(Label.FLOOR)]))
    ceiling_z = float(np.median(z[cloud.labels == int(Label.CEILING)]))
    op.require(abs(floor_z) <= 0.02 and ceiling_z > 2.0,
               f"aligned floor at z={floor_z:.4f}, ceiling at z={ceiling_z:.4f}")


def check_positions(op: Op, clusters, positions, distance: float) -> None:
    """Two positions per table, on the minor axis, `distance` past the edge."""
    for cluster, pair in zip(clusters, positions):
        op.require(len(pair) == 2, f"table {cluster.id}: {len(pair)} positions, want 2")
        for p in pair:
            offset = p.position_2d - cluster.centroid_2d
            along = abs(float(offset @ cluster.axis_minor))
            ok = abs(along - (cluster.half_extent_minor + distance)) <= 1e-9 and \
                abs(float(offset @ cluster.axis_major)) <= 1e-9
            op.require(ok, f"table {cluster.id}: position {p.position_2d} is not "
                           f"{distance} m past the minor-axis edge")


def run_frame(bench: Bench) -> dict:
    from indoorseg import pipeline, search
    config = frame_config()
    model, frames = bench.setup(lambda: (train_setup_model(bench, config),
                                         frame_scenes(bench, bench.sizes.frames)))

    def one_frame(cloud):
        result = pipeline.segment_cloud(cloud, model, config)
        labeled = result.stage_output.cloud.with_(labels=result.point_labels)
        clusters = search.cluster_tables(labeled, radius=config.table_cluster_radius,
                                         min_points=config.table_min_points)
        positions = [search.search_positions(c, config.security_distance)
                     for c in clusters]
        return result, clusters, positions

    acc = Accuracy()
    # rotate over the frames; one more op than frames repeats an input
    while bench.in_window(bench.attempted, len(frames) + 1):
        index = bench.attempted % len(frames)
        cloud = frames[index]
        op, out = bench.run_op("frame", f"frame{index}", lambda op: one_frame(cloud),
                               group=len(frames))
        if out is not None:
            result, clusters, positions = out
            check_positions(op, clusters, positions, config.security_distance)
            check_aligned(op, result.stage_output.cloud)
            acc.check(op, cloud.labels, result.point_labels, FRAME_MIN_GLOBAL)
            graph = result.stage_output.graph
            bench.same(op, {
                "labels": digest(result.point_labels),
                "patches": len(graph.patches),
                "edges": int(graph.edges.shape[0]),
                "lbp_iterations": int(result.labeling.iterations),
                "positions": sum(len(p) for p in positions)})
        bench.finish(op)

    frame_s = bench.samples.get("frame", [])
    g, ca = acc.values()
    return {
        "frame_p50_s": timing(frame_s),
        "frame_global_acc": g,
        "frame_class_avg_acc": ca,
        "peak_rss_mb": peak_rss_mb(),
        "_generic": {"op_p50_s": median(frame_s), "peak_rss_mb": peak_rss_mb()},
    }


# ---------------------------------------------------------------- cli

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, log_path: Path) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=log, stderr=log,
                                 stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss / 1024.0


def run_cli(bench: Bench) -> dict:
    from indoorseg import forest, ply_io
    config = frame_config()
    work_parent = HERE / "results"
    work_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_parent, prefix="cli-work-") as tmp:
        work = Path(tmp)

        def build():
            forest.save_model(train_setup_model(bench, config), work / "model.json")
            frames = frame_scenes(bench, bench.sizes.cli_frames)
            for i, cloud in enumerate(frames):
                ply_io.write_cloud(cloud, work / f"frame{i}.ply")
            return [c.labels for c in frames]

        truths = bench.setup(build)
        env = child_env(bench.root)
        launcher = str(HERE / "cli_child.py")
        out, spans_path, log = work / "labeled.ply", work / "spans.json", work / "child.log"
        patches_path = out.with_suffix(out.suffix + ".patches.json")
        rss, acc = [], Accuracy()
        while bench.in_window(bench.attempted, len(truths) + 1):
            index = bench.attempted % len(truths)
            for stale in (out, patches_path, spans_path):
                stale.unlink(missing_ok=True)
            segment = ["segment", "--input", str(work / f"frame{index}.ply"),
                       "--model", str(work / "model.json"), "--output", str(out),
                       *CLI_CONFIG_FLAGS]

            def one_run(op):
                head = [sys.executable, launcher, str(spans_path)] if op.traced \
                    else [sys.executable, "-m", "indoorseg.cli"]
                return spawn(head + segment, env, log)

            op, res = bench.run_op("cli", f"cli{index}", one_run, group=len(truths),
                                   in_process=False)
            if res is not None:
                code, op.seconds, child_rss = res
                op.completed = code == 0
                op.require(code == 0, f"segment exited {code}: "
                           + log.read_text(errors="replace")[-500:])
                if code == 0:
                    rss.append(child_rss)
                    labeled = ply_io.read_cloud(out)
                    labels = labeled.labels
                    truth = truths[index]
                    op.require(labels is not None and labels.shape == truth.shape,
                               "output PLY does not carry one label per input point")
                    dump = json.loads(patches_path.read_text())
                    op.require(isinstance(dump.get("timing_ms"), dict),
                               "patches.json has no timing_ms")
                    if not op.errors:
                        bench.same(op, {
                            "ply": digest(np.frombuffer(out.read_bytes(), np.uint8)),
                            "patches": len(dump["patches"]),
                            "lbp_iterations": dump["lbp_iterations"]})
                        acc.check(op, truth, labels, FRAME_MIN_GLOBAL)
                    if op.traced:
                        bench.tracer.merge(json.loads(spans_path.read_text()), op.op_id)
            bench.finish(op)

    cli_s = bench.samples.get("cli", [])
    g, ca = acc.values()
    return {
        "cli_p50_s": timing(cli_s),
        "cli_rss_mb": median(rss),
        "cli_global_acc": g,
        "cli_class_avg_acc": ca,
        "_generic": {"op_p50_s": median(cli_s), "peak_rss_mb": median(rss)},
    }


# ---------------------------------------------------------------- eval

FOREST_SEEDS = (0, 1)  # each fit-and-score round trains one forest per seed


def run_eval(bench: Bench) -> dict:
    from indoorseg import evalkit
    config = eval_config()
    s = bench.sizes

    def build():
        # the training split is fixed (criterion 4's first scenes): fit time
        # depends strongly on the training data, so only the test frames
        # follow the workload seed
        train = [generate(x, s.eval_density, s.scene_points)
                 for x in scene_seeds(0, 100, s.eval_train)]
        test = [generate(x, s.eval_density, s.scene_points)
                for x in scene_seeds(bench.seed, 900, s.eval_test)]
        return train, test

    train_clouds, test_clouds = bench.setup(build)

    def prepare(clouds, tag):
        preps = []
        for i, cloud in enumerate(clouds):
            op, prep = bench.run_op(
                "prep_frame", f"{tag}{i}",
                lambda op: evalkit.prepare_frame(cloud, config, f"{tag}{i}"))
            if prep is not None:
                op.require(prep.features.shape[0] > 0 and np.isfinite(prep.features).all(),
                           "frame prep gave no finite feature rows")
                op.require(prep.point_to_feature.shape == cloud.labels.shape,
                           "frame prep lost points")
            bench.finish(op)
            preps.append(None if op.errors else prep)
        return preps

    train_preps = prepare(train_clouds, "train")
    test_preps = prepare(test_clouds, "test")
    if any(p is None for p in train_preps + test_preps):
        raise RuntimeError("frame preparation failed; no model can be fitted")
    # the preps are a fixed amount of work; the fit-and-score loop that
    # op_p50_s measures gets the whole window, for more samples per run
    bench.window_start = time.perf_counter()

    def fit_and_score(forest_seed, parts):
        t0 = time.perf_counter()
        model = evalkit.train_from_preps(train_preps, config, seed=forest_seed)
        parts["fit"] = time.perf_counter() - t0
        cm_mrf, cm_unary = evalkit.ConfusionMatrix(), evalkit.ConfusionMatrix()
        parts["score_frame"] = []
        for prep in test_preps:
            t1 = time.perf_counter()
            evalkit.score_prep(prep, model, config, cm_mrf, cm_unary)
            parts["score_frame"].append(time.perf_counter() - t1)
        return model, cm_mrf, cm_unary

    seed0 = None
    cycles = 0
    # whole rounds only, so every run's median mixes the seeds alike; two
    # rounds repeat every fit
    while bench.in_window(cycles, 2 * len(FOREST_SEEDS)):
        for forest_seed in FOREST_SEEDS:
            cycles += 1
            parts = {}
            op, out = bench.run_op("fit_and_score", f"forest{forest_seed}",
                                   lambda op: fit_and_score(forest_seed, parts),
                                   group=len(FOREST_SEEDS))
            if out is not None:
                model, cm_mrf, cm_unary = out
                g, ca = cm_mrf.global_accuracy(), cm_mrf.class_average()
                gu = cm_unary.global_accuracy()
                op.require(g >= EVAL_MIN_GLOBAL,
                           f"global accuracy {g:.4f} < {EVAL_MIN_GLOBAL}")
                if forest_seed == 0:
                    # criterion 4 gates the seed-0 model; on a few test frames
                    # other seeds' class averages scatter around its floor
                    op.require(ca >= EVAL_MIN_CLASS_AVG,
                               f"class-average accuracy {ca:.4f} < {EVAL_MIN_CLASS_AVG}")
                    op.require(g >= gu, f"MRF global {g:.4f} below unary {gu:.4f}")
                bench.same(op, {
                    "model": model_digest(model),
                    "nodes": sum(t.kind.shape[0] for t in model.trees),
                    "confusion_mrf": cm_mrf.counts.tolist(),
                    "confusion_unary": cm_unary.counts.tolist()})
                if forest_seed == 0 and seed0 is None:
                    seed0 = (g, ca, gu)
                if op.completed:
                    bench.samples.setdefault("fit", []).append(parts["fit"])
                    bench.samples.setdefault("score_frame", []).extend(parts["score_frame"])
            bench.finish(op)

    cycle_s = bench.samples.get("fit_and_score", [])
    g, ca, gu = seed0 if seed0 is not None else (float("nan"),) * 3
    return {
        "prep_frame_p50_s": timing(bench.samples.get("prep_frame", [])),
        "fit_p50_s": timing(bench.samples.get("fit", [])),
        "score_frame_p50_s": timing(bench.samples.get("score_frame", [])),
        "fit_and_score_p50_s": timing(cycle_s),
        "global_acc": g,
        "class_avg_acc": ca,
        "mrf_minus_unary_global": g - gu,
        "peak_rss_mb": peak_rss_mb(),
        "_generic": {"op_p50_s": median(cycle_s), "peak_rss_mb": peak_rss_mb()},
    }


RUNNERS = {"frame": run_frame, "cli": run_cli, "eval": run_eval}
MAIN_OP = {"frame": "frame", "cli": "cli", "eval": "fit_and_score"}


# ---------------------------------------------------------------- provenance

def git_commit(root: Path) -> str:
    """HEAD from the .git files themselves; the checkout may not be a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "indoorseg").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, seed: int) -> dict:
    import scipy
    return {
        "git_commit": git_commit(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------- run

def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL, root: Path = HERE.parent) -> dict:
    """Run one workload; returns the full record (report, metrics, checks)."""
    bench = Bench(seed, seconds, trace, sizes, root)
    named = RUNNERS[workload](bench)
    generic = named.pop("_generic")
    named = {"setup_s": median(bench.setup_times), **named,
             "error_rate": {"failed": bench.failed, "attempted": bench.attempted}}
    record = {
        "workload": workload,
        "provenance": provenance(root, seed),
        "named_metrics": named,
        "end_to_end": {"setup_s": median(bench.setup_times), **generic},
        "setup_times_s": bench.setup_times,
        "samples_s": bench.samples,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": {o.op_id: o.errors for o in bench.ops if o.errors},
        "repeats_checked": bench.repeats_checked,
        "outputs": bench.outputs,
    }
    record["correct"] = bench.failed == 0 and bench.repeats_checked > 0
    if bench.tracer is not None:
        record.update(trace_summary(bench, MAIN_OP[workload]))
        record["provenance"]["tracing_overhead_s"] = record["tracing_overhead_s"]
    return record


def trace_summary(bench: Bench, main_kind: str) -> dict:
    """Per-layer medians of the traced operations, plus the tracing overhead
    from inputs that ran both traced and untraced."""
    tracer = bench.tracer
    traced_ops = [o for o in bench.ops if o.traced and o.completed]
    layers = tracing.layer_metrics(
        tracer, [o.op_id for o in traced_ops],
        [f"setup{r}" for r in range(bench.sizes.setup_repeats)])
    main = [o for o in bench.ops if o.kind == main_kind and o.completed]
    pairs = []  # (traced wall, top-level spans, untraced wall) per input
    for key in dict.fromkeys(o.key for o in main):
        traced = [o for o in main if o.key == key and o.traced]
        untraced = [o.seconds for o in main if o.key == key and not o.traced]
        if traced and untraced:
            pairs.append((median([o.seconds for o in traced]),
                          median([tracer.top_level_seconds(o.op_id) for o in traced]),
                          median(untraced)))
    traced_p50, spans_p50, untraced_p50 = (median([p[i] for p in pairs]) for i in range(3))
    layers["trace.overhead_ratio"] = traced_p50 / untraced_p50
    layers["trace.span_coverage"] = median(
        [tracer.top_level_seconds(o.op_id) / o.seconds for o in main if o.traced])
    return {
        "per_layer": layers,
        "tracing_overhead_s": traced_p50 - untraced_p50,
        "traced_p50_s": traced_p50,
        "untraced_p50_s": untraced_p50,
        "top_level_spans_p50_s": spans_p50,
        "spans": tracer.dump(),
    }


def unit_of(name: str) -> str:
    """Unit of a named (report) metric."""
    if name.endswith("_mb"):
        return "MB"
    return "s" if name.endswith("_s") else "ratio"


def report_lines(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}  provenance {json.dumps(record['provenance'])}"]
    for name, value in record["named_metrics"].items():
        if name == "error_rate":
            rate = value["failed"] / value["attempted"] if value["attempted"] else float("nan")
            lines.append(f"  {name:<24} {rate:.4f} ratio  ({value['failed']} failed "
                         f"of {value['attempted']} attempted operations)")
        elif isinstance(value, dict):
            tail = value["tail"]
            extra = f"p{tail['q']:g} {tail['value']:.4f} s" if tail else \
                "no tail percentile: fewer than 10 samples beyond p90"
            lines.append(f"  {name:<24} {value['p50']:.4f} s  (median of "
                         f"n={value['n']}; {extra})")
        else:
            lines.append(f"  {name:<24} {value:.4f} {unit_of(name)}")
    if record["errors"]:
        lines.append(f"  errors: {json.dumps(record['errors'])}")
    lines.append(f"  determinism: {record['repeats_checked']} repeated outputs compared")
    if "per_layer" in record:
        lines.append(f"  tracing overhead {record['tracing_overhead_s']:+.4f} s per op "
                     f"(same inputs: traced p50 {record['traced_p50_s']:.4f} s, "
                     f"untraced p50 {record['untraced_p50_s']:.4f} s)")
        gap = record["top_level_spans_p50_s"] - record["untraced_p50_s"]
        lines.append(f"  top-level spans (self times plus children) p50 "
                     f"{record['top_level_spans_p50_s']:.4f} s: {gap:+.4f} s from the "
                     f"untraced op")
        for metric in tracing.per_layer_spec():
            value = record["per_layer"][metric["name"]]
            if value:
                lines.append(f"  {metric['name']:<40} {value:.6g} {metric['unit']}")
    return lines


def save(record: dict, seed: int, trace: bool) -> Path:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{record['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    return path

