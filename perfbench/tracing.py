"""Span tracing of the indoorseg package modules, installed from outside.

`install` replaces each traced function at every name the package's
modules bind it to (``indoorseg.pipeline.compute_normals``,
``indoorseg.mrf.solve_map_lbp``, ...), so callers that look the name up at
call time go through a wrapper that records a span: name, start, end,
parent span and operation id. Counts are taken from the arguments and
results after the span has closed. `uninstall` puts the originals back.
No file of the package is changed.

This module imports only the standard library at load time, so the CLI
launcher can time the import of `indoorseg.cli` before loading it.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

# layer (package module) -> public functions traced at their call sites
TRACED = {
    "cli": ("main",),
    "ply_io": ("read_cloud", "write_cloud"),
    "pipeline": ("segment_cloud", "run_stages", "patch_majority_labels"),
    "overseg": ("compute_normals", "oversegment", "refresh_patch_stats"),
    "colorspace": ("srgb_to_lab",),
    "ground": ("estimate_ground_plane", "gravity_align"),
    "features": ("feature_matrix",),
    "forest": ("train_forest", "predict_batch", "load_model"),
    "mrf": ("solve_map_lbp", "energy_of"),
    "evalkit": ("prepare_frame", "train_from_preps", "score_prep"),
    "search": ("cluster_tables", "search_positions"),
    "synth": ("generate_scene",),
}

# spans that wrap no package function: kNN queries made under overseg,
# split by the traced caller, and the CLI launcher's import of indoorseg.cli
KNN_SPANS = {"overseg.compute_normals": "overseg.knn_normals",
             "overseg.oversegment": "overseg.knn_seeds"}
EXTRA_SPANS = ("overseg.knn_normals", "overseg.knn_seeds", "cli.import")

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs) + EXTRA_SPANS

# per-layer counts; a ratio is (numerator count, denominator count)
COUNTS = ("overseg.patches", "overseg.edges", "overseg.degenerate_normals",
          "features.rows", "features.rows_skipped",
          "forest.samples", "forest.nodes", "forest.split_nodes",
          "forest.depth_reached", "forest.rows", "forest.model_bytes",
          "mrf.nodes", "mrf.edges", "mrf.iterations",
          "search.clusters", "search.positions")
RATIOS = {
    "overseg.orphan_ratio": ("overseg.orphan_points", "overseg.points"),
    "ground.inlier_ratio": ("ground.inliers", "ground.floor_points"),
    "mrf.converged_ratio": ("mrf.converged", "mrf.solves"),
    "mrf.energy_ratio": ("mrf.final_energy", "mrf.unary_energy"),
}
SETUP_LAYER = "synth."  # called only during set-up


def per_layer_spec() -> list[dict]:
    """Every per-layer metric as listed in BENCHMARK.json, in report order."""
    spec = []
    for span in SPAN_NAMES:
        spec += [{"name": f"{span}_s", "unit": "s", "better": "lower"},
                 {"name": f"{span}_self_s", "unit": "s", "better": "lower"},
                 {"name": f"{span}_calls", "unit": "count", "better": "lower"}]
    spec += [{"name": name, "unit": "bytes" if name.endswith("_bytes") else "count",
              "better": "lower"} for name in COUNTS]
    spec += [{"name": name, "unit": "ratio",
              "better": "higher" if name == "mrf.converged_ratio" else "lower"}
             for name in RATIOS]
    spec += [{"name": "ply_io.read_mb_per_s", "unit": "MB/s", "better": "higher"},
             {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
             {"name": "trace.span_coverage", "unit": "ratio", "better": "higher"}]
    return spec


class Tracer:
    """In-memory spans of one run; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op, child seconds]
        self.counts: dict[str, dict[str, float]] = {}
        self.op = "setup"
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def add_span(self, name: str, start: float, end: float) -> None:
        """A finished top-level span measured by the caller."""
        self.spans.append([name, start, end, -1, self.op, 0.0])

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def count(self, key: str, value: float, op: str | None = None) -> None:
        op_counts = self.counts.setdefault(self.op if op is None else op, {})
        op_counts[key] = op_counts.get(key, 0.0) + float(value)

    def merge(self, doc: dict, op: str) -> None:
        """Add the spans and counts another process dumped with `dump`."""
        base = len(self.spans)
        for name, start, end, parent, _, child in doc["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               op, child])
        for counts in doc["counts"].values():
            for key, value in counts.items():
                self.count(key, value, op)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def per_op(self, ops: list[str]) -> dict[str, dict[str, float]]:
        """op -> {metric: value} with busy, self and call totals plus counts."""
        table = {op: {} for op in ops}
        for name, start, end, _, op, child in self.spans:
            if op not in table:
                continue
            row = table[op]
            row[f"{name}_s"] = row.get(f"{name}_s", 0.0) + (end - start)
            row[f"{name}_self_s"] = row.get(f"{name}_self_s", 0.0) + (end - start - child)
            row[f"{name}_calls"] = row.get(f"{name}_calls", 0) + 1
        for op in ops:
            table[op].update(self.counts.get(op, {}))
        return table

    def top_level_seconds(self, op: str) -> float:
        return sum(end - start for _, start, end, parent, o, _ in self.spans
                   if o == op and parent < 0)


def layer_metrics(tracer: Tracer, ops: list[str], setup_ops: list[str]) -> dict:
    """Median per operation over the operations that reached each layer.

    A layer no measured operation reached reports 0; set-up layers are
    taken from the set-up repetitions instead.
    """
    rows = list(tracer.per_op(ops).values())
    setup_rows = list(tracer.per_op(setup_ops).values())
    out = {}
    for name in (m["name"] for m in per_layer_spec()):
        if name.startswith("trace.") or name == "ply_io.read_mb_per_s":
            continue
        source = setup_rows if name.startswith(SETUP_LAYER) else rows
        if name in RATIOS:
            num, den = RATIOS[name]
            values = [r.get(num, 0.0) / r[den] for r in source if r.get(den)]
        else:
            values = [r[name] for r in source if name in r]
        out[name] = statistics.median(values) if values else 0
    read = [(r["ply_io.read_bytes"], r["ply_io.read_cloud_s"]) for r in rows
            if r.get("ply_io.read_cloud_s")]
    out["ply_io.read_mb_per_s"] = statistics.median(
        b / 1e6 / s for b, s in read) if read else 0
    return out


# ---------------------------------------------------------------- counters

def _count_normals(t, args, kwargs, cloud):
    if cloud.normal_flags is not None:
        t.count("overseg.degenerate_normals", int(cloud.normal_flags.sum()))


def _count_overseg(t, args, kwargs, graph):
    t.count("overseg.patches", len(graph.patches))
    t.count("overseg.edges", graph.edges.shape[0])
    t.count("overseg.orphan_points", int((graph.point_to_patch < 0).sum()))
    t.count("overseg.points", graph.point_to_patch.shape[0])


def _count_ground(t, args, kwargs, plane):
    from indoorseg.labels import Label
    cloud = args[0] if args else kwargs["cloud"]
    t.count("ground.inliers", plane.inlier_count)
    t.count("ground.floor_points", int((cloud.labels == int(Label.FLOOR)).sum()))


def _count_features(t, args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    rows = result[0].shape[0]
    t.count("features.rows", rows)
    t.count("features.rows_skipped", len(graph.patches) - rows)


def _count_train(t, args, kwargs, model):
    from indoorseg.forest import KIND_SPLIT
    data = args[0] if args else kwargs["data"]
    t.count("forest.samples", len(data))
    t.count("forest.nodes", sum(tree.kind.shape[0] for tree in model.trees))
    t.count("forest.split_nodes", sum(int((tree.kind == KIND_SPLIT).sum())
                                      for tree in model.trees))
    t.count("forest.depth_reached", max(tree.depth() for tree in model.trees))


def _count_predict(t, args, kwargs, probs):
    t.count("forest.rows", probs.shape[0])


def _count_load(t, args, kwargs, model):
    t.count("forest.model_bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _count_read(t, args, kwargs, cloud):
    t.count("ply_io.read_bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _count_lbp(energy_of):
    def count(t, args, kwargs, labeling):
        problem = args[0] if args else kwargs["problem"]
        t.count("mrf.nodes", problem.num_nodes)
        t.count("mrf.edges", problem.edges.shape[0])
        t.count("mrf.iterations", labeling.iterations)
        t.count("mrf.converged", int(labeling.converged))
        t.count("mrf.solves", 1)
        if problem.num_nodes:
            t.count("mrf.final_energy", labeling.energy)
            t.count("mrf.unary_energy",
                    energy_of(problem, problem.unary.argmin(axis=1)))
    return count


def _count_len(key):
    def count(t, args, kwargs, result):
        t.count(key, len(result))
    return count


# ---------------------------------------------------------------- install

def install(tracer: Tracer) -> list:
    """Route every traced function of the loaded package through `tracer`;
    returns the replaced (module, name, original) triples for `uninstall`."""
    modules = {name: importlib.import_module(f"indoorseg.{name}") for name in TRACED}
    counters = {
        "overseg.compute_normals": _count_normals,
        "overseg.oversegment": _count_overseg,
        "ground.estimate_ground_plane": _count_ground,
        "features.feature_matrix": _count_features,
        "forest.train_forest": _count_train,
        "forest.predict_batch": _count_predict,
        "forest.load_model": _count_load,
        "ply_io.read_cloud": _count_read,
        "mrf.solve_map_lbp": _count_lbp(modules["mrf"].energy_of),
        "search.cluster_tables": _count_len("search.clusters"),
        "search.search_positions": _count_len("search.positions"),
    }
    wrappers = {}
    for layer, names in TRACED.items():
        for fname in names:
            original = getattr(modules[layer], fname)
            wrappers[id(original)] = _wrap(tracer, f"{layer}.{fname}", original,
                                           counters.get(f"{layer}.{fname}"))

    replaced = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "indoorseg" or mod_name.startswith("indoorseg.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((module, attr, value))
                setattr(module, attr, wrapper)

    overseg = modules["overseg"]
    replaced.append((overseg, "cKDTree", overseg.cKDTree))
    overseg.cKDTree = _traced_kdtree(tracer, overseg.cKDTree)
    return replaced


def uninstall(replaced: list) -> None:
    for module, attr, value in reversed(replaced):
        setattr(module, attr, value)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result
    return traced


def _traced_kdtree(tracer: Tracer, base):
    class TracedKDTree(base):
        def query(self, *args, **kwargs):
            span = tracer.begin(KNN_SPANS.get(tracer.current(), "overseg.knn_other"))
            try:
                return super().query(*args, **kwargs)
            finally:
                tracer.end(span)
    return TracedKDTree
