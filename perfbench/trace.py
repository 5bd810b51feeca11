"""Traced in-process run of one redoku CLI command.

    python3 perfbench/trace.py OUT.json [CLI ARGS...]

Each layer function is wrapped where its caller looks it up, so the program
itself is unchanged.  Cold calls get one span each (name, start, end,
parent).  Hot calls, such as canonical keys and solver calls, are folded
into a count and a total under the span that made them.  Spans stay in
memory and are written to OUT.json when the run ends, together with the
per-layer metrics derived from them.
"""

import json
import statistics
import sys
import time

import redoku.cli
import redoku.pipeline
import redoku.smalls
import redoku.solver
from redoku.board import Board

clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child", "folded",
                 "attrs")

    def __init__(self, sid, name, parent):
        self.id, self.name, self.parent = sid, name, parent
        self.start = clock()
        self.end = None
        self.child = 0.0      # time covered by child spans and folded calls
        self.folded = {}
        self.attrs = None

    @property
    def self_time(self):
        return self.end - self.start - self.child


class Fold:
    """Calls of one function folded under one span."""

    __slots__ = ("count", "total", "self", "extra")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self = 0.0       # total minus folded calls nested inside
        self.extra = {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.frames = []      # open folded calls: time of nested folds
        self.root = self._open("run")

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = clock()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    def span(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(result)
            return result
        return traced

    def fold(self, name, fn, observe=None):
        frames, stack = self.frames, self.stack

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                else:
                    stack[-1].child += elapsed
                rec = stack[-1].folded.get(name)
                if rec is None:
                    rec = stack[-1].folded[name] = Fold()
                rec.count += 1
                rec.total += elapsed
                rec.self += elapsed - frame[0]
            if observe is not None:
                observe(rec.extra, result)
            return result
        return traced

    def finish(self):
        self._close(self.root)

    def to_json(self):
        return [{
            "id": s.id, "name": s.name,
            "parent": None if s.parent is None else s.parent.id,
            "start": s.start, "end": s.end, "self": s.self_time,
            "attrs": s.attrs,
            "folded": {name: {"count": f.count, "total": f.total,
                              "self": f.self, **f.extra}
                       for name, f in s.folded.items()},
        } for s in self.spans]


def _count(extra, key, amount=1):
    extra[key] = extra.get(key, 0) + amount


def _observe_solve(extra, outcome):
    stats = outcome.stats
    _count(extra, "nodes", stats.nodes)
    _count(extra, "propagations", stats.propagations)
    _count(extra, "budget_stops", outcome.status == redoku.solver.BUDGET)
    if outcome.is_solution:
        _count(extra, "useful_nodes", stats.nodes)


def install(tracer):
    """Wrap each layer function in the module whose code calls it."""
    pipeline, solver, smalls, cli = (redoku.pipeline, redoku.solver,
                                     redoku.smalls, redoku.cli)
    folded_solve = tracer.fold("solver.solve", solver.solve, _observe_solve)
    solver.solve = smalls.solve = folded_solve
    key = tracer.fold("symmetry.canonical_key", pipeline._canonical_key)
    pipeline._canonical_key = key
    closure = tracer.fold("rewrite.close_mask", pipeline.close_mask)
    pipeline.close_mask = solver.close_mask = closure
    solver.verify_grid = tracer.fold("board.verify_grid", solver.verify_grid)
    pipeline.group_images = tracer.span("symmetry.group_images",
                                        pipeline.group_images)
    pipeline.find_witness = tracer.span("solver.find_witness",
                                        pipeline.find_witness)
    solver.modification_witness = tracer.span(
        "solver.modification_witness", solver.modification_witness,
        attrs=lambda grid: {"hit": grid is not None})
    smalls.probe_pair = tracer.span(
        "smalls.probe_pair", smalls.probe_pair,
        attrs=lambda record: {"nodes": record.nodes})
    cli.run_classification = tracer.span("pipeline.run_classification",
                                         cli.run_classification)
    cli.probe_minimality = tracer.span("smalls.probe_minimality",
                                       cli.probe_minimality)


LAYERS = ("cli", "pipeline", "symmetry", "rewrite", "solver", "smalls",
          "board")


def _quantile(values, q):
    if not values:
        return 0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer):
    """Per-layer metrics from the finished spans; 0 where a layer was not
    called."""
    spans = tracer.spans
    folds = {}
    for span in spans:
        for name, rec in span.folded.items():
            agg = folds.setdefault(name, Fold())
            agg.count += rec.count
            agg.total += rec.total
            agg.self += rec.self
            for k, v in rec.extra.items():
                _count(agg.extra, k, v)

    def fold(name):
        return folds.get(name, Fold())

    def named(name):
        return [s for s in spans if s.name == name]

    def duration(name):
        return sum(s.end - s.start for s in named(name))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0

    keys, closes, solves, verifies = (
        fold("symmetry.canonical_key"), fold("rewrite.close_mask"),
        fold("solver.solve"), fold("board.verify_grid"))
    nodes = solves.extra.get("nodes", 0)
    edits = named("solver.modification_witness")
    probes = named("smalls.probe_pair")
    probe_solves = sum(p.folded["solver.solve"].count for p in probes
                       if "solver.solve" in p.folded)
    probe_times = [p.end - p.start for p in probes]
    probe_nodes = [p.attrs["nodes"] for p in probes]
    metrics = {
        "symmetry.keys": (keys.count, "count"),
        "symmetry.key_s": (keys.total, "s"),
        "symmetry.keys_per_s": (rate(keys.count, keys.total), "1/s"),
        "symmetry.images": (len(named("symmetry.group_images")), "count"),
        "symmetry.images_s": (duration("symmetry.group_images"), "s"),
        "pipeline.enumerate_s": (duration("pipeline.enumerate"), "s"),
        "pipeline.catalog_s": (duration("pipeline.catalog"), "s"),
        "pipeline.classify_s": (duration("pipeline.classify"), "s"),
        "rewrite.closures": (closes.count, "count"),
        "rewrite.closure_s": (closes.total, "s"),
        "solver.witnesses": (len(named("solver.find_witness")), "count"),
        "solver.witness_s": (duration("solver.find_witness"), "s"),
        "solver.edits": (len(edits), "count"),
        "solver.edit_hit_share": (
            sum(s.attrs["hit"] for s in edits) / len(edits) if edits else 0,
            "share"),
        "solver.solves": (solves.count, "count"),
        "solver.solve_s": (solves.total, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.propagations": (solves.extra.get("propagations", 0),
                                "count"),
        "solver.nodes_per_s": (rate(nodes, solves.total), "1/s"),
        "solver.budget_stops": (solves.extra.get("budget_stops", 0),
                                "count"),
        "solver.useful_node_share": (
            solves.extra.get("useful_nodes", 0) / nodes if nodes else 0,
            "share"),
        "smalls.probes": (len(probes), "count"),
        "smalls.probe_s_p50": (_quantile(probe_times, 50), "s"),
        "smalls.probe_s_p90": (_quantile(probe_times, 90), "s"),
        "smalls.probe_nodes_p50": (_quantile(probe_nodes, 50), "count"),
        "smalls.probe_nodes_max": (max(probe_nodes, default=0), "count"),
        "smalls.solves_per_probe": (
            probe_solves / len(probes) if probes else 0, "count"),
        "board.verifies": (verifies.count, "count"),
        "board.verify_s": (verifies.total, "s"),
    }
    self_time = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = span.name.split(".")[0]
        if layer in self_time:
            self_time[layer] += span.self_time
    for name, rec in folds.items():
        self_time[name.split(".")[0]] += rec.self
    for layer, seconds in self_time.items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    return metrics


def run(argv):
    """Trace one CLI command.  For `classify`, the pipeline's three stages
    are first called one by one; their caches are shared with the command,
    so each call reads one stage."""
    tracer = Tracer()
    install(tracer)
    start = clock()
    if argv[0] == "classify":
        board, k = Board(3), int(argv[argv.index("-n") + 1])
        pipeline = redoku.pipeline
        tracer.span("pipeline.enumerate", pipeline.enumerate_classes)(
            board, k)
        tracer.span("pipeline.catalog", pipeline.minimal_catalog)(
            board, max(2, k))
        tracer.span("pipeline.classify", pipeline.run_classification)(
            board, k)
    status = tracer.span("cli.main", redoku.cli.main)(argv)
    wall = clock() - start
    tracer.finish()
    return status, wall, tracer


def main(out_path, argv):
    status, wall, tracer = run(argv)
    metrics = layer_metrics(tracer)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"status": status, "wall_s": wall,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "units": {k: u for k, (_, u) in metrics.items()},
                   "spans": tracer.to_json()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
