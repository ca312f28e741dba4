"""Span tracing of l1paths from outside the package.

``Tracer.install`` replaces every public function and public method of
the package's modules with a wrapper that records one span per call:
its name, start, end, the span that was open when it was called (its
parent) and the benchmark operation it belongs to. The wrappers are
also bound wherever a module imported a name by value (for example
``l1paths.lars.solve_nnls``), so calls between modules are seen.
``uninstall`` puts every original back. The package itself is never
edited; spans live in memory until ``write`` saves them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from session import Session

# The package's modules, one layer each; ``errors`` only defines exceptions.
LAYERS = (
    "cli", "io", "design", "linalg", "lars", "path", "stagewise",
    "losses", "monotone", "diagnostics", "simulate",
)

# Methods whose names are not public but whose time is a layer's work.
_EXTRA_METHODS = {("path", "PiecewiseLinearPath", "__init__"): "build"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, op, failed)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self.active = False              # spans are recorded only inside an operation
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id, failed)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        import l1paths

        modules = {layer: importlib.import_module(f"l1paths.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    wrapped[val] = self._wrap(f"{layer}.{attr}", val, _AFTER.get(f"{layer}.{attr}"))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._wrap_class(layer, val)
        # Rebind the wrappers in every namespace that holds the originals.
        for ns in (l1paths, *modules.values()):
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._patch(ns, attr, val, wrapped[val])
        return self

    def _wrap_class(self, layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            label = _EXTRA_METHODS.get((layer, cls.__name__, attr))
            if label is None and attr.startswith("_"):
                continue
            label = label or attr
            name = f"{layer}.{label}"
            after = _AFTER.get(name)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, after))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__, after))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw, after)
            else:
                continue
            self._patch(cls, attr, raw, new)

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self, first_span: int = 0) -> dict:
        """Per span name: calls, failed calls, total time and self time.

        Self time is a span's duration minus the durations of its direct
        children. Layer self time sums the self time of the layer's spans.
        """
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= first_span:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "failed": 0, "time": 0.0, "self": 0.0})
        for i, (name, t0, t1, parent, _, failed) in enumerate(spans, start=first_span):
            rec = out[name]
            rec["calls"] += 1
            rec["failed"] += int(failed)
            rec["time"] += t1 - t0
            rec["self"] += (t1 - t0) - child[i]
        return out

    def calls_under(self, name: str, parent_name: str, first_span: int = 0) -> int:
        """Calls of ``name`` made directly from a ``parent_name`` span."""
        spans = self.spans
        return sum(
            1 for s in spans[first_span:]
            if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name
        )

    def write(self, target):
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w") as fh:
            for name, t0, t1, parent, op, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "failed": failed}) + "\n")


# -- the traced run -----------------------------------------------------------

def traced_run(workload, seed, seconds, env, workers, spans_file):
    """Fixed passes, untraced then traced, while time allows.

    A pass sets up the stream's first instance and runs the first cycle
    on it, so it covers set-up layers (simulate, standardize, CSV
    writing) as well as the operation mix; its exact counts repeat.
    """
    tracer = Tracer()
    passes = []
    attempted = failed = 0
    failures = []
    start = perf_counter()
    # Another pass only if it should end within ``seconds``.
    while not passes or perf_counter() - start + sum(walls) < seconds:
        walls = []
        for traced in (False, True):
            sess = Session(env, in_process_cli=True, tracer=tracer if traced else None)
            if traced:
                tracer.install()
                first_span = len(tracer.spans)
            t0 = perf_counter()
            try:
                inst = sess.op("setup", lambda: workload.setup(seed, "pass"))
                if inst is not None:
                    workload.cycle(sess, inst, 0)
            finally:
                walls.append(perf_counter() - t0)
                if traced:
                    tracer.uninstall()
            attempted += sess.attempted
            failed += sess.failed
            failures += sess.failures
        passes.append(layer_metrics(tracer, first_span, sess, walls, workers))
    tracer.write(spans_file)

    counts_differ = [k for k, (v, unit) in passes[0].items()
                     if unit == "count" and any(p[k][0] != v for p in passes[1:])]
    if counts_differ:
        failed += 1
        failures.append(f"exact counts differ between passes: {counts_differ}")
    metrics = {}
    for key, (value, unit) in passes[0].items():
        if unit == "count":
            metrics[key] = (value, unit)
        else:
            metrics[key] = (statistics.median(p[key][0] for p in passes), unit)
    metrics["cli.import_s"] = (import_subprocess_s(env), "s")
    metrics["trace.passes"] = (len(passes), "count")
    return metrics, attempted, failed, failures


def import_subprocess_s(env, repeats=3):
    """Median wall time of ``python -c "import l1paths"``."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import l1paths"], env=env, check=True,
                       timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer, first_span, sess, walls, workers):
    """The per-layer metrics of one traced pass."""
    tot = tracer.totals(first_span)
    ctr = tracer.counters
    zero = {"calls": 0, "failed": 0, "time": 0.0, "self": 0.0}

    def t(name):
        return tot.get(name, zero)

    m = {}

    def calls_and_time(metric, name):
        m[f"{metric}.calls"] = (t(name)["calls"], "count")
        m[f"{metric}_s"] = (t(name)["time"], "s")

    m["io.read_dataset_csv_s"] = (t("io.read_dataset_csv")["time"], "s")
    m["io.write_path_json_s"] = (t("io.write_path_json")["time"], "s")
    m["io.read_path_json_s"] = (t("io.read_path_json")["time"], "s")
    m["io.bytes_written"] = (int(ctr["io.bytes_written"]), "count")
    m["io.bytes_read"] = (int(ctr["io.bytes_read"]), "count")
    for name in ("predict", "correlations", "columns", "gram_entries"):
        calls_and_time(f"design.{name}", f"design.{name}")
    m["design.refresh_bytes.computed"] = (int(ctr["design.refresh_bytes.computed"]), "count")
    m["design.standardize_s"] = (t("design.standardize")["time"], "s")
    calls_and_time("linalg.solve_nnls", "linalg.solve_nnls")
    calls_and_time("linalg.chol_append", "linalg.append_column")
    appends = t("linalg.append_column")
    m["linalg.chol_append.failed"] = (appends["failed"], "count")
    m["linalg.chol_append.ok_ratio"] = (
        (appends["calls"] - appends["failed"]) / appends["calls"] if appends["calls"] else 0.0,
        "1")
    calls_and_time("linalg.chol_drop", "linalg.drop_column")
    calls_and_time("linalg.solve_gram", "linalg.solve_gram")
    for mode in ("lar", "lasso", "fs0"):
        m[f"lars.segments.{mode}"] = (int(ctr[f"lars.segments.{mode}"]), "count")
        m[f"lars.drops.{mode}"] = (int(ctr[f"lars.drops.{mode}"]), "count")
    m["lars.self_s"] = (t("lars.solve_path")["self"], "s")
    fs0_segments = ctr["lars.segments.fs0"]
    nnls = tracer.calls_under("linalg.solve_nnls", "lars.solve_path", first_span)
    m["lars.nnls_per_segment"] = (nnls / fs0_segments if fs0_segments else 0.0, "1")
    calls_and_time("lars.kkt_certify", "lars.kkt_certify")
    calls_and_time("path.evaluate", "path.evaluate")
    m["path.build_s"] = (t("path.build")["time"], "s")
    m["path.vertices_bytes"] = (int(ctr["path.vertices_bytes"]), "count")
    for name in ("monotone_incremental", "fs_epsilon"):
        m[f"stagewise.{name}_s"] = (t(f"stagewise.{name}")["time"], "s")
    m["stagewise.integrate_s"] = (t("stagewise.integrate_monotone_path")["time"], "s")
    m["stagewise.steps"] = (int(ctr["stagewise.steps"]), "count")
    m["stagewise.recorded_vertices"] = (int(ctr["stagewise.recorded_vertices"]), "count")
    calls_and_time("stagewise.glm_move_direction", "stagewise.glm_move_direction")
    for name in ("first", "second", "total"):
        calls_and_time(f"losses.{name}", f"losses.{name}")
    m["simulate.gen_block_s"] = (t("simulate.gen_block")["time"], "s")
    m["simulate.gen_sine_s"] = (t("simulate.gen_sine")["time"], "s")
    totals = t("losses.total")["calls"]
    m["euler.accept_ratio"] = (ctr["euler.accepted"] / totals if totals else 0.0, "1")
    m["monotone.subsets"] = (int(ctr["monotone.subsets"]), "count")
    times = sess.times()
    serial = sum(times.get("search_serial", []))
    pool = sum(times.get("search_pool", []))
    m["monotone.exhaustive_check_s.serial"] = (serial, "s")
    m["monotone.exhaustive_check_s.pool"] = (pool, "s")
    m["monotone.pool_efficiency"] = (serial / (workers * pool) if pool else 0.0, "1")
    calls_and_time("monotone.check_condition", "monotone.check_condition")
    m["diagnostics.compare_paths_s"] = (t("diagnostics.compare_paths")["time"], "s")
    m["diagnostics.rss_profile_s"] = (t("diagnostics.rss_profile")["time"], "s")
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (sum(v["self"] for k, v in tot.items()
                                    if k.split(".", 1)[0] == layer), "s")
    m["trace.untraced_s"] = (walls[0], "s")
    m["trace.traced_s"] = (walls[1], "s")
    m["trace.overhead_s"] = (walls[1] - walls[0], "s")
    m["trace.spans"] = (len(tracer.spans) - first_span, "count")
    tracer.counters.clear()
    return m


# -- counters recorded after a successful call --------------------------------

def _refresh_bytes(counters, args, kwargs, result):
    design = args[0]
    counters["design.refresh_bytes.computed"] += design.n * design.p * 8


def _file_size(key, pos):
    def after(counters, args, kwargs, result):
        target = args[pos] if len(args) > pos else kwargs.get("target", kwargs.get("source"))
        counters[key] += os.path.getsize(target)
    return after


def _vertices_bytes(counters, args, kwargs, result):
    counters["path.vertices_bytes"] += args[0].vertices.nbytes


def _segments(counters, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    mode = config.mode if config is not None else "lasso"
    counters[f"lars.segments.{mode}"] += result.n_segments
    counters[f"lars.drops.{mode}"] += sum(e.kind == "drop" for e in result.events)


def _epsilon_steps(counters, args, kwargs, result):
    path, steps = result if isinstance(result, tuple) else (result, None)
    counters["stagewise.recorded_vertices"] += len(path.vertices)
    counters["stagewise.steps"] += len(steps) if steps is not None else round(path.end / args[1].epsilon)


def _euler_steps(counters, args, kwargs, result):
    # The benchmark integrates with record_stride=1: one vertex per accepted step.
    counters["stagewise.recorded_vertices"] += len(result.vertices)
    counters["stagewise.steps"] += result.n_segments
    counters["euler.accepted"] += result.n_segments


def _subsets(counters, args, kwargs, result):
    # A search that passed scanned every signed subset; one that found a
    # violation stopped early, although its report gives the total.
    if result.passed:
        counters["monotone.subsets"] += result.checked


_AFTER = {
    "design.predict": _refresh_bytes,
    "design.correlations": _refresh_bytes,
    "io.read_dataset_csv": _file_size("io.bytes_read", 0),
    "io.read_path_json": _file_size("io.bytes_read", 0),
    "io.read_path_csv": _file_size("io.bytes_read", 0),
    "io.read_vector_csv": _file_size("io.bytes_read", 0),
    "io.write_dataset_csv": _file_size("io.bytes_written", 1),
    "io.write_path_json": _file_size("io.bytes_written", 1),
    "io.write_path_csv": _file_size("io.bytes_written", 1),
    "io.write_path_csv_original": _file_size("io.bytes_written", 2),
    "io.write_curve_csv": _file_size("io.bytes_written", 1),
    "io.write_vector_csv": _file_size("io.bytes_written", 1),
    "path.build": _vertices_bytes,
    "lars.solve_path": _segments,
    "stagewise.monotone_incremental": _epsilon_steps,
    "stagewise.fs_epsilon": _epsilon_steps,
    "stagewise.integrate_monotone_path": _euler_steps,
    "monotone.exhaustive_check": _subsets,
}
