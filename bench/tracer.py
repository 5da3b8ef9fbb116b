"""Per-layer tracing from outside the package.

The traced run calls ``quantify.cli.main(argv)`` in-process for every job.
Before it starts, each public function of each layer module is replaced, in
every module namespace that bound the name (``cli`` and ``simulate`` import
names directly; ``select_g`` and ``shift_test`` call module globals), by a
wrapper that records a span ``(name, parent, start, end, n_rows, ok)``.  The
originals are put back afterwards; the source is never changed.  Spans stay in
memory until the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Memory peaks come from a separate pass under
``tracemalloc``, so its overhead stays out of every timing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import oracles
import workloads

LAYERS = ("cli", "core", "estimators", "shift_test", "rkhs", "regression", "simulate")
PEAK_FUNCTIONS = ("core.load_csv", "core.score_dataset", "rkhs.select_g", "regression.nadaraya_watson")
STUDY_FUNCTIONS = {
    "run_power_study": "power",
    "run_mse_study": "mse",
    "run_coverage_study": "coverage",
    "run_combined_study": "combined",
    "run_multiclass_study": "multiclass",
    "run_regression_study": "regression",
}
MARK = "__bench_trace_original__"

# Per-layer metrics: (name, unit, better, what it should move).  The last field
# names the end-to-end metric and the workload the layer's figure should move.
PER_LAYER = (
    ("cli.self_s", "s", "lower", "setup_s on every workload: argument parsing, JSON and CSV output"),
    ("cli.import_s", "s", "lower", "setup_s on every workload: import of quantify.cli with numpy"),
    ("core.load_csv.busy_s", "s", "lower", "wall_s on csv-estimate; barely shift-test"),
    ("core.load_csv.rows_per_s", "rows/s", "higher", "wall_s on csv-estimate"),
    ("core.load_csv.peak_mb", "MiB", "lower", "peak_rss_mb on csv-estimate"),
    ("core.fit_logistic.busy_s", "s", "lower", "wall_s on csv-estimate and studies (one-vs-rest fits)"),
    ("core.score_dataset.busy_s", "s", "lower", "wall_s on kernel-curve"),
    ("core.score_dataset.peak_mb", "MiB", "lower", "peak_rss_mb on kernel-curve"),
    ("estimators.busy_s", "s", "lower", "wall_s on studies"),
    ("estimators.calls", "count", "lower", "wall_s on studies"),
    ("shift_test.t_statistic.busy_s", "s", "lower", "wall_s and cpu_s on shift-test and studies"),
    ("shift_test.t_statistic.calls", "count", "lower", "fixed: 1 + B per test"),
    ("shift_test.t_statistic.mean_ms", "ms", "lower", "wall_s and cpu_s on shift-test and studies"),
    ("shift_test.kde_fit.busy_s", "s", "lower", "wall_s on shift-test and studies"),
    ("shift_test.self_s", "s", "lower", "wall_s on shift-test and studies: sampling, dataset construction"),
    ("shift_test.replicate_ms", "ms", "lower", "wall_s and cpu_s on shift-test and studies"),
    ("rkhs.select_g.busy_s", "s", "lower", "wall_s on kernel-curve"),
    ("rkhs.median_bandwidth.busy_s", "s", "lower", "wall_s and peak_rss_mb on kernel-curve"),
    ("rkhs.build_matrices.busy_s", "s", "lower", "wall_s on kernel-curve"),
    ("rkhs.candidate_gammas.busy_s", "s", "lower", "wall_s on kernel-curve"),
    ("rkhs.solve_weights.busy_s", "s", "lower", "wall_s on kernel-curve"),
    ("rkhs.solve_weights.calls", "count", "lower", "wall_s on kernel-curve"),
    ("rkhs.solve_weights.ok_ratio", "ratio", "higher", "wall_s on kernel-curve: solves that returned"),
    ("rkhs.select_g.peak_mb", "MiB", "lower", "peak_rss_mb on kernel-curve"),
    ("regression.cv_bandwidth.busy_s", "s", "lower", "wall_s on kernel-curve"),
    ("regression.nadaraya_watson.busy_s", "s", "lower", "wall_s on kernel-curve and studies"),
    ("regression.nadaraya_watson.peak_mb", "MiB", "lower", "peak_rss_mb on kernel-curve"),
    ("regression.ratio_regress.busy_s", "s", "lower", "wall_s on kernel-curve and studies"),
    ("simulate.generate.busy_s", "s", "lower", "wall_s and cpu_s on studies"),
    ("simulate.generate.calls", "count", "lower", "wall_s on studies"),
    *((f"simulate.{study}.busy_s", "s", "lower", "wall_s and cpu_s on studies")
      for study in STUDY_FUNCTIONS.values()),
    ("simulate.parallel_efficiency", "ratio", "higher", "wall_s on studies: serial busy / (workers x wall)"),
    *((f"layer.{layer}.self_s", "s", "lower", "self time of the layer; with cli.self_s sums to the traced wall")
      for layer in ("core", "estimators", "shift_test", "rkhs", "regression", "simulate")),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced in-process wall"),
    ("trace.traced_wall_s", "s", "lower", "none: in-process wall with tracing on"),
    ("trace.untraced_wall_s", "s", "lower", "none: in-process wall with tracing off"),
)
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def layer_modules() -> dict[str, object]:
    """The layer modules, fetched through the import system: the package attribute
    ``quantify.shift_test`` is the function, which hides the submodule."""
    return {layer: importlib.import_module(f"quantify.{layer}") for layer in LAYERS}


def namespaces() -> list[object]:
    return [importlib.import_module("quantify"), *layer_modules().values()]


def public_functions() -> dict[str, object]:
    """Span name ('layer.function') -> function, for every public function a layer defines."""
    found = {}
    for layer, module in layer_modules().items():
        for attr, value in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                found[f"{layer}.{attr}"] = value
    return found


def wrapped_attributes() -> list[tuple[object, str]]:
    """Every (namespace, attribute) that currently holds a tracing wrapper."""
    return [
        (ns, attr)
        for ns in namespaces()
        for attr, value in vars(ns).items()
        if callable(value) and hasattr(value, MARK)
    ]


@contextlib.contextmanager
def patched(functions: dict[str, object], make_wrapper):
    """Bind ``make_wrapper(name, function)`` in place of each function, in every
    namespace that holds it, and restore the originals on exit."""
    wrappers = {id(f): make_wrapper(name, f) for name, f in functions.items()}
    saved = []
    try:
        for ns in namespaces():
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])
        yield
    finally:
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)


class SpanRecorder:
    """Collects spans as lists ``[name, parent, start, end, n_rows, ok]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[5] = True
            span[4] = getattr(result, "n_rows", None) or (getattr(args[0], "n_rows", None) if args else None)
            return result

        setattr(traced, MARK, func)
        return traced


class PeakRecorder:
    """Peak bytes allocated during each outermost call of the peak functions.

    tracemalloc runs only inside those calls, so the rest of the pass runs at
    full speed; the peak counts blocks allocated during the call.
    """

    def __init__(self) -> None:
        self.peaks: dict[str, int] = defaultdict(int)
        self._depth = 0

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def measured(*args, **kwargs):
            if self._depth:
                return func(*args, **kwargs)
            self._depth += 1
            tracemalloc.start()
            try:
                return func(*args, **kwargs)
            finally:
                self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                self._depth -= 1

        setattr(measured, MARK, func)
        return measured


def run_in_process(jobs, workdir: Path, threads: int) -> tuple[float, dict[str, tuple]]:
    """Run every job through ``cli.main`` in this process; return the wall time and
    each job's (exit code, stdout, output files)."""
    cli = importlib.import_module("quantify.cli")
    results = {}
    previous_dir, previous_threads = os.getcwd(), os.environ.get("QUANTIFY_THREADS")
    os.chdir(workdir)
    os.environ["QUANTIFY_THREADS"] = str(threads)
    try:
        start = time.perf_counter()
        for job in jobs:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(job.argv))
            results[job.name] = (code, buffer.getvalue().encode(), read_outputs(job, workdir))
        wall = time.perf_counter() - start
    finally:
        os.chdir(previous_dir)
        if previous_threads is None:
            os.environ.pop("QUANTIFY_THREADS", None)
        else:
            os.environ["QUANTIFY_THREADS"] = previous_threads
    return wall, results


def read_outputs(job, workdir: Path) -> tuple[bytes, ...]:
    return tuple((workdir / name).read_bytes() if (workdir / name).exists() else b"" for name in job.outputs)


def import_seconds(python: str, env: dict, workdir: Path, samples: int = 3) -> float:
    """Median cumulative ``-X importtime`` of ``quantify.cli`` (numpy included)."""
    values = []
    for _ in range(samples):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import quantify.cli"],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].rstrip() == " quantify.cli":
                values.append(int(fields[1]) / 1e6)
    return statistics.median(values)


def aggregate(spans: list[list]) -> dict:
    """Self and busy times per span name and per layer, from one traced pass."""
    duration = [end - start for _, _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            covered[span[1]] += duration[i]
    names = [span[0] for span in spans]

    def outermost(i: int, same) -> bool:
        parent = spans[i][1]
        while parent >= 0:
            if same(names[parent]):
                return False
            parent = spans[parent][1]
        return True

    busy, calls, ok, self_by_name = defaultdict(float), defaultdict(int), defaultdict(int), defaultdict(float)
    layer_self, layer_busy, layer_calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, name in enumerate(names):
        layer = name.split(".")[0]
        calls[name] += 1
        ok[name] += spans[i][5]
        self_by_name[name] += duration[i] - covered[i]
        layer_self[layer] += duration[i] - covered[i]
        layer_calls[layer] += 1
        if outermost(i, lambda other: other == name):
            busy[name] += duration[i]
        if outermost(i, lambda other: other.split(".")[0] == layer):
            layer_busy[layer] += duration[i]
    return {
        "busy": busy, "calls": calls, "ok": ok, "self": self_by_name,
        "layer_self": layer_self, "layer_busy": layer_busy, "layer_calls": layer_calls,
        "duration": duration,
    }


def replicate_seconds(spans: list[list], duration: list[float]) -> tuple[float, int]:
    """Time in shift-test bootstrap replicates: each shift_test span minus its observed
    statistic (the first t_statistic child) and its two KDE fits."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(i)
    total, count = 0.0, 0
    for i, span in enumerate(spans):
        if span[0] != "shift_test.shift_test":
            continue
        stats = [c for c in children[i] if spans[c][0] == "shift_test.t_statistic"]
        kdes = [c for c in children[i] if spans[c][0] == "shift_test.kde_fit"]
        if stats:
            total += duration[i] - duration[stats[0]] - sum(duration[c] for c in kdes)
            count += len(stats) - 1
    return total, count


def per_layer_metrics(agg: dict, spans: list[list], peaks: dict[str, int], extra: dict) -> dict:
    """Every per-layer metric by name; a layer the workload does not reach reads 0."""
    busy, calls, ok = agg["busy"], agg["calls"], agg["ok"]
    rows = sum(s[4] or 0 for s in spans if s[0] == "core.load_csv")
    t_calls = calls["shift_test.t_statistic"]
    replicate_total, replicate_count = replicate_seconds(spans, agg["duration"])
    solve_calls = calls["rkhs.solve_weights"]
    mib = 1024.0 * 1024.0
    values = {
        "cli.self_s": agg["layer_self"]["cli"],
        "cli.import_s": extra["import_s"],
        "core.load_csv.busy_s": busy["core.load_csv"],
        "core.load_csv.rows_per_s": rows / busy["core.load_csv"] if busy["core.load_csv"] else 0.0,
        "core.load_csv.peak_mb": peaks.get("core.load_csv", 0) / mib,
        "core.fit_logistic.busy_s": busy["core.fit_logistic"],
        "core.score_dataset.busy_s": busy["core.score_dataset"],
        "core.score_dataset.peak_mb": peaks.get("core.score_dataset", 0) / mib,
        "estimators.busy_s": agg["layer_busy"]["estimators"],
        "estimators.calls": agg["layer_calls"]["estimators"],
        "shift_test.t_statistic.busy_s": busy["shift_test.t_statistic"],
        "shift_test.t_statistic.calls": t_calls,
        "shift_test.t_statistic.mean_ms": 1e3 * busy["shift_test.t_statistic"] / t_calls if t_calls else 0.0,
        "shift_test.kde_fit.busy_s": busy["shift_test.kde_fit"],
        "shift_test.self_s": agg["self"]["shift_test.shift_test"],
        "shift_test.replicate_ms": 1e3 * replicate_total / replicate_count if replicate_count else 0.0,
        "rkhs.select_g.busy_s": busy["rkhs.select_g"],
        "rkhs.median_bandwidth.busy_s": busy["rkhs.median_bandwidth"],
        "rkhs.build_matrices.busy_s": busy["rkhs.build_matrices"],
        "rkhs.candidate_gammas.busy_s": busy["rkhs.candidate_gammas"],
        "rkhs.solve_weights.busy_s": busy["rkhs.solve_weights"],
        "rkhs.solve_weights.calls": solve_calls,
        "rkhs.solve_weights.ok_ratio": ok["rkhs.solve_weights"] / solve_calls if solve_calls else 0.0,
        "rkhs.select_g.peak_mb": peaks.get("rkhs.select_g", 0) / mib,
        "regression.cv_bandwidth.busy_s": busy["regression.cv_bandwidth"],
        "regression.nadaraya_watson.busy_s": busy["regression.nadaraya_watson"],
        "regression.nadaraya_watson.peak_mb": peaks.get("regression.nadaraya_watson", 0) / mib,
        "regression.ratio_regress.busy_s": busy["regression.ratio_regress"],
        "simulate.generate.busy_s": busy["simulate.generate"],
        "simulate.generate.calls": calls["simulate.generate"],
        **{f"simulate.{study}.busy_s": busy[f"simulate.{func}"] for func, study in STUDY_FUNCTIONS.items()},
        "simulate.parallel_efficiency": extra["parallel_efficiency"],
        **{f"layer.{layer}.self_s": agg["layer_self"][layer] for layer in LAYERS if layer != "cli"},
        "trace.overhead_ratio": extra["traced_wall_s"] / extra["untraced_wall_s"],
        "trace.traced_wall_s": extra["traced_wall_s"],
        "trace.untraced_wall_s": extra["untraced_wall_s"],
    }
    return values


def check_outputs(jobs, passes: list[dict], workdir: Path, truth: dict) -> list[str]:
    """One message per failed job run: a nonzero exit, output that differs from the
    first pass, or output the job's oracle rejects."""
    failures = []
    for job in jobs:
        reference = passes[0][job.name]
        verdict = oracles.check(job, reference[1], workdir, truth) if reference[0] == 0 else None
        for number, result in enumerate(passes):
            code, stdout, files = result[job.name]
            if code != 0:
                failures.append(f"{job.name} (in-process pass {number}): exit code {code}")
            elif (stdout, files) != reference[1:]:
                failures.append(f"{job.name} (in-process pass {number}): output differs from pass 0")
            elif verdict:
                failures.append(verdict)
    return failures


def expected_statistics(jobs) -> int:
    """t_statistic calls the jobs must make: one observed statistic plus one per
    bootstrap replicate, for every shift test."""
    total = 0
    for job in jobs:
        if job.argv[0] == "test-shift":
            total += 1 + int(oracles.arg(job.argv, "--B", "1000"))
        elif "power" in job.argv:
            tests = workloads.POWER_GAMMAS * int(oracles.arg(job.argv, "--replicates"))
            total += tests * (1 + int(oracles.arg(job.argv, "--test-replicates")))
    return total


def traced_run(jobs, truth: dict, workdir: Path, python: str, env: dict, workers: int) -> dict:
    """Peak-memory, untraced and traced passes, all single-worker; then, when the
    workload has a process pool, the pooled job untraced at full width.

    Every job run counts as an attempt, as do two run-level checks: the wrappers
    are gone afterwards, and t_statistic ran exactly once per statistic.
    """
    if wrapped_attributes():
        raise RuntimeError("tracing wrappers are installed before the untraced pass")
    functions = public_functions()
    peak = PeakRecorder()
    # the peak pass goes first: its timing is unused, so it also warms the page cache
    with patched({name: functions[name] for name in PEAK_FUNCTIONS}, peak.wrap):
        _, peaked = run_in_process(jobs, workdir, threads=1)
    untraced_wall, untraced = run_in_process(jobs, workdir, threads=1)
    recorder = SpanRecorder()
    with patched(functions, recorder.wrap):
        traced_wall, traced = run_in_process(jobs, workdir, threads=1)
    leftover = wrapped_attributes()
    agg = aggregate(recorder.spans)

    failures = check_outputs(jobs, [peaked, untraced, traced], workdir, truth)
    attempted = 3 * len(jobs) + 2
    if leftover:
        failures.append("still wrapped after the traced pass: "
                        + ", ".join(f"{ns.__name__}.{attr}" for ns, attr in leftover))
    expected = expected_statistics(jobs)
    if agg["calls"]["shift_test.t_statistic"] != expected:
        failures.append(f"t_statistic ran {agg['calls']['shift_test.t_statistic']} times, expected {expected}")

    efficiency = 0.0
    pooled = [job for job in jobs if "power" in job.argv]
    if pooled and workers > 1:
        parallel_wall, parallel = run_in_process(pooled, workdir, threads=workers)
        attempted += len(pooled)
        failures += [f"{job.name}: output changes with {workers} workers"
                     for job in pooled if parallel[job.name] != untraced[job.name]]
        efficiency = agg["busy"]["simulate.run_power_study"] / (workers * parallel_wall)

    extra = {
        "import_s": import_seconds(python, env, workdir),
        "parallel_efficiency": efficiency,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
    }
    metrics = per_layer_metrics(agg, recorder.spans, peak.peaks, extra)
    return {"metrics": metrics, "failures": failures, "attempted": attempted,
            "spans": recorder.spans, "outputs": untraced}
