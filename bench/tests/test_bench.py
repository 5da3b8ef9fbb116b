"""Tests of the benchmark itself: oracles, tracer, metric names and the runner.

Run with ``python -m pytest bench/tests`` from the repository root.  They are
kept out of the package's test suite because they run every workload once.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def snapshot() -> dict:
    return {(ns.__name__, attr): value for ns in tracer.namespaces() for attr, value in vars(ns).items()
            if callable(value)}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run per workload, shared by the tests that read it."""
    cache = {}

    def get(name: str):
        if name not in cache:
            workload = workloads.WORKLOADS[name]
            workdir = tmp_path_factory.mktemp(name)
            jobs, truth = workload.make(SEED, workdir)
            env = run.child_env(workload, workdir)
            before = snapshot()
            outcome = tracer.traced_run(jobs, truth, workdir, sys.executable, env,
                                        workers=int(env["QUANTIFY_THREADS"]))
            cache[name] = {"jobs": jobs, "truth": truth, "workdir": workdir, "outcome": outcome,
                           "before": before, "after": snapshot()}
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_passes_every_check_and_restores_the_package(traced, name):
    result = traced(name)
    assert result["outcome"]["failures"] == []
    assert tracer.wrapped_attributes() == []
    assert result["after"].keys() == result["before"].keys()
    assert all(result["after"][key] is value for key, value in result["before"].items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_sum_to_the_traced_wall(traced, name):
    metrics = traced(name)["outcome"]["metrics"]
    total = metrics["cli.self_s"] + sum(v for k, v in metrics.items() if k.startswith("layer."))
    overhead = abs(metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"])
    # the traced wall also covers the harness between jobs (stdout capture, reading
    # output files), a few ms in all
    assert abs(metrics["trace.traced_wall_s"] - total) <= overhead + 0.02


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_per_layer_metric_is_reported(traced, name):
    metrics = traced(name)["outcome"]["metrics"]
    assert list(metrics) == [entry[0] for entry in tracer.PER_LAYER]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in metrics.values())


def test_shift_statistics_are_counted_once_per_replicate(traced):
    metrics = traced("shift-test")["outcome"]["metrics"]
    assert metrics["shift_test.t_statistic.calls"] == (1 + 300) + (1 + 15)
    assert metrics["shift_test.replicate_ms"] > 0


def test_layers_reach_the_shift_test_module_despite_the_name_clash():
    import quantify

    assert inspect.isfunction(quantify.shift_test)
    assert tracer.layer_modules()["shift_test"].__name__ == "quantify.shift_test"
    assert "shift_test.t_statistic" in tracer.public_functions()


def test_patched_restores_the_originals_after_an_error():
    before = snapshot()
    recorder = tracer.SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracer.patched(tracer.public_functions(), recorder.wrap):
            import quantify

            assert hasattr(quantify.shift_test, tracer.MARK)
            assert hasattr(vars(tracer.layer_modules()["shift_test"])["t_statistic"], tracer.MARK)
            raise RuntimeError("stop")
    after = snapshot()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.wrapped_attributes() == []


def _edit(path: tuple, change):
    def mutate(stdout: bytes, workdir: Path) -> bytes:
        payload = json.loads(stdout)
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = change(target[path[-1]])
        return json.dumps(payload).encode()

    return mutate


def _edit_file(name: str, change, stdout_change=None):
    def mutate(stdout: bytes, workdir: Path) -> bytes:
        path = workdir / name
        path.write_bytes(change(path.read_bytes()))
        return stdout if stdout_change is None else stdout_change(stdout, workdir)

    return mutate


def _json_gamma(text: bytes) -> bytes:
    payload = json.loads(text)
    payload["gamma"] = 0.5
    return json.dumps(payload).encode()


def _drop_last_row(text: bytes) -> bytes:
    return b"".join(text.splitlines(keepends=True)[:-1])


def _nudge_p_value(text: bytes) -> bytes:
    rows = list(csv.reader(io.StringIO(text.decode())))
    column = rows[0].index("p_value")
    rows[1][column] = repr(float(rows[1][column]) + 0.001)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


CORRUPTIONS = [
    ("csv-estimate", "estimate-g-ci", _edit(("theta_raw",), lambda v: v * (1 + 1e-6))),
    ("csv-estimate", "estimate-logistic", _edit(("theta",), lambda v: v + 0.1)),
    ("csv-estimate", "estimate-g-em", _edit(("theta",), lambda v: v - 0.1)),
    ("shift-test", "test-shift-candles", _edit(("statistic",), lambda v: v + 1e-9)),
    ("shift-test", "test-shift-candles", _edit(("p_star",), lambda v: round(v + 0.001, 3))),
    ("shift-test", "test-shift-candles", _edit(("p_value",), lambda v: v + 1 / 600)),
    ("shift-test", "test-shift-bank", _edit(("bandwidth0",), lambda v: v * (1 + 1e-9))),
    ("kernel-curve", "select-g", _edit_file("sel.json", _json_gamma, _edit(("gamma",), lambda v: 0.5))),
    ("kernel-curve", "estimate-weights", _edit(("theta_raw",), lambda v: v * (1 + 1e-5))),
    ("kernel-curve", "regress-cv", _edit(("curve", 50, "theta"), lambda v: v + 1e-4)),
    ("kernel-curve", "regress-cv", _edit(("bandwidth",), lambda v: v * 1.1)),
    *[("studies", f"simulate-{name}", _edit(("rows",), lambda v: v + 1)) for name, _, _ in workloads.STUDIES],
    *[("studies", f"simulate-{name}", _edit_file(f"{name}.csv", _drop_last_row)) for name, _, _ in workloads.STUDIES],
    ("studies", "simulate-power", _edit_file("power.csv", _nudge_p_value)),
]


@pytest.mark.parametrize("workload, job_name, mutate", CORRUPTIONS,
                         ids=[f"{w}:{j}:{i}" for i, (w, j, _) in enumerate(CORRUPTIONS)])
def test_every_oracle_rejects_a_corrupted_output(traced, workload, job_name, mutate):
    result = traced(workload)
    job = next(j for j in result["jobs"] if j.name == job_name)
    workdir = result["workdir"]
    _, stdout, files = result["outcome"]["outputs"][job.name]
    assert oracles.check(job, stdout, workdir, result["truth"]) is None
    try:
        assert oracles.check(job, mutate(stdout, workdir), workdir, result["truth"]) is not None
    finally:
        for name, content in zip(job.outputs, files):
            (workdir / name).write_bytes(content)


def test_every_oracle_has_a_corruption():
    assert {job for _, job, _ in CORRUPTIONS} == set(oracles.CHECKS)


def test_same_seed_gives_the_same_inputs(tmp_path):
    for name in ("shift-test", "kernel-curve"):
        make = workloads.WORKLOADS[name].make
        dirs = [tmp_path / f"{name}-{i}" for i in range(3)]
        for d, seed in zip(dirs, (1, 1, 2)):
            d.mkdir()
            make(seed, d)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files and all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files)
        assert any((dirs[0] / f).read_bytes() != (dirs[2] / f).read_bytes() for f in files)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
               for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [entry[:3] for entry in tracer.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()) and bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_runner_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "studies", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_the_result_line(trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernel-curve", "--seed", "3",
                           "--seconds", "1", "--trace", trace], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else tracer.UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
