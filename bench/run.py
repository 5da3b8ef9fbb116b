"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are generated from ``--seed``
into a temporary directory under ``.bench_tmp/``; every CLI job runs as
``python -m quantify.cli ...`` with ``PYTHONPATH=<checkout>/src``, one after
another (a closed loop with one client).

With ``--trace 0`` the run makes one untimed warm-up pass, samples the import
time of a fresh interpreter, then repeats timed passes for about ``--seconds``
and reports the end-to-end metrics as medians over passes.  With ``--trace 1``
it runs a fixed set of in-process passes under the span tracer (``--seconds``
does not apply) and reports the per-layer metrics.  The last line of stdout is the JSON result; a line before it records
the machine and the pinned thread counts, and per-pass figures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# Pin BLAS before numpy loads: the traced run computes in this process.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_LIMIT_S = 160.0  # every job is killed past this point, so the run ends within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
SETUP_SAMPLES_PER_PASS = 3  # spread over the run, so a burst of machine noise hits few of them


def child_env(workload: workloads.Workload, workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # jobs reuse the bytecode the warm-up wrote
    env.update(workloads.pinned_threads(workload))
    env.update(PYTHONPATH=str(SRC), TMPDIR=str(workdir))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, 9)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], workdir: Path, env: dict, stdout_path: Path, deadline: float):
    """Run one process to completion; return (exit code, wall s, user+sys CPU s, peak RSS MiB).

    ``os.wait4`` reports the child's resource use including every descendant
    it reaped, such as process-pool workers.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_pass(jobs, workdir: Path, env: dict, deadline: float) -> dict:
    """One closed-loop pass over the jobs: each starts when the previous one has exited."""
    wall = cpu = rss = 0.0
    outputs = {}
    for job in jobs:
        stdout_path = workdir / f"{job.name}.stdout"
        code, job_wall, job_cpu, job_rss = run_process(
            [sys.executable, "-m", "quantify.cli", *job.argv], workdir, env, stdout_path, deadline)
        wall += job_wall
        cpu += job_cpu
        rss = max(rss, job_rss)
        files = tuple((workdir / name).read_bytes() if (workdir / name).exists() else b""
                      for name in job.outputs)
        outputs[job.name] = (code, stdout_path.read_bytes(), files)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "outputs": outputs}


def import_wall(workdir: Path, env: dict, deadline: float) -> float:
    code, wall, _, _ = run_process([sys.executable, "-c", "import quantify.cli"], workdir, env,
                                   workdir / "import.stdout", deadline)
    if code != 0:
        raise RuntimeError(f"import quantify.cli exited with {code}")
    return wall


def check_source(workdir: Path, env: dict) -> None:
    """The jobs must import the working tree, never an installed copy."""
    found = subprocess.run(
        [sys.executable, "-c", "import quantify.cli; print(quantify.cli.__file__)"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    if Path(found).resolve() != (SRC / "quantify" / "cli.py").resolve():
        raise RuntimeError(f"jobs import quantify from {found!r}, not from {SRC}")


def measure(jobs, truth: dict, workdir: Path, env: dict, seconds: float, deadline: float) -> dict:
    """Warm-up pass, import-time samples, then timed passes for about ``seconds``."""
    warm = run_pass(jobs, workdir, env, deadline)
    verdicts = {}
    for job in jobs:
        code, stdout, _ = warm["outputs"][job.name]
        verdicts[job.name] = f"{job.name}: exit code {code}" if code else oracles.check(job, stdout, workdir, truth)
    setup = [import_wall(workdir, env, deadline) for _ in range(SETUP_SAMPLES_PER_PASS)]

    passes, failures = [], []
    start = time.perf_counter()
    while True:
        result = run_pass(jobs, workdir, env, deadline)
        passes.append(result)
        for job in jobs:
            code, stdout, files = result["outputs"][job.name]
            if code != 0:
                failures.append(f"{job.name}: exit code {code}")
            elif (stdout, files) != warm["outputs"][job.name][1:]:
                failures.append(f"{job.name}: output differs from the warm-up pass with the same seed")
            elif verdicts[job.name]:
                failures.append(verdicts[job.name])
        print(json.dumps({"pass": len(passes), **{k: result[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}}),
              file=sys.stderr)
        setup += [import_wall(workdir, env, deadline) for _ in range(SETUP_SAMPLES_PER_PASS)]
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > seconds or time.monotonic() + 2 * typical > deadline:
            break

    metrics = {name: statistics.median(p[name] for p in passes) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    return {"metrics": metrics, "failures": failures, "attempted": len(jobs) * len(passes)}


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON object per span, times in seconds from the first span's start."""
    path.parent.mkdir(exist_ok=True)
    origin = spans[0][2] if spans else 0.0
    with open(path, "w") as handle:
        for name, parent, start, end, n_rows, ok in spans:
            handle.write(json.dumps({"name": name, "parent": parent, "start": start - origin,
                                     "end": end - origin, "n_rows": n_rows, "ok": ok}) + "\n")


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quantify" / "cli.py").is_file():
        print(f"error: no quantify sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    os.environ["TMPDIR"] = str(workdir)  # temporary files of the in-process run stay in the checkout
    try:
        jobs, truth = workload.make(args.seed, workdir)
        env = child_env(workload, workdir)
        check_source(workdir, env)
        print(json.dumps({"environment": {
            "workload": workload.name, "seed": args.seed, "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name(),
            "threads": workloads.pinned_threads(workload), "trace": args.trace,
        }}), flush=True)
        if args.trace:
            sys.path.insert(0, str(SRC))
            import tracer

            workers = int(env["QUANTIFY_THREADS"])
            outcome = tracer.traced_run(jobs, truth, workdir, sys.executable, env, workers)
            write_spans(outcome["spans"], ROOT / ".bench_out" / f"spans-{workload.name}.jsonl")
            units = tracer.UNITS
        else:
            outcome = measure(jobs, truth, workdir, env, args.seconds, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for failure in outcome["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
