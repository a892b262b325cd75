"""sbo benchmark: time one workload's `sbo` command and check its output.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; `sbo` is imported from its `src/`. The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are for people.

--trace 0 repeats rounds for about --seconds seconds. A round runs the
workload's command in-process through `sbo.cli.main` (wall_s), then
replays the same solver runs on the same built problems with their
reference truth removed (solve_s). After the rounds, more replays top the
solve samples up, and the benchmark builds every instance the command
built, one after another, several times (setup_s). Every timed sample is
read against a fixed yardstick run during it and scaled to the speed of a
reference host (see `timed`); the reported values are medians of the
scaled samples. --trace 1 runs the command
once untraced and once with a span on every layer boundary, prints the
per-layer metrics and writes the spans to
.perfbench_work/<workload>/trace.json.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np

import layers
from tracer import Patches, Tracer
from workloads import (DEFAULT_SEED, WORKLOADS, Outcome, compare_finals,
                       instance_seed, seed_key)

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# (name, unit) of every metric an untraced run prints.
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"))
# solve_s and setup_s are medians of at least MIN_SAMPLES samples that
# together take at least MIN_SAMPLE_S seconds, so that a short solve or
# set-up is still timed over a stretch of the run.
MIN_SAMPLES = 3
MIN_SAMPLE_S = 4.0

# On a shared VM the speed of one thread drifts by tens of percent within
# seconds and over minutes, and a fixed piece of small-vector numpy work
# slows down with the command. So while a sample is timed, a timer signal
# runs one chunk of that yardstick every YARDSTICK_PERIOD_S seconds; the
# chunks' own time is taken out of the sample, and the sample is reported
# as the seconds it would take on a host where a chunk takes
# YARDSTICK_REF_S: the 2-vCPU Xeon (2.1 GHz, Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31) the bounds were set on. The yardstick calls no BLAS
# routine and nothing of sbo, so a change to the program moves a scaled
# time as it moves the raw one.
YARDSTICK_REPS = 550
YARDSTICK_PERIOD_S = 0.05
YARDSTICK_REF_S = 0.0042


def import_cli():
    """sbo.cli from the checkout's src/, or SystemExit when it is missing."""
    src = ROOT / "src"
    if not (src / "sbo" / "__init__.py").is_file():
        raise SystemExit(f"error: no sbo package under {src}")
    sys.path.insert(0, str(src))
    import sbo.cli
    return sbo.cli


def spec_key(spec) -> tuple:
    return (spec.name, spec.n, spec.seed, tuple(sorted(spec.params.items())))


class Capture:
    """Thin wrappers around one command: the spec and result of every
    instance build, and the config and report of every run it makes."""

    def __init__(self):
        self.specs: list = []
        self.problems: dict = {}
        self.runs: list = []

    def install(self, cli, patches: Patches) -> None:
        build, run = cli.build_instance, cli.run_from_config

        def recorded_build(spec):
            problem = build(spec)
            self.specs.append(spec)
            self.problems.setdefault(spec_key(spec), problem)
            return problem

        def recorded_run(cfg):
            report = run(cfg)
            self.runs.append((dict(cfg), report))
            return report

        patches.set(cli, "build_instance", recorded_build)
        patches.set(cli, "run_from_config", recorded_run)


def run_command(cli, argv, out_dir: Path, capture: Capture, tracer=None):
    """One in-process `sbo` command: (Outcome, wall seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    patches = Patches()
    capture.install(cli, patches)
    if tracer is not None:
        layers.install(tracer, patches)
    buf = io.StringIO()
    try:
        with tracer.root("cli.main") if tracer else nullcontext():
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                try:
                    rc = cli.main(argv)
                except Exception:  # a crash is a failed operation, not the end of the run
                    traceback.print_exc()
                    rc = -1
            wall = time.perf_counter() - t0
    finally:
        patches.undo()
    return Outcome(rc, buf.getvalue(), out_dir, capture.runs), wall


def replay_solves(cli, capture: Capture) -> None:
    """Replay the command's solver runs on the problems it built, with
    reference truth removed, so that no metric work is done."""
    stripped = {}
    for key, problem in capture.problems.items():
        stripped[key] = copy.copy(problem)
        stripped[key].reference = None
    patches = Patches()
    patches.set(cli, "build_instance", lambda spec: stripped[spec_key(spec)])
    try:
        for cfg, _ in capture.runs:
            cli.run_from_config(cfg)
    finally:
        patches.undo()


def yardstick() -> float:
    """Seconds for one chunk of a fixed prox-gradient-like loop on
    50-vectors: elementwise ufuncs and interpreter work only."""
    x = np.linspace(-1.0, 1.0, 50)
    g = np.cos(x)
    t0 = time.perf_counter()
    for _ in range(YARDSTICK_REPS):
        y = x - 0.01 * g
        x = np.sign(y) * np.maximum(np.abs(y) - 1e-3, 0.0)
        float(np.abs(x).sum())
    return time.perf_counter() - t0


def timed(fn) -> tuple:
    """(raw, scaled) seconds of one call of fn(), without the yardstick
    chunks run during it; scaled is raw on the reference host, by the mean
    chunk time over the call and one chunk either side of it."""
    readings, spent, busy = [yardstick()], [0.0], [False]

    def tick(signum, frame):
        if busy[0]:
            return
        busy[0] = True
        t0 = time.perf_counter()
        readings.append(yardstick())
        spent[0] += time.perf_counter() - t0
        busy[0] = False

    old = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, YARDSTICK_PERIOD_S, YARDSTICK_PERIOD_S)
    try:
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    readings.append(yardstick())
    raw -= spent[0]
    return raw, raw * YARDSTICK_REF_S / statistics.fmean(readings)


def top_up(samples: list, fn) -> list:
    """samples of (raw, scaled) seconds, extended by timed calls of fn()
    until there are MIN_SAMPLES of them and their raw times add up to
    MIN_SAMPLE_S seconds."""
    while len(samples) < MIN_SAMPLES or sum(raw for raw, _ in samples) < MIN_SAMPLE_S:
        samples.append(timed(fn))
    return samples


def build_all(cli, specs) -> None:
    for spec in specs:
        cli.build_instance(spec)


def check(workload, outcome: Outcome, expected) -> list:
    try:
        problems = workload.check(outcome)
        if not problems:
            problems = compare_finals(workload.finals(outcome), expected)
    except (OSError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_sha(root: Path):
    """HEAD of the checkout, read from .git without starting git; None when
    the checkout is not a git repository."""
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
    return None


def blas_threads():
    """OpenBLAS's current thread count, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    return int(fn())
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = None
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SBO_THREADS": os.environ.get("SBO_THREADS"),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


def untraced(cli, workload, argv, work, expected, seconds):
    deadline = time.perf_counter() + seconds
    walls, solves, round_s, failures = [], [], [], []
    while True:
        t0 = time.perf_counter()
        capture, ran = Capture(), []
        walls.append(timed(lambda: ran.append(
            run_command(cli, argv, work / "out", capture)[0])))
        solves.append(timed(lambda: replay_solves(cli, capture)))
        failures.append(check(workload, ran[0], expected))
        round_s.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(round_s) > deadline:
            break
    # a command that crashed before building or solving leaves nothing to time
    if capture.runs:
        top_up(solves, lambda: replay_solves(cli, capture))
    setups = (top_up([], lambda: build_all(cli, capture.specs)) if capture.specs
              else [(0.0, 0.0)])
    samples = {"setup_s": setups, "solve_s": solves, "wall_s": walls}
    values = {name: statistics.median(s for _, s in pairs) for name, pairs in samples.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"rounds {len(walls)}")
    for name, pairs in samples.items():
        print(f"{name}: raw {_fmt(r for r, _ in pairs)}, scaled {_fmt(s for _, s in pairs)}")
    return {name: (values[name], unit) for name, unit in END_TO_END}, failures


def traced(cli, workload, argv, work, expected, env):
    outcome, wall = run_command(cli, argv, work / "out", Capture())
    failures = [check(workload, outcome, expected)]
    tracer = Tracer()
    outcome, _ = run_command(cli, argv, work / "out", Capture(), tracer=tracer)
    failures.append(check(workload, outcome, expected))
    values = layers.layer_metrics(tracer, wall)
    trace_file = work / "trace.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name, "env": env, "untraced_wall_s": wall,
        "metrics": values,
        "spans": [asdict(s) for s in tracer.spans],
        "leaves": [{"parent": parent, "name": name, "calls": a[0], "total_ns": a[1],
                    "self_ns": a[2]}
                   for (parent, name), a in tracer.leaf_totals().items()],
    }, indent=1), encoding="utf-8")
    print(f"spans written to {trace_file}")
    return {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    seed = instance_seed(args.seed) if workload.seeded else None
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = workload.write_files(work, seed, ROOT)
    expected = json.loads(EXPECTED.read_text())[workload.name].get(seed_key(seed))

    env = environment()
    print(f"workload {workload.name}, seed {args.seed}, instance seed {seed}")
    print("env " + json.dumps(env))
    if args.trace:
        metrics, failures = traced(cli, workload, cmd, work, expected, env)
    else:
        metrics, failures = untraced(cli, workload, cmd, work, expected, args.seconds)
    failed = sum(1 for f in failures if f)
    for i, problems in enumerate(failures):
        for problem in problems:
            print(f"round {i} FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(f"fail_ratio = {failed / len(failures):.6g} ({failed}/{len(failures)})")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(failures), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
