"""Tests of the benchmark itself: span arithmetic, the values check, the
metric declarations, and one short round of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, instance_seed, seed_key  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def expected_for(workload):
    seed = instance_seed(DEFAULT_SEED) if workload.seeded else None
    return seed, json.loads(run.EXPECTED.read_text())[workload.name][seed_key(seed)]


def test_self_times_on_hand_built_span_tree():
    # root [0, 100] with two children on different threads that overlap,
    # [10, 40] and [30, 60]; the first has a child [15, 20] and 5 ns of leaf
    # calls directly under it.
    spans = [Span(1, "root", 0, 100, None, 0), Span(2, "a", 10, 40, 1, 0),
             Span(3, "b", 30, 60, 1, 1), Span(4, "c", 15, 20, 2, 0)]
    assert self_times(spans, {2: 5}) == {1: 50, 2: 20, 3: 30, 4: 5}


def test_leaf_calls_are_summed_per_parent_span():
    tracer = Tracer()
    inner = tracer.leaf("inner", lambda: None)
    outer = tracer.leaf("outer", lambda: inner())
    work = tracer.span("work", lambda: [outer() for _ in range(3)])
    with tracer.root("root"):
        work()
    leaves = tracer.leaf_totals()
    (work_span,) = [s for s in tracer.spans if s.name == "work"]
    calls, total, self_ns, top = leaves[(work_span.id, "outer")]
    assert calls == 3 and top == total and self_ns <= total
    calls, total, self_ns, top = leaves[(work_span.id, "inner")]
    assert calls == 3 and top == 0  # nested in "outer", covered through it

    bad = tracer.leaf("leaf", tracer.span("span", lambda: None))
    with pytest.raises(RuntimeError):
        bad()


def test_scaled_time_of_the_yardstick_is_the_reference_time():
    # Timing the yardstick itself: whatever the host's speed, n chunks read
    # n reference chunks, and the chunks the timer runs are taken out.
    chunks = 200
    raw, scaled = run.timed(lambda: [run.yardstick() for _ in range(chunks)])
    assert raw > 0
    assert scaled == pytest.approx(chunks * run.YARDSTICK_REF_S, rel=0.25)


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_corrupted_expected_value_fails_the_round(cli, tmp_path):
    workload = WORKLOADS["rate_suite"]
    seed, expected = expected_for(workload)
    argv = workload.write_files(tmp_path, seed, run.ROOT)
    _, failures = run.untraced(cli, workload, argv, tmp_path, expected, seconds=0)
    assert failures == [[]]
    key = sorted(expected)[0]
    corrupted = dict(expected, **{key: expected[key] * (1 + 1e-4)})
    _, failures = run.untraced(cli, workload, argv, tmp_path, corrupted, seconds=0)
    assert len(failures) == 1 and key in failures[0][0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_of_each_workload_passes_its_checks(cli, tmp_path, name):
    workload = WORKLOADS[name]
    seed, expected = expected_for(workload)
    argv = workload.write_files(tmp_path, seed, run.ROOT)
    outcome, wall = run.run_command(cli, argv, tmp_path / "out", run.Capture())
    assert outcome.rc == 0 and wall > 0
    assert run.check(workload, outcome, expected) == []


def test_traced_counts_repeat_and_cover_the_command(cli, tmp_path):
    workload = WORKLOADS["rate_suite"]
    seed, expected = expected_for(workload)
    argv = workload.write_files(tmp_path, seed, run.ROOT)
    env = run.environment()
    first, failures = run.traced(cli, workload, argv, tmp_path, expected, env)
    assert failures == [[], []]
    assert list(first) == [name for name, _, _ in layers.PER_LAYER]
    assert first["trace.coverage"][0] >= 0.95
    second, _ = run.traced(cli, workload, argv, tmp_path, expected, env)
    counts = [n for n, unit, _ in layers.PER_LAYER if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["solvers.r_vfista.iters"][0] == 100 + 316 + 1000 + 3162 + 10000
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]
