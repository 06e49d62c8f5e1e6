"""Tests of the benchmark itself. They sit outside the project's `testpaths`;
run them from the root of a checkout with

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from thermoclass import cli, lindblad  # noqa: E402


@pytest.mark.parametrize("temps, rates", [
    ((3.0, 1.0), (0.1, 0.1)),
    ((3.0, 1.0), (0.1, 0.05)),
    ((0.5, 5.0), (0.02, 0.07)),
    ((2.0, 2.0), (0.01, 0.1)),
    ((0.0, 2.0), (0.05, 0.05)),
    ((1.0, 4.0, 2.5), (0.03, 0.01, 0.05)),
    ((4.2,), (0.1,)),
])
def test_oracle_agrees_with_closed_form(temps, rates):
    expected = lindblad.steady_temperature(lindblad.make_config(temps, rates))
    assert oracle.steady_temperature([temps], [rates])[0] == pytest.approx(expected, rel=1e-12, abs=0)


def test_oracle_drops_zero_rate_reservoirs():
    assert oracle.steady_temperature([[3.0, 1.0]], [[0.08, 0.0]])[0] == 3.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(workload):
    first, again = workloads.build(workload, 7), workloads.build(workload, 7)
    assert [(s.name, s.config, s.flags) for s in first] == [(s.name, s.config, s.flags) for s in again]
    other = workloads.build(workload, 8)
    if workload == "verify":
        assert first == other  # verify fixes its own seeds
    else:
        assert [s.config for s in first] != [s.config for s in other]


def test_configs_parse_to_the_oracle_parameters():
    for workload in workloads.WORKLOADS:
        for step in workloads.build(workload, 3):
            if step.config is None:
                continue
            settings = cli.parse_config(step.config, experiment=step.command).settings
            if "--seed" in step.flags:
                settings["seed"] = int(step.flags[step.flags.index("--seed") + 1])
            for key, value in settings.items():
                if key in step.params:
                    assert value == step.params[key], (step.name, key)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on [3, 4];
    # a has a child [2, 3]; a recursive root call sits inside b
    raw = [
        (0, 0.0, 10.0, -1, 1),
        (1, 1.0, 4.0, 0, 1),
        (2, 3.0, 6.0, 0, 1),
        (3, 2.0, 3.0, 1, 1),
        (0, 4.0, 5.0, 2, 1),
    ]
    assert spans.covered([(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert spans.self_times(raw) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])
    agg = spans.aggregate(["root", "a", "b", "c"], raw)
    assert agg["root"] == pytest.approx({"calls": 2, "busy_s": 10.0, "self_s": 6.0})
    assert agg["a"] == pytest.approx({"calls": 1, "busy_s": 3.0, "self_s": 2.0})


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    outer_inner = tracer.wrap("inner", inner)

    def outer(n):
        return sum(outer_inner(i) for i in range(n))

    traced = tracer.wrap("outer", outer, count=lambda b, r: {"outer.n": b.arguments["n"]})
    assert traced(3) == 6
    assert [tracer.names[s[0]] for s in tracer.spans] == ["outer", "inner", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    assert tracer.counts["outer.n"] == 3


def test_calibration_rescales_by_the_mean_speed():
    ref = calibrate.REFERENCE_S
    # kernel at the reference speed on both ends, no samples: wall time unchanged
    assert calibrate.scale(1.0, 3.0, ref, ref) == pytest.approx((2.0, 2.0))
    # twice as slow on both ends: the stretch did half the reference work
    assert calibrate.scale(0.0, 4.0, 2 * ref, 2 * ref) == pytest.approx((4.0, 2.0))
    # two samples inside, at the reference speed: their time is left out, and
    # the speed is the mean of 1/2 (ends, weighing half each) and 1, 1
    samples = [(1.0, 1.0 + ref, ref), (2.0, 2.0 + ref, ref)]
    with_samples = calibrate.scale(0.0, 4.0, 2 * ref, 2 * ref, samples)
    assert with_samples[0] == pytest.approx(4.0 - 2 * ref)
    assert with_samples[1] == pytest.approx(with_samples[0] * (0.5 + 2.0) / 3.0)


def test_sampler_runs_the_kernel_during_a_call_only():
    sampler = calibrate.Sampler(0.01)
    sampler.start()
    try:
        begin = calibrate.time.perf_counter()
        while calibrate.time.perf_counter() - begin < 0.2:
            pass
        end = calibrate.time.perf_counter()
    finally:
        sampler.stop()
    taken = len(sampler.samples)
    assert len(sampler.within(begin, end)) >= 3
    calibrate.time.sleep(0.05)
    assert len(sampler.samples) == taken


def test_bad_config_is_a_failed_operation(tmp_path):
    step = dataclasses.replace(workloads.build("classify", 1)[0], config="bogus = 1\n")
    workloads.write_configs([step], str(tmp_path))
    saved = {}
    call = child.run_step(step, str(tmp_path), saved)
    assert call["exit_code"] == 2
    attempted, failures = child.check_outputs([step], [{"traced": False, "calls": [call]}], saved)
    assert attempted == 1
    assert len(failures) == 1 and "exit code 2" in failures[0]


def test_failed_verify_call_fails_every_criterion(tmp_path):
    step = workloads.build("verify", 0)[0]
    call = {"step": step.name, "seconds": 0.1, "exit_code": None, "error": "Traceback\nRuntimeError: x",
            "csv_sha256": None, "svg_sha256": None}
    attempted, failures = child.check_outputs([step], [{"traced": False, "calls": [call]}], {})
    assert attempted == 9 and len(failures) == 9


def test_oracle_catches_a_wrong_sweep_value(tmp_path):
    step = workloads._step("sweep-gamma", "sweep-gamma",
                           {"t1": 3.0, "t2": 1.0, "gamma_total": 0.08, "n_points": 41})
    workloads.write_configs([step], str(tmp_path))
    assert cli.main(step.argv(str(tmp_path))) == 0
    path = step.out_path(str(tmp_path))
    assert oracle.check_step(step, path, None) == [(step.name, [])]
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[-5].split(",")
    cells[3] = oracle.fmt(float(cells[3]) * (1 + 1e-8))
    lines[-5] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    [(_, problems)] = oracle.check_step(step, path, None)
    assert problems and "steady temperature" in problems[0]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
