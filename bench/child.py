"""The workload interpreter. `run.py` starts it fresh with this checkout's
`src/` on PYTHONPATH.

    python3 bench/child.py --probe      print the clock once thermoclass.cli is imported
    python3 bench/child.py PLAN.json    run a workload as PLAN.json describes

A workload run calls `thermoclass.cli.main(argv)` for each step of the
workload back to back (a closed loop with one client), pass after pass, until
the planned seconds are spent. The speed kernel of `calibrate.py` runs
between the calls and, sampled from a timer, during them. With tracing on,
passes alternate between untraced and traced. Outputs are checked against the
oracle after the timed loop, and the result goes to `result.json` in the
plan's work directory.
"""

import sys
import time

import thermoclass.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def call_cli(argv) -> tuple:
    """(exit code, traceback text or None) of one `thermoclass.cli.main` call."""
    try:
        return thermoclass.cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    except Exception:  # a traceback is a failed operation, and the loop goes on
        return None, traceback.format_exc()


def run_step(step, workdir: str, saved: dict) -> dict:
    """Call one step, time it, and keep each distinct output for checking."""
    for path in (step.out_path(workdir), step.svg_path(workdir)):
        if os.path.exists(path):
            os.remove(path)
    start = time.perf_counter()
    code, error = call_cli(step.argv(workdir))
    end = time.perf_counter()
    csv_hash = sha256(step.out_path(workdir))
    svg_hash = sha256(step.svg_path(workdir)) if step.svg else None
    key = (step.name, csv_hash, svg_hash)
    if csv_hash is not None and key not in saved:
        csv_copy = os.path.join(workdir, f"{step.name}.{csv_hash[:16]}.csv")
        shutil.copyfile(step.out_path(workdir), csv_copy)
        svg_copy = None
        if svg_hash is not None:
            svg_copy = os.path.join(workdir, f"{step.name}.{svg_hash[:16]}.svg")
            shutil.copyfile(step.svg_path(workdir), svg_copy)
        saved[key] = (csv_copy, svg_copy)
    return {"step": step.name, "start": start, "end": end, "seconds": end - start,
            "exit_code": code, "error": error, "csv_sha256": csv_hash, "svg_sha256": svg_hash}


def _schedule_name(bound) -> str:
    return f"collisions.run_collisions.{bound.arguments['config'].schedule}"


def _bound(bound):
    bound.apply_defaults()
    return bound.arguments


def install_layers(tracer: spans.Tracer) -> None:
    """Trace the public functions of each measured module, plus the root
    `cli.main` span of every call."""
    from thermoclass import acceptance, classifier, cli, collisions, lindblad, qmat, svgplot, tables

    tracer.install(cli, "main")
    tracer.install(cli, "parse_config")
    tracer.install(classifier, "generate_instances",
                   count=lambda b, r: {"classifier.generate_instances.points": _bound(b)["n"]})
    tracer.install(classifier, "gamma_sweep",
                   count=lambda b, r: {"classifier.gamma_sweep.points": _bound(b)["n_points"]})
    tracer.install(classifier, "thermalization_curves")
    tracer.install(classifier, "perceptron_fit")
    tracer.install(lindblad, "steady_temperature")
    tracer.install(lindblad, "make_config")

    def evolve_steps(b, result):
        args = _bound(b)
        return {"lindblad.evolve.steps": int(round(result.times[-1] / args["dt"])),
                "lindblad.evolve.steps_cap": int(round(args["t_end"] / args["dt"]))}

    tracer.install(lindblad, "evolve", count=evolve_steps)
    tracer.install(collisions, "run_collisions", name=_schedule_name,
                   count=lambda b, r: {f"{_schedule_name(b)}.collisions": _bound(b)["n"]})
    for attr in ("partial_trace", "unitary_propagator", "validate_density_matrix", "trace_distance"):
        tracer.install(qmat, attr)
    tracer.install(tables, "render_csv",
                   count=lambda b, text: {"tables.render_csv.rows": len(_bound(b)["table"].rows),
                                          "tables.render_csv.bytes": len(text.encode("utf-8"))})
    tracer.install(svgplot, "line_plot")
    # run_all iterates this tuple, so the criteria are traced through it
    tracer.replace(acceptance, "_CHECKS", tuple(
        tracer.wrap(f"acceptance.check_{i}", check) for i, check in enumerate(acceptance._CHECKS, 1)))


def timed_call(step, workdir: str, saved: dict, kernel_before: float, sampler) -> dict:
    """`run_step`, with the speed kernel sampled during the call and run
    after it. The call's `seconds` leave the sampling out; `calibrated_s` is
    its time at the reference speed."""
    sampler.start()
    try:
        call = run_step(step, workdir, saved)
    finally:
        sampler.stop()
    kernel_after = calibrate.measure()
    samples = sampler.within(call["start"], call["end"])
    call["seconds"], call["calibrated_s"] = calibrate.scale(
        call["start"], call["end"], kernel_before, kernel_after, samples)
    call["kernel_s"] = [kernel_before, kernel_after]
    call["kernel_samples"] = len(samples)
    return call


def run_passes(steps, workdir: str, seconds: float, trace: bool, tracer) -> tuple:
    """Passes over the steps until `seconds` would be exceeded (at least one
    pass, and with tracing one untraced and one traced pass)."""
    sampler = calibrate.Sampler()
    saved = {}
    passes = []
    walls = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            install_layers(tracer)
        pass_start = time.perf_counter()
        calls = []
        kernel_s = calibrate.measure()
        try:
            for step in steps:
                tracer.operation += 1
                calls.append(timed_call(step, workdir, saved, kernel_s, sampler))
                kernel_s = calls[-1]["kernel_s"][1]
        finally:
            if traced:
                tracer.uninstall()
        walls.append(time.perf_counter() - pass_start)
        passes.append({"traced": traced, "calls": calls})
        elapsed = time.perf_counter() - begin
        if len(passes) >= (2 if trace else 1) and elapsed + statistics.median(walls) > seconds:
            return passes, saved


def check_outputs(steps, passes, saved) -> tuple:
    """(attempted, failures): every call and every `verify` criterion is one
    operation, checked against the oracle through its output's content."""
    by_name = {step.name: step for step in steps}
    verdicts = {}
    for key, (csv_copy, svg_copy) in saved.items():
        try:
            verdicts[key] = dict(oracle.check_step(by_name[key[0]], csv_copy, svg_copy))
        except Exception:  # an unreadable output fails its operations, with the reason
            reason = traceback.format_exc().strip().splitlines()[-1]
            verdicts[key] = {op: [f"oracle could not read the output: {reason}"]
                             for op in oracle.operations(by_name[key[0]])}
    attempted, failures = 0, []
    for number, run in enumerate(passes, 1):
        for call in run["calls"]:
            step = by_name[call["step"]]
            if call["error"] is not None:
                reason = "traceback: " + call["error"].strip().splitlines()[-1]
            elif call["exit_code"] != 0:
                reason = f"exit code {call['exit_code']}"
            elif call["csv_sha256"] is None:
                reason = "no output written"
            else:
                reason = None
            verdict = verdicts.get((step.name, call["csv_sha256"], call["svg_sha256"]), {})
            for op in oracle.operations(step):
                attempted += 1
                if reason is not None and op == step.name:
                    problems = [reason]
                elif reason is not None:
                    problems = [f"not reported: the {step.name} call failed"]
                else:
                    problems = verdict.get(op, ["no oracle verdict"])
                if problems:
                    failures.append(f"pass {number} {op}: {'; '.join(problems[:3])}")
    return attempted, failures


def layer_metrics(tracer, n_traced: int) -> dict:
    """Per-layer totals of the traced passes, per pass."""
    out = {}
    for name, entry in spans.aggregate(tracer.names, tracer.spans).items():
        if not entry["calls"]:
            continue
        for field in ("calls", "busy_s", "self_s"):
            out[f"{name}.{field}"] = entry[field] / n_traced
    for key, value in tracer.counts.items():
        out[key] = value / n_traced
    return out


def main(argv) -> int:
    if argv == ["--probe"]:
        print(repr(READY))
        return 0
    with open(argv[0], "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(thermoclass.cli.__file__).startswith(src + os.sep):
        print(f"thermoclass was imported from {thermoclass.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    workdir = plan["workdir"]
    steps = workloads.build(plan["workload"], plan["seed"])
    workloads.write_configs(steps, workdir)

    tracer = spans.Tracer()
    passes, saved = run_passes(steps, workdir, plan["seconds"], plan["trace"], tracer)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    attempted, failures = check_outputs(steps, passes, saved)
    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "peak_rss_mb": own,
        "worker_peak_rss_mb": workers,
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
    }
    n_traced = sum(1 for p in passes if p["traced"])
    if n_traced:
        result["layers"] = layer_metrics(tracer, n_traced)
        tracer.write(os.path.join(workdir, "spans.csv.gz"))
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
