"""The thermoclass benchmark. Run it from the root of a checkout:

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

It measures set-up (fresh interpreters importing `thermoclass.cli`), then
starts one fresh workload interpreter (`child.py`) that calls
`thermoclass.cli.main` for each step of the workload, pass after pass, times
each call at a fixed reference speed of the machine (`calibrate.py`), and
checks every output against the benchmark's own oracle. It prints a report
and, as its last line, one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Everything it writes goes under `.bench_run/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
# A fresh interpreter that imports numpy and nothing of the checkout: start-up
# work of the program's kind (the interpreter, numpy's modules and shared
# libraries) that no change to the program can alter. It runs before and
# after every set-up probe, and scales the probe to the machine's start-up
# speed, which drifts with the host's load much as the compute speed does.
REFERENCE_STARTUP = ["-c", "import time, numpy; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"]
# Seconds of the reference start-up on a quiet machine (the one named in
# calibrate.py). It only sets the scale of setup_s and must never change.
STARTUP_REFERENCE_S = 0.09
# every run must end within this many seconds
RUN_LIMIT_S = 170.0

# metric name -> (unit, better), as listed in BENCHMARK.json
END_TO_END = {"setup_s": ("s", "lower"), "run_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower")}
# The per-layer metrics of the result line: counts, which are 0 where a layer
# is not called, and times of layers that every workload calls. The other
# times and per-unit costs depend on the workload and are in the text report.
PER_LAYER = {
    "setup.numpy_import_s": ("s", "lower"),
    "setup.thermoclass_import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.parse_config.calls": ("count", "lower"),
    "classifier.generate_instances.points": ("count", "higher"),
    "classifier.gamma_sweep.points": ("count", "higher"),
    "classifier.thermalization_curves.calls": ("count", "lower"),
    "classifier.perceptron_fit.calls": ("count", "lower"),
    "lindblad.steady_temperature.calls": ("count", "lower"),
    "lindblad.make_config.calls": ("count", "lower"),
    "lindblad.make_config.busy_s": ("s", "lower"),
    "lindblad.evolve.calls": ("count", "lower"),
    "lindblad.evolve.steps": ("count", "lower"),
    "lindblad.evolve.steps_cap": ("count", "lower"),
    "collisions.run_collisions.mixture.collisions": ("count", "higher"),
    "collisions.run_collisions.sampled.collisions": ("count", "higher"),
    "qmat.partial_trace.calls": ("count", "lower"),
    "qmat.unitary_propagator.calls": ("count", "lower"),
    "qmat.validate_density_matrix.calls": ("count", "lower"),
    "qmat.trace_distance.calls": ("count", "lower"),
    "tables.render_csv.rows": ("count", "higher"),
    "tables.render_csv.bytes": ("count", "lower"),
    "tables.render_csv.busy_s": ("s", "lower"),
    "tables.csv_identical": ("count", "higher"),
    "tables.csv_compared": ("count", "higher"),
    "svgplot.line_plot.calls": ("count", "lower"),
    "trace.run_s_untraced": ("s", "lower"),
    "trace.run_s_traced": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# per-unit cost -> (span name, work counter)
PER_UNIT = {
    "classifier.generate_instances.us_per_point": ("classifier.generate_instances", "classifier.generate_instances.points"),
    "classifier.gamma_sweep.us_per_point": ("classifier.gamma_sweep", "classifier.gamma_sweep.points"),
    "lindblad.steady_temperature.us_per_call": ("lindblad.steady_temperature", "lindblad.steady_temperature.calls"),
    "lindblad.make_config.us_per_call": ("lindblad.make_config", "lindblad.make_config.calls"),
    "lindblad.evolve.us_per_step": ("lindblad.evolve", "lindblad.evolve.steps"),
    "collisions.run_collisions.mixture.us_per_collision": (
        "collisions.run_collisions.mixture", "collisions.run_collisions.mixture.collisions"),
    "collisions.run_collisions.sampled.us_per_collision": (
        "collisions.run_collisions.sampled", "collisions.run_collisions.sampled.collisions"),
    "tables.render_csv.us_per_row": ("tables.render_csv", "tables.render_csv.rows"),
}

# every per-layer metric of the traced run's text report, in print order
NAMED_LAYER_METRICS = [
    "cli.parse_config.busy_s",
    "classifier.generate_instances.busy_s", "classifier.generate_instances.points",
    "classifier.generate_instances.us_per_point",
    "classifier.gamma_sweep.points", "classifier.gamma_sweep.us_per_point",
    "lindblad.steady_temperature.calls", "lindblad.steady_temperature.us_per_call",
    "lindblad.make_config.us_per_call",
    "lindblad.evolve.calls", "lindblad.evolve.steps", "lindblad.evolve.us_per_step",
    "lindblad.evolve.self_s", "lindblad.evolve.steps_ratio",
    "classifier.thermalization_curves.self_s",
    "collisions.run_collisions.mixture.collisions", "collisions.run_collisions.mixture.us_per_collision",
    "collisions.run_collisions.sampled.collisions", "collisions.run_collisions.sampled.us_per_collision",
    *(f"qmat.{f}.{m}" for f in ("partial_trace", "unitary_propagator", "validate_density_matrix",
                                "trace_distance") for m in ("calls", "busy_s")),
    "classifier.perceptron_fit.calls", "classifier.perceptron_fit.busy_s",
    "tables.render_csv.rows", "tables.render_csv.bytes", "tables.render_csv.us_per_row",
    "tables.csv_identical",
    "svgplot.line_plot.busy_s",
    *(f"acceptance.check_{n}.busy_s" for n in range(1, 9)),
]


class BenchError(Exception):
    """The benchmark cannot measure: no result is printed."""


def tail(values) -> str:
    """Median, and the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n})"
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else 0
    if pct >= 50:
        ordered = sorted(values)
        text += f", p{pct} {ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]:.6g}"
    else:
        text += ", no tail percentile (one at or above the median needs 20 or more samples)"
    return text


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONHOME", None)
    return env


def launch(root: str, args: list, importtime: bool, deadline: float) -> tuple:
    """Start a fresh interpreter with `args`, which prints the monotonic clock
    once its imports are done: (seconds from launch to then, its stderr)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), *args]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"start-up probe {args} failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1]) - launched, proc.stderr


def probe_setup(root: str, importtime: bool, deadline: float) -> dict:
    """Launch a fresh interpreter that imports thermoclass.cli; seconds from
    launch to import, and with -X importtime the import costs."""
    seconds, stderr = launch(root, [os.path.join(BENCH_DIR, "child.py"), "--probe"], importtime, deadline)
    out = {"setup_wall_s": seconds}
    if importtime:
        cumulative = {}
        for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", stderr):
            cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        numpy_s = cumulative.get("numpy", 0.0)
        out["setup.numpy_import_s"] = numpy_s
        out["setup.thermoclass_import_s"] = (
            cumulative.get("thermoclass.cli", 0.0) - numpy_s)
    return out


def measure_setup(root: str, importtime: bool, deadline: float) -> list:
    """SETUP_PROBES probes, each with the reference start-up run before and
    after it; a probe's `setup_s` is its wall time at the reference start-up
    speed."""
    probe_setup(root, False, deadline)  # fills the bytecode and file caches
    launch(root, REFERENCE_STARTUP, False, deadline)
    before = launch(root, REFERENCE_STARTUP, importtime, deadline)[0]
    probes = []
    for _ in range(SETUP_PROBES):
        probe = probe_setup(root, importtime, deadline)
        after = launch(root, REFERENCE_STARTUP, importtime, deadline)[0]
        probe["setup_s"] = calibrate.scale(0.0, probe["setup_wall_s"], before, after,
                                           reference=STARTUP_REFERENCE_S)[1]
        probe["reference_startup_s"] = after
        probes.append(probe)
        before = after
    return probes


def source_digest(root: str) -> str:
    """SHA-256 over the package sources, in path order: names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def git_sha(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def load_reference(workload: str, seed: int) -> dict:
    with open(os.path.join(BENCH_DIR, "reference_hashes.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["hashes"].get(workload, {}).get(str(seed), {})


def pass_seconds(run: dict, key: str = "calibrated_s") -> float:
    """A pass's summed `cli.main` time: at the reference speed, or with
    key="seconds" as wall time."""
    return sum(call[key] for call in run["calls"])


def workload_rates(workload: str, seed: int, untraced: list) -> dict:
    """The workload's own throughput figures in 1/s at the reference speed,
    one value per untraced pass."""
    steps = {s.name: s for s in workloads.build(workload, seed)}

    def per_second(work, names):
        return [work / sum(c["calibrated_s"] for c in p["calls"] if c["step"] in names)
                for p in untraced]

    if workload == "classify":
        return {"instances_per_s": per_second(sum(map(workloads.instances, steps.values())), steps)}
    if workload == "dynamics":
        collide = ("collide-mixture", "collide-sampled")
        rates = {
            "rk4_steps_per_s": per_second(workloads.rk4_steps(steps["thermalize"]), {"thermalize"}),
            "collisions_per_s": per_second(sum(steps[n].params["collisions"] for n in collide), collide),
        }
        for name in collide:
            rates[f"{name}.collisions_per_s"] = per_second(steps[name].params["collisions"], {name})
        return rates
    return {}


def layer_report(layers: dict, workload: str) -> dict:
    """Every named per-layer metric: its value, or why it was not observed."""
    values = dict(layers)
    for metric, (span, work) in PER_UNIT.items():
        if layers.get(work):
            values[metric] = 1e6 * layers[f"{span}.busy_s"] / layers[work]
    if layers.get("lindblad.evolve.steps_cap"):
        values["lindblad.evolve.steps_ratio"] = (
            layers["lindblad.evolve.steps"] / layers["lindblad.evolve.steps_cap"])
    report = {}
    for metric in NAMED_LAYER_METRICS:
        if metric == "tables.csv_identical" and not layers["tables.csv_compared"]:
            report[metric] = "not observed: no reference hashes for this workload and seed"
        elif metric in values:
            report[metric] = values[metric]
        else:
            layer = metric.rsplit(".", 1)[0].removesuffix(".mixture").removesuffix(".sampled")
            report[metric] = f"not observed: {layer} is not called in this process on {workload}"
    if workload == "classify":
        report["classifier.generate_instances.worker_calls"] = (
            "not observed: instances are labelled in --jobs pool workers, whose calls to "
            "lindblad.steady_temperature and make_config this process cannot see; the counts "
            "above are the parent's own (sweep-gamma)")
    return report


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thermoclass", "cli.py")):
        raise BenchError(f"no src/thermoclass/cli.py under {root}: run from the root of a checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(root, ".bench_run", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    probes = measure_setup(root, args.trace == 1, deadline)

    plan = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace == 1, "workdir": workdir, "src": os.path.join(root, "src")}
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    with open(os.path.join(workdir, "child.out"), "w") as out, \
            open(os.path.join(workdir, "child.err"), "w") as err:
        # its own process group, so that its pool workers can be stopped with it
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "child.py"), plan_path],
                                cwd=root, env=child_env(root), stdout=out, stderr=err,
                                start_new_session=True)
        try:
            returncode = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload interpreter did not finish within {RUN_LIMIT_S:.0f} s") from exc
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if returncode != 0:
        with open(os.path.join(workdir, "child.err"), "r") as fh:
            raise BenchError(f"workload interpreter exited {returncode}: {fh.read()[-2000:]}")
    with open(os.path.join(workdir, "result.json"), "r", encoding="utf-8") as fh:
        result = json.load(fh)

    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    run_s = [pass_seconds(p) for p in untraced]

    reference = load_reference(args.workload, args.seed)
    outputs = {}
    for run_pass in result["passes"]:
        for call in run_pass["calls"]:
            entry = outputs.setdefault(call["step"], {"csv_sha256": [], "svg_sha256": [],
                                                      "reference_sha256": reference.get(call["step"])})
            for key in ("csv_sha256", "svg_sha256"):
                if call[key] is not None and call[key] not in entry[key]:
                    entry[key].append(call[key])
    compared = [c for p in result["passes"] for c in p["calls"] if c["step"] in reference]
    identical = sum(1 for c in compared if c["csv_sha256"] == reference[c["step"]])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_sha": git_sha(root),
            "source_sha256": source_digest(root),
            "nproc": os.cpu_count(),
            "python": result["python"],
            "numpy": result["numpy"],
            "machine": platform.machine(),
        },
        "outputs": outputs,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "failures": result["failures"][:20],
        "setup_s": [p["setup_s"] for p in probes],
        "setup_wall_s": [p["setup_wall_s"] for p in probes],
        "reference_startup_s": [p["reference_startup_s"] for p in probes],
        "run_s": run_s,
        "run_wall_s": [pass_seconds(p, "seconds") for p in untraced],
        "kernel_s": [k for p in untraced for c in p["calls"] for k in c["kernel_s"]],
        "peak_rss_mb": result["peak_rss_mb"],
        "worker_peak_rss_mb": result["worker_peak_rss_mb"],
        "rates": workload_rates(args.workload, args.seed, untraced),
        "csv_identical": identical,
        "csv_compared": len(compared),
    }
    if args.workload == "verify":
        record["note"] = "verify fixes its own internal seeds: the workload seed does not change it"
    if traced:
        layers = dict(result["layers"])
        layers["setup.numpy_import_s"] = statistics.median(p["setup.numpy_import_s"] for p in probes)
        layers["setup.thermoclass_import_s"] = statistics.median(
            p["setup.thermoclass_import_s"] for p in probes)
        layers["tables.csv_identical"] = identical / len(result["passes"])
        layers["tables.csv_compared"] = len(compared) / len(result["passes"])
        layers["trace.run_s_untraced"] = statistics.median(run_s)
        layers["trace.run_s_traced"] = statistics.median(pass_seconds(p) for p in traced)
        layers["trace.overhead_s"] = layers["trace.run_s_traced"] - layers["trace.run_s_untraced"]
        record["layers"] = layers
        record["layer_report"] = layer_report(layers, args.workload)
        record["spans_file"] = os.path.relpath(os.path.join(workdir, "spans.csv.gz"), root)
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"thermoclass benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['seconds']} s, trace {record['trace']}")
    print(f"  git {env['git_sha'] or 'unknown (not a git checkout)'}; source sha256 "
          f"{env['source_sha256'][:16]}; nproc {env['nproc']}; python {env['python']}; "
          f"numpy {env['numpy']}")
    if "note" in record:
        print(f"  note: {record['note']}")
    print("end to end:")
    probes = " (probes under -X importtime)" if record["trace"] else ""
    print(f"  setup_s [s at the reference start-up speed]{probes}: {tail(record['setup_s'])}")
    print(f"    wall time [s]: {tail(record['setup_wall_s'])}")
    print(f"    reference start-up [s, reference {STARTUP_REFERENCE_S}]: "
          f"{tail(record['reference_startup_s'])}")
    print(f"  run_s [s at the reference speed]: {tail(record['run_s'])}")
    print(f"    wall time [s]: {tail(record['run_wall_s'])}")
    print(f"    speed kernel [s, reference {calibrate.REFERENCE_S}]: {tail(record['kernel_s'])}")
    for name, values in record["rates"].items():
        print(f"  {name} [1/s at the reference speed]: {tail(values)}")
    print(f"  peak_rss_mb [MB]: interpreter {record['peak_rss_mb']:.1f}, largest pool worker "
          + (f"{record['worker_peak_rss_mb']:.1f}" if record["worker_peak_rss_mb"] else "none"))
    ratio = record["failed"] / record["attempted"]
    print(f"  ops_failed_ratio [1]: {ratio:.6g} ({record['failed']} of {record['attempted']} operations)")
    for failure in record["failures"]:
        print(f"    failed: {failure}")
    print("outputs (sha256):")
    for step, entry in record["outputs"].items():
        ref = entry["reference_sha256"]
        same = "no reference for this seed" if ref is None else (
            "identical to reference" if entry["csv_sha256"] == [ref] else "DIFFERS from reference")
        print(f"  {step}: csv {', '.join(h[:16] for h in entry['csv_sha256'][:3])}"
              + (f" (+{len(entry['csv_sha256']) - 3} more)" if len(entry["csv_sha256"]) > 3 else "")
              + f"; {same}")
    print(f"  tables.csv_identical: {record['csv_identical']} of {record['csv_compared']} "
          f"compared CSVs match the reference hashes")
    if "layers" in record:
        layers = record["layers"]
        print("per layer (traced passes, per pass):")
        for metric, value in record["layer_report"].items():
            text = value if isinstance(value, str) else f"{value:.6g}"
            print(f"  {metric}: {text}")
        print(f"  tracing overhead: traced run_s {layers['trace.run_s_traced']:.6g} s - untraced "
              f"run_s {layers['trace.run_s_untraced']:.6g} s = {layers['trace.overhead_s']:.6g} s")
        print(f"  spans: {record['spans_file']}")


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {name: {"value": record["layers"].get(name, 0), "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(record["setup_s"]),
                  "run_s": statistics.median(record["run_s"]),
                  "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
