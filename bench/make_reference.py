"""Record the reference SHA-256 of every CSV the deterministic workloads write,
for a range of workload seeds, into `reference_hashes.json`.

    python3 bench/make_reference.py --seeds 0-99

Run it from the root of a checkout. It calls the CLI in this process with
`--jobs 1` (the bytes do not depend on the pool) and checks every output
against the oracle before recording it. The hashes name the bytes of the
code they were recorded from, so that later code can show "same bytes":
re-record them only where a change of output bytes was intended.
`verify` is left out: its CSV carries wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import thermoclass.cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from child import sha256  # noqa: E402
from run import source_digest  # noqa: E402

DETERMINISTIC = ("classify", "dynamics")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    workdir = os.path.join(ROOT, ".bench_run", "reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    hashes = {}
    for workload in DETERMINISTIC:
        for seed in seeds:
            steps = workloads.build(workload, seed)
            workloads.write_configs(steps, workdir)
            for step in steps:
                code = thermoclass.cli.main([*step.argv(workdir), "--jobs", "1"])
                svg = step.svg_path(workdir) if step.svg else None
                problems = [] if code == 0 else [f"exit code {code}"]
                if not problems:
                    problems = [p for _, ps in oracle.check_step(step, step.out_path(workdir), svg) for p in ps]
                if problems:
                    print(f"{workload} seed {seed} {step.name}: {problems}", file=sys.stderr)
                    return 1
                hashes.setdefault(workload, {}).setdefault(str(seed), {})[step.name] = \
                    sha256(step.out_path(workdir))
            print(f"{workload} seed {seed}: ok", flush=True)
    with open(os.path.join(BENCH_DIR, "reference_hashes.json"), "w", encoding="utf-8") as fh:
        json.dump({"source_sha256": source_digest(ROOT), "hashes": hashes}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
