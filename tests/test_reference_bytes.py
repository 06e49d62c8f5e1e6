"""The CLI writes the exact CSV bytes that the benchmark's reference hashes
record: the `classify` workload at seeds 0-9 and `dynamics` at seeds 0-1,
each step regenerated through `cli.main` and compared by SHA-256. The SVG of
the `dynamics` workload's `thermalize` step is pinned here as well."""

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from thermoclass import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
REFERENCE = json.loads((BENCH / "reference_hashes.json").read_text(encoding="utf-8"))["hashes"]
# the SVG outputs, which reference_hashes.json does not record
SVG_REFERENCE = {"dynamics": {
    "0": {"thermalize": "82626977f282cdc1bef22f023b17802611b293b38371e8a51ff4b634910d1a76"},
    "1": {"thermalize": "103a29a799b64a57ac7c6c6523e03ccc2ab61d33f63ac87c94186ef50a6bd7c6"},
}}


@pytest.mark.parametrize("workload, seed", [
    *(("classify", seed) for seed in range(10)),
    *(("dynamics", seed) for seed in range(2)),
])
def test_outputs_match_the_reference_hashes(tmp_path, workload, seed):
    steps = workloads.build(workload, seed)
    workloads.write_configs(steps, str(tmp_path))
    for step in steps:
        assert cli.main(step.argv(str(tmp_path))) == 0, step.name
        digest = hashlib.sha256(pathlib.Path(step.out_path(str(tmp_path))).read_bytes()).hexdigest()
        assert digest == REFERENCE[workload][str(seed)][step.name], step.name
        if step.svg:
            digest = hashlib.sha256(pathlib.Path(step.svg_path(str(tmp_path))).read_bytes()).hexdigest()
            assert digest == SVG_REFERENCE[workload][str(seed)][step.name], step.name
