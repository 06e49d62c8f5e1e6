"""The CLI writes the exact CSV bytes that the benchmark's reference hashes
record: the `classify` workload at seeds 0-9 and `dynamics` at seeds 0-1,
each step regenerated through `cli.main` and compared by SHA-256. The SVG of
the `dynamics` workload's `thermalize` step is pinned here as well, and so
are outputs that no workload writes: the CSV and stdout of `steady` at five
configurations and of `transmon-budget` at its defaults, `collide`'s CSV at
its defaults and at collision counts past 1e9, and `verify`'s CSV with its
elapsed seconds masked."""

import hashlib
import importlib.util
import json
import pathlib
import re
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


# config text -> SHA-256 of steady's CSV and of its stdout
STEADY_REFERENCE = {
    "": (
        "614e9eee326cf02e7002006691ba96a14bb6957e1bac0b0205d089f659027d08",
        "9024c97f98afaf2a9afb4db0185c2157e539451b23bb17dd179e9dfbc00896d7",
    ),
    # every bath at T = 0: the population ratio is inf and p_e is 0
    "temperatures = 0, 0\n": (
        "cc5d92f72986fa873ded85dd8598d3bbb1bb782fa2f36440811c961dc3389609",
        "7126446f5f187cede71c71aff91921956d9d422a549060847371eb6932d3cd39",
    ),
    "temperatures = 0.001, 1\n": (
        "c6a98854e22faadd22dccddd083239d3af522e760c571f95b999ddb85e7db327",
        "be30635f270816638733db7e886b1acbff6fba349b976c34f11fe5830f8b181c",
    ),
    "omega = 1e-300\ntemperatures = 1e300, 5e299\ngammas = 1e-301, 1e-301\n": (
        "011cd7ab176d43ca82b4df3fa42d57e13b1638fa73f02035ba54f37879e38550",
        "88bcb10f9fe0583e5290a3b1bc76c068eb3fa903b12e5980d09a770f29797192",
    ),
    "temperatures = 1e308, 9e307\n": (
        "5d0f376bd9582e3a973fdc676ad1b16205a33c04c4cae30a168e14fceb9cc9e4",
        "acca4d6bfd0ab5ffc3026a2188987038def41b266a0aa1aecb439cd02638855f",
    ),
}


@pytest.mark.parametrize("text", STEADY_REFERENCE)
def test_steady_output_matches_its_reference_hashes(tmp_path, capsys, text):
    config, out = tmp_path / "steady.cfg", tmp_path / "steady.csv"
    config.write_text(text, encoding="utf-8")
    assert cli.main(["steady", "--config", str(config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.encode("utf-8")).hexdigest()) == STEADY_REFERENCE[text]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_transmon_budget_output_matches_its_reference_hashes(tmp_path, capsys):
    out = tmp_path / "budget.csv"
    assert cli.main(["transmon-budget", "--out", str(out)]) == 0
    assert (_sha256(out.read_bytes()), _sha256(capsys.readouterr().out.encode("utf-8"))) == (
        "ef61d854fbc758ff0c88bb6b66efc022502919c70bb07465a81f7de3b50122d3",
        "eb76f1fe0870db4cb53a3e0007813ef2d04eef6acf0c8d409b7b0b144abbc120",
    )


# config text -> SHA-256 of collide's CSV
COLLIDE_REFERENCE = {
    "": "cd3551455c0670a1f805f91a7bf7ac4b29334f557025df6fb73d83e657174c81",
    # collision counts are written in full ("1000000000"), never as "1e+09"
    "collisions = 3000000000\nrecord_every = 1000000000\n":
        "ff36ed3fcc1da0ca21f3141deb481722a2d5422f62e916e978dc8dec3c4bcc77",
}


@pytest.mark.parametrize("text", COLLIDE_REFERENCE)
def test_collide_csv_matches_its_reference_hash(tmp_path, text):
    config, out = tmp_path / "collide.cfg", tmp_path / "collide.csv"
    config.write_text(text, encoding="utf-8")
    assert cli.main(["collide", "--config", str(config), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == COLLIDE_REFERENCE[text]


def test_verify_csv_matches_its_reference_hash(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--out", str(out)]) == 0
    # elapsed seconds masked as CI masks them
    masked = re.sub(rb"[0-9]+\.[0-9] s$", b"<elapsed> s", out.read_bytes(), flags=re.MULTILINE)
    assert _sha256(masked) == "479d6c23572ffec27cfb56b4e049b843a0411087cf960dcabdeb8cd3604dcf9f"
