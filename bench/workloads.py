"""The benchmark's workloads: the `thermoclass` CLI steps each one runs, with
their config files generated from the workload seed.

The seed varies values, never sizes, so every seed does the same amount of
work. It reaches the program only through the generated config text and the
`--seed` flag.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("classify", "dynamics", "verify")

CLASSIFY_N = 10_000
SWEEP_POINTS = 3001
TEMPERATURE_RANGE = (0.5, 5.5)
GAMMA_RANGE = (0.005, 0.1)

THERMALIZE_PAIRS = 32
# the CLI defaults, spelled out because the RK4 step count is derived from them
T_END = 2000.0
DT = 0.05
SAMPLE_EVERY = 1.0

COLLIDE_TEMPERATURES = (3.0, 1.0)
COLLIDE_GAMMAS = (0.1, 0.05)
COLLISIONS = 20_000
RECORD_EVERY = 10


@dataclass(frozen=True)
class Step:
    """One `thermoclass` CLI call. `name` is unique within its workload and
    names the config and output files; `params` is what the oracle needs to
    check the output."""

    name: str
    command: str
    config: str | None = None
    flags: tuple = ()
    svg: bool = False
    params: dict = field(default_factory=dict, compare=True, hash=False)

    def config_path(self, workdir: str) -> str:
        return os.path.join(workdir, f"{self.name}.cfg")

    def out_path(self, workdir: str) -> str:
        return os.path.join(workdir, f"{self.name}.csv")

    def svg_path(self, workdir: str) -> str:
        return os.path.join(workdir, f"{self.name}.svg")

    def argv(self, workdir: str) -> list:
        argv = [self.command]
        if self.config is not None:
            argv += ["--config", self.config_path(workdir)]
        argv += ["--out", self.out_path(workdir), *self.flags]
        if self.svg:
            argv.append("--svg")
        return argv


def _config_text(settings: dict) -> str:
    lines = []
    for key, value in settings.items():
        if isinstance(value, tuple) and value and isinstance(value[0], tuple):
            text = "; ".join(" ".join(repr(v) for v in group) for group in value)
        elif isinstance(value, tuple):
            text = ", ".join(repr(v) for v in value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _step(name, command, settings=None, flags=(), svg=False, **params) -> Step:
    config = None if settings is None else _config_text(settings)
    merged = {**(settings or {}), **params}
    return Step(name=name, command=command, config=config, flags=tuple(flags), svg=svg, params=merged)


def _classify(rng: random.Random) -> list:
    theta = rng.uniform(1.5, 4.5)
    gamma = rng.uniform(0.005, 0.1)
    temp_seed = rng.randrange(2**31)
    t1, t2 = rng.uniform(2.0, 5.0), rng.uniform(0.5, 1.5)
    gamma_seed = rng.randrange(2**31)
    s1, s2 = rng.uniform(2.0, 5.0), rng.uniform(0.5, 1.5)
    gamma_total = rng.uniform(0.04, 0.16)
    return [
        _step("classify-temp", "classify-temp",
              {"n": CLASSIFY_N, "gamma": gamma, "t_min": TEMPERATURE_RANGE[0],
               "t_max": TEMPERATURE_RANGE[1], "theta": theta},
              flags=("--seed", str(temp_seed)), seed=temp_seed),
        _step("classify-gamma", "classify-gamma",
              {"n": CLASSIFY_N, "t1": t1, "t2": t2, "gamma_min": GAMMA_RANGE[0],
               "gamma_max": GAMMA_RANGE[1]},
              flags=("--seed", str(gamma_seed)), seed=gamma_seed),
        _step("sweep-gamma", "sweep-gamma",
              {"t1": s1, "t2": s2, "gamma_total": gamma_total, "n_points": SWEEP_POINTS}),
    ]


def _dynamics(rng: random.Random) -> list:
    temperatures = (rng.uniform(2.0, 5.0), rng.uniform(0.5, 1.5))
    gamma_total = rng.uniform(0.05, 0.15)
    pairs = []
    for _ in range(THERMALIZE_PAIRS):
        d = rng.uniform(-0.45, 0.45) * gamma_total
        pairs.append((gamma_total / 2.0 + d, gamma_total / 2.0 - d))
    sampled_seed = rng.randrange(2**31)
    collide = {"temperatures": COLLIDE_TEMPERATURES, "gammas": COLLIDE_GAMMAS,
               "collisions": COLLISIONS, "record_every": RECORD_EVERY}
    return [
        _step("thermalize", "thermalize",
              {"temperatures": temperatures, "rate_pairs": tuple(pairs),
               "t_end": T_END, "dt": DT, "sample_every": SAMPLE_EVERY},
              svg=True),
        _step("collide-mixture", "collide", {**collide, "schedule": "mixture"}),
        _step("collide-sampled", "collide", {**collide, "schedule": "sampled"},
              flags=("--seed", str(sampled_seed)), seed=sampled_seed),
    ]


def _verify(rng: random.Random) -> list:
    # `verify` fixes its own internal seeds, so the workload seed changes nothing here
    return [_step("verify", "verify")]


_GENERATORS = {"classify": _classify, "dynamics": _dynamics, "verify": _verify}


def build(workload: str, seed: int) -> list:
    """The steps of one pass of `workload`, generated from `seed`."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def write_configs(steps, workdir: str) -> None:
    for step in steps:
        if step.config is not None:
            with open(step.config_path(workdir), "w", encoding="utf-8") as fh:
                fh.write(step.config)


def rk4_steps(step: Step) -> int:
    """RK4 steps of a `thermalize` step: it integrates without early stop."""
    return len(step.params["rate_pairs"]) * int(round(step.params["t_end"] / step.params["dt"]))


def instances(step: Step) -> int:
    """Labeled instances or sweep points a step writes; 0 for other steps."""
    if step.command in ("classify-temp", "classify-gamma"):
        return step.params["n"]
    if step.command == "sweep-gamma":
        return step.params["n_points"]
    return 0
