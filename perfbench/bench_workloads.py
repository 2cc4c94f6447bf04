"""Seeded workload generation for the modalstab benchmark.

A workload is a fixed list of CLI commands (one *pass*), plus the commands
that prepare it and the template whose cold run is timed.  The seed only
jitters profile parameters and the simulation's random initial state, each
within a range that keeps every template's exit-code class of the seed code
(checked on a grid over each range).  The program only sees the config files
written from these dictionaries.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("lift", "design", "trajectory")

# Exit codes a command may end with on a schema-valid config whose plant is
# stabilizable with a finite unstable part: 0, or 4 when no certificate is
# found.  A 2, 3, 5 or 6 on these configs is a wrong answer.
VALID_CODES = {
    "analyze": frozenset({0}),
    "synthesize": frozenset({0, 4}),
    "certify": frozenset({0, 4}),
    "simulate": frozenset({0}),
    "sweep": frozenset({0}),
}


@dataclass(frozen=True)
class Command:
    """One CLI call: ``modalstab <command> --config <tag>.json --out <tag>``.

    A ``controller_file`` in the config is relative to the work directory.
    """

    tag: str
    command: str
    config: dict

    def argv(self, work_dir: str) -> list:
        return [self.command, "--config", os.path.join(work_dir, f"{self.tag}.json"),
                "--out", os.path.join(work_dir, self.tag)]

    def write_config(self, work_dir: str):
        config = dict(self.config)
        if "controller_file" in config:
            config["controller_file"] = os.path.join(work_dir, config["controller_file"])
        with open(os.path.join(work_dir, f"{self.tag}.json"), "w") as fh:
            json.dump(config, fh)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: tuple   # run once before anything is timed
    passes: tuple    # one pass; the measured loop cycles through it
    cold: Command    # the heaviest template, timed in a fresh interpreter


def _constant(value: float) -> dict:
    return {"kind": "constant", "value": value}


def _indicator(xi2: float) -> dict:
    return {"kind": "indicator", "xi1": 0.0, "xi2": xi2}


def _lift(rng: random.Random) -> Workload:
    plants = {
        # b=5: Certified at N=66 after the default 32-point lift search
        "b5": {"type": "heat_boundary", "b": 5.0, "f": _constant(rng.uniform(1.0, 1.4))},
        # b=pi^2: kernel mode, 2x2 integrator block, no certificate (exit 4)
        "pi2": {"type": "heat_boundary", "b": math.pi ** 2,
                "f": _constant(rng.uniform(0.5, 2.0))},
        # b=-1, f=0: stable plant, Certified at N=3
        "m1": {"type": "heat_boundary", "b": -1.0, "f": _constant(0.0)},
    }
    passes = tuple(Command(f"synthesize_{k}", "synthesize", {"plant": p})
                   for k, p in plants.items())
    cold = Command("cold_synthesize_b5", "synthesize", {"plant": plants["b5"]})
    return Workload("lift", (), passes, cold)


def _design_plants(heat5_value=1.0, heat15_xi2=0.5, wave3_xi2=0.5) -> dict:
    return {
        # Certified at N=1
        "heat5": {"type": "heat", "b": 5.0, "f": _constant(heat5_value)},
        # coupled tail: no certificate up to N_max (exit 4)
        "heat15": {"type": "heat", "b": 15.0, "f": _indicator(heat15_xi2)},
        # Certified at N=20 or 21
        "wave3": {"type": "wave", "b": 3.0, "kappa": 1.0, "f": _indicator(wave3_xi2)},
    }


def _design(rng: random.Random) -> Workload:
    passes = []
    plants = _design_plants(rng.uniform(0.5, 2.0), rng.uniform(0.4, 0.6), rng.uniform(0.4, 0.6))
    for key, plant in plants.items():
        passes.append(Command(f"analyze_{key}", "analyze", {"plant": plant}))
        passes.append(Command(f"synthesize_{key}", "synthesize", {"plant": plant}))
        passes.append(Command(f"certify_{key}", "certify", {
            "plant": plant, "controller_file": f"synthesize_{key}/controller.json"}))
    # acceptance criterion 7's sweep, with its coefficients scaled
    scale = rng.uniform(0.5, 2.0)
    passes.append(Command("sweep_c7", "sweep", {
        "plant": {"type": "heat", "b": 5.0, "N_max": 32, "f": {
            "kind": "coefficients", "values": [scale / (k + 1) ** 2 for k in range(33)]}},
        "sweep_N": [1, 2, 3, 4, 5, 6, 8, 12, 16]}))
    cold = Command("cold_synthesize_heat15", "synthesize", {"plant": plants["heat15"]})
    return Workload("design", (), tuple(passes), cold)


def _trajectory(rng: random.Random) -> Workload:
    # only x0 is seeded, so every seed simulates the same dimensions
    plants = _design_plants()
    prepare, passes = [], []
    for key in ("heat5", "wave3", "heat15"):
        plant = plants[key]
        prepare.append(Command(f"synthesize_{key}", "synthesize", {"plant": plant}))
        passes.append(Command(f"simulate_{key}", "simulate", {
            "plant": plant, "controller_file": f"synthesize_{key}/controller.json",
            "horizon": 20.0, "dt": 0.01, "x0": "random", "seed": rng.randrange(2 ** 31)}))
    cold = Command("cold_simulate_heat15", "simulate", passes[-1].config)
    return Workload("trajectory", tuple(prepare), tuple(passes), cold)


_BUILDERS = {"lift": _lift, "design": _design, "trajectory": _trajectory}


def make_workload(name: str, seed: int) -> Workload:
    """The workload's commands and configs; equal seeds give equal configs."""
    # string seeds hash deterministically, unlike hash() of a tuple
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
