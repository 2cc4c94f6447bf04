"""The survey set: one `synthesize` config per plant, named by plant, b and profile.

- heat and heat_boundary at b in {5, 15, 30, 60}, each with the profiles
  constant 1, indicator [0, 1/2], indicator [0.1, 0.6] and cosine k0 = 1.5;
- wave at b in {3, 30} and kappa in {0.5, 1, 3}, with indicator [0, 1/2];
- heat b = 9.8 with indicator [0, 1/2], whose retained mode 1 decays at
  only pi^2 - 9.8 = 0.0696: a certificate's beta must stay below it;
- heat_boundary b = pi^2 with constant 1, whose kernel mode shares a 2x2
  block with the lift's integrator, and b = 5 with constant -1, whose mode 0
  no lift parameter reaches.

Every plant uses N_max 64.  Five of them fail the PBH rank test on
stabilizability (``PBH_FAILURES``); nine certify (``CERTIFIED``), and
coverage may grow from there but not shrink.

The grid set (``GRID_PLANTS``) is wider and coarser: 675 configs.  heat,
heat_boundary and wave (with b/10 and kappa = 1) at the 15 values of
``GRID_B``, each with the four profiles above plus cosine k0 = 2, at N_max
2, 16 and 64.

Run ``PYTHONPATH=src python tests/survey.py [--grid] OUT`` to analyze and
synthesize every config of the survey (or grid) set into OUT/<name>/,
certify every controller that synthesize wrote into OUT/<name>/certify/,
simulate each Certified controller over a horizon of 0.1 into
OUT/<name>/simulate/, and print one line per config and a last line with the
coverage tally (``coverage``).  Each command's stdout, stderr and exit code
go to ``<command>.log`` beside its documents.
Rerunning on the same code reproduces every document and log byte for byte,
so two checkouts can be compared, printed lines included, with ``diff -r``.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

from modalstab.cli import main

PROFILES = {
    "constant": {"kind": "constant", "value": 1.0},
    "indicator": {"kind": "indicator", "xi1": 0.0, "xi2": 0.5},
    "indicator_shifted": {"kind": "indicator", "xi1": 0.1, "xi2": 0.6},
    "cosine": {"kind": "cosine", "k0": 1.5},
}
N_MAX = 64
SIMULATE_HORIZON = 0.1


GRID_B = (-1.0, 0.0, 1.0, 5.0, math.pi ** 2, 15.0, 2 * math.pi ** 2, 30.0, 4 * math.pi ** 2,
          42.0, 60.0, 9 * math.pi ** 2, 100.0, 16 * math.pi ** 2, 200.0)
GRID_N_MAX = (2, 16, 64)


def _plants() -> dict:
    plants = {}
    for kind in ("heat", "heat_boundary"):
        for b in (5.0, 15.0, 30.0, 60.0):
            for name, f in PROFILES.items():
                plants[f"{kind}_b{b:g}_{name}"] = {"type": kind, "b": b, "f": f, "N_max": N_MAX}
    for b in (3.0, 30.0):
        for kappa in (0.5, 1.0, 3.0):
            plants[f"wave_b{b:g}_kappa{kappa:g}"] = {
                "type": "wave", "b": b, "kappa": kappa, "f": PROFILES["indicator"],
                "N_max": N_MAX}
    plants["heat_b9.8_indicator"] = {"type": "heat", "b": 9.8, "f": PROFILES["indicator"],
                                     "N_max": N_MAX}
    plants["heat_boundary_kernel_constant"] = {
        "type": "heat_boundary", "b": math.pi ** 2, "f": PROFILES["constant"], "N_max": N_MAX}
    plants["heat_boundary_b5_negative"] = {
        "type": "heat_boundary", "b": 5.0, "f": {"kind": "constant", "value": -1.0},
        "N_max": N_MAX}
    return plants


def _grid_plants() -> dict:
    profiles = {**PROFILES, "cosine2": {"kind": "cosine", "k0": 2.0}}
    plants = {}
    for kind in ("heat", "heat_boundary", "wave"):
        for b in GRID_B:
            for name, f in profiles.items():
                for n_max in GRID_N_MAX:
                    plant = {"type": kind, "b": b, "f": f, "N_max": n_max}
                    if kind == "wave":
                        plant.update(b=b / 10, kappa=1.0)
                    plants[f"{kind}_b{plant['b']:g}_{name}_N{n_max}"] = plant
    return plants


PLANTS = _plants()
GRID_PLANTS = _grid_plants()
PBH_FAILURES = ("heat_b15_constant", "heat_b30_constant", "heat_b60_constant",
                "heat_b60_indicator", "heat_boundary_b5_negative")
CERTIFIED = ("heat_b5_constant", "heat_b5_indicator", "heat_b5_indicator_shifted",
             "heat_b5_cosine", "heat_boundary_b5_constant", "wave_b3_kappa0.5",
             "wave_b3_kappa1", "wave_b3_kappa3", "heat_b9.8_indicator")


def run_command(out_dir: str, command: str, cfg: dict) -> int:
    """Exit code of ``modalstab command`` on cfg.  out_dir gets its documents
    and ``<command>.log``: the command's stdout, its stderr and its exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", path, "--out", out_dir])
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{command}.log"), "w", encoding="utf-8") as fh:
        fh.write(f"stdout:\n{stdout.getvalue()}stderr:\n{stderr.getvalue()}exit {code}\n")
    return code


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_survey(out_root: str, plants: dict = PLANTS) -> dict:
    """name -> (synthesize exit code, certificate document or None,
    simulate summary of a Certified controller or None, certify exit code on
    the controller synthesize wrote or None, analysis document or None if
    analyze failed) for each of ``plants``."""
    results = {}
    for name, plant in plants.items():
        out = os.path.join(out_root, name)
        analysis = (_read(os.path.join(out, "analysis.json"))
                    if run_command(out, "analyze", {"plant": plant}) == 0 else None)
        code = run_command(out, "synthesize", {"plant": plant})
        cert = summary = recheck = None
        if os.path.exists(os.path.join(out, "certificate.json")):
            cert = _read(os.path.join(out, "certificate.json"))
        controller = {"plant": plant, "controller_file": os.path.join(out, "controller.json")}
        if os.path.exists(controller["controller_file"]):
            recheck = run_command(os.path.join(out, "certify"), "certify", controller)
        if code == 0:
            sim = os.path.join(out, "simulate")
            if run_command(sim, "simulate", {**controller, "horizon": SIMULATE_HORIZON}) == 0:
                summary = _read(os.path.join(sim, "summary.json"))
        results[name] = (code, cert, summary, recheck, analysis)
    return results


def coverage(results: dict) -> dict:
    """Counts of run_survey's results: plants that fail PBH, plants that pass
    it but whose design fails (synthesize exits other than 0 or 4), and
    synthesize's Failed (exit 4) and Certified (exit 0)."""
    codes = [code for code, *_docs in results.values()]
    passed = [analysis is not None and analysis["verdict"]["pass"]
              for *_docs, analysis in results.values()]
    return {"PBH failures": passed.count(False),
            "design failures after a PBH pass": sum(
                ok and code not in (0, 4) for ok, code in zip(passed, codes)),
            "Failed": codes.count(4), "Certified": codes.count(0)}


if __name__ == "__main__":
    grid = sys.argv[1:2] == ["--grid"]
    if len(sys.argv) != 2 + grid:
        sys.exit("usage: survey.py [--grid] OUT")
    survey = run_survey(sys.argv[-1], GRID_PLANTS if grid else PLANTS)
    for name, (code, cert, summary, _recheck, analysis) in survey.items():
        line = f"{name}: analyze {analysis and analysis['verdict']['pass']}, exit {code}"
        if cert is not None:
            line += f" {cert['verdict']} N={cert['N']} beta={cert['beta']:.6g}"
        if summary is not None:
            line += f" abscissa={summary['spectral_abscissa']:.6g}"
        print(line)
    counts = ", ".join(f"{what} {count}" for what, count in coverage(survey).items())
    print(f"tally: {counts} of {len(survey)}")
