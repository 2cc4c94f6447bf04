"""Outcome checks for one CLI command, independent of the program's own code.

Each check returns a list of problems; an empty list means the command
passed.  The oracles are closed forms and the shipped JSON Schemas, read
with ``jsonschema`` directly so that a traced run never counts the checks.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from jsonschema import Draft202012Validator

from bench_workloads import VALID_CODES, Command


class Checker:
    """Checks commands against the schemas in ``schema_dir``."""

    def __init__(self, schema_dir: str):
        self._validators = {}
        for name in ("controller", "certificate"):
            with open(os.path.join(schema_dir, f"{name}.schema.json")) as fh:
                self._validators[name] = Draft202012Validator(json.load(fh))

    def check(self, cmd: Command, code, out_dir: str, plant=None) -> list:
        """Problems with ``cmd``'s exit ``code`` and the documents in ``out_dir``.

        ``plant`` is the ModalSystem the command built, needed to close a
        written controller around its truncation; the check is skipped
        without it.
        """
        if code not in VALID_CODES[cmd.command]:
            return [f"{cmd.tag}: exit code {code}"]
        try:
            return getattr(self, "_" + cmd.command)(cmd, code, out_dir, plant)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{cmd.tag}: unreadable output: {exc!r}"]

    def _document(self, out_dir: str, name: str, problems: list):
        with open(os.path.join(out_dir, f"{name}.json")) as fh:
            doc = json.load(fh)
        for err in self._validators[name].iter_errors(doc):
            problems.append(f"{name}.json: {err.message}")
        return doc

    def _synthesize(self, cmd, code, out_dir, plant):
        problems = []
        cert = self._document(out_dir, "certificate", problems)
        controller = self._document(out_dir, "controller", problems)
        if not problems:
            problems += certificate_problems(cert, code)
            if plant is not None:
                abscissa = closed_loop_abscissa(plant, controller)
                if not abscissa < 0.0:
                    problems.append(f"closed loop spectral abscissa {abscissa:.6g} >= 0")
        return [f"{cmd.tag}: {p}" for p in problems]

    def _certify(self, cmd, code, out_dir, plant):
        problems = []
        cert = self._document(out_dir, "certificate", problems)
        if not problems:
            problems += certificate_problems(cert, code)
        return [f"{cmd.tag}: {p}" for p in problems]

    def _analyze(self, cmd, code, out_dir, plant):
        with open(os.path.join(out_dir, "analysis.json")) as fh:
            verdict = json.load(fh)["verdict"]
        plant_doc = cmd.config["plant"]
        if plant_doc["type"] != "heat":
            return []
        expected = heat_stabilizable(plant_doc["b"], plant_doc["f"])
        if verdict["stabilizable"] != expected:
            return [f"{cmd.tag}: stabilizable={verdict['stabilizable']}, "
                    f"criterion 1 says {expected}"]
        return []

    def _simulate(self, cmd, code, out_dir, plant):
        with open(os.path.join(out_dir, "trajectory.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        expected = round(cmd.config["horizon"] / cmd.config["dt"]) + 1
        if rows != expected:
            return [f"{cmd.tag}: trajectory.csv has {rows} rows, expected {expected}"]
        return []

    def _sweep(self, cmd, code, out_dir, plant):
        with open(os.path.join(out_dir, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != len(set(cmd.config["sweep_N"])):
            problems.append(f"sweep.csv has {len(rows)} rows")
        for row in rows:
            if row["verdict"] == "Certified" and not float(row["product"]) < 1.0:
                problems.append(f"N={row['N']} Certified with product {row['product']}")
        return [f"{cmd.tag}: {p}" for p in problems]


def certificate_problems(cert: dict, code: int) -> list:
    """A Certified verdict needs beta > 0 and 1 > product = gain_R * gain_tail."""
    problems = []
    certified = cert["verdict"] == "Certified"
    if certified != (code == 0):
        problems.append(f"verdict {cert['verdict']} with exit code {code}")
    if certified:
        beta, product = cert["beta"], cert["product"]
        expected = cert["gain_R"] * cert["gain_tail"]
        if not beta > 0.0:
            problems.append(f"Certified with beta {beta!r}")
        if not product < 1.0:
            problems.append(f"Certified with product {product!r} >= 1")
        if not math.isclose(product, expected, rel_tol=1e-15, abs_tol=0.0):
            problems.append(f"product {product!r} != gain_R * gain_tail = {expected!r}")
    return problems


def closed_loop_abscissa(plant, controller: dict) -> float:
    """Largest real eigenvalue part of the controller closed around the
    leading plant blocks whose dimension matches the controller's."""
    dims = controller["dims"]
    n = dims["n_unstable"] + dims["n_retained"]
    E = np.array(controller["E"], dtype=float).reshape(n, n)
    F = np.array(controller["F"], dtype=float).reshape(n, dims["outputs"])
    G = np.array(controller["G"], dtype=float).reshape(dims["inputs"], n)
    blocks, dim = [], 0
    for blk in plant.blocks:
        if dim == n:
            break
        blocks.append(blk)
        dim += blk.dim
    if dim != n:
        raise ValueError(f"no plant truncation has dimension {n}")
    A = np.zeros((n, n), dtype=complex)
    pos = 0
    for blk in blocks:
        A[pos:pos + blk.dim, pos:pos + blk.dim] = blk.block_matrix
        pos += blk.dim
    B = np.vstack([blk.input_row for blk in blocks])
    C = np.hstack([blk.output_col for blk in blocks])
    M = np.block([[A, B @ G], [F @ C, E]])
    return float(np.max(np.linalg.eigvals(M).real))


def _cos_inner(f: dict, k: int) -> float:
    """<cos(pi k x), f> on [0, 1] in closed form."""
    if f["kind"] == "constant":
        return f["value"] if k == 0 else 0.0
    if f["kind"] == "indicator":
        if k == 0:
            return f["xi2"] - f["xi1"]
        return (math.sin(math.pi * k * f["xi2"]) - math.sin(math.pi * k * f["xi1"])) / (math.pi * k)
    raise ValueError(f"no closed form for profile kind {f['kind']!r}")


def heat_stabilizable(b: float, f: dict) -> bool:
    """Acceptance criterion 1: every mode with pi^2 k^2 <= b sees the input."""
    unstable = [k for k in range(int(math.sqrt(max(b, 0.0)) / math.pi) + 2)
                if math.pi ** 2 * k ** 2 <= b]
    return all(abs(_cos_inner(f, k)) > 1e-12 for k in unstable)
