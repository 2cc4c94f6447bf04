"""Deterministic file formats: schema-validated JSON and 17-digit CSV.

Identical inputs must produce byte-identical files, so floats are always
rendered with %.17g (full round-trip precision), dictionaries keep their
construction order, and writes go through a temp file plus rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from importlib import resources

import numpy as np
from jsonschema import Draft202012Validator, validators
from referencing import Registry, Resource

from .errors import ModalToolkitError

SCHEMA_NAMES = ("config", "plant", "controller", "certificate")


class SchemaViolation(ModalToolkitError):
    """Configuration or document fails its JSON schema."""


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def dumps_canonical(doc, indent: int = 0) -> str:
    """JSON text with fixed float formatting and stable key order."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}'
            for k, v in doc.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        seq = list(doc)
        if not seq:
            return "[]"
        if all(type(v) is float for v in seq):
            return "[" + ", ".join(map(format_float, seq)) + "]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(dumps_canonical(v) for v in seq) + "]"
        items = [f"{pad}  {dumps_canonical(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(doc, bool) or doc is None:
        return json.dumps(doc)
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        return format_float(float(doc))
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def write_text_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, doc: dict):
    write_text_atomic(path, dumps_canonical(doc) + "\n")


def matrix_to_doc(M: np.ndarray) -> list:
    """Row-major nested lists.  Modal plant data is real, so a complex
    residue above roundoff is a bug upstream, not something to serialize."""
    M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    residue = float(np.max(np.abs(M.imag), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(M.real), initial=0.0))
    if residue > 1e-10 * scale:
        raise ValueError(f"matrix has imaginary residue {residue:g}; cannot export")
    return M.real.tolist()


def matrix_from_doc(doc, rows: int = None, cols: int = None) -> np.ndarray:
    try:
        M = np.asarray(doc, dtype=np.float64)
    except ValueError as exc:
        raise SchemaViolation(f"ragged matrix rows: {exc}") from exc
    if M.ndim != 2:
        raise SchemaViolation("matrix must be a rectangular array of arrays")
    if rows is not None and M.shape[0] != rows:
        raise SchemaViolation(f"matrix has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise SchemaViolation(f"matrix has {M.shape[1]} columns, expected {cols}")
    return M


_REGISTRY = None
_VALIDATORS = {}
_NUMBER = {"type": "number"}


def _items(validator, items, instance, schema):
    """Draft 2020-12 ``items``, without one subschema descent per entry for a
    flat array of numbers (a controller matrix has thousands of entries)."""
    if (items == _NUMBER and type(instance) is list and "prefixItems" not in schema
            and all(type(v) is float or type(v) is int for v in instance)):
        return
    yield from Draft202012Validator.VALIDATORS["items"](validator, items, instance, schema)


_Validator = validators.extend(Draft202012Validator, {"items": _items})


def _schema_registry():
    global _REGISTRY
    if _REGISTRY is None:
        resources_map = {}
        for name in SCHEMA_NAMES:
            raw = (resources.files("modalstab") / "schemas" / f"{name}.schema.json").read_text()
            schema = json.loads(raw)
            resources_map[schema["$id"]] = Resource.from_contents(schema)
        _REGISTRY = Registry().with_resources(resources_map.items())
    return _REGISTRY


def schema_text(name: str) -> str:
    return (resources.files("modalstab") / "schemas" / f"{name}.schema.json").read_text()


def validate_document(doc: dict, schema_name: str):
    """Raise SchemaViolation (with the offending path) unless doc conforms."""
    if schema_name not in SCHEMA_NAMES:
        raise ValueError(f"unknown schema {schema_name!r}")
    if schema_name not in _VALIDATORS:
        schema = json.loads(schema_text(schema_name))
        _VALIDATORS[schema_name] = _Validator(schema, registry=_schema_registry())
    errors = sorted(_VALIDATORS[schema_name].iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.path) or "<root>"
        raise SchemaViolation(f"{schema_name} schema: {first.message} (at {where})")


def read_json(path: str, schema_name: str = None) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid JSON: {exc}") from exc
    if schema_name is not None:
        validate_document(doc, schema_name)
    return doc


def write_trajectory_csv(path: str, traj, n_plant: int):
    """t, x_1..x_n, w_1..w_q, u_1..u_m, y_1..y_p rows at full precision."""
    n_total = traj.states.shape[1]
    q = n_total - n_plant
    header = (["t"]
              + [f"x_{i + 1}" for i in range(n_plant)]
              + [f"w_{i + 1}" for i in range(q)]
              + [f"u_{i + 1}" for i in range(traj.inputs.shape[1])]
              + [f"y_{i + 1}" for i in range(traj.outputs.shape[1])])
    lines = [",".join(header)]
    for i, t in enumerate(traj.times):
        row = [t]
        row.extend(traj.states[i].real)
        row.extend(traj.inputs[i].real)
        row.extend(traj.outputs[i].real)
        # %.17g writes nan, inf, -inf and -0 as format_float does, unquoted
        lines.append(",".join(map("%.17g".__mod__, row)))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_sweep_csv(path: str, rows: list):
    """Rows of (N, tail_gain, gain_R, product, verdict)."""
    lines = ["N,tail_gain,gain_R,product,verdict"]
    for N, tail_g, gain_r, product, verdict in rows:
        lines.append("%d,%.17g,%.17g,%.17g,%s" % (N, tail_g, gain_r, product, verdict))
    write_text_atomic(path, "\n".join(lines) + "\n")
