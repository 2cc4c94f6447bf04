"""Deterministic file formats: schema-validated JSON and 17-digit CSV.

Identical inputs must produce byte-identical files, so floats are always
rendered with %.17g (full round-trip precision), dictionaries keep their
construction order, and writes go through a temp file plus rename.

Trajectory rows are formatted by a numpy kernel that reproduces "%.17g"
byte for byte, 256 rows at a time.  For each cell it takes E = floor(log10|x|)
and s = |x| * 10**(16 - E) in long double, from a table of powers of ten
correctly rounded to a 64-bit mantissa (built on the first trajectory write).
The relative error of s is at most 2 * 2**-64, so below 0.011 for
s < 10**17, and round(s) is the 17-digit mantissa whenever frac(s) is at
least 0.015 away from 1/2.  The digits then go through the %g rules: trailing
zeros dropped, fixed notation for -4 <= E < 17, else an exponent of at least
two digits.  Cells within the margin, ties included, and nan and infinities
are formatted with "%.17g" itself; where long double has fewer than 64
mantissa bits, that is every nonzero cell.
"""

from __future__ import annotations

import contextlib
import functools
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


@contextlib.contextmanager
def _atomic_output(path: str, mode: str):
    """A file object that replaces ``path`` when the block exits normally;
    on any exception the temp file is removed and ``path`` is untouched."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str):
    with _atomic_output(path, "w") as fh:
        fh.write(text)


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
    columns = (traj.times[:, None], traj.states.real, traj.inputs.real, traj.outputs.real)
    with _atomic_output(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(traj.times), _BLOCK_ROWS):
            block = [c[start:start + _BLOCK_ROWS] for c in columns]
            fh.write(_format_rows(np.hstack(block, dtype=np.float64)))


# Trajectory rows are formatted this many at a time, so the text of a whole
# trajectory is never held in memory.
_BLOCK_ROWS = 256

# A cell whose scaled mantissa s has frac(s) within this of 1/2 is left to
# "%.17g": s is off by less than 0.011 (module docstring).
_ROUNDING_MARGIN = 0.015

# Exponents k of the table of 10**k: 16 - E for every float64 exponent E,
# with room for log10 missing by one.
_POW10_LOW, _POW10_HIGH = -294, 344
# Decimal exponents the exponent table covers, undecided cells' included.
_EXP_BIAS = 330

# Assembly layout of one cell, 46 bytes: sign, the "0.000" prefix of fixed
# notation below 1, the 17 digits each followed by a decimal-point slot, the
# exponent and the separator.  A cell's text is the subsequence its keep row
# selects; the bytes left out are zeroed and deleted.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,", dtype=np.uint8)
_DIGITS = slice(6, 40, 2)
_EXPONENT = slice(41, 45)
# Keep-row forms: fixed notation for E = -4..16, scientific with a two- or
# three-digit exponent, and zero.
_SCIENTIFIC, _ZERO = 21, 23


def _round_to_64_bits(num: int, den: int):
    """(m, e) with m * 2**e the nearest 64-bit-mantissa value to num / den
    (ties to even)."""
    e = num.bit_length() - den.bit_length() - 64
    if num << max(-e, 0) >= (den << max(e, 0)) << 64:
        e += 1
    n, d = num << max(-e, 0), den << max(e, 0)
    m, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and m & 1):
        m += 1
    return m, e


def _keep_row(form: int, significant: int, negative: bool) -> list:
    """Which of the 46 layout bytes make up one cell's "%.17g" text."""
    keep = [False] * _TEMPLATE.size
    keep[0] = negative
    keep[-1] = True
    if form == _ZERO:
        keep[1] = True
        return keep
    shown, point = significant, 0
    if form < _SCIENTIFIC:
        E = form - 4
        if E < 0:
            keep[1:2 - E] = [True] * (1 - E)    # "0." and -E - 1 zeros
            point = None
        else:
            shown, point = max(significant, E + 1), E
    else:
        keep[40:45] = [True, True, form > _SCIENTIFIC, True, True]
    for k in range(shown):
        keep[6 + 2 * k] = True
    if point is not None and significant > point + 1:
        keep[7 + 2 * point] = True
    return keep


@functools.cache
def _decimal_tables():
    """Lookup tables of the row formatter, built on its first call.

    10**k rounded to nearest in a 64-bit mantissa for k in [_POW10_LOW,
    _POW10_HIGH], from exact integers; the ASCII of 0000..9999 and of each
    signed three-digit exponent, as uint32 words; the keep rows by
    ((form * 17 + significant - 1) * 2 + negative); and each E's form.
    """
    pairs = [_round_to_64_bits(10 ** max(k, 0), 10 ** max(-k, 0))
             for k in range(_POW10_LOW, _POW10_HIGH + 1)]
    # two 32-bit halves are exact in any long double, and so is their sum
    hi = np.array([m >> 32 for m, _ in pairs], dtype=np.longdouble)
    lo = np.array([m & 0xFFFFFFFF for m, _ in pairs], dtype=np.longdouble)
    powers = np.ldexp(hi * 2.0 ** 32 + lo, [e for _, e in pairs])
    quads = (np.arange(10 ** 4)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    quads = quads.view(np.uint32).ravel()
    exponents = np.frombuffer("".join(f"{E:+04d}" for E in range(-_EXP_BIAS, _EXP_BIAS + 1))
                              .encode(), np.uint32)
    keep = np.array([_keep_row(form, significant, negative) for form in range(_ZERO + 1)
                     for significant in range(1, 18) for negative in (False, True)])
    E = np.arange(-_EXP_BIAS, _EXP_BIAS + 1)
    forms = np.where((E >= -4) & (E < 17), E + 4, _SCIENTIFIC + (np.abs(E) >= 100))
    return powers, quads, exponents, keep.astype(np.uint8) * 0xFF, forms


def _format_rows(cells: np.ndarray) -> bytes:
    """CSV lines of a 2-D float64 array: each entry as ``"%.17g" % v``."""
    powers, quads, exponents, keep, forms = _decimal_tables()
    x = cells.ravel()
    n = x.size
    a = np.abs(x)
    # without a 64-bit mantissa the error bound fails: every cell falls back
    regular = np.isfinite(a) & (a != 0) & (np.finfo(np.longdouble).nmant >= 63)
    a = np.where(regular, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    a = a.astype(np.longdouble)
    s = a * powers[16 - E - _POW10_LOW]
    # log10 may miss by one beside a power of ten
    miss = (s >= 1e17).astype(np.int64) - (s < 1e16)
    if miss.any():
        E += miss
        s = a * powers[16 - E - _POW10_LOW]
    D = np.rint(s)
    # |frac(s) - 1/2| = 1/2 - |s - round(s)|
    decided = (regular & (np.abs((s - D).astype(np.float64)) <= 0.5 - _ROUNDING_MARGIN)
               & (D >= 1e16) & (D <= 1e17))
    carry = D == 1e17
    E += carry
    D = np.where(carry, 1e16, D).astype(np.int64)

    buf = np.empty((n, _TEMPLATE.size), dtype=np.uint8)
    buf[:] = _TEMPLATE
    lead, tail = np.divmod(D, 10 ** 16)
    upper, lower = np.divmod(tail, 10 ** 8)
    chunks = np.stack([upper // 10 ** 4, upper % 10 ** 4, lower // 10 ** 4, lower % 10 ** 4], 1)
    digits = buf[:, _DIGITS]
    digits[:, 0] = 48 + lead
    digits[:, 1:] = quads[chunks].view(np.uint8).reshape(n, 16)
    significant = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)
    buf[:, _EXPONENT] = exponents[E + _EXP_BIAS].view(np.uint8).reshape(n, 4)
    buf.reshape(cells.shape + (_TEMPLATE.size,))[:, -1, -1] = ord("\n")

    form = np.where(decided, forms[E + _EXP_BIAS], np.where(x == 0, _ZERO, 0))
    buf &= keep[(form * 17 + significant - 1) * 2 + np.signbit(x)]
    undecided = np.flatnonzero(~decided & (x != 0))
    if undecided.size:
        text = ["%.17g" % v for v in x[undecided].tolist()]
        buf[undecided, :-1] = np.array(text, dtype=f"S{_TEMPLATE.size - 1}").view(
            np.uint8).reshape(-1, _TEMPLATE.size - 1)
    return buf.tobytes().translate(None, b"\0")


def write_sweep_csv(path: str, rows: list):
    """Rows of (N, tail_gain, gain_R, product, verdict)."""
    lines = ["N,tail_gain,gain_R,product,verdict"]
    for N, tail_g, gain_r, product, verdict in rows:
        lines.append("%d,%.17g,%.17g,%.17g,%s" % (N, tail_g, gain_r, product, verdict))
    write_text_atomic(path, "\n".join(lines) + "\n")
