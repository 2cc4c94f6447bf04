"""Deterministic file formats: schema-validated JSON and 17-digit CSV.

Identical inputs must produce byte-identical files, so floats are always
rendered with %.17g (full round-trip precision), dictionaries keep their
construction order, and writes go through a temp file plus rename.

Trajectory rows are formatted by a numpy kernel that reproduces "%.17g"
byte for byte, in row blocks.  Zeros are "0" or "-0"; the digit stages run
on the finite nonzero cells only.  For each it takes E = floor(log10|x|) and
s = |x| * 10**(16 - E) as an unevaluated sum p + t of two doubles, from a
table of 10**k = (hi + lo) * 2**e with hi and lo correctly rounded (built
from exact ints on the first trajectory write).  |x| * 2**e is exact, p and
the error of its product with hi come from Dekker's exact two-product, and
t adds that error to the rounded product with lo.  For s < 2**57 the
rounding of that product (2**-50), of the sum (2**-49) and the part of
10**k below lo (2**-106 relative, 2**-49) keep |p + t - s| below
3 * 2**-49 < 1e-14.  p is an integer above 2**53, so round(s) =
p + round(t) is the 17-digit mantissa whenever frac(s) is more than 1e-9
(_ROUNDING_MARGIN) away from 1/2.  No long double is involved, so every
host takes this path.
Each cell's text is assembled in a 32-byte row of four 8-byte words: the
sign, the "0.000" prefix of fixed notation below 1, the lead digit and the
decimal point; the other 16 digits; the exponent, the separator and two pad
bytes.  The %g rules pick the cell's layout row by notation, significant
digits and sign: trailing zeros dropped, fixed notation for -4 <= E < 17,
else an exponent of at least two digits.  The row holds 0xFF where the
cell's digit and exponent words are and-ed in and zeros where a byte is not
shown, which are deleted.  Fixed notation with 1 <= E <= 16 moves the point
behind digit E + 1 by one byte gather.  Cells within the margin (in
practice exact ties) and nan and infinities are formatted with "%.17g"
itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import numbers
import operator
import os
import tempfile
from importlib import resources

import numpy as np

from .errors import ModalToolkitError

SCHEMA_NAMES = ("config", "plant", "controller", "certificate")


class SchemaViolation(ModalToolkitError):
    """Configuration or document fails its JSON schema."""


def format_float(x: float) -> str:
    text = "%.17g" % x
    # only "nan", "inf" and "-inf" contain an n
    return f'"{text}"' if "n" in text else text


# exact scalar types; numpy scalars and subclasses take the isinstance chain
_SCALARS = {
    float: format_float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    str: json.dumps,
    type(None): lambda _: "null",
}
# a document's keys are a few fixed names, so their JSON text is reused
_key_text = functools.lru_cache(maxsize=1024)(json.dumps)


def dumps_canonical(doc, indent: int = 0) -> str:
    """JSON text with fixed float formatting and stable key order."""
    scalar = _SCALARS.get(type(doc))
    if scalar is not None:
        return scalar(doc)
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [f'{pad}  {_key_text(str(k))}: {dumps_canonical(v, indent + 1)}'
                 for k, v in doc.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        seq = list(doc)
        if not seq:
            return "[]"
        if all(type(v) is float for v in seq):
            text = ", ".join(["%.17g"] * len(seq)) % tuple(seq)
            if "n" in text:  # nan or an infinity: quoted
                text = ", ".join(map(format_float, seq))
            return "[" + text + "]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(dumps_canonical(v) for v in seq) + "]"
        items = [f"{pad}  {dumps_canonical(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
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
    """Write ``text`` as UTF-8 bytes, with no newline translation on any host."""
    with _atomic_output(path, "wb") as fh:
        fh.write(text.encode())


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
    if rows == 0 and M.shape == (0,):  # [] is the one document of a matrix with no rows
        M = M.reshape(0, cols or 0)
    if M.ndim != 2:
        raise SchemaViolation("matrix must be a rectangular array of arrays")
    if rows is not None and M.shape[0] != rows:
        raise SchemaViolation(f"matrix has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise SchemaViolation(f"matrix has {M.shape[1]} columns, expected {cols}")
    return M


def schema_text(name: str) -> str:
    path = resources.files("modalstab") / "schemas" / f"{name}.schema.json"
    return path.read_text(encoding="utf-8")


# Each keyword check takes (value, instance, schema, root, path) and yields
# (path, message) pairs in the order, and with the text, of jsonschema's
# Draft 2020-12 validator.  root is the shipped schema that "#" references
# resolve in.

def _is_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Number)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}
_NUMBER = {"type": "number"}


def _type(name, x, schema, root, path):
    if not _TYPES[name](x):
        yield path, f"{x!r} is not of type {name!r}"


def _properties(properties, x, schema, root, path):
    if isinstance(x, dict):
        for key, sub in properties.items():
            if key in x:
                yield from _errors(x[key], sub, root, path + (key,))


def _required(required, x, schema, root, path):
    if isinstance(x, dict):
        for key in required:
            if key not in x:
                yield path, f"{key!r} is a required property"


def _additional_properties(allowed, x, schema, root, path):
    if isinstance(x, dict):
        extras = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield path, (f"Additional properties are not allowed "
                         f"({', '.join(map(repr, extras))} {verb} unexpected)")


def _items(items, x, schema, root, path):
    if not isinstance(x, list):
        return
    # a flat row of numbers (a controller matrix row) takes one pass
    if items == _NUMBER and {*map(type, x)} <= {float, int}:
        return
    for index, entry in enumerate(x):
        yield from _errors(entry, items, root, path + (index,))


def _min_items(least, x, schema, root, path):
    if isinstance(x, list) and len(x) < least:
        yield path, f"{x!r} {'should be non-empty' if least == 1 else 'is too short'}"


def _const(const, x, schema, root, path):
    if x != const:
        yield path, f"{const!r} was expected"


def _enum(enum, x, schema, root, path):
    if x not in enum:
        yield path, f"{x!r} is not one of {enum!r}"


def _bound(fails, words):
    def check(limit, x, schema, root, path):
        if _is_number(x) and fails(x, limit):
            yield path, f"{x!r} is {words} {limit!r}"
    return check


def _one_of(subschemas, x, schema, root, path):
    valid = [sub for sub in subschemas if _valid(x, sub, root)]
    if not valid:
        yield path, f"{x!r} is not valid under any of the given schemas"
    elif len(valid) > 1:
        yield path, f"{x!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"


def _any_of(subschemas, x, schema, root, path):
    if not any(_valid(x, sub, root) for sub in subschemas):
        yield path, f"{x!r} is not valid under any of the given schemas"


def _ref(ref, x, schema, root, path):
    target, sub = _resolve(ref, root, _schemas()[1])
    yield from _errors(x, sub, target, path)


_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "const": _const,
    "enum": _enum,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "greater than or equal to the maximum of"),
    "oneOf": _one_of,
    "anyOf": _any_of,
    "$ref": _ref,
}
_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "title", "description"})


def _errors(x, schema, root, path):
    """(path, message) of every error of instance x under schema, in schema
    key order."""
    for key, value in schema.items():
        check = _KEYWORDS.get(key)
        if check is not None:
            yield from check(value, x, schema, root, path)


def _valid(x, schema, root) -> bool:
    return next(_errors(x, schema, root, ()), None) is None


def _resolve(ref: str, root: dict, by_id: dict):
    """(schema containing the target, target) of a "$ref": a JSON pointer
    into root, or into the schema of by_id whose "$id" the reference names."""
    uri, _, pointer = ref.partition("#")
    target = by_id[uri] if uri else root
    sub = target
    for step in pointer.split("/")[1:]:
        sub = sub[step]
    return target, sub


def _check_schema(schema, root: dict, by_id: dict):
    """Raise ValueError at the first part of schema the validator would not
    interpret as jsonschema does, so that no schema edit is ignored silently."""
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported subschema {schema!r}")
    unknown = sorted(set(schema) - _KEYWORDS.keys() - _ANNOTATIONS)
    if unknown:
        raise ValueError(f"unsupported schema keyword {unknown[0]!r}")
    if "type" in schema and not (isinstance(schema["type"], str) and schema["type"] in _TYPES):
        raise ValueError(f"unsupported type {schema['type']!r}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("additionalProperties must be false")
    if not all(isinstance(v, str) for v in [schema.get("const", ""), *schema.get("enum", [])]):
        raise ValueError("const and enum values must be strings")
    if "$ref" in schema:
        try:
            _resolve(schema["$ref"], root, by_id)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"unresolvable $ref {schema['$ref']!r}") from exc
    subschemas = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
                  *schema.get("oneOf", []), *schema.get("anyOf", [])]
    if "items" in schema:
        subschemas.append(schema["items"])
    for sub in subschemas:
        _check_schema(sub, root, by_id)


@functools.cache
def _schemas():
    """The shipped schemas by name and by "$id", loaded and checked once."""
    by_name = {name: json.loads(schema_text(name)) for name in SCHEMA_NAMES}
    by_id = {schema["$id"]: schema for schema in by_name.values()}
    for schema in by_name.values():
        _check_schema(schema, schema, by_id)
    return by_name, by_id


def validate_document(doc: dict, schema_name: str):
    """Raise SchemaViolation (with the offending path) unless doc conforms.

    The shipped schemas are interpreted directly, keyword by keyword.  The
    error reported is jsonschema's: of the errors in the order its Draft
    2020-12 validator yields them, the first with the least path.  Validation
    descends only as far as the schemas reach: none refers back to itself, so
    at most 4 path steps (as in plant/f/values/0), whatever the nesting depth
    of doc.
    """
    if schema_name not in SCHEMA_NAMES:
        raise ValueError(f"unknown schema {schema_name!r}")
    root = _schemas()[0][schema_name]
    first = min(_errors(doc, root, root, ()), key=lambda error: error[0], default=None)
    if first is not None:
        where = "/".join(map(str, first[0])) or "<root>"
        raise SchemaViolation(f"{schema_name} schema: {first[1]} (at {where})")


def read_json(path: str, schema_name: str = None) -> dict:
    def non_finite(name: str):  # json.load would read NaN, Infinity, -Infinity
        raise SchemaViolation(f"{path}: invalid JSON: {name} is not a number")

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=non_finite)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolation(f"{path}: invalid JSON: {exc}") from exc
    if schema_name is not None:
        validate_document(doc, schema_name)
    return doc


def write_trajectory_csv(path: str, blocks, n_plant: int):
    """t, x_1..x_n, w_1..w_q, u_1..u_m, y_1..y_p rows at full precision.

    ``blocks`` yields the trajectory as Trajectory blocks of consecutive
    rows; each is formatted and written as it arrives, so only one block's
    text is ever held in memory, in buffers that every block reuses.
    """
    buffers = None
    with _atomic_output(path, "wb") as fh:
        for i, block in enumerate(blocks):
            if i == 0:
                q = block.states.shape[1] - n_plant
                header = (["t"]
                          + [f"x_{k + 1}" for k in range(n_plant)]
                          + [f"w_{k + 1}" for k in range(q)]
                          + [f"u_{k + 1}" for k in range(block.inputs.shape[1])]
                          + [f"y_{k + 1}" for k in range(block.outputs.shape[1])])
                fh.write((",".join(header) + "\n").encode())
            columns = (block.times[:, None], block.states.real, block.inputs.real,
                       block.outputs.real)
            rows = len(block.times)
            if buffers is None or rows > len(buffers.cells):
                buffers = _RowBuffers(rows, sum(c.shape[1] for c in columns))
            cells = np.concatenate(columns, axis=1, out=buffers.cells[:rows])
            fh.write(_format_rows(cells, buffers))


class _RowBuffers:
    """The arrays that formatting a block fills, for blocks of up to ``rows``
    rows of ``columns`` cells.

    The blocks of one trajectory write share one set, so that blocks after
    the first write into pages the first one faulted in.  All are allocated
    at once, before the first block's temporaries: allocated one by one
    among them, they left a long-running process's heap about 2 MB higher
    after the write.
    """

    def __init__(self, rows: int, columns: int):
        size = rows * columns
        self.cells = np.empty((rows, columns))
        self.chunks = np.empty((size, 4), np.uint32)
        self.quads = np.empty((size, 4), np.uint32)
        self.text, self.rows = np.empty((2, size, _ROW), np.uint8)


# A cell whose scaled mantissa s has frac(s) within this of 1/2 is left to
# "%.17g": s is off by less than 1e-14 (module docstring).
_ROUNDING_MARGIN = 1e-9

# Exponents k of the table of 10**k: 16 - E for every float64 exponent E,
# with room for log10 missing by one.
_POW10_LOW, _POW10_HIGH = -294, 344
# Decimal exponents the exponent table covers, undecided cells' included.
_EXP_BIAS = 330
# Veltkamp's splitter: v * _SPLIT splits a double into two 26-bit halves.
_SPLIT = 2.0 ** 27 + 1

# The cell layout of the module docstring, and its slots.
_TEMPLATE = np.frombuffer(b"-0.0000.0000000000000000e+000,\0\0", dtype=np.uint8)
_ROW, _LEAD, _POINT, _EXP, _SEPARATOR = _TEMPLATE.size, 6, 7, 24, 29
# Keep-row forms: fixed notation for E = -4..16, scientific with a two- or
# three-digit exponent, and zero.
_SCIENTIFIC, _ZERO = 21, 23


def _keep_rows():
    """Which of the 32 layout bytes make up "%.17g" text, by keep row
    (form * 17 + significant - 1) * 2 + negative."""
    form, significant, negative = (v.reshape(-1, 1) for v in np.meshgrid(
        np.arange(_ZERO + 1), np.arange(1, 18), [False, True], indexing="ij"))
    j = np.arange(_ROW)
    E, zero = form - 4, form == _ZERO
    # digits before the point; below 1 the point is the prefix's
    before = np.where(form < _SCIENTIFIC, E + 1, 1)
    shown = np.where(zero, 0, np.maximum(significant, before))
    digit = np.where(j == _LEAD, 1, np.where((j > _POINT) & (j < _EXP), j - 6, 18))
    return (((j == 0) & negative) | (j == _SEPARATOR) | (digit <= shown)
            | (j == _POINT) & (before > 0) & (significant > before) & ~zero
            | (E < 0) & (j > 0) & (j < 2 - E)    # "0." and -E - 1 zeros
            | zero & (j == 1)
            | (form >= _SCIENTIFIC) & ~zero & (j >= _EXP) & (j < _SEPARATOR)
            & ((j != _EXP + 2) | (form > _SCIENTIFIC)))


def _split(v):
    """(high, low), v = high + low exactly, each with at most 26 significant bits."""
    c = v * _SPLIT
    high = c - (c - v)
    return high, v - high


def _power_of_ten(k: int):
    """(e, hi, lo): 10**k = (hi + lo + tail) * 2**e with hi the double nearest
    to 10**k / 2**e in [1, 2], lo the double nearest to the rest, and
    |tail| <= 2**-106."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    e = num.bit_length() - den.bit_length()
    num, den = num << max(-e, 0), den << max(e, 0)
    if num < den:
        num, e = num << 1, e - 1
    hi = num / den    # int true division rounds correctly
    # hi * 2**52 is an integer, so the rest num / den - hi is a ratio of ints
    return e, hi, ((num << 52) - int(hi * 2.0 ** 52) * den) / (den << 52)


@functools.cache
def _decimal_tables():
    """Lookup tables of the row formatter, built on its first call.

    For k in [_POW10_LOW, _POW10_HIGH], 10**k as its binary exponent e and
    the double-double 10**k / 2**e, hi pre-split (_power_of_ten); each of
    0000..9999 as 4 ASCII digits in a uint32 word, and its trailing-zero
    count; the lead digits 0..9 as word 0 of a layout row and each signed
    three-digit exponent as word 3, 0xFF in the other bytes; the layout
    rows, the template bytes each keep row selects (_keep_rows); each E's
    form; and for E = 0..16 the byte gather that moves the point behind
    digit E + 1.  Words are built byte by byte, so that and-ing them into
    the layout's bytes is the same on any host's byte order.
    """
    e, hi, lo = np.array([_power_of_ten(k) for k in range(_POW10_LOW, _POW10_HIGH + 1)]).T
    # ldexp takes a C int exponent; an int64 one costs it a slow cast
    powers = (e.astype(np.intc), *_split(hi), lo)
    chunks = np.arange(10 ** 4)
    quads = (chunks[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    # trailing zeros of the four digits; 0000 is left to the caller
    trailing = (chunks % 10 == 0).astype(np.int64) + (chunks % 100 == 0) + (chunks % 1000 == 0)
    E = np.arange(-_EXP_BIAS, _EXP_BIAS + 1)
    leads, exponents = np.full((10, 8), 0xFF, np.uint8), np.full((E.size, 8), 0xFF, np.uint8)
    leads[:, _LEAD] = np.arange(48, 58)
    exponents[:, 1] = np.where(E < 0, 45, 43)
    exponents[:, 2:5] = np.abs(E)[:, None] // [100, 10, 1] % 10 + 48
    forms = np.where((E >= -4) & (E < 17), E + 4, _SCIENTIFIC + (np.abs(E) >= 100))
    layout = _TEMPLATE.copy()
    layout[[_LEAD, *range(_POINT + 1, _EXP), *range(_EXP + 1, _SEPARATOR)]] = 0xFF
    j, E = np.arange(_ROW), np.arange(17)[:, None]
    moves = np.where((j >= _POINT) & (j < _POINT + E), j + 1, np.where(j == _POINT + E, _POINT, j))
    return (powers, quads.view(np.uint32).ravel(), trailing, leads.view(np.uint64).ravel(),
            exponents.view(np.uint64).ravel(), _keep_rows().astype(np.uint8) * layout, forms,
            moves)


def _scaled(a: np.ndarray, E: np.ndarray, powers):
    """(p, t) with p + t = a * 10**(16 - E) to within 3 * 2**-49 where that
    is below 2**57: p is the rounded product of a * 2**e and hi, and t its
    exact error (Dekker's two-product) plus the rounded product with lo."""
    k = 16 - _POW10_LOW - E
    e, hi_high, hi_low, lo = (np.take(table, k) for table in powers)
    a = np.ldexp(a, e)
    p = a * (hi_high + hi_low)
    a_high, a_low = _split(a)
    err = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    return p, err + a * lo


def _format_rows(cells: np.ndarray, buffers: _RowBuffers = None) -> bytes:
    """CSV lines of a 2-D float64 array: each entry as ``"%.17g" % v``.

    The digit chunks and the assembled text are built in ``buffers``, fresh
    ones unless given.  The takes into them use mode="clip", as every index
    is in range and the default "raise" would copy through a temporary.
    """
    buffers = _RowBuffers(*cells.shape) if buffers is None else buffers
    powers, quads, trailing, leads, exponents, layouts, forms, moves = _decimal_tables()
    x = cells.ravel()
    finite = np.isfinite(x)
    nonzero = np.flatnonzero(finite & (x != 0))
    a = np.abs(np.take(x, nonzero))
    E = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, E, powers)
    # log10 may miss by one beside a power of ten: s >= 1e17 or s < 1e16
    miss = ((p - 1e17) + t >= 0).astype(np.int64) - ((p - 1e16) + t < 0)
    redo = np.flatnonzero(miss)
    if redo.size:
        E[redo] += miss[redo]
        p[redo], t[redo] = _scaled(a[redo], E[redo], powers)
    r = np.rint(t)
    # |frac(s) - 1/2| = 1/2 - |t - round(t)|; p is an integer wherever D is
    # in range, as 1e16 - 24 > 2**53
    D = p.astype(np.int64) + r.astype(np.int64)
    decided = (np.abs(t - r) <= 0.5 - _ROUNDING_MARGIN) & (D >= 10 ** 16) & (D <= 10 ** 17)
    carry = D == 10 ** 17
    E += carry
    D[carry] = 10 ** 16

    # D = lead * 10**16 + upper * 10**8 + lower: unsigned division is the
    # cheaper one, and every quotient lands in a preallocated array
    m = a.size
    D = D.view(np.uint64)
    top, lower, lead, upper = (np.empty(m, np.uint64) for _ in range(4))
    np.floor_divide(D, 10 ** 8, out=top)
    np.subtract(D, top * 10 ** 8, out=lower)
    np.floor_divide(top, 10 ** 8, out=lead)
    np.subtract(top, lead * 10 ** 8, out=upper)
    chunks = buffers.chunks[:m]
    np.floor_divide(upper, 10 ** 4, out=chunks[:, 0])
    np.subtract(upper, chunks[:, 0] * 10 ** 4, out=chunks[:, 1])
    np.floor_divide(lower, 10 ** 4, out=chunks[:, 2])
    np.subtract(lower, chunks[:, 2] * 10 ** 4, out=chunks[:, 3])

    quad_text = np.take(quads, chunks, out=buffers.quads[:m], mode="clip")
    significant = 17 - np.take(trailing, chunks[:, 3])
    empty = np.flatnonzero(chunks[:, 3] == 0)
    tail = quad_text.view(np.uint8)[empty, ::-1] != 48    # digits 17 down to 2
    significant[empty] = np.where(tail.any(axis=1), 17 - np.argmax(tail, axis=1), 1)
    form = np.where(decided, np.take(forms, E + _EXP_BIAS), 0)
    negative = np.signbit(x)
    text = np.take(layouts, (form * 17 + significant - 1) * 2 + negative[nonzero], axis=0,
                   out=buffers.text[:m], mode="clip")
    # one strided pass per word: a (m, 2) block would loop two words at a time
    for w, word in enumerate([np.take(leads, lead.view(np.int64), mode="clip"),
                              *quad_text.view(np.uint64).T, np.take(exponents, E + _EXP_BIAS)]):
        text.view(np.uint64)[:, w] &= word
    moved = np.flatnonzero((form > 4) & (form < _SCIENTIFIC))    # 1 <= E <= 16
    if moved.size:
        text[moved] = text.ravel()[moved[:, None] * _ROW + moves[form[moved] - 4]]

    # zeros by sign, then the nonzero cells' rows; nan, infinities and
    # undecided cells are overwritten below
    buf = text
    if nonzero.size < x.size:
        buf = np.take(layouts[_ZERO * 17 * 2:][:2], negative.view(np.uint8), axis=0,
                      out=buffers.rows[:x.size], mode="clip")
        np.put(buf.view(f"V{_ROW}").ravel(), nonzero, text.view(f"V{_ROW}").ravel())
    buf.reshape(cells.shape + (_ROW,))[:, -1, _SEPARATOR] = ord("\n")
    undecided = np.concatenate([nonzero[~decided], np.flatnonzero(~finite)])
    if undecided.size:
        text = ["%.17g" % v for v in x[undecided].tolist()]
        buf[undecided, :_SEPARATOR] = np.array(text, dtype=f"S{_SEPARATOR}").view(
            np.uint8).reshape(-1, _SEPARATOR)
    return buf.tobytes().translate(None, b"\0")


def write_sweep_csv(path: str, rows: list):
    """Rows of (N, tail_gain, gain_R, product, verdict)."""
    lines = ["N,tail_gain,gain_R,product,verdict"]
    for N, tail_g, gain_r, product, verdict in rows:
        lines.append("%d,%.17g,%.17g,%.17g,%s" % (N, tail_g, gain_r, product, verdict))
    write_text_atomic(path, "\n".join(lines) + "\n")
