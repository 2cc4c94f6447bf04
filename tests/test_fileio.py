import copy
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from modalstab import fileio
from modalstab.fileio import (SCHEMA_NAMES, SchemaViolation, dumps_canonical,
                              format_float, matrix_from_doc, matrix_to_doc,
                              read_json, schema_text, validate_document,
                              write_json_atomic, write_sweep_csv,
                              write_text_atomic, write_trajectory_csv)
from modalstab.simulate import Trajectory


def _plant_doc():
    return {"type": "heat", "b": 5.0, "f": {"kind": "constant", "value": 1.0}}


def test_format_float_round_trip(rng):
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"


def test_format_float_non_finite():
    assert format_float(math.nan) == '"nan"'
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'


def test_dumps_canonical_is_deterministic():
    doc = {"a": 1.5, "b": [1.0, 2.0, 3.0], "c": {"x": [[1.0, 0.0], [0.0, 1.0]]},
           "s": "text", "flag": True, "none": None}
    one = dumps_canonical(doc)
    two = dumps_canonical(json.loads(json.dumps(doc)))
    assert one == two
    assert json.loads(one) == doc
    # flat numeric lists stay on one line
    assert "[1, 2, 3]" in one.replace("1.0", "1").replace("\n", " ") or "1, 2, 3" in one


def _per_entry_list(seq, indent=0):
    """dumps_canonical's list branch with one recursive call per entry."""
    if all(isinstance(v, (int, float, bool)) or v is None for v in seq):
        return "[" + ", ".join(dumps_canonical(v) for v in seq) + "]"
    pad = "  " * indent
    items = [f"{pad}  {dumps_canonical(v, indent + 1)}" for v in seq]
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


@pytest.mark.parametrize("seq", [
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1],
    [1.5, 3, True, None, -0.0, math.nan],
    [2.0, np.int64(4), np.float64(0.1), np.float32(0.1)],
], ids=["floats", "mixed", "numpy_scalars"])
def test_dumps_canonical_flat_list_matches_per_entry_format(seq):
    assert dumps_canonical(seq) == _per_entry_list(seq)
    assert dumps_canonical({"row": seq}) == '{\n  "row": ' + _per_entry_list(seq, 1) + "\n}"


def _reference_format_float(x):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _reference_dumps(doc, indent=0):
    """dumps_canonical with one isinstance dispatch per value and one
    format_float call per float, kept as the byte reference."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_reference_dumps(v, indent + 1)}'
            for k, v in doc.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        seq = list(doc)
        if not seq:
            return "[]"
        if all(type(v) is float for v in seq):
            return "[" + ", ".join(map(_reference_format_float, seq)) + "]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(_reference_dumps(v) for v in seq) + "]"
        items = [f"{pad}  {_reference_dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(doc, bool) or doc is None:
        return json.dumps(doc)
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        return _reference_format_float(float(doc))
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22]
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_FLAT = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none())
_SCALARS = st.one_of(
    _FLAT, st.text(),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
# non-ASCII text, quotes, backslashes and control characters all need escaping
_KEYS = st.one_of(st.text(), st.sampled_from(["é", " ", "😀", '"', "\\", "\n"]),
                  st.integers(), _FLOATS, st.booleans())
_DOCS = st.recursive(
    _SCALARS | st.lists(_FLOATS, max_size=12) | st.lists(_FLAT, max_size=8),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(_DOCS, min_size=1, max_size=3))
def test_dumps_canonical_matches_the_per_value_writer(docs):
    # several documents in a row: a key cache must not carry one into the next
    for doc in docs:
        assert dumps_canonical(doc) == _reference_dumps(doc)
        assert dumps_canonical(doc, 2) == _reference_dumps(doc, 2)


def test_dumps_canonical_keys_equal_in_value_but_not_in_type():
    # 1 == 1.0 == True hash alike; each must keep its own text
    for key in (1, 1.0, True, "1", 0, 0.0, False, -0.0, "True"):
        doc = {key: [key]}
        assert dumps_canonical(doc) == _reference_dumps(doc)


@pytest.mark.parametrize("value", [np.bool_(True), object()], ids=["np_bool", "object"])
def test_dumps_canonical_refuses_other_types(value):
    for doc in (value, [value], [1.0, value], {"k": value}):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_canonical(doc)


def test_write_json_atomic_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"plant": _plant_doc(), "N": 4}
    write_json_atomic(str(path), doc)
    again = read_json(str(path), schema_name="config")
    assert again == {"plant": {"type": "heat", "b": 5.0,
                               "f": {"kind": "constant", "value": 1.0}}, "N": 4}
    write_json_atomic(str(path), {"plant": _plant_doc()})  # atomic overwrite
    assert "N" not in read_json(str(path))


def test_write_json_atomic_writes_the_canonical_bytes(tmp_path):
    # written as bytes: no host turns "\n" into "\r\n"
    path = tmp_path / "doc.json"
    doc = {"name": "näme\n", "rows": [[1.0, math.nan], [-0.0, 1e22]], "flag": True}
    write_json_atomic(str(path), doc)
    assert path.read_bytes() == dumps_canonical(doc).encode() + b"\n"
    assert b"\r" not in path.read_bytes() and path.read_bytes().isascii()


def test_write_text_atomic_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(str(target), "alpha\n")
    write_text_atomic(str(target), "beta\n")
    assert target.read_text() == "beta\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_validate_document_accepts_all_plants():
    validate_document(_plant_doc(), "plant")
    validate_document({"type": "wave", "b": 3.0, "kappa": 1.0,
                       "f": {"kind": "cosine", "k0": 1.0}}, "plant")
    validate_document({"type": "heat_boundary", "b": 5.0,
                       "f": {"kind": "indicator", "xi1": 0.0, "xi2": 0.5},
                       "a_grid": [6.0, 7.0]}, "plant")


def test_validate_document_reports_first_error():
    with pytest.raises(SchemaViolation):
        validate_document({"type": "heat"}, "plant")
    with pytest.raises(SchemaViolation):
        validate_document({"type": "heat", "b": 5.0,
                           "f": {"kind": "constant", "value": 1.0},
                           "extra": 1}, "plant")
    with pytest.raises(ValueError):
        validate_document({}, "no_such_schema")


def _controller_doc(rng, n=5):
    return {"E": matrix_to_doc(rng.standard_normal((n, n))),
            "F": matrix_to_doc(rng.standard_normal((n, 1))),
            "G": matrix_to_doc(rng.standard_normal((1, n))),
            "dims": {"n_unstable": 1, "n_retained": n - 1, "inputs": 1, "outputs": 1},
            "design": {"feedback_rate": 1.0, "observer_rate": "inf",
                       "feedback_residual": 0, "observer_residual": 1e-15}}


def _stock_validator(schema_name):
    """A stock Draft 2020-12 validator that resolves references to the shipped schemas."""
    schemas = [json.loads(schema_text(name)) for name in SCHEMA_NAMES]
    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in schemas)
    return Draft202012Validator(json.loads(schema_text(schema_name)), registry=registry)


def _stock_message(doc, schema_name):
    """validate_document's message, from a stock validator."""
    first = sorted(_stock_validator(schema_name).iter_errors(doc), key=lambda e: list(e.path))[0]
    where = "/".join(map(str, first.path)) or "<root>"
    return f"{schema_name} schema: {first.message} (at {where})"


def test_controller_validation_accepts_what_the_stock_validator_accepts(rng):
    doc = _controller_doc(rng)
    doc["E"][0] = [0, 1, -2, 3.5, 1e300]  # ints and floats mixed
    assert not list(_stock_validator("controller").iter_errors(doc))
    validate_document(doc, "controller")


@pytest.mark.parametrize("entry", ["1.0", True, None, [1.0], {}],
                         ids=["string", "bool", "null", "nested_list", "object"])
@pytest.mark.parametrize("matrix, row, col", [("E", 2, 3), ("F", 4, 0), ("G", 0, 0)])
def test_controller_validation_reports_the_stock_first_error(rng, entry, matrix, row, col):
    doc = _controller_doc(rng)
    doc[matrix][row][col] = entry
    with pytest.raises(SchemaViolation) as info:
        validate_document(doc, "controller")
    assert str(info.value) == _stock_message(doc, "controller")
    assert str(info.value).endswith(f"(at {matrix}/{row}/{col})")


@pytest.mark.parametrize("sweep_N", [[0], [2, 2.5], [3, True]])
def test_other_item_schemas_report_the_stock_first_error(sweep_N):
    # number entries under {"type": "integer", "minimum": 1} still get descended into
    doc = {"plant": _plant_doc(), "sweep_N": sweep_N}
    with pytest.raises(SchemaViolation) as info:
        validate_document(doc, "config")
    assert str(info.value) == _stock_message(doc, "config")


_PLANTS = [
    {"type": "heat", "b": 5.0, "f": {"kind": "constant", "value": 1.0}, "N_max": 8},
    {"type": "heat_boundary", "b": 5.0, "f": {"kind": "indicator", "xi1": 0.0, "xi2": 0.5},
     "a_grid": [6.0, 7.0], "N_max": 8},
    {"type": "wave", "b": 3.0, "kappa": 1.0, "f": {"kind": "cosine", "k0": 1.0}},
    {"type": "heat", "b": 2.0, "f": {"kind": "coefficients", "values": [1.0, 0.5]}},
    {"type": "heat", "b": 2.0, "f": {"kind": "samples", "values": [0.0, 0.5, 1.0, 0.5, 0.0]}},
]
_CONFIG = {"N": 4, "epsilon": 0.1, "beta_depth": 20, "margin_fraction": 0.5, "horizon": 2.0,
           "dt": 0.1, "seed": 0, "sweep_N": [2, 3], "controller_file": "controller.json"}
# Valid documents of each schema; between them they use every plant type,
# profile kind and x0 form.
_VALID_DOCS = {
    "config": [dict(_CONFIG, plant=plant, x0=x0)
               for plant, x0 in zip(_PLANTS, ["ones", [1.0, 2.0], "random", [0.5], "ones"])],
    "plant": _PLANTS,
    "controller": [{"E": [[1.0, 0.0], [0.5, -1.0]], "F": [[1.0], [0.0]], "G": [[0.0, 1.0]],
                    "dims": {"n_unstable": 1, "n_retained": 1, "inputs": 1, "outputs": 1},
                    "design": {"feedback_rate": 1.0, "observer_rate": "inf",
                               "feedback_residual": 0, "observer_residual": 1e-15}}],
    "certificate": [{"beta": 0.5, "product": 0.25, "gain_R": "inf", "gain_tail": 0.1, "N": 3,
                     "verdict": "Certified", "diagnostics": ["ok"]}],
}
# Numbers on either side of every bound, and wrong types: a string for an
# unknown kind, type, x0 mode or verdict, and 1.5 for an integer.
_NUMBERS = [-1, 0, 1, 41]
_OTHERS = ["text", True, None, [], ["x"], {}, 1.5]


def _nodes(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(doc, data):
    """doc with one change at a node drawn from it: the node replaced or
    dropped, an unknown key added to it, or its array emptied."""
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    parent, node = None, doc
    for step in path:
        parent, node = node, node[step]
    ops = ["other"] + ["number"] * (3 if type(node) in (int, float) else 1) \
        + ["drop"] * isinstance(parent, dict) + ["add"] * isinstance(node, dict) \
        + ["empty"] * isinstance(node, list)
    op = data.draw(st.sampled_from(ops))
    if op in ("number", "other"):
        value = copy.deepcopy(data.draw(st.sampled_from(_NUMBERS if op == "number" else _OTHERS)))
        if parent is None:
            return value
        parent[path[-1]] = value
    elif op == "drop":
        del parent[path[-1]]
    elif op == "add":
        node["unexpected"] = 1.0
    else:
        node.clear()
    return doc


def _recording(keyword, check, failed):
    def recorded(*args):
        for error in check(*args):
            failed.add(keyword)
            yield error
    return recorded


def test_validation_agrees_with_the_stock_validator_on_mutated_documents(monkeypatch):
    failed = set()  # keywords whose check yielded an error, inside oneOf/anyOf too
    for keyword, check in list(fileio._KEYWORDS.items()):
        monkeypatch.setitem(fileio._KEYWORDS, keyword, _recording(keyword, check, failed))
    stock_validators = {name: _stock_validator(name) for name in SCHEMA_NAMES}

    @settings(max_examples=1500, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def agrees(data):
        # twice as many configs: they carry the most keywords
        name = data.draw(st.sampled_from(("config",) + SCHEMA_NAMES))
        doc = copy.deepcopy(data.draw(st.sampled_from(_VALID_DOCS[name])))
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(doc, data)
        if not any(stock_validators[name].iter_errors(doc)):
            validate_document(doc, name)
            return
        with pytest.raises(SchemaViolation) as info:
            validate_document(doc, name)
        assert str(info.value) == _stock_message(doc, name)

    agrees()
    assert failed == set(fileio._KEYWORDS)


@pytest.mark.parametrize("schema, instance", [
    ({"minItems": 1}, []),
    ({"minItems": 5}, [1.0, 2.0]),
    ({"const": "heat"}, "wave"),
    ({"const": "heat"}, ["heat"]),
    ({"type": "integer"}, 1.0),
    ({"type": "integer"}, True),
    ({"type": "number"}, False),
    ({"enum": ["inf", "nan"]}, "-inf"),
    ({"minimum": 0, "exclusiveMinimum": 0}, -1),
    ({"maximum": 40, "exclusiveMaximum": 1}, 41.5),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}, {"type": "string"}]}, 2),
    ({"oneOf": [{"type": "number"}, {"type": "array", "minItems": 1}]}, []),
    ({"anyOf": [{"enum": ["a"]}, {"type": "integer"}]}, 2.5),
    ({"properties": {"a": {"minimum": 0}}, "required": ["b", "c"],
      "additionalProperties": False}, {"a": -1, "z": 0, "y": 1}),
], ids=["non_empty", "too_short", "const", "const_list", "integral_float",
        "bool_integer", "bool_number", "enum", "lower_bounds", "upper_bounds", "one_of_several",
        "one_of_none", "any_of", "object"])
def test_keyword_errors_match_the_stock_templates(schema, instance):
    ours = [message for _, message in fileio._errors(instance, schema, schema, ())]
    assert ours == [e.message for e in Draft202012Validator(schema).iter_errors(instance)]


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"x": {"type": "array", "uniqueItems": True}}},
    {"items": {"type": "float"}},
    {"type": ["string", "null"]},
    {"additionalProperties": {"type": "number"}},
    {"enum": [1, 2]},
    {"anyOf": [{"$ref": "#/$defs/missing"}]},
], ids=["pattern", "nested_keyword", "type", "type_list", "additional_schema", "number_enum",
        "bad_ref"])
def test_schema_outside_the_supported_keywords_is_refused(schema):
    with pytest.raises(ValueError):
        fileio._check_schema(schema, schema, {})


def test_loading_a_shipped_schema_with_an_unsupported_keyword_fails(monkeypatch):
    plant = json.loads(schema_text("plant"))
    plant["$defs"]["heat"]["properties"]["b"]["multipleOf"] = 0.5
    monkeypatch.setattr(fileio, "schema_text", lambda name: json.dumps(plant) if name == "plant"
                        else schema_text(name))
    fileio._schemas.cache_clear()
    with pytest.raises(ValueError, match="multipleOf"):
        validate_document(_plant_doc(), "config")


def test_matrix_round_trip(rng):
    M = rng.standard_normal((3, 4))
    doc = matrix_to_doc(M)
    assert matrix_from_doc(doc, rows=3, cols=4).real.tolist() == M.tolist()


def test_matrix_to_doc_rejects_complex_residue():
    with pytest.raises(ValueError):
        matrix_to_doc(np.array([[1.0 + 1e-3j]]))
    out = matrix_to_doc(np.array([[1.0 + 1e-14j]]))
    assert out == [[1.0]]


def test_matrix_from_doc_rejects_bad_shapes():
    with pytest.raises(SchemaViolation):
        matrix_from_doc([[1.0, 2.0], [3.0]])
    with pytest.raises(SchemaViolation):
        matrix_from_doc([[1.0, 2.0]], rows=2, cols=1)


def test_trajectory_csv_layout(tmp_path):
    times = np.array([0.0, 0.5])
    states = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    outputs = np.array([[7.0], [8.0]])
    inputs = np.array([[9.0], [10.0]])
    traj = Trajectory(times, states, outputs, inputs, dt=0.5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), [traj], n_plant=2)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x_1,x_2,w_1,u_1,y_1"
    first = lines[1].split(",")
    assert [float(v) for v in first] == [0.0, 1.0, 2.0, 3.0, 9.0, 7.0]
    assert len(lines) == 3


def _csv_cell(value) -> str:
    """The former per-cell CSV formatter, kept as the reference for both writers."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(float(value)).strip('"')


def test_trajectory_csv_matches_per_cell_format(tmp_path):
    # Integer-valued times, signed zeros, non-finite values, the smallest
    # subnormal and a large exponent, in complex and real columns alike.
    times = np.array([0.0, 1.0, 2.5])
    states = np.array([[math.nan, -0.0, 5e-324], [math.inf, -math.inf, 1e22],
                       [0.1, -2.0, 3.0]], dtype=np.complex128)
    inputs = np.array([[-0.0], [1e22], [math.nan]])
    outputs = np.array([[5e-324], [-math.inf], [7.0]])
    traj = Trajectory(times, states, outputs, inputs, dt=0.5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), [traj], n_plant=2)
    rows = ["t,x_1,x_2,w_1,u_1,y_1"]
    for i, t in enumerate(times):
        row = [t, *states[i].real, *inputs[i].real, *outputs[i].real]
        rows.append(",".join(_csv_cell(v) for v in row))
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
    assert rows[1] == "0,nan,-0,4.9406564584124654e-324,-0,4.9406564584124654e-324"


def _reference_rows(cells) -> bytes:
    return "".join(",".join(_csv_cell(v) for v in row) + "\n"
                   for row in np.asarray(cells).tolist()).encode()


def _assert_rows_match(values):
    cells = np.asarray(values, dtype=np.float64).reshape(1, -1)
    assert fileio._format_rows(cells) == _reference_rows(cells)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_row_formatter_matches_format_on_any_float(values):
    # st.floats() draws subnormals, signed zeros, infinities and nan
    _assert_rows_match(values)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), min_size=1, max_size=40))
def test_row_formatter_matches_format_on_any_bit_pattern(bits):
    _assert_rows_match(np.array(bits, dtype=np.uint64).view(np.float64))


def test_row_formatter_matches_format_on_random_bit_patterns(rng):
    bits = rng.integers(0, 2 ** 64, size=(20_000, 5), dtype=np.uint64)
    cells = bits.view(np.float64)
    assert fileio._format_rows(cells) == _reference_rows(cells)


def _neighbours(x: float, ulps: int) -> list:
    down = up = x
    out = [x]
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [float(down), float(up)]
    return out


def test_row_formatter_matches_format_beside_every_power_of_ten():
    # Includes values whose 17 digits round up to the next power of ten
    # (1e-305 is just below 10**-305) and log10 values that miss by one.
    values = [v for k in range(-324, 309) for v in _neighbours(float(f"1e{k}"), 2)]
    _assert_rows_match(values)
    _assert_rows_match([-v for v in values])


def test_row_formatter_matches_format_across_the_notation_switches():
    # %g turns scientific below 1e-4 and at 1e17, after rounding to 17 digits
    switches = [1e-5, 1e-4, 1e16, 1e17, 1e-4 * (1 - 2 ** -52), 1e17 * (1 - 2 ** -53),
                9.99999999999999995e-5, 99999999999999999.0, 1e100, 1e-100]
    values = [v for x in switches for v in _neighbours(x, 8)]
    _assert_rows_match(values + [-v for v in values])


def test_row_formatter_matches_format_where_the_point_moves():
    # fixed notation with 1 <= E <= 16 moves the point behind digit E + 1:
    # every such E with 1 to 17 significant digits, and the neighbours of 10**E
    digits = "98765432101234567"
    values = [float(f"{digits[0]}.{digits[1:k - 1]}{'3' if k > 1 else ''}e{E}")
              for E in range(1, 17) for k in range(1, 18)]
    values += [v for E in range(1, 17) for v in _neighbours(float(f"1e{E}"), 2)]
    _assert_rows_match(values)
    _assert_rows_match([-v for v in values])


def test_layout_rows_are_whole_words_and_keep_at_most_a_cell_of_text():
    # the formatter ands digit and exponent words into the rows; a row keeps
    # its separator and at most the 24 bytes of the longest "%.17g" text,
    # "-1.2345678901234567e-308"
    layouts = fileio._decimal_tables()[5]
    assert layouts.shape[1] % 8 == 0
    assert np.all(layouts[:, fileio._SEPARATOR] == ord(","))
    assert np.count_nonzero(layouts, axis=1).max() == 24 + 1


def _nearest_double(x: float, exact: Fraction) -> bool:
    """No double beside x is closer to the exact value than x."""
    return all(abs(exact - Fraction(x)) <= abs(exact - Fraction(float(np.nextafter(x, to))))
               for to in (-np.inf, np.inf))


def _bits(x: float) -> int:
    """Significant bits of a double."""
    num = abs(x.as_integer_ratio()[0])
    return (num >> ((num & -num).bit_length() - 1)).bit_length() if num else 0


def test_power_table_is_correctly_rounded():
    # 10**k = (hi + lo) * 2**e with hi the double nearest to 10**k / 2**e in
    # [1, 2] and lo the double nearest to the rest; hi is stored as two
    # halves of at most 26 bits for Dekker's exact product
    exponents, hi_high, hi_low, lo = fileio._decimal_tables()[0]
    assert exponents.size == fileio._POW10_HIGH - fileio._POW10_LOW + 1
    for k, e, high, low, rest in zip(range(fileio._POW10_LOW, fileio._POW10_HIGH + 1),
                                     exponents.tolist(), hi_high.tolist(), hi_low.tolist(),
                                     lo.tolist()):
        scaled = Fraction(10) ** k / Fraction(2) ** e
        assert 1 <= scaled < 2, k
        hi = high + low
        assert Fraction(hi) == Fraction(high) + Fraction(low), k
        assert _bits(high) <= 26 and _bits(low) <= 26, k
        assert _nearest_double(hi, scaled), k
        assert _nearest_double(rest, scaled - Fraction(hi)), k
        # what is left is below 2**-106, so the scaled mantissa is off by
        # less than 1e-14 (module docstring)
        assert abs(scaled - Fraction(hi) - Fraction(rest)) <= Fraction(1, 2 ** 106), k


def test_row_formatter_matches_format_on_ties_and_their_neighbours():
    # each of the first eleven bases b gives one k with an exact 17-digit
    # tie in b * (1 + 2**-k): 1 + 2**-17 is 1.00000762939453125; every such
    # value and its neighbours within 3 ulps must round as "%.17g" does
    bases = [1.0, 3.0, 5.0, 7.0, 0.75, 1.25, 9.5, 12345.0, 2.0 ** -10, 2.0 ** 20, 2.0 ** 50,
             0.1, 7e-300, 6.02e23]
    values = [v for b in bases for k in range(1, 60) for v in _neighbours(b * (1 + 2.0 ** -k), 3)]
    _assert_rows_match(values)
    _assert_rows_match([-v for v in values])


def test_row_formatter_matches_format_on_sparse_decaying_blocks(rng):
    # like a parabolic loop's trajectory: about half the cells exact zeros,
    # whole zero columns, signed zeros and subnormals among decayed modes
    cells = rng.standard_normal((61, 133)) * 10.0 ** -rng.integers(0, 320, size=(61, 133))
    cells[rng.random(cells.shape) < 0.3] = 0.0
    cells[:, 101:] = 0.0
    cells[:, 90:95] = -0.0
    cells[::7, 40:50] = np.array([5e-324, -5e-324, 2.2e-308, -1e-310, 4e-320,
                                  1e-323, -2.225073858507201e-308, 3e-315, 0.0, -0.0])
    assert 0.4 < np.mean(cells == 0) < 0.6
    assert fileio._format_rows(cells) == _reference_rows(cells)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (61, 133)])
def test_row_formatter_matches_format_on_all_zero_blocks(shape):
    cells = np.zeros(shape)
    cells[:, ::2] = -0.0
    assert fileio._format_rows(cells) == _reference_rows(cells)


def _trajectory(rng, rows: int, n_plant: int = 3) -> Trajectory:
    scale = 10.0 ** rng.integers(-30, 30, size=(rows, n_plant + 2))
    states = rng.standard_normal((rows, n_plant + 2)) * scale
    states[rng.random(states.shape) < 0.02] = 0.0
    states[rng.random(states.shape) < 0.01] = -0.0
    states[rng.random(states.shape) < 0.01] = math.nan
    inputs = rng.standard_normal((rows, 1))
    outputs = rng.standard_normal((rows, 2)) * 1e20
    return Trajectory(np.arange(rows) * 0.01, states.astype(np.complex128),
                      outputs, inputs, dt=0.01)


def _reference_csv(traj, n_plant: int) -> bytes:
    q = traj.states.shape[1] - n_plant
    header = (["t"] + [f"x_{i + 1}" for i in range(n_plant)] + [f"w_{i + 1}" for i in range(q)]
              + ["u_1"] + ["y_1", "y_2"])
    rows = [",".join(header)]
    for i, t in enumerate(traj.times):
        row = [t, *traj.states[i].real, *traj.inputs[i].real, *traj.outputs[i].real]
        rows.append(",".join(_csv_cell(v) for v in row))
    return ("\n".join(rows) + "\n").encode()


def _blocks(traj, rows: int) -> list:
    """traj as Trajectory blocks of ``rows`` consecutive rows."""
    return [Trajectory(traj.times[i:i + rows], traj.states[i:i + rows],
                       traj.outputs[i:i + rows], traj.inputs[i:i + rows], dt=traj.dt)
            for i in range(0, len(traj.times), rows)]


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 2001])
def test_trajectory_csv_rows_across_block_boundaries(tmp_path, rng, rows):
    traj = _trajectory(rng, rows)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), _blocks(traj, 256), n_plant=3)
    assert path.read_bytes() == _reference_csv(traj, 3)


def test_trajectory_csv_blocks_larger_than_the_first(tmp_path, rng):
    # the blocks of one write share buffers sized by the first block; a
    # larger block replaces them
    traj = _trajectory(rng, 600)
    edges = [0, 3, 300, 301, 600]
    blocks = [Trajectory(traj.times[a:b], traj.states[a:b], traj.outputs[a:b],
                         traj.inputs[a:b], dt=traj.dt) for a, b in zip(edges, edges[1:])]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), blocks, n_plant=3)
    assert path.read_bytes() == _reference_csv(traj, 3)


def test_trajectory_csv_fallback_path_writes_the_same_bytes(tmp_path, rng, monkeypatch):
    traj = _trajectory(rng, 300)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_trajectory_csv(str(fast), [traj], n_plant=3)
    # no rounding is decided in the formatter: every cell goes through "%.17g"
    monkeypatch.setattr(fileio, "_ROUNDING_MARGIN", 1.0)
    write_trajectory_csv(str(slow), [traj], n_plant=3)
    assert slow.read_bytes() == fast.read_bytes() == _reference_csv(traj, 3)


def test_trajectory_csv_failure_mid_stream_keeps_the_old_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "trajectory.csv"
    path.write_bytes(b"old\n")
    format_rows, calls = fileio._format_rows, []

    def fail_on_second_block(cells, buffers):
        calls.append(len(cells))
        if len(calls) == 2:
            raise OSError("disk full")
        return format_rows(cells, buffers)

    monkeypatch.setattr(fileio, "_format_rows", fail_on_second_block)
    with pytest.raises(OSError, match="disk full"):
        write_trajectory_csv(str(path), _blocks(_trajectory(rng, 600), 256), n_plant=3)
    assert calls == [256, 256]
    assert os.listdir(tmp_path) == ["trajectory.csv"]
    assert path.read_bytes() == b"old\n"


def test_sweep_csv_layout(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), [(2, 0.5, 3.0, 1.5, "Failed"),
                                (4, 0.1, 3.0, 0.3, "Certified")])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "N,tail_gain,gain_R,product,verdict"
    assert lines[1].split(",") == ["2", "0.5", "3", "1.5", "Failed"]
    assert lines[2].endswith("Certified")


def test_sweep_csv_matches_per_cell_format(tmp_path):
    rows = [(2, math.nan, math.inf, -math.inf, "Failed"),
            (np.int64(4), -0.0, 5e-324, 1e22, "Certified"),
            (65, 0.1, 3.0, 0.30000000000000004, "Failed")]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), rows)
    lines = ["N,tail_gain,gain_R,product,verdict"]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert lines[1] == "2,nan,inf,-inf,Failed"


def test_schema_text_is_valid_json():
    for name in SCHEMA_NAMES:
        parsed = json.loads(schema_text(name))
        assert parsed["$id"].endswith(f"{name}.schema.json")
