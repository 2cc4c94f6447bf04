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


def test_write_json_atomic_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"plant": _plant_doc(), "N": 4}
    write_json_atomic(str(path), doc)
    again = read_json(str(path), schema_name="config")
    assert again == {"plant": {"type": "heat", "b": 5.0,
                               "f": {"kind": "constant", "value": 1.0}}, "N": 4}
    write_json_atomic(str(path), {"plant": _plant_doc()})  # atomic overwrite
    assert "N" not in read_json(str(path))


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
    return f"{schema_name} schema: {first.message} (at {'/'.join(map(str, first.path))})"


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
    write_trajectory_csv(str(path), traj, n_plant=2)
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
    write_trajectory_csv(str(path), traj, n_plant=2)
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


def test_power_table_is_correctly_rounded():
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double narrower than a 64-bit mantissa: every cell falls back")
    powers = fileio._decimal_tables()[0]
    for k, p in zip(range(fileio._POW10_LOW, fileio._POW10_HIGH + 1), powers):
        num, den = p.as_integer_ratio()
        exact = Fraction(10) ** k
        # floor(log2(10**k)); 10**k is no power of two for k != 0
        log2 = (10 ** k).bit_length() - 1 if k >= 0 else -(10 ** -k).bit_length()
        half_ulp = Fraction(2) ** (log2 - 64)
        assert abs(Fraction(num, den) - exact) <= half_ulp, k


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


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 2001])
def test_trajectory_csv_rows_across_block_boundaries(tmp_path, rng, rows):
    traj = _trajectory(rng, rows)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), traj, n_plant=3)
    assert path.read_bytes() == _reference_csv(traj, 3)


def test_trajectory_csv_fallback_path_writes_the_same_bytes(tmp_path, rng, monkeypatch):
    traj = _trajectory(rng, 300)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_trajectory_csv(str(fast), traj, n_plant=3)
    # no rounding is decided in the formatter: every cell goes through "%.17g"
    monkeypatch.setattr(fileio, "_ROUNDING_MARGIN", 1.0)
    write_trajectory_csv(str(slow), traj, n_plant=3)
    assert slow.read_bytes() == fast.read_bytes() == _reference_csv(traj, 3)


def test_trajectory_csv_failure_mid_stream_keeps_the_old_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "trajectory.csv"
    path.write_bytes(b"old\n")
    format_rows, calls = fileio._format_rows, []

    def fail_on_second_block(cells):
        calls.append(len(cells))
        if len(calls) == 2:
            raise OSError("disk full")
        return format_rows(cells)

    monkeypatch.setattr(fileio, "_format_rows", fail_on_second_block)
    with pytest.raises(OSError, match="disk full"):
        write_trajectory_csv(str(path), _trajectory(rng, 600), n_plant=3)
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
