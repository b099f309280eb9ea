import json

import numpy as np

from output_gate import _parse, _relative_difference


def test_csv_columns_are_scaled_by_their_own_largest_value():
    old = _parse("a.csv", b"t,y\n0,1\n1,-4\n")
    new = _parse("a.csv", b"t,y\n0,1.5\n2,-4\n")
    assert old[0] == new[0] == ("t,y", (2, 2))
    assert _relative_difference(old[1], new[1]) == 1.0  # t moved by 1 of 1; y by 0.5 of 4


def test_json_floats_are_columns_and_everything_else_is_exact():
    doc = {"status": "converged", "iterations": 3, "coefficients": [1.0, -2.0], "cost": 0.5}
    shape, columns = _parse("c.json", json.dumps(doc).encode())
    assert shape == {"status": "converged", "iterations": 3,
                     "coefficients": [float, float], "cost": float}
    moved = dict(doc, coefficients=[1.0, -1.5])
    assert _relative_difference(columns, _parse("c.json", json.dumps(moved).encode())[1]) == 0.25
    assert _parse("c.json", json.dumps(dict(doc, iterations=4)).encode())[0] != shape


def test_state_bin_header_is_exact_and_non_finite_entries_must_match():
    header = np.array([1, 5, 1, 2], dtype=np.int64).tobytes()
    path = np.array([0.0, 1.0, np.nan, 2.0])
    old = _parse("state.bin", header + path.tobytes())
    assert old[0] == header
    same_nan = _relative_difference(old[1], _parse("state.bin", header + path.tobytes())[1])
    assert same_nan == 0.0
    moved = _parse("state.bin", header + np.array([0.0, 1.0, 3.0, 2.0]).tobytes())
    assert _relative_difference(old[1], moved[1]) == np.inf
