"""Tests for the shared CSV writers and the closed-form 3x3 determinant."""

import math
from dataclasses import dataclass

import numpy as np

from singlab.util import csv_table, det3, records_csv


@dataclass(frozen=True)
class Row:
    r: float
    n_points: int
    flagged: bool
    label: str


def test_cells_round_trip():
    values = [0.1, 1 / 3, 1e-300, -0.0, math.nan, math.inf, np.float64(2.5) ** 0.5]
    text = csv_table(["x"], [[v] for v in values])
    cells = text.split("\n")[1:-1]
    for cell, v in zip(cells, values):
        back = float(cell)
        assert back == v or (math.isnan(back) and math.isnan(v))
    assert cells[3] == "-0.0"


def test_booleans_are_zero_one_and_the_rest_is_str():
    text = csv_table(["a", "b", "c", "d", "e"], [(True, np.bool_(False), 7, np.int64(3), "x")])
    assert text == "a,b,c,d,e\n1,0,7,3,x\n"
    assert csv_table(["a"], []) == "a\n"


def test_records_in_field_order():
    rows = [Row(0.5, 10, False, "p"), Row(0.25, 3, True, "q")]
    assert records_csv(rows) == "r,n_points,flagged,label\n0.5,10,0,p\n0.25,3,1,q\n"


def test_det3_matches_lapack_on_stacks():
    rng = np.random.default_rng(5)
    for shape in ((2000, 3, 3), (100, 20, 3, 3)):
        m = rng.normal(size=shape)
        got = det3(m)
        assert got.shape == shape[:-2]
        # Entries are O(1), so both carry O(1e-15) absolute roundoff; atol
        # covers the nearly singular draws, where a relative error means little.
        np.testing.assert_allclose(got, np.linalg.det(m), rtol=1e-12, atol=1e-13)


def test_det3_of_a_singular_integer_matrix_is_exactly_zero():
    m = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert det3(m) == 0.0
    assert det3(np.stack([m, np.eye(3, dtype=int)])).tolist() == [0.0, 1.0]
