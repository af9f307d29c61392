"""Tests for the shared CSV writers, the closed-form 3x3 determinant and the
log-log line fit."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from singlab.util import csv_table, det3, loglog_fit, records_csv


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


def test_loglog_fit_recovers_an_exact_power_law():
    x = np.array([0.1, 0.05, 0.025, 0.0125, 0.00625])
    slope, intercept, slope_se, intercept_se = loglog_fit(x, 3.0 * x**4)
    assert slope == pytest.approx(4.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert slope_se <= 1e-12 and intercept_se <= 1e-12


def test_loglog_fit_errors_are_the_textbook_line_errors():
    rng = np.random.default_rng(7)
    x = np.geomspace(0.1, 0.001, 6)
    y = 0.7 * x**2.5 * np.exp(0.05 * rng.standard_normal(x.size))
    slope, intercept, slope_se, intercept_se = loglog_fit(x, y)
    lx, ly = np.log(x), np.log(y)
    want_slope, want_intercept = np.polyfit(lx, ly, 1)
    assert slope == pytest.approx(want_slope, rel=1e-12)
    assert intercept == pytest.approx(want_intercept, rel=1e-12)
    m, mean = lx.size, lx.mean()
    sxx = float(((lx - mean) ** 2).sum())
    s2 = float(((ly - want_slope * lx - want_intercept) ** 2).sum()) / (m - 2)
    assert slope_se**2 == pytest.approx(s2 / sxx, rel=1e-12)
    assert intercept_se**2 == pytest.approx(s2 * (1.0 / m + mean**2 / sxx), rel=1e-12)
    # Two points leave no residual degrees of freedom: the residual SEs are 0.
    assert loglog_fit(x[:2], y[:2])[2:] == (0.0, 0.0)


def test_loglog_fit_keeps_the_larger_of_residual_and_propagated_errors():
    x = np.geomspace(0.1, 0.001, 5)
    lx = np.log(x)
    c_slope = (lx - lx.mean()) / ((lx - lx.mean()) ** 2).sum()
    c_inter = 1.0 / lx.size - lx.mean() * c_slope
    rel = np.array([0.01, 0.02, 0.03, 0.04, 0.05])
    propagated = [math.sqrt(float((c**2 * rel**2).sum())) for c in (c_slope, c_inter)]
    # On an exact power law the residual SEs vanish, so the propagated ones win.
    _, _, slope_se, intercept_se = loglog_fit(x, x**3, rel)
    assert slope_se == pytest.approx(propagated[0], rel=1e-12)
    assert intercept_se == pytest.approx(propagated[1], rel=1e-12)
    # Far from a line the residual SEs win, and tiny rel_se changes nothing.
    y = x**3 * np.array([1.0, 3.0, 0.3, 2.0, 0.5])
    assert loglog_fit(x, y, rel * 1e-6) == loglog_fit(x, y)


def test_loglog_fit_of_fewer_than_two_points_is_nan():
    for x in ([], [0.1]):
        assert all(math.isnan(v) for v in loglog_fit(x, [1.0] * len(x)))
        assert all(math.isnan(v) for v in loglog_fit(x, [1.0] * len(x), [0.1] * len(x)))
