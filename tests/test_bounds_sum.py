import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_observable, random_p
from skewbounds import bounds_sum
from skewbounds import (
    SampledMatrix,
    bound_b2_cell,
    bound_b2_max,
    bound_b2_q,
    bound_lma,
    gamma_matrix,
    parallelogram_residual,
    sampled_matrix,
    skew_info_quadratic,
)

LMA_ORACLE = (12.0 + (math.sqrt(2.0) + 2.0) ** 2 / 3.0) / 4.0


def grid(values):
    return SampledMatrix(values=np.asarray(values, dtype=np.float64), labels=None)


def test_sampled_matrix_shapes_and_total():
    m = grid([[1.0, 2.0], [3.0, 4.0]])
    assert m.m == 2
    assert m.n == 2
    assert m.total == 30.0


def test_sampled_matrix_from_observables_totals_skew_infos():
    rng = np.random.default_rng(19)
    rho = random_density(rng, 3)
    obs = [random_observable(rng, 3, name) for name in "ABC"]
    gf = gamma_matrix(rho, random_p(rng))
    sm = sampled_matrix(gf, obs)
    assert sm.m == 3
    assert sm.n == 9
    expected = sum(skew_info_quadratic(gf, o) for o in obs)
    assert sm.total == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert sm.labels == ("A", "B", "C")


def test_bound_b2_cell_oracle():
    m = grid([[1.0, 2.0], [3.0, 4.0]])
    assert bound_b2_cell(m, (1, 1), (2, 1)).value == 26.0
    with pytest.raises(ValueError):
        bound_b2_cell(m, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        bound_b2_cell(m, (0, 1), (1, 1))
    with pytest.raises(ValueError):
        bound_b2_cell(m, (1, 1), (3, 1))


def test_bound_b2_max_oracle_and_argmax():
    m = grid([[1.0, 2.0], [3.0, 4.0]])
    best = bound_b2_max(m)
    assert best.value == 29.0
    assert best.params["cells"] == ((1, 1), (1, 2))


def test_bound_b2_max_tie_break_is_lexicographic():
    m = grid([[0.0, 1.0], [1.0, 0.0]])
    best = bound_b2_max(m)
    assert best.value == m.total
    assert best.params["cells"] == ((1, 1), (2, 2))  # first zero-gap pair in scan order


def test_bound_b2_q_interpolates():
    m = grid([[1.0, 2.0], [3.0, 4.0]])
    assert bound_b2_q(m, 0.0).value == 30.0
    assert bound_b2_q(m, 1.0).value == 29.0
    assert bound_b2_q(m, 0.5).value == 29.5
    with pytest.raises(ValueError):
        bound_b2_q(m, 1.5)
    with pytest.raises(ValueError):
        bound_b2_q(m, -0.1)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_b2_and_lma_never_exceed_total(rows):
    m = grid(rows)
    slack = 1e-9 * (1.0 + m.total)
    assert bound_b2_max(m).value <= m.total + slack
    assert bound_lma(m).value <= m.total + slack


def test_bound_lma_oracle():
    m = grid([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert bound_lma(m).value == pytest.approx(LMA_ORACLE, abs=1e-12)
    assert bound_lma(m).params["m"] == 3


def test_bound_lma_two_rows_is_parallelogram():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = grid(rng.uniform(0.0, 3.0, size=(2, 5)))
        scale = 1.0 + m.total
        assert bound_lma(m).value == pytest.approx(m.total, abs=1e-12 * scale)
        assert abs(parallelogram_residual(m)) < 1e-12 * scale


def test_bound_lma_needs_two_rows():
    with pytest.raises(ValueError):
        bound_lma(grid([[1.0, 2.0]]))


def _reference_b2_max(x):
    """The pairwise loop bound_b2_max must match: first minimum in lexicographic order."""
    flat = x.values.reshape(-1)
    cells = [(r + 1, c + 1) for r in range(x.m) for c in range(x.n)]
    best_gap = best_cells = None
    for (i, ci), (j, cj) in combinations(enumerate(cells), 2):
        gap = (flat[i] - flat[j]) ** 2
        if best_gap is None or gap < best_gap:
            best_gap, best_cells = gap, (ci, cj)
    return float(x.total - best_gap), best_cells


def _b2_cases():
    rng = np.random.default_rng(29)
    yield grid([[0.0, 1.0], [1.0, 0.0]])  # exact ties
    yield grid([[2.0, 2.0, 2.0]])
    yield grid([[5.0], [1.0]])
    yield grid([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])  # planted zeros
    yield grid([[3.0, 5.0, 5.0], [1e-200, 0.0, 4.0]])  # (1e-200)^2 rounds to 0: a tie by rounding
    for shape in [(1, 2), (2, 7), (3, 9), (4, 9), (4, 36), (5, 13)]:
        yield grid(rng.uniform(0.0, 2.0, size=shape))
        # decimal steps: many distinct cell pairs share the smallest gap
        yield grid(rng.integers(0, 12, size=shape) / 10.0)
        planted = rng.uniform(0.0, 2.0, size=shape)
        planted[:, rng.integers(0, shape[1], size=2)] = 0.0
        yield grid(planted)
    rho = random_density(rng, 3)
    gf = gamma_matrix(rho, random_p(rng))
    yield sampled_matrix(gf, [random_observable(rng, 3, name) for name in "ABCD"])


@pytest.mark.parametrize("cap", [None, 1, 7, 64])
def test_bound_b2_max_matches_pairwise_loop_bitwise(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(bounds_sum, "_B2_BLOCK_PAIRS", cap)
    for x in _b2_cases():
        value, cells = _reference_b2_max(x)
        got = bound_b2_max(x)
        assert np.float64(got.value).tobytes() == np.float64(value).tobytes()
        assert got.params["cells"] == cells
        assert all(type(i) is int for cell in cells for i in cell)


def test_bound_b2_max_tie_by_rounding_keeps_lexicographic_pair(monkeypatch):
    # the gap of (1,1),(1,2) is 1e-200 and squares to 0.0, tying the exact 0 of (2,1),(2,2)
    m = grid([[1e-200, 0.0], [7.0, 7.0]])
    for cap in (1, 2**14):
        monkeypatch.setattr(bounds_sum, "_B2_BLOCK_PAIRS", cap)
        best = bound_b2_max(m)
        assert best.value == m.total
        assert best.params["cells"] == ((1, 1), (1, 2))
