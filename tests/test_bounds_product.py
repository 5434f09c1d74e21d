import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bound_pair
from skewbounds import bounds_product
from skewbounds import (
    BoundInputPair,
    BoundResult,
    bound_ik,
    bound_ik_perm,
    bound_k_prefix,
    bound_k_subset,
    bound_spq,
    bound_spq_perm,
    chain_pairs,
    chain_report,
    convex_combo,
    f_cs,
)

coords = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=6)


def test_pair_validation():
    with pytest.raises(ValueError):
        BoundInputPair.from_vectors([1.0, -0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        BoundInputPair.from_vectors([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        BoundInputPair.from_vectors([1.0, 2.0], [3.0, 1.0], corr_sq=1000.0)


def test_from_vectors_validates_each_vector_once(monkeypatch):
    calls = []
    check = bounds_product._as_coord_vector

    def spy(v):
        calls.append(v)
        return check(v)

    monkeypatch.setattr(bounds_product, "_as_coord_vector", spy)
    x, y = [1.0, 2.0, 0.5], [3.0, 1.0, 2.0]
    pair = BoundInputPair.from_vectors(x, y)
    assert calls == [x, y]
    assert pair.corr_sq == float(np.asarray(x) @ np.asarray(y)) ** 2
    calls.clear()
    BoundInputPair.from_vectors(x, y, corr_sq=4)
    assert calls == [x, y]


def test_pair_rejects_non_finite_inputs():
    nan, inf = float("nan"), float("inf")
    for x in ([nan, 1.0, 2.0], [inf, 1.0, 2.0], [1.0, -inf, 2.0]):
        with pytest.raises(ValueError, match="finite"):
            BoundInputPair.from_vectors(x, [1.0, 1.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            BoundInputPair.from_vectors([1.0, 1.0, 0.5], x)
    for corr_sq in (nan, inf, -inf):
        with pytest.raises(ValueError, match="finite"):
            BoundInputPair(x=[1.0, 2.0], y=[3.0, 1.0], corr_sq=corr_sq)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        BoundInputPair(x=[1e200, 1.0], y=[1e200, 1.0], corr_sq=1.0)


def test_pair_scalar_invariants():
    pair = BoundInputPair.from_vectors([1.0, 2.0], [3.0, 1.0])
    assert pair.n == 2
    assert pair.product == 50.0
    assert pair.corr_abs_sq == 25.0
    assert pair.corr_sq == 25.0  # defaults to the diagonal overlap


def test_f_cs_oracle():
    assert f_cs([1.0, 2.0], [3.0, 1.0], [1]) == 9.0
    assert f_cs([1.0, 2.0], [3.0, 1.0], [1, 2]) == 25.0
    with pytest.raises(ValueError):
        f_cs([1.0, 2.0], [3.0, 1.0], [0])
    with pytest.raises(ValueError):
        f_cs([1.0, 2.0], [3.0, 1.0], [1, 1])


def test_chain_pairs_order():
    assert chain_pairs(4) == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    assert chain_pairs(1) == []


def test_bound_ik_oracles():
    pair = BoundInputPair.from_vectors([1.0, 2.0], [3.0, 1.0])
    assert bound_ik(pair, 1).value == 50.0
    assert bound_ik(pair, 2).value == 25.0
    with pytest.raises(ValueError):
        bound_ik(pair, 3)
    with pytest.raises(ValueError):
        bound_ik(pair, 0)


def test_bound_ik_terminus_is_lagrange_identity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        pair = BoundInputPair.from_vectors(rng.uniform(0, 3, n), rng.uniform(0, 3, n))
        scale = 1.0 + pair.product
        assert bound_ik(pair, n).value == pytest.approx(pair.corr_abs_sq, abs=1e-10 * scale)


def test_bound_ik_perm_oracle():
    pair = BoundInputPair.from_vectors([1.0, 2.0], [3.0, 1.0])
    ident = bound_ik_perm(pair, 2, (0, 1), (0, 1))
    assert ident.value == bound_ik(pair, 2).value
    swapped = bound_ik_perm(pair, 2, (1, 0), (0, 1))
    assert swapped.value == 49.0
    with pytest.raises(ValueError):
        bound_ik_perm(pair, 2, (0, 0), (0, 1))


def test_bound_spq_chain_oracle():
    pair = BoundInputPair.from_vectors([1.0, 2.0, 1.0], [1.0, 1.0, 2.0])
    assert bound_spq(pair, 1, 0).value == 36.0
    assert bound_spq(pair, 2, 1).value == 35.0
    assert bound_spq(pair, 3, 1).value == 34.0
    assert bound_spq(pair, 3, 2).value == 25.0
    assert pair.corr_abs_sq == 25.0
    with pytest.raises(ValueError):
        bound_spq(pair, 1, 1)
    with pytest.raises(ValueError):
        bound_spq(pair, 4, 1)


def test_spq_interleaves_with_ik():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        pair = BoundInputPair.from_vectors(rng.uniform(0, 3, n), rng.uniform(0, 3, n))
        scale = 1.0 + pair.product
        for k in range(2, n + 1):
            assert bound_spq(pair, k, k - 1).value == pytest.approx(
                bound_ik(pair, k).value, abs=1e-12 * scale
            )
        assert bound_spq(pair, n, n - 1).value == pytest.approx(
            pair.corr_abs_sq, abs=1e-10 * scale
        )


def test_spq_perm_identity_matches():
    pair = BoundInputPair.from_vectors([1.0, 2.0, 1.0], [1.0, 1.0, 2.0])
    ident = tuple(range(3))
    assert bound_spq_perm(pair, 3, 1, ident, ident).value == bound_spq(pair, 3, 1).value


def test_bound_k_subset_oracles():
    pair = BoundInputPair.from_vectors([1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], corr_sq=0.0)
    assert bound_k_subset(pair, [1, 2]).value == 0.0
    pair2 = BoundInputPair.from_vectors([1.0, 2.0], [3.0, 1.0])
    assert bound_k_subset(pair2, [1]).value == 25.0
    with pytest.raises(ValueError):
        bound_k_subset(pair2, [1, 1])
    with pytest.raises(ValueError):
        bound_k_subset(pair2, [3])


@settings(max_examples=60, deadline=None)
@given(x=coords, y=coords, data=st.data())
def test_bound_k_complement_symmetric_bitwise(x, y, data):
    """Swapping a subset for its complement reproduces the value bit for bit."""
    n = min(len(x), len(y))
    pair = BoundInputPair.from_vectors(x[:n], y[:n])
    size = data.draw(st.integers(min_value=0, max_value=n))
    subset = data.draw(
        st.lists(st.integers(min_value=1, max_value=n), min_size=size, max_size=size, unique=True)
    )
    complement = [i for i in range(1, n + 1) if i not in subset]
    assert bound_k_subset(pair, subset).value == bound_k_subset(pair, complement).value


def test_bound_k_sandwich_on_random_pairs():
    for seed in range(8):
        for dim in (2, 3):
            pair = random_bound_pair(seed, dim)
            scale = 1.0 + pair.product
            for k in range(pair.n + 1):
                v = bound_k_prefix(pair, k).value
                assert v <= pair.product + 1e-10 * scale
                assert v >= pair.corr_abs_sq - 1e-10 * scale


def test_bound_k_prefix_edges():
    pair = BoundInputPair.from_vectors([1.0, 2.0], [3.0, 1.0])
    assert bound_k_prefix(pair, 0).value == pytest.approx(pair.product, abs=1e-12)
    assert bound_k_prefix(pair, 2).value == pytest.approx(pair.product, abs=1e-12)
    assert bound_k_prefix(pair, 1).value == bound_k_subset(pair, [1]).value


def test_convex_combo_linearity():
    pair = BoundInputPair.from_vectors([1.0, 2.0, 1.0], [1.0, 1.0, 2.0])
    members = [bound_ik(pair, 2), bound_ik(pair, 3), bound_k_prefix(pair, 1)]
    w = (0.2, 0.3, 0.5)
    combo = convex_combo(members, w)
    assert combo.value == pytest.approx(sum(wi * m.value for wi, m in zip(w, members)), abs=1e-12)
    assert combo.value <= max(m.value for m in members) + 1e-12
    with pytest.raises(ValueError):
        convex_combo(members, (0.5, 0.5))
    with pytest.raises(ValueError):
        convex_combo(members, (0.7, 0.4, -0.1))
    with pytest.raises(ValueError):
        convex_combo(members, (float("nan"), 0.5, 0.5))


def test_convex_combo_adds_left_to_right():
    # the K-mixture columns were always summed in weight order; keep their bits
    rng = np.random.default_rng(29)
    for _ in range(50):
        values = rng.uniform(0.0, 10.0, 12)
        weights = rng.dirichlet(np.ones(12))
        expected = 0
        for wk, v in zip(weights, values):
            expected += wk * float(v)
        members = [BoundResult("K", float(v)) for v in values]
        assert convex_combo(members, weights).value == expected


def test_chain_report_structure_and_order():
    pair = random_bound_pair(123, 2)
    results = chain_report(pair)
    assert results[0].family == "product"
    assert results[-1].family == "corr_sq"
    assert results[-2].family == "corr_abs_sq"
    values = [r.value for r in results]
    assert values[0] == pair.product
    assert values[-1] == pair.corr_sq
    families = [r.family for r in results]
    # product, I_1..I_4, six S members, K_1..K_4, two termini
    assert families.count("I") == 4
    assert families.count("S") == 6
    assert families.count("K") == 4


def test_chain_report_runs_clean_on_random_pairs():
    for seed in range(10):
        for dim in (2, 3):
            chain_report(random_bound_pair(seed, dim))


def _reference_s_chain(pair):
    """Plain Python walk over chain_pairs, one Lagrange term at a time."""
    x, y = pair.x.tolist(), pair.y.tolist()
    total = pair.product
    chain = []
    for p, q in chain_pairs(pair.n):
        cross = x[p - 1] * y[q - 1] - x[q - 1] * y[p - 1]
        total -= cross * cross
        chain.append(total)
    return chain


def test_s_chain_fold_matches_reference_walk_bitwise():
    for dim in range(2, 7):
        for seed in range(3):
            pair = random_bound_pair(100 + seed, dim)
            expected = _reference_s_chain(pair)
            members = [r for r in chain_report(pair) if r.family == "S"]
            assert [(r.params["p"], r.params["q"]) for r in members] == chain_pairs(pair.n)
            assert [r.value for r in members] == expected
            assert [bound_spq(pair, p, q).value for p, q in chain_pairs(pair.n)] == expected
