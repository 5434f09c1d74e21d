import json
from math import pi, sqrt

import numpy as np
import pytest

from skewbounds import (
    ScenarioParseError,
    UnknownExampleError,
    bound_ik,
    bound_k_prefix,
    bound_spq,
    builtin_example,
    convex_combo,
    dump_scenario,
    evaluate_point,
    kmix_label,
    load_scenario,
    parse_scenario,
    random_instance,
    run_sweep,
)
from skewbounds.bounds_sum import sampled_matrix
from skewbounds.metric import PAULI_X, PAULI_Z, gamma_matrix
from skewbounds.reports import emit_csv, format_value
from skewbounds.scenarios import default_bounds
from skewbounds.svgchart import render_line_chart


def test_builtin_examples_structure():
    dims = {1: 2, 2: 3, 3: 2, 4: 3}
    counts = {1: 2, 2: 2, 3: 4, 4: 4}
    ps = {1: 0.25, 2: 1.0 / 3.0, 3: 1.0 / 3.0, 4: 1.0 / 3.0}
    for n in (1, 2, 3, 4):
        sc = builtin_example(n)
        assert sc.dim == dims[n]
        assert len(sc.observables) == counts[n]
        assert sc.p.p == pytest.approx(ps[n], abs=1e-15)
    assert builtin_example(2).theta_range == (0.0, pi)
    assert builtin_example(1).theta_range == (0.0, 2.0 * pi)
    with pytest.raises(UnknownExampleError):
        builtin_example(5)


def test_example1_state_and_observables():
    sc = builtin_example(1)
    r = sqrt(3.0) / 3.0
    expected = 0.5 * (np.eye(2) + r * PAULI_X)
    assert np.allclose(sc.state_at(0.0).matrix, expected, atol=1e-12)
    a = sc.observables[0].matrix
    assert np.allclose(a, PAULI_X - 0.5 * PAULI_Z, atol=1e-15)


def test_example2_state_is_pure():
    sc = builtin_example(2)
    for theta in (0.0, 0.4, 1.5):
        m = sc.state_at(theta).matrix
        assert np.allclose(m @ m, m, atol=1e-12)
    assert sc.kmix_weights == (0.0, 0.1, 0.0, 0.9)


def test_random_instance_deterministic():
    a = random_instance(3, seed=42, p=0.4)
    b = random_instance(3, seed=42, p=0.4)
    assert np.array_equal(a.state_at(0.0).matrix, b.state_at(0.0).matrix)
    assert np.array_equal(a.observables[0].matrix, b.observables[0].matrix)
    c = random_instance(3, seed=43, p=0.4)
    assert not np.array_equal(a.state_at(0.0).matrix, c.state_at(0.0).matrix)


def test_default_bounds_by_observable_count():
    assert default_bounds(builtin_example(1)) == ["I_2", "S_3_1", "K_2"]
    assert default_bounds(builtin_example(3)) == ["total", "B2", "LMa"]


def test_kmix_label_format():
    assert kmix_label((0.0, 0.1, 0.0, 0.9)) == "K_(0,0.1,0,0.9)"


def test_evaluate_point_columns():
    sc = builtin_example(1)
    pt = evaluate_point(sc, 0.3, ["I_2", "K_2"])
    assert list(pt.values) == ["theta", "product", "corr_sq", "I_2", "K_2"]
    assert pt.values["product"] == pt.pair.product
    with pytest.raises(ValueError):
        evaluate_point(sc, 0.3, ["nonsense"])


def test_evaluate_point_kmix_validation():
    sc = builtin_example(1)
    with pytest.raises(ValueError):
        evaluate_point(sc, 0.3, [], kmix=(0.5, 0.2))
    pt = evaluate_point(sc, 0.3, [], kmix=(0.5, 0.5))
    assert "K_(0.5,0.5)" in pt.values


def test_evaluate_point_columns_match_standalone_bounds_bitwise():
    weights = (0.25, 0.25, 0.5)
    for dim in (2, 3, 5):
        n = dim * dim
        sc = random_instance(dim, seed=dim)
        names = ["I_2", f"I_{n}", "S_3_1", f"S_{n}_{n - 1}", "K_2", "corr_abs_sq"]
        pt = evaluate_point(sc, 0.0, names, kmix=weights)
        pair = pt.pair
        assert pt.values["I_2"] == bound_ik(pair, 2).value
        assert pt.values[f"I_{n}"] == bound_ik(pair, n).value
        assert pt.values["S_3_1"] == bound_spq(pair, 3, 1).value
        assert pt.values[f"S_{n}_{n - 1}"] == bound_spq(pair, n, n - 1).value
        assert pt.values["K_2"] == bound_k_prefix(pair, 2).value
        assert pt.values["corr_abs_sq"] == pair.corr_abs_sq
        mix = convex_combo([bound_k_prefix(pair, k) for k in (1, 2, 3)], weights)
        assert pt.values[kmix_label(weights)] == mix.value


def test_evaluate_point_rejects_out_of_range_columns():
    sc = random_instance(2, seed=5)
    n = 4
    for name in ("I_0", f"I_{n + 1}", "S_2_2", f"S_{n + 1}_1", f"K_{n + 1}"):
        with pytest.raises(ValueError):
            evaluate_point(sc, 0.0, [name])
    with pytest.raises(ValueError, match=f"1..{n} weights"):
        evaluate_point(sc, 0.0, [], kmix=(0.2,) * 5)


def test_run_sweep_keeps_each_points_samples():
    sc = builtin_example(3)
    res = run_sweep(sc, steps=3)
    assert len(res.samples) == 3
    for theta, samples in zip(res.thetas, res.samples):
        expected = sampled_matrix(gamma_matrix(sc.state_at(float(theta)), sc.p), sc.observables)
        assert np.array_equal(samples.values, expected.values)


def test_run_sweep_grid():
    sc = builtin_example(1)
    res = run_sweep(sc, theta_start=0.0, theta_end=1.0, steps=5, bounds=["I_2"])
    assert res.thetas.shape == (5,)
    assert res.thetas[0] == 0.0
    assert res.thetas[-1] == 1.0
    assert res.columns["I_2"].shape == (5,)
    single = run_sweep(sc, steps=1, bounds=["I_2"])
    assert single.thetas.shape == (1,)
    with pytest.raises(ValueError):
        run_sweep(sc, steps=0)


def test_scenario_round_trip():
    sc = builtin_example(1)
    text = dump_scenario(sc, theta=0.8)
    back = parse_scenario(text, label="roundtrip")
    assert back.dim == 2
    assert back.p.p == sc.p.p
    assert np.allclose(back.state_at(0.0).matrix, sc.state_at(0.8).matrix, atol=0)
    for mine, theirs in zip(back.observables, sc.observables):
        assert np.array_equal(mine.matrix, theirs.matrix)
        assert mine.name == theirs.name
    # serialization is idempotent byte for byte apart from the label field
    again = dump_scenario(back, theta=0.0)
    assert again.replace(back.label, sc.label, 1) == text


def test_scenario_parse_errors_carry_paths():
    with pytest.raises(ScenarioParseError, match="dimension"):
        parse_scenario(json.dumps({"p": 0.5, "state": {}, "observables": []}), "x")
    doc = {
        "dimension": 2,
        "p": 0.5,
        "state": {"kind": "bloch", "r": [0, 0, 0]},
        "observables": [
            {"matrix": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]},
            {"matrix": [[[1, 0], [0, 0]], [[0, 0], "bad"]]},
        ],
    }
    with pytest.raises(ScenarioParseError, match=r"observables\[1\]"):
        parse_scenario(json.dumps(doc), "x")
    # scalars are rejected: complex entries must be explicit [re, im] pairs
    flat = {
        "dimension": 2,
        "p": 0.5,
        "state": {"kind": "bloch", "r": [0, 0, 0]},
        "observables": [{"matrix": [[1, 0], [0, -1]]}],
    }
    with pytest.raises(ScenarioParseError, match=r"matrix\[0\]\[0\]"):
        parse_scenario(json.dumps(flat), "x")


def test_load_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(dump_scenario(builtin_example(1), theta=0.0))
    sc = load_scenario(str(path))
    assert sc.dim == 2


def test_format_value_sig_digits():
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(2.0) == "2"
    assert format_value(1.23456789012345e-7) == "1.23456789012e-07"


def test_emit_csv_quoting_and_footer():
    text = emit_csv({"theta": [0.0], "K_(0,0.1,0,0.9)": [1.5]}, footer_comments=["note"])
    lines = text.splitlines()
    assert lines[0] == 'theta,"K_(0,0.1,0,0.9)"'
    assert lines[1] == "0,1.5"
    assert lines[2] == "# note"
    assert text.endswith("\n")


def test_emit_csv_rejects_ragged_columns():
    with pytest.raises(ValueError):
        emit_csv({"a": [1.0, 2.0], "b": [1.0]})


def test_render_line_chart_structure():
    x = np.linspace(0.0, 1.0, 10)
    cols = {"alpha": np.sin(x), "beta": np.cos(x)}
    svg = render_line_chart(x, cols, title="demo")
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == 2
    assert "alpha" in svg and "beta" in svg
    assert render_line_chart(x, cols, title="demo") == svg


def test_render_line_chart_escapes_labels():
    x = np.array([0.0, 1.0])
    svg = render_line_chart(x, {"a<b&c": np.array([0.0, 1.0])}, title="t")
    assert "a&lt;b&amp;c" in svg
