"""Current CLI outputs against the reference CSVs committed in tests/data.

Regenerate a reference only in a change that means to move its values,
and summarise the moved columns in CHANGES.md:

    skewbounds reproduce --example N --out tests/data            (then drop the SVGs)
    skewbounds benchmark --dim D --count 10 --seed 0 --out tests/data/benchmark_dimD.csv
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from skewbounds.cli import main

DATA = Path(__file__).parent / "data"

# a value may move by this fraction of the largest magnitude in its column
REL_TOL = 1e-9

# `winner` ranks values that are equal to within rounding, so its index
# records which rounding came out larger, not a sharper bound
SKIPPED = {"winner"}

CASES = [
    *((f"example{n}.csv", ["reproduce", "--example", str(n)]) for n in (1, 2, 3, 4)),
    *(
        (f"benchmark_dim{d}.csv", ["benchmark", "--dim", str(d), "--count", "10", "--seed", "0"])
        for d in (2, 3)
    ),
]


def read_columns(path: Path) -> dict[str, np.ndarray]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header, *rows = list(csv.reader(lines))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return {name: values[:, i] for i, name in enumerate(header)}


def worst_deviation(got: dict, want: dict) -> tuple[float, str, int]:
    """Largest |got - want| over the column's largest |want|, with its column and row."""
    worst = (0.0, "", -1)
    for name, ref in want.items():
        if name in SKIPPED:
            continue
        scale = float(np.max(np.abs(ref))) or 1.0
        dev = np.abs(got[name] - ref) / scale
        dev[np.isnan(dev)] = np.inf  # a NaN is the worst deviation
        row = int(np.argmax(dev))
        if dev[row] > worst[0]:
            worst = (float(dev[row]), name, row)
    return worst


@pytest.mark.parametrize("filename, argv", CASES, ids=[c[0] for c in CASES])
def test_outputs_match_committed_references(tmp_path, capsys, filename, argv):
    out = tmp_path / filename
    target = ["--out", str(tmp_path if argv[0] == "reproduce" else out)]
    assert main(argv + target) == 0
    capsys.readouterr()
    got, want = read_columns(out), read_columns(DATA / filename)
    assert list(got) == list(want)
    assert all(col.shape == want[name].shape for name, col in got.items())
    dev, column, row = worst_deviation(got, want)
    assert dev <= REL_TOL, f"{filename}: column {column!r}, row {row} moved by {dev:.3e} of its column scale"


def test_worst_deviation_names_column_and_row():
    want = {"a": np.array([1.0, 2.0]), "b": np.array([10.0, 0.0]), "winner": np.array([1.0, 2.0])}
    got = {"a": np.array([1.0, 2.0]), "b": np.array([10.0, 1e-6]), "winner": np.array([3.0, 3.0])}
    assert worst_deviation(got, want) == (pytest.approx(1e-7), "b", 1)
    got["a"] = np.array([np.nan, 2.0])
    assert worst_deviation(got, want) == (np.inf, "a", 0)
