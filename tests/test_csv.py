"""CSV v1 formatting: ``cli._csv`` gives the bytes of formatting every field on its own."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpoint import Device, PeriodicComb, dispersion, x1_defect
from spinpoint.cli import _CSV_BATCH, CSV_TAG, _csv, parse_config, run


def reference_csv(command, header, columns):
    """The per-field formatter: ``repr`` of every value of every row."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    lines = [f"{CSV_TAG} {command}", header] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def assert_formats_like_reference(columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    text = _csv("scatter", header, columns)
    assert text == reference_csv("scatter", header, columns)
    return text.splitlines()[2:]


def test_signed_zeros_keep_their_sign_in_and_across_columns():
    rows = assert_formats_like_reference(
        [np.array([0.0, -0.0, 0.0]), np.array([-0.0, -0.0, 0.0]), np.array([0.0, 0.0, -0.0])]
    )
    assert rows == ["0.0,-0.0,0.0", "-0.0,-0.0,0.0", "0.0,0.0,-0.0"]


def test_special_values_format_as_python_floats():
    payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    negative_nan = np.copysign(np.nan, -1.0)
    largest = np.finfo(np.float64).max
    values = [np.nan, negative_nan, payload_nan, np.inf, -np.inf, 5e-324, -5e-324, largest]
    rows = assert_formats_like_reference([np.array(values), np.array(values[::-1])])
    assert [row.split(",")[0] for row in rows] == [
        "nan", "nan", "nan", "inf", "-inf", "5e-324", "-5e-324", "1.7976931348623157e+308"
    ]


def test_integer_columns_print_integers():
    singular = np.array([False, True, False]).astype(int)
    branch_id = np.array([0, 0, 1], dtype=np.int64)
    rows = assert_formats_like_reference([np.zeros(3), singular, branch_id, np.ones(3)])
    assert rows == ["0.0,0,0,1.0", "0.0,1,0,1.0", "0.0,0,1,1.0"]


def test_one_row_table():
    assert assert_formats_like_reference([np.array([0.1]), np.array([-0.0]), np.array([1])]) == [
        "0.1,-0.0,1"
    ]


def test_tables_longer_than_a_batch():
    rows = 2 * _CSV_BATCH + 5
    pool = np.array([0.0, -0.0, np.nan, 1.0, 0.1, -2.5e-300])
    rng = np.random.default_rng(7)
    columns = [pool[rng.integers(0, len(pool), rows)] for _ in range(4)]
    columns.append(rng.integers(0, 2, rows))
    assert len(assert_formats_like_reference(columns)) == rows


def test_zero_row_bands_table_keeps_tag_and_header(tmp_path):
    # k in [3.3, 3.9] lies inside the first gap of this comb: no propagating point
    comb = PeriodicComb(Device((x1_defect(5.0),)), 1.0)
    diagram = dispersion(comb, np.linspace(3.3, 3.9, 50))
    assert len(diagram.k) == 0
    columns = [diagram.k, diagram.energy, diagram.q, diagram.branch_id, diagram.lambda_residual]
    assert assert_formats_like_reference(columns) == []
    config = parse_config(
        '{"schema_version": 1, "command": "bands", "comb": {"period": 1.0, "cell": [{"kind": "x1",'
        ' "x1": 5.0}]}, "sweep": {"k_min": 3.3, "k_max": 3.9, "points": 50, "spacing": "linear"}}'
    )
    out = tmp_path / "bands.csv"
    run(config, out=out)
    assert out.read_text() == f"{CSV_TAG} bands\nk,E,q,branch_id,lambda_residual\n"


@st.composite
def tables_with_repeats(draw):
    """Equal-length float64 columns drawn from a small pool, so most values repeat."""
    signed_zeros = st.sampled_from([0.0, -0.0])
    pool = draw(st.lists(signed_zeros | st.floats(width=64), min_size=1, max_size=6))
    rows = draw(st.integers(0, 8))
    n_columns = draw(st.integers(1, 5))
    index = st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows)
    columns = [np.array([pool[i] for i in draw(index)], dtype=np.float64) for _ in range(n_columns)]
    if draw(st.booleans()):
        flags = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
        columns.append(np.array(flags, dtype=int))
    return columns


@settings(max_examples=200, deadline=None)
@given(tables_with_repeats())
def test_csv_equals_the_per_field_formatter(columns):
    assert_formats_like_reference(columns)
