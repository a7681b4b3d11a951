import re

import numpy as np
import pytest

from sunlab import (
    DimensionMismatch,
    DuplicatePoints,
    EmptyCloud,
    ParseError,
    PointCloud,
    load_cloud,
)
from sunlab.cloud import cloud_from_json, cloud_to_json


def test_json_roundtrip(tmp_path):
    cloud = PointCloud([[0, 0], [1.5, -2], [3, 4]])
    data = cloud_to_json(cloud)
    back = cloud_from_json(data)
    assert np.array_equal(cloud.points, back.points)
    p = tmp_path / "c.json"
    p.write_text('{"points": [[0, 0], [1.5, -2], [3, 4]]}')
    assert np.array_equal(load_cloud(str(p)).points, cloud.points)


def test_csv_load(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0,0\n1.5,-2\n\n3,4\n")
    cloud = load_cloud(str(p))
    assert cloud.points.shape == (3, 2)
    assert cloud.points[1, 1] == -2.0


def test_csv_trailing_commas_and_blank_cells_are_skipped(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0,0,\n1.5,-2, ,\n , \n\n3,4\n")
    assert load_cloud(str(p)).points.tolist() == [[0, 0], [1.5, -2], [3, 4]]


@pytest.mark.parametrize(
    "content, line", [("0,,0\n1,,0\n2,,0\n", 1), ("0,0\n,1\n", 2), ("0,0\n1, ,2,\n", 2)]
)
def test_csv_empty_cell_before_a_number_is_named(tmp_path, content, line):
    p = tmp_path / "gap.csv"
    p.write_text(content)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}: empty cell at line {line}$"):
        load_cloud(str(p))


def test_csv_ragged_rows_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0\n1,2,3\n")
    with pytest.raises(ParseError):
        load_cloud(str(p))


def test_json_ragged_rows_rejected():
    with pytest.raises(ParseError) as err:
        cloud_from_json({"points": [[1, 0], [1]]})
    assert str(err.value) == (
        "point cloud JSON rows have inconsistent lengths: row 0 has 2 entries, row 1 has 1"
    )


@pytest.mark.parametrize(
    "points, message",
    [
        ([["x", 1], [0, 0]], "row 0 holds an entry that is not a number: ['x', 1]"),
        ([[0, 0], [{"a": 1}, 1]], "row 1 holds an entry that is not a number: [{'a': 1}, 1]"),
        ([[0, 0], [1, [2, 3]]], "row 1 holds an entry that is not a number: [1, [2, 3]]"),
        ([["x", 1], [0]], "rows have inconsistent lengths: row 0 has 2 entries, row 1 has 1"),
        ([["1", 0], [True, 0]], "row 0 holds an entry that is not a number: ['1', 0]"),
        ([[0, 0], [True, 0]], "row 1 holds an entry that is not a number: [True, 0]"),
        ([[0, 0], [False, 0], ["x", 1]], "row 1 holds an entry that is not a number: [False, 0]"),
        ([[0, 0], [None, 1]], "row 1 holds an entry that is not a number: [None, 1]"),
    ],
    ids=["string", "object", "list", "ragged-first", "numeric-string", "boolean",
         "boolean-before-string", "null"],
)
def test_json_non_numeric_entry_is_named(points, message):
    """numpy's "could not convert string to float: 'x'" named neither the
    input nor the row, an object entry raised a TypeError, and a list entry
    gave numpy's "setting an array element with a sequence". A ragged array
    keeps its message, which comes first. numpy read "1" and true as 1.0,
    and null as NaN, which a later check reported without the row."""
    with pytest.raises(ParseError) as err:
        cloud_from_json({"points": points})
    assert str(err.value) == f"point cloud JSON {message}"


@pytest.mark.parametrize(
    "name, content", [("c.json", b"\xff\xfe"), ("c.csv", b"0,0\n\xff\xfe\n")], ids=["json", "csv"]
)
def test_non_utf8_file_is_named(tmp_path, name, content):
    """The decoder's message named neither the file nor its encoding."""
    p = tmp_path / name
    p.write_bytes(content)
    with pytest.raises(ParseError) as err:
        load_cloud(str(p))
    assert str(err.value) == f"{p}: not UTF-8 (byte 0xff: invalid start byte)"


def test_csv_bad_number_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,zero\n")
    with pytest.raises(ParseError):
        load_cloud(str(p))


def test_json_parse_error_carries_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"points": [[0, 0],\n [1,]]}')
    with pytest.raises(ParseError) as err:
        load_cloud(str(p))
    assert "line 2" in str(err.value)


def test_duplicate_detection_treats_minus_zero_as_zero():
    cloud = PointCloud([[0.0, 1.0], [-0.0, 1.0]])
    with pytest.raises(DuplicatePoints):
        cloud.require_unique()


def test_require_nonempty():
    with pytest.raises(EmptyCloud):
        PointCloud(np.empty((0, 2))).require_nonempty()


def test_index_of_exact_and_tolerant():
    cloud = PointCloud([[0, 0], [1, 1], [2, 0]])
    assert cloud.index_of([1.0, 1.0]) == 1
    assert cloud.index_of([1.0 + 1e-14, 1.0]) == 1
    assert cloud.index_of([1.1, 1.0]) is None
    # An exact match beats an earlier near one.
    cloud = PointCloud([[1.0 + 1e-13, 1.0], [1.0, 1.0], [1.0, 1.0 - 1e-13]])
    assert cloud.index_of([1.0, 1.0]) == 1
    assert cloud.index_of([1.0, 1.0 - 1e-13]) == 2
    assert PointCloud(np.empty((0, 2))).index_of([0.0, 0.0]) is None


@pytest.mark.parametrize("x", [[1.0], 1.0, [1.0, 1.0, 1.0]], ids=["short", "scalar", "long"])
def test_index_of_rejects_a_point_of_another_length(x):
    """A short point or a scalar was broadcast over the rows and matched
    (1, 1) silently; a long one raised numpy's broadcast error."""
    for cloud in (PointCloud([[0, 0], [1, 1]]), PointCloud(np.empty((0, 2)))):
        with pytest.raises(DimensionMismatch, match=r"^expected a point of length 2, got shape"):
            cloud.index_of(x)


def test_require_unique_names_the_first_repeat_and_its_original():
    cloud = PointCloud([[1, 2], [3, 4], [1, 2], [3, 4]])
    with pytest.raises(DuplicatePoints) as err:
        cloud.require_unique()
    assert str(err.value) == "points 0 and 2 coincide"


def test_require_unique_on_zero_width_rows():
    with pytest.raises(DuplicatePoints) as err:
        PointCloud(np.empty((3, 0))).require_unique()
    assert str(err.value) == "points 0 and 1 coincide"
