import numpy as np
import pytest

from sunlab import DuplicatePoints, EmptyCloud, ParseError, PointCloud, load_cloud
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


def test_require_unique_names_the_first_repeat_and_its_original():
    cloud = PointCloud([[1, 2], [3, 4], [1, 2], [3, 4]])
    with pytest.raises(DuplicatePoints) as err:
        cloud.require_unique()
    assert str(err.value) == "points 0 and 2 coincide"


def test_require_unique_on_zero_width_rows():
    with pytest.raises(DuplicatePoints) as err:
        PointCloud(np.empty((3, 0))).require_unique()
    assert str(err.value) == "points 0 and 1 coincide"
