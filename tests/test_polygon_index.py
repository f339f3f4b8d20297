"""PolygonIndex's cell-prefix bucket map, built for all polygons at once,
must equal the per-polygon form it replaced."""

import numpy as np
import pytest

from osmquadtree_depreceated_ray.functions.quadtree import (
    calculate,
    qt_from_tuple,
    qt_round,
    qt_tuple,
)
from osmquadtree_depreceated_ray.sources.fixtures import gen_admin_polys
from osmquadtree_depreceated_ray.stages.spatial import PolygonIndex


def _covering_tiles(bbox, level):
    """The per-polygon form: two one-element ``calculate`` calls."""
    minx, miny, maxx, maxy = (int(v) for v in bbox)
    c1 = calculate(
        np.asarray([minx]), np.asarray([miny]),
        np.asarray([minx + 1]), np.asarray([miny + 1]), 0.0, level)
    c2 = calculate(
        np.asarray([maxx - 1]), np.asarray([maxy - 1]),
        np.asarray([maxx]), np.asarray([maxy]), 0.0, level)
    x1, y1, _ = qt_tuple(qt_round(c1, level))
    x2, y2, _ = qt_tuple(qt_round(c2, level))
    xs = np.arange(min(x1[0], x2[0]), max(x1[0], x2[0]) + 1)
    ys = np.arange(min(y1[0], y2[0]), max(y1[0], y2[0]) + 1)
    xx, yy = np.meshgrid(xs, ys)
    return qt_from_tuple(xx.ravel(), yy.ravel(),
                         np.full(xx.size, level, dtype=np.int64))


def _per_polygon_buckets(bboxes, level):
    tmp: dict[int, list[int]] = {}
    for i in range(len(bboxes)):
        for t in _covering_tiles(bboxes[i], level):
            tmp.setdefault(int(t), []).append(i)
    return {k: np.asarray(v, dtype=np.int64) for k, v in tmp.items()}


@pytest.mark.parametrize("level", [1, 4, 7])
@pytest.mark.parametrize("n_scatter", [0, 300])
def test_bucket_map_equals_per_polygon(level, n_scatter):
    idx = PolygonIndex.from_table(gen_admin_polys(seed=5, n_scatter=n_scatter),
                                  bucket_level=level)
    want = _per_polygon_buckets(idx.bboxes, level)
    assert sorted(idx.buckets) == sorted(want)
    for k, v in want.items():
        assert idx.buckets[k].dtype == np.int64
        np.testing.assert_array_equal(idx.buckets[k], v)


def test_bucket_map_empty():
    assert PolygonIndex([], []).buckets == {}
