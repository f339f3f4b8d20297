"""Geometry construction end-to-end over the fixtures + ring/tag kernels."""

import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from osmquadtree_depreceated_ray.functions import tags_rings as TR


def _mk_ring(refs, closed=False):
    refs = list(refs)
    if closed:
        refs = refs + [refs[0]]
    r = np.asarray(refs, np.int64)
    lon = r * 100
    lat = r * 200
    return (r, lon, lat)


def test_merge_rings_fragments_close():
    # one ring split into three chained fragments, shuffled + one reversed
    cycle = [1, 2, 3, 4, 5, 6, 1]
    f1 = _mk_ring(cycle[0:3])
    f2 = _mk_ring(cycle[2:5][::-1])  # reversed fragment
    f3 = _mk_ring(cycle[4:7])
    merged = TR.merge_rings([f3, f1, f2])
    assert len(merged) == 1
    assert TR.check_ring_refs(merged[0])
    assert set(merged[0][0].tolist()) == {1, 2, 3, 4, 5, 6}


def test_merge_rings_mixed_closed_and_open():
    closed = _mk_ring([10, 11, 12], closed=True)
    a = _mk_ring([1, 2, 3])
    b = _mk_ring([3, 4, 1])
    merged = TR.merge_rings([closed, a, b])
    assert len(merged) == 2
    assert all(TR.check_ring_refs(r) for r in merged)


def test_merge_rings_unclosable_stays_open():
    a = _mk_ring([1, 2, 3])
    b = _mk_ring([7, 8, 9])
    merged = TR.merge_rings([a, b])
    assert len(merged) == 2
    assert not any(TR.check_ring_refs(r) for r in merged)


def test_group_rings_inner_assignment():
    outer = (np.array([1, 2, 3, 4, 1]),
             np.array([0, 100, 100, 0, 0], np.int64) * 10**6,
             np.array([0, 0, 100, 100, 0], np.int64) * 10**6)
    inner = (np.array([5, 6, 7, 8, 5]),
             np.array([20, 40, 40, 20, 20], np.int64) * 10**6,
             np.array([20, 20, 40, 40, 20], np.int64) * 10**6)
    far = (np.array([9, 10, 11, 9]),
           np.array([900, 950, 950, 900], np.int64) * 10**6,
           np.array([0, 0, 50, 0], np.int64) * 10**6)
    groups = TR.group_rings([outer, far], [inner])
    assert len(groups) == 2
    # inner landed with the containing outer only
    sizes = sorted(len(g) for g in groups)
    assert sizes == [1, 2]


def test_tags_add_clip_lattice():
    base = {"name": "A", "x": "1"}
    TR.tags_add(base, {"name": "B", "y": "2"})
    assert base["name"] == ""  # conflict collapses
    assert base["y"] == "2"
    TR.tags_clip(base)
    assert "name" not in base and base == {"x": "1", "y": "2"}


def test_way_tags_polygon_decision():
    style = TR.DEFAULT_STYLE
    t = {"highway": "primary", "junk": "x"}
    zo, isp = TR.way_tags(t, style)
    assert not isp and zo == 7 and "junk" not in t
    assert "other_tags" in t and json.loads(t["other_tags"]) == {"junk": "x"}
    t2 = {"highway": "service", "area": "yes"}
    _, isp2 = TR.way_tags(t2, style)
    assert isp2
    t3 = {"boundary": "administrative"}
    _, isp3 = TR.way_tags(t3, style)
    assert isp3


@pytest.fixture(scope="module")
def geom_out(ray_session, fixture_dir, tmp_path_factory):
    from osmquadtree_depreceated_ray.pipelines.geometry import build_geometries

    out = str(tmp_path_factory.mktemp("geom"))
    res = build_geometries(fixture_dir, out)
    return out, res


@pytest.mark.parametrize("emptied", [
    ("rel_members",), ("way_segments", "rel_members")],
    ids=["no_relations", "no_ways"])
def test_geometry_pipeline_with_empty_tables(ray_session, fixture_dir,
                                             tmp_path, emptied):
    """No relation members (or no ways either): the exchanges get empty
    inputs next to non-empty ones, and the build still emits every node
    and way feature."""
    import shutil

    from osmquadtree_depreceated_ray.pipelines.geometry import build_geometries

    fix = str(tmp_path / "fix")
    shutil.copytree(fixture_dir, fix)
    for name in emptied:
        path = os.path.join(fix, f"{name}.parquet")
        pq.write_table(pq.read_table(path).slice(0, 0), path)
    res = build_geometries(fix, str(tmp_path / "out"))
    assert res["relations"] == 0
    assert res["features"] == res["nodes"] + res["ways"] > 0


def test_geometry_pipeline_end_to_end(geom_out):
    out, res = geom_out
    assert res["features"] > 0
    t = pq.read_table(res["out"])
    gt = t.column("geom_type").to_numpy()
    assert set(np.unique(gt)) <= {1, 2, 3, 6}
    assert (gt == 1).sum() > 0  # points
    assert (gt == 2).sum() > 0  # linestrings
    assert (gt == 3).sum() > 0  # polygons
    # bbox sanity + qt is valid for every feature
    qt = t.column("qt").to_numpy()
    assert (qt >= 0).all()
    assert (t.column("minx").to_numpy() <= t.column("maxx").to_numpy()).all()


def test_geometry_qt_contains_bbox(geom_out):
    """Every feature's re-calc qt (buffer 0.025) must equal a fresh
    scalar-port computation from its bbox."""
    from osmquadtree_depreceated_ray.functions import reference_scalar as ref

    out, res = geom_out
    t = pq.read_table(res["out"]).to_pandas().head(200)
    for _, r in t.iterrows():
        want = ref.calculate(r["minx"], r["miny"], r["maxx"], r["maxy"], 0.025, 18)
        assert r["qt"] == want


def test_geojson_roundtrip(geom_out, tmp_path):
    from osmquadtree_depreceated_ray.pipelines.geometry import write_geojson

    out, res = geom_out
    p = str(tmp_path / "features.geojsonl")
    n = write_geojson(res["out"], p)
    assert n == res["features"]
    with open(p) as f:
        first = json.loads(f.readline())
    assert first["type"] == "Feature" and "geometry" in first


def test_geojson_tiled_streaming_sink(geom_out, tmp_path):
    import gzip

    from osmquadtree_depreceated_ray.pipelines.geometry import write_geojson_tiled

    out, res = geom_out
    dest = str(tmp_path / "gj")
    r = write_geojson_tiled(out, dest, gzip_out=True)
    assert r["features"] == res["features"]
    assert r["tiles"] == res["tiles"]
    files = sorted(os.listdir(dest))
    assert files and all(f.endswith(".geojsonl.gz") for f in files)
    n = 0
    for fn in files:
        with gzip.open(os.path.join(dest, fn), "rt") as f:
            for line in f:
                d = json.loads(line)
                assert d["type"] == "Feature"
                n += 1
    assert n == res["features"]


def test_relation_qt_propagation(geom_out):
    out, res = geom_out
    rel_qt = res["rel_qt"]
    assert len(rel_qt) > 0
    # circular pair + empty rels resolve to 0, not -1
    assert all(v >= 0 for v in rel_qt.values())


def test_admin_levels_and_route_list_reducers():
    from osmquadtree_depreceated_ray.pipelines.geometry import admin_levels, route_list

    t = {}
    assert admin_levels(t, ["4", "2", "notanum", "8"])
    assert t == {"min_admin_level": "2", "max_admin_level": "8"}
    assert not admin_levels({}, ["x"])
    t2 = {}
    assert route_list(t2, "bus_routes", ["12", "3", "12", "7"])
    assert t2 == {"bus_routes": "12;3;7"}
    assert not route_list({}, "bus_routes", [])


def test_features_output_tiled_and_prunable(geom_out):
    """The features output is Hive-partitioned by tile with a manifest,
    and read_features_pruned reads a strict subset of tiles for a small
    bbox (writefile.go:155-205 tile-ordered indexed output)."""
    import os

    from osmquadtree_depreceated_ray.pipelines.geometry import (
        read_features_pruned,
    )
    from osmquadtree_depreceated_ray.state import manifest as mf

    out, res = geom_out
    assert res["tiles"] >= 1
    dd = mf.data_dir(out)
    tile_dirs = [d for d in os.listdir(dd) if d.startswith("tile=")]
    assert len(tile_dirs) == res["tiles"]
    man = mf.read_manifest(out)
    assert man is not None and man.num_rows == res["tiles"]

    # whole-world read returns every feature
    world = (-1800000000, -900000000, 1800000000, 900000000)
    ds, stats = read_features_pruned(out, world)
    assert ds.count() == res["features"]

    # a small bbox prunes tiles (when there is more than one tile) and
    # every returned feature's bbox intersects the query
    t = pq.read_table(dd).to_pandas()
    qx = int(t["minx"].median())
    qy = int(t["miny"].median())
    small = (qx - 10000, qy - 10000, qx + 10000, qy + 10000)
    ds2, stats2 = read_features_pruned(out, small)
    if res["tiles"] > 1:
        assert stats2["tiles_read"] < stats2["tiles_total"]
    if ds2 is not None:
        f = ds2.to_pandas()
        assert (f["minx"] <= small[2]).all() and (f["maxx"] >= small[0]).all()
        assert (f["miny"] <= small[3]).all() and (f["maxy"] >= small[1]).all()
