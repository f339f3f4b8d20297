"""Spatial-extension operator tests: zonal statistics, rasterize,
cell-blocked distance self-join, capped NN join.

Each check recomputes the expected result independently with brute
force (O(n^2) pair scan, plain pandas rollups) on sf0.001 — the DuckDB
hash-exact gate runs separately via tools/check_oracles.py."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from osmquadtree_depreceated_ray.sources import derive

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def points():
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "n_chars"]).to_pandas()
    lon, lat = derive.derive_lonlat(docs["doc_id"].to_numpy())
    return docs.assign(lon=lon, lat=lat)


def _brute_pairs(points, r):
    lon = points["lon"].to_numpy()
    lat = points["lat"].to_numpy()
    ids = points["doc_id"].to_numpy()
    # abs prefilter first: raw global diffs squared overflow int64 and
    # exceed float64's 2^53 near the r^2 boundary
    dlon = lon[:, None] - lon[None, :]
    dlat = lat[:, None] - lat[None, :]
    cand = ((np.abs(dlon) <= r) & (np.abs(dlat) <= r)
            & (ids[:, None] < ids[None, :]))
    ia, ib = np.where(cand)
    d2 = dlon[ia, ib] ** 2 + dlat[ia, ib] ** 2  # int64 exact
    ok = d2 <= r * r
    return pd.DataFrame(
        {"a": ids[ia][ok], "b": ids[ib][ok], "dist2": d2[ok]})


def test_dist_selfjoin_vs_brute_force(ray_session, points):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_dist_selfjoin,
    )

    r = 100_000_000
    got = q_dist_selfjoin(SF, r).to_pandas().sort_values(
        ["a", "b"]).reset_index(drop=True)
    want = _brute_pairs(points, r).sort_values(
        ["a", "b"]).reset_index(drop=True)
    # exactly-once: no duplicate pairs out of the 4x cell replication
    assert not got.duplicated(["a", "b"]).any()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_dist_selfjoin_radius_monotone(ray_session):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_dist_selfjoin,
    )

    small = q_dist_selfjoin(SF, 50_000_000).to_pandas()
    large = q_dist_selfjoin(SF, 150_000_000).to_pandas()
    assert len(small) < len(large)
    sk = set(map(tuple, small[["a", "b"]].to_numpy()))
    lk = set(map(tuple, large[["a", "b"]].to_numpy()))
    assert sk <= lk


def test_nn_join_vs_brute_force(ray_session, points):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_nn_join,
    )

    r = 100_000_000
    got = q_nn_join(SF, r).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    pairs = _brute_pairs(points, r)
    bd = pd.concat([
        pairs.rename(columns={"a": "doc_id", "b": "nn"}),
        pairs.rename(columns={"b": "doc_id", "a": "nn"}),
    ])[["doc_id", "nn", "dist2"]]
    want = (bd.sort_values(["dist2", "nn"], kind="stable")
            .groupby("doc_id", as_index=False, sort=False).first()
            .sort_values("doc_id").reset_index(drop=True))
    assert not got.duplicated("doc_id").any()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_zonal_stats_vs_pandas(ray_session, points):
    from osmquadtree_depreceated_ray.pipelines.queries import _rect_bounds
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_zonal_stats,
    )

    got = q_zonal_stats(SF).to_pandas().sort_values(
        "poly_id").reset_index(drop=True)
    k = np.arange(24, dtype=np.int64)
    a, c, b, d = _rect_bounds(k)
    rows = []
    for i in range(24):
        m = points[(points["lon"] >= a[i]) & (points["lon"] < b[i])
                   & (points["lat"] >= c[i]) & (points["lat"] < d[i])]
        if len(m):
            rows.append({
                "poly_id": i, "n": len(m),
                "sum_chars": int(m["n_chars"].sum()),
                "mean_chars": m["n_chars"].sum() / len(m),
                "minx": m["lon"].min(), "miny": m["lat"].min(),
                "maxx": m["lon"].max(), "maxy": m["lat"].max(),
            })
    want = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rasterize_conserves_counts(ray_session, points):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_rasterize,
    )

    got = q_rasterize(SF).to_pandas()
    assert got["n"].sum() == len(points)
    assert got["sum_chars"].sum() == points["n_chars"].sum()
    assert not got.duplicated(["x", "y"]).any()
    assert ((got["x"] >= 0) & (got["x"] < 256)).all()
    assert ((got["y"] >= 0) & (got["y"] < 256)).all()
    np.testing.assert_allclose(
        got["mean_chars"], got["sum_chars"] / got["n"])


def test_knn_join_vs_brute_force(ray_session, points):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        KNN_JOIN_K, q_knn_join,
    )

    r = 100_000_000
    got = (q_knn_join(SF, r).to_pandas()
           .sort_values(["doc_id", "rank"]).reset_index(drop=True))
    pairs = _brute_pairs(points, r)
    bd = pd.concat([
        pairs.rename(columns={"a": "doc_id", "b": "nn"}),
        pairs.rename(columns={"b": "doc_id", "a": "nn"}),
    ])[["doc_id", "nn", "dist2"]].sort_values(["dist2", "nn"],
                                              kind="stable")
    want = bd.groupby("doc_id", sort=False).head(KNN_JOIN_K).copy()
    want["rank"] = want.groupby("doc_id", sort=False).cumcount() + 1
    want = (want[["doc_id", "rank", "nn", "dist2"]]
            .sort_values(["doc_id", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # nn_join is exactly the rank-1 slice
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_nn_join,
    )
    nn1 = (q_nn_join(SF, r).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    r1 = (got[got["rank"] == 1][["doc_id", "nn", "dist2"]]
          .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(nn1, r1, check_dtype=False)


def test_tile_pyramid_conserves(ray_session, points):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_tile_pyramid,
    )

    got = q_tile_pyramid(SF).to_pandas()
    for z, g in got.groupby("z"):
        assert g["n"].sum() == len(points), z
        assert g["sum_chars"].sum() == points["n_chars"].sum(), z
        assert not g.duplicated(["x", "y"]).any()
        assert ((g["x"] >= 0) & (g["x"] < (1 << z))).all()
        assert ((g["y"] >= 0) & (g["y"] < (1 << z))).all()
    # z=0 is the single world tile
    top = got[got["z"] == 0]
    assert len(top) == 1 and top["n"].iloc[0] == len(points)


def _brute_dbscan(points, eps, minpts):
    """Dense-reference DBSCAN with the engine's deterministic rules:
    cluster label = min core id in the component (union by closure),
    border adopts the min cluster among core neighbors."""
    ids = points["doc_id"].to_numpy()
    pairs = _brute_pairs(points, eps)
    import collections
    adj = collections.defaultdict(set)
    for a, b in zip(pairs["a"], pairs["b"]):
        adj[a].add(b)
        adj[b].add(a)
    core = {v for v in ids if 1 + len(adj[v]) >= minpts}
    # components over core-core edges (BFS)
    label = {}
    for v in sorted(core):
        if v in label:
            continue
        comp, stack = [], [v]
        seen = {v}
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y in core and y not in seen:
                    seen.add(y)
                    stack.append(y)
        root = min(comp)
        for x in comp:
            label[x] = root
    rows = []
    for v in ids:
        if v in core:
            rows.append((v, 1, label[v]))
        else:
            cand = [label[u] for u in adj[v] if u in core]
            rows.append((v, 0, min(cand) if cand else -1))
    return pd.DataFrame(rows, columns=["doc_id", "is_core", "cluster"])


@pytest.mark.parametrize("eps,minpts", [(200_000_000, 8),
                                        (300_000_000, 5),
                                        (100_000_000, 3),
                                        (1, 8)])
def test_dbscan_vs_brute_force(ray_session, points, eps, minpts):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_dbscan,
    )

    got = q_dbscan(SF, eps, minpts).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    want = _brute_dbscan(points, eps, minpts).sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # every cluster's label is one of its own core members
    cl = got[got["cluster"] >= 0]
    core_by_cluster = cl[cl["is_core"] == 1].groupby("cluster")
    for label, grp in core_by_cluster:
        assert label in set(grp["doc_id"])


def test_bbox_overlay_vs_brute_force(ray_session):
    """Engine overlay vs a plain-pandas recompute of way bboxes x rect
    intersections (exact int64, scaled-extent floors)."""
    from osmquadtree_depreceated_ray.pipelines.queries import (
        N_RECTS,
        _rect_bounds,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_bbox_overlay,
    )

    got = (q_bbox_overlay(SF).to_pandas()
           .sort_values("poly_id").reset_index(drop=True))

    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_linenumber"]).to_pandas()
    key = li["l_orderkey"].to_numpy() * 8 + li["l_linenumber"].to_numpy()
    lon, lat = derive.derive_lonlat(key.astype(np.int64))
    bb = (pd.DataFrame({"k": li["l_orderkey"], "lon": lon, "lat": lat})
          .groupby("k").agg(minx=("lon", "min"), miny=("lat", "min"),
                            maxx=("lon", "max"), maxy=("lat", "max")))
    ra, rc, rb, rd = _rect_bounds(np.arange(N_RECTS, dtype=np.int64))
    ix = (np.minimum(bb["maxx"].to_numpy()[:, None], rb[None, :])
          - np.maximum(bb["minx"].to_numpy()[:, None], ra[None, :]))
    iy = (np.minimum(bb["maxy"].to_numpy()[:, None], rd[None, :])
          - np.maximum(bb["miny"].to_numpy()[:, None], rc[None, :]))
    hit = (ix > 0) & (iy > 0)
    area = ((np.maximum(ix, 0) // 10_000)
            * (np.maximum(iy, 0) // 10_000)).astype(np.int64)
    assert (got["poly_id"].to_numpy() == np.arange(N_RECTS)).all()
    assert (got["n_ways"].to_numpy() == hit.sum(0)).all()
    assert (got["total_area"].to_numpy() == area.sum(0)).all()
    assert (got["max_area"].to_numpy() == area.max(0)).all()
    # sanity: some rects intersect, some areas are large
    assert got["n_ways"].sum() > 0 and got["total_area"].max() > 0


def test_idw_grid_vs_brute_force(ray_session, points):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        IDW_G,
        IDW_R,
        IDW_S,
        IDW_WNUM,
        q_idw_grid,
    )

    got = (q_idw_grid(SF).to_pandas()
           .sort_values(["gx", "gy"]).reset_index(drop=True))
    lon = points["lon"].to_numpy().astype(np.int64)
    lat = points["lat"].to_numpy().astype(np.int64)
    v = points["n_chars"].to_numpy().astype(np.int64)
    hx, hy = lon // IDW_G, lat // IDW_G
    occ = pd.DataFrame({"gx": hx, "gy": hy}).value_counts().sort_index()
    rows = []
    for (gx, gy), n_in in occ.items():
        cx, cy = gx * IDW_G + IDW_G // 2, gy * IDW_G + IDW_G // 2
        # abs prefilter before squaring (raw global diffs overflow)
        near = (np.abs(lon - cx) <= IDW_R) & (np.abs(lat - cy) <= IDW_R)
        d2 = (lon[near] - cx) ** 2 + (lat[near] - cy) ** 2
        m = np.zeros(len(lon), bool)
        m[np.flatnonzero(near)[d2 <= IDW_R * IDW_R]] = True
        d2 = (lon[m] - cx) ** 2 + (lat[m] - cy) ** 2
        w = IDW_WNUM // (d2 + IDW_S)
        rows.append((gx, gy, int(n_in), int(w.sum()),
                     float((v[m] * w).sum() / w.sum())))
    exp = (pd.DataFrame(rows, columns=["gx", "gy", "n_in", "den", "idw"])
           .sort_values(["gx", "gy"]).reset_index(drop=True))
    assert len(got) == len(exp)
    for c in ["gx", "gy", "n_in", "den"]:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert np.allclose(got["idw"].to_numpy(), exp["idw"].to_numpy(),
                       rtol=0, atol=0)
    # every occupied cell keeps positive total weight (its own points
    # are always in range of the center)
    assert (got["den"] > 0).all()


def test_way_simplify_vs_brute(ray_session):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        VW_MIN,
        VW_Q,
        q_way_simplify,
    )

    got = (q_way_simplify(SF).to_pandas()
           .sort_values(["way_id", "pos"]).reset_index(drop=True))
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_linenumber"]).to_pandas()
    key = (li["l_orderkey"].to_numpy(np.int64) * 8
           + li["l_linenumber"].to_numpy(np.int64))
    lon, lat = derive.derive_lonlat(key)
    df = pd.DataFrame({"way_id": li["l_orderkey"].to_numpy(np.int64),
                       "pos": li["l_linenumber"].to_numpy(np.int64),
                       "lon": lon, "lat": lat}).sort_values(
        ["way_id", "pos"], kind="stable").reset_index(drop=True)
    keep_rows = []
    for wid, g in df.groupby("way_id"):
        qx = ((g["lon"].to_numpy(np.int64) + 1_800_000_000)
              // VW_Q).tolist()
        qy = ((g["lat"].to_numpy(np.int64) + 900_000_000)
              // VW_Q).tolist()
        for i in range(len(g)):
            if i == 0 or i == len(g) - 1:
                keep_rows.append(g.iloc[i])
                continue
            cr = ((qx[i] - qx[i - 1]) * (qy[i + 1] - qy[i])
                  - (qx[i + 1] - qx[i]) * (qy[i] - qy[i - 1]))
            if abs(cr) >= VW_MIN:
                keep_rows.append(g.iloc[i])
    exp = (pd.DataFrame(keep_rows)
           .sort_values(["way_id", "pos"]).reset_index(drop=True))
    assert len(got) == len(exp)
    for c in ["way_id", "pos", "lon", "lat"]:
        assert (got[c].to_numpy() == exp[c].to_numpy(np.int64)).all(), c
    # endpoints always survive; some interior vertices must drop
    n_ways = df["way_id"].nunique()
    assert got.groupby("way_id").size().ge(1).all()
    assert got["way_id"].nunique() == n_ways
    assert len(got) < len(df)


def test_hull_vertices_match_bruteforce():
    """Monotone-chain vertex set == Caratheodory brute force (no point
    is a vertex iff some triangle/segment of others contains it) on
    random integer point sets, incl. duplicates-free collinear runs."""
    import itertools
    import random

    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        _hull_vertex_ids,
    )

    rng = random.Random(42)

    def brute(pts):
        keep = set()
        for p in pts:
            others = [q for q in pts if q[2] != p[2]]
            inside = False
            for a, b, c in itertools.combinations(others, 3):
                s1 = ((b[0]-a[0])*(p[1]-a[1]) - (b[1]-a[1])*(p[0]-a[0]))
                s2 = ((c[0]-b[0])*(p[1]-b[1]) - (c[1]-b[1])*(p[0]-b[0]))
                s3 = ((a[0]-c[0])*(p[1]-c[1]) - (a[1]-c[1])*(p[0]-c[0]))
                signs = ((s1 >= 0 and s2 >= 0 and s3 >= 0)
                         or (s1 <= 0 and s2 <= 0 and s3 <= 0))
                in_bbox = (min(a[0], b[0], c[0]) <= p[0]
                           <= max(a[0], b[0], c[0])
                           and min(a[1], b[1], c[1]) <= p[1]
                           <= max(a[1], b[1], c[1]))
                if signs and in_bbox:
                    inside = True
                    break
            if not inside:
                keep.add(p[2])
        return keep

    for trial in range(40):
        n = rng.randint(1, 12)
        seen = set()
        pts = []
        for i in range(n):
            while True:
                if trial % 4 == 0:
                    # collinear-heavy: points on a line y = 2x + 1
                    x = rng.randint(-20, 20)
                    xy = (x, 2 * x + 1)
                else:
                    xy = (rng.randint(-10, 10), rng.randint(-10, 10))
                if xy not in seen:
                    seen.add(xy)
                    break
            pts.append((xy[0], xy[1], i))
        pts.sort()
        assert _hull_vertex_ids(pts) == brute(pts), pts


def test_morans_i_vs_brute_force(ray_session):
    """Moran's I partial-sums exchange vs a dense all-cell-pairs
    computation in exact Fractions (z=MORANS_Z: finer grids are
    degenerate — every occupied cell holds exactly one point, so the
    count variance is zero and I is undefined)."""
    from fractions import Fraction

    from osmquadtree_depreceated_ray.functions.quadtree import (
        calculate_point,
        qt_round,
        qt_tuple,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        MORANS_QUANT,
        MORANS_Z,
        q_morans_i,
    )
    from osmquadtree_depreceated_ray.stages.assign import (
        QT_BUFFER,
        QT_MAX_LEVEL,
    )

    sf = "/root/testdata/sf0.01"
    ids = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"]
                        ).column("doc_id").to_numpy()
    lon, lat = derive.derive_lonlat(ids)
    qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
    zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
    cells = (pd.DataFrame({"x": zx, "y": zy})
             .groupby(["x", "y"]).size().reset_index(name="n"))
    xs = cells["x"].to_numpy()
    ys = cells["y"].to_numpy()
    ns = cells["n"].to_numpy(np.int64)
    nc = len(cells)
    xbar = Fraction(int(ns.sum()), nc)
    adj = (np.abs(xs[:, None] - xs[None, :])
           + np.abs(ys[:, None] - ys[None, :])) == 1
    ia, ib = np.where(adj)          # directed pairs, both ways
    w = len(ia)
    num = sum((Fraction(int(ns[i])) - xbar)
              * (Fraction(int(ns[j])) - xbar)
              for i, j in zip(ia.tolist(), ib.tolist()))
    den = sum((Fraction(int(v)) - xbar) ** 2 for v in ns.tolist())
    exp_i = Fraction(nc, w) * num / den
    # the engine emits floor(I*Q + 1/2) — round-half-down to floor
    exp_q = (exp_i * MORANS_QUANT + Fraction(1, 2)).__floor__()
    got = q_morans_i(sf).to_pandas()
    assert len(got) == 1
    assert int(got["n_cells"].iloc[0]) == nc
    assert int(got["w_pairs"].iloc[0]) * 2 == w
    assert int(got["morans_q12"].iloc[0]) == exp_q
    # the multiplicative scatter is spatially DISPERSED: I decisively < 0
    assert exp_q < -(10 ** 11)


def _autocorr_brute(sf):
    """Exact-Fraction cell grid + directed rook pairs at MORANS_Z."""
    from osmquadtree_depreceated_ray.functions.quadtree import (
        calculate_point,
        qt_round,
        qt_tuple,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import MORANS_Z
    from osmquadtree_depreceated_ray.stages.assign import (
        QT_BUFFER,
        QT_MAX_LEVEL,
    )

    ids = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"]
                        ).column("doc_id").to_numpy()
    lon, lat = derive.derive_lonlat(ids)
    qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
    zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
    cells = (pd.DataFrame({"x": zx, "y": zy})
             .groupby(["x", "y"]).size().reset_index(name="n"))
    xs = cells["x"].to_numpy()
    ys = cells["y"].to_numpy()
    ns = cells["n"].to_numpy(np.int64)
    adj = (np.abs(xs[:, None] - xs[None, :])
           + np.abs(ys[:, None] - ys[None, :])) == 1
    ia, ib = np.where(adj)          # directed pairs, both ways
    return ns, ia, ib


def test_geary_c_vs_brute_force(ray_session):
    from fractions import Fraction

    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        MORANS_QUANT,
        q_geary_c,
    )

    sf = "/root/testdata/sf0.01"
    ns, ia, ib = _autocorr_brute(sf)
    nc, w = len(ns), len(ia)
    xbar = Fraction(int(ns.sum()), nc)
    num = sum((Fraction(int(ns[i])) - Fraction(int(ns[j]))) ** 2
              for i, j in zip(ia.tolist(), ib.tolist()))
    den = sum((Fraction(int(v)) - xbar) ** 2 for v in ns.tolist())
    exp_c = Fraction(nc - 1, 2 * w) * num / den
    exp_q = (exp_c * MORANS_QUANT + Fraction(1, 2)).__floor__()
    got = q_geary_c(sf).to_pandas()
    assert int(got["n_cells"].iloc[0]) == nc
    assert int(got["w_pairs"].iloc[0]) * 2 == w
    assert int(got["geary_q12"].iloc[0]) == exp_q
    # dispersed scatter: C decisively above 1
    assert exp_q > MORANS_QUANT + 10 ** 11


def test_getis_g_vs_brute_force(ray_session):
    from fractions import Fraction

    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        MORANS_QUANT,
        q_getis_g,
    )

    sf = "/root/testdata/sf0.01"
    ns, ia, ib = _autocorr_brute(sf)
    nc, w = len(ns), len(ia)
    num = sum(int(ns[i]) * int(ns[j])
              for i, j in zip(ia.tolist(), ib.tolist()))
    den = sum(int(ns[i]) * int(ns[j])
              for i in range(nc) for j in range(nc) if i != j)
    exp_g = Fraction(num, den)
    exp_q = (exp_g * MORANS_QUANT + Fraction(1, 2)).__floor__()
    got = q_getis_g(sf).to_pandas()
    assert int(got["n_cells"].iloc[0]) == nc
    assert int(got["w_pairs"].iloc[0]) * 2 == w
    assert int(got["getis_q12"].iloc[0]) == exp_q
    assert 0 < exp_q < MORANS_QUANT  # a proper fraction of total pair mass


def test_local_g_vs_brute_force(ray_session):
    import math

    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        q_local_g,
    )

    sf = "/root/testdata/sf0.01"
    ns, ia, ib = _autocorr_brute(sf)
    # rebuild the cell frame (ns order) for coordinates
    from osmquadtree_depreceated_ray.functions.quadtree import (
        calculate_point,
        qt_round,
        qt_tuple,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import MORANS_Z
    from osmquadtree_depreceated_ray.stages.assign import (
        QT_BUFFER,
        QT_MAX_LEVEL,
    )

    ids = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"]
                        ).column("doc_id").to_numpy()
    lon, lat = derive.derive_lonlat(ids)
    qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
    zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
    cells = (pd.DataFrame({"x": zx, "y": zy})
             .groupby(["x", "y"]).size().reset_index(name="n"))
    nc = len(cells)
    s1 = int(cells["n"].sum())
    s2 = int((cells["n"].to_numpy(np.int64) ** 2).sum())
    bb = nc * s2 - s1 * s1
    # neighborhood sums incl. self from the directed pair list
    ksum = np.ones(nc, np.int64)
    ssum = cells["n"].to_numpy(np.int64).copy()
    for i, j in zip(ia.tolist(), ib.tolist()):
        ksum[i] += 1
        ssum[i] += int(cells["n"].iloc[j])
    got = (q_local_g(sf).to_pandas()
           .sort_values(["x", "y"]).reset_index(drop=True))
    assert len(got) == nc
    assert (got["x"].to_numpy() == cells["x"].to_numpy()).all()
    assert (got["k_nb"].to_numpy() == ksum).all()
    assert (got["s_nb"].to_numpy() == ssum).all()
    for r in range(nc):
        num = float(nc * int(ssum[r]) - int(ksum[r]) * s1)
        den = float(bb * (nc * int(ksum[r]) - int(ksum[r]) ** 2))
        exp = num / math.sqrt(den / float(nc - 1))
        assert got["gz"].iloc[r] == exp, r  # bit-exact fixed-order
    # hotspot structure is real: both signs present, |z| spread > 1
    assert (got["gz"] > 0).any() and (got["gz"] < 0).any()
    assert got["gz"].abs().max() > 1.0


def test_ripley_k_vs_brute_force(ray_session, points):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        MORANS_QUANT,
        RIPLEY_RS,
        q_ripley_k,
    )

    got = (q_ripley_k(SF).to_pandas()
           .sort_values("r").reset_index(drop=True))
    nd = len(points)
    den = 2 * nd * (nd - 1)
    assert list(got["r"]) == sorted(RIPLEY_RS)
    prev = -1
    for i, r in enumerate(sorted(RIPLEY_RS)):
        cnt = len(_brute_pairs(points, r))
        assert int(got["n_pairs"].iloc[i]) == cnt
        exp = (4 * cnt * MORANS_QUANT + den // 2) // den
        assert int(got["pairfrac_q12"].iloc[i]) == exp
        assert cnt >= prev  # monotone in r
        prev = cnt
    assert prev > 0


def test_join_counts_vs_brute_force(ray_session):
    from fractions import Fraction

    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        JC_MARK_MIN,
        MORANS_QUANT,
        q_join_counts,
    )

    sf = "/root/testdata/sf0.01"
    ns, ia, ib = _autocorr_brute(sf)
    nc = len(ns)
    m = (ns >= JC_MARK_MIN).astype(np.int8)
    # unordered pairs: keep directed i<j only
    keep = ia < ib
    ma, mb = m[ia[keep]], m[ib[keep]]
    bb = int((ma & mb).sum())
    bw = int((ma != mb).sum())
    ww = int(((1 - ma) & (1 - mb)).sum())
    npair = bb + bw + ww
    nb = int(m.sum())
    exp_ebb = Fraction(npair * nb * (nb - 1), nc * (nc - 1))
    exp_q = (exp_ebb * MORANS_QUANT + Fraction(1, 2)).__floor__()
    got = q_join_counts(sf).to_pandas()
    assert int(got["n_cells"].iloc[0]) == nc
    assert int(got["n_black"].iloc[0]) == nb
    assert (int(got["bb"].iloc[0]), int(got["bw"].iloc[0]),
            int(got["ww"].iloc[0])) == (bb, bw, ww)
    assert int(got["ebb_q12"].iloc[0]) == exp_q
    # marks exist on both sides and pair classes are all populated
    assert 0 < nb < nc and bb > 0 and bw > 0 and ww > 0


def test_contingency_vs_brute_force(ray_session):
    import math
    from fractions import Fraction

    from osmquadtree_depreceated_ray.functions.quadtree import (
        calculate_point,
        qt_round,
        qt_tuple,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        MORANS_QUANT,
        MORANS_Z,
        q_contingency,
    )
    from osmquadtree_depreceated_ray.stages.assign import (
        QT_BUFFER,
        QT_MAX_LEVEL,
    )

    sf = "/root/testdata/sf0.01"
    t = pq.read_table(f"{sf}/documents.parquet",
                      columns=["doc_id", "source"]).to_pandas()
    lon, lat = derive.derive_lonlat(t["doc_id"].to_numpy())
    qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
    zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
    t = t.assign(x=zx, y=zy)
    obs = (t.groupby(["x", "y", "source"]).size().reset_index(name="o"))
    rt = t.groupby(["x", "y"]).size()
    ct = t.groupby("source").size()
    nt = len(t)
    got = (q_contingency(sf).to_pandas()
           .sort_values(["x", "y", "source"]).reset_index(drop=True))
    assert len(got) == len(obs)
    assert int(got["o"].sum()) == nt
    for _, r in got.iterrows():
        o = int(obs[(obs["x"] == r["x"]) & (obs["y"] == r["y"])
                    & (obs["source"] == r["source"])]["o"].iloc[0])
        assert int(r["o"]) == o
        rc = int(rt.loc[(r["x"], r["y"])]) * int(ct.loc[r["source"]])
        e = Fraction(rc, nt)
        assert int(r["e_q12"]) == \
            (e * MORANS_QUANT + Fraction(1, 2)).__floor__()
        ef = float(rc) / float(nt)
        assert r["resid"] == (float(o) - ef) / math.sqrt(ef)
    # occupied-pair residuals are positively biased by construction
    # (o=0 pairs are absent from the sparse table); assert genuine
    # spread instead
    assert got["resid"].nunique() > 2
    assert got["resid"].max() > 2.0


def test_hhi_vs_brute_force(ray_session):
    from fractions import Fraction

    from osmquadtree_depreceated_ray.functions.quadtree import (
        calculate_point,
        qt_round,
        qt_tuple,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        MORANS_QUANT,
        MORANS_Z,
        q_hhi,
    )
    from osmquadtree_depreceated_ray.stages.assign import (
        QT_BUFFER,
        QT_MAX_LEVEL,
    )

    sf = "/root/testdata/sf0.01"
    t = pq.read_table(f"{sf}/documents.parquet",
                      columns=["doc_id", "source"]).to_pandas()
    lon, lat = derive.derive_lonlat(t["doc_id"].to_numpy())
    qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
    zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
    t = t.assign(x=zx, y=zy)
    got = (q_hhi(sf).to_pandas()
           .sort_values(["x", "y"]).reset_index(drop=True))
    want = t.groupby(["x", "y"])
    assert len(got) == want.ngroups
    for _, r in got.iterrows():
        g = t[(t["x"] == r["x"]) & (t["y"] == r["y"])]
        cs = g.groupby("source").size()
        assert int(r["total"]) == len(g)
        assert int(r["n_sources"]) == len(cs)
        h = Fraction(int((cs ** 2).sum()), len(g) ** 2)
        assert int(r["hhi_q12"]) == \
            (h * MORANS_QUANT + Fraction(1, 2)).__floor__()
    # concentration genuinely varies across cells
    assert got["hhi_q12"].nunique() > 3
    assert got["hhi_q12"].max() > got["hhi_q12"].min()


def test_quadrat_csr_vs_brute_force(ray_session):
    from fractions import Fraction

    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        MORANS_QUANT,
        MORANS_Z,
        q_quadrat_csr,
    )

    sf = "/root/testdata/sf0.01"
    ns, _, _ = _autocorr_brute(sf)
    grid = (1 << MORANS_Z) ** 2
    s1 = int(ns.sum())
    mu = Fraction(s1, grid)
    # dense reference: all grid cells, empties contribute (0 - mu)^2/mu
    chi2 = (sum((Fraction(int(v)) - mu) ** 2 for v in ns.tolist())
            + (grid - len(ns)) * mu ** 2) / mu
    exp_q = (chi2 * MORANS_QUANT + Fraction(1, 2)).__floor__()
    got = q_quadrat_csr(sf).to_pandas()
    assert int(got["n_grid"].iloc[0]) == grid
    assert int(got["n_occupied"].iloc[0]) == len(ns)
    assert int(got["n_points"].iloc[0]) == s1
    assert int(got["chi2_q12"].iloc[0]) == exp_q
    # strongly non-CSR either direction: |chi2 - (G-1)| large
    assert abs(chi2 - (grid - 1)) > 10


def test_lisa_quadrants_vs_brute_force(ray_session):
    from osmquadtree_depreceated_ray.functions.quadtree import (
        calculate_point,
        qt_round,
        qt_tuple,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        MORANS_Z,
        q_lisa_quadrants,
    )
    from osmquadtree_depreceated_ray.stages.assign import (
        QT_BUFFER,
        QT_MAX_LEVEL,
    )

    sf = "/root/testdata/sf0.01"
    ns, ia, ib = _autocorr_brute(sf)
    nc = len(ns)
    s1 = int(ns.sum())
    k = np.zeros(nc, np.int64)
    lag = np.zeros(nc, np.int64)
    for i, j in zip(ia.tolist(), ib.tolist()):
        k[i] += 1
        lag[i] += int(ns[j])
    got = (q_lisa_quadrants(sf).to_pandas()
           .sort_values(["x", "y"]).reset_index(drop=True))
    assert len(got) == nc
    assert (got["n"].to_numpy() == ns).all()
    assert (got["k_nb"].to_numpy() == k).all()
    for r in range(nc):
        if k[r] == 0:
            assert pd.isna(got["quadrant"].iloc[r])
            continue
        hi_own = int(ns[r]) * nc > s1
        hi_lag = int(lag[r]) * nc > int(k[r]) * s1
        exp = 1 if (hi_own and hi_lag) else \
            4 if hi_own else 2 if hi_lag else 3
        assert int(got["quadrant"].iloc[r]) == exp, r
    # all four quadrants genuinely occur on the fixture
    assert set(got["quadrant"].dropna().astype(int)) == {1, 2, 3, 4}


def test_cross_k_vs_brute_force(ray_session):
    from osmquadtree_depreceated_ray.pipelines.queries_spatial import (
        CROSS_K_R,
        q_cross_k,
    )

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    lon, lat = derive.derive_lonlat(docs["doc_id"].to_numpy())
    pts = docs.assign(lon=lon, lat=lat)
    pairs = _brute_pairs(pts, CROSS_K_R)
    smap = docs.set_index("doc_id")["source"]
    sa = pairs["a"].map(smap).to_numpy()
    sb = pairs["b"].map(smap).to_numpy()
    lo = np.where(sa <= sb, sa, sb)
    hi = np.where(sa <= sb, sb, sa)
    want = (pd.DataFrame({"sa": lo, "sb": hi})
            .groupby(["sa", "sb"]).size().reset_index(name="n_pairs"))
    got = (q_cross_k(sf).to_pandas()
           .sort_values(["sa", "sb"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["n_pairs"].sum() == len(pairs)  # conservation
    assert (got["sa"] <= got["sb"]).all()
