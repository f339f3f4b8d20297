"""Spatial-join extensions: zonal statistics, rasterization, and
cell-blocked distance joins.

These complete the north-rule spatial surface around the existing PIP /
kNN / raster-lookup kernels:

* ``zonal_stats`` — the classic raster/vector *zonal statistics*
  operator: per-polygon aggregates (count, value sum/mean, bbox of the
  matched points) computed as PIP join -> map-side-combined grouped
  aggregation.  The reference computes per-region rollups by filtering
  then counting (filter/filter.go + calcqts counts); here it is one
  streaming pass.
* ``rasterize`` — vector -> raster: aggregate derived entity points
  into the z=8 slippy grid (count + value sum/mean per tile cell), the
  inverse direction of ``raster_lookup`` (quadtree.go:181-203 tuple
  mapping).  Together they close the raster<->vector loop the north
  rule names.
* ``dist_selfjoin`` — distance self-join (all pairs within R) via
  grid-cell blocking: each point is replicated to the <=4 cells that
  could own one of its pairs (pair ownership = the elementwise-min cell
  of the two homes, so every qualifying pair is emitted EXACTLY once,
  no global dedup pass), pairs are found with a vectorized hash
  self-merge per bucket.  Replication is x4 regardless of R; candidate
  work is bounded by per-cell density, never all-pairs.
* ``nn_join`` — capped nearest-neighbour join (each point's nearest
  other point within R, standard bounded-NN semantics): the same
  blocking machinery emitting both directions, finished by a per-point
  argmin inside the bucketed exchange.

All distance math is exact: int64 coordinate diffs (cell blocking keeps
|diff| <= 2R, far from overflow), squared distances kept as BIGINT end
to end (R^2 = 1e16 exceeds 2^53, so DOUBLE would round); the DuckDB
oracles compute the squares in HUGEINT after an abs prefilter.  At
100 TB the shuffles move only fixed-width candidate rows — text never
enters any of these pipelines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources import derive


def _q():
    """Deferred import of the root registry module (it imports this
    module back when merging registries)."""
    from . import queries

    return queries

# distance-join radius in 1e-7-degree units (10 degrees): chosen so the
# sf0.01 corpus yields a few hundred pairs and sf0.1 tens of thousands.
DIST_R = 100_000_000
RASTER_Z = 8


# --------------------------------------------------------------------------
# zonal_stats
# --------------------------------------------------------------------------


def q_zonal_stats(sf_dir: str):
    """Per-polygon zonal statistics over the derived document points:
    (poly_id, n, sum_chars, mean_chars, minx, miny, maxx, maxy).

    PIP join (broadcast polygon index, once-per-worker) -> grouped_agg
    keyed on poly_id with map-side combine: the exchange moves
    O(polygons x tasks) partial rows, independent of corpus size."""
    import ray

    from ..stages.shuffle import grouped_agg
    from ..stages.spatial import PolygonIndex, pip_map_fn

    index = PolygonIndex.from_table(_q().rect_polys_table())
    ref = ray.put(index)
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ).map_batches(
        lambda b: _q()._derive_batch(b, "doc_id"), batch_format="pyarrow"
    )
    pairs = ds.map_batches(
        pip_map_fn(ref, ("doc_id", "n_chars")), batch_format="pyarrow")
    agg = grouped_agg(
        pairs,
        ["poly_id"],
        {
            "n": ("doc_id", "size"),
            "sum_chars": ("n_chars", "sum"),
            "minx": ("lon", "min"),
            "miny": ("lat", "min"),
            "maxx": ("lon", "max"),
            "maxy": ("lat", "max"),
        },
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy().astype(np.int64)
        s = b.column("sum_chars").to_numpy().astype(np.int64)
        return pa.table(
            {
                "poly_id": b.column("poly_id"),
                "n": pa.array(n),
                "sum_chars": pa.array(s),
                "mean_chars": pa.array(s.astype(np.float64) / n),
                "minx": b.column("minx"),
                "miny": b.column("miny"),
                "maxx": b.column("maxx"),
                "maxy": b.column("maxy"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_zonal_stats() -> str:
    lon, lat = derive.sql_lonlat_expr("doc_id")
    return (
        f"WITH {_q().sql_rects_cte()}, "
        f"e AS (SELECT doc_id, n_chars, {lon} AS lon, {lat} AS lat "
        f"FROM documents) "
        f"SELECT CAST(r.poly_id AS BIGINT) AS poly_id, "
        f"COUNT(*) AS n, CAST(SUM(e.n_chars) AS BIGINT) AS sum_chars, "
        f"CAST(SUM(e.n_chars) AS DOUBLE) / COUNT(*) AS mean_chars, "
        f"MIN(e.lon) AS minx, MIN(e.lat) AS miny, "
        f"MAX(e.lon) AS maxx, MAX(e.lat) AS maxy "
        f"FROM e JOIN rects r ON e.lon >= r.minx AND e.lon < r.maxx "
        f"AND e.lat >= r.miny AND e.lat < r.maxy "
        f"GROUP BY r.poly_id"
    )


# --------------------------------------------------------------------------
# rasterize
# --------------------------------------------------------------------------


def q_rasterize(sf_dir: str):
    """Vector -> raster: count + n_chars sum/mean per z=8 slippy cell,
    sparse output (x, y, n, sum_chars, mean_chars).

    Per-batch partial aggregation (np.unique on the packed cell id +
    bincount) keeps the exchange at O(occupied cells), exactly the
    tile_counts shape at a fixed zoom."""
    import ray

    from ..functions.quadtree import calculate_point, qt_round, qt_tuple
    from ..stages.assign import QT_BUFFER, QT_MAX_LEVEL
    from ..stages.shuffle import grouped_agg

    n_side = 1 << RASTER_Z

    def per_batch(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
        zx, zy, _ = qt_tuple(qt_round(qt, RASTER_Z))
        packed = zx * n_side + zy
        vals, inv, counts = np.unique(
            packed, return_inverse=True, return_counts=True)
        chars = b.column("n_chars").to_numpy().astype(np.int64)
        # bincount weights are float64; n_chars sums stay far below 2^53
        sums = np.bincount(inv, weights=chars,
                           minlength=len(vals)).astype(np.int64)
        return pa.table(
            {
                "x": pa.array(vals // n_side),
                "y": pa.array(vals % n_side),
                "n": pa.array(counts.astype(np.int64)),
                "sum_chars": pa.array(sums),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    agg = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["x", "y"],
        {"n": ("n", "sum"), "sum_chars": ("sum_chars", "sum")},
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy().astype(np.int64)
        s = b.column("sum_chars").to_numpy().astype(np.int64)
        return b.append_column(
            "mean_chars", pa.array(s.astype(np.float64) / n))

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_rasterize() -> str:
    kx, ky = derive.sql_cells_expr("doc_id")
    shift = 18 - RASTER_Z
    x = f"({kx} >> {shift})"
    y = f"((262143 - {ky}) >> {shift})"
    return (
        f"SELECT {x} AS x, {y} AS y, COUNT(*) AS n, "
        f"CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
        f"CAST(SUM(n_chars) AS DOUBLE) / COUNT(*) AS mean_chars "
        f"FROM documents GROUP BY 1, 2"
    )


# --------------------------------------------------------------------------
# dist_selfjoin / nn_join
# --------------------------------------------------------------------------


def _replicated_points(sf_dir: str, r: int, extra_cols: tuple = ()):
    """Derived points replicated to the <=4 grid cells that may own one
    of their pairs (cell ownership = elementwise-min home cell);
    ``extra_cols`` names raw document columns to carry along."""
    import ray

    def rep(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        doc = d.column("doc_id").to_numpy().astype(np.int64)
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        hx = np.floor_divide(lon, r)
        hy = np.floor_divide(lat, r)
        n = len(doc)
        idx = np.tile(np.arange(n, dtype=np.int64), 4)
        dx = np.repeat(np.array([0, 1, 0, 1], dtype=np.int64), n)
        dy = np.repeat(np.array([0, 0, 1, 1], dtype=np.int64), n)
        cols = {
            "cx": pa.array(hx[idx] - dx),
            "cy": pa.array(hy[idx] - dy),
            "doc_id": pa.array(doc[idx]),
            "lon": pa.array(lon[idx]),
            "lat": pa.array(lat[idx]),
            "hx": pa.array(hx[idx]),
            "hy": pa.array(hy[idx]),
        }
        for c in extra_cols:
            cols[c] = b.column(c).take(pa.array(idx))
        return pa.table(cols)

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", *extra_cols])
    return ds.map_batches(rep, batch_format="pyarrow")


def _cell_pair_indices(g: pd.DataFrame, r: int):
    """Row-index view of the exactly-once in-bucket pair enumeration:
    (a_i, b_i, dist2) positional indices into ``g`` with a < b by doc
    id and dist2 <= r^2 — shared by the pair materializers
    (_cell_pairs) and the class-pair counters (cross_k)."""
    if g.empty:
        return (np.zeros(0, np.int64), np.zeros(0, np.int64),
                np.zeros(0, np.int64))
    cx = g["cx"].to_numpy(np.int64)
    cy = g["cy"].to_numpy(np.int64)
    # collision-free pack: |cx| <= 1.8e9/r < 2^31 and the cy span is
    # under 2^32, so cx * 2^32 + cy stays within int64 and is injective
    cell = cx * (np.int64(1) << 32) + cy
    order = np.argsort(cell, kind="stable")
    cs = cell[order]
    starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
    counts = np.diff(np.r_[starts, len(cs)])
    ia_parts, ib_parts = [], []
    for c in np.unique(counts):
        if c < 2:
            continue
        sel = starts[counts == c]
        iu, ju = np.triu_indices(int(c), k=1)
        ia_parts.append((sel[:, None] + iu[None, :]).ravel())
        ib_parts.append((sel[:, None] + ju[None, :]).ravel())
    if not ia_parts:
        return (np.zeros(0, np.int64), np.zeros(0, np.int64),
                np.zeros(0, np.int64))
    ia = order[np.concatenate(ia_parts)]
    ib = order[np.concatenate(ib_parts)]
    doc = g["doc_id"].to_numpy(np.int64)
    lon = g["lon"].to_numpy()
    lat = g["lat"].to_numpy()
    hx = g["hx"].to_numpy()
    hy = g["hy"].to_numpy()
    # orient each unordered pair as (a < b) by doc id
    swap = doc[ia] > doc[ib]
    a_i = np.where(swap, ib, ia)
    b_i = np.where(swap, ia, ib)
    keep = (
        (doc[a_i] != doc[b_i])
        & (cx[a_i] == np.minimum(hx[a_i], hx[b_i]))
        & (cy[a_i] == np.minimum(hy[a_i], hy[b_i]))
    )
    a_i, b_i = a_i[keep], b_i[keep]
    dlon = lon[a_i] - lon[b_i]
    dlat = lat[a_i] - lat[b_i]
    d2 = dlon * dlon + dlat * dlat  # int64 exact; |diff| <= 2r
    ok = d2 <= r * r
    return a_i[ok], b_i[ok], d2[ok]


def _cell_pairs(g: pd.DataFrame, r: int) -> pd.DataFrame:
    """All (a < b, dist2 <= r^2) pairs owned by cells in this bucket,
    with the exactly-once ownership rule (cell == elementwise min of
    the two home cells).

    Pair enumeration is pure numpy: rows sort by packed replica cell,
    and each cell's unordered pairs come from a precomputed triangular
    index template per distinct cell SIZE (one vectorized broadcast
    per size class).  A pandas self-merge here would materialize the
    full c^2 cross product with every column duplicated — measured 10x
    slower and ~16x the peak memory at the 2M-point probe scale."""
    a_i, b_i, d2 = _cell_pair_indices(g, r)
    if not len(a_i):
        return pd.DataFrame(
            {"a": pd.Series(dtype=np.int64),
             "b": pd.Series(dtype=np.int64),
             "dist2": pd.Series(dtype=np.int64)})
    doc = g["doc_id"].to_numpy(np.int64)
    return pd.DataFrame({"a": doc[a_i], "b": doc[b_i], "dist2": d2})


def q_dist_selfjoin(sf_dir: str, r: int = DIST_R):
    """Distance self-join: every document pair within ``r`` (1e-7 deg)
    as (a, b, dist2), a < b, each pair exactly once."""
    from ..stages.shuffle import bucketed_apply

    pts = _replicated_points(sf_dir, r)
    return bucketed_apply(pts, ["cx", "cy"], lambda g: _cell_pairs(g, r))


def _sql_dist_pairs(r: int) -> str:
    lon, lat = derive.sql_lonlat_expr("doc_id")
    # HUGEINT squares: exact for any diff (R^2 = 1e16 > 2^53 rules out
    # DOUBLE; unfiltered diffs squared would overflow BIGINT)
    d2 = (
        "CAST(a.lon - b.lon AS HUGEINT) * CAST(a.lon - b.lon AS HUGEINT) + "
        "CAST(a.lat - b.lat AS HUGEINT) * CAST(a.lat - b.lat AS HUGEINT)"
    )
    return (
        f"e AS (SELECT doc_id, {lon} AS lon, {lat} AS lat FROM documents), "
        f"pairs AS (SELECT a.doc_id AS a, b.doc_id AS b, "
        f"CAST({d2} AS BIGINT) AS dist2 "
        f"FROM e a JOIN e b ON a.doc_id < b.doc_id "
        f"AND abs(a.lon - b.lon) <= {r} AND abs(a.lat - b.lat) <= {r} "
        f"AND {d2} <= {r}::HUGEINT * {r}::HUGEINT)"
    )


def sql_dist_selfjoin() -> str:
    return f"WITH {_sql_dist_pairs(DIST_R)} SELECT a, b, dist2 FROM pairs"


def q_nn_join(sf_dir: str, r: int = DIST_R):
    """Capped nearest-neighbour join: (doc_id, nn, dist2) = each
    document's nearest other document within ``r`` (docs with no
    neighbour in range are absent — standard bounded-NN contract).

    Same blocking exchange as dist_selfjoin; candidates flow into a
    per-doc argmin exchange as fixed-width rows.  Ties break on the
    smaller neighbour id (deterministic, matches the SQL oracle)."""
    from ..stages.shuffle import bucketed_apply

    pts = _replicated_points(sf_dir, r)

    def both_dirs(g: pd.DataFrame) -> pd.DataFrame:
        p = _cell_pairs(g, r)
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [p["a"].to_numpy(), p["b"].to_numpy()]),
                "nn": np.concatenate(
                    [p["b"].to_numpy(), p["a"].to_numpy()]),
                "dist2": np.tile(p["dist2"].to_numpy(), 2),
            }
        )

    cands = bucketed_apply(pts, ["cx", "cy"], both_dirs)

    def argmin(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["dist2", "nn"], kind="stable")
        return g.groupby("doc_id", as_index=False, sort=False).first()

    # argmin is safe on partial per-key data -> map-side combine
    return bucketed_apply(cands, ["doc_id"], argmin, combine=argmin)


def sql_nn_join() -> str:
    return (
        f"WITH {_sql_dist_pairs(DIST_R)}, "
        "bd AS (SELECT a AS doc_id, b AS nn, dist2 FROM pairs "
        "UNION ALL SELECT b, a, dist2 FROM pairs) "
        "SELECT doc_id, nn, dist2 FROM (SELECT doc_id, nn, dist2, "
        "row_number() OVER (PARTITION BY doc_id ORDER BY dist2, nn) AS rn "
        "FROM bd) WHERE rn = 1"
    )


QUERIES = {
    "zonal_stats": q_zonal_stats,
    "rasterize": q_rasterize,
    "dist_selfjoin": q_dist_selfjoin,
    "nn_join": q_nn_join,
}

# lazy (callable) oracles: building the SQL needs the root registry
# module's rect CTE, which imports this module back during its own init
ORACLES = {
    "zonal_stats": sql_zonal_stats,
    "rasterize": sql_rasterize,
    "dist_selfjoin": sql_dist_selfjoin,
    "nn_join": sql_nn_join,
}


KNN_JOIN_K = 3


def q_knn_join(sf_dir: str, r: int = DIST_R, k: int = KNN_JOIN_K):
    """kNN join: for EVERY document, its ``k`` nearest other documents
    within ``r`` (doc_id, rank, nn, dist2) — the all-points
    generalization of ``nn_join`` (which is the k=1 special case) and
    the counterpart of the broadcast-queries ``knn``.

    Same blocking exchange; the per-point top-k finish runs inside the
    bucketed argmin exchange with a rank head, so candidate volume
    stays bounded by per-cell density.  Ties break on (dist2, nn)."""
    from ..stages.shuffle import bucketed_apply

    pts = _replicated_points(sf_dir, r)

    def both_dirs(g: pd.DataFrame) -> pd.DataFrame:
        p = _cell_pairs(g, r)
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [p["a"].to_numpy(), p["b"].to_numpy()]),
                "nn": np.concatenate(
                    [p["b"].to_numpy(), p["a"].to_numpy()]),
                "dist2": np.tile(p["dist2"].to_numpy(), 2),
            }
        )

    cands = bucketed_apply(pts, ["cx", "cy"], both_dirs)

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["dist2", "nn"], kind="stable")
        out = g.groupby("doc_id", sort=False).head(k).copy()
        out["rank"] = out.groupby("doc_id", sort=False).cumcount() + 1
        return out[["doc_id", "rank", "nn", "dist2"]]

    # head-k per key is safe on partial per-key data -> map-side combine
    return bucketed_apply(cands, ["doc_id"], topk, combine=topk)


def sql_knn_join() -> str:
    return (
        f"WITH {_sql_dist_pairs(DIST_R)}, "
        "bd AS (SELECT a AS doc_id, b AS nn, dist2 FROM pairs "
        "UNION ALL SELECT b, a, dist2 FROM pairs) "
        "SELECT doc_id, CAST(rn AS BIGINT) AS rank, nn, dist2 FROM ("
        "SELECT doc_id, nn, dist2, row_number() OVER ("
        "PARTITION BY doc_id ORDER BY dist2, nn) AS rn FROM bd) "
        f"WHERE rn <= {KNN_JOIN_K}"
    )


def q_tile_pyramid(sf_dir: str):
    """Tile pyramid: the z=8 rasterize aggregate rolled up through
    every coarser zoom (z, x, y, n, sum_chars) for z = 8..0 — the
    classic raster pyramid build.

    One distributed exchange produces the base level (O(occupied
    cells)); each coarser level halves the previous one's coordinates
    and re-sums — at most 4^8 sparse rows total, so the rollup runs on
    the driver like the qt counting trie (SURVEY T1), which is the
    same design point: per-tile summaries are driver-sized by
    construction."""
    base = q_rasterize(sf_dir).to_pandas()[["x", "y", "n", "sum_chars"]]
    levels = []
    cur = base.assign(z=np.int64(RASTER_Z))
    levels.append(cur)
    for z in range(RASTER_Z - 1, -1, -1):
        prev = levels[-1]
        nxt = (prev.assign(x=prev["x"] // 2, y=prev["y"] // 2)
               .groupby(["x", "y"], as_index=False)[["n", "sum_chars"]]
               .sum().assign(z=np.int64(z)))
        levels.append(nxt)
    out = pd.concat(levels, ignore_index=True)
    return pa.Table.from_pandas(
        out[["z", "x", "y", "n", "sum_chars"]], preserve_index=False)


def sql_tile_pyramid() -> str:
    kx, ky = derive.sql_cells_expr("doc_id")
    parts = []
    for z in range(RASTER_Z, -1, -1):
        shift = 18 - z
        x = f"({kx} >> {shift})"
        y = f"((262143 - {ky}) >> {shift})"
        parts.append(
            f"SELECT CAST({z} AS BIGINT) AS z, {x} AS x, {y} AS y, "
            f"COUNT(*) AS n, CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
            f"FROM documents GROUP BY 2, 3"
        )
    return " UNION ALL ".join(parts)


QUERIES["knn_join"] = q_knn_join
QUERIES["tile_pyramid"] = q_tile_pyramid
ORACLES["knn_join"] = sql_knn_join
ORACLES["tile_pyramid"] = sql_tile_pyramid


# --------------------------------------------------------------------------
# DBSCAN density clustering
# --------------------------------------------------------------------------
#
# Distributed DBSCAN over the derived point set, composed entirely from
# existing distributed primitives — no broadcast of any O(points)
# state, no driver materialization:
#
#   1. eps-neighbor pairs via the grid-blocked distance self-join
#      (_replicated_points/_cell_pairs — each pair found exactly once);
#   2. degrees by one map-side-combined grouped count; core points are
#      |N_eps(p)| >= minpts (the neighborhood includes p itself);
#   3. core-core edges by two cogroup exchanges (pairs and the core
#      table hash on the same key and filter bucket-locally — a
#      semi-join, not a broadcast);
#   4. cluster labels = connected components over core-core edges via
#      the pointer-doubling label-propagation exchange shared with
#      dedup_components (cc_label_refs);
#   5. border points adopt the MINIMUM cluster label among their core
#      neighbors (one more cogroup + a grouped min) — the
#      classic DBSCAN border tie is order-dependent; the min rule makes
#      it deterministic, and the oracle implements the same rule;
#   6. everything else is noise (cluster = -1).
#
# Output: (doc_id, is_core, cluster), cluster = min core doc_id of the
# cluster, -1 for noise.  Oracle: the identical construction in SQL
# with a recursive-CTE closure for step 4 (dedup_components pattern).

DBSCAN_EPS = 200_000_000
DBSCAN_MINPTS = 8


def _semi_filter_pairs(pairs_ds, key_col: str, members_ds):
    """Pair rows whose ``key_col`` endpoint appears in ``members_ds``
    (column doc_id): a cogroup on the key, bucket-local vectorized
    membership — a distributed semi-join."""
    from ..stages.shuffle import bucketed_apply

    def f(p: pd.DataFrame, mem: pd.DataFrame) -> pd.DataFrame:
        keep = p[key_col].isin(mem["doc_id"]).to_numpy()
        return pd.DataFrame({"a": p["a"].to_numpy(np.int64)[keep],
                             "b": p["b"].to_numpy(np.int64)[keep]})

    return bucketed_apply((pairs_ds, members_ds), ([key_col], ["doc_id"]), f)


def q_dbscan(sf_dir: str, eps: int = DBSCAN_EPS,
             minpts: int = DBSCAN_MINPTS):
    import ray
    import ray.data

    from ..stages.shuffle import bucketed_apply, grouped_agg
    from .queries_curate import cc_label_refs

    pts = _replicated_points(sf_dir, eps)
    # pairs feed three downstream consumers (degrees, core-core filter,
    # border assignment) — materialize once instead of recomputing the
    # self-join lineage three times; O(pairs) in the object store
    pairs = bucketed_apply(
        pts, ["cx", "cy"], lambda g: _cell_pairs(g, eps)).materialize()
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    if not pairs.count():
        # no eps-neighbours: every point is noise (and Ray's maps would
        # turn the empty pair set into blocks without columns, which the
        # cogroups below cannot read)
        def noise(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({"doc_id": t.column("doc_id"),
                             "is_core": pa.array(np.zeros(n, np.int64)),
                             "cluster": pa.array(np.full(n, -1, np.int64))})

        return docs.map_batches(noise, batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        if "a" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64()),
                             "one": pa.array([], pa.int64())})
        a = t.column("a").to_numpy().astype(np.int64)
        b = t.column("b").to_numpy().astype(np.int64)
        n = np.concatenate([a, b])
        return pa.table({"node": pa.array(n),
                         "one": pa.array(np.ones(len(n), np.int64))})

    deg = grouped_agg(pairs.map_batches(explode, batch_format="pyarrow"),
                      ["node"], {"nb": ("one", "sum")})

    def core_only(t: pa.Table) -> pa.Table:
        if "node" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        nb = t.column("nb").to_numpy().astype(np.int64)
        keep = nb + 1 >= minpts  # the neighborhood includes the point
        return pa.table({"doc_id": t.column("node").filter(pa.array(keep))})

    core = deg.map_batches(core_only, batch_format="pyarrow").materialize()

    cc_pairs = _semi_filter_pairs(
        _semi_filter_pairs(pairs, "a", core), "b", core)
    labels = cc_label_refs(cc_pairs, core)
    labels_ds = ray.data.from_arrow_refs(labels)

    # border candidates: for each directed neighbor edge whose head is
    # a core, emit (tail, cluster(head)); labels only exist for cores,
    # so co-locating on the head id IS the core filter
    def directed(t: pa.Table) -> pa.Table:
        if "a" not in t.column_names:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64())})
        a = t.column("a").to_numpy().astype(np.int64)
        b = t.column("b").to_numpy().astype(np.int64)
        return pa.table({"src": np.concatenate([a, b]),
                         "dst": np.concatenate([b, a])})

    und = pairs.map_batches(directed, batch_format="pyarrow")

    def adopt(edges: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        m = edges.merge(lab, left_on="dst", right_on="node", how="inner")
        if m.empty:
            return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                                 "cand": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"node": m["src"].to_numpy(np.int64),
                             "cand": m["label"].to_numpy(np.int64)})

    cand = grouped_agg(
        bucketed_apply((und, labels_ds), (["dst"], ["node"]), adopt),
        ["node"], {"cand": ("cand", "min")})

    # final assembly: documents + core labels + border candidates,
    # co-located by doc id
    def assemble(d: pd.DataFrame, lab: pd.DataFrame,
                 bo: pd.DataFrame) -> pd.DataFrame:
        own = d["doc_id"].map(lab.set_index("node")["label"])
        adopt_ = d["doc_id"].map(bo.set_index("node")["cand"])
        is_core = own.notna()
        cluster = np.where(is_core, own.fillna(-1),
                           adopt_.fillna(-1)).astype(np.int64)
        return pd.DataFrame({
            "doc_id": d["doc_id"].to_numpy(np.int64),
            "is_core": is_core.to_numpy().astype(np.int64),
            "cluster": cluster,
        })

    return bucketed_apply((docs, labels_ds, cand),
                          (["doc_id"], ["node"], ["node"]), assemble)


def sql_dbscan() -> str:
    return (
        f"WITH RECURSIVE {_sql_dist_pairs(DBSCAN_EPS)}, "
        "und AS (SELECT a AS src, b AS dst FROM pairs "
        "UNION ALL SELECT b, a FROM pairs), "
        "deg AS (SELECT d.doc_id AS v, 1 + COUNT(u.dst) AS dg "
        "FROM documents d LEFT JOIN und u ON u.src = d.doc_id "
        "GROUP BY d.doc_id), "
        f"core AS (SELECT v FROM deg WHERE dg >= {DBSCAN_MINPTS}), "
        "ce AS (SELECT u.src, u.dst FROM und u "
        "JOIN core c1 ON c1.v = u.src JOIN core c2 ON c2.v = u.dst), "
        "walk(node, lab) AS (SELECT v, v FROM core "
        "UNION SELECT ce.dst, w.lab FROM walk w JOIN ce ON ce.src = w.node), "
        "clab AS (SELECT node, MIN(lab) AS cluster FROM walk "
        "GROUP BY node), "
        "border AS (SELECT u.src AS v, MIN(cl.cluster) AS cluster "
        "FROM und u JOIN clab cl ON cl.node = u.dst "
        "LEFT JOIN core cs ON cs.v = u.src WHERE cs.v IS NULL "
        "GROUP BY u.src) "
        "SELECT d.doc_id, "
        "CAST(CASE WHEN cl.node IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) "
        "AS is_core, "
        "CAST(COALESCE(cl.cluster, bo.cluster, -1) AS BIGINT) AS cluster "
        "FROM documents d "
        "LEFT JOIN clab cl ON cl.node = d.doc_id "
        "LEFT JOIN border bo ON bo.v = d.doc_id"
    )


QUERIES["dbscan"] = q_dbscan
ORACLES["dbscan"] = sql_dbscan


# ----------------------------------------------------------- vector overlay
#
# bbox_overlay: polygon<->polygon overlay AREA aggregation — the missing
# vector-overlay direction next to PIP (point-in-polygon) and rasterize
# (point->grid).  Each way's bbox (min/max over its member points, the
# reference's way-bbox accumulator, calcqts/waybbox.go) is intersected
# against every admin rectangle; per-region outputs are the number of
# intersecting ways, the summed intersection area and the largest
# single intersection.  All arithmetic is exact int64 (intersection
# extents are bounded by the rect size, ~2.3e8 x 1.6e8 = 3.7e16 < 2^63;
# a FULL bbox product could overflow, which is why only clipped extents
# are ever multiplied).
#
# Scale shape: stage 1 is the map-side-combined per-way bbox exchange
# (O(distinct ways)); stage 2 is embarrassingly parallel — each batch
# computes a (ways x 24 rects) broadcast intersection and emits ONE
# 24-row partial, so the final exchange moves O(24 x tasks) rows.  With
# millions of admin polygons the rect table would broadcast via ray.put
# + an STRtree prefilter (the PIPActor pattern); 24 rects need neither.


def q_bbox_overlay(sf_dir: str):
    """Way-bbox x admin-rect overlay: per-rect intersecting-way count,
    total and max intersection area (exact int64)."""
    import ray

    from ..stages.shuffle import grouped_agg
    from .queries import N_RECTS, _rect_bounds

    ra, rc, rb, rd = _rect_bounds(np.arange(N_RECTS, dtype=np.int64))
    pid = np.arange(N_RECTS, dtype=np.int64)

    def add_coords(b: pa.Table) -> pa.Table:
        key = (
            b.column("l_orderkey").to_numpy().astype(np.int64) * 8
            + b.column("l_linenumber").to_numpy().astype(np.int64)
        )
        lon, lat = derive.derive_lonlat(key)
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber"])
    bboxes = grouped_agg(
        ds.map_batches(add_coords, batch_format="pyarrow"),
        ["l_orderkey"],
        {"minx": ("lon", "min"), "miny": ("lat", "min"),
         "maxx": ("lon", "max"), "maxy": ("lat", "max")})

    def overlay(b: pa.Table) -> pa.Table:
        minx = b.column("minx").to_numpy().astype(np.int64)
        miny = b.column("miny").to_numpy().astype(np.int64)
        maxx = b.column("maxx").to_numpy().astype(np.int64)
        maxy = b.column("maxy").to_numpy().astype(np.int64)
        ix = (np.minimum(maxx[:, None], rb[None, :])
              - np.maximum(minx[:, None], ra[None, :]))
        iy = (np.minimum(maxy[:, None], rd[None, :])
              - np.maximum(miny[:, None], rc[None, :]))
        hit = (ix > 0) & (iy > 0)
        # areas in (1e-3 deg)^2 units via exact floor division of each
        # extent BEFORE multiplying — the raw 1e-7-unit product summed
        # over a corpus overflows int64 (DuckDB HUGEINT caught it);
        # floored extents are deterministic on both sides.  The
        # intersect TEST stays on unscaled extents so thin slivers
        # still count.
        area = ((np.maximum(ix, 0) // 10_000).astype(np.int64)
                * (np.maximum(iy, 0) // 10_000).astype(np.int64))
        return pa.table({
            "poly_id": pa.array(pid),
            "n_ways": pa.array(hit.sum(0).astype(np.int64)),
            "total_area": pa.array(area.sum(0, dtype=np.int64)),
            "max_area": pa.array(
                area.max(0) if len(minx)
                else np.zeros(N_RECTS, np.int64)),
        })

    out = grouped_agg(
        bboxes.map_batches(overlay, batch_format="pyarrow"),
        ["poly_id"],
        {"n_ways": ("n_ways", "sum"),
         "total_area": ("total_area", "sum"),
         "max_area": ("max_area", "max")})
    return out.map_batches(
        lambda b: pa.table({
            "poly_id": b.column("poly_id"),
            "n_ways": pa.compute.cast(b.column("n_ways"), pa.int64()),
            "total_area": pa.compute.cast(b.column("total_area"),
                                          pa.int64()),
            "max_area": pa.compute.cast(b.column("max_area"), pa.int64()),
        }), batch_format="pyarrow")


def sql_bbox_overlay() -> str:
    from .queries import sql_rects_cte

    lon, lat = derive.sql_lonlat_expr(
        "(CAST(l_orderkey AS BIGINT) * 8 + l_linenumber)")
    return (
        f"WITH {sql_rects_cte()}, "
        f"bb AS (SELECT l_orderkey, MIN({lon}) AS bminx, "
        f"MIN({lat}) AS bminy, MAX({lon}) AS bmaxx, MAX({lat}) AS bmaxy "
        f"FROM lineitem GROUP BY l_orderkey), "
        "ix AS (SELECT poly_id, "
        "(GREATEST(0, LEAST(bmaxx, maxx) - GREATEST(bminx, minx)) "
        "// 10000) * "
        "(GREATEST(0, LEAST(bmaxy, maxy) - GREATEST(bminy, miny)) "
        "// 10000) AS area, "
        "CASE WHEN LEAST(bmaxx, maxx) > GREATEST(bminx, minx) "
        "AND LEAST(bmaxy, maxy) > GREATEST(bminy, miny) "
        "THEN 1 ELSE 0 END AS hit "
        "FROM bb CROSS JOIN rects) "
        "SELECT CAST(poly_id AS BIGINT) AS poly_id, "
        "CAST(SUM(hit) AS BIGINT) AS n_ways, "
        "CAST(SUM(area) AS BIGINT) AS total_area, "
        "CAST(MAX(area) AS BIGINT) AS max_area "
        "FROM ix GROUP BY poly_id"
    )


QUERIES["bbox_overlay"] = q_bbox_overlay
ORACLES["bbox_overlay"] = sql_bbox_overlay


# --------------------------------------------------------------------------
# idw_grid: quantized inverse-distance-weighted interpolation
# --------------------------------------------------------------------------
#
# The third classic raster<->vector operator (after rasterize /
# raster_lookup / zonal_stats): estimate a surface value at every
# OCCUPIED grid cell's center from the points within radius R, weighted
# by inverse squared distance.  Weights are QUANTIZED to integers —
# w = WNUM // (d2 + S) with a smoothing offset S (the standard h^2
# regularizer, which also caps the at-center weight) — so every
# numerator/denominator sum is exact int64 arithmetic and the DuckDB
# oracle reproduces the result hash-exactly; only the final num/den
# division is floating point (one deterministic op per cell).  The
# quantized kernel tapers to 0 at the rim (WNUM // (R2 + S) may be 0):
# documented, deterministic, and identical in both engines.
#
# Shape: each point contributes to at most 9 candidate cell centers
# (R = G, the same bounded-replication argument as dist_selfjoin's x4),
# partials pre-aggregate per batch, ONE grouped exchange of O(occupied
# cells) rows carrying (num, den, n_in) — point rows never shuffle.

IDW_G = 200_000_000            # grid cell size (20 deg in 1e-7 units)
IDW_R = IDW_G                  # influence radius = one cell
IDW_S = (IDW_G // 20) ** 2     # smoothing h^2: caps w at d2 = 0
IDW_WNUM = 128 * IDW_R * IDW_R  # weight numerator (< 2^63)


def q_idw_grid(sf_dir: str):
    """(gx, gy, n_in, den, idw): per occupied grid cell, the point
    count inside the cell, the total quantized weight of all points
    within IDW_R of the cell center, and the IDW estimate of n_chars.

    Replicate x9 -> exact d2 filter -> per-batch partial (num, den)
    per cell, unioned with per-batch occupancy counts; one map-side-
    combined grouped exchange finishes."""
    import ray

    from ..stages.shuffle import grouped_agg

    G, R2 = IDW_G, IDW_R * IDW_R

    def partials(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy().astype(np.int64)
        lat = d.column("lat").to_numpy().astype(np.int64)
        v = b.column("n_chars").to_numpy().astype(np.int64)
        hx = np.floor_divide(lon, G)
        hy = np.floor_divide(lat, G)
        n = len(lon)
        # 9 candidate centers per point; exact d2 <= R2 filter
        idx = np.tile(np.arange(n, dtype=np.int64), 9)
        off = np.array([-1, 0, 1], np.int64)
        dx = np.repeat(np.repeat(off, 3), n)
        dy = np.repeat(np.tile(off, 3), n)
        gx = hx[idx] + dx
        gy = hy[idx] + dy
        ddx = lon[idx] - (gx * G + G // 2)
        ddy = lat[idx] - (gy * G + G // 2)
        d2 = ddx * ddx + ddy * ddy          # <= 4.5*G^2, no overflow
        m = d2 <= R2
        w = IDW_WNUM // (d2[m] + IDW_S)
        num = v[idx[m]] * w
        # pack cell ids (can be negative near the antimeridian edge)
        B = np.int64(1) << 21
        key = (gx[m] + B) * (B * 2) + (gy[m] + B)
        uk, inv = np.unique(key, return_inverse=True)
        nums = np.zeros(len(uk), np.int64)
        dens = np.zeros(len(uk), np.int64)
        np.add.at(nums, inv, num)
        np.add.at(dens, inv, w)
        # occupancy rows (num = den = 0)
        okey = (hx + B) * (B * 2) + (hy + B)
        ouk, ocnt = np.unique(okey, return_counts=True)
        key_all = np.concatenate([uk, ouk])
        return pa.table({
            "gx": pa.array(key_all // (B * 2) - B),
            "gy": pa.array(key_all % (B * 2) - B),
            "num": pa.array(np.concatenate(
                [nums, np.zeros(len(ouk), np.int64)])),
            "den": pa.array(np.concatenate(
                [dens, np.zeros(len(ouk), np.int64)])),
            "n_in": pa.array(np.concatenate(
                [np.zeros(len(uk), np.int64), ocnt.astype(np.int64)])),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    agg = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["gx", "gy"],
        {"num": ("num", "sum"), "den": ("den", "sum"),
         "n_in": ("n_in", "sum")})

    def finish(b: pa.Table) -> pa.Table:
        t = b.filter(pa.compute.field("n_in") > 0)
        num = t.column("num").to_numpy().astype(np.int64)
        den = t.column("den").to_numpy().astype(np.int64)
        idw = np.where(den > 0, num / np.maximum(den, 1), np.nan)
        return pa.table({
            "gx": t.column("gx"), "gy": t.column("gy"),
            "n_in": t.column("n_in"), "den": pa.array(den),
            "idw": pa.array(idw)})

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_idw_grid() -> str:
    lon, lat = derive.sql_lonlat_expr("doc_id")
    G, R, S = IDW_G, IDW_R, IDW_S
    d2 = (
        "CAST(p.lon - (c.gx * {g} + {g2}) AS HUGEINT) * "
        "CAST(p.lon - (c.gx * {g} + {g2}) AS HUGEINT) + "
        "CAST(p.lat - (c.gy * {g} + {g2}) AS HUGEINT) * "
        "CAST(p.lat - (c.gy * {g} + {g2}) AS HUGEINT)"
    ).format(g=G, g2=G // 2)
    return (
        f"WITH p AS (SELECT {lon} AS lon, {lat} AS lat, "
        "CAST(n_chars AS BIGINT) AS v FROM documents), "
        # exact floor division: |lon/G| <= 10 and double division of
        # int64s this size cannot cross an integer boundary
        f"c AS (SELECT CAST(floor(CAST(lon AS DOUBLE) / {G}) AS BIGINT) "
        f"AS gx, CAST(floor(CAST(lat AS DOUBLE) / {G}) AS BIGINT) AS gy, "
        "COUNT(*) AS n_in FROM p GROUP BY 1, 2), "
        "j AS (SELECT c.gx, c.gy, "
        f"CAST({IDW_WNUM} AS HUGEINT) // ({d2} + {S}) AS w, p.v "
        "FROM c JOIN p ON "
        f"abs(p.lon - (c.gx * {G} + {G // 2})) <= {R} "
        f"AND abs(p.lat - (c.gy * {G} + {G // 2})) <= {R} "
        f"AND {d2} <= CAST({R} AS HUGEINT) * {R}) "
        "SELECT c.gx, c.gy, CAST(c.n_in AS BIGINT) AS n_in, "
        "CAST(COALESCE(SUM(j.w), 0) AS BIGINT) AS den, "
        "CAST(SUM(j.v * j.w) AS DOUBLE) / CAST(SUM(j.w) AS DOUBLE) "
        "AS idw "
        "FROM c LEFT JOIN j ON c.gx = j.gx AND c.gy = j.gy "
        "GROUP BY c.gx, c.gy, c.n_in"
    )


QUERIES["idw_grid"] = q_idw_grid
ORACLES["idw_grid"] = sql_idw_grid


# --------------------------------------------------------------------------
# way_simplify: one-pass vertex decimation (effective-area filter)
# --------------------------------------------------------------------------
#
# The cartographic line-simplification stage (the reference renders
# tiled geometries; any tile renderer decimates vertices first):
# interior vertices whose effective triangle area with their immediate
# neighbours falls below a threshold are dropped, endpoints always
# kept — the single-pass form of Visvalingam-Whyatt (no iteration, so
# the decision is a pure window function and the oracle is exact SQL).
# Coordinates quantize to a 1e-4-degree grid first: the cross products
# then fit int64 with headroom (raw 1e-7 diffs squared would overflow)
# and floor-division is taken on OFFSET-shifted nonneg values so
# numpy's floor and SQL's trunc agree.  Exchange = one vertex-row
# bucket per way; everything inside is vectorized shifts.

VW_Q = 1000                  # quantization: 1e-7 deg -> 1e-4 deg grid
VW_MIN = 500_000_000_000     # keep iff |cross| (= 2*area) >= this


def q_way_simplify(sf_dir: str):
    """(way_id, pos, lon, lat) of the vertices that survive one-pass
    effective-area simplification; endpoints always survive."""
    import ray

    from ..sources import derive as _derive
    from ..stages.shuffle import bucketed_apply

    def rows(b: pa.Table) -> pa.Table:
        okey = b.column("l_orderkey").to_numpy().astype(np.int64)
        lnum = b.column("l_linenumber").to_numpy().astype(np.int64)
        key = okey * 8 + lnum
        lon, lat = _derive.derive_lonlat(key)
        return pa.table({"way_id": pa.array(okey),
                         "pos": pa.array(lnum),
                         "lon": pa.array(lon), "lat": pa.array(lat)})

    def simp(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["way_id", "pos"], kind="stable")
        wid = g["way_id"].to_numpy(np.int64)
        qx = (g["lon"].to_numpy(np.int64) + 1_800_000_000) // VW_Q
        qy = (g["lat"].to_numpy(np.int64) + 900_000_000) // VW_Q
        n = len(wid)
        if n == 0:
            return pd.DataFrame({
                "way_id": pd.Series(dtype=np.int64),
                "pos": pd.Series(dtype=np.int64),
                "lon": pd.Series(dtype=np.int64),
                "lat": pd.Series(dtype=np.int64)})
        first = np.concatenate([[True], wid[1:] != wid[:-1]])
        last = np.concatenate([wid[1:] != wid[:-1], [True]])
        px = np.roll(qx, 1)
        py = np.roll(qy, 1)
        nx = np.roll(qx, -1)
        ny = np.roll(qy, -1)
        cross = (qx - px) * (ny - qy) - (nx - qx) * (qy - py)
        keep = first | last | (np.abs(cross) >= VW_MIN)
        out = g.iloc[np.flatnonzero(keep)]
        return out[["way_id", "pos", "lon", "lat"]]

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber"])
    return bucketed_apply(
        ds.map_batches(rows, batch_format="pyarrow"), ["way_id"], simp)


def sql_way_simplify() -> str:
    key = "(CAST(l_orderkey AS BIGINT) * 8 + l_linenumber)"
    lon, lat = derive.sql_lonlat_expr(key)
    return (
        f"WITH e AS (SELECT l_orderkey AS way_id, "
        f"CAST(l_linenumber AS BIGINT) AS pos, "
        f"{lon} AS lon, {lat} AS lat FROM lineitem), "
        f"q AS (SELECT *, (lon + 1800000000) // {VW_Q} AS qx, "
        f"(lat + 900000000) // {VW_Q} AS qy FROM e), "
        "w AS (SELECT way_id, pos, lon, lat, qx, qy, "
        "LAG(qx) OVER win AS px, LAG(qy) OVER win AS py, "
        "LEAD(qx) OVER win AS nx, LEAD(qy) OVER win AS ny "
        "FROM q WINDOW win AS (PARTITION BY way_id ORDER BY pos)) "
        "SELECT way_id, pos, lon, lat FROM w "
        "WHERE px IS NULL OR nx IS NULL "
        "OR abs((qx - px) * (ny - qy) - (nx - qx) * (qy - py)) "
        f">= {VW_MIN}"
    )


QUERIES["way_simplify"] = q_way_simplify
ORACLES["way_simplify"] = sql_way_simplify


# --------------------------------------------------------------------------
# hull: per-cell convex hull vertices
# --------------------------------------------------------------------------
#
# The per-partition convex hull is the standard footprint/coverage
# summary (tile extent rendering, region sketching, outlier fences).
# Points are the derived document coordinates; the partition key is the
# coarse (kx >> HULL_SHIFT, ky >> HULL_SHIFT) cell (a 4x4 world grid),
# the same groupby-on-cell-prefix shape as every other spatial
# aggregate here.  Each cell's hull is computed by Andrew's monotone
# chain with STRICT turns (collinear boundary points are not vertices)
# on Python ints (exact, overflow-free); hulls are inherently
# sequential per group, and group size is bounded by per-cell density,
# so the per-group loop is O(cell points) — the exchange moves only
# (doc_id, lon, lat) fixed-width rows.
#
# The DuckDB oracle is fully independent: p is a hull vertex iff p is
# NOT in the convex hull of its cell's other points, i.e. (Caratheodory)
# no triangle (a, b, c) of other points contains p — three cross-
# product sign tests PLUS a bbox test (for a degenerate collinear
# triangle the sign test alone admits the whole LINE; the bbox clamps
# it to the segment extent, and is implied by the signs for proper
# triangles), exact BIGINT arithmetic (within-cell deltas keep every
# product < 2^63).

HULL_SHIFT = 16


def _hull_vertex_ids(pts: list) -> set:
    """Vertex doc_ids of the strict convex hull of [(x, y, id), ...]
    (pre-sorted ascending; Python-int coords)."""
    if len(pts) <= 2:
        return {p[2] for p in pts}

    def cross(o, a, b):
        return ((a[0] - o[0]) * (b[1] - o[1])
                - (a[1] - o[1]) * (b[0] - o[0]))

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return {p[2] for p in lower[:-1]} | {p[2] for p in upper[:-1]}


def q_hull(sf_dir: str):
    """Convex-hull vertices per coarse cell: (doc_id, gx, gy, lon, lat)."""
    import ray

    from ..stages.shuffle import bucketed_apply

    def prep(b: pa.Table) -> pa.Table:
        k = b.column("doc_id").to_numpy().astype(np.int64)
        kx, ky = derive.derive_cells(k)
        lon, lat = derive.derive_lonlat(k)
        return pa.table({
            "doc_id": pa.array(k),
            "gx": pa.array((kx >> HULL_SHIFT).astype(np.int64)),
            "gy": pa.array((ky >> HULL_SHIFT).astype(np.int64)),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(prep, batch_format="pyarrow")

    def hull_fn(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby(["gx", "gy"], sort=False):
            pts = sorted(
                zip(grp["lon"].astype(object),
                    grp["lat"].astype(object),
                    grp["doc_id"].astype(object)))
            keep = _hull_vertex_ids(pts)
            outs.append(grp[grp["doc_id"].isin(keep)])
        if not outs:
            return g.iloc[:0]
        return pd.concat(outs, ignore_index=True)

    return bucketed_apply(ds, ["gx", "gy"], hull_fn)


def sql_hull() -> str:
    lon, lat = derive.sql_lonlat_expr("doc_id")
    kx, ky = derive.sql_cells_expr("doc_id")
    div = 1 << HULL_SHIFT
    s1 = ("(b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)")
    s2 = ("(c.x - b.x) * (p.y - b.y) - (c.y - b.y) * (p.x - b.x)")
    s3 = ("(a.x - c.x) * (p.y - c.y) - (a.y - c.y) * (p.x - c.x)")
    return (
        f"WITH pts AS (SELECT doc_id, {lon} AS x, {lat} AS y, "
        f"({kx} // {div}) AS gx, ({ky} // {div}) AS gy FROM documents) "
        "SELECT p.doc_id, p.gx, p.gy, p.x AS lon, p.y AS lat "
        "FROM pts p WHERE NOT EXISTS ("
        "SELECT 1 FROM pts a "
        "JOIN pts b ON b.gx = a.gx AND b.gy = a.gy "
        "AND b.doc_id > a.doc_id "
        "JOIN pts c ON c.gx = a.gx AND c.gy = a.gy "
        "AND c.doc_id > b.doc_id "
        "WHERE a.gx = p.gx AND a.gy = p.gy "
        "AND a.doc_id <> p.doc_id AND b.doc_id <> p.doc_id "
        "AND c.doc_id <> p.doc_id "
        f"AND (({s1} >= 0 AND {s2} >= 0 AND {s3} >= 0) "
        f"OR ({s1} <= 0 AND {s2} <= 0 AND {s3} <= 0)) "
        "AND p.x BETWEEN LEAST(a.x, b.x, c.x) "
        "AND GREATEST(a.x, b.x, c.x) "
        "AND p.y BETWEEN LEAST(a.y, b.y, c.y) "
        "AND GREATEST(a.y, b.y, c.y))"
    )


QUERIES["hull"] = q_hull
ORACLES["hull"] = sql_hull


# --------------------------------------------------------------------------
# morans_i — global spatial autocorrelation over the rasterized grid
# --------------------------------------------------------------------------
#
# Moran's I of the per-cell page counts on the occupied z=MORANS_Z
# grid with rook (4-neighbour) adjacency — the standard "is the
# density map clustered or random?" diagnostic a geo-analytics user
# runs right after ``rasterize``.  z=4 rather than RASTER_Z because
# the fixtures' multiplicative scatter puts at most one point per z>=6
# cell (count variance zero -> I undefined); at z=4 counts reach 4 and
# the scatter is measurably DISPERSED (I = -0.151).  Exact integer
# formulation: with
# N occupied cells, S = sum(n), S2 = sum(n^2), and over the UNORDERED
# adjacent pairs P: sxx = sum(n_i*n_j), sxy = sum(n_i+n_j),
#
#   I = A / (|P| * B),  A = N^2*sxx - N*S*sxy + S^2*|P|,
#                        B = N*S2 - S^2
#
# (the directed-pair factor 2 cancels).  A and B are assembled from
# six scalar partials on the driver in arbitrary-precision Python int
# (A overflows int64 at scale), emitted quantized at 1e12 with FLOOR
# division replicated exactly in the oracle via the non-negative-
# remainder identity (DuckDB ``//`` truncates toward zero, Python
# floors — the identity sidesteps both).
#
# Distributed shape: the rasterize cell aggregation (O(occupied cells)
# exchange), then ONE bucketed exchange keyed on an anchor cell: each
# cell routes a "self" row to its own key and probe rows to its east
# and north neighbours' keys, so every adjacent unordered pair
# materializes exactly once at the anchor, with per-bucket scalar
# partials as the only output.  Driver state: n_buckets rows of six
# int64 scalars.

MORANS_QUANT = 10 ** 12
MORANS_Z = 4


def _autocorr_partials(sf_dir: str) -> dict:
    """Shared distributed scaffolding for the global spatial-
    autocorrelation family (Moran's I / Geary's C / General G): the
    z=MORANS_Z cell aggregation, then the anchor-cell exchange that
    materializes every unordered rook-adjacent pair exactly once.
    Returns the seven exact-integer scalar partials."""
    import ray

    from ..functions.quadtree import calculate_point, qt_round, qt_tuple
    from ..stages.assign import QT_BUFFER, QT_MAX_LEVEL
    from ..stages.shuffle import bucketed_apply, grouped_agg

    n_side = 1 << MORANS_Z

    def per_batch(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
        zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
        packed = zx * n_side + zy
        vals, counts = np.unique(packed, return_counts=True)
        return pa.table({
            "x": pa.array(vals // n_side),
            "y": pa.array(vals % n_side),
            "n": pa.array(counts.astype(np.int64)),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
    cells = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["x", "y"], {"n": ("n", "sum")})

    def fan(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        n = b.column("n").to_numpy().astype(np.int64)
        kx = np.concatenate([x, x + 1, x])
        ky = np.concatenate([y, y, y + 1])
        kind = np.concatenate([
            np.zeros(len(x), np.int8),          # self
            np.ones(len(x) * 2, np.int8),       # probe (E then N)
        ])
        return pa.table({"kx": kx, "ky": ky, "kind": kind,
                         "n": np.tile(n, 3)})

    def bucket_partials(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["kind"] == 0]
        p = df[df["kind"] == 1]
        m = p.merge(s, on=["kx", "ky"], suffixes=("_p", "_s"))
        na = m["n_p"].to_numpy(np.int64)
        nb = m["n_s"].to_numpy(np.int64)
        return pd.DataFrame({
            "nc": [np.int64(len(s))],
            "s1": [s["n"].to_numpy(np.int64).sum()],
            "s2": [(s["n"].to_numpy(np.int64) ** 2).sum()],
            "np_": [np.int64(len(m))],
            "sxx": [(na * nb).sum()],
            "sxy": [(na + nb).sum()],
            "ssd": [((na - nb) ** 2).sum()],
        })

    parts = bucketed_apply(
        cells.map_batches(fan, batch_format="pyarrow"),
        ["kx", "ky"], bucket_partials).to_pandas()
    return {k: int(parts[c].sum()) for k, c in [
        ("nc", "nc"), ("s1", "s1"), ("s2", "s2"), ("npair", "np_"),
        ("sxx", "sxx"), ("sxy", "sxy"), ("ssd", "ssd")]}


def _autocorr_result(nc: int, npair: int, col: str, q) -> "ray.data.Dataset":
    import ray.data

    return ray.data.from_arrow(pa.table({
        "n_cells": pa.array([nc], pa.int64()),
        "w_pairs": pa.array([npair], pa.int64()),
        col: pa.array([q], pa.int64()),
    }))


def q_morans_i(sf_dir: str):
    """One row: (n_cells, w_pairs, morans_q12) — Moran's I (x 1e12,
    floored) of per-cell page counts under rook adjacency."""
    t = _autocorr_partials(sf_dir)
    nc, s1, s2 = t["nc"], t["s1"], t["s2"]
    npair, sxx, sxy = t["npair"], t["sxx"], t["sxy"]
    a = nc * nc * sxx - nc * s1 * sxy + s1 * s1 * npair
    bb = nc * s2 - s1 * s1
    d = 2 * npair * bb
    q = ((2 * a * MORANS_QUANT + npair * bb) // d) if d else None
    return _autocorr_result(nc, npair, "morans_q12", q)


def _autocorr_sql_prefix() -> str:
    """WITH-clause prefix shared by the autocorrelation oracles: the
    z=MORANS_Z cell counts, global moments, and unordered rook pairs."""
    kx, ky = derive.sql_cells_expr("doc_id")
    shift = 18 - MORANS_Z
    x = f"({kx} >> {shift})"
    y = f"((262143 - {ky}) >> {shift})"
    return (
        f"WITH cells AS (SELECT {x} AS x, {y} AS y, "
        "CAST(COUNT(*) AS HUGEINT) AS n FROM documents GROUP BY 1, 2), "
        "tot AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nc, SUM(n) AS s1, "
        "SUM(n*n) AS s2 FROM cells), "
        "pairs AS (SELECT a.n AS na, b.n AS nb FROM cells a "
        "JOIN cells b ON (b.x = a.x + 1 AND b.y = a.y) "
        "OR (b.x = a.x AND b.y = a.y + 1)), "
        "p AS (SELECT CAST(COUNT(*) AS HUGEINT) AS np, "
        "COALESCE(SUM(na*nb), 0) AS sxx, "
        "COALESCE(SUM(na+nb), 0) AS sxy, "
        "COALESCE(SUM((na-nb)*(na-nb)), 0) AS ssd FROM pairs) "
    )


_AUTOCORR_SQL_TAIL = (
    "SELECT n_cells, w_pairs, CASE WHEN fden = 0 THEN NULL ELSE "
    "CAST((fnum - ((fnum % fden) + fden) % fden) // fden AS BIGINT) "
    "END AS {col} FROM f"
)


def sql_morans_i() -> str:
    qv = MORANS_QUANT
    return (
        _autocorr_sql_prefix()
        + ", f AS (SELECT CAST(nc AS BIGINT) AS n_cells, "
        "CAST(np AS BIGINT) AS w_pairs, "
        f"2*(nc*nc*sxx - nc*s1*sxy + s1*s1*np)*{qv} + "
        "np*(nc*s2 - s1*s1) AS fnum, "
        "2*np*(nc*s2 - s1*s1) AS fden FROM tot, p) "
        + _AUTOCORR_SQL_TAIL.format(col="morans_q12")
    )


QUERIES["morans_i"] = q_morans_i
ORACLES["morans_i"] = sql_morans_i


# --------------------------------------------------------------------------
# geary_c / getis_g — the companion global autocorrelation statistics
# --------------------------------------------------------------------------
#
# Same partials exchange as morans_i.  Geary's C (dispersion-sensitive
# local contrast; C > 1 = dispersed, < 1 = clustered):
#
#   C = (N-1) * sum_ij w_ij (x_i-x_j)^2 / (2W * sum_i (x_i-xbar)^2)
#     = N*(N-1)*ssd / (2|P| * B),     B = N*S2 - S^2
#
# Getis-Ord General G (high-value concentration; no mean-centering):
#
#   G = sum_ij w_ij x_i x_j / sum_{i!=j} x_i x_j = 2*sxx / (S^2 - S2)
#
# Both emitted quantized at 1e12 with the same round-half-down-to-floor
# contract as morans_q12, assembled on the driver in Python int.


def q_geary_c(sf_dir: str):
    """One row: (n_cells, w_pairs, geary_q12) — Geary's C (x 1e12,
    floored) of per-cell page counts under rook adjacency."""
    t = _autocorr_partials(sf_dir)
    nc, s1, s2 = t["nc"], t["s1"], t["s2"]
    npair, ssd = t["npair"], t["ssd"]
    a = nc * (nc - 1) * ssd
    d = 2 * (2 * npair * (nc * s2 - s1 * s1))
    q = ((2 * a * MORANS_QUANT + d // 2) // d) if d else None
    return _autocorr_result(nc, npair, "geary_q12", q)


def sql_geary_c() -> str:
    qv = MORANS_QUANT
    return (
        _autocorr_sql_prefix()
        + ", f AS (SELECT CAST(nc AS BIGINT) AS n_cells, "
        "CAST(np AS BIGINT) AS w_pairs, "
        f"2*(nc*(nc-1)*ssd)*{qv} + 2*np*(nc*s2 - s1*s1) AS fnum, "
        "4*np*(nc*s2 - s1*s1) AS fden FROM tot, p) "
        + _AUTOCORR_SQL_TAIL.format(col="geary_q12")
    )


def q_getis_g(sf_dir: str):
    """One row: (n_cells, w_pairs, getis_q12) — Getis-Ord General G
    (x 1e12, floored) of per-cell page counts under rook adjacency."""
    t = _autocorr_partials(sf_dir)
    nc, s1, s2 = t["nc"], t["s1"], t["s2"]
    npair, sxx = t["npair"], t["sxx"]
    bb = s1 * s1 - s2
    d = 2 * bb
    q = ((2 * (2 * sxx) * MORANS_QUANT + bb) // d) if d else None
    return _autocorr_result(nc, npair, "getis_q12", q)


def sql_getis_g() -> str:
    qv = MORANS_QUANT
    return (
        _autocorr_sql_prefix()
        + ", f AS (SELECT CAST(nc AS BIGINT) AS n_cells, "
        "CAST(np AS BIGINT) AS w_pairs, "
        f"4*sxx*{qv} + (s1*s1 - s2) AS fnum, "
        "2*(s1*s1 - s2) AS fden FROM tot, p) "
        + _AUTOCORR_SQL_TAIL.format(col="getis_q12")
    )


QUERIES["geary_c"] = q_geary_c
ORACLES["geary_c"] = sql_geary_c
QUERIES["getis_g"] = q_getis_g
ORACLES["getis_g"] = sql_getis_g


# --------------------------------------------------------------------------
# local_g — per-cell Getis-Ord G* hotspot z-scores
# --------------------------------------------------------------------------
#
# The LOCAL member of the autocorrelation family: for every occupied
# z=MORANS_Z cell i, the G*_i z-score of its rook neighborhood
# (including self) against the global cell-count distribution — the
# per-cell hotspot/coldspot map behind every "where is the corpus
# geographically concentrated?" dashboard.  With neighborhood sum
# S_i over the k_i member cells (self + occupied rook neighbors):
#
#   z_i = (N*S_i - k_i*S) / sqrt( (N*S2 - S^2) * (N*k_i - k_i^2) / (N-1) )
#
# Numerator and the radicand's integer factors are exact (Python int /
# HUGEINT); the only float ops are the final cast-divide-sqrt in a
# FIXED order the oracle replays — hash-exact DOUBLE output.
#
# Distributed shape: the rasterized cell aggregation, then one
# anchor-cell exchange where each cell routes its value to itself and
# its 4 rook neighbors; anchors that exist emit (x, y, k, s).  The
# global moments are three scalars — reduced on the driver from the
# same bucket partials (O(buckets) rows), never from raw cells.

def q_local_g(sf_dir: str):
    """(x, y, k_nb, s_nb, gz) per occupied z=MORANS_Z cell: rook+self
    neighborhood size/sum and the Getis-Ord G* z-score."""
    import math

    import ray
    import ray.data

    from ..functions.quadtree import calculate_point, qt_round, qt_tuple
    from ..stages.assign import QT_BUFFER, QT_MAX_LEVEL
    from ..stages.shuffle import bucketed_apply, grouped_agg

    n_side = 1 << MORANS_Z

    def per_batch(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
        zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
        packed = zx * n_side + zy
        vals, counts = np.unique(packed, return_counts=True)
        return pa.table({
            "x": pa.array(vals // n_side),
            "y": pa.array(vals % n_side),
            "n": pa.array(counts.astype(np.int64)),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
    cells = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["x", "y"], {"n": ("n", "sum")})

    def fan(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        n = b.column("n").to_numpy().astype(np.int64)
        # self carries existence; four probes carry the value outward
        kx = np.concatenate([x, x + 1, x - 1, x, x])
        ky = np.concatenate([y, y, y, y + 1, y - 1])
        kind = np.concatenate([np.zeros(len(x), np.int8),
                               np.ones(len(x) * 4, np.int8)])
        return pa.table({"kx": kx, "ky": ky, "kind": kind,
                         "n": np.tile(n, 5)})

    def bucket_nbhood(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["kind"] == 0]
        p = df[df["kind"] == 1]
        inc = (p.groupby(["kx", "ky"], as_index=False)
               .agg(k_in=("n", "size"), s_in=("n", "sum")))
        m = s.merge(inc, on=["kx", "ky"], how="left")
        k = 1 + m["k_in"].fillna(0).to_numpy(np.int64)
        sm = m["n"].to_numpy(np.int64) \
            + m["s_in"].fillna(0).to_numpy(np.int64)
        return pd.DataFrame({
            "x": m["kx"].to_numpy(np.int64),
            "y": m["ky"].to_numpy(np.int64),
            "k_nb": k, "s_nb": sm,
            # scalar moment partials ride along (summed on the driver)
            "mn": 1, "ms": m["n"].to_numpy(np.int64),
            "ms2": m["n"].to_numpy(np.int64) ** 2,
        })

    per_cell = bucketed_apply(
        cells.map_batches(fan, batch_format="pyarrow"),
        ["kx", "ky"], bucket_nbhood).materialize()
    mom = per_cell.sum(["mn", "ms", "ms2"])
    nc, s1, s2 = (int(mom["sum(mn)"]), int(mom["sum(ms)"]),
                  int(mom["sum(ms2)"]))
    bb = nc * s2 - s1 * s1
    nm1 = nc - 1

    def finish(b: pa.Table) -> pa.Table:
        k = b.column("k_nb").to_numpy().astype(np.int64)
        s = b.column("s_nb").to_numpy().astype(np.int64)
        # num and the radicand are exact ints rounded ONCE to double
        # (k has at most 5 distinct values, so the bb*(nc*k - k*k)
        # product is formed in Python int per k — no int64 overflow,
        # matching the oracle's HUGEINT -> DOUBLE single rounding)
        num = np.array([float(nc * int(v) - int(q) * s1)
                        for v, q in zip(s.tolist(), k.tolist())])
        denmap = {q: float(bb * (nc * q - q * q))
                  for q in np.unique(k).tolist()}
        den = np.array([denmap[q] for q in k.tolist()])
        with np.errstate(divide="ignore", invalid="ignore"):
            gz = num / np.sqrt(den / float(nm1))
        return pa.table({
            "x": b.column("x"), "y": b.column("y"),
            "k_nb": b.column("k_nb"), "s_nb": b.column("s_nb"),
            "gz": pa.array(np.where(np.isfinite(gz), gz, np.nan),
                           pa.float64(), from_pandas=True),
        })

    return per_cell.drop_columns(["mn", "ms", "ms2"]).map_batches(
        finish, batch_format="pyarrow")


def sql_local_g() -> str:
    return (
        _autocorr_sql_prefix()
        + ", g AS (SELECT a.x, a.y, CAST(COUNT(*) AS HUGEINT) AS k, "
        "SUM(b.n) AS s FROM cells a JOIN cells b "
        "ON abs(a.x - b.x) + abs(a.y - b.y) <= 1 GROUP BY a.x, a.y) "
        "SELECT g.x, g.y, CAST(g.k AS BIGINT) AS k_nb, "
        "CAST(g.s AS BIGINT) AS s_nb, "
        "CASE WHEN nc <= 1 OR nc*s2 - s1*s1 = 0 THEN NULL ELSE "
        "CAST(nc*g.s - g.k*s1 AS DOUBLE) / "
        "sqrt(CAST((nc*s2 - s1*s1) * (nc*g.k - g.k*g.k) AS DOUBLE) "
        "/ CAST(nc - 1 AS DOUBLE)) END AS gz FROM g, tot"
    )


QUERIES["local_g"] = q_local_g
ORACLES["local_g"] = sql_local_g


# --------------------------------------------------------------------------
# ripley_k — multi-radius point-pattern pair counts (Ripley's K step)
# --------------------------------------------------------------------------
#
# The empirical pair-count function behind Ripley's K: for each radius
# r in RIPLEY_RS, the number of unordered point pairs within r and the
# pair FRACTION 2*cnt / (N*(N-1)) — K(r) up to the constant study-area
# factor an analyst multiplies in.  Clustered patterns rise faster
# than CSR's pi*r^2 law; the three-radius profile is the standard
# "at which scale does clustering kick in?" diagnostic.
#
# Distributed shape: ONE cell-blocked pair enumeration at the LARGEST
# radius (the dist_selfjoin exchange, exactly-once ownership), each
# bucket emitting a 3-row count vector — the exchange carries
# O(buckets * radii) rows, never a pair.  Fraction emitted quantized
# at 1e12, assembled in Python int (N*(N-1) and cnt*Q overflow int64
# at corpus scale), floor-half contract as the rest of the family.

RIPLEY_RS = (50_000_000, 100_000_000, 150_000_000)


def q_ripley_k(sf_dir: str, rs: tuple = RIPLEY_RS):
    """(r, n_pairs, pairfrac_q12) for each Ripley radius.

    ``rs`` defaults to the oracle-checked radii (sized for the sf
    tables).  A fixed-radius pair count is inherently O(n^2 r^2 / A):
    at probe scale the caller must pass density-appropriate radii so
    mean pairs-per-point stays bounded (tools/family_probe.py passes
    ~0.15-degree radii at 16M uniform points)."""
    import ray
    import ray.data

    from ..stages.shuffle import bucketed_apply, grouped_agg

    rmax = max(rs)
    pts = _replicated_points(sf_dir, rmax)

    def cnts(g: pd.DataFrame) -> pd.DataFrame:
        p = _cell_pairs(g, rmax)
        d2 = p["dist2"].to_numpy(np.int64)
        return pd.DataFrame({
            "r": np.array(rs, np.int64),
            "n_pairs": np.array(
                [int((d2 <= r * r).sum()) for r in rs], np.int64),
        })

    agg = grouped_agg(
        bucketed_apply(pts, ["cx", "cy"], cnts),
        ["r"], {"n_pairs": ("n_pairs", "sum")})
    nd = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()

    def fin(b: pa.Table) -> pa.Table:
        cnt = b.column("n_pairs").to_numpy().astype(np.int64)
        den = 2 * nd * (nd - 1)
        fr = [((4 * int(c) * MORANS_QUANT + den // 2) // den)
              if den else None for c in cnt.tolist()]
        return pa.table({
            "r": b.column("r"), "n_pairs": b.column("n_pairs"),
            "pairfrac_q12": pa.array(fr, pa.int64()),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


def sql_ripley_k() -> str:
    vals = ", ".join(f"({r})" for r in RIPLEY_RS)
    qv = MORANS_QUANT
    return (
        f"WITH {_sql_dist_pairs(max(RIPLEY_RS))}, "
        "n AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nd FROM documents), "
        f"rr AS (SELECT * FROM (VALUES {vals}) v(r)), "
        "c AS (SELECT rr.r, CAST((SELECT COUNT(*) FROM pairs p "
        "WHERE p.dist2 <= CAST(rr.r AS HUGEINT) * rr.r) AS HUGEINT) "
        "AS cnt FROM rr) "
        "SELECT CAST(c.r AS BIGINT) AS r, CAST(c.cnt AS BIGINT) "
        "AS n_pairs, CASE WHEN nd <= 1 THEN NULL ELSE "
        f"CAST((4*c.cnt*{qv} + nd*(nd-1)) // (2*nd*(nd-1)) AS BIGINT) "
        "END AS pairfrac_q12 FROM c, n"
    )


QUERIES["ripley_k"] = q_ripley_k
ORACLES["ripley_k"] = sql_ripley_k


# --------------------------------------------------------------------------
# join_counts — binary-mark BB/BW/WW join-count statistics
# --------------------------------------------------------------------------
#
# The categorical member of the autocorrelation family: mark each
# occupied z=MORANS_Z cell Black (count >= JC_MARK_MIN) or White, and
# count the rook-adjacent pairs by mark combination — BB, BW, WW.
# Against the hypergeometric CSR expectation E[BB] = |P|*nb*(nb-1) /
# (N*(N-1)) (emitted alongside, quantized), excess BB says the marked
# class is spatially clumped.  Same anchor-cell exchange as morans_i;
# the only new payload is the mark bit.

JC_MARK_MIN = 2


def q_join_counts(sf_dir: str):
    """One row: (n_cells, n_black, bb, bw, ww, ebb_q12) — rook
    join counts of the count>=JC_MARK_MIN mark plus the CSR
    expectation of BB."""
    import ray
    import ray.data

    from ..functions.quadtree import calculate_point, qt_round, qt_tuple
    from ..stages.assign import QT_BUFFER, QT_MAX_LEVEL
    from ..stages.shuffle import bucketed_apply, grouped_agg

    n_side = 1 << MORANS_Z

    def per_batch(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
        zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
        packed = zx * n_side + zy
        vals, counts = np.unique(packed, return_counts=True)
        return pa.table({
            "x": pa.array(vals // n_side),
            "y": pa.array(vals % n_side),
            "n": pa.array(counts.astype(np.int64)),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
    cells = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["x", "y"], {"n": ("n", "sum")})

    def fan(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        m = (b.column("n").to_numpy().astype(np.int64)
             >= JC_MARK_MIN).astype(np.int8)
        kx = np.concatenate([x, x + 1, x])
        ky = np.concatenate([y, y, y + 1])
        kind = np.concatenate([np.zeros(len(x), np.int8),
                               np.ones(len(x) * 2, np.int8)])
        return pa.table({"kx": kx, "ky": ky, "kind": kind,
                         "m": np.tile(m, 3)})

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["kind"] == 0]
        p = df[df["kind"] == 1]
        j = p.merge(s, on=["kx", "ky"], suffixes=("_p", "_s"))
        ma = j["m_p"].to_numpy(np.int8)
        mb = j["m_s"].to_numpy(np.int8)
        return pd.DataFrame({
            "nc": [np.int64(len(s))],
            "nb": [np.int64(int(s["m"].sum()))],
            "bb": [np.int64(int((ma & mb).sum()))],
            "bw": [np.int64(int((ma != mb).sum()))],
            "ww": [np.int64(int(((1 - ma) & (1 - mb)).sum()))],
        })

    parts = bucketed_apply(
        cells.map_batches(fan, batch_format="pyarrow"),
        ["kx", "ky"], bucket_counts).to_pandas()
    nc = int(parts["nc"].sum())
    nb = int(parts["nb"].sum())
    bb = int(parts["bb"].sum())
    bw = int(parts["bw"].sum())
    ww = int(parts["ww"].sum())
    npair = bb + bw + ww
    den = 2 * nc * (nc - 1)
    ebb = ((2 * npair * nb * (nb - 1) * MORANS_QUANT + den // 2) // den
           if nc > 1 else None)
    return ray.data.from_arrow(pa.table({
        "n_cells": pa.array([nc], pa.int64()),
        "n_black": pa.array([nb], pa.int64()),
        "bb": pa.array([bb], pa.int64()),
        "bw": pa.array([bw], pa.int64()),
        "ww": pa.array([ww], pa.int64()),
        "ebb_q12": pa.array([ebb], pa.int64()),
    }))


def sql_join_counts() -> str:
    kx, ky = derive.sql_cells_expr("doc_id")
    shift = 18 - MORANS_Z
    x = f"({kx} >> {shift})"
    y = f"((262143 - {ky}) >> {shift})"
    qv = MORANS_QUANT
    return (
        f"WITH cells AS (SELECT {x} AS x, {y} AS y, "
        "CAST(CASE WHEN COUNT(*) >= "
        f"{JC_MARK_MIN} THEN 1 ELSE 0 END AS HUGEINT) AS m "
        "FROM documents GROUP BY 1, 2), "
        "tot AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nc, "
        "SUM(m) AS nb FROM cells), "
        "pairs AS (SELECT a.m AS ma, b.m AS mb FROM cells a "
        "JOIN cells b ON (b.x = a.x + 1 AND b.y = a.y) "
        "OR (b.x = a.x AND b.y = a.y + 1)), "
        "p AS (SELECT CAST(COUNT(*) AS HUGEINT) AS np, "
        "COALESCE(SUM(ma*mb), 0) AS bb, "
        "COALESCE(SUM(CASE WHEN ma <> mb THEN 1 ELSE 0 END), 0) AS bw, "
        "COALESCE(SUM((1-ma)*(1-mb)), 0) AS ww FROM pairs) "
        "SELECT CAST(nc AS BIGINT) AS n_cells, "
        "CAST(nb AS BIGINT) AS n_black, CAST(bb AS BIGINT) AS bb, "
        "CAST(bw AS BIGINT) AS bw, CAST(ww AS BIGINT) AS ww, "
        "CASE WHEN nc <= 1 THEN NULL ELSE "
        f"CAST((2*np*nb*(nb-1)*{qv} + nc*(nc-1)) // (2*nc*(nc-1)) "
        "AS BIGINT) END AS ebb_q12 FROM tot, p"
    )


QUERIES["join_counts"] = q_join_counts
ORACLES["join_counts"] = sql_join_counts


# --------------------------------------------------------------------------
# contingency — cell x source contingency table with Pearson residuals
# --------------------------------------------------------------------------
#
# Is content SOURCE geographically biased?  The SPARSE (z=MORANS_Z cell,
# source) contingency table with each pair's observed count, the
# independence expectation E = row*col/N (exact, quantized at 1e12,
# floor-half contract), and the Pearson residual (O - E)/sqrt(E) as a
# fixed-order-float DOUBLE — the per-pair chi-square contribution a
# bias report ranks by.  SPARSE contract: only OCCUPIED (cell, source)
# pairs are emitted — an absent pair's residual is mechanically
# -sqrt(E) from the marginals if a consumer needs the dense table.
#
# Distributed shape: ONE map-side-combined count exchange over
# (x, y, source) — O(cells x sources) rows; the row/column marginals
# are tiny re-aggregations of that table (grid-bounded <= 4^z cells,
# enum-bounded sources) broadcast to the residual pass.  No data row
# ever reaches the driver.

def q_contingency(sf_dir: str):
    """(x, y, source, o, e_q12, resid) per occupied (cell, source)."""
    import ray
    import ray.data

    from ..functions.quadtree import calculate_point, qt_round, qt_tuple
    from ..stages.assign import QT_BUFFER, QT_MAX_LEVEL
    from ..stages.shuffle import grouped_agg

    n_side = 1 << MORANS_Z

    def per_batch(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
        zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
        df = (pd.DataFrame({
            "x": zx, "y": zy,
            "source": b.column("source").to_pandas()})
            .groupby(["x", "y", "source"], sort=False).size()
            .reset_index(name="o"))
        df["o"] = df["o"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    cnt = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["x", "y", "source"], {"o": ("o", "sum")}).materialize()

    # marginals: grid-bounded and enum-bounded — O(4^z) + O(sources)
    rt = grouped_agg(cnt, ["x", "y"], {"rt": ("o", "sum")}).to_pandas()
    ct = grouped_agg(cnt, ["source"], {"ct": ("o", "sum")}).to_pandas()
    nt = int(ct["ct"].sum())
    import ray as _ray
    ref = _ray.put((
        {(int(r["x"]), int(r["y"])): int(r["rt"])
         for _, r in rt.iterrows()},
        {r["source"]: int(r["ct"]) for _, r in ct.iterrows()}))

    def finish(b: pa.Table) -> pa.Table:
        import math

        rmap, cmap = _ray.get(ref)
        t = b.to_pandas()
        e_q, resid = [], []
        for _, r in t.iterrows():
            rc = rmap[(int(r["x"]), int(r["y"]))] * cmap[r["source"]]
            e_q.append((2 * rc * MORANS_QUANT + nt) // (2 * nt))
            e = float(rc) / float(nt)
            resid.append((float(int(r["o"])) - e) / math.sqrt(e))
        return pa.table({
            "x": pa.array(t["x"].to_numpy(np.int64)),
            "y": pa.array(t["y"].to_numpy(np.int64)),
            "source": pa.array(t["source"].tolist(), pa.string()),
            "o": pa.array(t["o"].to_numpy(np.int64)),
            "e_q12": pa.array(e_q, pa.int64()),
            "resid": pa.array(resid, pa.float64())})

    return cnt.map_batches(finish, batch_format="pyarrow")


def sql_contingency() -> str:
    kx, ky = derive.sql_cells_expr("doc_id")
    shift = 18 - MORANS_Z
    x = f"({kx} >> {shift})"
    y = f"((262143 - {ky}) >> {shift})"
    qv = MORANS_QUANT
    return (
        f"WITH cells AS (SELECT {x} AS x, {y} AS y, source, "
        "CAST(COUNT(*) AS HUGEINT) AS o FROM documents "
        "GROUP BY 1, 2, 3), "
        "r AS (SELECT x, y, SUM(o) AS rt FROM cells GROUP BY 1, 2), "
        "c AS (SELECT source, SUM(o) AS ct FROM cells GROUP BY 1), "
        "n AS (SELECT SUM(o) AS nt FROM cells) "
        "SELECT cells.x, cells.y, cells.source, CAST(o AS BIGINT) AS o, "
        f"CAST((2*rt*ct*{qv} + nt) // (2*nt) AS BIGINT) AS e_q12, "
        "(CAST(o AS DOUBLE) - CAST(rt*ct AS DOUBLE)/CAST(nt AS DOUBLE)) "
        "/ sqrt(CAST(rt*ct AS DOUBLE)/CAST(nt AS DOUBLE)) AS resid "
        "FROM cells JOIN r USING (x, y) JOIN c USING (source), n"
    )


QUERIES["contingency"] = q_contingency
ORACLES["contingency"] = sql_contingency


# --------------------------------------------------------------------------
# hhi — per-cell Herfindahl-Hirschman source-concentration index
# --------------------------------------------------------------------------
#
# For every occupied z=MORANS_Z cell, how monopolized is its content
# mix?  HHI = sum over sources of (share)^2 = sum(c^2) / total^2 —
# exact rational on integer counts, emitted quantized at 1e12 with the
# family's floor-half contract (1/n_sources = perfectly even, 1.0 =
# single-source).  One map-side-combined (x, y, source) count
# exchange (the contingency table), then the per-cell finish runs
# INSIDE the cell's bucket — no marginals, no driver state.

def q_hhi(sf_dir: str):
    """(x, y, total, n_sources, hhi_q12) per occupied cell."""
    import ray

    from ..functions.quadtree import calculate_point, qt_round, qt_tuple
    from ..stages.assign import QT_BUFFER, QT_MAX_LEVEL
    from ..stages.shuffle import bucketed_apply, grouped_agg

    def per_batch(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
        zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
        df = (pd.DataFrame({
            "x": zx, "y": zy,
            "source": b.column("source").to_pandas()})
            .groupby(["x", "y", "source"], sort=False).size()
            .reset_index(name="o"))
        df["o"] = df["o"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    cnt = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["x", "y", "source"], {"o": ("o", "sum")})

    def cell_hhi(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for (x, y), gg in g.groupby(["x", "y"], sort=False):
            c = gg["o"].to_numpy(np.int64)
            tot = int(c.sum())
            s2 = sum(int(v) * int(v) for v in c.tolist())
            den = 2 * tot * tot
            out.append((int(x), int(y), tot, len(c),
                        (2 * s2 * MORANS_QUANT + tot * tot) // den))
        return pd.DataFrame(
            out, columns=["x", "y", "total", "n_sources", "hhi_q12"])

    return bucketed_apply(cnt, ["x", "y"], cell_hhi)


def sql_hhi() -> str:
    kx, ky = derive.sql_cells_expr("doc_id")
    shift = 18 - MORANS_Z
    x = f"({kx} >> {shift})"
    y = f"((262143 - {ky}) >> {shift})"
    qv = MORANS_QUANT
    return (
        f"WITH c AS (SELECT {x} AS x, {y} AS y, source, "
        "CAST(COUNT(*) AS HUGEINT) AS o FROM documents "
        "GROUP BY 1, 2, 3) "
        "SELECT x, y, CAST(SUM(o) AS BIGINT) AS total, "
        "CAST(COUNT(*) AS BIGINT) AS n_sources, "
        f"CAST((2*SUM(o*o)*{qv} + SUM(o)*SUM(o)) // (2*SUM(o)*SUM(o)) "
        "AS BIGINT) AS hhi_q12 FROM c GROUP BY x, y"
    )


QUERIES["hhi"] = q_hhi
ORACLES["hhi"] = sql_hhi


# --------------------------------------------------------------------------
# quadrat_csr — quadrat-count chi-square test against CSR
# --------------------------------------------------------------------------
#
# The classical first point-pattern test: partition the world into the
# FULL z=MORANS_Z grid (G = 4^z quadrats, empties included), and
# compute the index-of-dispersion statistic against the uniform CSR
# expectation mu = N/G:
#
#   chi2 = sum_cells (n_i - mu)^2 / mu = G*sum(n^2)/N - N
#
# Exact rational on the occupied-cell second moment alone (empty
# cells contribute through the constant G), quantized at 1e12,
# floor-half contract.  One O(occupied) exchange; two scalars to the
# driver.

def q_quadrat_csr(sf_dir: str):
    """One row: (n_grid, n_occupied, n_points, chi2_q12)."""
    import ray
    import ray.data

    from ..functions.quadtree import calculate_point, qt_round, qt_tuple
    from ..stages.assign import QT_BUFFER, QT_MAX_LEVEL
    from ..stages.shuffle import grouped_agg

    n_side = 1 << MORANS_Z
    grid = n_side * n_side

    def per_batch(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
        zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
        packed = zx * n_side + zy
        vals, counts = np.unique(packed, return_counts=True)
        return pa.table({"cell": pa.array(vals),
                         "n": pa.array(counts.astype(np.int64))})

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
    cells = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["cell"], {"n": ("n", "sum")})

    def moments(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy().astype(np.int64)
        return pa.table({
            "occ": pa.array([len(n)], pa.int64()),
            "s1": pa.array([int(n.sum())], pa.int64()),
            "s2": pa.array([int((n * n).sum())], pa.int64())})

    mm = cells.map_batches(moments, batch_format="pyarrow").to_pandas()
    occ = int(mm["occ"].sum())
    s1 = int(mm["s1"].sum())
    s2 = int(mm["s2"].sum())
    # chi2*Q = (G*s2 - s1^2)*Q / s1, floor-half
    q = (((2 * (grid * s2 - s1 * s1) * MORANS_QUANT + s1) // (2 * s1))
         if s1 else None)
    return ray.data.from_arrow(pa.table({
        "n_grid": pa.array([grid], pa.int64()),
        "n_occupied": pa.array([occ], pa.int64()),
        "n_points": pa.array([s1], pa.int64()),
        "chi2_q12": pa.array([q], pa.int64()),
    }))


def sql_quadrat_csr() -> str:
    kx, ky = derive.sql_cells_expr("doc_id")
    shift = 18 - MORANS_Z
    x = f"({kx} >> {shift})"
    y = f"((262143 - {ky}) >> {shift})"
    grid = (1 << MORANS_Z) ** 2
    qv = MORANS_QUANT
    return (
        f"WITH cells AS (SELECT {x} AS x, {y} AS y, "
        "CAST(COUNT(*) AS HUGEINT) AS n FROM documents GROUP BY 1, 2), "
        "m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS occ, SUM(n) AS s1, "
        "SUM(n*n) AS s2 FROM cells) "
        f"SELECT CAST({grid} AS BIGINT) AS n_grid, "
        "CAST(occ AS BIGINT) AS n_occupied, "
        "CAST(s1 AS BIGINT) AS n_points, "
        "CASE WHEN s1 = 0 THEN NULL ELSE "
        f"CAST((2*({grid}*s2 - s1*s1)*{qv} + s1) // (2*s1) AS BIGINT) "
        "END AS chi2_q12 FROM m"
    )


QUERIES["quadrat_csr"] = q_quadrat_csr
ORACLES["quadrat_csr"] = sql_quadrat_csr


# --------------------------------------------------------------------------
# lisa_quadrants — Moran-scatterplot quadrant per cell
# --------------------------------------------------------------------------
#
# The per-cell categorical companion to morans_i: classify every
# occupied cell by (own count vs mean, neighborhood-lag mean vs mean)
# into HH(1) / LH(2) / LL(3) / HL(4) — the hotspot/outlier map of the
# LISA literature.  All comparisons are EXACT integer cross products
# (n_i*N <=> S and lag_sum*N <=> k_i*S — no division), "high" means
# strictly greater.  Isolated cells (no rook neighbor) get NULL.
# Same anchor-cell exchange as local_g, neighborhood EXCLUDING self.

def q_lisa_quadrants(sf_dir: str):
    """(x, y, n, k_nb, quadrant) per occupied z=MORANS_Z cell."""
    import ray
    import ray.data

    from ..functions.quadtree import calculate_point, qt_round, qt_tuple
    from ..stages.assign import QT_BUFFER, QT_MAX_LEVEL
    from ..stages.shuffle import bucketed_apply, grouped_agg

    n_side = 1 << MORANS_Z

    def per_batch(b: pa.Table) -> pa.Table:
        d = _q()._derive_batch(b, "doc_id")
        lon = d.column("lon").to_numpy()
        lat = d.column("lat").to_numpy()
        qt = calculate_point(lon, lat, QT_BUFFER, QT_MAX_LEVEL)
        zx, zy, _ = qt_tuple(qt_round(qt, MORANS_Z))
        packed = zx * n_side + zy
        vals, counts = np.unique(packed, return_counts=True)
        return pa.table({
            "x": pa.array(vals // n_side),
            "y": pa.array(vals % n_side),
            "n": pa.array(counts.astype(np.int64)),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"])
    cells = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["x", "y"], {"n": ("n", "sum")})

    def fan(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        n = b.column("n").to_numpy().astype(np.int64)
        kx = np.concatenate([x, x + 1, x - 1, x, x])
        ky = np.concatenate([y, y, y, y + 1, y - 1])
        kind = np.concatenate([np.zeros(len(x), np.int8),
                               np.ones(len(x) * 4, np.int8)])
        return pa.table({"kx": kx, "ky": ky, "kind": kind,
                         "n": np.tile(n, 5)})

    def bucket_lag(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["kind"] == 0]
        p = df[df["kind"] == 1]
        inc = (p.groupby(["kx", "ky"], as_index=False)
               .agg(k_nb=("n", "size"), lag=("n", "sum")))
        m = s.merge(inc, on=["kx", "ky"], how="left")
        return pd.DataFrame({
            "x": m["kx"].to_numpy(np.int64),
            "y": m["ky"].to_numpy(np.int64),
            "n": m["n"].to_numpy(np.int64),
            "k_nb": m["k_nb"].fillna(0).to_numpy(np.int64),
            "lag": m["lag"].fillna(0).to_numpy(np.int64),
            "mn": 1, "ms": m["n"].to_numpy(np.int64),
        })

    per_cell = bucketed_apply(
        cells.map_batches(fan, batch_format="pyarrow"),
        ["kx", "ky"], bucket_lag).materialize()
    mom = per_cell.sum(["mn", "ms"])
    nc, s1 = int(mom["sum(mn)"]), int(mom["sum(ms)"])

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy().astype(np.int64)
        k = b.column("k_nb").to_numpy().astype(np.int64)
        lag = b.column("lag").to_numpy().astype(np.int64)
        hi_own = n * nc > s1
        hi_lag = lag * nc > k * s1
        quad = np.where(hi_own, np.where(hi_lag, 1, 4),
                        np.where(hi_lag, 2, 3)).astype(np.int64)
        return pa.table({
            "x": b.column("x"), "y": b.column("y"),
            "n": b.column("n"), "k_nb": b.column("k_nb"),
            "quadrant": pa.array(
                np.ma.masked_array(quad, mask=(k == 0)), pa.int64(),
                from_pandas=True),
        })

    return per_cell.map_batches(finish, batch_format="pyarrow")


def sql_lisa_quadrants() -> str:
    kx, ky = derive.sql_cells_expr("doc_id")
    shift = 18 - MORANS_Z
    x = f"({kx} >> {shift})"
    y = f"((262143 - {ky}) >> {shift})"
    return (
        f"WITH cells AS (SELECT {x} AS x, {y} AS y, "
        "CAST(COUNT(*) AS HUGEINT) AS n FROM documents GROUP BY 1, 2), "
        "tot AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nc, SUM(n) AS s1 "
        "FROM cells), "
        "g AS (SELECT a.x, a.y, a.n, "
        "CAST(COUNT(b.n) AS HUGEINT) AS k, "
        "COALESCE(SUM(b.n), 0) AS lag FROM cells a "
        "LEFT JOIN cells b ON abs(a.x - b.x) + abs(a.y - b.y) = 1 "
        "GROUP BY a.x, a.y, a.n) "
        "SELECT g.x, g.y, CAST(g.n AS BIGINT) AS n, "
        "CAST(g.k AS BIGINT) AS k_nb, "
        "CASE WHEN g.k = 0 THEN NULL "
        "WHEN g.n*nc > s1 AND g.lag*nc > g.k*s1 THEN 1 "
        "WHEN g.n*nc <= s1 AND g.lag*nc > g.k*s1 THEN 2 "
        "WHEN g.n*nc <= s1 AND g.lag*nc <= g.k*s1 THEN 3 "
        "ELSE 4 END::BIGINT AS quadrant FROM g, tot"
    )


QUERIES["lisa_quadrants"] = q_lisa_quadrants
ORACLES["lisa_quadrants"] = sql_lisa_quadrants


# --------------------------------------------------------------------------
# cross_k — bivariate (cross-type) pair counts by source class
# --------------------------------------------------------------------------
#
# The bivariate companion to ripley_k: within CROSS_K_R, how many
# point pairs join each unordered SOURCE-class combination?  Excess
# same-class pairs = the classes clump apart; excess cross-class =
# they co-locate — the "do sources share geography?" diagnostic.
# Same cell-blocked exactly-once pair exchange (via the shared
# _cell_pair_indices view); each bucket emits O(classes^2) count rows.

CROSS_K_R = 100_000_000


def q_cross_k(sf_dir: str):
    """(sa, sb, n_pairs) per unordered source-class pair within
    CROSS_K_R."""
    from ..stages.shuffle import bucketed_apply, grouped_agg

    pts = _replicated_points(sf_dir, CROSS_K_R, extra_cols=("source",))

    def cnts(g: pd.DataFrame) -> pd.DataFrame:
        a_i, b_i, _d2 = _cell_pair_indices(g, CROSS_K_R)
        if not len(a_i):
            return pd.DataFrame({"sa": pd.Series(dtype=object),
                                 "sb": pd.Series(dtype=object),
                                 "n_pairs": pd.Series(dtype=np.int64)})
        src = g["source"].to_numpy()
        sa = src[a_i]
        sb = src[b_i]
        swap = sa > sb
        lo = np.where(swap, sb, sa)
        hi = np.where(swap, sa, sb)
        out = (pd.DataFrame({"sa": lo, "sb": hi})
               .groupby(["sa", "sb"], sort=False).size()
               .reset_index(name="n_pairs"))
        out["n_pairs"] = out["n_pairs"].astype(np.int64)
        return out

    return grouped_agg(
        bucketed_apply(pts, ["cx", "cy"], cnts),
        ["sa", "sb"], {"n_pairs": ("n_pairs", "sum")})


def sql_cross_k() -> str:
    lon, lat = derive.sql_lonlat_expr("doc_id")
    r = CROSS_K_R
    d2 = (
        "CAST(a.lon - b.lon AS HUGEINT) * CAST(a.lon - b.lon AS HUGEINT) + "
        "CAST(a.lat - b.lat AS HUGEINT) * CAST(a.lat - b.lat AS HUGEINT)"
    )
    return (
        f"WITH e AS (SELECT doc_id, source, {lon} AS lon, {lat} AS lat "
        "FROM documents), "
        "p AS (SELECT LEAST(a.source, b.source) AS sa, "
        "GREATEST(a.source, b.source) AS sb "
        "FROM e a JOIN e b ON a.doc_id < b.doc_id "
        f"AND abs(a.lon - b.lon) <= {r} AND abs(a.lat - b.lat) <= {r} "
        f"AND {d2} <= {r}::HUGEINT * {r}::HUGEINT) "
        "SELECT sa, sb, CAST(COUNT(*) AS BIGINT) AS n_pairs FROM p "
        "GROUP BY sa, sb"
    )


QUERIES["cross_k"] = q_cross_k
ORACLES["cross_k"] = sql_cross_k
