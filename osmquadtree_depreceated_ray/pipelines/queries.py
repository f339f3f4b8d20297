"""Driver-contract query registry: Ray pipelines + matching DuckDB oracles.

Each entry in :data:`QUERIES` is ``name -> callable(sf_dir)`` returning a
Dataset / pandas DataFrame / pyarrow Table; :data:`ORACLES` holds the
equivalent ANSI SQL (DuckDB) over the same parquet tables, with IDENTICAL
column names.  The driver compares row-count + schema + order-insensitive
value hashes (task brief).

Spatial queries derive entity coordinates from integer key columns via
the oracle-safe mid-cell scheme (see sources/derive.py): the engine runs
the real float quadrant descent / pnpoly / knn kernels, while the SQL
oracle uses pure-integer formulas that are provably equal on this grid.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.quadtree import qt_round
from ..sources import derive

# --------------------------------------------------------------------------
# SQL helpers (pure integer where possible)
# --------------------------------------------------------------------------


def sql_qt_round(expr: str, level: int) -> str:
    """qt_round in SQL (quadtree.go:206-213); assumes depth(expr) >= level."""
    sh = 63 - 2 * level
    return f"((( {expr} >> {sh}) << {sh}) + {level})"


def _sql_smear(x: str) -> str:
    v = x
    for s in (1, 2, 4, 8, 16, 32):
        v = f"({v} | ({v} >> {s}))"
    return v


def sql_qt_common(a: str, b: str, depth: int = 18) -> str:
    """qt_common for two equal-depth qts (quadtree.go:216-241): xor the
    paths, count leading zeros via smear+bit_count, round to the common
    level.  Pure integer SQL."""
    x = f"xor(({a} & -32), ({b} & -32))"
    nlz = f"(64 - bit_count({_sql_smear(x)}))"
    # NB: DuckDB integer '/' returns DOUBLE and CAST rounds — use '//'
    lvl = f"LEAST({depth}, ({nlz} - 1) // 2)"
    sh = f"(63 - 2 * {lvl})"
    return f"CASE WHEN {a} = {b} THEN {a} ELSE ((({a} >> {sh}) << {sh}) + {lvl}) END"


# deterministic rectangle "admin regions" for the PIP oracle: engine runs
# the real PolygonIndex/pnpoly path over 4-vertex rings; the SQL oracle
# reduces to half-open interval tests (pnpoly on an axis-aligned rectangle
# is exactly lon in [a,b) AND lat in [c,d) — even-odd crossing semantics).
N_RECTS = 24


def _rect_bounds(k: np.ndarray):
    a = ((k * 7919) % 340 - 170) * 10_000_000  # lon west edge
    c = ((k * 104729) % 150 - 75) * 10_000_000  # lat south edge
    w = (5 + (k % 7) * 3) * 10_000_000
    h = (4 + (k % 5) * 3) * 10_000_000
    return a, c, a + w, c + h


def rect_polys_table() -> pa.Table:
    k = np.arange(N_RECTS, dtype=np.int64)
    a, c, b, d = _rect_bounds(k)
    rings = [
        [[
            {"lon": int(a[i]), "lat": int(c[i])},
            {"lon": int(b[i]), "lat": int(c[i])},
            {"lon": int(b[i]), "lat": int(d[i])},
            {"lon": int(a[i]), "lat": int(d[i])},
            {"lon": int(a[i]), "lat": int(c[i])},
        ]]
        for i in range(N_RECTS)
    ]
    ring_t = pa.list_(pa.list_(pa.struct([("lon", pa.int64()), ("lat", pa.int64())])))
    return pa.table(
        {
            "poly_id": pa.array(k),
            "rings": pa.array(rings, ring_t),
            "admin_level": pa.array((2 + k % 9).astype(np.int32)),
        }
    )


def sql_rects_cte() -> str:
    rows = []
    k = np.arange(N_RECTS, dtype=np.int64)
    a, c, b, d = _rect_bounds(k)
    for i in range(N_RECTS):
        rows.append(f"({i}, {a[i]}, {c[i]}, {b[i]}, {d[i]}, {2 + i % 9})")
    return (
        "rects(poly_id, minx, miny, maxx, maxy, admin_level) AS (VALUES "
        + ", ".join(rows)
        + ")"
    )


KNN_QUERY_KEYS = [777_013 + 13 * i for i in range(10)]
KNN_K = 5


def _knn_queries():
    keys = np.asarray(KNN_QUERY_KEYS, dtype=np.int64)
    lon, lat = derive.derive_lonlat(keys)
    return {
        "query_id": np.arange(len(keys), dtype=np.int64),
        "lon": lon,
        "lat": lat,
    }


def sql_knn_queries_cte() -> str:
    q = _knn_queries()
    rows = ", ".join(
        f"({int(i)}, {int(lo)}, {int(la)})"
        for i, lo, la in zip(q["query_id"], q["lon"], q["lat"])
    )
    return f"knnq(query_id, qlon, qlat) AS (VALUES {rows})"


# --------------------------------------------------------------------------
# Ray-side derived-entity helpers
# --------------------------------------------------------------------------


def _derive_batch(batch: pa.Table, key_col: str) -> pa.Table:
    key = batch.column(key_col).to_numpy().astype(np.int64)
    lon, lat = derive.derive_lonlat(key)
    return batch.append_column("lon", pa.array(lon)).append_column(
        "lat", pa.array(lat)
    )


def derived_entities(sf_dir: str, table: str = "documents",
                     key_col: str = "doc_id", include_icosa: bool = False):
    """Dataset of (key, lon, lat, qt, cells) derived from an sf table.
    The icosahedral cell (the costliest kernel: 20-face matmul + trig)
    is opt-in — only surfaces that keep the column request it."""
    import ray

    from ..stages.assign import assign_cells

    ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=[key_col])
    return ds.map_batches(
        lambda b: assign_cells(_derive_batch(b, key_col),
                               include_icosa=include_icosa),
        batch_format="pyarrow",
    )


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------


def q_point_qt(sf_dir: str):
    """M1: per-document tile id at level 18 (the core kernel)."""
    ds = derived_entities(sf_dir)
    return ds.select_columns(["doc_id", "lon", "lat", "qt"])


def sql_point_qt() -> str:
    qt = derive.sql_qt_expr("doc_id")
    lon, lat = derive.sql_lonlat_expr("doc_id")
    return (
        f"SELECT doc_id, {lon} AS lon, {lat} AS lat, {qt} AS qt "
        f"FROM documents"
    )


def q_tile_counts(sf_dir: str):
    """A1: per-tile counts at a coarser level (the trie input) over the
    orders table — groupby on the qt prefix."""
    import ray

    level = 10

    def per_batch(b: pa.Table) -> pa.Table:
        from ..functions.quadtree import calculate_point

        key = b.column("o_orderkey").to_numpy().astype(np.int64)
        lon, lat = derive.derive_lonlat(key)
        qt = calculate_point(lon, lat, 0.05, 18)
        rounded = qt_round(qt, level)
        vals, counts = np.unique(rounded, return_counts=True)
        return pa.table({"tile": pa.array(vals), "n": pa.array(counts.astype(np.int64))})

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey"])
    return grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["tile"], {"n": ("n", "sum")},
    )


def sql_tile_counts() -> str:
    qt = derive.sql_qt_expr("o_orderkey")
    return (
        f"SELECT {sql_qt_round(qt, 10)} AS tile, COUNT(*) AS n "
        f"FROM orders GROUP BY 1"
    )


def q_pip_join(sf_dir: str):
    """M5/M11/J-PIP: point-in-polygon join of derived document entities
    against the deterministic rectangle regions, via the broadcast
    PolygonIndex actor pool (real pnpoly path)."""
    import ray

    from ..stages.spatial import PIPActor, PolygonIndex

    from ..stages.spatial import pip_map_fn

    index = PolygonIndex.from_table(rect_polys_table())
    ref = ray.put(index)
    ds = derived_entities(sf_dir)
    pairs = ds.map_batches(pip_map_fn(ref, ("doc_id",)), batch_format="pyarrow")
    return pairs.select_columns(["doc_id", "poly_id", "admin_level"])


def sql_pip_join() -> str:
    lon, lat = derive.sql_lonlat_expr("doc_id")
    return (
        f"WITH {sql_rects_cte()}, e AS (SELECT doc_id, {lon} AS lon, {lat} AS lat "
        f"FROM documents) "
        f"SELECT e.doc_id, CAST(r.poly_id AS BIGINT) AS poly_id, "
        f"CAST(r.admin_level AS BIGINT) AS admin_level "
        f"FROM e JOIN rects r ON e.lon >= r.minx AND e.lon < r.maxx "
        f"AND e.lat >= r.miny AND e.lat < r.maxy"
    )


def q_knn(sf_dir: str):
    """kNN: top-5 derived entities per broadcast query point (brute-force
    candidates per batch + global top-k groupby)."""
    import ray

    from ..stages.spatial import KnnActor, worker_cached

    qref = ray.put(_knn_queries())
    ds = derived_entities(sf_dir)
    cands = ds.map_batches(
        worker_cached(("knn", qref.hex()),
                      lambda: KnnActor(qref, KNN_K, "doc_id")),
        batch_format="pyarrow",
    )

    from ..stages.shuffle import bucketed_apply

    def topk(bucket):
        g = bucket.sort_values(["dist2", "doc_id"])
        return g.groupby("query_id", as_index=False, sort=False).head(KNN_K)

    return bucketed_apply(cands, ["query_id"], topk, n_buckets=8)


def sql_knn() -> str:
    lon, lat = derive.sql_lonlat_expr("doc_id")
    return (
        f"WITH {sql_knn_queries_cte()}, e AS (SELECT doc_id, {lon} AS lon, "
        f"{lat} AS lat FROM documents) "
        f"SELECT CAST(query_id AS BIGINT) AS query_id, doc_id, dist2 FROM ("
        f"  SELECT q.query_id, e.doc_id, "
        f"  CAST(e.lon - q.qlon AS DOUBLE) * CAST(e.lon - q.qlon AS DOUBLE) + "
        f"  CAST(e.lat - q.qlat AS DOUBLE) * CAST(e.lat - q.qlat AS DOUBLE) AS dist2, "
        f"  row_number() OVER (PARTITION BY q.query_id ORDER BY "
        f"    CAST(e.lon - q.qlon AS DOUBLE) * CAST(e.lon - q.qlon AS DOUBLE) + "
        f"    CAST(e.lat - q.qlat AS DOUBLE) * CAST(e.lat - q.qlat AS DOUBLE), e.doc_id"
        f"  ) AS rn FROM e CROSS JOIN knnq q) WHERE rn <= {KNN_K}"
    )


_RASTER_REF = None


def _raster_grid_ref():
    """Build + broadcast the z=8 raster grid once per process (ray.put
    once; actors read it zero-copy)."""
    global _RASTER_REF
    if _RASTER_REF is None:
        import ray

        from ..sources.fixtures import gen_raster_tiles

        rt = gen_raster_tiles(8)
        n = 1 << 8
        vals = np.asarray(rt.column("values").combine_chunks().flatten()).reshape(-1, 256)
        xs = rt.column("x").to_numpy().astype(np.int64)
        ys = rt.column("y").to_numpy().astype(np.int64)
        grid = np.zeros((n * n, 256), dtype=np.float32)
        grid[xs * n + ys] = vals
        _RASTER_REF = ray.put({"z": 8, "values": grid})
    return _RASTER_REF


def q_raster_lookup(sf_dir: str):
    """Raster<->vector: sample the deterministic z=8 raster grid at each
    derived entity via the qt->slippy mapping (broadcast grid actor)."""
    import ray

    from ..stages.spatial import RasterLookupActor, worker_cached

    gref = _raster_grid_ref()

    ds = derived_entities(sf_dir)
    out = ds.map_batches(
        worker_cached(("raster", gref.hex()),
                      lambda: RasterLookupActor(gref)),
        batch_format="pyarrow",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "raster_value": pa.array(
                    b.column("raster_value").to_numpy().astype(np.int64)
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def sql_raster_lookup() -> str:
    kx, ky = derive.sql_cells_expr("doc_id")
    x8 = f"({kx} >> 10)"
    y8 = f"((262143 - {ky}) >> 10)"
    x12 = f"({kx} >> 6)"
    y12 = f"((262143 - {ky}) >> 6)"
    cell = f"(({x12} - 16 * {x8}) * 16 + ({y12} - 16 * {y8}))"
    val = f"(xor(xor({x8} * 73856093, {y8} * 19349663), {cell} * 83492791) % 1000)"
    return f"SELECT doc_id, {val} AS raster_value FROM documents"


def q_bbox_agg(sf_dir: str):
    """A2: per-group bbox (min/max lon/lat) over lineitem-derived points,
    grouped by order key — the way-bbox aggregation."""
    import ray
    from ray.data.aggregate import Max, Min

    def add_coords(b: pa.Table) -> pa.Table:
        key = (
            b.column("l_orderkey").to_numpy().astype(np.int64) * 8
            + b.column("l_linenumber").to_numpy().astype(np.int64)
        )
        lon, lat = derive.derive_lonlat(key)
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    )
    return grouped_agg(
        ds.map_batches(add_coords, batch_format="pyarrow"),
        ["l_orderkey"],
        {"minx": ("lon", "min"), "miny": ("lat", "min"),
         "maxx": ("lon", "max"), "maxy": ("lat", "max")},
    )


def sql_bbox_agg() -> str:
    key = "(CAST(l_orderkey AS BIGINT) * 8 + l_linenumber)"
    lon, lat = derive.sql_lonlat_expr(key)
    return (
        f"SELECT l_orderkey, MIN({lon}) AS minx, MIN({lat}) AS miny, "
        f"MAX({lon}) AS maxx, MAX({lat}) AS maxy FROM lineitem GROUP BY l_orderkey"
    )


def q_common_qt(sf_dir: str):
    """A3: per-group deepest-common-ancestor tile (Common over member qts
    = common(min, max) in qt pre-order; all derived qts are depth 18)."""
    import ray
    from ray.data.aggregate import Max, Min

    from ..functions.quadtree import calculate_point, qt_common

    def add_qt(b: pa.Table) -> pa.Table:
        key = (
            b.column("l_orderkey").to_numpy().astype(np.int64) * 8
            + b.column("l_linenumber").to_numpy().astype(np.int64)
        )
        lon, lat = derive.derive_lonlat(key)
        qt = calculate_point(lon, lat, 0.05, 18)
        return pa.table({"l_orderkey": b.column("l_orderkey"), "qt": pa.array(qt)})

    def finish(b: pa.Table) -> pa.Table:
        c = qt_common(b.column("qmin").to_numpy(), b.column("qmax").to_numpy())
        return pa.table(
            {"l_orderkey": b.column("l_orderkey"), "common_qt": pa.array(c)}
        )

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    )
    return grouped_agg(
        ds.map_batches(add_qt, batch_format="pyarrow"),
        ["l_orderkey"], {"qmin": ("qt", "min"), "qmax": ("qt", "max")},
    ).map_batches(finish, batch_format="pyarrow")


def sql_common_qt() -> str:
    key = "(CAST(l_orderkey AS BIGINT) * 8 + l_linenumber)"
    qt = derive.sql_qt_expr(key)
    common = sql_qt_common("qmin", "qmax")
    return (
        f"SELECT l_orderkey, {common} AS common_qt FROM ("
        f"SELECT l_orderkey, MIN({qt}) AS qmin, MAX({qt}) AS qmax "
        f"FROM lineitem GROUP BY l_orderkey)"
    )


QUERIES = {
    "point_qt": q_point_qt,
    "tile_counts": q_tile_counts,
    "pip_join": q_pip_join,
    "knn": q_knn,
    "raster_lookup": q_raster_lookup,
    "bbox_agg": q_bbox_agg,
    "common_qt": q_common_qt,
}

ORACLES = {
    "point_qt": sql_point_qt(),
    "tile_counts": sql_tile_counts(),
    "pip_join": sql_pip_join(),
    "knn": sql_knn(),
    "raster_lookup": sql_raster_lookup(),
    "bbox_agg": sql_bbox_agg(),
    "common_qt": sql_common_qt(),
}


def _merge_registries():
    from . import queries_core

    QUERIES.update(queries_core.QUERIES)
    ORACLES.update(queries_core.ORACLES)
    for mod_name in ("queries_events", "queries_text", "queries_embed",
                     "queries_curate", "queries_stats", "queries_pack",
                     "queries_spatial", "queries_corpus",
                     "queries_graph", "queries_web", "queries_geomjoin"):
        try:
            import importlib

            m = importlib.import_module(f".{mod_name}", __package__)
        except ImportError:
            continue
        QUERIES.update(m.QUERIES)
        ORACLES.update(m.ORACLES)


_merge_registries()


def q_tile_split(sf_dir: str):
    """A5: the max-per-tile split rule end-to-end over orders-derived
    entities — distributed counts -> driver trie -> (tile, n) partition.
    Not SQL-expressible (recursive widening trie walk): rows-only check;
    exact semantics are pinned by tests/test_qttree.py against the
    literal reference port."""
    import pandas as pd

    from ..functions.qttree import find_qt_groups
    from .tile import count_tiles

    ents = derived_entities(sf_dir, table="orders", key_col="o_orderkey")
    qts, counts = count_tiles(ents)
    gq, gt = find_qt_groups(qts, counts, target=2000, minimum=100,
                            require_count=False)
    # executable invariants (the rows-only check carries these): total
    # conservation and every input qt allocated to exactly one group
    from ..functions.qttree import QtAllocator

    assert int(gt.sum()) == int(counts.sum()), "split lost/duplicated rows"
    assigned = QtAllocator(gq).assign(qts)
    assert (assigned >= 0).all(), "unallocated input qt"
    recount = pd.Series(counts).groupby(pd.Series(assigned)).sum()
    got = pd.Series(gt, index=pd.Series(gq))
    assert got.sort_index().equals(recount.sort_index().astype(got.dtype)), \
        "group totals disagree with re-assignment"
    return pd.DataFrame({"tile": gq, "n": gt})


_POLY_INDEX_REF = None


def _poly_index_ref():
    """Build + broadcast the concave/hole polygon index once per process."""
    global _POLY_INDEX_REF
    if _POLY_INDEX_REF is None:
        import ray

        from ..sources.fixtures import gen_admin_polys
        from ..stages.spatial import PolygonIndex

        _POLY_INDEX_REF = ray.put(
            PolygonIndex.from_table(gen_admin_polys(n_scatter=250))
        )
    return _POLY_INDEX_REF


def q_pip_poly(sf_dir: str):
    """PIP against REAL concave/hole polygons (fixture admin_polys) over
    derived entities — exercises the full PolygonIndex path (bbox buckets,
    even-odd pnpoly, hole subtraction).  Exact DuckDB oracle: the
    crossing-number test generated per fixture polygon by
    :func:`sql_pip_poly` (bit-identical IEEE edge interpolation)."""
    import ray

    from ..stages.spatial import PIPActor

    from ..stages.spatial import pip_map_fn

    ref = _poly_index_ref()
    ds = derived_entities(sf_dir)
    pairs = ds.map_batches(pip_map_fn(ref, ("doc_id",)), batch_format="pyarrow")
    return pairs.select_columns(["doc_id", "poly_id", "admin_level"])


def _sql_pnpoly_expr(lon_col: str, lat_col: str, ring) -> str:
    """Crossing-number point-in-ring as SQL, replicating the engine's
    pnpoly (functions/geom.py:42-64) op-for-op: the per-edge interpolant
    ``(xj-xi)*(lat-yi)/(yj-yi)+xi`` is evaluated in the same IEEE-double
    order, so the comparison is bit-identical to numpy."""
    terms = []
    n = len(ring)
    j = n - 1
    for i in range(n):
        xi, yi = ring[i]
        xj, yj = ring[j]
        j = i
        if yi == yj:
            continue  # horizontal edge can never satisfy the crossing test
        terms.append(
            f"CASE WHEN ({yi} > {lat_col}) <> ({yj} > {lat_col}) AND "
            f"CAST({lon_col} AS DOUBLE) < (CAST({xj - xi} AS DOUBLE) * "
            f"CAST({lat_col} - {yi} AS DOUBLE) / CAST({yj - yi} AS DOUBLE) + "
            f"CAST({xi} AS DOUBLE)) THEN 1 ELSE 0 END"
        )
    if not terms:
        return "FALSE"
    return "((" + " + ".join(terms) + ") % 2 = 1)"


def sql_pip_poly() -> str:
    """Exact oracle for the concave/hole PIP join: one UNION ALL arm per
    fixture polygon — inclusive bbox prefilter, even-odd outer ring,
    AND NOT each hole (stages/spatial.py:116-141 semantics)."""
    from ..sources.fixtures import gen_admin_polys

    polys = gen_admin_polys(n_scatter=250)
    rings_py = polys.column("rings").to_pylist()
    pids = polys.column("poly_id").to_pylist()
    levels = polys.column("admin_level").to_pylist()
    lon, lat = derive.sql_lonlat_expr("doc_id")
    arms = []
    for pid, al, rings in zip(pids, levels, rings_py):
        outer = [(p["lon"], p["lat"]) for p in rings[0]]
        xs = [p[0] for p in outer]
        ys = [p[1] for p in outer]
        cond = (
            f"lon >= {min(xs)} AND lat >= {min(ys)} AND "
            f"lon <= {max(xs)} AND lat <= {max(ys)} AND "
            + _sql_pnpoly_expr("lon", "lat", outer)
        )
        for hole in rings[1:]:
            hr = [(p["lon"], p["lat"]) for p in hole]
            cond += f" AND NOT {_sql_pnpoly_expr('lon', 'lat', hr)}"
        arms.append(
            f"SELECT doc_id, CAST({pid} AS BIGINT) AS poly_id, "
            f"CAST({al} AS BIGINT) AS admin_level FROM e WHERE {cond}"
        )
    return (
        f"WITH e AS MATERIALIZED (SELECT doc_id, {lon} AS lon, {lat} AS lat "
        f"FROM documents) " + " UNION ALL ".join(arms)
    )


QUERIES["tile_split"] = q_tile_split
QUERIES["pip_poly"] = q_pip_poly
# lazy: generating the 250-polygon crossing-number SQL costs ~0.4 s and
# 575 KB — pay it only when oracle_sql() is actually requested, not on
# every worker import of this module (callable entries are resolved by
# __ray_entry__.oracle_sql)
ORACLES["pip_poly"] = sql_pip_poly
# (tile_split intentionally absent from ORACLES -> driver rows-only
# check; it carries in-query conservation asserts instead)


def q_cells(sf_dir: str):
    """Companion cell indexes (north_rule: H3/S2-style) per derived
    entity: S2 level-16 id (from-scratch Hilbert implementation), planar
    hex cell, and the icosahedral aperture-7 hex cell (the H3
    construction, functions/cells.py).  Rows-only (the trig/table
    pipeline is not practical to replicate in SQL); determinism +
    properties pinned by tests/test_cells_geom.py."""
    ds = derived_entities(sf_dir, include_icosa=True)
    return ds.select_columns(["doc_id", "cell_s2", "cell_hex", "cell_icosa"])


def sql_cells_golden() -> str:
    """VALUES-table golden oracle for the cell indexes: the ids are
    deterministic integers of the doc_id alone, so a 500-row VALUES CTE
    joined against documents is an exact oracle at the driver's sf0.01
    (doc_id 0..499 there).  The golden is generated from the engine's
    own deterministic kernels — it pins byte-stability of the S2/hex/
    icosa constructions across rounds (an independent scalar port does
    not exist; the constructions themselves are property-pinned by
    tests/test_cells_geom.py)."""
    from ..stages.assign import assign_cells

    # 5000 keys cover documents.doc_id at every driver scale (500 rows
    # at sf0.001/0.01, 5000 at sf0.1) — the join against documents
    # trims the golden to whatever ids exist
    keys = np.arange(5000, dtype=np.int64)
    lon, lat = derive.derive_lonlat(keys)
    t = assign_cells(pa.table({"doc_id": pa.array(keys),
                               "lon": pa.array(lon), "lat": pa.array(lat)}),
                     include_icosa=True)
    s2 = t.column("cell_s2").to_pylist()
    h3 = t.column("cell_hex").to_pylist()
    ic = t.column("cell_icosa").to_pylist()
    rows = ",".join(
        f"({k},{int(s2[k])},{int(h3[k])},{int(ic[k])})" for k in range(5000)
    )
    return (
        "WITH golden(doc_id, cell_s2, cell_hex, cell_icosa) AS (VALUES "
        + rows + ") "
        "SELECT CAST(g.doc_id AS BIGINT) AS doc_id, "
        "CAST(g.cell_s2 AS BIGINT) AS cell_s2, "
        "CAST(g.cell_hex AS BIGINT) AS cell_hex, "
        "CAST(g.cell_icosa AS BIGINT) AS cell_icosa "
        "FROM golden g JOIN documents d ON d.doc_id = g.doc_id"
    )


def q_geohash(sf_dir: str):
    """Canonical geohash (Niemeyer base32) per derived entity at
    precision 8, plus the 4-char prefix used as a coarse co-location
    key.  Unlike the S2/hex/icosa ids (golden-pinned), the geohash
    chain is PURE integer arithmetic end-to-end, so the oracle
    recomputes the identical strings in SQL (functions/cells.py
    geohash_encode)."""
    import ray

    from ..functions.cells import geohash_encode

    def fn(b: pa.Table) -> pa.Table:
        key = b.column("doc_id").to_numpy().astype(np.int64)
        lon, lat = derive.derive_lonlat(key)
        gh = geohash_encode(lon, lat, 8)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "geohash": pa.array(gh, pa.string()),
            "gh4": pa.array(gh.astype("<U4"), pa.string()),
        })

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_geohash() -> str:
    from ..functions.cells import _GEOHASH32

    lon, lat = derive.sql_lonlat_expr("doc_id")
    chars = " || ".join(
        f"substr('{_GEOHASH32}', "
        f"CAST(((gh >> {5 * (7 - c)}) & 31) AS INTEGER) + 1, 1)"
        for c in range(8))
    return (
        f"WITH e AS (SELECT doc_id, {lon} AS lon, {lat} AS lat "
        "FROM documents), "
        "b AS (SELECT doc_id, "
        "((lon + 1800000000) << 20) // 3600000000 AS lonb, "
        "((lat + 900000000) << 20) // 1800000000 AS latb FROM e), "
        "bb AS (SELECT doc_id, "
        "CASE WHEN lonb > 1048575 THEN 1048575 ELSE lonb END AS lonb, "
        "CASE WHEN latb > 1048575 THEN 1048575 ELSE latb END AS latb "
        "FROM b), "
        f"g AS (SELECT doc_id, ({derive.sql_spread('latb')} | "
        f"({derive.sql_spread('lonb')} << 1)) AS gh FROM bb), "
        f"s AS (SELECT doc_id, {chars} AS geohash FROM g) "
        "SELECT doc_id, geohash, substr(geohash, 1, 4) AS gh4 FROM s"
    )


QUERIES["geohash"] = q_geohash
ORACLES["geohash"] = sql_geohash  # lazy: resolved by oracle_sql()


def q_sample(sf_dir: str):
    """O8: systematic sampling of the events stream (deterministic
    modulo sample so the oracle is exact)."""
    import ray

    def fn(b: pa.Table) -> pa.Table:
        eid = b.column("event_id").to_numpy()
        keep = (eid % 20) == 3
        t = b.filter(pa.array(keep))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "event_type": t.column("event_type"),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type"]
    )
    return ds.map_batches(fn, batch_format="pyarrow")


QUERIES["cells"] = q_cells
ORACLES["cells"] = sql_cells_golden  # lazy: resolved by oracle_sql()
QUERIES["sample"] = q_sample
ORACLES["sample"] = (
    "SELECT event_id, user_id, event_type FROM events WHERE event_id % 20 = 3"
)


def q_way_assembly(sf_dir: str):
    """J2 + M8 in the oracle gate: 'ways' are lineitem orders — refs are
    the line rows ordered by linenumber, vertices are the derived
    entity coords; orders divisible by 5 close their ring (the closure
    vertex repeats the first ref).  Returns per-way geometry facts that
    are integer-exact: vertex count, ring-closure decision, bbox.
    The full tag/area path is pinned by the fixture pipeline tests."""
    import ray

    from ..stages.shuffle import bucketed_apply

    def rows(b: pa.Table) -> pa.Table:
        okey = b.column("l_orderkey").to_numpy().astype(np.int64)
        lnum = b.column("l_linenumber").to_numpy().astype(np.int64)
        key = okey * 8 + lnum
        lon, lat = derive.derive_lonlat(key)
        return pa.table(
            {
                "way_id": pa.array(okey),
                "pos": pa.array(lnum),
                "ref": pa.array(key),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    def assemble(g):
        import pandas as pd

        g = g.sort_values(["way_id", "pos"])
        n = len(g)
        if n == 0:
            return pd.DataFrame({
                "way_id": pd.Series(dtype=np.int64),
                "n_vertices": pd.Series(dtype=np.int64),
                "is_ring": pd.Series(dtype=bool),
                "minx": pd.Series(dtype=np.int64),
                "miny": pd.Series(dtype=np.int64),
                "maxx": pd.Series(dtype=np.int64),
                "maxy": pd.Series(dtype=np.int64),
            })
        wid = g["way_id"].to_numpy(np.int64)
        refs = g["ref"].to_numpy(np.int64)
        lon = g["lon"].to_numpy(np.int64)
        lat = g["lat"].to_numpy(np.int64)
        change = np.flatnonzero(wid[1:] != wid[:-1])
        starts = np.concatenate([[0], change + 1])
        ends = np.append(starts[1:], n)
        ways = wid[starts]
        cnt = ends - starts
        # closure vertex repeats the first ref (bbox unchanged)
        closure = ways % 5 == 0
        n_verts = cnt + closure
        is_ring = np.where(closure, n_verts >= 4,
                           (cnt >= 4) & (refs[starts] == refs[ends - 1]))
        return pd.DataFrame({
            "way_id": ways,
            "n_vertices": n_verts.astype(np.int64),
            "is_ring": is_ring.astype(bool),
            "minx": np.minimum.reduceat(lon, starts),
            "miny": np.minimum.reduceat(lat, starts),
            "maxx": np.maximum.reduceat(lon, starts),
            "maxy": np.maximum.reduceat(lat, starts),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    )
    return bucketed_apply(ds.map_batches(rows, batch_format="pyarrow"),
                          ["way_id"], assemble)


def sql_way_assembly() -> str:
    key = "(CAST(l_orderkey AS BIGINT) * 8 + l_linenumber)"
    lon, lat = derive.sql_lonlat_expr(key)
    return (
        f"SELECT l_orderkey AS way_id, "
        f"CAST(COUNT(*) + CASE WHEN l_orderkey % 5 = 0 THEN 1 ELSE 0 END AS BIGINT) "
        f"AS n_vertices, "
        # ring rule: closed by ref equality — the %5 closure always closes;
        # otherwise first==last only when ALL linenumbers coincide (the
        # synthetic data contains such duplicate-linenumber orders)
        f"(CASE WHEN l_orderkey % 5 = 0 THEN COUNT(*) + 1 >= 4 "
        f"ELSE COUNT(*) >= 4 AND MIN(l_linenumber) = MAX(l_linenumber) END) "
        f"AS is_ring, "
        f"MIN({lon}) AS minx, MIN({lat}) AS miny, "
        f"MAX({lon}) AS maxx, MAX({lat}) AS maxy "
        f"FROM lineitem GROUP BY l_orderkey"
    )


QUERIES["way_assembly"] = q_way_assembly
ORACLES["way_assembly"] = sql_way_assembly()


# --- SQL string front-end (sqlselect/sql.go goyacc grammar; parsed by
# pipelines/sqlparse.py and compiled onto the sqlish Expr layer) ------------

SQL_PARSE_TEXT = (
    "SELECT c_custkey, n_name, substr(n_name, 1, 3) AS pre, "
    "CASE WHEN c_acctbal >= 0 THEN 'pos' ELSE 'neg' END AS sign "
    "FROM customer JOIN nation ON c_nationkey = n_nationkey "
    "WHERE c_mktsegment LIKE 'BUI%' AND c_custkey BETWEEN 1 AND 1500 "
    "ORDER BY c_custkey LIMIT 200"
)


def q_sql_parse(sf_dir: str):
    """Execute a raw SQL string through the parser front-end; the oracle
    is the IDENTICAL string run by DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "customer": ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"],
        ),
        "nation": ray.data.read_parquet(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
        ),
    }
    return parse_sql(SQL_PARSE_TEXT, tables)


QUERIES["sql_parse"] = q_sql_parse
ORACLES["sql_parse"] = SQL_PARSE_TEXT


SQL_PARSE_AGG_TEXT = (
    "SELECT n_name, COUNT(*) AS n, CAST(SUM(c_custkey) AS BIGINT) AS sk "
    "FROM customer JOIN nation ON c_nationkey = n_nationkey "
    "WHERE c_acctbal >= 0 GROUP BY n_name ORDER BY n_name"
)


def q_sql_parse_agg(sf_dir: str):
    """GROUP BY through the SQL string front-end (parser -> broadcast
    join -> bucketed grouped_agg exchange); oracle = the IDENTICAL
    string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "customer": ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey", "c_acctbal"],
        ),
        "nation": ray.data.read_parquet(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
        ),
    }
    return parse_sql(SQL_PARSE_AGG_TEXT, tables)


QUERIES["sql_parse_agg"] = q_sql_parse_agg
ORACLES["sql_parse_agg"] = SQL_PARSE_AGG_TEXT


SQL_WINDOW_TEXT = (
    "SELECT event_id, user_id, "
    "ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) "
    "AS seq, "
    "MIN(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
    "AS runmin, "
    "LAG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
    "AS prev_value, "
    "COUNT(*) OVER (PARTITION BY user_id) AS user_events, "
    "NTILE(4) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
    "AS quartile, "
    "MIN(value) OVER (PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS mov_min "
    "FROM events WHERE event_type = 'click' "
    "ORDER BY user_id, seq LIMIT 5000"
)


def q_sql_window(sf_dir: str):
    """Window functions through the SQL string front-end: per-user event
    sequencing (ROW_NUMBER), a running MIN with SQL's RANGE default
    frame (exact — no float accumulation, so the oracle hash is stable),
    LAG, and a whole-partition COUNT — each PARTITION BY signature runs
    as ONE bucketed hash exchange with vectorized pandas kernels per
    bucket (no Ray Data sort).  Oracle = the IDENTICAL string in DuckDB.
    (Exceeds the reference grammar — sqlselect/sql.go has no OVER — but
    a sessionization-heavy pipeline engine needs windows first-class.)"""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "events": ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type", "value"],
        ),
    }
    return parse_sql(SQL_WINDOW_TEXT, tables)


QUERIES["sql_window"] = q_sql_window
ORACLES["sql_window"] = SQL_WINDOW_TEXT


SQL_UNNEST_TEXT = (
    "SELECT word, COUNT(*) AS n, COUNT(DISTINCT doc_id) AS docs "
    "FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS word "
    "FROM documents WHERE doc_id % 3 = 0) t "
    "GROUP BY word ORDER BY n DESC, word LIMIT 200"
)


def q_sql_unnest(sf_dir: str):
    """UNNEST row explode through the SQL string front-end (list-valued
    string_split evaluated per batch, flattened in one streaming
    map_batches — no shuffle until the GROUP BY); oracle = the
    IDENTICAL string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "documents": ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ),
    }
    return parse_sql(SQL_UNNEST_TEXT, tables)


QUERIES["sql_unnest"] = q_sql_unnest
ORACLES["sql_unnest"] = SQL_UNNEST_TEXT


SQL_EXISTS_TEXT = (
    "SELECT o_orderkey, o_totalprice FROM orders "
    "WHERE o_totalprice > (SELECT AVG(o_totalprice) FROM orders) "
    "AND EXISTS (SELECT 1 FROM customer WHERE c_custkey = o_custkey "
    "AND c_acctbal < 0) "
    "ORDER BY o_orderkey LIMIT 1000"
)


def q_sql_exists(sf_dir: str):
    """Correlated EXISTS (rewritten to a distinct-value semi probe) plus
    an uncorrelated scalar subquery, through the SQL string front-end;
    oracle = the IDENTICAL string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "orders": ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        ),
        "customer": ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_acctbal"],
        ),
    }
    return parse_sql(SQL_EXISTS_TEXT, tables)


QUERIES["sql_exists"] = q_sql_exists
ORACLES["sql_exists"] = SQL_EXISTS_TEXT


SQL_SEMIJOIN_TEXT = (
    "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
    "WHERE o_custkey IN (SELECT c_custkey FROM customer "
    "WHERE c_acctbal > 1000) "
    "AND NOT EXISTS (SELECT 1 FROM lineitem "
    "WHERE l_orderkey = o_orderkey AND l_quantity > 45) "
    "ORDER BY o_orderkey LIMIT 1000"
)


def q_sql_semijoin(sf_dir: str):
    """IN (subquery) + NOT EXISTS routed through the BUCKETED semi-join:
    ``broadcast_threshold=0`` puts every value set above the broadcast
    cap, so neither ever collects to the driver — each becomes a
    deduped marker relation left-joined through the bucketed hash
    exchange (the at-scale path for probe sets beyond driver memory;
    reference analogue filter/filter.go:94-188).  Oracle = the
    IDENTICAL string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "orders": ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        ),
        "customer": ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_acctbal"],
        ),
        "lineitem": ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_quantity"],
        ),
    }
    return parse_sql(SQL_SEMIJOIN_TEXT, tables, broadcast_threshold=0)


QUERIES["sql_semijoin"] = q_sql_semijoin
ORACLES["sql_semijoin"] = SQL_SEMIJOIN_TEXT


SQL_LEFT_JOIN_TEXT = (
    "SELECT c_custkey, c_mktsegment, r_name, "
    "CAST(COALESCE(r_regionkey, -1) AS BIGINT) AS rk "
    "FROM customer LEFT JOIN region ON c_nationkey = r_regionkey "
    "ORDER BY c_custkey LIMIT 800"
)


def q_sql_left_join(sf_dir: str):
    """LEFT OUTER equi-join through the SQL string front-end.  The key
    ranges are deliberately mismatched (c_nationkey 0-24 vs r_regionkey
    0-4) so ~80% of rows are genuinely unmatched and preserved with
    nulls; COALESCE+CAST pins the nullable-int dtype on both engines.
    Oracle = the IDENTICAL string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "customer": ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey", "c_mktsegment"],
        ),
        "region": ray.data.read_parquet(
            f"{sf_dir}/region.parquet",
            columns=["r_regionkey", "r_name"],
        ),
    }
    return parse_sql(SQL_LEFT_JOIN_TEXT, tables)


QUERIES["sql_left_join"] = q_sql_left_join
ORACLES["sql_left_join"] = SQL_LEFT_JOIN_TEXT


SQL_TOPN_TEXT = (
    "SELECT user_id, COUNT(*) AS n, "
    "COUNT(*) FILTER (WHERE event_type = 'click') AS clicks, "
    "RANK() OVER (ORDER BY COUNT(*) DESC, user_id) AS r "
    "FROM events GROUP BY user_id "
    "QUALIFY r <= 40 ORDER BY r, user_id"
)


def q_sql_topn(sf_dir: str):
    """Top-N groups in one statement: grouped FILTER aggregates, a rank
    window over the GROUP BY result (two-phase: one bucketed aggregate
    exchange, then the window over the keys-sized table), and QUALIFY
    referencing the window alias.  Oracle = the IDENTICAL string in
    DuckDB; deterministic via the user_id tie-break."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "events": ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_type"],
        ),
    }
    return parse_sql(SQL_TOPN_TEXT, tables)


QUERIES["sql_topn"] = q_sql_topn
ORACLES["sql_topn"] = SQL_TOPN_TEXT


SQL_CTE_TEXT = (
    "WITH spend AS (SELECT o_custkey, COUNT(*) AS n_orders, "
    "MIN(o_orderkey) AS first_ord FROM orders GROUP BY o_custkey), "
    "joined AS (SELECT c_nationkey, n_orders, first_ord "
    "FROM spend JOIN customer ON o_custkey = c_custkey) "
    "SELECT c_nationkey, COUNT(*) AS n_cust, "
    "CAST(SUM(n_orders) AS BIGINT) AS tot_orders, "
    "MIN(first_ord) AS first_any FROM joined GROUP BY c_nationkey"
)


def q_sql_cte(sf_dir: str):
    """WITH common table expressions through the SQL string front-end:
    an aggregate CTE joined against a base table, re-aggregated — each
    CTE plans once into a shadowed table map (parse_sql docstring).
    All-integer measures so the aggregate is order-independent.  Oracle
    = the IDENTICAL string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "orders": ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey"],
        ),
        "customer": ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey"],
        ),
    }
    return parse_sql(SQL_CTE_TEXT, tables)


QUERIES["sql_cte"] = q_sql_cte
ORACLES["sql_cte"] = SQL_CTE_TEXT


SQL_RECURSIVE_TEXT = (
    "WITH RECURSIVE p AS (SELECT c_custkey AS k, "
    "CAST(floor(c_custkey / 10) AS BIGINT) AS pk FROM customer "
    "WHERE c_custkey > 0), "
    "anc AS (SELECT k, k AS root FROM p WHERE pk = 0 "
    "UNION ALL SELECT p.k, a.root FROM p JOIN anc a ON p.pk = a.k) "
    "SELECT root, COUNT(*) AS n_desc, CAST(SUM(k) AS BIGINT) AS sum_k "
    "FROM anc GROUP BY root"
)


def q_sql_recursive(sf_dir: str):
    """WITH RECURSIVE through the SQL string front-end: transitive
    closure of the digit-truncation parent chain (k -> floor(k/10)) over
    customer keys, i.e. every key tagged with its single-digit root,
    then re-aggregated per root.  Runs as an iterative distributed
    fixpoint — each round is one distributed join of the base relation
    against the previous round's frontier ONLY (semi-naive), frontiers
    live in the object store, the driver holds refs + a count per round
    (_exec_recursive_cte).  Key 0 is excluded because its parent is
    itself — an infinite UNION ALL recursion in ANY engine, DuckDB
    included.  Depth at sf0.01 is 4 rounds.  Oracle = the IDENTICAL
    string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "customer": ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey"]),
    }
    return parse_sql(SQL_RECURSIVE_TEXT, tables)


QUERIES["sql_recursive"] = q_sql_recursive
ORACLES["sql_recursive"] = SQL_RECURSIVE_TEXT


def q_hll_distinct(sf_dir: str):
    """Mergeable-sketch aggregation (the brief's 'novel sketch' class):
    HyperLogLog distinct-user estimate over events.  Map-side fixed-size
    register partials (one uint8[4096] row per batch), associative max
    merge, O(4096) driver state however large the input.  Rows-only for
    the driver (no SQL can reproduce the estimator); accuracy and
    determinism pinned by tests/test_sketch.py, and the exact distinct
    (computed by the engine's own bucketed distinct) rides along for an
    in-row error invariant."""
    import ray

    from ..functions.sketch import (
        HLL_M, hll_estimate, hll_merge, hll_partial,
    )
    from ..stages.shuffle import distinct as _distinct

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        regs = hll_partial(b.column("user_id").to_numpy())
        return pa.table({
            "regs": pa.FixedSizeListArray.from_arrays(
                pa.array(regs, pa.uint8()), HLL_M)
        })

    parts = ds.map_batches(partial, batch_format="pyarrow")
    regs = np.zeros(HLL_M, dtype=np.uint8)
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        flat = np.asarray(b.column("regs").combine_chunks().flatten())
        np.maximum(regs, flat.reshape(-1, HLL_M).max(axis=0), out=regs)
    est = hll_estimate(regs)
    exact = _distinct(ds, ["user_id"]).count()
    return pa.table({
        # floor(x+0.5) both here and in the oracle (python round() is
        # banker's, SQL ROUND() is half-away — floor+0.5 is the one
        # rounding both engines spell identically)
        "distinct_est": pa.array([int(np.floor(est + 0.5))], pa.int64()),
        "exact_distinct": pa.array([int(exact)], pa.int64()),
        "registers_used": pa.array([int((regs > 0).sum())], pa.int64()),
    })


def sql_hll_distinct() -> str:
    """Full SQL oracle of the HLL estimator: the md5-low-64 hash basis
    is reproducible in DuckDB (md5_number_lower), registers fall out of
    a GROUP BY MAX over nlz(rest)+1 (nlz via the smear + bit_count
    identity), and the estimate itself is bit-exact because every
    2^-rho term is dyadic with exponent spread < 53 — the register sum
    is exact in IEEE double regardless of order, and the remaining
    alpha/ln/divide steps are spelled with identical operation order in
    both engines."""
    smear = "\n".join(
        f"s{i} AS (SELECT register, rest, (x | (x >> {s})) AS x "
        f"FROM {'b' if i == 0 else f's{i - 1}'}),"
        for i, s in enumerate([1, 2, 4, 8, 16, 32])
    ).replace("(x | (x >> 1)) AS x FROM b", "(rest | (rest >> 1)) AS x FROM b")
    return (
        "WITH h AS (SELECT md5_number_lower(CAST(user_id AS VARCHAR)) AS hv "
        "FROM events), "
        "b AS (SELECT CAST(hv >> 52 AS BIGINT) AS register, "
        "(hv & ((CAST(1 AS UBIGINT) << 52) - 1)) * CAST(4096 AS UBIGINT) "
        "AS rest FROM h), "
        + smear +
        " r AS (SELECT register, CASE WHEN rest = 0 THEN 53 "
        "ELSE 64 - bit_count(x) + 1 END AS rho FROM s5), "
        "regs AS (SELECT register, MAX(rho) AS rho FROM r GROUP BY register), "
        "full_regs AS (SELECT t.r AS register, COALESCE(g.rho, 0) AS rho "
        "FROM range(0, 4096) t(r) LEFT JOIN regs g ON g.register = t.r), "
        "agg AS (SELECT SUM(POWER(2.0, -rho)) AS den, "
        "SUM(CASE WHEN rho = 0 THEN 1 ELSE 0 END) AS zeros, "
        "SUM(CASE WHEN rho > 0 THEN 1 ELSE 0 END) AS used FROM full_regs), "
        "est AS (SELECT (0.7213/(1.0 + 1.079/4096.0)) * 4096.0 * 4096.0 / den "
        "AS raw, zeros, used FROM agg) "
        "SELECT CAST(FLOOR((CASE WHEN raw <= 2.5*4096.0 AND zeros > 0 "
        "THEN 4096.0 * ln(4096.0/CAST(zeros AS DOUBLE)) ELSE raw END) + 0.5) "
        "AS BIGINT) AS distinct_est, "
        "(SELECT COUNT(DISTINCT user_id) FROM events) AS exact_distinct, "
        "CAST(used AS BIGINT) AS registers_used FROM est"
    )


QUERIES["hll_distinct"] = q_hll_distinct
ORACLES["hll_distinct"] = sql_hll_distinct()


SQL_INTERVAL_TEXT = (
    "SELECT user_id, COUNT(*) AS n, "
    "MIN(ts + INTERVAL 1 DAY) AS first_next_day, "
    "MAX(ts - INTERVAL '6 hours') AS last_shifted "
    "FROM events "
    "WHERE ts >= TIMESTAMP '2024-01-08 00:00:00' - INTERVAL 1 WEEK "
    "AND ts < DATE '2024-03-01' "
    "GROUP BY user_id HAVING COUNT(*) >= 2 ORDER BY user_id"
)


def q_sql_interval(sf_dir: str):
    """INTERVAL arithmetic and TIMESTAMP/DATE literals end-to-end:
    shifted aggregates over a literal-interval-bounded window.  Oracle
    = the IDENTICAL string in DuckDB (fixed-width units only — the
    engine rejects calendar-variable MONTH/YEAR)."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "events": ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]),
    }
    return parse_sql(SQL_INTERVAL_TEXT, tables)


QUERIES["sql_interval"] = q_sql_interval
ORACLES["sql_interval"] = SQL_INTERVAL_TEXT


# ----------------------------------------------- SQL joins v2 (round 4 s6)

SQL_JOIN_MULTI_TEXT = (
    "SELECT e.user_id, e.event_type, e.value, m.n_ev "
    "FROM events e JOIN (SELECT user_id, event_type, "
    "COUNT(*) AS n_ev, MAX(value) AS mx FROM events "
    "GROUP BY user_id, event_type) m "
    "ON e.user_id = m.user_id AND e.event_type = m.event_type "
    "AND value = mx AND value > 10 "
    "ORDER BY e.user_id, e.event_type, e.value LIMIT 3000"
)


def q_sql_join_multi(sf_dir: str):
    """Composite-key join + derived join RHS + theta residual through
    the SQL front-end: per-(user, event_type) argmax-by-value events
    annotated with the group count.  The two shared-name equalities
    become one multi-key hash exchange (`_join_on` composite __jk*),
    value = mx resolves by schema into a third key pair, and
    value > 10 runs as the post-join theta filter.  Oracle = the
    IDENTICAL string in DuckDB.  (Exceeds the reference grammar:
    sqlselect/sql.go joins are single-key USING only.)"""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "events": ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_type", "value"]),
    }
    return parse_sql(SQL_JOIN_MULTI_TEXT, tables)


QUERIES["sql_join_multi"] = q_sql_join_multi
ORACLES["sql_join_multi"] = SQL_JOIN_MULTI_TEXT


SQL_CROSS_TEXT = (
    "SELECT r_name, n_name FROM nation CROSS JOIN region "
    "WHERE n_regionkey <> r_regionkey ORDER BY r_name, n_name"
)


def q_sql_cross(sf_dir: str):
    """CROSS JOIN through the SQL front-end (bounded cartesian: the
    build side is collected + ray.put once, per-batch pandas cross
    merge; an over-threshold right side raises).  Oracle = the
    IDENTICAL string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "nation": ray.data.read_parquet(
            f"{sf_dir}/nation.parquet",
            columns=["n_name", "n_regionkey"]),
        "region": ray.data.read_parquet(
            f"{sf_dir}/region.parquet",
            columns=["r_regionkey", "r_name"]),
    }
    return parse_sql(SQL_CROSS_TEXT, tables)


QUERIES["sql_cross"] = q_sql_cross
ORACLES["sql_cross"] = SQL_CROSS_TEXT


SQL_WINDOW2_TEXT = (
    "SELECT event_id, user_id, "
    "LAST_VALUE(value) OVER (PARTITION BY user_id "
    "ORDER BY ts, event_id) AS lv, "
    "NTH_VALUE(value, 2) OVER (PARTITION BY user_id "
    "ORDER BY ts, event_id) AS nv2, "
    "FIRST_VALUE(value) OVER (PARTITION BY user_id "
    "ORDER BY ts, event_id) AS fv "
    "FROM events WHERE event_type = 'view' "
    "ORDER BY user_id, event_id LIMIT 5000"
)


def q_sql_window2(sf_dir: str):
    """LAST_VALUE / NTH_VALUE with SQL's default frame (the frame end is
    the current row's last PEER, not the partition tail) + FIRST_VALUE,
    through the SQL front-end.  Oracle = the IDENTICAL string in
    DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "events": ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "event_type", "value"]),
    }
    return parse_sql(SQL_WINDOW2_TEXT, tables)


QUERIES["sql_window2"] = q_sql_window2
ORACLES["sql_window2"] = SQL_WINDOW2_TEXT


SQL_LATERAL_TEXT = (
    "SELECT c_custkey, c_mktsegment, o_orderkey, o_totalprice "
    "FROM customer LEFT JOIN LATERAL ("
    "SELECT o_orderkey, o_totalprice FROM orders "
    "WHERE o_custkey = c_custkey "
    "ORDER BY o_totalprice DESC, o_orderkey LIMIT 3) x ON TRUE"
)


def q_sql_lateral(sf_dir: str):
    """LEFT JOIN LATERAL top-n-per-row: each customer's three
    largest orders (or nulls for order-less customers).  Lowered to a
    distributed per-correlation-key top-n exchange (map-side head(n)
    combine) followed by the regular keyed join — the per-outer-row
    limit equals the per-key limit because the correlation is pure
    equality.  Deterministic via the o_orderkey tie-break.  Oracle =
    the IDENTICAL string in DuckDB."""
    import ray

    from .sqlparse import parse_sql

    tables = {
        "customer": ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_mktsegment"],
        ),
        "orders": ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        ),
    }
    return parse_sql(SQL_LATERAL_TEXT, tables)


QUERIES["sql_lateral"] = q_sql_lateral
ORACLES["sql_lateral"] = SQL_LATERAL_TEXT
