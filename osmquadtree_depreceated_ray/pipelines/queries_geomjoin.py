"""Driver-oracle entries for the geometry/update join family.

Round-5 directive #1: the six SURVEY §2 operators that were pinned by
pytest only — J4 (node->parent-way tag join, reference
geometry/nodeparent.go:26-128), J5 (relation-range donate/reduce,
geometry/relationrange.go:77-172), A4 (5-round relation qt
propagation, calcqts/resortwaynodes.go:767-824), O9 (complete-ways
closure, filter/filter.go:282-345), J9 (k-way change merge,
change/changefiles.go:156-230) and T6 (PackedDataStore serving store,
utils/packeddatastore.go:228-463) — each get a ``queries()`` entry that
runs the REAL pipeline code (geometry._node_join_fn, geometry
reducers, geometry.relation_qt_fold, spatial_filter.
complete_ways_closure, update.merge_change_files, tile.tile_entities +
serve.TileServer) over the standard sf tables, with an equivalent
DuckDB oracle.

Inputs are derived deterministically: 'nodes' are customers, 'ways'
are orders (refs = their lineitem rows), relation membership comes
from the o_custkey / s_suppkey / n_nationkey foreign keys, and
coordinates/qts come from the oracle-safe integer scheme in
sources/derive.py, so every query is hash-exact against pure-SQL.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources import derive

# value universe for the J4 parent-highway reduction: all five are in
# functions.geom.HW_ORDER with DISTINCT scores (9, 7, 6, 3, 1), so
# find_parent_highway reduces to arg-max-by-score — tie-breaks (link
# suffix / lexicographic / frequency) can only fire between equal
# scores, i.e. equal values here, keeping the oracle exact.
_HW5 = ["motorway", "primary", "secondary", "residential", "service"]


def _sql_smear(x: str) -> str:
    v = x
    for s in (1, 2, 4, 8, 16, 32):
        v = f"({v} | ({v} >> {s}))"
    return v


def sql_qt_common_any(a: str, b: str) -> str:
    """Depth-general qt_common (functions/quadtree.py:246-270) in pure
    integer SQL, including the -1 null-identity: level = min(depth a,
    depth b, leading-common-bit-pairs of the xored paths)."""
    d = f"LEAST(({a} & 31), ({b} & 31))"
    x = f"xor(({a} & -32), ({b} & -32))"
    nlz = f"(64 - bit_count({_sql_smear(x)}))"
    lvl = f"LEAST({d}, ({nlz} - 1) // 2)"
    sh = f"(63 - 2 * {lvl})"
    return (
        f"CASE WHEN {a} = -1 THEN {b} WHEN {b} = -1 THEN {a} "
        f"ELSE ((({a} >> {sh}) << {sh}) + {lvl}) END"
    )


# --------------------------------------------------------------------------
# J4 + A3: node -> parent-way tag join (geometry/nodeparent.go:26-128)
# --------------------------------------------------------------------------


def q_parent_tags(sf_dir: str):
    """Nodes = customers (lon/lat derived from c_custkey); parent ways =
    their orders, each carrying a level-18 qt derived from o_orderkey and
    a highway value keyed by o_orderkey % 5.  Runs the REAL bucketed
    join (geometry._node_join_fn): per node, qt = round(common(min, max
    parent qt), min depth) and parent_highway = find_parent_highway over
    the parent values (only nodes with entity_id % 11 == 0 carry a
    highway tag and receive the donation — geometry._node_tags_row)."""
    import ray

    from . import geometry as GM
    from ..functions import tags_rings as TR
    from ..stages.shuffle import bucketed_apply

    kinds3 = np.asarray(["poi", "city", "peak"], dtype=object)

    def node_rows(b: pa.Table) -> pa.Table:
        ck = b.column("c_custkey").to_numpy().astype(np.int64)
        lon, lat = derive.derive_lonlat(ck)
        return pa.table({
            "entity_id": pa.array(ck),
            "lon": pa.array(lon), "lat": pa.array(lat),
            "kind": pa.array(kinds3[ck % 3], pa.string()),
            "name": b.column("c_name").cast(pa.string()),
        })

    hw5 = np.asarray(_HW5, dtype=object)

    def parent_rows(b: pa.Table) -> pa.Table:
        ok = b.column("o_orderkey").to_numpy().astype(np.int64)
        ck = b.column("o_custkey").to_numpy().astype(np.int64)
        qt = derive.expected_qt(ok)
        return pa.table({
            "entity_id": pa.array(ck),
            "p_qt": pa.array(qt),
            "p_depth": pa.array(qt & 31),
            "p_hw": pa.array(hw5[ok % 5], pa.string()),
        })

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    joined = bucketed_apply(
        (cust.map_batches(node_rows, batch_format="pyarrow"),
         orders.map_batches(parent_rows, batch_format="pyarrow")),
        ["entity_id"], GM._node_join_fn(TR.DEFAULT_STYLE))

    def project(b: pa.Table) -> pa.Table:
        import json

        phw = [json.loads(t).get("parent_highway", "")
               for t in b.column("tags").to_pylist()]
        return pa.table({
            "node_id": b.column("node_id"),
            "lon": b.column("lon"), "lat": b.column("lat"),
            "qt": b.column("qt"),
            "parent_highway": pa.array(phw, pa.string()),
            "feature": b.column("feature"),
        })

    return joined.map_batches(project, batch_format="pyarrow")


def sql_parent_tags() -> str:
    from .queries import sql_qt_common

    lon, lat = derive.sql_lonlat_expr("c_custkey")
    pqt = derive.sql_qt_expr("o_orderkey")
    nqt = derive.sql_qt_expr("c_custkey")
    hw_case = ("CASE o_orderkey % 5 "
               + " ".join(f"WHEN {i} THEN '{h}'" for i, h in enumerate(_HW5))
               + " END")
    sc_case = ("CASE o_orderkey % 5 WHEN 0 THEN 9 WHEN 1 THEN 7 "
               "WHEN 2 THEN 6 WHEN 3 THEN 3 ELSE 1 END")
    return (
        f"WITH par AS (SELECT o_custkey AS ck, MIN({pqt}) AS qmin, "
        f"MAX({pqt}) AS qmax, arg_max({hw_case}, {sc_case}) AS best "
        f"FROM orders GROUP BY o_custkey) "
        f"SELECT c_custkey AS node_id, {lon} AS lon, {lat} AS lat, "
        f"CASE WHEN par.ck IS NOT NULL THEN "
        f"{sql_qt_common('par.qmin', 'par.qmax')} ELSE {nqt} END AS qt, "
        f"CASE WHEN c_custkey % 11 = 0 AND par.ck IS NOT NULL "
        f"THEN par.best ELSE '' END AS parent_highway, "
        f"TRUE AS feature "
        f"FROM customer LEFT JOIN par ON c_custkey = par.ck"
    )


# --------------------------------------------------------------------------
# J5: relation-range tag donation + way-side reduction
# --------------------------------------------------------------------------


def q_rel_range(sf_dir: str):
    """Relations = suppliers donating (a) their nation key as an
    admin_level and (b) a route ref 'R<suppkey%7>' to every way (order)
    they serve a lineitem of — AddRelationRange's pendingTags flow —
    then the REAL way-side reducers run per way: geometry.admin_levels
    (min/max_admin_level) and geometry.route_list (sorted ';' set)."""
    import ray

    from . import geometry as GM
    from ..stages.shuffle import bucketed_apply

    sup = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_nationkey"])
    nat_of = np.full(int(sup["s_suppkey"].max()) + 1, -1, np.int64)
    nat_of[sup["s_suppkey"].to_numpy()] = sup["s_nationkey"].to_numpy()
    nat_ref = ray.put(nat_of)

    def donate(b: pa.Table) -> pa.Table:
        # ray.get of the broadcast lookup is a zero-copy plasma read
        # per task — no actor pool needed, so the stage parallelizes
        # to the full task pool
        nat = ray.get(nat_ref)
        ok = b.column("l_orderkey").to_numpy().astype(np.int64)
        sk = b.column("l_suppkey").to_numpy().astype(np.int64)
        return pa.table({
            "way_id": pa.array(ok),
            "adm": pa.array(nat[sk].astype("U"), pa.string()),
            "rt": pa.array(
                np.char.add("R", (sk % 7).astype("U")), pa.string()),
        })

    def reduce_ways(g: pd.DataFrame) -> pd.DataFrame:
        # sort + boundary slices instead of pandas groupby iteration
        # (150k tiny groups at sf0.1); the per-way reduction still
        # calls the REAL geometry reducers
        g = g.sort_values("way_id", kind="stable")
        wid = g["way_id"].to_numpy(np.int64)
        adm = g["adm"].to_numpy(object)
        rt = g["rt"].to_numpy(object)
        starts = np.flatnonzero(np.r_[True, wid[1:] != wid[:-1]])
        ends = np.r_[starts[1:], len(wid)]
        ways, lo, hi, routes = [], [], [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            tags: dict = {}
            GM.admin_levels(tags, list(adm[s:e]))
            GM.route_list(tags, "bus_routes", list(rt[s:e]))
            ways.append(int(wid[s]))
            lo.append(tags.get("min_admin_level", ""))
            hi.append(tags.get("max_admin_level", ""))
            routes.append(tags.get("bus_routes", ""))
        return pd.DataFrame({"way_id": ways, "min_admin_level": lo,
                             "max_admin_level": hi, "bus_routes": routes})

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"])
    don = li.map_batches(donate, batch_format="pyarrow")
    return bucketed_apply(don, ["way_id"], reduce_ways)


SQL_REL_RANGE = (
    "WITH don AS (SELECT l_orderkey AS way_id, s_nationkey AS adm, "
    "'R' || CAST(s_suppkey % 7 AS VARCHAR) AS rt "
    "FROM lineitem JOIN supplier ON l_suppkey = s_suppkey) "
    "SELECT way_id, CAST(MIN(adm) AS VARCHAR) AS min_admin_level, "
    "CAST(MAX(adm) AS VARCHAR) AS max_admin_level, "
    "string_agg(DISTINCT rt, ';' ORDER BY rt) AS bus_routes "
    "FROM don GROUP BY way_id"
)


# --------------------------------------------------------------------------
# A4: relation qt fold + fixed 5 propagation rounds
# --------------------------------------------------------------------------


def q_rel_qt_rounds(sf_dir: str):
    """Relations = customers; member ways = their orders carrying
    level-18 derived qts; rel->rel edges chain c -> c-1 within blocks of
    four (c % 4 != 1), listed in DESCENDING c order so each round reads
    pre-round values (Jacobi) — exactly what the chained-CTE oracle
    expresses.  The distributed member fold is the same way-keyed
    cogroup as build_geometries' (geometry.member_qt_parts), and the
    driver fold + 5 rounds is the REAL geometry.relation_qt_fold."""
    import ray

    from . import geometry as GM
    from ..stages.shuffle import bucketed_apply

    def way_rows(b: pa.Table) -> pa.Table:
        from ..functions.quadtree import qt_round

        ok = b.column("o_orderkey").to_numpy().astype(np.int64)
        ck = b.column("o_custkey").to_numpy().astype(np.int64)
        # ways sit on their customer's level-18 spine at depths 13..18,
        # so per-rel commons are DEEP (min member depth) and the fold
        # exercises the depth-general common — a uniform spread would
        # make every common trivially 0
        qt = qt_round(derive.expected_qt(ck), 18 - ok % 6)
        return pa.table({"way_id": pa.array(ok), "qt": pa.array(qt)})

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    members = orders.rename_columns(
        {"o_orderkey": "way_id", "o_custkey": "rel_id"})
    parts = bucketed_apply(
        (orders.map_batches(way_rows, batch_format="pyarrow"), members),
        ["way_id"], GM.member_qt_parts).to_pandas()

    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey"])
    ck = np.sort(cust["c_custkey"].to_numpy().astype(np.int64))
    src = ck[ck % 4 != 1][::-1]  # descending: Jacobi rounds
    edges = list(zip(src.tolist(), (src - 1).tolist()))
    rel_qt = GM.relation_qt_fold(ck, parts, edges)
    out = pd.DataFrame({"rel_id": list(rel_qt), "qt": list(rel_qt.values())})
    return pa.Table.from_pandas(out.astype(np.int64), preserve_index=False)


def sql_rel_qt_rounds() -> str:
    q18 = derive.sql_qt_expr("o_custkey")
    lvl = "(18 - o_orderkey % 6)"
    sh = f"(63 - 2 * {lvl})"
    qt = f"((({q18} >> {sh}) << {sh}) + {lvl})"
    rounds = []
    prev = "r0"
    for i in range(1, 6):
        cur = f"r{i}"
        rounds.append(
            f"{cur} AS (SELECT a.rel_id, CASE WHEN b.rel_id IS NOT NULL "
            f"THEN {sql_qt_common_any('a.qt', 'b.qt')} ELSE a.qt END AS qt "
            f"FROM {prev} a LEFT JOIN {prev} b "
            f"ON a.rel_id % 4 <> 1 AND b.rel_id = a.rel_id - 1)")
        prev = cur
    return (
        f"WITH fold AS (SELECT o_custkey AS rel_id, MIN({qt}) AS qmin, "
        f"MAX({qt}) AS qmax FROM orders GROUP BY o_custkey), "
        f"r0 AS (SELECT c_custkey AS rel_id, CASE WHEN fold.rel_id IS "
        f"NOT NULL THEN {sql_qt_common_any('fold.qmin', 'fold.qmax')} "
        f"ELSE -1 END AS qt "
        f"FROM customer LEFT JOIN fold ON c_custkey = fold.rel_id), "
        + ", ".join(rounds) +
        f" SELECT rel_id, CASE WHEN qt = -1 THEN 0 ELSE qt END AS qt "
        f"FROM {prev}"
    )


# --------------------------------------------------------------------------
# O9: complete-ways closure (filter/filter.go:282-345)
# --------------------------------------------------------------------------

_O9_BBOX = (-1_800_000_000, -850_000_000, -900_000_000, 850_000_000)
_NAT_OFF = 1_000_000
_REG_OFF = 2_000_000


def q_complete_ways(sf_dir: str):
    """The REAL spatial_filter.complete_ways_closure over table-derived
    inputs: nodes = lineitem rows (key = okey*8+linenumber), ways =
    orders (refs = their lineitem keys), relations = customers holding
    their orders as way members plus the first lineitem key as a node
    member, with nation- and region-level super-relations reaching the
    5-round rel->rel loop three levels deep.  Returns the closed
    (kind, id) sets."""
    import pyarrow.parquet as pq

    from .spatial_filter import BboxTest, complete_ways_closure

    li = pq.read_table(f"{sf_dir}/lineitem.parquet",
                       columns=["l_orderkey", "l_linenumber"])
    ok = li.column("l_orderkey").to_numpy().astype(np.int64)
    ln = li.column("l_linenumber").to_numpy().astype(np.int64)
    key = ok * 8 + ln
    lon, lat = derive.derive_lonlat(key)
    entities = pa.table({"entity_id": pa.array(key), "lon": pa.array(lon),
                         "lat": pa.array(lat)})

    order = np.lexsort((ln, ok))
    ok_s, key_s = ok[order], key[order]
    starts = np.flatnonzero(np.r_[True, ok_s[1:] != ok_s[:-1]])
    offsets = np.r_[starts, len(ok_s)].astype(np.int32)
    ways = pa.table({
        "way_id": pa.array(ok_s[starts]),
        "refs": pa.ListArray.from_arrays(pa.array(offsets),
                                         pa.array(key_s)),
    })

    od = pq.read_table(f"{sf_dir}/orders.parquet",
                       columns=["o_orderkey", "o_custkey"]).to_pandas()
    cu = pq.read_table(f"{sf_dir}/customer.parquet",
                       columns=["c_custkey", "c_nationkey"]).to_pandas()
    na = pq.read_table(f"{sf_dir}/nation.parquet",
                       columns=["n_nationkey", "n_regionkey"]).to_pandas()
    rel_parts = [
        pd.DataFrame({"rel_id": od["o_custkey"].astype("int64"),
                      "member_type": 1,
                      "member_ref": od["o_orderkey"].astype("int64")}),
        pd.DataFrame({"rel_id": od["o_custkey"].astype("int64"),
                      "member_type": 0,
                      "member_ref": od["o_orderkey"].astype("int64") * 8 + 1}),
        pd.DataFrame({"rel_id": cu["c_nationkey"].astype("int64") + _NAT_OFF,
                      "member_type": 2,
                      "member_ref": cu["c_custkey"].astype("int64")}),
        pd.DataFrame({"rel_id": na["n_regionkey"].astype("int64") + _REG_OFF,
                      "member_type": 2,
                      "member_ref": na["n_nationkey"].astype("int64")
                      + _NAT_OFF}),
    ]
    rels = pa.Table.from_pandas(pd.concat(rel_parts, ignore_index=True),
                                preserve_index=False)

    res = complete_ways_closure(entities, ways, rels, BboxTest(*_O9_BBOX))
    kinds = (["node"] * len(res["nodes"]) + ["way"] * len(res["ways"])
             + ["rel"] * len(res["relations"]))
    ids = np.concatenate([res["nodes"], res["ways"], res["relations"]])
    return pa.table({"kind": pa.array(kinds, pa.string()),
                     "id": pa.array(ids.astype(np.int64))})


def sql_complete_ways() -> str:
    key = "(CAST(l_orderkey AS BIGINT) * 8 + l_linenumber)"
    lon, lat = derive.sql_lonlat_expr(key)
    minx, miny, maxx, maxy = _O9_BBOX
    return (
        f"WITH nodes0 AS (SELECT {key} AS id FROM lineitem "
        f"WHERE {lon} BETWEEN {minx} AND {maxx} "
        f"AND {lat} BETWEEN {miny} AND {maxy}), "
        f"ways AS (SELECT DISTINCT l_orderkey AS id FROM lineitem "
        f"WHERE {key} IN (SELECT id FROM nodes0)), "
        f"nodes AS (SELECT id FROM nodes0 UNION "
        f"SELECT {key} FROM lineitem "
        f"WHERE l_orderkey IN (SELECT id FROM ways)), "
        f"base AS (SELECT DISTINCT o_custkey AS id FROM orders "
        f"WHERE o_orderkey IN (SELECT id FROM ways) "
        f"OR o_orderkey * 8 + 1 IN (SELECT id FROM nodes)), "
        f"r1 AS (SELECT id FROM base), "
        f"r2 AS (SELECT id FROM base UNION "
        f"SELECT DISTINCT c_nationkey + {_NAT_OFF} FROM customer "
        f"WHERE c_custkey IN (SELECT id FROM r1) UNION "
        f"SELECT DISTINCT n_regionkey + {_REG_OFF} FROM nation "
        f"WHERE n_nationkey + {_NAT_OFF} IN (SELECT id FROM r1)), "
        f"r3 AS (SELECT id FROM base UNION "
        f"SELECT DISTINCT c_nationkey + {_NAT_OFF} FROM customer "
        f"WHERE c_custkey IN (SELECT id FROM r2) UNION "
        f"SELECT DISTINCT n_regionkey + {_REG_OFF} FROM nation "
        f"WHERE n_nationkey + {_NAT_OFF} IN (SELECT id FROM r2)), "
        f"r4 AS (SELECT id FROM base UNION "
        f"SELECT DISTINCT c_nationkey + {_NAT_OFF} FROM customer "
        f"WHERE c_custkey IN (SELECT id FROM r3) UNION "
        f"SELECT DISTINCT n_regionkey + {_REG_OFF} FROM nation "
        f"WHERE n_nationkey + {_NAT_OFF} IN (SELECT id FROM r3)), "
        f"r5 AS (SELECT id FROM base UNION "
        f"SELECT DISTINCT c_nationkey + {_NAT_OFF} FROM customer "
        f"WHERE c_custkey IN (SELECT id FROM r4) UNION "
        f"SELECT DISTINCT n_regionkey + {_REG_OFF} FROM nation "
        f"WHERE n_nationkey + {_NAT_OFF} IN (SELECT id FROM r4)) "
        f"SELECT 'node' AS kind, id FROM nodes UNION ALL "
        f"SELECT 'way', id FROM ways UNION ALL "
        f"SELECT 'rel', id FROM r5"
    )


# --------------------------------------------------------------------------
# J9: multi-file k-way change merge (change/changefiles.go:156-230)
# --------------------------------------------------------------------------


def q_change_merge(sf_dir: str):
    """Three change 'files' sliced from the events table (file k =
    events with event_id % 3 == k; entity = user, seq = event id),
    collapsed by the REAL update.merge_change_files: later file wins
    per entity, later seq within a file."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .update import merge_change_files

    ev = pq.read_table(f"{sf_dir}/events.parquet",
                       columns=["event_id", "user_id", "event_type",
                                "value"])
    base = pa.table({
        "entity_id": ev.column("user_id").cast(pa.int64()),
        "changetype": ev.column("event_type"),
        "value": ev.column("value"),
        "seq": ev.column("event_id").cast(pa.int64()),
    })
    k_of = ev.column("event_id").to_numpy().astype(np.int64) % 3
    files = [base.filter(pa.array(k_of == k)) for k in range(3)]
    return merge_change_files(files, seq=None)


SQL_CHANGE_MERGE = (
    "SELECT user_id AS entity_id, event_type AS changetype, value, "
    "event_id AS seq FROM (SELECT *, row_number() OVER ("
    "PARTITION BY user_id ORDER BY event_id % 3 DESC, event_id DESC"
    ") AS rn FROM events) WHERE rn = 1"
)


# --------------------------------------------------------------------------
# T6: serving store filter (utils/packeddatastore.go:228-463)
# --------------------------------------------------------------------------

_T6_BBOX = (-900_000_000, -800_000_000, 900_000_000, 800_000_000)


def q_serve_filter(sf_dir: str):
    """Full write->serve round trip: tile the part-derived entities with
    the REAL tile_entities write path into a scratch dir, open it with
    the REAL TileServer, and run PackedDataStore.Filter (bbox prune ->
    exact containment -> project -> sort)."""
    import shutil
    import tempfile

    from ..stages.serve import TileServer
    from .queries import derived_entities
    from .tile import tile_entities

    ents = derived_entities(sf_dir, table="part", key_col="p_partkey")

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            ["entity_id" if c == "p_partkey" else c for c in b.column_names])

    out = tempfile.mkdtemp(prefix="oqtr_serve_", dir="/tmp")
    try:
        tile_entities(ents.map_batches(rename, batch_format="pyarrow"),
                      out, target=2000, minimum=50, resume=False)
        srv = TileServer(out, cache_tiles=64)
        return srv.filter(bbox=_T6_BBOX,
                          columns=["entity_id", "lon", "lat"],
                          sort_by="entity_id")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def sql_serve_filter() -> str:
    lon, lat = derive.sql_lonlat_expr("p_partkey")
    minx, miny, maxx, maxy = _T6_BBOX
    return (
        f"SELECT p_partkey AS entity_id, {lon} AS lon, {lat} AS lat "
        f"FROM part WHERE {lon} BETWEEN {minx} AND {maxx} "
        f"AND {lat} BETWEEN {miny} AND {maxy} ORDER BY entity_id"
    )


# --------------------------------------------------------------------------
# S4 bookkeeping: per-document content digest (round-5 directive #8)
# --------------------------------------------------------------------------


def q_text_digest(sf_dir: str):
    """Buffer-sliced sha256 over the documents corpus (the byte-identity
    carrier, stages/extract.py); DuckDB's sha256() is the oracle."""
    import ray

    from ..stages.extract import text_digest

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def digest(b: pa.Table) -> pa.Table:
        out = text_digest(pa.table({"url": b.column("doc_id"),
                                    "text": b.column("text")}))
        return pa.table({"doc_id": out.column("url"),
                         "text_sha256": out.column("text_sha256")})

    return ds.map_batches(digest, batch_format="pyarrow")


SQL_TEXT_DIGEST = (
    "SELECT doc_id, sha256(text) AS text_sha256 FROM documents"
)


QUERIES = {
    "parent_tags": q_parent_tags,
    "rel_range": q_rel_range,
    "rel_qt_rounds": q_rel_qt_rounds,
    "complete_ways": q_complete_ways,
    "change_merge_kway": q_change_merge,
    "serve_filter": q_serve_filter,
    "text_digest": q_text_digest,
}

ORACLES = {
    "parent_tags": sql_parent_tags,
    "rel_range": SQL_REL_RANGE,
    "rel_qt_rounds": sql_rel_qt_rounds,
    "complete_ways": sql_complete_ways(),
    "change_merge_kway": SQL_CHANGE_MERGE,
    "serve_filter": sql_serve_filter(),
    "text_digest": SQL_TEXT_DIGEST,
}
