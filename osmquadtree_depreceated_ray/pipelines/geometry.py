"""Geometry-construction pipeline (reference P3, SURVEY §3):

    entities(nodes) + way_segments + rel_members
      -> J2  coord join (way refs x node coords, bucketed hash join)
      -> A2  way bbox agg -> way qt (buffer 0.05, level 18)
      -> A3  node qt = Common(parent way qts) else point qt
      -> J4  parent-way tag donation to nodes (parent_highway)
      -> J5  relation-range tag donation to ways (min/max_admin_level)
      -> M6-M8 tag filter, polygon decision, z_order, shoelace area
      -> J6  multipolygon assembly (merge_rings/group_rings/finishRel
             with osm2pgsql tag absorption)
      -> A4  relation qt = Common over members + 5 propagation rounds
      -> re-calc qt from geometry bbox (buffer 0.025, geometry.go:311-317)
      -> features parquet (wkb, geom_type, z_order, area, bbox, qt)
         + optional newline-GeoJSON

Ray-Data shape — every join is a bucketed hash shuffle over keyed rows
(stages/shuffle.py), so each stage holds only its bucket:

* J2/J5 + M6-M8: cogroup(vertex rows, way-tag rows, admin-donation
  rows) keyed by way_id -> per-bucket assembly into way-geometry rows
* A3/J4: cogroup(node rows, parent-way fan-out rows) keyed by entity_id
  -> per-bucket Common-qt fold + parent-highway reduction
* J6: way-geometry fan-out to parent relations keyed by rel_id ->
  per-bucket finishRel; tag-absorption marks flow back to ways through
  one more bucketed join
* only RELATION METADATA (tags + ordered member lists) and the
  way->parent-relations index are broadcast via ray.put (the small side;
  the geometries themselves always stream through shuffles), and the A4
  relation-qt propagation runs on the driver over one row per relation.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import geom as G
from ..functions import tags_rings as TR
from ..functions import wkb as WKB
from ..functions.quadtree import calculate, calculate_point, qt_common, qt_round
from ..stages.exchange import remote
from ..stages.shuffle import bucketed_apply

GEOM_POINT = 1
GEOM_LINESTRING = 2
GEOM_POLYGON = 3
GEOM_MULTI = 6

_TAG_COLS = ("highway", "area", "layer", "bridge", "tunnel")


def _node_tags_row(kind: str, name: str, entity_id: int) -> dict:
    tags = {"name": name}
    if kind == "poi":
        tags["amenity"] = "poi"
    elif kind == "city":
        tags["place"] = "city"
    else:
        tags["natural"] = "peak"
    if entity_id % 11 == 0:
        tags["highway"] = "crossing"  # exercises the J4 parent join
    return tags


def build_way_vertices(entities_ds, refs_ds):
    """J2 phase 1: (entity_id, way_id, pos) x (entity_id, lon, lat) ->
    vertex rows, via one bucketed cogroup on entity_id."""

    def join_coords(refs: pd.DataFrame, nodes: pd.DataFrame) -> pd.DataFrame:
        m = refs.merge(nodes, on="entity_id", how="inner")
        return m[["way_id", "pos", "entity_id", "lon", "lat"]]

    return bucketed_apply(
        (refs_ds.select_columns(["entity_id", "way_id", "pos"]),
         entities_ds.select_columns(["entity_id", "lon", "lat"])),
        ["entity_id"], join_coords)


def _typed_map(ds, fn, empty: pa.Table):
    """``ds.map_batches(fn)`` over a materialized ``ds``; without rows,
    one block ``fn(empty)``.  Ray hands a zero-row block on without
    calling ``fn`` and without columns, and a cogroup input needs its
    columns."""
    import ray

    if ds.count():
        return ds.map_batches(fn, batch_format="pyarrow")
    return ray.data.from_arrow(fn(empty))


_WAY_GEOM_SCHEMA = pa.schema([
    ("way_id", pa.int64()), ("geom_type", pa.int64()),
    ("refs", pa.list_(pa.int64())), ("lons", pa.list_(pa.int64())),
    ("lats", pa.list_(pa.int64())), ("tags", pa.string()),
    ("z_order", pa.int64()), ("area", pa.float64()), ("qt", pa.int64()),
])


def _way_assembly_fn(style):
    """Per-bucket way assembly: vertex, tag and admin-donation frames
    (all keyed way_id) -> way geometry rows (M6-M8 + A2).

    Vectorized: group boundaries via numpy on the (way_id, pos)-sorted
    vertex arrays, bbox via ``reduceat``, ONE batched ``calculate`` over
    every way, Arrow list columns built directly from offsets (no
    per-way 1-element array calls, no Python list cells).  Only the
    per-way TAG logic (dict ops + the polygon decision) remains a loop —
    it is inherently per-feature (makegeometries.go:139-189)."""

    def assemble(verts: pd.DataFrame, tr: pd.DataFrame,
                 ar: pd.DataFrame) -> pa.Table:
        verts = verts.sort_values(["way_id", "pos"])
        n = len(verts)
        if n == 0:
            return _WAY_GEOM_SCHEMA.empty_table()
        wid_arr = verts["way_id"].to_numpy(np.int64)
        lon = verts["lon"].to_numpy(np.int64)
        lat = verts["lat"].to_numpy(np.int64)
        refs = verts["entity_id"].to_numpy(np.int64)
        change = np.flatnonzero(wid_arr[1:] != wid_arr[:-1])
        starts = np.concatenate([[0], change + 1])
        ends = np.append(starts[1:], n)
        ways = wid_arr[starts]
        qt = calculate(
            np.minimum.reduceat(lon, starts), np.minimum.reduceat(lat, starts),
            np.maximum.reduceat(lon, starts), np.maximum.reduceat(lat, starts),
            0.05, 18,
        )
        closed = (ends - starts >= 3) & (refs[starts] == refs[ends - 1])

        tags_map = dict(zip(tr["way_id"].to_numpy(np.int64),
                            tr["tags_json"].tolist()))
        admin_map = (ar.groupby("way_id")["a_val"].agg(list).to_dict()
                     if len(ar) else {})

        nw = len(ways)
        gtypes = np.full(nw, GEOM_LINESTRING, np.int64)
        areas = np.zeros(nw)
        zos = np.zeros(nw, np.int64)
        tags_out = []
        for i in range(nw):
            w = int(ways[i])
            raw = tags_map.get(w)
            tags = json.loads(raw) if isinstance(raw, str) and raw else {}
            if w in admin_map:  # J5 donation
                admin_levels(tags, [str(v) for v in admin_map[w]])
            zo, isp = TR.way_tags(tags, style)
            zos[i] = zo
            if isp and closed[i]:
                gtypes[i] = GEOM_POLYGON
                s, e = starts[i], ends[i]
                try:
                    areas[i] = G.polygon_area([(lon[s:e], lat[s:e])])
                except ValueError:
                    areas[i] = 0.0
            tags_out.append(json.dumps(tags, sort_keys=True))

        offsets = pa.array(np.append(starts, n).astype(np.int32))
        return pa.table({
            "way_id": pa.array(ways),
            "geom_type": pa.array(gtypes),
            "refs": pa.ListArray.from_arrays(offsets, pa.array(refs)),
            "lons": pa.ListArray.from_arrays(offsets, pa.array(lon)),
            "lats": pa.ListArray.from_arrays(offsets, pa.array(lat)),
            "tags": pa.array(tags_out, pa.string()),
            "z_order": pa.array(zos),
            "area": pa.array(areas),
            "qt": pa.array(qt.astype(np.int64)),
        })

    return assemble


def admin_levels(tags: dict, values: list[str]) -> bool:
    """AdminLevels (relationrange.go:27-43)."""
    nums = []
    for s in values:
        try:
            nums.append(int(s))
        except ValueError:
            pass
    if not nums:
        return False
    tags["min_admin_level"] = str(min(nums))
    tags["max_admin_level"] = str(max(nums))
    return True


def route_list(tags: dict, key: str, values: list[str]) -> bool:
    """RouteList.Proc (relationrange.go:50-69)."""
    if not values:
        return False
    tags[key] = ";".join(sorted(set(values)))
    return True


def member_qt_parts(wq: pd.DataFrame, idx: pd.DataFrame) -> pd.DataFrame:
    """A4 per bucket: way qts (way_id, qt) x way->relation index
    (way_id, rel_id) -> per-relation (rel_id, qmin, qmax) partials for
    :func:`relation_qt_fold`."""
    m = idx.merge(wq, on="way_id", how="inner")
    return m.groupby("rel_id", as_index=False).agg(
        qmin=("qt", "min"), qmax=("qt", "max"))


def relation_qt_fold(rel_ids, rel_qt_parts: pd.DataFrame,
                     rel_rel_edges: list[tuple[int, int]],
                     rounds: int = 5) -> dict[int, int]:
    """A4: fold per-bucket (rel_id, qmin, qmax) partials into one common
    qt per relation, then run the fixed propagation rounds over the
    rel->rel membership edges (resortwaynodes.go:767-824).

    A rel's ways may span way-id buckets, so the partials are re-folded
    (min of qmins, max of qmaxs) before ONE common(min, max) per rel —
    valid because the deepest common ancestor of a qt SET equals
    common(min, max) in pre-order.  Driver state is O(relations).
    Each round walks the edge list in its given order; -1 acts as the
    common() identity and maps to 0 at the end (as the reference does).
    """
    rel_qt: dict[int, int] = {int(r): -1 for r in rel_ids}
    if len(rel_qt_parts):
        fold = rel_qt_parts.groupby("rel_id").agg(
            qmin=("qmin", "min"), qmax=("qmax", "max"))
        commons = qt_common(fold["qmin"].to_numpy(), fold["qmax"].to_numpy())
        for rid, c in zip(fold.index, commons):
            rel_qt[int(rid)] = int(c)
    # scalar common() for the sequential edge walk: the per-edge
    # 1-element-ndarray qt_common call cost ~7 us/edge — at 100k+
    # edges x 5 rounds (rel_qt_rounds at sf0.1) that was ~4 s of
    # driver time; plain-int bit ops run the same walk in ~0.3 s.
    # Equality with the vectorized kernel is pinned by
    # tests/test_geomjoin_queries.py.
    for _ in range(rounds):
        for k, v in rel_rel_edges:
            if v in rel_qt:
                a = rel_qt[k]
                b = rel_qt[v]
                if a == -1:
                    rel_qt[k] = b
                elif b != -1:
                    d = min(a & 31, b & 31)
                    x = (a & ~31) ^ (b & ~31)
                    lvl = min(d, (63 - x.bit_length()) // 2)
                    sh = 63 - 2 * lvl
                    rel_qt[k] = ((a >> sh) << sh) + lvl
    return {k: (0 if v == -1 else v) for k, v in rel_qt.items()}


def _node_join_fn(style, point_qt_buffer=0.05):
    """Per-bucket A3/J4: node frame (entity_id, lon, lat, kind, name) +
    parent-way fan-out frame (entity_id, p_qt, p_depth, p_hw), keyed
    entity_id -> node feature rows."""

    def join(nodes: pd.DataFrame, parents: pd.DataFrame) -> pa.Table:
        n = len(nodes)
        if n == 0:
            return pa.table({
                "node_id": pa.array([], pa.int64()),
                "lon": pa.array([], pa.int64()),
                "lat": pa.array([], pa.int64()),
                "tags": pa.array([], pa.string()),
                "qt": pa.array([], pa.int64()),
                "feature": pa.array([], pa.bool_()),
            })
        e = nodes["entity_id"].to_numpy(np.int64)
        lon = nodes["lon"].to_numpy(np.int64)
        lat = nodes["lat"].to_numpy(np.int64)
        if len(parents):
            pq = parents.groupby("entity_id").agg(
                qmin=("p_qt", "min"), qmax=("p_qt", "max"),
                dep=("p_depth", "min"))
            hw_lists = (
                parents[parents["p_hw"].notna() & (parents["p_hw"] != "")]
                .groupby("entity_id")["p_hw"].agg(list).to_dict()
            )
            has_p = np.isin(e, pq.index.to_numpy())
        else:
            pq, hw_lists = None, {}
            has_p = np.zeros(n, bool)
        # A3: Common over parent way qts == round(common(min,max), min
        # depth) on the qt pre-order — batched over every matched node
        # (int64 throughout: qt ids must never round-trip through float)
        q = np.empty(n, np.int64)
        if has_p.any():
            sub = pq.loc[e[has_p]]
            c = qt_common(sub["qmin"].to_numpy(np.int64),
                          sub["qmax"].to_numpy(np.int64))
            lvl = np.minimum(c & 31, sub["dep"].to_numpy(np.int64))
            q[has_p] = qt_round(c, lvl)
        if not has_p.all():
            m = ~has_p
            q[m] = calculate_point(lon[m], lat[m], point_qt_buffer, 18)

        # per-node TAG logic (dict ops) stays a loop; the numeric work
        # above is fully batched
        kinds = nodes["kind"].tolist()
        names = nodes["name"].tolist()
        tags_out, feat_out = [], []
        for i in range(n):
            ei = int(e[i])
            tags = _node_tags_row(kinds[i], names[i], ei)
            if "highway" in tags:  # J4 parent value reduction
                hw = G.find_parent_highway(hw_lists.get(ei, []))
                if hw:
                    tags["parent_highway"] = hw
            feat_out.append(bool(TR.node_tags(tags, style)))
            tags_out.append(json.dumps(tags, sort_keys=True))
        return pa.table({
            "node_id": pa.array(e), "lon": pa.array(lon),
            "lat": pa.array(lat), "tags": pa.array(tags_out, pa.string()),
            "qt": pa.array(q), "feature": pa.array(feat_out, pa.bool_()),
        })

    return join


def _feature_row(fid, orig, gtype, tags, zo, area, lons_all, lats_all, wkb):
    minx, miny = int(np.min(lons_all)), int(np.min(lats_all))
    maxx, maxy = int(np.max(lons_all)), int(np.max(lats_all))
    q = int(calculate(np.asarray([minx]), np.asarray([miny]),
                      np.asarray([maxx]), np.asarray([maxy]), 0.025, 18)[0])
    return {
        "feature_id": int(fid), "orig_type": int(orig), "geom_type": int(gtype),
        "tags": json.dumps(tags, sort_keys=True) if isinstance(tags, dict) else tags,
        "z_order": int(zo), "area": float(area), "qt": q,
        "minx": minx, "miny": miny, "maxx": maxx, "maxy": maxy, "wkb": wkb,
    }


_FEATURE_SCHEMA = pa.schema(
    [
        ("feature_id", pa.int64()), ("orig_type", pa.int8()),
        ("geom_type", pa.int8()), ("tags", pa.string()),
        ("z_order", pa.int64()), ("area", pa.float64()), ("qt", pa.int64()),
        ("minx", pa.int64()), ("miny", pa.int64()),
        ("maxx", pa.int64()), ("maxy", pa.int64()), ("wkb", pa.binary()),
    ]
)


def _rows_to_table(rows: list[dict]) -> pa.Table:
    if not rows:
        return _FEATURE_SCHEMA.empty_table()
    return pa.Table.from_pylist(rows, schema=_FEATURE_SCHEMA)


def _way_cols_bulk(b: pa.Table):
    """Bulk-extract the way-geometry columns once per batch (single C
    calls instead of per-row ``.as_py()``)."""
    return {
        "way_id": b.column("way_id").to_numpy(),
        "geom_type": b.column("geom_type").to_numpy(),
        "tags": b.column("tags").to_pylist(),
        "z_order": b.column("z_order").to_numpy(),
        "area": b.column("area").to_numpy(),
        "lons": b.column("lons").to_pylist(),
        "lats": b.column("lats").to_pylist(),
    }


def _way_feature_batch(b: pa.Table, held: np.ndarray, style) -> pa.Table:
    """Free-standing way geometries -> feature rows (skips rel-held ways)."""
    c = _way_cols_bulk(b)
    wid = c["way_id"]
    pos = np.clip(np.searchsorted(held, wid), 0, max(len(held) - 1, 0))
    is_held = (len(held) > 0) & (held[pos] == wid) if len(held) else \
        np.zeros(len(wid), bool)
    rows = []
    for i in np.flatnonzero(~is_held):
        tags_s = c["tags"][i]
        if not TR.is_feature(json.loads(tags_s), style):
            continue
        lons = np.asarray(c["lons"][i], np.int64)
        lats = np.asarray(c["lats"][i], np.int64)
        gtype = int(c["geom_type"][i])
        wkb = (WKB.polygon_wkb([(lons, lats)]) if gtype == GEOM_POLYGON
               else WKB.linestring_wkb(lons, lats))
        rows.append(_feature_row(int(wid[i]), 1, gtype, tags_s,
                                 int(c["z_order"][i]), float(c["area"][i]),
                                 lons, lats, wkb))
    return _rows_to_table(rows)


def build_geometries(fixture_dir: str, out_dir: str,
                     style: dict | None = None,
                     feature_target: int = 2000,
                     feature_minimum: int = 50) -> dict:
    import pyarrow.parquet as pq
    import ray

    style = style or TR.DEFAULT_STYLE
    os.makedirs(out_dir, exist_ok=True)

    entities_ds = ray.data.read_parquet(
        os.path.join(fixture_dir, "geo_entities.parquet")
    )
    ways_table = pq.read_table(os.path.join(fixture_dir, "way_segments.parquet"))
    rels_table = pq.read_table(os.path.join(fixture_dir, "rel_members.parquet"))

    # --- row sources --------------------------------------------------------
    wid = ways_table.column("way_id").to_numpy()
    refs = ways_table.column("refs").to_pylist()
    refs_rows = [
        (int(r), int(w), p)
        for w, rr in zip(wid, refs)
        for p, r in enumerate(rr)
    ]
    refs_ds = ray.data.from_pandas(
        pd.DataFrame(refs_rows, columns=["entity_id", "way_id", "pos"])
    )

    tag_data = {c: ways_table.column(c).to_pylist() for c in _TAG_COLS}
    way_tag_rows = pd.DataFrame(
        {
            "way_id": wid,
            "tags_json": [
                json.dumps(
                    {c: tag_data[c][i] for c in _TAG_COLS if tag_data[c][i] is not None},
                    sort_keys=True,
                )
                for i in range(len(wid))
            ],
        }
    )
    rel_df = rels_table.to_pandas()
    adm = rel_df[
        (rel_df["rel_type"] == "boundary") & (rel_df["member_type"] == 1)
        & rel_df["admin_level"].notna()
    ]
    admin_rows = pd.DataFrame(
        {"way_id": adm["member_ref"].astype("int64"),
         "a_val": adm["admin_level"].astype(str)}
    )

    # --- J2 + M6-M8: way geometries (two bucketed shuffles) ----------------
    verts = build_way_vertices(entities_ds, refs_ds)
    way_geoms = bucketed_apply(
        (verts, ray.data.from_pandas(way_tag_rows),
         ray.data.from_pandas(admin_rows)),
        ["way_id"], _way_assembly_fn(style)).materialize()

    # --- A3 + J4: nodes (bucketed join on entity_id) ------------------------
    def parent_fanout(b: pa.Table) -> pa.Table:
        """Explode way refs to (ref, way_qt, depth, highway) rows via the
        Arrow list offsets — vectorized, no per-row .as_py()."""
        if not b.num_rows:
            return pa.table(
                {"entity_id": pa.array([], pa.int64()),
                 "p_qt": pa.array([], pa.int64()),
                 "p_depth": pa.array([], pa.int64()),
                 "p_hw": pa.array([], pa.string())})
        refs_col = b.column("refs").combine_chunks()
        if isinstance(refs_col, pa.ChunkedArray):
            refs_col = refs_col.chunk(0)
        flat = refs_col.flatten().to_numpy().astype(np.int64)
        counts = pa.compute.list_value_length(refs_col).to_numpy()
        qts = b.column("qt").to_numpy()
        phw = np.asarray(
            [json.loads(t).get("highway", "") for t in
             b.column("tags").to_pylist()], dtype=object)
        rep = np.repeat(np.arange(b.num_rows), counts)
        return pa.table(
            {"entity_id": pa.array(flat),
             "p_qt": pa.array(qts[rep]),
             "p_depth": pa.array(qts[rep] & 31),
             "p_hw": pa.array(phw[rep], pa.string())}
        )

    no_ways = _WAY_GEOM_SCHEMA.empty_table()
    nodes = entities_ds.select_columns(
        ["entity_id", "lon", "lat", "kind", "name"])
    node_geoms = bucketed_apply(
        (nodes, _typed_map(way_geoms, parent_fanout, no_ways)),
        ["entity_id"], _node_join_fn(style)).materialize()

    # --- J6: relation assembly (bucketed joins, no broadcast state) ---------
    mp = rel_df[
        rel_df["rel_type"].isin(["boundary", "multipolygon"])
        & (rel_df["member_type"] == 1)
    ]
    rel_members: dict[int, list] = {}
    rel_tags_map: dict[int, dict] = {}
    for rid, grp in mp.groupby("rel_id", sort=False):
        rid = int(rid)
        rel_members[rid] = list(zip(
            grp["member_ref"].astype("int64").tolist(), grp["role"].tolist()))
        rtype = grp["rel_type"].iloc[0]
        t = rel_tags_map.setdefault(rid, {"type": rtype})
        if rtype == "boundary":
            t["boundary"] = "administrative"
            lv = grp["admin_level"].dropna()
            if len(lv):
                t["admin_level"] = str(lv.iloc[-1])
    held = np.sort(mp["member_ref"].astype("int64").unique())

    # relation state as ROWS, not broadcast dicts: the way->rel index and
    # per-rel metadata flow through the same bucketed shuffles as the
    # geometry payloads (geometry.go:318-327 keeps these co-streamed too)
    w2r_rows = pd.DataFrame({
        "way_id": mp["member_ref"].astype("int64").to_numpy(),
        "rel_id": mp["rel_id"].astype("int64").to_numpy(),
    })
    meta_rows = pd.DataFrame({
        "rel_id": np.asarray(sorted(rel_members), np.int64),
        "meta_json": [
            json.dumps({"tags": rel_tags_map[r], "members": rel_members[r]})
            for r in sorted(rel_members)
        ],
    })

    def _held_mask(wid: np.ndarray) -> np.ndarray:
        if not len(held):
            return np.zeros(len(wid), bool)
        pos = np.clip(np.searchsorted(held, wid), 0, len(held) - 1)
        return held[pos] == wid

    def way_payloads(b: pa.Table) -> pa.Table:
        """Held ways only -> geometry-column rows (the join side shipped
        into the rel buckets).  The coords travel as Arrow list columns,
        never JSON strings — one vectorized filter, no per-way work."""
        keep = _held_mask(b.column("way_id").to_numpy())
        return b.drop_columns(["qt"]).filter(pa.array(keep))

    held_payloads = _typed_map(way_geoms, way_payloads, no_ways)

    def fan_join(pays: pd.DataFrame, idx: pd.DataFrame) -> pd.DataFrame:
        m = idx.merge(pays, on="way_id", how="inner")
        return m[["rel_id"] + list(pays.columns)]

    # NOTE: a way shared by several relations is fanned out to each; the
    # rel bucket sees its own copy (geometries are immutable rows here)
    rel_stream = bucketed_apply(
        (held_payloads, ray.data.from_pandas(w2r_rows)), ["way_id"],
        fan_join, n_buckets=8)

    def assemble_rels(pays: pd.DataFrame, meta: pd.DataFrame) -> pd.DataFrame:
        metas = meta.set_index("rel_id")["meta_json"]
        out = {"row_kind": [], "rel_id": [], "way_id": [], "removed_key": [],
               "feature": []}
        for rid, grp in pays.groupby("rel_id", sort=False):
            if rid not in metas.index:
                continue
            meta = json.loads(metas.loc[rid])
            ways = {}
            for t in grp.itertuples(index=False):
                w = int(t.way_id)
                ways[w] = TR.WayGeom(
                    way_id=w, geom_type=int(t.geom_type),
                    refs=np.asarray(t.refs, np.int64),
                    lon=np.asarray(t.lons, np.int64),
                    lat=np.asarray(t.lats, np.int64),
                    tags=json.loads(t.tags),
                    z_order=int(t.z_order), area=float(t.area),
                )
            gm, removed = TR.finish_rel(
                int(rid), meta["tags"],
                [(int(w), role) for w, role in meta["members"]],
                ways, style,
            )
            if gm is not None:
                all_lon = np.concatenate([r[1] for gp in gm["groups"] for r in gp])
                all_lat = np.concatenate([r[2] for gp in gm["groups"] for r in gp])
                if gm["geom_type"] == GEOM_POLYGON:
                    wkb = WKB.polygon_wkb([(r[1], r[2]) for r in gm["groups"][0]])
                else:
                    wkb = WKB.multipolygon_wkb(
                        [[(r[1], r[2]) for r in gp] for gp in gm["groups"]]
                    )
                feat = _feature_row(gm["rel_id"], 2, gm["geom_type"], gm["tags"],
                                    gm["z_order"], gm["area"], all_lon, all_lat,
                                    wkb)
                feat["wkb"] = feat["wkb"].hex()
                out["row_kind"].append("rel_geom")
                out["rel_id"].append(int(rid))
                out["way_id"].append(-1)
                out["removed_key"].append(json.dumps(feat))
                out["feature"].append(True)
            for w, ks in removed.items():
                for k in ks:
                    out["row_kind"].append("removed")
                    out["rel_id"].append(int(rid))
                    out["way_id"].append(int(w))
                    out["removed_key"].append(k)
                    out["feature"].append(False)
        return pd.DataFrame(out)

    rel_results = bucketed_apply(
        (rel_stream, ray.data.from_pandas(meta_rows)), ["rel_id"],
        assemble_rels, n_buckets=8).materialize()

    def rel_geom_features(b: pa.Table) -> pa.Table:
        kinds = b.column("row_kind").to_pylist()
        rows = []
        for i, k in enumerate(kinds):
            if k != "rel_geom":
                continue
            fr = json.loads(b.column("removed_key")[i].as_py())
            fr["wkb"] = bytes.fromhex(fr["wkb"])
            rows.append(fr)
        return _rows_to_table(rows)

    def removed_rows(b: pa.Table) -> pa.Table:
        kinds = np.asarray(b.column("row_kind").to_pylist(), dtype=object)
        m = kinds == "removed"
        sub = b.filter(pa.array(m))
        return pa.table({"way_id": sub.column("way_id").cast(pa.int64()),
                         "removed_key": sub.column("removed_key")})

    # released held ways: absorption marks join back by way_id (one more
    # bucketed stage), keep if still a feature
    def released_join(pays: pd.DataFrame, rm: pd.DataFrame) -> pd.DataFrame:
        marks = (rm.groupby("way_id")["removed_key"]
                 .agg(lambda s: set(s)).to_dict())
        rows = []
        for t in pays.itertuples(index=False):
            w = int(t.way_id)
            tags = json.loads(t.tags)
            for k in marks.get(w, ()):
                tags.pop(k, None)  # absorption deletions
            if not TR.is_feature(tags, style):
                continue
            lons = np.asarray(t.lons, np.int64)
            lats = np.asarray(t.lats, np.int64)
            gtype = int(t.geom_type)
            wkb = (WKB.polygon_wkb([(lons, lats)]) if gtype == GEOM_POLYGON
                   else WKB.linestring_wkb(lons, lats))
            fr = _feature_row(w, 1, gtype, json.dumps(tags, sort_keys=True),
                              int(t.z_order), float(t.area),
                              lons, lats, wkb)
            rows.append(fr)
        df = _rows_to_table(rows).to_pandas()
        df["wkb"] = df["wkb"].map(bytes)
        return df

    marks = _typed_map(rel_results, removed_rows, pa.table({
        "row_kind": pa.array([], pa.string()),
        "way_id": pa.array([], pa.int64()),
        "removed_key": pa.array([], pa.string())}))
    released_feats = bucketed_apply((held_payloads, marks), ["way_id"],
                                    released_join, n_buckets=8)

    # --- A4: relation qt — distributed member-qt fold, tiny driver graph ---
    # the deepest common ancestor of a qt SET equals common(min, max) in
    # pre-order (a node's subtree is a contiguous pre-order interval), so
    # the fold is a grouped min/max, not a sequential loop
    w2r_all = rel_df[rel_df["member_type"] == 1]
    w2r_all_rows = pd.DataFrame({
        "way_id": w2r_all["member_ref"].astype("int64").to_numpy(),
        "rel_id": w2r_all["rel_id"].astype("int64").to_numpy(),
    })
    rel_qt_parts = bucketed_apply(
        (way_geoms.select_columns(["way_id", "qt"]),
         ray.data.from_pandas(w2r_all_rows)),
        ["way_id"], member_qt_parts).to_pandas()
    rr_df = rel_df[rel_df["member_type"] == 2]
    rel_rel_edges = list(zip(rr_df["rel_id"].astype("int64").tolist(),
                             rr_df["member_ref"].astype("int64").tolist()))
    rel_qt = relation_qt_fold(rel_df["rel_id"].unique(), rel_qt_parts,
                              rel_rel_edges)

    # --- final features: stream -> count -> split -> tiled write -----------
    def node_features(b: pa.Table) -> pa.Table:
        feat = b.column("feature").to_numpy()
        nid = b.column("node_id").to_numpy()
        lon = b.column("lon").to_numpy()
        lat = b.column("lat").to_numpy()
        tags = b.column("tags").to_pylist()
        rows = [
            _feature_row(int(nid[i]), 0, GEOM_POINT, tags[i], 0, 0.0,
                         np.asarray([lon[i]]), np.asarray([lat[i]]),
                         WKB.point_wkb(int(lon[i]), int(lat[i])))
            for i in np.flatnonzero(feat)
        ]
        return _rows_to_table(rows)

    def to_schema(b: pa.Table) -> pa.Table:
        return b.cast(_FEATURE_SCHEMA) if b.num_rows else \
            _FEATURE_SCHEMA.empty_table()

    feats = (
        node_geoms.map_batches(node_features, batch_format="pyarrow")
        .union(way_geoms.map_batches(
            lambda b: _way_feature_batch(b, held, style), batch_format="pyarrow"))
        .union(released_feats.map_batches(to_schema, batch_format="pyarrow"))
        .union(rel_results.map_batches(rel_geom_features, batch_format="pyarrow"))
    ).map_batches(to_schema, batch_format="pyarrow").materialize()

    # tile-partitioned features output (writefile.go:155-205 /
    # geometry.go:318-327): count -> split-rule -> boundary-aware
    # exchange; the manifest makes the output prunable
    from ..state import manifest as mf
    from ..stages.write_tiles import write_tiled
    from .tile import count_tiles_onepass, split_and_allocate

    qts, counts = count_tiles_onepass(feats, feature_target)
    gq, gt, alloc = split_and_allocate(qts, counts, feature_target,
                                       feature_minimum)
    alloc_ref = ray.put(alloc)
    n_rows = write_tiled(feats, mf.data_dir(out_dir), gq, gt,
                         n_writers=8, alloc_ref=alloc_ref)
    mf.write_manifest(out_dir, gq, gt, state={"kind": "features"})

    ot_counts = {0: 0, 1: 0, 2: 0}
    for b in feats.select_columns(["orig_type"]).iter_batches(
            batch_size=None, batch_format="pyarrow"):
        v, c = np.unique(b.column("orig_type").to_numpy(), return_counts=True)
        for vi, ci in zip(v, c):
            ot_counts[int(vi)] = ot_counts.get(int(vi), 0) + int(ci)
    return {
        "features": int(n_rows),
        "nodes": ot_counts.get(0, 0),
        "ways": ot_counts.get(1, 0),
        "relations": ot_counts.get(2, 0),
        "rel_qt": rel_qt,
        "tiles": int(len(gq)),
        "out": mf.data_dir(out_dir),
    }


def read_features_pruned(out_dir: str, bbox: tuple, columns=None):
    """S3 over the tiled features output: read only tiles whose buffered
    bounds intersect ``bbox = (minx, miny, maxx, maxy)`` (the manifest is
    the partition index), then exact-filter by feature-bbox intersection.
    Returns (dataset | None, pruning stats)."""
    import ray

    from ..state import manifest as mf
    from .spatial_filter import BboxTest

    minx, miny, maxx, maxy = (int(v) for v in bbox)
    man = mf.read_manifest(out_dir)
    tiles = man.column("tile").to_numpy()
    keep = BboxTest(minx, miny, maxx, maxy).intersects_qt(tiles)
    paths = []
    for t in tiles[keep]:
        d = os.path.join(mf.data_dir(out_dir), f"tile={t}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    pruned = {"tiles_total": len(tiles), "tiles_read": int(keep.sum()),
              "files_read": len(paths)}
    if not paths:
        return None, pruned
    ds = ray.data.read_parquet(paths, columns=columns)

    def exact(b: pa.Table) -> pa.Table:
        m = ((b.column("minx").to_numpy() <= maxx)
             & (b.column("maxx").to_numpy() >= minx)
             & (b.column("miny").to_numpy() <= maxy)
             & (b.column("maxy").to_numpy() >= miny))
        return b.filter(pa.array(m))

    return ds.map_batches(exact, batch_format="pyarrow"), pruned


def geojson_lines_batch(b: pa.Table) -> pa.Table:
    """Features batch -> one-column table of newline-GeoJSON lines.
    Column extraction is bulk (one C call per column); the per-feature
    JSON text generation is inherently per-row."""
    gtypes = b.column("geom_type").to_numpy()
    tags_l = b.column("tags").to_pylist()
    fids = b.column("feature_id").to_numpy()
    wkbs = b.column("wkb").to_pylist()
    lines = [
        WKB.feature_geojson(int(gtypes[i]), _wkb_to_coords(wkbs[i]),
                            json.loads(tags_l[i]), int(fids[i]))
        for i in range(b.num_rows)
    ]
    return pa.table({"line": pa.array(lines, pa.string())})


def write_geojson(features_path: str, out_path: str) -> int:
    """S9: features parquet (file or tiled dir) -> one newline-delimited
    GeoJSON file.  Conversion runs distributed (map_batches); the driver
    only streams finished text blocks to disk (geojson.go:29-178 streams
    FeatureCollections the same way)."""
    import glob as _glob

    import ray

    if os.path.isdir(features_path):
        paths = sorted(_glob.glob(
            os.path.join(features_path, "**", "*.parquet"), recursive=True))
    else:
        paths = features_path
    ds = ray.data.read_parquet(
        paths, columns=["feature_id", "geom_type", "tags", "wkb"])
    n = 0
    with open(out_path, "w") as f:
        for b in ds.map_batches(
                geojson_lines_batch, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"):
            lines = b.column("line").to_pylist()
            f.write("\n".join(lines) + ("\n" if lines else ""))
            n += len(lines)
    return n


def _write_geojson_tile_impl(tile_dir: str, dest: str, gzip_out: bool) -> int:
    import gzip as _gz

    import pyarrow.parquet as pq

    from ..state import fsio

    sfs, sroot = fsio.get_fs(tile_dir)
    t = pq.read_table(sroot, filesystem=sfs,
                      columns=["feature_id", "geom_type", "tags", "wkb"])
    lines = geojson_lines_batch(t).column("line").to_pylist()
    data = ("\n".join(lines) + ("\n" if lines else "")).encode()
    if gzip_out:
        # mtime=0 keeps the output byte-deterministic across runs
        data = _gz.compress(data, mtime=0)
    dfs, droot = fsio.get_fs(dest)
    fsio.commit_bytes(data, dfs, droot)
    return len(lines)


def write_geojson_tiled(store_dir: str, dest_dir: str,
                        gzip_out: bool = True) -> dict:
    """S9 at scale: tiled features store -> one (optionally gzipped)
    newline-GeoJSON file per tile, one Ray task per tile (the tile is
    the reference's streaming unit, geojson.go:29-178).  tmp+rename
    makes re-runs resumable per tile."""
    import ray

    from ..state import manifest as mf

    os.makedirs(dest_dir, exist_ok=True)
    data = mf.data_dir(store_dir)
    man = mf.read_manifest(store_dir)
    tiles = [int(t) for t in man.column("tile").to_pylist()
             if os.path.isdir(os.path.join(data, f"tile={int(t)}"))]
    task = remote(_write_geojson_tile_impl)
    suffix = ".geojsonl.gz" if gzip_out else ".geojsonl"
    refs = [
        task.remote(os.path.join(data, f"tile={t}"),
                    os.path.join(dest_dir, f"tile-{t}{suffix}"), gzip_out)
        for t in tiles
    ]
    counts = ray.get(refs)
    return {"features": int(sum(counts)), "tiles": len(tiles)}


def _wkb_to_coords(buf: bytes):
    """Minimal WKB reader for our own emitted geometries (round-trip)."""
    import struct

    def read_ring(off):
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        arr = np.frombuffer(buf, dtype="<f8", count=2 * n, offset=off)
        off += 16 * n
        lon = (arr[0::2] * 1e7).round().astype(np.int64)
        lat = (arr[1::2] * 1e7).round().astype(np.int64)
        return (lon, lat), off

    (kind,) = struct.unpack_from("<I", buf, 1)
    if kind == 1:
        x, y = struct.unpack_from("<dd", buf, 5)
        return int(round(x * 1e7)), int(round(y * 1e7))
    if kind == 2:
        ring, _ = read_ring(5)
        return ring
    if kind == 3:
        (nr,) = struct.unpack_from("<I", buf, 5)
        off = 9
        rings = []
        for _ in range(nr):
            ring, off = read_ring(off)
            rings.append(ring)
        return rings
    # multipolygon
    (np_,) = struct.unpack_from("<I", buf, 5)
    off = 9
    polys = []
    for _ in range(np_):
        (nr,) = struct.unpack_from("<I", buf, off + 5)
        o2 = off + 9
        rings = []
        for _ in range(nr):
            ring, o2 = read_ring(o2)
            rings.append(ring)
        polys.append(rings)
        off = o2
    return polys
