"""Spatial filters + pruned reads + complete-ways closure (reference
M11 / S3 / O9).

* :class:`BboxTest` / :class:`PolyTest` — the LocTest surface
  (/root/reference/filter/filter.go:71-88,190-269, poly.go): point
  containment, buffered-tile containment/intersection (qt.Bounds(0.05),
  matching filter.go:201-215).  Vectorized over arrays.  NOTE: the
  reference's Bbox.Contains compares Miny against other.Minx
  (bbox.go:81, a bug); we use the intended y-y comparison.
* :func:`read_tiles_pruned` — the partial/pruned reader (S3,
  readfile/partial.go:51-95): the manifest is the block index; only
  Hive partitions whose buffered tile bounds intersect the area are
  read, then rows are exactly filtered.
* :func:`complete_ways_closure` — the 2-pass closure semi-join (O9,
  filter.go:282-408): nodes in region -> ways with >=1 node inside ->
  those ways' other nodes -> relations with >=1 member inside (5
  rel->rel rounds), then a filter pass that trims relation member
  lists to retained ids (--clip-incomplete-relations).  Id sets are
  broadcast as sorted int64 arrays for map-side semi-joins.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import geom as G
from ..functions.lookup import sorted_lookup
from ..functions.quadtree import qt_bounds
from ..state import manifest as mf


class BboxTest:
    def __init__(self, minx: int, miny: int, maxx: int, maxy: int):
        self.box = (int(minx), int(miny), int(maxx), int(maxy))

    def contains(self, lon, lat) -> np.ndarray:
        minx, miny, maxx, maxy = self.box
        lon = np.asarray(lon)
        lat = np.asarray(lat)
        return (minx <= lon) & (lon <= maxx) & (miny <= lat) & (lat <= maxy)

    def contains_qt(self, qts) -> np.ndarray:
        bx = qt_bounds(qts, 0.05)
        minx, miny, maxx, maxy = self.box
        return G.bbox_contains(
            np.int64(minx), np.int64(miny), np.int64(maxx), np.int64(maxy),
            bx[0], bx[1], bx[2], bx[3],
        )

    def intersects_qt(self, qts) -> np.ndarray:
        bx = qt_bounds(qts, 0.05)
        minx, miny, maxx, maxy = self.box
        return G.bbox_intersects(
            np.int64(minx), np.int64(miny), np.int64(maxx), np.int64(maxy),
            bx[0], bx[1], bx[2], bx[3],
        )


class PolyTest:
    """Polygon area with optional holes (filter/poly.go .poly semantics):
    point-in-outer minus point-in-any-hole; tile tests go through the
    polygon's bbox first, then corner containment."""

    def __init__(self, outer_lon, outer_lat, holes=()):
        self.outer = (np.asarray(outer_lon, np.int64), np.asarray(outer_lat, np.int64))
        self.holes = [
            (np.asarray(a, np.int64), np.asarray(b, np.int64)) for a, b in holes
        ]
        self.box = (
            int(self.outer[0].min()), int(self.outer[1].min()),
            int(self.outer[0].max()), int(self.outer[1].max()),
        )

    def contains(self, lon, lat) -> np.ndarray:
        lon = np.asarray(lon, np.int64)
        lat = np.asarray(lat, np.int64)
        inside = G.pnpoly(self.outer[0], self.outer[1], lon, lat)
        for hl, ht in self.holes:
            inside &= ~G.pnpoly(hl, ht, lon, lat)
        return inside

    def contains_qt(self, qts) -> np.ndarray:
        bx = qt_bounds(qts, 0.05)
        # all four buffered corners inside (poly.go corner test)
        out = self.contains(bx[0], bx[1])
        out &= self.contains(bx[2], bx[1])
        out &= self.contains(bx[2], bx[3])
        out &= self.contains(bx[0], bx[3])
        return out

    def intersects_qt(self, qts) -> np.ndarray:
        bx = qt_bounds(qts, 0.05)
        minx, miny, maxx, maxy = self.box
        coarse = G.bbox_intersects(
            np.int64(minx), np.int64(miny), np.int64(maxx), np.int64(maxy),
            bx[0], bx[1], bx[2], bx[3],
        )
        # refine: any corner inside, or tile contains a polygon vertex
        corner = (
            self.contains(bx[0], bx[1]) | self.contains(bx[2], bx[1])
            | self.contains(bx[2], bx[3]) | self.contains(bx[0], bx[3])
        )
        vert_in = np.zeros(len(np.atleast_1d(qts)), dtype=bool)
        for i in range(len(vert_in)):
            vert_in[i] = bool(
                G.bbox_contains_xy(bx[0][i], bx[1][i], bx[2][i], bx[3][i],
                                   self.outer[0], self.outer[1]).any()
            )
        return coarse & (corner | vert_in)


def read_tiles_pruned(out_dir: str, loctest, columns=None):
    """S3: read only partitions whose (buffered) tile bounds intersect
    the area — the manifest is the partition index — then exact-filter
    rows by containment."""
    import os

    import ray

    man = mf.read_manifest(out_dir)
    tiles = man.column("tile").to_numpy()
    keep = loctest.intersects_qt(tiles)
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
        m = loctest.contains(b.column("lon").to_numpy(), b.column("lat").to_numpy())
        return b.filter(pa.array(m))

    return ds.map_batches(exact, batch_format="pyarrow"), pruned


def complete_ways_closure(
    entities: pa.Table, ways: pa.Table, rels: pa.Table, loctest
) -> dict:
    """O9: id-closure semi-joins.  Returns dict with sorted id arrays
    (nodes, ways, relations) and the trimmed relation member table."""
    def _isin_sorted(vals: np.ndarray, sorted_ids: np.ndarray) -> np.ndarray:
        return sorted_lookup(sorted_ids, vals)[0]

    eid = entities.column("entity_id").to_numpy()
    lon = entities.column("lon").to_numpy()
    lat = entities.column("lat").to_numpy()
    in_region = loctest.contains(lon, lat)
    node_ids = np.unique(eid[in_region])

    # exploded (way_id, ref) rows via Arrow list offsets — vectorized
    wid = ways.column("way_id").to_numpy()
    refs_col = ways.column("refs").combine_chunks()
    if isinstance(refs_col, pa.ChunkedArray):
        refs_col = refs_col.chunk(0)
    flat = refs_col.flatten().to_numpy().astype(np.int64)
    counts = pa.compute.list_value_length(refs_col).to_numpy()
    way_of = np.repeat(np.arange(len(wid)), counts)
    hit = _isin_sorted(flat, node_ids)
    way_ids = np.unique(wid[np.unique(way_of[hit])])
    # complete ways: pull in the other nodes of kept ways
    kept_way = _isin_sorted(wid[way_of], way_ids)
    node_ids = np.unique(np.concatenate([node_ids, flat[kept_way]]))

    rel_df = rels.to_pandas()
    rid = rel_df["rel_id"].to_numpy().astype(np.int64)
    mt = rel_df["member_type"].to_numpy().astype(np.int64)
    ref = rel_df["member_ref"].to_numpy().astype(np.int64)
    rel_ids = np.zeros(0, np.int64)
    base_hit = ((mt == 0) & _isin_sorted(ref, node_ids)) | \
               ((mt == 1) & _isin_sorted(ref, way_ids))
    for _ in range(5):  # 5 rounds for rel->rel membership (filter.go:282-345)
        m = base_hit | ((mt == 2) & _isin_sorted(ref, rel_ids))
        rel_ids = np.unique(rid[m])

    # filter pass: trim relation members to retained ids
    keep = _isin_sorted(rid, rel_ids) & (
        base_hit | ((mt == 2) & _isin_sorted(ref, rel_ids)))
    trimmed = rel_df[keep]

    return {
        "nodes": node_ids.astype(np.int64),
        "ways": way_ids.astype(np.int64),
        "relations": rel_ids.astype(np.int64),
        "rel_members": pa.Table.from_pandas(trimmed, preserve_index=False),
    }


def filter_entities_ds(entities_ds, id_set: np.ndarray):
    """Map-side semi-join: keep rows whose entity_id is in the broadcast
    sorted id set."""
    from ..stages.shuffle import BroadcastTable

    ids = BroadcastTable(np.asarray(id_set, np.int64), {})

    def semi_join(b: pa.Table) -> pa.Table:
        found, _ = ids.lookup(b.column("entity_id").to_numpy())
        return b.filter(pa.array(found))

    return entities_ds.map_batches(semi_join, batch_format="pyarrow")
