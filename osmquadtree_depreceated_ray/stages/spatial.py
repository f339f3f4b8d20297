"""Stateful spatial-join stages: point-in-polygon, kNN, raster lookup.

These are the actor-pool stages the north_rule mandates: state (polygon
index / query matrix / raster grid) is built ONCE per actor from a
``ray.put`` broadcast ref (zero-copy plasma read) and reused across
batches — never re-shipped per batch.

* :class:`PolygonIndex` — prepared admin polygons with per-ring arrays,
  bboxes and a quadtree-cell-prefix bucket map (the 'groupby-on-cell-
  prefix' candidate pruning: a point only tests polygons bucketed in its
  level-L tile).  Exact test = even-odd pnpoly on the outer ring minus
  holes (reference M5/M11: /root/reference/quadtree/bbox.go:158-194,
  /root/reference/filter/poly.go).
* :class:`PIPActor` — map_batches actor emitting (point, poly) join rows.
* :class:`KnnActor` — brute-force top-k per broadcast query point per
  batch (candidate rows; a small groupby finishes the global top-k).
* :class:`RasterLookupActor` — samples a z-level raster grid at each
  point via the qt <-> slippy-tuple mapping (reference M2,
  quadtree.go:181-203): tile = qt_round(qt, z).tuple, pixel = the 4
  deeper qt levels (16x16 grid).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import geom
from ..functions.quadtree import calculate, qt_from_tuple, qt_round, qt_tuple

PIP_BUCKET_LEVEL = 4


class PolygonIndex:
    """Driver-built, broadcastable polygon index."""

    def __init__(self, poly_ids, rings_per_poly, admin_levels=None,
                 bucket_level: int = PIP_BUCKET_LEVEL):
        self.poly_ids = np.asarray(poly_ids, dtype=np.int64)
        self.rings = []  # list of list[(lon array, lat array)], ring 0 = outer
        self.bboxes = np.zeros((len(poly_ids), 4), dtype=np.int64)
        self.admin_levels = (
            np.asarray(admin_levels, dtype=np.int64)
            if admin_levels is not None
            else np.zeros(len(poly_ids), dtype=np.int64)
        )
        for i, rings in enumerate(rings_per_poly):
            prep = []
            for ring in rings:
                lon = np.asarray([p[0] for p in ring], dtype=np.int64)
                lat = np.asarray([p[1] for p in ring], dtype=np.int64)
                prep.append((lon, lat))
            self.rings.append(prep)
            out_lon, out_lat = prep[0]
            self.bboxes[i] = (out_lon.min(), out_lat.min(), out_lon.max(), out_lat.max())

        # cell-prefix buckets: each polygon registered in every level-L
        # tile its bbox spans (tile ids via the same qt math as points)
        self.bucket_level = bucket_level
        self.buckets: dict[int, np.ndarray] = self._bucket_map(
            self.bboxes, bucket_level)

    @staticmethod
    def _bucket_map(bboxes: np.ndarray, level: int) -> dict[int, np.ndarray]:
        """level-``level`` tile -> ascending indices of the polygons whose
        bbox x/y tile range covers it, from the tile tuples of every
        bbox's two corners (one vectorised ``calculate`` per corner)."""
        if len(bboxes) == 0:
            return {}
        minx, miny, maxx, maxy = bboxes.T
        c1 = calculate(minx, miny, minx + 1, miny + 1, 0.0, level)
        c2 = calculate(maxx - 1, maxy - 1, maxx, maxy, 0.0, level)
        x1, y1, _ = qt_tuple(qt_round(c1, level))
        x2, y2, _ = qt_tuple(qt_round(c2, level))
        x0, y0 = np.minimum(x1, x2), np.minimum(y1, y2)
        nx = np.abs(x2 - x1) + 1
        n = nx * (np.abs(y2 - y1) + 1)
        # k-th tile of polygon i's x/y range, for all polygons at once
        poly = np.repeat(np.arange(len(bboxes)), n)
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        tiles = qt_from_tuple(x0[poly] + k % nx[poly], y0[poly] + k // nx[poly],
                              np.full(len(poly), level, dtype=np.int64))
        # stable: each bucket lists its polygons in ascending index order
        order = np.argsort(tiles, kind="stable")
        tiles, poly = tiles[order], poly[order].astype(np.int64)
        starts = np.flatnonzero(np.r_[True, tiles[1:] != tiles[:-1]])
        return dict(zip(tiles[starts].tolist(), np.split(poly, starts[1:])))

    def candidates(self, lon: np.ndarray, lat: np.ndarray):
        """Per-point candidate polygon lists via the bucket map.
        Returns (poly_idx, point_idx) candidate pair arrays."""
        pt_tile = calculate(lon, lat, lon + 1, lat + 1, 0.0, self.bucket_level)
        pt_tile = qt_round(pt_tile, self.bucket_level)
        pairs_p = []
        pairs_i = []
        # group points by tile to hit each bucket once
        order = np.argsort(pt_tile, kind="stable")
        sorted_tiles = pt_tile[order]
        bounds = np.flatnonzero(
            np.concatenate([[True], sorted_tiles[1:] != sorted_tiles[:-1]])
        )
        bounds = np.append(bounds, len(sorted_tiles))
        for b in range(len(bounds) - 1):
            s, e = bounds[b], bounds[b + 1]
            tile = int(sorted_tiles[s])
            polys = self.buckets.get(tile)
            if polys is None:
                continue
            idx = order[s:e]
            pairs_p.append(np.repeat(polys, len(idx)))
            pairs_i.append(np.tile(idx, len(polys)))
        if not pairs_p:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.concatenate(pairs_p), np.concatenate(pairs_i)

    def contains(self, lon: np.ndarray, lat: np.ndarray):
        """Exact PIP join: returns (point_idx, poly_idx) matching pairs."""
        cp, ci = self.candidates(lon, lat)
        if len(cp) == 0:
            return ci, cp
        # bbox filter
        bb = self.bboxes[cp]
        ok = geom.bbox_contains_xy(bb[:, 0], bb[:, 1], bb[:, 2], bb[:, 3],
                                   lon[ci], lat[ci])
        cp, ci = cp[ok], ci[ok]
        out_pt = []
        out_poly = []
        # exact pnpoly per polygon over its candidate points
        for p in np.unique(cp):
            m = cp == p
            pts = ci[m]
            rings = self.rings[p]
            inside = geom.pnpoly(rings[0][0], rings[0][1], lon[pts], lat[pts])
            for hole_lon, hole_lat in rings[1:]:
                inside &= ~geom.pnpoly(hole_lon, hole_lat, lon[pts], lat[pts])
            hit = pts[inside]
            out_pt.append(hit)
            out_poly.append(np.full(len(hit), self.poly_ids[p], dtype=np.int64))
        if not out_pt:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.concatenate(out_pt), np.concatenate(out_poly)

    @classmethod
    def from_table(cls, polys: pa.Table, bucket_level: int = PIP_BUCKET_LEVEL):
        rings_py = polys.column("rings").to_pylist()
        rings = [
            [[(p["lon"], p["lat"]) for p in ring] for ring in poly]
            for poly in rings_py
        ]
        admin = (
            polys.column("admin_level").to_numpy()
            if "admin_level" in polys.column_names
            else None
        )
        return cls(polys.column("poly_id").to_numpy(), rings, admin, bucket_level)


class PIPActor:
    """map_batches actor: emit (row keys, poly_id, admin_level) join rows."""

    def __init__(self, index_ref, key_cols=("entity_id",)):
        import ray

        self.index: PolygonIndex = ray.get(index_ref)
        self.key_cols = list(key_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        pt_idx, poly_id = self.index.contains(lon, lat)
        cols = {}
        for k in self.key_cols:
            cols[k] = batch.column(k).take(pa.array(pt_idx))
        cols["lon"] = pa.array(lon[pt_idx])
        cols["lat"] = pa.array(lat[pt_idx])
        cols["poly_id"] = pa.array(poly_id)
        # admin level of the matched polygon (J5-style tag donation)
        pos = np.searchsorted(self.index.poly_ids, poly_id)
        cols["admin_level"] = pa.array(self.index.admin_levels[pos])
        return pa.table(cols)


class KnnActor:
    """Brute-force kNN candidates: per batch, top-k rows per query point.

    Queries (small side) come from a broadcast ref; distance is squared
    euclidean in 1e-7-deg units (documented, matches the SQL oracle).
    A global ``groupby(query_id).map_groups(top-k)`` finishes the join.
    """

    def __init__(self, queries_ref, k: int = 5, key_col: str = "entity_id"):
        import ray

        q = ray.get(queries_ref)  # dict with query_id, lon, lat arrays
        self.q_id = np.asarray(q["query_id"], dtype=np.int64)
        self.q_lon = np.asarray(q["lon"], dtype=np.float64)
        self.q_lat = np.asarray(q["lat"], dtype=np.float64)
        self.k = k
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy().astype(np.float64)
        lat = batch.column("lat").to_numpy().astype(np.float64)
        keys = batch.column(self.key_col).to_numpy()
        # (Q, N) squared distances
        d2 = (self.q_lon[:, None] - lon[None, :]) ** 2 + (
            self.q_lat[:, None] - lat[None, :]
        ) ** 2
        k = min(self.k, d2.shape[1])
        if k == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    self.key_col: pa.array([], pa.int64()),
                    "dist2": pa.array([], pa.float64()),
                }
            )
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows_q = np.repeat(self.q_id, k)
        cand = part.ravel()
        dist = d2[np.repeat(np.arange(len(self.q_id)), k), cand]
        return pa.table(
            {
                "query_id": pa.array(rows_q),
                self.key_col: pa.array(keys[cand]),
                "dist2": pa.array(dist),
            }
        )


class RasterLookupActor:
    """Sample a broadcast z-level raster at each point.

    grid_ref -> dict(z, values) where values is an (2^z * 2^z, 256)
    float32 array indexed by x * 2^z + y; the pixel inside the tile is
    the 4-levels-deeper qt cell (16x16), reference M2 tuple mapping.
    """

    def __init__(self, grid_ref):
        import ray

        g = ray.get(grid_ref)
        self.z = int(g["z"])
        self.values = g["values"]  # zero-copy plasma-backed ndarray

    def __call__(self, batch: pa.Table) -> pa.Table:
        qt = batch.column("qt").to_numpy()
        zx, zy, _ = qt_tuple(qt_round(qt, self.z))
        px, py, _ = qt_tuple(qt_round(qt, self.z + 4))
        cell = (px - zx * 16) * 16 + (py - zy * 16)
        tile = zx * (1 << self.z) + zy
        ok = (zx >= 0) & (zy >= 0) & (cell >= 0) & (cell < 256)
        val = np.zeros(len(qt), dtype=np.float32)
        val[ok] = self.values[tile[ok], cell[ok]]
        out = batch.append_column("raster_value", pa.array(val))
        return out


# Per-worker-process state cache for TASK-based stateful stages.  Ray
# worker processes persist across tasks, so a module-level cache gives
# once-per-worker init (like an actor pool) with elastic task
# scheduling and no pool spin-up.  Keyed by the broadcast ref so
# several indexes can coexist in one process.
_WORKER_STATE: dict = {}


def _cache_put(key, inst):
    """Bounded insert: ONE live instance per stage-name prefix.  A
    repeated query broadcasts a fresh ObjectRef, so keying by ref alone
    would accrete an instance per invocation in every long-lived worker
    (and pin the captured plasma objects); evicting the prefix's old
    entry releases both."""
    stale = [k for k in _WORKER_STATE
             if isinstance(k, tuple) and k and k[0] == key[0] and k != key]
    for k in stale:
        _WORKER_STATE.pop(k, None)
    _WORKER_STATE[key] = inst


def worker_cached(key, factory):
    """Generic task-based stateful stage: ``map_batches(worker_cached(
    key, lambda: SomeActor(ref)))`` gives once-per-worker-process init
    (the actor-pool semantics) with zero pool spin-up and elastic task
    scheduling — shared by every stateful query stage so short query
    workloads never pay ~2 s of actor-pool startup.  ``key`` must be a
    tuple whose first element names the stage (the cache keeps one
    instance per stage name)."""

    def fn(batch: pa.Table) -> pa.Table:
        inst = _WORKER_STATE.get(key)
        if inst is None:
            inst = factory()
            _cache_put(key, inst)
        return inst(batch)

    return fn


def pip_map_fn(index_ref, key_cols=("entity_id",)):
    """Task-based PIP stage: map_batches(pip_map_fn(ref, cols)).

    Prefer this over the PIPActor pool when the stage is short-lived
    (query workloads): same once-per-worker index load, zero pool
    startup, elastic width."""
    key = ("pip", index_ref.hex(), tuple(key_cols))

    def fn(batch: pa.Table) -> pa.Table:
        actor = _WORKER_STATE.get(key)
        if actor is None:
            actor = PIPActor(index_ref, key_cols)
            _cache_put(key, actor)
        return actor(batch)

    return fn
