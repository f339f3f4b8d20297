"""Independent references and the workload checks built on them.

Nothing here imports the program.  The references are written from the
method's definitions (SURVEY.md), not from the program's code:

* ``ref_qt`` — the quadtree id of a point: the deepest tile (level <= 18)
  whose box, buffered by 0.05 of its own width on every side, contains
  the point's 1e-7-degree box; y is mercator-warped first.  Where the
  point box straddles a tile edge the side holding more of it wins.
* ``ref_point_in_poly`` — even-odd crossing number on the outer ring,
  minus any hole.
* ``replay_diffs`` — the diff batches applied in order with pandas.

Every ``check_*`` function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

QT_BUFFER = 0.05
QT_MAX_LEVEL = 18


# ---------------------------------------------------------------- quadtree id

def _merc_norm(lat_deg: float) -> float:
    """Latitude in degrees -> mercator y scaled so +-85.05 deg is +-1."""
    return math.log(math.tan(math.pi * (1.0 + lat_deg / 90.0) / 4.0)) / math.pi


def ref_qt(lon: int, lat: int, max_level: int = QT_MAX_LEVEL) -> int:
    """Scalar quadtree id of the point box (lon, lat, lon+1, lat+1)."""
    x0, x1 = lon * 1e-7 / 180.0, (lon + 1) * 1e-7 / 180.0
    try:
        y0, y1 = _merc_norm(lat * 1e-7), _merc_norm((lat + 1) * 1e-7)
    except (ValueError, ZeroDivisionError):
        return 0
    xc, yc = (x0 + x1) / 2, (y0 + y1) / 2
    best = 0
    for level in range(1, max_level + 1):
        n = 1 << level
        w = 2.0 / n
        ix = min(max(int(math.floor((xc + 1.0) / w)), 0), n - 1)
        iy = min(max(int(math.floor((1.0 - yc) / w)), 0), n - 1)
        left, right = -1.0 + ix * w, -1.0 + (ix + 1) * w
        top, bottom = 1.0 - iy * w, 1.0 - (iy + 1) * w
        m = QT_BUFFER * w
        if not (x0 >= left - m and x1 <= right + m and y0 >= bottom - m and y1 <= top + m):
            break
        qt = 0
        for i in range(level):
            bit = level - 1 - i
            pair = ((ix >> bit) & 1) | (((iy >> bit) & 1) << 1)
            qt |= pair << (61 - 2 * i)
        best = qt | level
    return best


def qt_str(qt: int) -> str:
    level = qt & 31
    return "".join("ABCD"[(qt >> (61 - 2 * i)) & 3] for i in range(level))


def qt_ancestor(qt: np.ndarray, level: int) -> np.ndarray:
    """Ancestor-or-self at ``level``; -1 where the qt is shallower."""
    qt = np.asarray(qt, dtype=np.int64)
    sh = np.int64(63 - 2 * level)
    anc = ((qt >> sh) << sh) | np.int64(level) if level else np.zeros_like(qt)
    return np.where((qt & 31) >= level, anc, np.int64(-1))


def deepest_tile(qt: np.ndarray, tiles: np.ndarray) -> np.ndarray:
    """Deepest tile of ``tiles`` that is an ancestor-or-self of each qt
    (-1 where none is)."""
    tiles = np.asarray(tiles, dtype=np.int64)
    best = np.full(len(qt), -1, dtype=np.int64)
    for level in range(QT_MAX_LEVEL + 1):
        anc = qt_ancestor(qt, level)
        hit = (anc >= 0) & np.isin(anc, tiles)
        best = np.where(hit, anc, best)
    return best


# ---------------------------------------------------------- point in polygon

def ref_pnpoly(ring_lon, ring_lat, x: int, y: int) -> bool:
    """Even-odd crossing number of point (x, y) against one closed ring."""
    inside = False
    n = len(ring_lon)
    j = n - 1
    for i in range(n):
        yi, yj = int(ring_lat[i]), int(ring_lat[j])
        if (yi > y) != (yj > y):
            xi, xj = int(ring_lon[i]), int(ring_lon[j])
            if float(x) < float(xj - xi) * float(y - yi) / float(yj - yi) + float(xi):
                inside = not inside
        j = i
    return inside


def ref_point_in_poly(rings, x: int, y: int) -> bool:
    if not ref_pnpoly(rings[0][0], rings[0][1], x, y):
        return False
    return not any(ref_pnpoly(lo, la, x, y) for lo, la in rings[1:])


def rings_from_table(polys) -> list:
    """Polygon rings from an admin-polygon table as numpy (lon, lat)
    pairs, outer ring first."""
    return [[(np.array([p["lon"] for p in ring], dtype=np.int64),
              np.array([p["lat"] for p in ring], dtype=np.int64)) for ring in poly]
            for poly in polys.column("rings").to_pylist()]


def ref_pip_pairs(rings_per_poly, ids, lon, lat) -> set[tuple[int, int]]:
    """(entity_id, poly_id) pairs for the given points against every
    polygon, with a numpy bbox prefilter in front of the scalar test."""
    bb = np.array([(r[0][0].min(), r[0][1].min(), r[0][0].max(), r[0][1].max())
                   for r in rings_per_poly], dtype=np.int64).reshape(-1, 4)
    out = set()
    for e, x, y in zip(np.asarray(ids).tolist(), np.asarray(lon).tolist(),
                       np.asarray(lat).tolist()):
        cand = np.flatnonzero((bb[:, 0] <= x) & (x <= bb[:, 2])
                              & (bb[:, 1] <= y) & (y <= bb[:, 3]))
        for p in cand.tolist():
            if ref_point_in_poly(rings_per_poly[p], x, y):
                out.add((int(e), int(p)))
    return out


# ---------------------------------------------------------------- diff replay

def replay_diffs(base: pd.DataFrame, diffs: pd.DataFrame, upto_seq: int) -> pd.DataFrame:
    """Live (entity_id, lon, lat) after applying batches 1..upto_seq."""
    cur = base.set_index("entity_id")[["lon", "lat"]].copy()
    for seq in range(1, upto_seq + 1):
        b = diffs[diffs["seq"] == seq]
        dels = b.loc[b["change"] == 1, "entity_id"]
        cur = cur.drop(index=dels)
        upd = b[b["change"] != 1].set_index("entity_id")[["lon", "lat"]]
        cur = pd.concat([cur.drop(index=upd.index, errors="ignore"), upd])
    return cur.reset_index().sort_values("entity_id", ignore_index=True)


# --------------------------------------------------------------------- checks

def frame_diff(got: pd.DataFrame, exp: pd.DataFrame, cols, what: str) -> list[str]:
    g = got[cols].astype(np.int64).sort_values(cols, ignore_index=True)
    e = exp[cols].astype(np.int64).sort_values(cols, ignore_index=True)
    if len(g) != len(e):
        return [f"{what}: {len(g)} rows, expected {len(e)}"]
    bad = (g.to_numpy() != e.to_numpy()).any(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{what}: {int(bad.sum())} rows differ, first "
                f"{g.iloc[i].tolist()} vs {e.iloc[i].tolist()}"]
    return []


def check_tiling(rows: pd.DataFrame, manifest: pd.DataFrame, sample_idx,
                 what: str = "store") -> list[str]:
    """Tile/qt properties of (entity_id, lon, lat, qt, tile) rows against
    the store's manifest (tile, count)."""
    errs = []
    tiles = manifest["tile"].to_numpy(np.int64)
    qt = rows["qt"].to_numpy(np.int64)
    tile = rows["tile"].to_numpy(np.int64)
    # a qt with no manifest tile above it falls back to the root tile 0
    # (the allocator rule, qttree.go lastrs); the manifest-total check
    # catches rows written to a tile the manifest does not list
    want = deepest_tile(qt, tiles)
    want[want < 0] = 0
    bad = tile != want
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        errs.append(f"{what}: {int(bad.sum())} rows not in the deepest manifest "
                    f"tile above their qt, e.g. entity {int(rows['entity_id'].iloc[i])} "
                    f"tile {int(tile[i])} expected {int(want[i])}")
    sample = rows.iloc[np.asarray(sample_idx, dtype=np.int64)]
    for e, lo, la, q in zip(sample["entity_id"], sample["lon"], sample["lat"], sample["qt"]):
        r = ref_qt(int(lo), int(la))
        if r != int(q):
            errs.append(f"{what}: entity {int(e)} qt {qt_str(int(q))} != reference {qt_str(r)}")
            break
    return errs


def check_store(store: pd.DataFrame, manifest: pd.DataFrame,
                mentions: pd.DataFrame, sample_idx) -> list[str]:
    """A freshly tiled store: rows equal the generator's mentions, the
    manifest agrees with the rows per tile and in total, and the tile/qt
    properties hold."""
    errs = frame_diff(store, mentions, ["entity_id", "lon", "lat"], "stored entities")
    per_tile = store.groupby("tile").size()
    man = manifest.set_index("tile")["count"]
    if int(man.sum()) != len(store) or int(man.sum()) != len(mentions):
        errs.append(f"manifest total {int(man.sum())}, rows {len(store)}, "
                    f"mentions {len(mentions)}")
    elif not per_tile.sort_index().equals(man[man > 0].sort_index().astype(per_tile.dtype)):
        errs.append("manifest per-tile counts differ from the rows read back")
    return errs + check_tiling(store, manifest, sample_idx)


def bbox_expected(mentions: pd.DataFrame, bbox) -> pd.DataFrame:
    minx, miny, maxx, maxy = bbox
    m = mentions
    return m[(m["lon"] >= minx) & (m["lon"] <= maxx)
             & (m["lat"] >= miny) & (m["lat"] <= maxy)]


def check_bbox(got: pd.DataFrame, mentions: pd.DataFrame, bbox) -> list[str]:
    return frame_diff(got, bbox_expected(mentions, bbox),
                       ["entity_id", "lon", "lat"], f"bbox {bbox}")


def check_pip(pairs: pd.DataFrame, sample_ids, expected: set) -> list[str]:
    """Program pairs restricted to the sampled entities must equal the
    reference pairs for them."""
    sub = pairs[pairs["entity_id"].isin(np.asarray(sample_ids))]
    got = set(zip(sub["entity_id"].astype(np.int64).tolist(),
                  sub["poly_id"].astype(np.int64).tolist()))
    if got == expected:
        return []
    missing, extra = expected - got, got - expected
    return [f"pip pairs: {len(missing)} missing (e.g. {sorted(missing)[:2]}), "
            f"{len(extra)} extra (e.g. {sorted(extra)[:2]})"]


def check_snapshot(snap: pd.DataFrame, expected: pd.DataFrame,
                   manifest: pd.DataFrame, sample_idx, what: str) -> list[str]:
    errs = frame_diff(snap, expected, ["entity_id", "lon", "lat"], what)
    if snap["entity_id"].duplicated().any():
        errs.append(f"{what}: duplicate entity rows")
    if errs:
        return errs
    return check_tiling(snap, manifest, sample_idx, what)


def _norm_cell(v):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return int(f) if f.is_integer() and abs(f) < 2**53 else round(f, 6)
    if v is pd.NA or v is pd.NaT:
        return None
    return str(v)


def sql_rows(df: pd.DataFrame) -> list[tuple]:
    rows = [tuple(_norm_cell(v) for v in r) for r in df.itertuples(index=False, name=None)]
    return sorted(rows, key=repr)


def check_sql(got: pd.DataFrame, expected_rows: list[tuple], name: str) -> list[str]:
    g = sql_rows(got)
    if g == expected_rows:
        return []
    if len(g) != len(expected_rows):
        return [f"sql {name}: {len(g)} rows, expected {len(expected_rows)}"]
    i = next(k for k, (a, b) in enumerate(zip(g, expected_rows)) if a != b)
    return [f"sql {name}: row {i} {g[i]} != {expected_rows[i]}"]
