"""Seeded input generators for the layered benchmark.

Kept apart from the program's own ``sources/fixtures.py`` on purpose: a
change to the program can never change what the benchmark feeds it, and
the generator's tables double as the expected answers (the mentions it
embeds are exactly the entities the tiler must find).

Coordinates are int64 units of 1e-7 degree, as everywhere in the
program.  Every function is a pure function of its arguments and seed.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import lb_spec as spec

MAX_LON = 1_800_000_000
MAX_LAT = 900_000_000

# (lon, lat) in 1e-7 deg and the share of hot mentions each one draws:
# skewed on purpose, so the max-per-tile split rule has dense cells to
# split and sparse ones to merge
HOT_CENTRES = np.array([
    (-1_246_000, 515_007_000),       # London
    (-739_857_000, 407_484_000),     # New York
    (1_396_917_000, 356_895_000),    # Tokyo
    (-466_333_000, -235_505_000),    # Sao Paulo
    (33_792_000, 65_244_000),        # Lagos
    (1_512_093_000, -338_688_000),   # Sydney
], dtype=np.int64)
HOT_WEIGHTS = np.array([0.40, 0.25, 0.15, 0.10, 0.05, 0.05])
HOT_SHARE = 0.35
HOT_SIGMA_DEG = 0.15

LANGS = np.array(["en", "de", "fr", "es", "ja"])
LANG_P = np.array([0.55, 0.15, 0.12, 0.10, 0.08])
KINDS = np.array(["poi", "city", "peak"])


def _coords(n: int, rng: np.random.Generator):
    lon = rng.integers(-MAX_LON + 1, MAX_LON, size=n)
    lat = rng.integers(-MAX_LAT + 1, MAX_LAT, size=n)
    hot = rng.random(n) < HOT_SHARE
    k = int(hot.sum())
    which = rng.choice(len(HOT_CENTRES), size=k, p=HOT_WEIGHTS)
    jit = (rng.normal(0.0, HOT_SIGMA_DEG, size=(k, 2)) * 1e7).astype(np.int64)
    lon[hot] = np.clip(HOT_CENTRES[which, 0] + jit[:, 0], -MAX_LON + 1, MAX_LON - 1)
    lat[hot] = np.clip(HOT_CENTRES[which, 1] + jit[:, 1], -MAX_LAT + 1, MAX_LAT - 1)
    return lon, lat


def fmt_deg(v: np.ndarray) -> np.ndarray:
    """int 1e-7 deg -> exact 7-decimal text, by integer arithmetic only
    (no float round trip can shift the last digit)."""
    v = np.asarray(v, dtype=np.int64)
    a = np.abs(v)
    whole = (a // 10_000_000).astype("U10")
    frac = np.char.zfill((a % 10_000_000).astype("U7"), 7)
    sign = np.where(v < 0, "-", "")
    return np.char.add(np.char.add(sign, whole), np.char.add(".", frac))


def gen_pages(n_pages: int, seed: int):
    """Web pages in the program's F1 input shape plus the mention table.

    Each page is an html document carrying 0-5 sentences
    ``Visited POI_<id> (lat=<deg>, lon=<deg>).`` inside tags; mention
    coordinates follow the skewed hot-centre mixture above.

    Returns ``(pages, mentions)``: ``pages`` has the columns the tiler
    reads (url, warc_ts, html, lang); ``mentions`` is the expected
    entity set (entity_id, url, lon, lat).
    """
    rng = np.random.default_rng([seed, 1])
    i = np.arange(n_pages, dtype=np.int64)
    url = np.char.add(np.char.add("https://s", (i % 331).astype("U4")),
                      np.char.add(".example/p/", i.astype("U10")))
    lang = rng.choice(LANGS, size=n_pages, p=LANG_P)
    n_ent = rng.integers(0, 6, size=n_pages)
    total = int(n_ent.sum())
    page_of = np.repeat(i, n_ent)
    eid = np.arange(total, dtype=np.int64)
    lon, lat = _coords(total, rng)
    sentence = np.char.add(
        np.char.add(np.char.add("<p>Visited POI_", eid.astype("U10")),
                    np.char.add(" (lat=", fmt_deg(lat))),
        np.char.add(np.char.add(", lon=", fmt_deg(lon)), ").</p>"))
    body = pd.Series(sentence).groupby(page_of).agg("".join)
    head = np.char.add(np.char.add("<html><head><title>Page ", i.astype("U10")),
                       np.char.add("</title></head><body><h1>Report ", lang))
    text = pd.Series(np.char.add(head, "</h1>"), index=i, dtype="object")
    text.loc[body.index] = text.loc[body.index] + body
    html = [(t + "</body></html>").encode() for t in text.to_numpy()]
    ts = np.datetime64("2025-03-01T00:00:00", "us") + i * np.timedelta64(7_000_000, "us")
    pages = pa.table({
        "url": pa.array(url.tolist(), pa.string()),
        "warc_ts": pa.array(ts),
        "html": pa.array(html, pa.binary()),
        "lang": pa.array(lang.tolist(), pa.string()),
    })
    mentions = pd.DataFrame({"entity_id": eid, "url": url[page_of],
                             "lon": lon, "lat": lat})
    return pages, mentions


def gen_bboxes(n: int, seed: int) -> list[tuple[int, int, int, int]]:
    """Read boxes: half around hot centres (dense tiles), half anywhere
    (sparse, multi-tile), one of them the whole world."""
    rng = np.random.default_rng([seed, 2])
    out = [(-MAX_LON, -MAX_LAT, MAX_LON, MAX_LAT)]
    for k in range(1, n):
        if k % 2:
            cx, cy = HOT_CENTRES[k % len(HOT_CENTRES)]
            half = int(rng.uniform(0.05, 0.4) * 1e7)
        else:
            cx = int(rng.integers(-1_600_000_000, 1_600_000_000))
            cy = int(rng.integers(-700_000_000, 700_000_000))
            half = int(rng.uniform(5.0, 30.0) * 1e7)
        out.append((int(max(cx - half, -MAX_LON)), int(max(cy - half, -MAX_LAT)),
                    int(min(cx + half, MAX_LON)), int(min(cy + half, MAX_LAT))))
    return out


def _ring(cx, cy, radii_deg, phase):
    k = len(radii_deg)
    ang = phase + np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    lon = np.clip(cx + np.cos(ang) * radii_deg * 1e7, -MAX_LON, MAX_LON).astype(np.int64)
    lat = np.clip(cy + np.sin(ang) * radii_deg * 0.7e7, -MAX_LAT, MAX_LAT).astype(np.int64)
    return np.append(lon, lon[0]), np.append(lat, lat[0])


def gen_polygons(n: int, seed: int):
    """Admin-style polygon set: 30% centred near hot centres (overlapping
    levels, like nested admin areas), 70% scattered; 50% convex, 35%
    star (concave), 15% convex with a hole.  Rings are closed.

    Returns the table in the program's admin-polygon shape (poly_id,
    rings list<list<struct<lon,lat>>>, admin_level, name), outer ring
    first.
    """
    rng = np.random.default_rng([seed, 3])
    rows = []
    for pid in range(n):
        if rng.random() < 0.3:
            c = HOT_CENTRES[rng.integers(len(HOT_CENTRES))]
            cx = int(c[0] + rng.normal(0, 0.3) * 1e7)
            cy = int(c[1] + rng.normal(0, 0.3) * 1e7)
            r = float(rng.uniform(0.05, 0.6))
        else:
            cx = int(rng.integers(-1_750_000_000, 1_750_000_000))
            cy = int(rng.integers(-800_000_000, 800_000_000))
            r = float(rng.uniform(0.5, 4.0))
        k = int(rng.integers(8, 25))
        phase = float(rng.uniform(0, 2 * np.pi))
        style = rng.random()
        if 0.5 <= style < 0.85:
            radii = np.where(np.arange(k) % 2 == 0, r, r * 0.4)
        else:
            radii = np.full(k, r)
        rings = [_ring(cx, cy, radii, phase)]
        if style >= 0.85:
            rings.append(_ring(cx, cy, np.full(6, r * 0.35), phase + 0.3))
        rows.append([[{"lon": int(a), "lat": int(b)} for a, b in zip(lo, la)]
                     for lo, la in rings])
    ring_t = pa.list_(pa.list_(pa.struct([("lon", pa.int64()), ("lat", pa.int64())])))
    table = pa.table({
        "poly_id": pa.array(np.arange(n, dtype=np.int64)),
        "rings": pa.array(rows, ring_t),
        "admin_level": pa.array(rng.integers(2, 11, size=n).astype(np.int32)),
        "name": pa.array([f"AREA_{p}" for p in range(n)], pa.string()),
    })
    return table


CH_DELETE, CH_MODIFY, CH_CREATE = 1, 4, 5


def gen_diffs(base: pd.DataFrame, n_batches: int, frac: float, seed: int) -> pd.DataFrame:
    """Diff batches over a live entity set (entity_id, lon, lat).

    Per batch, ``frac`` of the live entities change, each at most once:
    30% deletes, 25% same-tile modifies (a jitter of a few 1e-7 deg),
    25% cross-tile moves (a fresh location) and 20% creates with new
    ids.  Later batches draw from the set left by earlier ones, so
    created entities get modified and deleted too.

    Returns one table with columns seq, change, entity_id, lon, lat.
    """
    rng = np.random.default_rng([seed, 4])
    live = dict(zip(base["entity_id"].tolist(),
                    zip(base["lon"].tolist(), base["lat"].tolist())))
    next_id = int(base["entity_id"].max()) + 1 if len(base) else 0
    out = []
    for seq in range(1, n_batches + 1):
        ids = np.fromiter(live.keys(), np.int64, len(live))
        m = max(4, int(len(ids) * frac))
        picks = rng.choice(ids, size=m, replace=False)
        kinds = rng.random(m)
        new_lon, new_lat = _coords(m, rng)
        jit = rng.integers(-40, 41, size=(m, 2))
        for e, r, nlo, nla, (jx, jy) in zip(picks.tolist(), kinds, new_lon, new_lat, jit):
            if r < 0.30:
                out.append((seq, CH_DELETE, e, 0, 0))
                del live[e]
            elif r < 0.55:
                lo, la = live[e]
                lo = int(np.clip(lo + jx, -MAX_LON + 1, MAX_LON - 1))
                la = int(np.clip(la + jy, -MAX_LAT + 1, MAX_LAT - 1))
                out.append((seq, CH_MODIFY, e, lo, la))
                live[e] = (lo, la)
            elif r < 0.80:
                out.append((seq, CH_MODIFY, e, int(nlo), int(nla)))
                live[e] = (int(nlo), int(nla))
            else:
                out.append((seq, CH_CREATE, next_id, int(nlo), int(nla)))
                live[next_id] = (int(nlo), int(nla))
                next_id += 1
    return pd.DataFrame(out, columns=["seq", "change", "entity_id", "lon", "lat"]).astype(
        {"seq": np.int64, "change": np.int8, "entity_id": np.int64,
         "lon": np.int64, "lat": np.int64})


def gen_sql_tables(n_pages: int, n_entities: int, n_tiles: int, seed: int) -> dict:
    """The three tables the SQL workload queries: page metadata, entities
    and a tile dimension.  ``n_entities`` must exceed the program's
    50,000-value semi-join collect threshold for the large-side IN
    query to take the bucketed path."""
    rng = np.random.default_rng([seed, 5])
    pid = np.arange(n_pages, dtype=np.int64)
    pages = pd.DataFrame({
        "page_id": pid,
        "site": rng.integers(0, 400, size=n_pages).astype(np.int64),
        "lang": rng.choice(LANGS, size=n_pages, p=LANG_P),
        "words": rng.integers(50, 5000, size=n_pages).astype(np.int64),
    })
    lon, lat = _coords(n_entities, rng)
    ents = pd.DataFrame({
        "entity_id": np.arange(n_entities, dtype=np.int64) * 3 + 7,
        "src_page": rng.integers(0, n_pages, size=n_entities).astype(np.int64),
        "lon": lon, "lat": lat,
        "kind": rng.choice(KINDS, size=n_entities, p=[0.6, 0.3, 0.1]),
    })
    # a coarse grid cell as the tile key: 16 x 16 over the world
    tx = ((lon + MAX_LON) * 16 // (2 * MAX_LON)).clip(0, 15)
    ty = ((lat + MAX_LAT) * 16 // (2 * MAX_LAT)).clip(0, 15)
    ents["tile_id"] = (tx * 16 + ty) % n_tiles
    tiles = pd.DataFrame({
        "tile_id": np.arange(n_tiles, dtype=np.int64),
        "zone": np.array([f"Z{t % 12:02d}" for t in range(n_tiles)]),
        "weight": rng.integers(1, 100, size=n_tiles).astype(np.int64),
    })
    return {"pages": pages, "entities": ents, "tiles": tiles}


def write_inputs(workload: str, seed: int, out: str) -> None:
    """Write one workload's inputs as parquet/json under ``out``."""
    os.makedirs(out, exist_ok=True)

    def put(name, table):
        if isinstance(table, pd.DataFrame):
            table = pa.Table.from_pandas(table, preserve_index=False)
        pq.write_table(table, os.path.join(out, f"{name}.parquet"))

    if workload == "warm":
        pages, mentions = gen_pages(spec.WARM_PAGES, seed)
        put("pages", pages)
        put("mentions", mentions)
        put("diffs", gen_diffs(mentions, 2, 0.02, seed))
        put("polys", gen_polygons(spec.N_POLYS_FEW, seed))
        for name, df in gen_sql_tables(2_000, 6_000, spec.SQL_TILES, seed).items():
            put(f"sql_{name}", df)
        return
    # every workload carries the pip_join polygon set: the traced run's
    # kernel.pip_contains_many measures against it
    put("polys", gen_polygons(spec.N_POLYS, seed))
    if workload == "sql_mix":
        for name, df in gen_sql_tables(spec.SQL_PAGES, spec.SQL_ENTITIES,
                                       spec.SQL_TILES, seed).items():
            put(name, df)
        return
    n_pages = {"tile_build": spec.TILE_PAGES, "pip_join": spec.PIP_PAGES,
               "update_cycle": spec.UPD_PAGES}[workload]
    pages, mentions = gen_pages(n_pages, seed)
    put("pages", pages)
    put("mentions", mentions)
    if workload == "tile_build":
        with open(os.path.join(out, "bboxes.json"), "w") as f:
            json.dump(gen_bboxes(spec.N_BBOX, seed), f)
    elif workload == "update_cycle":
        put("diffs", gen_diffs(mentions, spec.UPD_BATCHES, spec.UPD_FRAC, seed))
