"""Per-partition manifests + lineage — the LocationsCache/state analogue.

The reference tracks (element -> file/tile) lineage in a persistent
LocationsCache (/root/reference/locationscache/locationscache.go:18-90)
and a per-snapshot state number; readers use the file-header block index
as a partition manifest (/root/reference/write/header.go:21-35).  Here:

* output layout: ``<out>/data/tile=<qt>/*.parquet`` (Hive partitioning
  — the partition dirs ARE the block index, prunable at read time),
* ``manifest.parquet``: one row per tile (tile, count), written LAST —
  the SOLE dataset-level commit point.  A tile listed in the manifest is
  complete, so a rerun skips it (idempotent per-partition writes), and a
  tile NOT listed is invisible no matter what part files exist — which
  is what makes the no-atomic-rename object-store path safe (see
  ``fsio.py``).  ``state.json`` (sequence number, params) is written
  before the manifest.
* ``lineage.parquet``: entity_id -> tile, driving incremental updates
  (J10: only re-read affected tiles).

All paths may carry an fsspec scheme; plain paths are local.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import fsio


def data_dir(out_dir: str) -> str:
    return fsio.join(out_dir, "data")


def write_manifest(out_dir: str, tiles: np.ndarray, counts: np.ndarray,
                   state: dict | None = None) -> None:
    fs, root = fsio.get_fs(out_dir)
    fs.makedirs(root, exist_ok=True)
    # state first, manifest LAST: the manifest is the commit point
    fsio.commit_bytes(json.dumps(state or {}).encode(),
                      fs, fsio.join(root, "state.json"))
    fsio.commit_parquet(
        pa.table({"tile": pa.array(tiles, pa.int64()),
                  "count": pa.array(counts, pa.int64())}),
        fs, fsio.join(root, "manifest.parquet"),
    )


def read_manifest(out_dir: str):
    fs, root = fsio.get_fs(out_dir)
    p = fsio.join(root, "manifest.parquet")
    if not fs.exists(p):
        return None
    with fs.open(p, "rb") as f:
        return pq.read_table(f)


def read_state(out_dir: str) -> dict:
    fs, root = fsio.get_fs(out_dir)
    p = fsio.join(root, "state.json")
    if not fs.exists(p):
        return {}
    with fs.open(p, "rb") as f:
        return json.loads(f.read().decode())


def completed_tiles(out_dir: str) -> np.ndarray:
    """Tiles whose partition is complete (listed in the manifest AND whose
    Hive dir exists)."""
    m = read_manifest(out_dir)
    if m is None:
        return np.zeros(0, dtype=np.int64)
    tiles = m.column("tile").to_numpy()
    fs, root = fsio.get_fs(out_dir)
    dd = fsio.join(root, "data")
    ok = [t for t in tiles if fs.isdir(fsio.join(dd, f"tile={t}"))]
    return np.asarray(ok, dtype=np.int64)


LINEAGE_BUCKETS = 16


def lineage_dir(out_dir: str) -> str:
    return fsio.join(out_dir, "lineage")


def lineage_bucket(entity_id):
    """Bucket assignment for the lineage store (entity_id -> bucket).
    An update batch reads/rewrites ONLY its ids' buckets — the indexed
    LocationsCache analogue (locationscache/pbfindex.go:34-305): state
    touched per increment is O(batch), not O(corpus)."""
    return entity_id % LINEAGE_BUCKETS


def lineage_bucket_dir(out_dir: str, bucket: int) -> str:
    return fsio.join(lineage_dir(out_dir), f"bucket={int(bucket)}")


def write_lineage_bucket(out_dir: str, bucket: int, table: pa.Table) -> None:
    """Replace one lineage bucket with a consolidated file (stale writer
    parts retired after the consolidated commit)."""
    fs, d = fsio.get_fs(lineage_bucket_dir(out_dir, bucket))
    fs.makedirs(d, exist_ok=True)
    final = "consolidated.parquet"
    fsio.commit_parquet(table, fs, fsio.join(d, final))
    fsio.remove_stale(fs, d, final)


def read_lineage_buckets(out_dir: str, buckets) -> pa.Table | None:
    """Read ONLY the given buckets of the lineage store (the per-batch
    update path).  Falls back to filtering the legacy single file."""
    fs, root = fsio.get_fs(out_dir)
    d = fsio.join(root, "lineage")
    tables = []
    for b in buckets:
        bd = fsio.join(d, f"bucket={int(b)}")
        if fs.isdir(bd):
            for fn in sorted(fsio.list_basenames(fs, bd)):
                if fn.endswith(".parquet"):
                    with fs.open(fsio.join(bd, fn), "rb") as f:
                        tables.append(pq.read_table(f))
    if tables:
        return pa.concat_tables(tables, promote_options="default")
    p = fsio.join(root, "lineage.parquet")
    if fs.exists(p):
        with fs.open(p, "rb") as f:
            t = pq.read_table(f)
        bs = np.asarray(sorted(int(b) for b in buckets))
        m = np.isin(lineage_bucket(t.column("entity_id").to_numpy()), bs)
        return t.filter(pa.array(m))
    if fs.isdir(d) and not any(
            name.startswith("bucket=") for name in fsio.list_basenames(fs, d)):
        # legacy flat writer parts: filter the whole dir
        t = pq.read_table(d, filesystem=fs)
        bs = np.asarray(sorted(int(b) for b in buckets))
        m = np.isin(lineage_bucket(t.column("entity_id").to_numpy()), bs)
        return t.filter(pa.array(m))
    return None


def read_lineage(out_dir: str) -> pa.Table | None:
    fs, root = fsio.get_fs(out_dir)
    p = fsio.join(root, "lineage.parquet")
    if fs.exists(p):
        with fs.open(p, "rb") as f:
            return pq.read_table(f)
    d = fsio.join(root, "lineage")
    if fs.isdir(d) and fs.ls(d, detail=False):
        t = pq.read_table(d, filesystem=fs)
        if "bucket" in t.column_names:  # hive partition column
            t = t.drop_columns(["bucket"])
        return t
    return None
