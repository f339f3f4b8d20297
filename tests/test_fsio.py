"""Sink contract over non-POSIX filesystems (fsspec routing).

Pins the two-level commit protocol of ``state/fsio.py``:

* per-file commit works on a backend WITHOUT atomic rename
  (fsspec ``memory://``, the object-store stand-in — direct PUT), and
  on local paths (tmp + rename, no ``.tmp`` residue);
* dataset visibility is gated by the manifest: part files written
  before a crash are invisible to ``completed_tiles`` until
  ``write_manifest`` commits, and stale parts are retired on rerun.

The memory filesystem is per-process, so the exchange's task bodies
(``_split_impl`` / ``_write_range_impl``) are driven in-process here;
the full Ray path is exercised with a ``file://`` scheme.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osmquadtree_depreceated_ray.state import fsio, manifest
from osmquadtree_depreceated_ray.stages.write_tiles import (
    _split_impl, _write_range_impl, _writer_ranges, write_tiled)


@pytest.fixture
def memfs():
    import fsspec

    fs = fsspec.filesystem("memory")
    fs.store.clear()
    yield fs
    fs.store.clear()


def _demo_table():
    tiles = np.repeat(np.array([10, 20, 30], dtype=np.int64), [40, 30, 30])
    return pa.table({"tile": tiles, "v": np.arange(100, dtype=np.int64)})


def test_exchange_on_memory_fs(memfs):
    """Split + range-write + manifest against memory:// end-to-end."""
    t = _demo_table()
    tiles = np.array([10, 20, 30], dtype=np.int64)
    counts = np.array([40, 30, 30], dtype=np.int64)
    wid = _writer_ranges(tiles, counts, 2)
    n_writers = int(wid.max()) + 1
    pieces = [_split_impl(tiles, wid, n_writers, None, b)
              for b in (t.slice(0, 55), t.slice(55))]
    out = "memory://sink/data"
    rows = sum(
        _write_range_impl(w, out, None, None,
                          *[pieces[b][w] for b in range(len(pieces))])
        for w in range(n_writers))
    assert rows == 100

    # parts exist on the memory fs, not on local disk
    for tl, c in zip(tiles, counts):
        d = f"/sink/data/tile={tl}"
        names = fsio.list_basenames(memfs, d)
        assert len([n for n in names if n.endswith(".parquet")]) == 1
        with memfs.open(fsio.join(d, names[0]), "rb") as f:
            assert pq.read_table(f).num_rows == c
    # no tmp residue anywhere
    assert not [p for p in memfs.find("/sink") if ".tmp" in p]

    # manifest-gated visibility: invisible before commit, visible after
    root = "memory://sink"
    assert len(manifest.completed_tiles(root)) == 0
    manifest.write_manifest(root, tiles, counts, {"sequence": 0})
    assert manifest.completed_tiles(root).tolist() == tiles.tolist()
    assert manifest.read_state(root) == {"sequence": 0}
    m = manifest.read_manifest(root)
    assert m.column("count").to_pylist() == counts.tolist()


def test_stale_parts_invisible_and_retired(memfs):
    """A crashed run's parts are invisible (no manifest) and retired by
    the next successful writer for the same tile."""
    t = _demo_table()
    tiles = np.array([10, 20, 30], dtype=np.int64)
    counts = np.array([40, 30, 30], dtype=np.int64)
    out = "memory://sink2/data"
    # "crashed" 3-writer run: parts land, manifest never written
    wid3 = _writer_ranges(tiles, counts, 3)
    n3 = int(wid3.max()) + 1
    p3 = _split_impl(tiles, wid3, n3, None, t)
    for w in range(n3):
        _write_range_impl(w, out, None, None, p3[w])
    assert len(manifest.completed_tiles("memory://sink2")) == 0

    # fresh single-writer run retires the stale layout
    wid1 = _writer_ranges(tiles, counts, 1)
    (p1,) = _split_impl(tiles, wid1, 1, None, t)
    _write_range_impl(0, out, None, None, p1)
    for tl, c in zip(tiles, counts):
        d = f"/sink2/data/tile={tl}"
        names = [n for n in fsio.list_basenames(memfs, d)
                 if n.endswith(".parquet")]
        assert names == ["part-0.parquet"]
    manifest.write_manifest("memory://sink2", tiles, counts)
    assert manifest.completed_tiles("memory://sink2").tolist() == tiles.tolist()


def test_lineage_buckets_on_memory_fs(memfs):
    """Bucketed lineage store round-trips through a scheme-qualified path."""
    t = pa.table({"tile": np.array([10, 10, 20], dtype=np.int64),
                  "v": np.arange(3, dtype=np.int64),
                  "entity_id": np.array([1, 17, 2], dtype=np.int64)})
    tiles = np.array([10, 20], dtype=np.int64)
    wid = _writer_ranges(tiles, np.array([2, 1], dtype=np.int64), 1)
    (piece,) = _split_impl(tiles, wid, 1, None, t)
    root = "memory://sink3"
    _write_range_impl(0, manifest.data_dir(root), manifest.lineage_dir(root),
                      None, piece)
    # ids 1 and 17 share bucket 1 (mod 16); id 2 is bucket 2
    got = manifest.read_lineage_buckets(root, [1])
    assert sorted(got.column("entity_id").to_pylist()) == [1, 17]
    assert manifest.read_lineage_buckets(root, [2]) \
        .column("entity_id").to_pylist() == [2]
    # consolidation replaces writer parts
    manifest.write_lineage_bucket(root, 1, got)
    bd = "/sink3/lineage/bucket=1"
    assert [n for n in fsio.list_basenames(memfs, bd)
            if n.endswith(".parquet")] == ["consolidated.parquet"]


def test_write_tiled_file_scheme(ray_session, tmp_path):
    """The full Ray exchange accepts a scheme-qualified local URL."""
    import ray

    t = _demo_table()
    tiles = np.array([10, 20, 30], dtype=np.int64)
    counts = np.array([40, 30, 30], dtype=np.int64)
    out_local = tmp_path / "schemed"
    n = write_tiled(ray.data.from_arrow(t).repartition(3),
                    f"file://{out_local}", tiles, counts, n_writers=2)
    assert n == 100
    # visible at the plain local path, atomic path left no tmp files
    for tl, c in zip(tiles, counts):
        d = out_local / f"tile={tl}"
        assert pq.read_table(str(d)).num_rows == c
        assert not [f for f in d.iterdir() if f.name.endswith(".tmp")]


def test_commit_parquet_local_atomic(tmp_path):
    """Local commit goes through tmp+rename and leaves no residue."""
    fs, root = fsio.get_fs(str(tmp_path))
    assert fsio.supports_atomic_rename(fs)
    dest = fsio.join(root, "x.parquet")
    fsio.commit_parquet(pa.table({"a": [1, 2]}), fs, dest)
    assert pq.read_table(dest).num_rows == 2
    assert [p.name for p in tmp_path.iterdir()] == ["x.parquet"]


def test_ordered_read_on_memory_fs(memfs):
    """The ordered readers are scheme-routed like the sink: a tiled
    layout committed to memory:// lists and reads back in qt order
    (driver-side — the memory backend is per-process)."""
    from osmquadtree_depreceated_ray.pipelines.tile import (
        _ordered_tiles_and_paths, _read_tile_impl)

    t = _demo_table()
    tiles = np.array([10, 20, 30], dtype=np.int64)
    counts = np.array([40, 30, 30], dtype=np.int64)
    wid = _writer_ranges(tiles, counts, 2)
    n_writers = int(wid.max()) + 1
    pieces = [_split_impl(tiles, wid, n_writers, None, b)
              for b in (t.slice(0, 55), t.slice(55))]
    out = "memory://osink"
    data = "memory://osink/data"
    for w in range(n_writers):
        _write_range_impl(w, data, None, None,
                          *[pieces[b][w] for b in range(len(pieces))])
    manifest.write_manifest(out, tiles, counts)

    per = _ordered_tiles_and_paths(out)
    assert [t_ for t_, _f in per] == [10, 20, 30]
    got_rows = 0
    for t_, files in per:
        assert all(f.startswith("memory://") for f in files)
        tab = _read_tile_impl(files, None)
        got_rows += tab.num_rows
    assert got_rows == 100


def test_update_compact_lifecycle_memory(memfs, ray_session):
    """Directive: the FULL sink lifecycle on a non-rename backend —
    tiled base write -> change-batch apply -> per-tile compaction ->
    retirement — every file operation fs-routed, driven in-process
    (the memory backend is per-process; the Ray-task path runs in
    test_full_lifecycle_file_scheme on a shared backend)."""
    import pandas as pd

    from osmquadtree_depreceated_ray.functions.quadtree import (
        calculate_point,
    )
    from osmquadtree_depreceated_ray.pipelines import update as up

    root = "memory://lc"
    data = manifest.data_dir(root)
    eid = np.arange(1, 7, dtype=np.int64)
    lon = (eid * 100_000_000 - 400_000_000).astype(np.int64)
    lat = (eid * 50_000_000 - 200_000_000).astype(np.int64)
    qt = calculate_point(lon, lat, 0.05, 18)
    base = pa.table({
        "tile": np.zeros(6, np.int64), "entity_id": eid,
        "lon": lon, "lat": lat, "qt": qt,
    })
    tiles = np.array([0], dtype=np.int64)
    wid = _writer_ranges(tiles, np.array([6], np.int64), 1)
    (piece,) = _split_impl(tiles, wid, 1, None, base)
    _write_range_impl(0, data, manifest.lineage_dir(root), None, piece)
    manifest.write_manifest(root, tiles, np.array([6], np.int64),
                            state={"seq": 0})

    changes = pa.table({
        "entity_id": np.array([2, 3, 7], np.int64),
        "change": np.array([up.CH_MODIFY, up.CH_DELETE, up.CH_CREATE],
                           np.int8),
        "lon": np.array([123_000_000, 0, -456_000_000], np.int64),
        "lat": np.array([45_000_000, 0, -10_000_000], np.int64),
        "seq": np.array([1, 1, 1], np.int64),
    })
    res = up.apply_change_batch(root, changes, 1)
    assert res["records"] == 3 and res["missing_deletes"] == 0
    # change file committed on the memory backend, no tmp residue
    assert up._resolved_changes(root) is not None
    cfs, croot = fsio.get_fs(up._changes_dir(root))
    names = fsio.list_basenames(cfs, croot)
    assert names == ["change_000001.parquet"]
    assert not [p for p in memfs.find("/lc") if ".tmp" in p]
    # lineage reflects the delete/create
    lin = manifest.read_lineage(root).to_pandas()
    assert 3 not in set(lin["entity_id"])
    assert 7 in set(lin["entity_id"])

    # per-tile compaction (the compact_tiles body, driven in-process)
    ids, rows, tiles = up._resolved_changes(root)
    assert ids.tolist() == [2, 3, 7] and tiles.tolist() == [0]
    for t in tiles:
        up._compact_tile(data, int(t), ids, rows)
    # compacted tile replaces the base parts entirely
    tdir = "/lc/data/tile=0"
    assert [n for n in fsio.list_basenames(memfs, tdir)
            if n.endswith(".parquet")] == ["part-compacted.parquet"]
    with memfs.open(tdir + "/part-compacted.parquet", "rb") as f:
        got = pq.read_table(f).to_pandas().set_index("entity_id").sort_index()
    assert got.index.tolist() == [1, 2, 4, 5, 6, 7]
    assert int(got.loc[2, "lon"]) == 123_000_000
    assert int(got.loc[7, "lat"]) == -10_000_000
    # untouched entities keep their base payload
    assert got.loc[[1, 4, 5, 6], "lon"].tolist() == lon[[0, 3, 4, 5]].tolist()
    assert got.loc[[1, 4, 5, 6], "lat"].tolist() == lat[[0, 3, 4, 5]].tolist()
    # retirement protocol (compact()'s tail) on the same backend
    for f in fsio.list_basenames(cfs, croot):
        cfs.rm(fsio.join(croot, f))
    assert up._resolved_changes(root) is None


def test_full_lifecycle_file_scheme(ray_session, tmp_path):
    """tiled write -> update overlay -> compact -> read_snapshot over a
    scheme-qualified URL, through the REAL Ray operators (file:// is
    shared across worker processes, unlike memory://)."""
    import ray

    from osmquadtree_depreceated_ray.functions.quadtree import (
        calculate_point,
    )
    from osmquadtree_depreceated_ray.pipelines import update as up
    from osmquadtree_depreceated_ray.pipelines.tile import tile_entities

    rng = np.random.default_rng(7)
    n = 3000
    eid = np.arange(1, n + 1, dtype=np.int64)
    lon = rng.integers(-1_700_000_000, 1_700_000_000, n).astype(np.int64)
    lat = rng.integers(-800_000_000, 800_000_000, n).astype(np.int64)
    qt = calculate_point(lon, lat, 0.05, 18)
    ents = ray.data.from_arrow(pa.table({
        "entity_id": eid, "lon": lon, "lat": lat, "qt": qt}))
    out = f"file://{tmp_path}/lcy"
    stats = tile_entities(ents, out, target=500, minimum=20, resume=False)
    assert stats["total"] == n

    changes = pa.table({
        "entity_id": np.array([10, 20, n + 1], np.int64),
        "change": np.array([up.CH_MODIFY, up.CH_DELETE, up.CH_CREATE],
                           np.int8),
        "lon": np.array([900_000_000, 0, -900_000_000], np.int64),
        "lat": np.array([300_000_000, 0, -300_000_000], np.int64),
        "seq": np.array([1, 1, 1], np.int64),
    })
    up.apply_change_batch(out, changes, 1)
    before = (up.read_snapshot(out).to_pandas()
              .set_index("entity_id").sort_index())
    assert len(before) == n  # -1 delete +1 create
    assert 20 not in before.index and (n + 1) in before.index
    assert int(before.loc[10, "lon"]) == 900_000_000

    res = up.compact(out)
    assert res["rewritten_tiles"] > 0 and res["retired_files"] == 1
    after = (up.read_snapshot(out).to_pandas()
             .set_index("entity_id").sort_index())
    assert (after.index == before.index).all()
    for c in ("lon", "lat", "qt"):
        assert (after[c].to_numpy() == before[c].to_numpy()).all()
