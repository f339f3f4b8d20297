"""Incremental update pipeline (reference update/update.go:343-738 +
change/*.go — SURVEY J7-J10, §2.8 incremental state).

Change batches carry the reference's ChangeType lattice
(/root/reference/elements/elements.go:47-56):
    1 Delete   — object removed
    4 Modify   — payload changed (same tile)
    5 Create   — new object
Cross-tile moves are emitted as the reference does
(update.go:622-690): a ``Remove`` (2) record in the OLD tile plus an
``Unchanged`` (3) record carrying the payload in the NEW tile.

Lineage (entity -> tile, the LocationsCache analogue) determines the
affected tiles; only those partitions need rewriting on compaction.

Overlay (J8/J9): per entity the last record by (seq, change) wins;
codes 3/4/5 keep that record's row, Delete/Remove drop the entity.  Base
rows rank as ``seq = -1`` below every change record (``seq >= 1``), so a
base row survives only for entities with no change record: snapshot and
compaction are one broadcast anti-join of the base against the resolved
change set (:func:`_resolved_changes`, :func:`_overlay`), no exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.qttree import QtAllocator
from ..functions.quadtree import calculate_point
from ..state import fsio
from ..state import manifest as mf

CH_DELETE = 1
CH_REMOVE = 2
CH_UNCHANGED = 3
CH_MODIFY = 4
CH_CREATE = 5

_CORE = ["entity_id", "lon", "lat", "qt"]
_ROW_COLS = _CORE + ["tile"]
_CHANGE_COLS = _ROW_COLS + ["change", "seq"]
_CORE_SCHEMA = pa.schema([(c, pa.int64()) for c in _CORE])


def _changes_dir(out_dir: str) -> str:
    return fsio.join(out_dir, "changes")


def _migrate_legacy_lineage(out_dir: str) -> None:
    """One-time migration of a legacy single-file lineage.parquet into
    the bucketed store (a stale legacy file would shadow bucket state)."""
    fs, root = fsio.get_fs(out_dir)
    legacy = fsio.join(root, "lineage.parquet")
    if not fs.exists(legacy):
        return
    with fs.open(legacy, "rb") as f:
        t = pq.read_table(f)
    eids = t.column("entity_id").to_numpy()
    bks = mf.lineage_bucket(eids)
    for b in np.unique(bks):
        mf.write_lineage_bucket(out_dir, int(b), t.filter(pa.array(bks == b)))
    fs.rm(legacy)


def apply_change_batch(out_dir: str, changes: pa.Table, seq: int) -> dict:
    """Compute per-tile change records for one batch and update lineage.

    Only the affected tiles appear in the change file — the reference's
    partial re-read (S3/J10) becomes partition pruning over these tiles.

    Scale shape: the lineage store is bucketed by entity id
    (state/manifest.py LINEAGE_BUCKETS); a batch reads and rewrites ONLY
    its ids' buckets, so per-increment state IO is O(batch + touched
    buckets), never O(corpus) — the LocationsCache indexed-store
    semantics (locationscache/pbfindex.go:34-305).  The emit logic is a
    vectorized numpy case-when over the lattice, no per-row loop.
    """
    man = mf.read_manifest(out_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {out_dir}")
    alloc = QtAllocator(man.column("tile").to_numpy())
    _migrate_legacy_lineage(out_dir)

    df = changes.to_pandas()
    df = df[df["seq"] == seq]
    # last-wins within the batch (J9 semantics, defensive)
    df = df.drop_duplicates(subset=["entity_id"], keep="last")

    eid = df["entity_id"].to_numpy().astype(np.int64)
    code = df["change"].to_numpy()
    lon = df["lon"].to_numpy().astype(np.int64)
    lat = df["lat"].to_numpy().astype(np.int64)
    qt = calculate_point(lon, lat, 0.05, 18)
    new_tile = alloc.assign(qt)

    # old tile lookup from ONLY the affected lineage buckets
    buckets = np.unique(mf.lineage_bucket(eid))
    lin_t = mf.read_lineage_buckets(out_dir, buckets.tolist())
    if lin_t is not None and lin_t.num_rows:
        o_ids = lin_t.column("entity_id").to_numpy().astype(np.int64)
        o_tiles = lin_t.column("tile").to_numpy().astype(np.int64)
        order = np.argsort(o_ids, kind="stable")
        o_ids, o_tiles = o_ids[order], o_tiles[order]
    else:
        o_ids = np.zeros(0, np.int64)
        o_tiles = np.zeros(0, np.int64)
    pos = np.searchsorted(o_ids, eid)
    pos_c = np.clip(pos, 0, max(len(o_ids) - 1, 0))
    has_old = (pos < len(o_ids)) & (len(o_ids) > 0)
    if len(o_ids):
        has_old &= o_ids[pos_c] == eid
    old_tile = o_tiles[pos_c] if len(o_ids) else np.zeros(len(eid), np.int64)

    is_del = code == CH_DELETE
    is_mod = code == CH_MODIFY
    is_cre = code == CH_CREATE
    del_hit = is_del & has_old
    mod_same = is_mod & has_old & (old_tile == new_tile)
    mod_move = is_mod & has_old & (old_tile != new_tile)
    creates = is_cre | (is_mod & ~has_old)
    # a Create over an entity whose lineage points at a DIFFERENT tile
    # (e.g. a k-way-merged Delete∘Create collapsed to one Create) must
    # still purge the old tile's base row — same Remove-in-old-tile
    # record the mod_move pair emits (update.go:622-690); without it the
    # merged path leaves a stale duplicate that direct tile readers see
    cre_move = creates & has_old & (old_tile != new_tile)
    n_missing_delete = int((is_del & ~has_old).sum())

    zero = np.zeros_like(eid)
    neg1 = np.full_like(eid, -1)

    def rows(mask, tile, ch, lo, la, q):
        n = int(mask.sum())
        return (tile[mask], eid[mask],
                np.full(n, ch, np.int8), lo[mask], la[mask], q[mask])

    groups = [
        rows(del_hit, old_tile, CH_DELETE, zero, zero, neg1),
        rows(mod_same, old_tile, CH_MODIFY, lon, lat, qt),
        rows(mod_move, old_tile, CH_REMOVE, zero, zero, neg1),
        rows(mod_move, new_tile, CH_UNCHANGED, lon, lat, qt),
        rows(cre_move, old_tile, CH_REMOVE, zero, zero, neg1),
        rows(creates, new_tile, CH_CREATE, lon, lat, qt),
    ]
    cat = [np.concatenate([g[i] for g in groups]) for i in range(6)]
    out = pa.table(
        {
            "tile": pa.array(cat[0]),
            "entity_id": pa.array(cat[1]),
            "change": pa.array(cat[2]),
            "lon": pa.array(cat[3]),
            "lat": pa.array(cat[4]),
            "qt": pa.array(cat[5]),
            "seq": pa.array(np.full(len(cat[0]), seq, np.int64)),
        }
    )
    cfs, croot = fsio.get_fs(_changes_dir(out_dir))
    cfs.makedirs(croot, exist_ok=True)
    fsio.commit_parquet(out, cfs,
                        fsio.join(croot, f"change_{seq:06d}.parquet"))

    # rewrite ONLY the affected lineage buckets: drop deleted ids, upsert
    # modified/created ids
    upd_mask = mod_same | mod_move | creates
    upd = pd.DataFrame({"entity_id": eid[upd_mask], "tile": new_tile[upd_mask]})
    dropped = set(eid[del_hit].tolist())
    old_df = (lin_t.to_pandas() if lin_t is not None
              else pd.DataFrame({"entity_id": [], "tile": []}))
    old_df = old_df[["entity_id", "tile"]].astype(np.int64)
    merged = pd.concat([old_df, upd], ignore_index=True)
    merged = merged.drop_duplicates(subset=["entity_id"], keep="last")
    if dropped:
        merged = merged[~merged["entity_id"].isin(dropped)]
    bks = mf.lineage_bucket(merged["entity_id"].to_numpy())
    for b in buckets:
        sub = merged[bks == b]
        mf.write_lineage_bucket(
            out_dir, int(b),
            pa.Table.from_pandas(sub, preserve_index=False))
    state = mf.read_state(out_dir)
    state["seq"] = seq
    man_df = man.to_pandas()
    mf.write_manifest(out_dir, man_df["tile"].to_numpy(), man_df["count"].to_numpy(),
                      state=state)
    return {
        "records": out.num_rows,
        "affected_tiles": int(pd.Series(cat[0]).nunique()),
        "missing_deletes": n_missing_delete,
    }


def merge_change_files(tables: list[pa.Table], seq: int | None = None) -> pa.Table:
    """J9 multi-file k-way change merge (readfile/parallel.go:16-101 +
    change/changefiles.go:156-230): k change tables ordered by their
    start date are aligned and collapsed to one last-wins batch — the
    later FILE wins per entity, and within a file the later record wins.

    Applying the merged batch once is equivalent to applying the files
    sequentially: the ChangeType lattice composes left-to-right into its
    final element (Create∘Modify ≡ Create-with-new-payload handled by
    the modify-without-lineage -> Create rule; X∘Delete ≡ Delete;
    Delete∘Create ≡ Create), which tests pin against sequential apply.
    """
    parts = []
    for k, t in enumerate(tables):
        parts.append(t.append_column(
            "_file", pa.array(np.full(t.num_rows, k, np.int64))))
    allc = pa.concat_tables(parts, promote_options="default")
    df = allc.to_pandas()
    order_cols = ["_file"] + (["seq"] if "seq" in df.columns else [])
    df = df.sort_values(order_cols, kind="stable")
    df = df.drop_duplicates(subset=["entity_id"], keep="last")
    df = df.drop(columns=["_file"])
    if seq is not None:
        df["seq"] = seq
    return pa.Table.from_pandas(df, preserve_index=False)


def apply_change_files(out_dir: str, paths: list[str], seq: int) -> dict:
    """Read k change files (each may hold several seqs), k-way merge,
    apply as one batch against the bucketed lineage."""
    tables = [pq.read_table(p) for p in paths]
    merged = merge_change_files(tables, seq=seq)
    return apply_change_batch(out_dir, merged, seq)


def _resolved_changes(out_dir: str):
    """Every change file resolved in one local pass (J8/J9: last record
    per entity by ``(seq, change)``; a move's Unchanged(3) outranks its
    Remove(2)), or None when there is none.  Returns ``(ids, rows,
    tiles)``: sorted ids of every changed entity, the winners with code
    > 2 as ``(entity_id, lon, lat, qt, tile)`` sorted by tile, and the
    sorted tiles named by ANY record.  O(change records) in the calling
    process, the bound ``apply_change_batch`` already has."""
    fs, root = fsio.get_fs(_changes_dir(out_dir))
    parts = []
    for n in sorted(fsio.list_basenames(fs, root)):
        if n.endswith(".parquet") and not n.startswith("."):
            with fs.open(fsio.join(root, n), "rb") as f:
                parts.append(pq.read_table(f, columns=_CHANGE_COLS))
    if not parts:
        return None
    ch = pa.concat_tables(parts)
    eid = ch.column("entity_id").to_numpy()
    order = np.lexsort((ch.column("change").to_numpy(),
                        ch.column("seq").to_numpy(), eid))
    last = np.ones(len(order), bool)
    last[:-1] = eid[order[1:]] != eid[order[:-1]]
    win = ch.take(order[last])
    rows = win.filter(pa.array(win.column("change").to_numpy() > CH_REMOVE))
    rows = rows.take(np.argsort(rows.column("tile").to_numpy(), kind="stable"))
    return (win.column("entity_id").to_numpy(), rows.select(_ROW_COLS),
            np.unique(ch.column("tile").to_numpy()))


def _overlay(base: pa.Table, ids: np.ndarray, rows: pa.Table | None = None):
    """The merge rule shared by snapshot and compaction: base rows of
    entities in ``ids`` (sorted) are dropped, ``rows`` are appended."""
    eid = base.column("entity_id").to_numpy()
    pos = np.searchsorted(ids, eid)
    hit = pos < len(ids)
    hit[hit] = ids[pos[hit]] == eid[hit]
    kept = base.filter(pa.array(~hit))
    return kept if rows is None else pa.concat_tables([kept, rows])


def read_snapshot(out_dir: str):
    """Base (+) all change batches — the J8/J9 overlay, Ray-Data shaped.

    Rule: per entity the last record by (seq, change) wins; codes 3/4/5
    keep its row, Delete/Remove drop the entity.  Base rows rank as
    ``seq = -1`` under every change record (``seq >= 1``), so the rule
    is exactly an anti-join: base rows minus the resolved changed ids,
    union the resolved winners with code > 2.  The sorted id array ships
    once through the object store; no exchange.

    Returns a Dataset of surviving (entity_id, lon, lat, qt, tile).
    """
    import ray

    ids, rows, _ = (_resolved_changes(out_dir)
                    or (np.zeros(0, np.int64), None, None))
    ids_ref = ray.put(ids)

    def base_rows(b: pa.Table) -> pa.Table:
        tile = b.column("tile")
        if pa.types.is_dictionary(tile.type) or pa.types.is_string(tile.type):
            tile = pa.array(pd.to_numeric(tile.to_pandas()).astype("int64"))
        return _overlay(b.select(_CORE).append_column("tile", tile),
                        ray.get(ids_ref))

    snap = ray.data.read_parquet(mf.data_dir(out_dir), columns=_ROW_COLS) \
        .map_batches(base_rows, batch_format="pyarrow")
    if rows is not None and rows.num_rows:
        snap = snap.union(ray.data.from_arrow(rows))
    return snap


def _compact_tile(data_dir: str, t: int, ids: np.ndarray, rows: pa.Table):
    """Rewrite tile ``t`` as (its base rows − changed ids) ∪ (resolved
    rows of tile ``t``), sorted by entity_id; ``rows`` is the
    tile-sorted table from :func:`_resolved_changes`."""
    fs, root = fsio.get_fs(data_dir)
    tdir = fsio.join(root, f"tile={int(t)}")
    base = (pq.read_table(tdir, filesystem=fs, columns=_CORE).cast(_CORE_SCHEMA)
            if fs.isdir(tdir) else _CORE_SCHEMA.empty_table())
    tcol = rows.column("tile").to_numpy()
    lo = np.searchsorted(tcol, t, side="left")
    hi = np.searchsorted(tcol, t, side="right")
    keep = _overlay(base, ids, rows.slice(lo, hi - lo).select(_CORE))
    keep = keep.take(np.argsort(keep.column("entity_id").to_numpy(),
                                kind="stable"))
    fs.makedirs(tdir, exist_ok=True)
    # base rows carry extra columns (url/name/cells); compacted tiles
    # carry the core schema — readers select shared columns.  Commit via
    # fsio (tmp+rename local, direct PUT + manifest gate elsewhere);
    # stale pre-compaction parts retired after the commit.
    final = "part-compacted.parquet"
    fsio.commit_parquet(keep, fs, fsio.join(tdir, final))
    fsio.remove_stale(fs, tdir, final)
    return int(keep.num_rows)


def compact(out_dir: str) -> dict:
    """Merge accumulated change batches INTO the tile partitions —
    the reference's partial re-read/re-write (update.go:343-738 +
    readfile/partial.go): ONLY tiles named by a change record (Remove/
    Delete-only tiles included) are rewritten, each as the snapshot
    overlay restricted to it; everything else is untouched; change files
    are then retired.

    The calling process resolves the change set once (O(change records),
    the bound ``apply_change_batch`` already has); one Ray Data map over
    the tile list, about one batch per CPU, rewrites the tiles (the
    reference's per-tile goroutines) and returns only (tile, count) for
    the manifest refresh.  After compaction ``read_snapshot`` over the
    bare data dir equals the pre-compaction overlay.
    """
    import ray

    resolved = _resolved_changes(out_dir)
    if resolved is None:
        return {"rewritten_tiles": 0, "retired_files": 0}
    data_dir = mf.data_dir(out_dir)
    tiles = resolved[2]
    res_ref = ray.put(resolved[:2])

    def compact_tiles(b: pa.Table) -> pa.Table:
        ids, rows = ray.get(res_ref)
        t = b.column("tile").to_numpy()
        n = [_compact_tile(data_dir, int(x), ids, rows) for x in t]
        return pa.table({"tile": t, "count": np.asarray(n, np.int64)})

    results = pd.DataFrame({"tile": [], "count": []}, dtype=np.int64)
    if len(tiles):
        n_cpu = int(ray.cluster_resources().get("CPU", 1))
        chunks = np.array_split(tiles, max(1, min(n_cpu, len(tiles))))
        results = ray.data.from_arrow([pa.table({"tile": c}) for c in chunks]) \
            .map_batches(compact_tiles, batch_format="pyarrow",
                         batch_size=None).to_pandas()

    cfs, croot = fsio.get_fs(_changes_dir(out_dir))
    retired = fsio.list_basenames(cfs, croot)
    for f in retired:
        cfs.rm(fsio.join(croot, f))
    # refresh manifest counts for rewritten tiles (manifest order kept)
    man = pd.concat([mf.read_manifest(out_dir).to_pandas(), results]) \
        .groupby("tile", sort=False)["count"].last()
    state = mf.read_state(out_dir)
    state["compacted_seq"] = state.get("seq", 0)
    mf.write_manifest(out_dir, man.index.to_numpy(), man.to_numpy(),
                      state=state)
    return {"rewritten_tiles": len(results), "retired_files": len(retired)}
