"""Single-exchange tiled writer (replaces sort -> write_parquet).

Ray Data's ``sort`` / ``groupby`` exchange costs ~3-5x a raw exchange at
this scale (sample + range-partition + merge passes).  Tile boundaries
are already known after the split rule, so the shuffle reduces to ONE
explicit all-to-all: every input block is split by writer-range (ranges
of the sorted tile list, balanced by the known per-tile counts), and one
writer task per range concatenates its pieces and writes ONE parquet
file per tile.  The grid is ``stages/exchange.py``'s; this module
supplies the boundary-aware split and the writer reduce.  Raw Ray
tasks, because the Dataset API cannot express a boundary-aware
exchange without a redundant sort.

Output layout is identical to the Hive writer: ``<dir>/tile=<t>/part-0.parquet``.
All sink paths may carry an fsspec scheme (``file://``, ``s3://``,
``memory://`` in tests); per-file commit is tmp+rename where the
backend renames atomically, direct-PUT otherwise, and dataset-level
visibility is gated by the manifest in both cases — see
``state/fsio.py`` for the commit protocol.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state import fsio
from .exchange import block_groups, exchange

# split tasks per writer: a few per writer shrinks the straggler tail
# (one oversized split group otherwise gates every writer it feeds) at
# the cost of proportionally more (tiny) plasma objects
SPLIT_TASKS_PER_WRITER = 3


def _writer_ranges(tile_order: np.ndarray, tile_counts: np.ndarray,
                   n_writers: int) -> np.ndarray:
    """Boundaries assigning each tile (in sorted order) to a writer,
    balanced by row counts."""
    cum = np.cumsum(tile_counts)
    total = cum[-1] if len(cum) else 0
    targets = (np.arange(1, n_writers) * total) // n_writers
    cut = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.unique(np.concatenate([[0], cut, [len(tile_order)]]))
    # writer id per tile index
    wid = np.zeros(len(tile_order), dtype=np.int64)
    for w in range(len(bounds) - 1):
        wid[bounds[w]: bounds[w + 1]] = w
    return wid


def _split_impl(tiles_sorted, wid, n_writers_eff, alloc, *blocks):
    # ``alloc`` arrives as an ObjectRef argument that Ray resolves from
    # plasma (zero-copy, shared across every task on a node) — the
    # broadcast-small-side pattern.
    tbls = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
            for b in blocks]
    block = tbls[0] if len(tbls) == 1 else pa.concat_tables(
        tbls, promote_options="default")
    if alloc is not None:
        tile = alloc.assign(block.column("qt").to_numpy())
        block = block.append_column("tile", pa.array(tile))
    else:
        tile = block.column("tile").to_numpy()
    # one stable sort by tile up front: writer ids are then
    # non-decreasing (wid is monotone over the sorted tile list), so
    # the per-writer split is zero-copy SLICES instead of n_writers
    # filter passes — and every piece arrives at its writer already
    # tile-sorted, so the writer's own stable sort runs over k sorted
    # runs (radix, O(n)) with piece order preserved within a tile
    order = np.argsort(tile, kind="stable")
    block = block.take(pa.array(order))
    tile = tile[order]
    pos = np.searchsorted(tiles_sorted, tile)
    pos = np.clip(pos, 0, max(len(tiles_sorted) - 1, 0))
    w = wid[pos]
    bounds = np.searchsorted(w, np.arange(n_writers_eff + 1))
    return tuple(block.slice(bounds[i], bounds[i + 1] - bounds[i])
                 for i in range(n_writers_eff))


def _write_range_impl(writer_id, out_dir, lineage_dir, skip, *pieces):
    """Range writer: concatenates its (already tile-sorted) split
    pieces and writes one parquet file per tile.  Because every piece
    arrives pre-sorted by tile (see ``_split_impl``) the stable argsort
    here runs over k sorted runs — numpy's stable int sort is radix,
    O(n) — and within a tile preserves piece order then original row
    order, byte-identical to the pre-presort implementation.

    A streamed variant (``ray.wait`` consuming pieces as split tasks
    finish, per-tile slicing on arrival) was measured SLOWER at both
    500k and 8M pages (assign_write 0.84->2.16 s / 5.08->8.37 s at 32
    cpus): the wait/fetch round-trips and per-tile Python bookkeeping
    cost more than the split straggler tail they hide.  Batch-arg
    dependency resolution (Ray fetches all pieces in parallel before
    the task starts) is the faster shape on this exchange."""
    rows = 0
    tbl = pa.concat_tables([p for p in pieces if p.num_rows],
                           promote_options="default") \
        if any(p.num_rows for p in pieces) else None
    if tbl is None:
        return 0
    fs, root = fsio.get_fs(out_dir)
    tile = tbl.column("tile").to_numpy()
    order2 = np.argsort(tile, kind="stable")
    tbl = tbl.take(pa.array(order2))
    tile = tile[order2]
    if lineage_dir is not None and "entity_id" in tbl.column_names:
        # bucketed lineage store (manifest.LINEAGE_BUCKETS): the update
        # path reads/rewrites only its batch's buckets, never the whole
        # corpus's lineage
        from ..state import manifest as _mf

        lfs, lroot = fsio.get_fs(lineage_dir)
        eids = tbl.column("entity_id").to_numpy()
        bks = _mf.lineage_bucket(eids)
        lin = pa.table({"entity_id": pa.array(eids),
                        "tile": pa.array(tile)})
        for b in np.unique(bks):
            d = fsio.join(lroot, f"bucket={int(b)}")
            lfs.makedirs(d, exist_ok=True)
            sub = lin.filter(pa.array(bks == b))
            fsio.commit_parquet(sub, lfs,
                                fsio.join(d, f"part-{writer_id}.parquet"))
    starts = np.concatenate([[0], np.flatnonzero(tile[1:] != tile[:-1]) + 1])
    ends = np.append(starts[1:], len(tile))
    for s, e in zip(starts, ends):
        t = int(tile[s])
        if skip is not None:
            p = np.searchsorted(skip, t)
            if p < len(skip) and skip[p] == t:
                continue
        d = fsio.join(root, f"tile={t}")
        fs.makedirs(d, exist_ok=True)
        sub = tbl.slice(s, e - s).drop_columns(["tile"])
        final = f"part-{writer_id}.parquet"
        fsio.commit_parquet(sub, fs, fsio.join(d, final))
        # a tile belongs to exactly one writer per run: retire any
        # stale files a crashed run with a different writer layout
        # left behind (the manifest is the commit point, so an
        # unmanifested tile dir may hold partial state)
        fsio.remove_stale(fs, d, final)
        rows += e - s
    return rows


def write_tiled(assigned_ds, out_dir: str, tile_order: np.ndarray,
                tile_counts: np.ndarray, n_writers: int = 16,
                skip_tiles: np.ndarray | None = None,
                lineage_dir: str | None = None,
                alloc_ref=None) -> int:
    """Shuffle-by-known-boundaries write.  Returns rows written.

    When ``lineage_dir`` is given, each writer also emits its
    (entity_id, tile) lineage part — the writers hold exactly that data,
    so the separate lineage pass disappears.

    When ``alloc_ref`` (ObjectRef to a QtAllocator) is given, the input
    needs no ``tile`` column: each split task assigns tiles from ``qt``
    itself (zero-copy plasma read of the broadcast allocator), fusing the
    TileAssigner stage into the exchange — one fewer pass + no actor
    pool on the flagship hot path."""
    import ray

    order = np.argsort(tile_order, kind="stable")
    tiles_sorted = tile_order[order]
    counts_sorted = tile_counts[order]
    wid = _writer_ranges(tiles_sorted, counts_sorted, n_writers)
    n_writers_eff = int(wid.max()) + 1 if len(wid) else 1
    skip = np.sort(skip_tiles) if skip_tiles is not None and len(skip_tiles) else None

    # bound the exchange's object count at ~n_tasks x n_writers while
    # keeping the split stage finer than the writer stage
    groups = block_groups(assigned_ds,
                          SPLIT_TASKS_PER_WRITER * n_writers_eff)
    writes = exchange(
        _split_impl, [(tiles_sorted, wid, n_writers_eff, alloc_ref, *g)
                      for g in groups],
        _write_range_impl, [(w, out_dir, lineage_dir, skip)
                            for w in range(n_writers_eff)],
        n_writers_eff)
    return int(sum(ray.get(writes)))
