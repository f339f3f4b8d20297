"""The flagship tiling pipeline (reference P1+P2, SURVEY §3).

    pages ── extract_text ── extract_entities ── assign_cells ─▶ entities
    entities ── qt_prefix_counts ──▶ driver: find_qt_groups (split rule)
    entities ── TileAssigner(broadcast allocator) ──▶ Hive-partitioned
        parquet by tile + manifest + lineage

Ray-Data design notes:
* html is projected away in the very first stage; entities (a few ints +
  short strings per row) are checkpointed to parquet so the count pass
  and the assignment pass re-read the SMALL table, not the pages.
* the tile-count aggregation is map-side partial (one row per distinct
  qt per batch) and merged on the driver — the trie input is tile
  counts, never raw rows (A1/A5, qttree.go:282-319,508-627).
* the allocator is ``ray.put`` once and read zero-copy per actor.
* writes are Hive-partitioned by tile; the manifest is written last, so
  a rerun with resume=True skips tiles already recorded (idempotent
  per-partition writes, reference T5/J10 lineage semantics).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..functions.qttree import QtAllocator, find_qt_groups
from ..functions.quadtree import qt_round
from ..stages.assign import QT_MAX_LEVEL, TileAssigner, assign_cells, qt_prefix_counts
from ..stages.extract import extract_entities, extract_text
from ..state import manifest as mf

DEFAULT_TARGET = 8000
DEFAULT_MINIMUM = 500


def pages_to_entities(pages_ds, parallelism_hint: int | None = None):
    """pages Dataset -> entity Dataset with qt / cell_s2 / cell_hex."""
    from ..stages.extract import add_entity_id

    ents = (
        pages_ds.map_batches(extract_text, batch_format="pyarrow")
        .map_batches(extract_entities, batch_format="pyarrow")
        .map_batches(add_entity_id, batch_format="pyarrow")
        .map_batches(assign_cells, batch_format="pyarrow")
    )
    return ents


def count_tiles(entities_ds, level: int = QT_MAX_LEVEL):
    """Distributed partial counts -> driver-side merged (qt, n) arrays."""
    parts_q = []
    parts_n = []
    counts = entities_ds.map_batches(
        lambda b: qt_prefix_counts(b, level), batch_format="pyarrow"
    )
    for b in counts.iter_batches(batch_size=None, batch_format="pyarrow"):
        parts_q.append(b.column("qt").to_numpy())
        parts_n.append(b.column("n").to_numpy())
    if not parts_q:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    q = np.concatenate(parts_q)
    n = np.concatenate(parts_n)
    order = np.argsort(q, kind="stable")
    q, n = q[order], n[order]
    starts = np.concatenate([[0], np.flatnonzero(q[1:] != q[:-1]) + 1])
    return q[starts], np.add.reduceat(n, starts)


def count_tiles_adaptive(
    entities_ds,
    target: int = DEFAULT_TARGET,
    levels: tuple = (6, 12, QT_MAX_LEVEL),
):
    """Hierarchical tile counting with hot-cell refinement — the scalable
    replacement for a flat max-level count.

    Only cells with count > target+50 are refined one level-step deeper
    (re-counted over the rows under them); everything else is emitted as
    a leaf.  This is EXACTLY equivalent as input to
    :func:`~..functions.qttree.find_qt_groups`: the widening pass visits
    a node's children only when ``total > mx`` (mx starts at target+50
    and only grows), and any unrefined cell satisfies
    ``total <= target+50 <= mx`` so it is always accepted whole, never
    descended into — pinned by tests/test_qttree.py::test_adaptive_counts.

    Driver-side data is therefore O(output tiles), independent of corpus
    size — at 10^12 docs a flat level-18 count (~10^10 distinct cells)
    could never reach the driver.  Each refinement round is one
    column-pruned pass over the (shrinking) hot subset.
    """
    import ray

    threshold = target + 50
    out_q: list[np.ndarray] = []
    out_n: list[np.ndarray] = []
    hot_prefixes: np.ndarray | None = None
    prev_level: int | None = None
    ds = entities_ds

    for i, level in enumerate(levels):
        if hot_prefixes is not None and len(hot_prefixes) == 0:
            break
        if hot_prefixes is not None:
            pref = ray.put(np.sort(hot_prefixes))
            pl = prev_level

            def _filter(b: pa.Table, _pref=pref, _pl=pl) -> pa.Table:
                hot = ray.get(_pref)
                q = qt_round(b.column("qt").to_numpy(), _pl)
                pos = np.searchsorted(hot, q)
                pos_c = np.clip(pos, 0, max(len(hot) - 1, 0))
                keep = (pos < len(hot)) & (hot[pos_c] == q)
                return b.filter(pa.array(keep))

            ds = entities_ds.map_batches(_filter, batch_format="pyarrow")
        qts, counts = count_tiles(ds, level)
        if level == levels[-1]:
            out_q.append(qts)
            out_n.append(counts)
            break
        # cells shallower than this level are the row's own (seam-stopped)
        # qt — they cannot be refined and are final leaves regardless of
        # count; only exact-depth hot cells spawn a refinement round
        depth = qts & 31
        cold = (counts <= threshold) | (depth < level)
        out_q.append(qts[cold])
        out_n.append(counts[cold])
        hot_prefixes = qts[~cold]
        prev_level = level

    if not out_q:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    q = np.concatenate(out_q)
    n = np.concatenate(out_n)
    order = np.argsort(q, kind="stable")
    return q[order], n[order]


def ladder_prune(q: np.ndarray, n: np.ndarray, levels: tuple,
                 threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """Prune merged (qt, count) totals to the adaptive count ladder.

    ``q`` must be unique and sorted at the deepest ladder level; returns
    exactly what :func:`count_tiles_adaptive` would emit for these rows:
    at each ladder level, a cell is a leaf if its total <= threshold or
    its own depth is shallower than the level; only exact-depth hot
    cells are refined (pinned by tests/test_qttree.py).
    """
    out_q: list[np.ndarray] = []
    out_n: list[np.ndarray] = []
    cur_q, cur_n = q, n
    for level in levels[:-1]:
        if not len(cur_q):
            break
        qr = qt_round(cur_q, level)
        starts = np.concatenate([[0], np.flatnonzero(qr[1:] != qr[:-1]) + 1])
        tot = np.add.reduceat(cur_n, starts)
        gq = qr[starts]
        depth = gq & 31
        cold = (tot <= threshold) | (depth < level)
        out_q.append(gq[cold])
        out_n.append(tot[cold])
        grp = np.searchsorted(starts, np.arange(len(cur_q)), side="right") - 1
        keep = ~cold[grp]
        cur_q, cur_n = cur_q[keep], cur_n[keep]
    out_q.append(cur_q)
    out_n.append(cur_n)
    q = np.concatenate(out_q)
    n = np.concatenate(out_n)
    order = np.argsort(q, kind="stable")
    return q[order], n[order]


def _round_counts_impl(n_red, level, prev_level, hot, *blocks):
    """One descent round's map task: count distinct level-``level``
    cells among rows under the globally-hot ``prev_level`` cells, routed
    to reducers by a hash of the cell.  The partial size is BOUNDED by
    4^(level-prev_level) x len(hot) regardless of corpus size or skew —
    the reason the descent exchanges stay tiny at any scale."""
    qts = []
    for b in blocks:
        if hasattr(b, "column"):  # pyarrow
            if b.num_rows and "qt" in b.column_names:
                qts.append(b.column("qt").to_numpy())
        else:  # pandas (empty union blocks may carry no schema at all)
            if len(b) and "qt" in b.columns:
                qts.append(b["qt"].to_numpy())
    if not qts:
        qts = [np.zeros(0, np.int64)]
    qt = qts[0] if len(qts) == 1 else np.concatenate(qts)
    if hot is not None and len(qt):
        qp = qt_round(qt, prev_level)
        pos = np.clip(np.searchsorted(hot, qp), 0, max(len(hot) - 1, 0))
        qt = qt[(pos < len(hot)) & (hot[pos] == qp)] if len(hot) else qt[:0]
    vals, counts = np.unique(qt_round(qt, level), return_counts=True)
    dest = ((vals.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
            >> np.uint64(33)) % np.uint64(n_red)
    outs = []
    for i in range(n_red):
        m = dest == i
        outs.append((vals[m], counts[m].astype(np.int64)))
    return tuple(outs) if n_red > 1 else outs[0]


def _merge_cells_impl(*pieces):
    """Reduce: merge one hash-slice of a round's partial counts
    (balanced by cell hash, immune to key skew)."""
    qs = [p[0] for p in pieces if len(p[0])]
    ns = [p[1] for p in pieces if len(p[0])]
    if not qs:
        z = np.zeros(0, np.int64)
        return z, z
    q = np.concatenate(qs)
    n = np.concatenate(ns)
    order = np.argsort(q, kind="stable")
    q, n = q[order], n[order]
    starts = np.concatenate([[0], np.flatnonzero(q[1:] != q[:-1]) + 1])
    return q[starts], np.add.reduceat(n, starts)


def _get_remote_fns():
    """Module-level remote functions, exported to the cluster once per
    session (defining them inside the driver function re-pickles and
    re-exports them on every call — measured ~1.5 s of fixed cost)."""
    global _round_counts, _merge_cells
    if _round_counts is None:
        import ray

        _round_counts = ray.remote(_round_counts_impl)
        _merge_cells = ray.remote(_merge_cells_impl)
    return _round_counts, _merge_cells


_round_counts = None
_merge_cells = None


def count_tiles_onepass(
    entities_ds,
    target: int = DEFAULT_TARGET,
    levels: tuple = (6, 9, 12, 15, QT_MAX_LEVEL),
    n_reducers: int | None = None,
):
    """Distributed top-down descent count — the scalable replacement for
    :func:`count_tiles_adaptive` (same pruning semantics, pinned
    equivalent by tests/test_qttree.py).

    One round per ladder level: map tasks count distinct level-L cells
    among rows under the previous round's HOT cells and route partials
    by a hash of the cell; a balanced reduce merges each hash slice; the
    driver keeps cold cells as leaves and descends into hot ones.  Every
    round's exchange is bounded by ``4^step x len(hot)`` cells with
    ``len(hot) <= total_rows / threshold`` — independent of corpus size
    AND of key skew (a corpus entirely about one city keeps hot small;
    a uniformly sparse corpus goes cold after few rounds).  Routing by a
    coarse prefix instead was measured putting 19M of 19M partial rows
    on one reducer; collecting raw level-12 cells on the driver was
    measured at 15M cells / 240 MB.  Rows never shuffle — only bounded
    cell-count partials do.
    """
    import ray

    threshold = target + 50
    block_refs = [
        ref
        for bundle in entities_ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    if n_reducers is None:
        # cluster-derived: ~1/4 CPU per reducer (partials are tiny;
        # more reducers than that just multiplies object count)
        from ..stages.shuffle import default_buckets

        n_reducers = int(min(max(8, default_buckets() // 4),
                             max(1, len(block_refs))))
    n_red = n_reducers

    _round_counts, _merge_cells = _get_remote_fns()
    n_tasks = max(1, min(len(block_refs), ncpu))
    groups = [block_refs[i::n_tasks] for i in range(n_tasks)]

    out_q: list[np.ndarray] = []
    out_n: list[np.ndarray] = []
    hot: np.ndarray | None = None
    prev_level: int | None = None
    for level in levels:
        if hot is not None and len(hot) == 0:
            break
        hot_ref = ray.put(np.sort(hot)) if hot is not None else None
        pieces = [
            _round_counts.options(num_returns=n_red).remote(
                n_red, level, prev_level, hot_ref, *g)
            for g in groups if g
        ]
        if n_red == 1:
            pieces = [[p] for p in pieces]
        merged = ray.get([
            _merge_cells.remote(*[pieces[b][r] for b in range(len(pieces))])
            for r in range(n_red)
        ])
        qs = [m[0] for m in merged if len(m[0])]
        ns = [m[1] for m in merged if len(m[0])]
        if not qs:
            break
        q = np.concatenate(qs)
        n = np.concatenate(ns)
        if level == levels[-1]:
            out_q.append(q)
            out_n.append(n)
            break
        depth = q & 31
        cold = (n <= threshold) | (depth < level)
        out_q.append(q[cold])
        out_n.append(n[cold])
        hot = q[~cold]
        prev_level = level

    if not out_q:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    q = np.concatenate(out_q)
    n = np.concatenate(out_n)
    order = np.argsort(q, kind="stable")
    return q[order], n[order]


def split_and_allocate(qts, counts, target=DEFAULT_TARGET, minimum=DEFAULT_MINIMUM):
    """Driver-side split rule -> (group_qts, group_counts, QtAllocator)."""
    gq, gt = find_qt_groups(qts, counts, target, minimum, require_count=False)
    return gq, gt, QtAllocator(gq)


def tile_entities(
    entities_ds,
    out_dir: str,
    target: int = DEFAULT_TARGET,
    minimum: int = DEFAULT_MINIMUM,
    resume: bool = True,
    concurrency=(1, 16),
    state: dict | None = None,
    allocator=None,
):
    """Count -> split -> assign -> partitioned write (+ manifest, lineage).

    ``allocator`` (reference §2.9 pluggable ``Allocater``,
    blocksort/blocksort.go:185): any object with ``assign(qts) ->
    tile array``; defaults to the QtAllocator built from the split rule.

    Returns dict(tiles=int, total=int, skipped_tiles=int, timings=dict).
    """
    import time

    import ray

    timings = {}
    t0 = time.time()
    qts, counts = count_tiles_onepass(entities_ds, target)
    timings["count"] = round(time.time() - t0, 2)
    t0 = time.time()
    gq, gt, alloc = split_and_allocate(qts, counts, target, minimum)
    if allocator is not None:
        alloc = allocator
    timings["split"] = round(time.time() - t0, 2)
    alloc_ref = ray.put(alloc)
    t0 = time.time()

    done = mf.completed_tiles(out_dir) if resume else np.zeros(0, np.int64)

    # single-exchange boundary-aware shuffle + atomic per-tile files
    # (stages/write_tiles.py): one file per tile, reference's tile-ordered
    # layout (writefile.go:50-52), resumable (completed tiles skipped).
    # Tile assignment is fused into the exchange's split tasks
    # (alloc_ref), so assign+shuffle+write is ONE pass over the entities.
    from ..stages.write_tiles import write_tiled

    has_entity_id = "entity_id" in entities_ds.schema().names
    lin_file = os.path.join(out_dir, "lineage.parquet")
    if has_entity_id:
        # a fresh tiling invalidates update lineage (legacy file + any
        # stale bucket parts from a previous writer layout)
        if os.path.exists(lin_file):
            os.remove(lin_file)
        if len(done) == 0:
            import shutil

            shutil.rmtree(mf.lineage_dir(out_dir), ignore_errors=True)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    n_writers = max(concurrency[1] if isinstance(concurrency, tuple) else 8,
                    ncpu)
    write_tiled(entities_ds, mf.data_dir(out_dir), gq, gt,
                n_writers=n_writers, skip_tiles=done,
                lineage_dir=mf.lineage_dir(out_dir) if has_entity_id else None,
                alloc_ref=alloc_ref)
    timings["assign_write"] = round(time.time() - t0, 2)

    # run metrics ride in state.json (written just before the manifest
    # commit point): with the per-tile counts in manifest.parquet this
    # makes every output dir self-describing — lineage + metrics — for
    # post-hoc inspection and resume decisions
    mf.write_manifest(out_dir, gq, gt, state=dict(
        state or {}, target=target, minimum=minimum, seq=0,
        metrics={"timings": dict(timings), "tiles": int(len(gq)),
                 "total": int(gt.sum()), "skipped_tiles": int(len(done)),
                 "cpus": ncpu}))
    return {
        "tiles": int(len(gq)),
        "total": int(gt.sum()),
        "skipped_tiles": int(len(done)),
        "timings": timings,
    }


def tile_pages(
    pages_path: str,
    out_dir: str,
    target: int = DEFAULT_TARGET,
    minimum: int = DEFAULT_MINIMUM,
    resume: bool = True,
    checkpoint_entities: bool = True,
):
    """Full flagship: pages parquet -> tiled entity parquet + manifest.

    ``checkpoint_entities=False`` skips the intermediate entities
    parquet: the extracted table lives only in the (spillable) object
    store and the tiled output is the sole durable artifact — the right
    trade when extraction is cheaper than writing the corpus twice;
    resume granularity is then per-tile (skip_tiles) rather than
    per-stage."""
    import ray

    ent_path = os.path.join(out_dir, "entities")
    ent_marker = os.path.join(out_dir, "entities.done")
    import time

    t_extract = 0.0
    ents2 = None
    if not (checkpoint_entities and resume and os.path.exists(ent_marker)):
        # a partial previous extraction must not leave appendable files
        import shutil

        t0 = time.time()
        shutil.rmtree(ent_path, ignore_errors=True)
        # block size targets ~64k pages/task (measured optimum at 32
        # cpus on BOTH the 8M and 16M corpora; larger blocks raise
        # per-task arrow allocation peaks, smaller ones pay scheduling),
        # clamped to [2, 32] tasks per core so small inputs still fan
        # out and huge ones don't flood the scheduler.  Row count comes
        # from a footer-only metadata scan (~0.1 s for 1000 files).
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        try:
            import pyarrow.dataset as pds

            n_rows = sum(
                f.metadata.num_rows
                for f in pds.dataset(
                    pages_path, format="parquet").get_fragments())
            nblocks = max(2 * ncpu, min(32 * ncpu, n_rows // 64_000 or 1))
        except Exception:
            nblocks = 4 * ncpu
        pages = ray.data.read_parquet(
            pages_path, columns=["url", "warc_ts", "html", "lang"],
            override_num_blocks=nblocks,
        )
        # materialize once: the entities table is consumed several times
        # (count pass + assignment pass) — keep it in the object store
        # instead of re-reading parquet each pass; the parquet checkpoint
        # (coalesced files) is written for resume and downstream
        # consumers unless checkpoint_entities=False
        ents2 = pages_to_entities(pages).materialize()
        if checkpoint_entities:
            ents2.write_parquet(ent_path, min_rows_per_file=100_000)
            with open(ent_marker, "w") as f:
                f.write("ok\n")
        t_extract = round(time.time() - t0, 2)
    if ents2 is None:
        ents2 = ray.data.read_parquet(ent_path)
    res = tile_entities(ents2, out_dir, target, minimum, resume)
    res["timings"]["extract"] = t_extract
    res["entities_ds"] = ents2  # reusable in-memory handle for callers
    return res


def tiled_summary(out_dir: str):
    """Per-tile counts from the written partitions (tile, n rows)."""
    import ray

    ds = ray.data.read_parquet(mf.data_dir(out_dir))
    return ds.groupby("tile").count()


def write_qts(entities_ds, out_path: str) -> None:
    """S10: qts-only output — the (id -> qt) result stream as its own
    artifact (writefile.go:223-235)."""
    cols = [c for c in ("entity_id", "url", "name", "qt") if c in
            entities_ds.schema().names]
    entities_ds.select_columns(cols).write_parquet(out_path)


def resort_by_id(out_dir: str, group_size: int = 8000):
    """O2: inverse shuffle — tiled layout back to id order in uniform
    blocks (blocksort/byelementid.go:18-53; groupSize 8000 as the
    reference's block size)."""
    import ray

    ds = ray.data.read_parquet(mf.data_dir(out_dir))
    n = ds.count()
    blocks = max(1, n // group_size)
    out = ds.sort("entity_id").repartition(blocks)
    path = os.path.join(out_dir, "byid")
    out.write_parquet(path)
    return path


def _ordered_tiles_and_paths(out_dir: str):
    """Tile ids in ascending qt (pre-)order with each tile's file list.
    The manifest is the partition index (readfile/partial.go:60-76 reads
    its block index the same way); tiles on disk but not in the manifest
    are uncommitted and skipped.  Falls back to the directory listing
    for manifest-less layouts (bare write_tiled output in tests)."""
    import posixpath

    from ..state import fsio

    fs, root = fsio.get_fs(out_dir)
    dd = mf.data_dir(root)
    man = mf.read_manifest(out_dir)
    if man is not None:
        tiles = sorted(int(t) for t in man.column("tile").to_pylist())
    else:
        tiles = sorted(
            int(posixpath.basename(p).split("=", 1)[1])
            for p in fs.ls(dd, detail=False)
            if posixpath.basename(p).startswith("tile="))
    # scheme-qualify non-local paths so remote read tasks and Ray Data's
    # read_parquet resolve the same backend (local paths stay plain —
    # the zero-overhead fast path).  Per-process backends (memory://)
    # are driver-visible only, same caveat as the sink contract.
    proto = fs.protocol if isinstance(fs.protocol, str) else fs.protocol[0]
    local = proto in ("file", "local")
    per_tile = []
    for t in tiles:
        d = fsio.join(dd, f"tile={t}")
        if not fs.isdir(d):
            continue
        files = sorted(p for p in fs.ls(d, detail=False)
                       if p.endswith(".parquet"))
        if not local:
            files = [fs.unstrip_protocol(p) for p in files]
        if files:
            per_tile.append((t, files))
    return per_tile


def _read_tile_impl(paths, columns):
    import pyarrow.parquet as _pq

    from ..state import fsio

    tabs = []
    for p in paths:
        fs, pp = fsio.get_fs(p)
        with fs.open(pp, "rb") as f:
            tabs.append(_pq.read_table(f, columns=columns))
    return tabs[0] if len(tabs) == 1 else pa.concat_tables(
        tabs, promote_options="default")


_read_tile_remote = None


def iter_tiled_ordered(out_dir: str, columns=None, window_tiles: int = 32):
    """O3 block-order restore, STREAMED: yield ``(tile, pyarrow.Table)``
    in ascending qt order with O(window) memory — the Ray analogue of
    the reference's index-ordered partial reader (readfile/partial.go:
    60-76), which streams blocks to the consumer in block-index order
    without ever holding the file.

    ``window_tiles`` read tasks are kept in flight ahead of the
    consumer (submit-ahead prefetch); results are taken strictly in
    tile order, so the pipeline overlaps read and consume while the
    driver holds at most one tile's table plus the window's object
    refs.  The corpus is never materialized."""
    import ray

    global _read_tile_remote
    if _read_tile_remote is None:
        _read_tile_remote = ray.remote(_read_tile_impl)

    per_tile = _ordered_tiles_and_paths(out_dir)
    inflight: list = []
    nxt = 0
    while nxt < len(per_tile) or inflight:
        while nxt < len(per_tile) and len(inflight) < window_tiles:
            t, fs = per_tile[nxt]
            inflight.append((t, _read_tile_remote.remote(fs, columns)))
            nxt += 1
        t, ref = inflight.pop(0)
        yield t, ray.get(ref)


def read_tiled_ordered(out_dir: str, columns=None):
    """Tiled output as a (lazy Dataset, ascending tile list) pair — the
    reference's block-order invariant (writefile.go:50-52).  Files are
    listed in qt order and every batch carries rows of a single tile,
    but Ray's streaming executor does NOT pin inter-block order on the
    returned handle; consumers that need strict qt pre-order iterate
    :func:`iter_tiled_ordered` (streamed, windowed), or window by the
    ``tile`` value present in every row.  No materialization — the
    handle streams."""
    import ray

    per_tile = _ordered_tiles_and_paths(out_dir)
    tiles = [t for t, _fs in per_tile]
    paths = [p for _t, fs in per_tile for p in fs]
    return ray.data.read_parquet(paths, columns=columns), tiles
