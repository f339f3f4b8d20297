"""Incremental updates: applying change batches 1..k must equal
recomputing from the mutated entity set (J7-J10 lattice + lineage)."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from osmquadtree_depreceated_ray.pipelines import update as up
from osmquadtree_depreceated_ray.state import manifest as mf


@pytest.fixture(scope="module")
def updated(ray_session, fixture_dir, tmp_path_factory):
    from osmquadtree_depreceated_ray.pipelines import tile as tp

    out = str(tmp_path_factory.mktemp("upd"))
    tp.tile_pages(os.path.join(fixture_dir, "pages.parquet"), out,
                  target=300, minimum=20)
    changes = pq.read_table(os.path.join(fixture_dir, "changes.parquet"))
    stats = []
    for seq in sorted(set(changes.column("seq").to_pylist())):
        stats.append(up.apply_change_batch(out, changes, seq))
    return out, changes, stats


def _golden_entities(fixture_dir, changes):
    ents = pq.read_table(
        os.path.join(fixture_dir, "geo_entities.parquet"),
        columns=["entity_id", "lon", "lat"],
    ).to_pandas().set_index("entity_id")
    df = changes.to_pandas().sort_values(["seq"])
    for _, r in df.iterrows():
        e = int(r["entity_id"])
        if r["change"] == 1:
            ents = ents.drop(index=e, errors="ignore")
        else:  # modify / create both end with the new payload present
            ents.loc[e] = (int(r["lon"]), int(r["lat"]))
    return ents.sort_index()


def test_snapshot_equals_recompute(updated, fixture_dir):
    out, changes, stats = updated
    assert all(s["records"] > 0 for s in stats)
    snap = up.read_snapshot(out).to_pandas().set_index("entity_id").sort_index()
    golden = _golden_entities(fixture_dir, changes)
    assert len(snap) == len(golden)
    assert (snap.index == golden.index).all()
    assert (snap["lon"].to_numpy() == golden["lon"].to_numpy()).all()
    assert (snap["lat"].to_numpy() == golden["lat"].to_numpy()).all()


def test_lineage_consistent_with_snapshot(updated):
    out, _, _ = updated
    lineage = mf.read_lineage(out).to_pandas().set_index("entity_id")["tile"]
    snap = up.read_snapshot(out).to_pandas().set_index("entity_id")
    joined = snap.join(lineage.rename("lin_tile"), how="left")
    assert joined["lin_tile"].notna().all()
    assert (joined["tile"].astype("int64") == joined["lin_tile"].astype("int64")).all()


def test_affected_tiles_bounded(updated):
    out, _, stats = updated
    man = mf.read_manifest(out).to_pandas()
    for s in stats:
        assert 0 < s["affected_tiles"] <= len(man)


def test_compaction_preserves_snapshot(updated):
    out, changes, _ = updated
    before = up.read_snapshot(out).to_pandas().set_index("entity_id").sort_index()
    res = up.compact(out)
    assert res["rewritten_tiles"] > 0 and res["retired_files"] > 0
    after = up.read_snapshot(out).to_pandas().set_index("entity_id").sort_index()
    assert len(after) == len(before)
    assert (after.index == before.index).all()
    for c in ("lon", "lat", "qt"):
        assert (after[c].to_numpy() == before[c].to_numpy()).all()
    # second compaction is a no-op
    res2 = up.compact(out)
    assert res2 == {"rewritten_tiles": 0, "retired_files": 0}


def test_interleaved_compaction(ray_session, fixture_dir, tmp_path_factory):
    """apply seq1 -> compact -> apply seq2..3 -> snapshot must still equal
    the recompute golden (compaction is transparent to later batches)."""
    import pyarrow.parquet as pq2

    from osmquadtree_depreceated_ray.pipelines import tile as tp

    out = str(tmp_path_factory.mktemp("upd2"))
    tp.tile_pages(os.path.join(fixture_dir, "pages.parquet"), out,
                  target=300, minimum=20)
    changes = pq2.read_table(os.path.join(fixture_dir, "changes.parquet"))
    seqs = sorted(set(changes.column("seq").to_pylist()))
    up.apply_change_batch(out, changes, seqs[0])
    up.compact(out)
    for seq in seqs[1:]:
        up.apply_change_batch(out, changes, seq)
    snap = up.read_snapshot(out).to_pandas().set_index("entity_id").sort_index()
    golden = _golden_entities(fixture_dir, changes)
    assert len(snap) == len(golden)
    assert (snap.index == golden.index).all()
    assert (snap["lon"].to_numpy() == golden["lon"].to_numpy()).all()
    # final compaction converges too
    up.compact(out)
    snap2 = up.read_snapshot(out).to_pandas().set_index("entity_id").sort_index()
    assert (snap2.index == snap.index).all()
    assert (snap2["lon"].to_numpy() == snap["lon"].to_numpy()).all()


def test_bucketed_lineage_touches_only_affected(ray_session, tmp_path):
    """Applying a batch against a large lineage must read/rewrite ONLY
    the batch's entity-id buckets — untouched bucket files stay
    byte-identical (mtime+size), i.e. the store is never loaded whole
    (reference: locationscache/pbfindex.go:34-305)."""
    import pyarrow as pa

    out = str(tmp_path / "big")
    os.makedirs(out, exist_ok=True)
    n = 1_000_000
    eids = np.arange(n, dtype=np.int64)
    # a single root tile keeps the allocator trivial; lineage is what's
    # under test
    tiles = np.zeros(n, dtype=np.int64)
    for b in range(mf.LINEAGE_BUCKETS):
        m = mf.lineage_bucket(eids) == b
        mf.write_lineage_bucket(
            out, b, pa.table({"entity_id": pa.array(eids[m]),
                              "tile": pa.array(tiles[m])}))
    mf.write_manifest(out, np.array([0]), np.array([n]), state={})

    touched = [int(mf.lineage_bucket(np.int64(7))),
               int(mf.lineage_bucket(np.int64(7 + mf.LINEAGE_BUCKETS)))]
    before = {}
    for b in range(mf.LINEAGE_BUCKETS):
        d = mf.lineage_bucket_dir(out, b)
        f = os.path.join(d, "consolidated.parquet")
        before[b] = (os.path.getmtime(f), os.path.getsize(f))

    changes = pa.table({
        "entity_id": pa.array([7, 7 + mf.LINEAGE_BUCKETS], pa.int64()),
        "change": pa.array([4, 1], pa.int8()),
        "lon": pa.array([1000, 0], pa.int64()),
        "lat": pa.array([2000, 0], pa.int64()),
        "seq": pa.array([1, 1], pa.int64()),
    })
    res = up.apply_change_batch(out, changes, 1)
    assert res["records"] == 2

    for b in range(mf.LINEAGE_BUCKETS):
        d = mf.lineage_bucket_dir(out, b)
        f = os.path.join(d, "consolidated.parquet")
        after = (os.path.getmtime(f), os.path.getsize(f))
        if b in touched:
            assert after != before[b], b
        else:
            assert after == before[b], b
    # deleted id gone, modified id retained
    lt = mf.read_lineage_buckets(out, touched).to_pandas()
    assert 7 in lt["entity_id"].values
    assert (7 + mf.LINEAGE_BUCKETS) not in lt["entity_id"].values


def test_merged_delete_create_purges_old_tile(ray_session, fixture_dir,
                                              tmp_path_factory):
    """A k-way merge collapses Delete(seq1)∘Create(seq2) into one Create;
    when the create lands in a DIFFERENT tile, the old tile's base row
    must still be purged (apply emits Remove-in-old-tile, same as
    mod_move).  Direct tile reads after compaction must agree with the
    sequential path — snapshot equality alone hides the stale row."""
    import pyarrow as pa

    from osmquadtree_depreceated_ray.pipelines import tile as tp

    def build(out):
        tp.tile_pages(os.path.join(fixture_dir, "pages.parquet"), out,
                      target=300, minimum=20)

    out_a = str(tmp_path_factory.mktemp("dc_seq"))
    build(out_a)
    lin = mf.read_lineage(out_a).to_pandas()
    t1 = int(lin["tile"].iloc[0])
    other = lin[lin["tile"] != t1]
    e1 = int(lin[lin["tile"] == t1]["entity_id"].iloc[0])
    e2 = int(other["entity_id"].iloc[0])
    ents = pq.read_table(
        os.path.join(fixture_dir, "geo_entities.parquet"),
        columns=["entity_id", "lon", "lat"]).to_pandas().set_index("entity_id")
    lon2, lat2 = int(ents.loc[e2, "lon"]), int(ents.loc[e2, "lat"])

    def ch(seq, change, lon, lat):
        return pa.table({
            "seq": pa.array([seq], pa.int64()),
            "change": pa.array([change], pa.int8()),
            "entity_id": pa.array([e1], pa.int64()),
            "lon": pa.array([lon], pa.int64()),
            "lat": pa.array([lat], pa.int64()),
        })

    f_del = ch(1, up.CH_DELETE, 0, 0)
    f_cre = ch(2, up.CH_CREATE, lon2, lat2)

    up.apply_change_batch(out_a, f_del, 1)
    up.apply_change_batch(out_a, f_cre, 2)
    up.compact(out_a)

    out_b = str(tmp_path_factory.mktemp("dc_merged"))
    build(out_b)
    merged = up.merge_change_files([f_del, f_cre], seq=9)
    assert merged.num_rows == 1  # collapsed to the Create
    up.apply_change_batch(out_b, merged, 9)
    up.compact(out_b)

    for out in (out_a, out_b):
        old_dir = os.path.join(mf.data_dir(out), f"tile={t1}")
        ids = pq.read_table(old_dir, columns=["entity_id"]) \
            .column("entity_id").to_pylist()
        assert e1 not in ids, f"stale {e1} in old tile of {out}"
    # per-tile contents agree between the two paths
    for t in sorted(set(lin["tile"].tolist())):
        a = pq.read_table(os.path.join(mf.data_dir(out_a), f"tile={t}"),
                          columns=["entity_id", "lon", "lat"]).to_pandas() \
            .sort_values("entity_id").reset_index(drop=True)
        b = pq.read_table(os.path.join(mf.data_dir(out_b), f"tile={t}"),
                          columns=["entity_id", "lon", "lat"]).to_pandas() \
            .sort_values("entity_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_multifile_merge_equals_sequential(ray_session, fixture_dir,
                                           tmp_path_factory):
    """k-way change-file merge (J9, changefiles.go:156-230): applying
    the merged batch once equals applying the files sequentially."""
    import pyarrow as pa
    import pyarrow.parquet as pq2

    from osmquadtree_depreceated_ray.pipelines import tile as tp

    changes = pq2.read_table(os.path.join(fixture_dir, "changes.parquet"))
    seqs = sorted(set(changes.column("seq").to_pylist()))
    files = [
        changes.filter(
            pa.compute.equal(changes.column("seq"), pa.scalar(s)))
        for s in seqs
    ]

    out_a = str(tmp_path_factory.mktemp("seq_apply"))
    tp.tile_pages(os.path.join(fixture_dir, "pages.parquet"), out_a,
                  target=300, minimum=20)
    for s in seqs:
        up.apply_change_batch(out_a, changes, s)
    snap_a = up.read_snapshot(out_a).to_pandas().set_index(
        "entity_id").sort_index()

    out_b = str(tmp_path_factory.mktemp("merged_apply"))
    tp.tile_pages(os.path.join(fixture_dir, "pages.parquet"), out_b,
                  target=300, minimum=20)
    merged = up.merge_change_files(files, seq=99)
    up.apply_change_batch(out_b, merged, 99)
    snap_b = up.read_snapshot(out_b).to_pandas().set_index(
        "entity_id").sort_index()

    assert (snap_a.index == snap_b.index).all()
    for c in ("lon", "lat", "qt"):
        assert (snap_a[c].to_numpy() == snap_b[c].to_numpy()).all()
    # lineage agrees too
    la = mf.read_lineage(out_a).to_pandas().set_index("entity_id")["tile"]
    lb = mf.read_lineage(out_b).to_pandas().set_index("entity_id")["tile"]
    assert la.sort_index().equals(lb.sort_index())


# ---------------------------------------------------------------- property:
# overlay == replay under random batches, k-way merges and compactions

_N_BASE = 1200  # find_qt_groups splits only stores of over 1000 rows
# ops draw from a small id window so that ids repeat across batches:
# base ids 1195..1200, ids 1201..1210 exist only once created
_IDS = st.integers(_N_BASE - 5, _N_BASE + 10)
_COLS = ["entity_id", "lon", "lat", "qt", "tile"]


@pytest.fixture(scope="module")
def pristine(ray_session, tmp_path_factory):
    import pyarrow as pa
    import ray

    from osmquadtree_depreceated_ray.functions.quadtree import calculate_point
    from osmquadtree_depreceated_ray.pipelines.tile import tile_entities

    rng = np.random.default_rng(11)
    eid = np.arange(1, _N_BASE + 1, dtype=np.int64)
    lon = rng.integers(-1_700_000_000, 1_700_000_000, _N_BASE)
    lat = rng.integers(-800_000_000, 800_000_000, _N_BASE)
    ents = ray.data.from_arrow(pa.table({
        "entity_id": eid, "lon": lon, "lat": lat,
        "qt": calculate_point(lon, lat, 0.05, 18)}))
    out = str(tmp_path_factory.mktemp("prop") / "pristine")
    tile_entities(ents, out, target=150, minimum=20, resume=False)
    assert len(mf.read_manifest(out)) > 2
    live = {int(e): (int(x), int(y)) for e, x, y in zip(eid, lon, lat)}
    return out, live


def _parent_overlay(g: pd.DataFrame) -> pd.DataFrame:
    # the per-entity groupby overlay the anti-join replaced, verbatim
    # J9: latest seq wins per entity per tile; J8: code>2 replaces,
    # Delete/Remove drop, base row (code 0) survives otherwise
    g = g.sort_values(["entity_id", "seq", "change"])  # move pair: Unchanged(3) outranks Remove(2)
    last = g.groupby("entity_id", as_index=False).last()
    keep = last[(last["change"] == 0) | (last["change"] > 2)]
    return keep[["entity_id", "lon", "lat", "qt", "tile"]]


def _reference_snapshot(out) -> pd.DataFrame:
    base = pq.read_table(mf.data_dir(out),
                         columns=["entity_id", "lon", "lat", "qt", "tile"]
                         ).to_pandas()
    base["tile"] = pd.to_numeric(base["tile"].astype(str)).astype(np.int64)
    base["change"], base["seq"] = 0, -1
    cdir = os.path.join(out, "changes")
    parts = [base] + [pq.read_table(os.path.join(cdir, n)).to_pandas()
                      for n in sorted(os.listdir(cdir) if os.path.isdir(cdir)
                                      else [])]
    return _parent_overlay(pd.concat(parts, ignore_index=True))


def _replay_frame(live: dict, out) -> pd.DataFrame:
    from osmquadtree_depreceated_ray.functions.qttree import QtAllocator
    from osmquadtree_depreceated_ray.functions.quadtree import calculate_point

    eid = np.array(sorted(live), dtype=np.int64)
    lon = np.array([live[e][0] for e in eid], dtype=np.int64)
    lat = np.array([live[e][1] for e in eid], dtype=np.int64)
    qt = calculate_point(lon, lat, 0.05, 18)
    alloc = QtAllocator(mf.read_manifest(out).column("tile").to_numpy())
    return pd.DataFrame({"entity_id": eid, "lon": lon, "lat": lat, "qt": qt,
                         "tile": alloc.assign(qt)})


def _rows(df: pd.DataFrame) -> np.ndarray:
    return df[_COLS].astype(np.int64).sort_values("entity_id").to_numpy()


def _batch(ops, seq, live):
    """One change batch from drawn ops; ``live`` is replayed in place."""
    import pyarrow as pa

    recs = []
    for kind, e, r in ops:
        rng = np.random.default_rng(r)
        far = (int(rng.integers(-1_700_000_000, 1_700_000_000)),
               int(rng.integers(-800_000_000, 800_000_000)))
        if kind == "delete":  # of a missing id too
            event("delete" if e in live else "delete of a missing id")
            recs.append((e, up.CH_DELETE, 0, 0))
            live.pop(e, None)
            continue
        if kind == "modify" and e in live:  # same tile: a 1-unit nudge
            pos, code = (live[e][0] + 1, live[e][1]), up.CH_MODIFY
            event("same-tile modify")
        elif kind == "move":  # cross-tile (or create when missing)
            pos, code = far, up.CH_MODIFY
            event("cross-tile move" if e in live else "modify of a missing id")
        else:  # create, also over a live entity elsewhere
            pos, code = far, up.CH_CREATE
            event("create over a live entity" if e in live else "create")
        recs.append((e, code) + pos)
        live[e] = pos
    e, c, x, y = (np.array(v, dtype=np.int64) for v in zip(*recs))
    return pa.table({"entity_id": e, "change": c.astype(np.int8),
                     "lon": x, "lat": y,
                     "seq": np.full(len(e), seq, np.int64)})


_OP = st.tuples(st.sampled_from(["delete", "modify", "move", "create"]),
                _IDS, st.integers(0, 2**20))
# a step is 1-2 batches (2 = k-way merged into one apply) + compact flag
_STEP = st.tuples(st.lists(st.lists(_OP, min_size=1, max_size=6),
                           min_size=1, max_size=2), st.booleans())


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(_STEP, min_size=1, max_size=3))
def test_overlay_equals_replay(pristine, tmp_path_factory, steps):
    """read_snapshot == pandas replay == the per-entity groupby overlay,
    through deletes (of missing ids too), same-tile modifies, cross-tile
    moves, creates over live entities, k-way merged batches and
    interleaved compaction; a read after compact equals the snapshot
    before it.  No path may schedule an exchange."""
    import shutil

    from osmquadtree_depreceated_ray.stages import shuffle

    src, live0 = pristine
    out = str(tmp_path_factory.mktemp("prop") / "store")
    shutil.copytree(src, out)
    live, seq = dict(live0), 0

    def no_exchange(*a, **k):
        raise AssertionError("update overlay scheduled an exchange")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shuffle, "bucketed_apply", no_exchange)
        for batches, do_compact in steps:
            tables = []
            for ops in batches:
                seq += 1
                tables.append(_batch(ops, seq, live))
            if len(tables) > 1:
                event("k-way merged batches")
                up.apply_change_batch(
                    out, up.merge_change_files(tables, seq=seq), seq)
            else:
                up.apply_change_batch(out, tables[0], seq)
            snap = _rows(up.read_snapshot(out).to_pandas())
            np.testing.assert_array_equal(snap, _rows(_replay_frame(live, out)))
            np.testing.assert_array_equal(snap, _rows(_reference_snapshot(out)))
            if do_compact:
                event("compact")
                up.compact(out)
                assert up._resolved_changes(out) is None
                np.testing.assert_array_equal(
                    _rows(up.read_snapshot(out).to_pandas()), snap)
