"""Hand-worked cases for the benchmark's own references, and proof that
each workload check rejects a deliberately corrupted output.

No Ray and no program import: these run in well under a second.
"""

import numpy as np
import pandas as pd

import lb_check as ck


def qt_of(s: str) -> int:
    v = 0
    for i, ch in enumerate(s):
        v |= "ABCD".index(ch) << (61 - 2 * i)
    return v | len(s)


# ------------------------------------------------------------------ quadtree id

def test_qt_worked_example_big_ben():
    # SURVEY.md: z18 tile of (-0.1246000, 51.5007000)
    assert ck.qt_str(ck.ref_qt(-1_246_000, 515_007_000)) == "ADBDBDBDBBDABACBAD"


def test_qt_beyond_mercator_limit_is_root():
    # lat 89 N: mercator y = ln(tan(pi/4 * (1 + 89/90))) / pi = 1.51, past
    # even the level-1 tiles' 5% buffer (1.05), so only the root holds it
    assert ck.ref_qt(0, 890_000_000) == 0


def test_qt_buffer_decides_depth():
    # 10 E, 85.64 N: mercator y = 1.04.  The level-1 tile B (x in [0, 1],
    # y in [0, 1]) buffered by 5% of its width reaches 1.05 and holds the
    # point; its level-2 children (width 0.5) reach only 1.025
    assert ck.qt_str(ck.ref_qt(100_000_000, 856_400_000)) == "B"


def test_qt_ancestor_and_deepest_tile():
    q = np.array([qt_of("ADBDBD"), qt_of("CA"), qt_of("")])
    assert ck.qt_ancestor(q, 2).tolist() == [qt_of("AD"), qt_of("CA"), -1]
    tiles = np.array([qt_of(""), qt_of("A"), qt_of("ADB")])
    assert ck.deepest_tile(q, tiles).tolist() == [qt_of("ADB"), qt_of(""), qt_of("")]
    assert ck.deepest_tile(q, tiles[1:]).tolist() == [qt_of("ADB"), -1, -1]


# ------------------------------------------------------------- point in polygon

SQUARE = (np.array([0, 10, 10, 0, 0]), np.array([0, 0, 10, 10, 0]))
HOLE = (np.array([3, 7, 7, 3, 3]), np.array([3, 3, 7, 7, 3]))
# a U: the notch x in (3, 6), y in (3, 9) is outside
U = (np.array([0, 9, 9, 6, 6, 3, 3, 0, 0]), np.array([0, 0, 9, 9, 3, 3, 9, 9, 0]))


def test_pnpoly_square_with_hole():
    rings = [SQUARE, HOLE]
    assert ck.ref_point_in_poly(rings, 1, 1)
    assert ck.ref_point_in_poly(rings, 5, 2)       # between hole and edge
    assert not ck.ref_point_in_poly(rings, 5, 5)   # inside the hole
    assert not ck.ref_point_in_poly(rings, 11, 5)  # outside
    assert not ck.ref_point_in_poly(rings, -1, 5)


def test_pnpoly_concave():
    assert ck.ref_point_in_poly([U], 1, 6)        # left arm
    assert ck.ref_point_in_poly([U], 7, 6)        # right arm
    assert not ck.ref_point_in_poly([U], 4, 6)    # in the notch
    assert ck.ref_point_in_poly([U], 4, 1)        # base under the notch


def test_pip_pairs_and_corruption():
    polys = [[SQUARE, HOLE], [U]]
    ids, lon, lat = np.array([1, 2, 3, 4]), np.array([1, 5, 4, 7]), np.array([1, 5, 1, 6])
    ref = ck.ref_pip_pairs(polys, ids, lon, lat)
    assert ref == {(1, 0), (1, 1), (3, 0), (3, 1), (4, 0), (4, 1)}
    pairs = pd.DataFrame(sorted(ref), columns=["entity_id", "poly_id"])
    assert ck.check_pip(pairs, ids, ref) == []
    assert ck.check_pip(pairs.iloc[1:], ids, ref)  # one pair dropped


# -------------------------------------------------------------------- replay

BASE = pd.DataFrame({"entity_id": [1, 2, 3], "lon": [10, 20, 30], "lat": [11, 21, 31]})
DIFFS = pd.DataFrame({
    "seq": [1, 1, 1, 2, 2],
    "change": [1, 4, 5, 4, 1],
    "entity_id": [1, 2, 9, 9, 2],
    "lon": [0, 25, 90, 95, 0],
    "lat": [0, 26, 91, 96, 0],
})


def test_replay_by_hand():
    one = ck.replay_diffs(BASE, DIFFS, 1)
    assert one.values.tolist() == [[2, 25, 26], [3, 30, 31], [9, 90, 91]]
    two = ck.replay_diffs(BASE, DIFFS, 2)
    assert two.values.tolist() == [[3, 30, 31], [9, 95, 96]]
    assert ck.replay_diffs(BASE, DIFFS, 0).values.tolist() == BASE.values.tolist()


# ------------------------------------------------------- corrupted outputs

def tiled(points):
    """A correct tiled store for the points: manifest = the level-3
    ancestors plus the root, every row in its deepest manifest tile."""
    df = pd.DataFrame(points, columns=["entity_id", "lon", "lat"])
    df["qt"] = [ck.ref_qt(lo, la) for lo, la in zip(df["lon"], df["lat"])]
    tiles = np.unique(np.append(ck.qt_ancestor(df["qt"].to_numpy(), 3), 0))
    df["tile"] = ck.deepest_tile(df["qt"].to_numpy(), tiles)
    man = df.groupby("tile").size().reindex(tiles, fill_value=0)
    return df, pd.DataFrame({"tile": tiles, "count": man.to_numpy()})


POINTS = [(0, -1_246_000, 515_007_000), (1, -739_857_000, 407_484_000),
          (2, 1_396_917_000, 356_895_000), (3, 100_000_000, 856_400_000),
          (4, 0, 890_000_000), (5, -1_250_000, 515_000_000)]


def test_store_check_rejects_entity_in_wrong_tile():
    store, man = tiled(POINTS)
    sample = np.arange(len(store))
    assert ck.check_store(store, man, store[["entity_id", "lon", "lat"]], sample) == []
    bad = store.copy()
    # London's entity moved to New York's tile (manifest counts kept)
    bad.loc[0, "tile"] = bad.loc[1, "tile"]
    errs = ck.check_tiling(bad, man, sample)
    assert errs and "deepest manifest tile" in errs[0]


def test_store_check_rejects_wrong_qt_and_lost_row():
    store, man = tiled(POINTS)
    mentions = store[["entity_id", "lon", "lat"]]
    bad = store.copy()
    bad.loc[2, "qt"] = ck.qt_ancestor(bad["qt"].to_numpy(), 17)[2]
    assert ck.check_tiling(bad, man, np.arange(len(bad)))
    assert ck.check_store(store.iloc[1:], man, mentions, [0])


def test_bbox_check_rejects_missing_row():
    store, _ = tiled(POINTS)
    box = (-2_000_000, 510_000_000, 0, 520_000_000)
    got = ck.bbox_expected(store, box)
    assert sorted(got["entity_id"]) == [0, 5]
    assert ck.check_bbox(got, store, box) == []
    assert ck.check_bbox(got.iloc[:1], store, box)


def test_snapshot_check_rejects_unapplied_diff():
    df = pd.DataFrame(POINTS, columns=["entity_id", "lon", "lat"])
    diffs = pd.DataFrame({"seq": [1, 1], "change": [4, 1], "entity_id": [2, 3],
                          "lon": [1_396_917_100, 0], "lat": [356_895_100, 0]})
    want = ck.replay_diffs(df, diffs, 1)
    snap, _ = tiled(list(want.itertuples(index=False, name=None)))
    _, man = tiled(POINTS)
    snap["tile"] = ck.deepest_tile(snap["qt"].to_numpy(), man["tile"].to_numpy())
    sample = np.arange(len(snap))
    assert ck.check_snapshot(snap, want, man, sample, "snap") == []
    # the modify of entity 2 not applied
    stale = snap.copy()
    stale.loc[stale["entity_id"] == 2, ["lon", "lat"]] = [1_396_917_000, 356_895_000]
    assert ck.check_snapshot(stale, want, man, sample, "snap")
    # the delete of entity 3 not applied
    kept = pd.concat([snap, tiled([(3, 100_000_000, 856_400_000)])[0]], ignore_index=True)
    assert ck.check_snapshot(kept, want, man, np.arange(len(kept)), "snap")


def test_sql_check_rejects_altered_row():
    got = pd.DataFrame({"lang": ["de", "en"], "n": [3, 5], "s": [1.5, 2.0]})
    expected = ck.sql_rows(pd.DataFrame({"lang": ["en", "de"], "n": [5, 3], "s": [2, 1.5]}))
    assert ck.check_sql(got, expected, "q") == []
    bad = got.copy()
    bad.loc[1, "n"] = 6
    assert ck.check_sql(bad, expected, "q")


def test_benchmark_json_matches_the_metrics_printed():
    import json
    import os

    import lb_spec as spec

    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER
    # pip_join runs by hand only: its layer is measured by tile_build's
    # traced probe (README.md says why it is not in the list)
    assert [w["name"] for w in bench["workloads"]] == [
        w for w in spec.WORKLOADS if w != "pip_join"]
