"""Hash-bucket shuffle helpers (stages/shuffle.py): grouped_agg /
distinct / salted_agg equivalence, including the hot-key skew case the
salting exists for; the two-input cogroup and ``broadcast_table``."""

import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from ray import cloudpickle

# _per_key below runs in Ray workers, which cannot import this test
# module: ship it by value
cloudpickle.register_pickle_by_value(sys.modules[__name__])


def _skewed_table(n=60_000, hot_share=0.6, seed=3):
    """One key owns ``hot_share`` of all rows; the rest are uniform."""
    rng = np.random.default_rng(seed)
    n_hot = int(n * hot_share)
    keys = np.concatenate([
        np.zeros(n_hot, np.int64),
        rng.integers(1, 500, n - n_hot),
    ])
    rng.shuffle(keys)
    return pa.table({
        "k": pa.array(keys),
        "v": pa.array(rng.integers(-100, 100, n).astype(np.int64)),
    })


def test_salted_agg_matches_grouped_agg(ray_session):
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import (
        grouped_agg, salted_agg,
    )

    t = _skewed_table()
    spec = {"sv": ("v", "sum"), "mn": ("v", "min"), "mx": ("v", "max"),
            "n": ("v", "size")}
    plain = grouped_agg(
        ray.data.from_arrow(t), ["k"], spec).to_pandas()
    salted = salted_agg(
        ray.data.from_arrow(t), ["k"], spec, n_salts=16).to_pandas()
    p = plain.sort_values("k").reset_index(drop=True)
    s = salted.sort_values("k").reset_index(drop=True)[p.columns]
    pd.testing.assert_frame_equal(p, s, check_dtype=False)
    # the hot key really was aggregated (0 owns 60% of rows)
    assert int(p.loc[p["k"] == 0, "n"].iloc[0]) == 36_000


def test_salted_agg_rejects_non_associative(ray_session):
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import salted_agg

    t = _skewed_table(1000)
    with pytest.raises(ValueError):
        salted_agg(ray.data.from_arrow(t), ["k"], {"m": ("v", "mean")})


def test_distinct_and_grouped_agg(ray_session):
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import (
        distinct, grouped_agg,
    )

    t = pa.table({
        "a": pa.array([1, 1, 2, 2, 2, 3], pa.int64()),
        "b": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
    })
    d = distinct(ray.data.from_arrow(t), ["a", "b"]).to_pandas()
    assert len(d) == 4
    g = grouped_agg(
        ray.data.from_arrow(t), ["a"], {"n": ("b", "size"), "s": ("b", "sum")}
    ).to_pandas().sort_values("a").reset_index(drop=True)
    assert g["n"].tolist() == [2, 3, 1]
    assert g["s"].tolist() == [2, 5, 3]


def test_bucketed_apply_one_bucket(ray_session):
    """n_buckets=1: every split task returns its single piece and the
    one reduce sees every row (no caller-side one-bucket branch)."""
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import bucketed_apply

    t = _skewed_table(3000)
    ds = ray.data.from_arrow([t.slice(0, 1000), t.slice(1000)])

    def count(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False).size()

    got = bucketed_apply(ds, ["k"], count, n_buckets=1).to_pandas()
    want = t.to_pandas().groupby("k", as_index=False).size()
    pd.testing.assert_frame_equal(
        got.sort_values("k").reset_index(drop=True), want,
        check_dtype=False)


def _cogroup_inputs():
    """Two relations on key ``k`` with different schemas, three blocks
    each; key 7 is left-only, key 8 right-only."""
    import ray

    left = pa.table({"k": pa.array([1, 2, 2, 3, 7, 1], pa.int64()),
                     "name": pa.array(list("abcdef"))})
    right = pa.table({"k": pa.array([1, 2, 3, 3, 8, 2], pa.int64()),
                      "v": pa.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0])})
    return (ray.data.from_arrow([left.slice(i, 2) for i in (0, 2, 4)]),
            ray.data.from_arrow([right.slice(i, 2) for i in (0, 2, 4)]),
            left.to_pandas(), right.to_pandas())


def _per_key(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
    nl = lf.groupby("k").size().rename("n_left")
    sv = rf.groupby("k")["v"].sum().rename("sum_v")
    out = pd.concat([nl, sv], axis=1).fillna(0).rename_axis("k")
    return out.reset_index().astype({"k": np.int64, "n_left": np.int64})


@pytest.mark.parametrize("n_buckets", [1, 3])
def test_cogroup_keeps_each_schema(ray_session, n_buckets):
    """A tuple input: fn gets one frame per input, each with only its
    own columns, and every key's rows of both inputs meet in one call."""
    from osmquadtree_depreceated_ray.stages.shuffle import bucketed_apply

    lds, rds, lf, rf = _cogroup_inputs()

    def join(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        assert list(l.columns) == ["k", "name"]
        assert list(r.columns) == ["k", "v"]
        return _per_key(l, r)

    got = bucketed_apply((lds, rds), ["k"], join, n_buckets=n_buckets)
    got = got.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, _per_key(lf, rf))


def test_cogroup_with_an_empty_input(ray_session):
    """An input without rows arrives as a zero-row frame in every
    bucket, so the other input's rows still reach fn."""
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import bucketed_apply

    lds, rds, lf, rf = _cogroup_inputs()
    empty = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "v": pa.array([], pa.float64())}))
    got = bucketed_apply((lds, empty), ["k"], _per_key, n_buckets=3)
    got = got.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, _per_key(lf, rf.iloc[:0]))


def test_cogroup_int64_payload_exact(ray_session):
    """A 63-bit int64 column of one input reaches fn as int64 with its
    exact value, although the other input has no such column (no
    shared schema, so no null padding to widen it to float64)."""
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import bucketed_apply

    big = 8322321492045987858  # > 2^53: float64 would round it
    qts = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "qt": pa.array([big, 5], pa.int64())}))
    names = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 3], pa.int64()), "name": pa.array(["x", "y"])}))

    def fn(q: pd.DataFrame, n: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": q["k"], "qt": q["qt"],
                             "dtype": str(q["qt"].dtype)})

    got = bucketed_apply((qts, names), ["k"], fn, n_buckets=2).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    assert got["dtype"].tolist() == ["int64", "int64"]
    assert [int(v) for v in got["qt"]] == [big, 5]


def test_cogroup_per_input_keys(ray_session):
    """``keys`` as one list per input: differently named key columns,
    int64 on one side and float64 on the other, route equal values to
    the same bucket."""
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import bucketed_apply

    a = np.arange(40, dtype=np.int64) % 13
    b = (np.arange(30, dtype=np.int64) % 17).astype(np.float64)
    lds = ray.data.from_arrow([pa.table({"a": pa.array(a[:20])}),
                               pa.table({"a": pa.array(a[20:])})])
    rds = ray.data.from_arrow(pa.table({"b": pa.array(b)}))

    def fn(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        nl = l.groupby("a").size().rename("n_a")
        nr = r.groupby(r["b"].astype(np.int64)).size().rename("n_b")
        out = pd.concat([nl, nr], axis=1).fillna(0).astype(np.int64)
        return out.rename_axis("key").reset_index()

    got = bucketed_apply((lds, rds), (["a"], ["b"]), fn, n_buckets=4)
    got = got.to_pandas().sort_values("key").reset_index(drop=True)
    # one row per key: its rows of both inputs met in one bucket
    assert got["key"].tolist() == list(range(17))
    want_a = np.bincount(a, minlength=17)
    want_b = np.bincount(b.astype(np.int64), minlength=17)
    assert got["n_a"].tolist() == want_a.tolist()
    assert got["n_b"].tolist() == want_b.tolist()


def test_split_task_count(ray_session, monkeypatch):
    """One split task per block group of each input: a single Dataset
    keeps its n x n grid, and a cogroup scatters each input on its
    own into the same buckets."""
    from osmquadtree_depreceated_ray.stages import shuffle

    lds, rds, _lf, _rf = _cogroup_inputs()
    tasks = []
    real = shuffle.scatter

    def scatter(split, split_args, n, *rest, **kw):
        tasks.append((len(split_args), n))
        return real(split, split_args, n, *rest, **kw)

    monkeypatch.setattr(shuffle, "scatter", scatter)
    shuffle.bucketed_apply(lds, ["k"], lambda g: g, n_buckets=2).count()
    assert tasks == [(2, 2)]
    del tasks[:]
    shuffle.bucketed_apply((lds, rds), ["k"], _per_key, n_buckets=2).count()
    assert tasks == [(2, 2), (2, 2)]


def test_cogroup_input_without_schema_raises(ray_session):
    """An input whose blocks carry no columns (an empty stream that
    lost its schema) cannot reach a fn that reads its columns: the
    reduce names it instead of failing inside fn."""
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import bucketed_apply

    lds, _rds, _lf, _rf = _cogroup_inputs()
    schemaless = ray.data.from_arrow(pa.table({}))
    with pytest.raises(Exception, match="cogroup input 1 has no block"):
        bucketed_apply((lds, schemaless), ["k"], _per_key,
                       n_buckets=2).count()


def test_broadcast_table_cap(ray_session):
    """count == cap broadcasts; cap + 1 rows go to the cogroup (None)."""
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import broadcast_table

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([5, 1, 3], pa.int64()),
        "v": pa.array([50, 10, 30], pa.int64())}))
    assert broadcast_table(ds, "k", cap=3) is not None
    assert broadcast_table(ds, "k", cap=2) is None


def test_broadcast_table_empty_reads_as_misses(ray_session):
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import broadcast_table

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}))
    found, (v,) = broadcast_table(ds, "k").lookup(
        np.array([-1, 0, 7], np.int64), "v")
    assert found.tolist() == [False, False, False]
    assert v.tolist() == [0, 0, 0]


def test_broadcast_table_probes_outside_key_range(ray_session):
    """Probes below the minimum and above the maximum key miss; values
    come back in probe order, 0 at a miss — on the driver and inside a
    map task alike."""
    import ray

    from osmquadtree_depreceated_ray.stages.shuffle import broadcast_table

    ds = ray.data.from_arrow([
        pa.table({"k": pa.array([30, 10], pa.int64()),
                  "v": pa.array([300, 100], pa.int64())}),
        pa.table({"k": pa.array([20], pa.int64()),
                  "v": pa.array([200], pa.int64())})])
    tbl = broadcast_table(ds, "k")
    probe = np.array([-5, 10, 15, 30, 99, 20], np.int64)
    found, (v,) = tbl.lookup(probe, "v")
    assert found.tolist() == [False, True, False, True, False, True]
    assert v.tolist() == [0, 100, 0, 300, 0, 200]

    def in_task(b: pa.Table) -> pa.Table:
        hit, (val,) = tbl.lookup(b.column("p").to_numpy(), "v")
        return pa.table({"hit": pa.array(hit), "v": pa.array(val)})

    got = ray.data.from_arrow(pa.table({"p": pa.array(probe)})).map_batches(
        in_task, batch_format="pyarrow").to_pandas()
    assert got["hit"].tolist() == found.tolist()
    assert got["v"].tolist() == v.tolist()
