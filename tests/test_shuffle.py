"""Hash-bucket shuffle helpers (stages/shuffle.py): grouped_agg /
distinct / salted_agg equivalence, including the hot-key skew case the
salting exists for."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


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
