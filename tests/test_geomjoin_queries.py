"""Oracle-family entries for the geometry/update join operators (J4,
J5, A4, O9, J9, T6): independent recomputes on sf0.001 (the exchange's
int64 exactness is pinned in tests/test_shuffle.py).  The DuckDB
hash-exact gate runs separately via tools/check_oracles.py."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_parent_tags_vs_numpy(ray_session):
    from osmquadtree_depreceated_ray.functions.quadtree import qt_common
    from osmquadtree_depreceated_ray.pipelines.queries_geomjoin import (
        _HW5, q_parent_tags,
    )
    from osmquadtree_depreceated_ray.sources import derive

    got = (q_parent_tags(SF).to_pandas()
           .sort_values("node_id").reset_index(drop=True))
    od = pq.read_table(f"{SF}/orders.parquet",
                       columns=["o_orderkey", "o_custkey"]).to_pandas()
    od["qt"] = derive.expected_qt(od["o_orderkey"].to_numpy())
    fold = od.groupby("o_custkey")["qt"].agg(["min", "max"])
    commons = dict(zip(
        fold.index,
        qt_common(fold["min"].to_numpy(), fold["max"].to_numpy())))
    hw_score = {h: s for h, s in zip(_HW5, (9, 7, 6, 3, 1))}
    best = (od.assign(hw=[_HW5[k % 5] for k in od["o_orderkey"]])
            .assign(sc=lambda d: d["hw"].map(hw_score))
            .sort_values("sc").groupby("o_custkey")["hw"].last().to_dict())
    for r in got.itertuples(index=False):
        ck = int(r.node_id)
        if ck in commons:
            assert r.qt == commons[ck], ck
            want_hw = best[ck] if ck % 11 == 0 else ""
        else:
            assert r.qt == derive.expected_qt(np.asarray([ck]))[0]
            want_hw = ""
        assert r.parent_highway == want_hw, ck
        assert bool(r.feature)


def test_rel_range_vs_pandas(ray_session):
    from osmquadtree_depreceated_ray.pipelines.queries_geomjoin import (
        q_rel_range,
    )

    got = (q_rel_range(SF).to_pandas()
           .sort_values("way_id").reset_index(drop=True))
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_suppkey"]).to_pandas()
    sup = pq.read_table(f"{SF}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    m = li.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    agg = m.groupby("l_orderkey").agg(
        lo=("s_nationkey", "min"), hi=("s_nationkey", "max"))
    routes = (m.assign(rt="R" + (m["l_suppkey"] % 7).astype(str))
              .groupby("l_orderkey")["rt"]
              .agg(lambda s: ";".join(sorted(set(s)))))
    assert len(got) == len(agg)
    assert (got["min_admin_level"].to_numpy()
            == agg["lo"].astype(str).to_numpy()).all()
    assert (got["max_admin_level"].to_numpy()
            == agg["hi"].astype(str).to_numpy()).all()
    assert (got["bus_routes"].to_numpy() == routes.to_numpy()).all()


def test_rel_qt_rounds_jacobi_equals_engine(ray_session):
    """The descending-k edge order makes each round Jacobi; recompute
    the 5 rounds with an explicit simultaneous update and compare."""
    from osmquadtree_depreceated_ray.functions.quadtree import (
        qt_common, qt_round,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_geomjoin import (
        q_rel_qt_rounds,
    )
    from osmquadtree_depreceated_ray.sources import derive

    got = q_rel_qt_rounds(SF).to_pandas().set_index("rel_id")["qt"]
    od = pq.read_table(f"{SF}/orders.parquet",
                       columns=["o_orderkey", "o_custkey"]).to_pandas()
    qt = qt_round(derive.expected_qt(od["o_custkey"].to_numpy()),
                  18 - od["o_orderkey"].to_numpy() % 6)
    fold = (pd.DataFrame({"ck": od["o_custkey"], "qt": qt})
            .groupby("ck")["qt"].agg(["min", "max"]))
    cur = {int(ck): -1 for ck in pq.read_table(
        f"{SF}/customer.parquet", columns=["c_custkey"]
    ).column("c_custkey").to_numpy()}
    for ck, c in zip(fold.index, qt_common(fold["min"].to_numpy(),
                                           fold["max"].to_numpy())):
        cur[int(ck)] = int(c)
    for _ in range(5):
        nxt = dict(cur)
        for k in cur:
            if k % 4 != 1 and (k - 1) in cur:
                nxt[k] = int(qt_common(np.asarray([cur[k]]),
                                       np.asarray([cur[k - 1]]))[0])
        cur = nxt
    want = {k: (0 if v == -1 else v) for k, v in cur.items()}
    assert len(got) == len(want)
    for k, v in want.items():
        assert got.loc[k] == v, k
    assert (got != 0).sum() > 0  # non-vacuous: deep spine commons exist


def test_complete_ways_invariants(ray_session):
    from osmquadtree_depreceated_ray.pipelines.queries_geomjoin import (
        _NAT_OFF, _O9_BBOX, _REG_OFF, q_complete_ways,
    )
    from osmquadtree_depreceated_ray.sources import derive

    got = q_complete_ways(SF).to_pandas()
    nodes = set(got[got["kind"] == "node"]["id"])
    ways = set(got[got["kind"] == "way"]["id"])
    rels = set(got[got["kind"] == "rel"]["id"])
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_linenumber"]).to_pandas()
    li["key"] = li["l_orderkey"] * 8 + li["l_linenumber"]
    lon, lat = derive.derive_lonlat(li["key"].to_numpy())
    minx, miny, maxx, maxy = _O9_BBOX
    inb = ((lon >= minx) & (lon <= maxx) & (lat >= miny) & (lat <= maxy))
    seed = set(li["key"].to_numpy()[inb])
    assert seed <= nodes  # every seed node retained
    # complete-ways: every kept way's refs are all in nodes
    kept = li[li["l_orderkey"].isin(ways)]
    assert set(kept["key"]) <= nodes
    # a way is kept iff it touches a seed node
    touch = set(li["l_orderkey"].to_numpy()[inb])
    assert ways == touch
    # super-rel closure reaches nation and region levels
    assert any(r >= _NAT_OFF and r < _REG_OFF for r in rels)
    assert any(r >= _REG_OFF for r in rels)


def test_change_merge_kway_matches_sequential(ray_session):
    """Merged-once == last-wins over (file, seq) — the lattice
    composition invariant (change/changefiles.go:156-230)."""
    from osmquadtree_depreceated_ray.pipelines.queries_geomjoin import (
        q_change_merge,
    )

    got = (q_change_merge(SF).to_pandas()
           .sort_values("entity_id").reset_index(drop=True))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "event_type",
                                "value"]).to_pandas()
    ev["file"] = ev["event_id"] % 3
    last = (ev.sort_values(["file", "event_id"])
            .drop_duplicates("user_id", keep="last")
            .sort_values("user_id"))
    assert (got["entity_id"].to_numpy() == last["user_id"].to_numpy()).all()
    assert (got["seq"].to_numpy() == last["event_id"].to_numpy()).all()
    assert (got["changetype"].to_numpy()
            == last["event_type"].to_numpy()).all()


def test_serve_filter_vs_direct(ray_session):
    from osmquadtree_depreceated_ray.pipelines.queries_geomjoin import (
        _T6_BBOX, q_serve_filter,
    )
    from osmquadtree_depreceated_ray.sources import derive

    got = q_serve_filter(SF).to_pandas()
    part = pq.read_table(f"{SF}/part.parquet",
                         columns=["p_partkey"]).to_pandas()
    lon, lat = derive.derive_lonlat(part["p_partkey"].to_numpy())
    minx, miny, maxx, maxy = _T6_BBOX
    m = (lon >= minx) & (lon <= maxx) & (lat >= miny) & (lat <= maxy)
    want = np.sort(part["p_partkey"].to_numpy()[m])
    assert got["entity_id"].to_numpy().tolist() == want.tolist()
    assert (np.diff(got["entity_id"].to_numpy()) > 0).all()  # sorted


def test_text_digest_query(ray_session):
    import hashlib

    from osmquadtree_depreceated_ray.pipelines.queries_geomjoin import (
        q_text_digest,
    )

    got = (q_text_digest(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    docs = docs.sort_values("doc_id").reset_index(drop=True)
    want = [hashlib.sha256(t.encode("utf-8")).hexdigest()
            for t in docs["text"]]
    assert got["text_sha256"].tolist() == want
