"""Event-stream queries: tumbling windows, sessionization, last-wins
dedup, and the ChangeType-lattice apply (reference §2.8 + O7/J7-J9).

Ray Data has no event-time runtime; windows are expressed as grouped
computations over the partitioned log (groupby(user) + sorted pandas per
group), which is the documented mapping for stream-shaped references.
``value`` is aggregated as floor(value*1000+0.5) integer milli-units so
sums are order-independent.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.exchange import remote

SESSION_GAP_S = 1800


def _value_m(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 1000.0 + 0.5).astype(np.int64)


SQL_VALUE_M = "CAST(floor(value * 1000.0 + 0.5) AS BIGINT)"


# 8. tumbling window --------------------------------------------------------

def q_window_tumbling(sf_dir: str):
    import ray
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        ts = b.column("ts").to_numpy()
        # epoch-second integers, not timestamps: representation-identical
        # across engines (timestamp unit/zone handling varies by harness)
        hour = ts.astype("datetime64[h]").astype("datetime64[s]").astype(np.int64)
        df = pd.DataFrame(
            {
                "user_id": b.column("user_id").to_numpy(),
                "hour": hour,
                "value_m": _value_m(b.column("value").to_numpy()),
            }
        )
        g = df.groupby(["user_id", "hour"], as_index=False).agg(
            value_m=("value_m", "sum"), n=("value_m", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "hour"],
        {"value_m": ("value_m", "sum"), "n": ("n", "sum")},
    )


def sql_window_tumbling() -> str:
    return (
        "SELECT user_id, CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour, "
        f"CAST(SUM({SQL_VALUE_M}) AS BIGINT) AS value_m, COUNT(*) AS n "
        "FROM events GROUP BY user_id, date_trunc('hour', ts)"
    )


# 9. sessionization ---------------------------------------------------------

def q_sessionize(sf_dir: str):
    import ray

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across all users in the bucket
        g = g.sort_values(["user_id", "ts", "event_id"])
        gap = g.groupby("user_id")["ts"].diff().dt.total_seconds().fillna(0.0)
        brk = (gap > SESSION_GAP_S).astype("int64")
        g = g.assign(sid=brk.groupby(g["user_id"]).cumsum())
        out = g.groupby(["user_id", "sid"], as_index=False).agg(
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("event_id", "size"),
        )
        out = out.drop(columns=["sid"])
        # epoch-microsecond integers for cross-engine exactness
        out["session_start"] = out["session_start"].astype("datetime64[us]").astype("int64")
        out["session_end"] = out["session_end"].astype("datetime64[us]").astype("int64")
        return out

    from ..stages.shuffle import bucketed_apply

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )
    return bucketed_apply(ds, ["user_id"], sessions)


def sql_sessionize() -> str:
    return (
        "WITH g AS (SELECT user_id, ts, event_id, "
        "CASE WHEN ts - lag(ts) OVER w > INTERVAL 1800 SECOND THEN 1 ELSE 0 END AS brk "
        "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
        "s AS (SELECT user_id, ts, "
        "SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS sid FROM g) "
        "SELECT user_id, epoch_us(MIN(ts)) AS session_start, "
        "epoch_us(MAX(ts)) AS session_end, "
        "COUNT(*) AS n_events FROM s GROUP BY user_id, sid"
    )


# 10. last-wins dedup (O7: change-merge keep-latest semantics) --------------

def q_dedup_lastwins(sf_dir: str):
    import ray

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": b.column("user_id").to_numpy(),
                "event_type": b.column("event_type").to_pandas(),
                "ts": b.column("ts").to_numpy(),
                "event_id": b.column("event_id").to_numpy(),
                "value_m": _value_m(b.column("value").to_numpy()),
            }
        )
        # within-batch last-wins shrink before the shuffle
        df = df.sort_values(["ts", "event_id"]).groupby(
            ["user_id", "event_type"], as_index=False
        ).last()
        return pa.Table.from_pandas(df, preserve_index=False)

    def last(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        out = g.groupby(["user_id", "event_type"], as_index=False).last()
        return out[["user_id", "event_type", "event_id", "value_m"]]

    from ..stages.shuffle import bucketed_apply

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts", "event_id", "value"],
    )
    return bucketed_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "event_type"], last,
    )


def sql_dedup_lastwins() -> str:
    return (
        "SELECT user_id, event_type, event_id, "
        f"{SQL_VALUE_M} AS value_m FROM ("
        "SELECT *, row_number() OVER (PARTITION BY user_id, event_type "
        "ORDER BY ts DESC, event_id DESC) AS rn FROM events) WHERE rn = 1"
    )


# 11. ChangeType-lattice apply (J7/J8: orig (+) change) ---------------------
#
# base = customers; changes = events keyed by user_id with the reference's
# lattice codes (elements/elements.go:47-56): error->Delete(1),
# purchase->Create(5), others->Modify(4).  Last change per key wins (J9),
# then: Delete drops the base row; Modify updates acctbal if the base row
# exists; Create inserts/overwrites with the change value.

def q_change_apply(sf_dir: str):
    import ray

    def chg_partial(b: pa.Table) -> pa.Table:
        # map-side last-wins partial: lexsort (key, ts, event_id), keep
        # each key's final row, THEN derive code/value for just those
        # rows — pure numpy, no pandas sort/groupby in the hot path
        key = b.column("user_id").to_numpy()
        ts = b.column("ts").to_numpy()
        eid = b.column("event_id").to_numpy()
        order = np.lexsort((eid, ts, key))
        k_s = key[order]
        last_pos = np.flatnonzero(
            np.concatenate([k_s[1:] != k_s[:-1], [True]]))
        idx = order[last_pos]
        et = b.column("event_type").take(pa.array(idx)).to_pandas()
        code = np.where(
            et == "error", 1, np.where(et == "purchase", 5, 4)
        ).astype(np.int8)
        return pa.table({
            "key": pa.array(key[idx]),
            "code": pa.array(code),
            "new_c": pa.array(_value_m(b.column("value").to_numpy()[idx])),
            "ts": pa.array(ts[idx]),
            "event_id": pa.array(eid[idx]),
        })

    from ..stages.shuffle import bucketed_apply

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts", "event_id", "value"],
    )

    # fully distributed apply: cogroup change partials and base rows
    # by key and resolve the lattice per bucket — no driver-side
    # materialization, no broadcast (the reference's orig (+) change
    # merge is a co-partitioned zip, update/update.go:343-738)
    def base_rows(b: pa.Table) -> pa.Table:
        bal_c = np.floor(
            b.column("c_acctbal").to_numpy() * 100.0 + 0.5).astype(np.int64)
        return pa.table({"key": b.column("c_custkey"),
                         "bal_c": pa.array(bal_c)})

    changes = events.map_batches(chg_partial, batch_format="pyarrow")
    base = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    ).map_batches(base_rows, batch_format="pyarrow")

    def apply_bucket(chg: pd.DataFrame, basep: pd.DataFrame) -> pd.DataFrame:
        chg = chg.sort_values(["ts", "event_id"])
        chg = chg.groupby("key", as_index=False).last()[["key", "code", "new_c"]]
        m = basep.merge(chg, on="key", how="left")
        code = m["code"].fillna(0).to_numpy()
        keep = code != 1  # Delete drops
        upd = (code == 4) | (code == 5)
        new_c = m["new_c"].to_numpy(dtype=np.float64, na_value=0.0)
        val = np.where(upd, new_c, m["bal_c"].to_numpy()).astype(np.int64)
        out_base = pd.DataFrame({
            "key": m["key"].to_numpy()[keep],
            "bal_c": val[keep],
            "src": "base",
        })
        creates = chg[(chg["code"] == 5)
                      & (~chg["key"].isin(basep["key"]))]
        out_cr = pd.DataFrame({
            "key": creates["key"].to_numpy().astype(np.int64),
            "bal_c": creates["new_c"].to_numpy().astype(np.int64),
            "src": "created",
        })
        return pd.concat([out_base, out_cr], ignore_index=True)

    return bucketed_apply((changes, base), ["key"], apply_bucket)


def q_asof_join(sf_dir: str):
    """As-of join — the brief's named custom operator Ray Data lacks:
    each purchase event joined to its user's latest click at-or-before
    the purchase timestamp.  Partitioning assumption: co-locate by
    user_id (one bucketed shuffle), then per-bucket sorted backward
    search (pandas merge_asof, C-speed).  Ties on (user, ts) in the
    click stream are pre-collapsed to the max event_id so the match is
    deterministic on both engines.  Oracle: DuckDB's native ASOF JOIN."""
    import ray

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["event_type"] == "purchase"][
            ["user_id", "event_id", "ts"]]
        right = g[g["event_type"] == "click"][
            ["user_id", "event_id", "ts", "value_m"]]
        if not len(left) or not len(right):
            return pd.DataFrame({
                "user_id": pd.Series(dtype=np.int64),
                "event_id": pd.Series(dtype=np.int64),
                "ts_us": pd.Series(dtype=np.int64),
                "click_ts_us": pd.Series(dtype=np.int64),
                "click_value_m": pd.Series(dtype=np.int64),
                "gap_us": pd.Series(dtype=np.int64),
            })
        # deterministic tie-break: one click per (user, ts), max event_id
        right = right.sort_values(["user_id", "ts", "event_id"]).groupby(
            ["user_id", "ts"], as_index=False).last()
        right = right.rename(columns={"ts": "click_ts"})
        right["ts"] = right["click_ts"]
        m = pd.merge_asof(
            left.sort_values("ts"),
            right[["user_id", "ts", "click_ts", "value_m"]].sort_values("ts"),
            on="ts", by="user_id", direction="backward",
            allow_exact_matches=True,
        )
        m = m.dropna(subset=["click_ts"])
        ts_us = m["ts"].astype("datetime64[us]").astype("int64")
        ct_us = m["click_ts"].astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "user_id": m["user_id"].to_numpy(np.int64),
            "event_id": m["event_id"].to_numpy(np.int64),
            "ts_us": ts_us.to_numpy(),
            "click_ts_us": ct_us.to_numpy(),
            "click_value_m": m["value_m"].to_numpy(np.int64),
            "gap_us": (ts_us - ct_us).to_numpy(),
        })

    def pre(b: pa.Table) -> pa.Table:
        keep = pa.compute.is_in(
            b.column("event_type"),
            value_set=pa.array(["purchase", "click"]))
        t = b.filter(keep)
        return pa.table({
            "user_id": t.column("user_id"),
            "event_id": t.column("event_id"),
            "ts": t.column("ts"),
            "event_type": t.column("event_type"),
            "value_m": pa.array(_value_m(t.column("value").to_numpy())),
        })

    from ..stages.shuffle import bucketed_apply

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type", "value"],
    )
    return bucketed_apply(
        ds.map_batches(pre, batch_format="pyarrow"), ["user_id"], asof)


def sql_asof_join() -> str:
    return (
        "WITH r0 AS (SELECT user_id, ts, event_id, "
        f"{SQL_VALUE_M} AS value_m, "
        "ROW_NUMBER() OVER (PARTITION BY user_id, ts "
        "ORDER BY event_id DESC) AS rn "
        "FROM events WHERE event_type = 'click'), "
        "r AS (SELECT user_id, ts, value_m FROM r0 WHERE rn = 1), "
        "l AS (SELECT user_id, event_id, ts FROM events "
        "WHERE event_type = 'purchase') "
        "SELECT l.user_id, l.event_id, epoch_us(l.ts) AS ts_us, "
        "epoch_us(r.ts) AS click_ts_us, r.value_m AS click_value_m, "
        "epoch_us(l.ts) - epoch_us(r.ts) AS gap_us "
        "FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts >= r.ts"
    )


RANGE_HOUR_US = 3_600_000_000


def q_range_join(sf_dir: str):
    """Range (interval) join — the brief's other named custom operator:
    each error event joined to the session interval containing it.
    Sessions (gap rule, disjoint intervals) are computed by the same
    logic as q_sessionize; the interval join tiles the time axis into
    hour buckets — a session fans out one row per covered hour, an
    event lands in exactly its own hour — so co-location is a plain
    (user_id, hour) bucketed shuffle and the exact containment filter
    runs vectorized per bucket.  Partitioning assumption: intervals are
    bounded (sessions span few hours); unbounded intervals would need a
    broadcast side instead."""
    import ray

    def sessions_fanout(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        gap = g.groupby("user_id")["ts"].diff().dt.total_seconds().fillna(0.0)
        brk = (gap > SESSION_GAP_S).astype("int64")
        g = g.assign(sid=brk.groupby(g["user_id"]).cumsum())
        s = g.groupby(["user_id", "sid"], as_index=False).agg(
            session_start=("ts", "min"), session_end=("ts", "max"))
        start = s["session_start"].astype("datetime64[us]").astype("int64")
        end = s["session_end"].astype("datetime64[us]").astype("int64")
        h0 = (start // RANGE_HOUR_US).to_numpy()
        h1 = (end // RANGE_HOUR_US).to_numpy()
        reps = (h1 - h0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(s)), reps)
        hour = np.concatenate(
            [np.arange(a, b + 1) for a, b in zip(h0, h1)]
        ) if len(s) else np.zeros(0, np.int64)
        return pd.DataFrame({
            "user_id": s["user_id"].to_numpy(np.int64)[idx],
            "hour": hour,
            "session_start": start.to_numpy()[idx],
            "session_end": end.to_numpy()[idx],
        })

    def errors(b: pa.Table) -> pa.Table:
        t = b.filter(pa.compute.equal(b.column("event_type"), "error"))
        ts_us = t.column("ts").cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy()
        return pa.table({
            "user_id": t.column("user_id"),
            "hour": pa.array(ts_us // RANGE_HOUR_US),
            "event_id": t.column("event_id"),
            "ts_us": pa.array(ts_us),
        })

    def join_bucket(s: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        if not len(s) or not len(e):
            return pd.DataFrame({
                "user_id": pd.Series(dtype=np.int64),
                "event_id": pd.Series(dtype=np.int64),
                "ts_us": pd.Series(dtype=np.int64),
                "session_start": pd.Series(dtype=np.int64),
                "session_end": pd.Series(dtype=np.int64),
            })
        m = e.merge(s, on=["user_id", "hour"])
        m = m[(m["ts_us"] >= m["session_start"])
              & (m["ts_us"] <= m["session_end"])]
        return m[["user_id", "event_id", "ts_us",
                  "session_start", "session_end"]]

    from ..stages.shuffle import bucketed_apply

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id",
                                             "event_type"])
    sess = bucketed_apply(
        ds.select_columns(["user_id", "ts", "event_id"]),
        ["user_id"], sessions_fanout)
    errs = ds.map_batches(errors, batch_format="pyarrow")
    return bucketed_apply((sess, errs), ["user_id", "hour"], join_bucket)


def sql_range_join() -> str:
    return (
        "WITH g AS (SELECT user_id, ts, event_id, "
        "CASE WHEN ts - lag(ts) OVER w > INTERVAL 1800 SECOND THEN 1 "
        "ELSE 0 END AS brk "
        "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, "
        "event_id)), "
        "x AS (SELECT user_id, ts, SUM(brk) OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS sid FROM g), "
        "s AS (SELECT user_id, epoch_us(MIN(ts)) AS session_start, "
        "epoch_us(MAX(ts)) AS session_end FROM x GROUP BY user_id, sid) "
        "SELECT s.user_id, e.event_id, epoch_us(e.ts) AS ts_us, "
        "s.session_start, s.session_end "
        "FROM s JOIN events e ON e.user_id = s.user_id "
        "AND epoch_us(e.ts) BETWEEN s.session_start AND s.session_end "
        "WHERE e.event_type = 'error'"
    )


def sql_change_apply() -> str:
    return (
        "WITH lastchg AS (SELECT user_id AS key, "
        "CASE WHEN event_type = 'error' THEN 1 "
        "WHEN event_type = 'purchase' THEN 5 ELSE 4 END AS code, "
        f"{SQL_VALUE_M} AS new_c "
        "FROM (SELECT *, row_number() OVER (PARTITION BY user_id "
        "ORDER BY ts DESC, event_id DESC) AS rn FROM events) WHERE rn = 1) "
        "SELECT c_custkey AS key, "
        "CASE WHEN l.code IN (4, 5) THEN l.new_c "
        "ELSE CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT) END AS bal_c, "
        "'base' AS src "
        "FROM customer LEFT JOIN lastchg l ON c_custkey = l.key "
        "WHERE l.code IS NULL OR l.code != 1 "
        "UNION ALL "
        "SELECT l.key, l.new_c AS bal_c, 'created' AS src FROM lastchg l "
        "WHERE l.code = 5 AND l.key NOT IN (SELECT c_custkey FROM customer)"
    )


QUERIES = {
    "window_tumbling": q_window_tumbling,
    "sessionize": q_sessionize,
    "dedup_lastwins": q_dedup_lastwins,
    "change_apply": q_change_apply,
    "asof_join": q_asof_join,
    "range_join": q_range_join,
}

ORACLES = {
    "window_tumbling": sql_window_tumbling(),
    "sessionize": sql_sessionize(),
    "dedup_lastwins": sql_dedup_lastwins(),
    "change_apply": sql_change_apply(),
    "asof_join": sql_asof_join(),
    "range_join": sql_range_join(),
}


# 12. semi-structured props extraction (the engine's JSON-tag analogue of
# the reference's other_tags fold, makegeometries.go:23-41)

def q_props_extract(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        # vectorized JSON-field pull: one regex pass over the Arrow
        # string column (pandas C engine), no per-row json.loads
        props = b.column("props").to_pandas()
        k = props.str.extract(r'"k"\s*:\s*(-?\d+)', expand=False)
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "k": pa.array(k.astype(np.int64), pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "props"]
    )
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_props_extract() -> str:
    return (
        "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k "
        "FROM events"
    )


QUERIES["props_extract"] = q_props_extract
ORACLES["props_extract"] = sql_props_extract()


# grouped HLL: distinct users per day as mergeable sketches ------------------

def q_hll_group(sf_dir: str):
    """Grouped mergeable-sketch aggregation: HyperLogLog distinct-user
    estimate PER DAY over events — the per-key form of ``hll_distinct``.
    Map-side: one uint8[4096] register partial per (day, batch) row;
    the bucketed exchange merges with elementwise max (associative, so
    the same merge runs as the map-side combine), so the exchange moves
    O(days x tasks) fixed-size sketch rows however large the input.
    The exact per-day distinct (engine's own bucketed distinct + count)
    rides along, as in the global query.  Full-chain SQL oracle incl.
    the estimator (same dyadic-exact register-sum argument as
    ``sql_hll_distinct``)."""
    import ray

    from ..functions.sketch import HLL_M, hll_estimate, hll_partial
    from ..stages.shuffle import bucketed_apply, distinct, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def add_day(b: pa.Table) -> pa.Table:
        ts = b.column("ts").to_numpy()
        day = ts.astype("datetime64[D]").astype("datetime64[s]") \
            .astype(np.int64)
        return pa.table({"day": pa.array(day), "user_id": b.column("user_id")})

    days = ds.map_batches(add_day, batch_format="pyarrow")

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        ks, rs = [], []
        for day, g in df.groupby("day", sort=False):
            ks.append(day)
            rs.append(hll_partial(g["user_id"].to_numpy()).tobytes())
        return pa.table({"day": pa.array(np.asarray(ks, np.int64)),
                         "regs": pa.array(rs, pa.binary())})

    def merge_regs(g: pd.DataFrame) -> pd.DataFrame:
        def mx(s):
            a = np.frombuffer(b"".join(s), dtype=np.uint8)
            return a.reshape(len(s), HLL_M).max(axis=0).tobytes()

        return g.groupby("day", as_index=False, sort=False).agg(
            regs=("regs", mx))

    def fin(g: pd.DataFrame) -> pd.DataFrame:
        g = merge_regs(g)
        est, used = [], []
        for rb in g["regs"]:
            regs = np.frombuffer(rb, dtype=np.uint8)
            est.append(int(np.floor(hll_estimate(regs) + 0.5)))
            used.append(int((regs > 0).sum()))
        return pd.DataFrame({
            "day": g["day"].to_numpy(),
            "distinct_est": np.asarray(est, np.int64),
            "registers_used": np.asarray(used, np.int64),
        })

    sk = bucketed_apply(
        days.map_batches(partial, batch_format="pyarrow"),
        ["day"], fin, combine=merge_regs).to_pandas()
    ex = grouped_agg(
        distinct(days, ["day", "user_id"]),
        ["day"], {"exact_distinct": ("user_id", "size")}).to_pandas()
    out = sk.merge(ex, on="day")  # both sides O(days) — driver-small
    return pa.Table.from_pandas(
        out[["day", "distinct_est", "exact_distinct", "registers_used"]],
        preserve_index=False)


def sql_hll_group() -> str:
    smear = "\n".join(
        f"s{i} AS (SELECT k, register, rest, (x | (x >> {s})) AS x "
        f"FROM {'b' if i == 0 else f's{i - 1}'}),"
        for i, s in enumerate([1, 2, 4, 8, 16, 32])
    ).replace("(x | (x >> 1)) AS x FROM b", "(rest | (rest >> 1)) AS x FROM b")
    return (
        "WITH h AS (SELECT CAST(epoch(date_trunc('day', ts)) AS BIGINT) "
        "AS k, md5_number_lower(CAST(user_id AS VARCHAR)) AS hv "
        "FROM events), "
        "b AS (SELECT k, CAST(hv >> 52 AS BIGINT) AS register, "
        "(hv & ((CAST(1 AS UBIGINT) << 52) - 1)) * CAST(4096 AS UBIGINT) "
        "AS rest FROM h), "
        + smear +
        " r AS (SELECT k, register, CASE WHEN rest = 0 THEN 53 "
        "ELSE 64 - bit_count(x) + 1 END AS rho FROM s5), "
        "regs AS (SELECT k, register, MAX(rho) AS rho FROM r "
        "GROUP BY k, register), "
        "keys AS (SELECT DISTINCT k FROM h), "
        "full_regs AS (SELECT keys.k, t.r AS register, "
        "COALESCE(g.rho, 0) AS rho FROM keys CROSS JOIN range(0, 4096) t(r) "
        "LEFT JOIN regs g ON g.k = keys.k AND g.register = t.r), "
        "agg AS (SELECT k, SUM(POWER(2.0, -rho)) AS den, "
        "SUM(CASE WHEN rho = 0 THEN 1 ELSE 0 END) AS zeros, "
        "SUM(CASE WHEN rho > 0 THEN 1 ELSE 0 END) AS used FROM full_regs "
        "GROUP BY k), "
        "est AS (SELECT k, (0.7213/(1.0 + 1.079/4096.0)) * 4096.0 * 4096.0 "
        "/ den AS raw, zeros, used FROM agg), "
        "ex AS (SELECT CAST(epoch(date_trunc('day', ts)) AS BIGINT) AS k, "
        "COUNT(DISTINCT user_id) AS exact_distinct FROM events GROUP BY 1) "
        "SELECT est.k AS day, CAST(FLOOR((CASE WHEN raw <= 2.5*4096.0 "
        "AND zeros > 0 THEN 4096.0 * ln(4096.0/CAST(zeros AS DOUBLE)) "
        "ELSE raw END) + 0.5) AS BIGINT) AS distinct_est, "
        "ex.exact_distinct, CAST(used AS BIGINT) AS registers_used "
        "FROM est JOIN ex ON ex.k = est.k"
    )


QUERIES["hll_group"] = q_hll_group
ORACLES["hll_group"] = sql_hll_group()


# hopping (sliding) windows --------------------------------------------------

SLIDE_W = 7200   # window size (s)
SLIDE_S = 3600   # hop (s); W/S = replication factor


def q_window_sliding(sf_dir: str):
    """Hopping-window aggregate (size 2 h, hop 1 h): every event lands
    in W/S = 2 overlapping windows, identified by their start epoch.
    Streaming shape: per-batch replicate x2 + pre-aggregate (np.unique
    on window start), then the map-side-combined grouped exchange moves
    O(windows x tasks) partial rows — the standard distributed hopping
    window (tumbling = the W == S special case, ``window_tumbling``)."""
    import ray

    from ..stages.shuffle import grouped_agg

    reps = SLIDE_W // SLIDE_S

    def partial(b: pa.Table) -> pa.Table:
        ts = b.column("ts").to_numpy()
        hour = ts.astype("datetime64[h]").astype("datetime64[s]") \
            .astype(np.int64)
        vm = _value_m(b.column("value").to_numpy())
        ws = np.concatenate(
            [hour - k * SLIDE_S for k in range(reps)])
        vms = np.tile(vm, reps)
        vals, inv, counts = np.unique(
            ws, return_inverse=True, return_counts=True)
        sums = np.bincount(inv, weights=vms.astype(np.float64),
                           minlength=len(vals)).astype(np.int64)
        return pa.table({
            "win_start": pa.array(vals),
            "n": pa.array(counts.astype(np.int64)),
            "value_m": pa.array(sums),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"])
    return grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["win_start"],
        {"n": ("n", "sum"), "value_m": ("value_m", "sum")},
    )


def sql_window_sliding() -> str:
    ks = ", ".join(str(k) for k in range(SLIDE_W // SLIDE_S))
    return (
        "WITH e AS (SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) "
        f"AS hr, {SQL_VALUE_M} AS vm FROM events), "
        f"r AS (SELECT hr - k * {SLIDE_S} AS win_start, vm "
        f"FROM e, UNNEST([{ks}]) t(k)) "
        "SELECT win_start, COUNT(*) AS n, "
        "CAST(SUM(vm) AS BIGINT) AS value_m FROM r GROUP BY win_start"
    )


QUERIES["window_sliding"] = q_window_sliding
ORACLES["window_sliding"] = sql_window_sliding()


# trajectory steps: per-user ordered movement ---------------------------------

def q_trajectory(sf_dir: str):
    """Per-user trajectory steps: each user's events ordered by time,
    with locations derived from the event id, emitted as consecutive
    steps (user_id, seq, dt_us, dist2) — the GPS-trace shape every
    movement pipeline reduces to (speed / dwell / path-length are
    per-step rollups of exactly these columns).

    One bucketed exchange on user_id; inside a bucket the step
    derivation is a single sort + vectorized shift (no per-user loop).
    dist2 is DOUBLE: consecutive points are unconstrained, so the
    squared distance can exceed int64 — both engines compute the same
    two IEEE multiplies + add on identical int-valued doubles."""
    import ray

    from ..sources import derive
    from ..stages.shuffle import bucketed_apply

    def prep(b: pa.Table) -> pa.Table:
        eid = b.column("event_id").to_numpy().astype(np.int64)
        lon, lat = derive.derive_lonlat(eid)
        ts_us = b.column("ts").to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        return pa.table({
            "user_id": b.column("user_id"),
            "event_id": pa.array(eid),
            "ts_us": pa.array(ts_us),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        })

    def steps(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({
                "user_id": pd.Series(dtype=np.int64),
                "seq": pd.Series(dtype=np.int64),
                "dt_us": pd.Series(dtype=np.int64),
                "dist2": pd.Series(dtype=np.float64)})
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="stable")
        u = g["user_id"].to_numpy()
        same = np.concatenate([[False], u[1:] == u[:-1]])
        ts = g["ts_us"].to_numpy()
        lon = g["lon"].to_numpy().astype(np.float64)
        lat = g["lat"].to_numpy().astype(np.float64)
        dt = np.empty_like(ts)
        dt[1:] = ts[1:] - ts[:-1]
        dlon = np.empty_like(lon)
        dlat = np.empty_like(lat)
        dlon[1:] = lon[1:] - lon[:-1]
        dlat[1:] = lat[1:] - lat[:-1]
        seq = (pd.Series(np.ones(len(g), np.int64))
               .groupby(u, sort=False).cumsum().to_numpy())
        out = pd.DataFrame({
            "user_id": u, "seq": seq - 1,
            "dt_us": dt, "dist2": dlon * dlon + dlat * dlat,
        })
        return out[same]

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"])
    prepped = ds.map_batches(prep, batch_format="pyarrow")
    return bucketed_apply(prepped, ["user_id"], steps)


def sql_trajectory() -> str:
    from ..sources import derive

    lon, lat = derive.sql_lonlat_expr("event_id")
    return (
        f"WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS ts_us, "
        f"{lon} AS lon, {lat} AS lat FROM events), "
        "s AS (SELECT user_id, "
        "row_number() OVER w AS rn, "
        "ts_us - LAG(ts_us) OVER w AS dt_us, "
        "CAST(lon - LAG(lon) OVER w AS DOUBLE) * "
        "CAST(lon - LAG(lon) OVER w AS DOUBLE) + "
        "CAST(lat - LAG(lat) OVER w AS DOUBLE) * "
        "CAST(lat - LAG(lat) OVER w AS DOUBLE) AS dist2 "
        "FROM e WINDOW w AS (PARTITION BY user_id "
        "ORDER BY ts_us, event_id)) "
        "SELECT user_id, rn - 1 AS seq, dt_us, dist2 FROM s WHERE rn > 1"
    )


QUERIES["trajectory"] = q_trajectory
ORACLES["trajectory"] = sql_trajectory()


# funnel analysis ------------------------------------------------------------

FUNNEL_STEPS = ("view", "click", "purchase")


def q_funnel(sf_dir: str):
    """Ordered-funnel analysis: how many users complete
    view -> click -> purchase with each step STRICTLY after the
    previous (the classic product-analytics query).  One bucketed
    exchange on user_id; inside each bucket the three step times are
    vectorized merges (per-user min of step 1, min step 2 after it,
    min step 3 after that) — no per-user Python loop.  The final count
    per step is O(steps) rows."""
    import ray

    from ..stages.shuffle import bucketed_apply

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"])

    def pre(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.is_in(
            b.column("event_type"),
            value_set=pa.array(list(FUNNEL_STEPS))))

    def funnel_counts(g: pd.DataFrame) -> pd.DataFrame:
        # per-user first step-k time, each strictly after step k-1
        prev = None
        counts = []
        for step in FUNNEL_STEPS:
            e = g[g["event_type"] == step][["user_id", "ts"]]
            if prev is not None:
                e = e.merge(prev, on="user_id")
                e = e[e["ts"] > e["prev_ts"]][["user_id", "ts"]]
            cur = e.groupby("user_id", as_index=False)["ts"].min()
            counts.append(len(cur))
            prev = cur.rename(columns={"ts": "prev_ts"})
        return pd.DataFrame({
            "step": np.arange(1, len(FUNNEL_STEPS) + 1, dtype=np.int64),
            "stage": list(FUNNEL_STEPS),
            "users": np.asarray(counts, np.int64),
        })

    # bucket outputs are partial per-step user counts: grouped_agg
    # sums them across buckets (map-side combinable)
    from ..stages.shuffle import grouped_agg

    per_bucket = bucketed_apply(
        ds.map_batches(pre, batch_format="pyarrow"),
        ["user_id"], funnel_counts)
    out = grouped_agg(per_bucket, ["step", "stage"],
                      {"users": ("users", "sum")}).to_pandas()
    out = out.sort_values("step", kind="stable")
    return pa.Table.from_pandas(
        out[["step", "stage", "users"]], preserve_index=False)


def sql_funnel() -> str:
    return (
        "WITH t1 AS (SELECT user_id, MIN(ts) AS ts1 FROM events "
        f"WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY 1), "
        "t2 AS (SELECT e.user_id, MIN(e.ts) AS ts2 FROM events e "
        "JOIN t1 ON t1.user_id = e.user_id AND e.ts > t1.ts1 "
        f"WHERE e.event_type = '{FUNNEL_STEPS[1]}' GROUP BY 1), "
        "t3 AS (SELECT e.user_id, MIN(e.ts) AS ts3 FROM events e "
        "JOIN t2 ON t2.user_id = e.user_id AND e.ts > t2.ts2 "
        f"WHERE e.event_type = '{FUNNEL_STEPS[2]}' GROUP BY 1) "
        f"SELECT CAST(1 AS BIGINT) AS step, '{FUNNEL_STEPS[0]}' AS stage, "
        "COUNT(*) AS users FROM t1 "
        f"UNION ALL SELECT 2, '{FUNNEL_STEPS[1]}', COUNT(*) FROM t2 "
        f"UNION ALL SELECT 3, '{FUNNEL_STEPS[2]}', COUNT(*) FROM t3 "
        "ORDER BY step"
    )


QUERIES["funnel"] = q_funnel
ORACLES["funnel"] = sql_funnel()


# cohort retention -----------------------------------------------------------


def q_retention(sf_dir: str):
    """Cohort retention: users grouped by their first-activity day
    (cohort), counted distinct per day-offset since that day — the
    standard retention triangle.  One bucketed exchange on user_id
    computes each user's cohort and distinct offsets vectorized; the
    (cohort, offset) partial counts are map-side-combined into the
    final grouped sum, so the second exchange moves
    O(cohorts x offsets x tasks) rows."""
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def add_day(b: pa.Table) -> pa.Table:
        ts = b.column("ts").to_numpy()
        day = ts.astype("datetime64[D]").astype(np.int64)
        return pa.table({"user_id": b.column("user_id"),
                         "day": pa.array(day)})

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        cohort = g.groupby("user_id")["day"].transform("min")
        out = pd.DataFrame({
            "cohort": cohort.to_numpy(),
            "offset": (g["day"] - cohort).to_numpy(),
            "user_id": g["user_id"].to_numpy(),
        }).drop_duplicates()
        return (out.groupby(["cohort", "offset"], as_index=False)
                .agg(users=("user_id", "size")))

    per_bucket = bucketed_apply(
        ds.map_batches(add_day, batch_format="pyarrow"),
        ["user_id"], per_user)
    out = grouped_agg(per_bucket, ["cohort", "offset"],
                      {"users": ("users", "sum")}).to_pandas()
    out = out.sort_values(["cohort", "offset"], kind="stable")
    out["users"] = out["users"].astype(np.int64)
    return pa.Table.from_pandas(
        out[["cohort", "offset", "users"]], preserve_index=False)


def sql_retention() -> str:
    return (
        "WITH d AS (SELECT user_id, CAST(epoch(date_trunc('day', ts)) "
        "/ 86400 AS BIGINT) AS day FROM events), "
        "c AS (SELECT user_id, MIN(day) AS cohort FROM d GROUP BY 1) "
        "SELECT c.cohort, d.day - c.cohort AS \"offset\", "
        "COUNT(DISTINCT d.user_id) AS users "
        "FROM d JOIN c ON c.user_id = d.user_id "
        "GROUP BY 1, 2 ORDER BY 1, 2"
    )


QUERIES["retention"] = q_retention
ORACLES["retention"] = sql_retention()


# ------------------------------- Markov transition matrix (clickstream)
#
# Consecutive event-type pairs per user (ordered by ts, event_id) ->
# global (src, dst) counts + row-conditional probabilities — the
# clickstream transition matrix behind next-event prediction and
# anomaly scoring.  Pairing happens inside the per-user exchange
# (vectorized shift, no per-row loop); the pair stream pre-aggregates
# per bucket so the second exchange carries O(|types|^2) rows, and the
# probability is ONE integer division per row (hash-exact vs DuckDB).

def q_transitions(sf_dir: str):
    """(src, dst, n, p): transition counts + P(dst | src)."""
    import ray

    from ..stages.shuffle import bucketed_apply

    def pair_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        nxt = g.groupby("user_id")["event_type"].shift(-1)
        m = nxt.notna()
        out = (pd.DataFrame({"src": g["event_type"][m],
                             "dst": nxt[m]})
               .groupby(["src", "dst"], sort=False).size()
               .reset_index(name="n"))
        out["n"] = out["n"].astype(np.int64)
        return out

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("src", sort=False)["n"].transform("sum")
        g = g.copy()
        g["p"] = g["n"].to_numpy(np.float64) / tot.to_numpy(np.float64)
        return g

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])
    pairs = bucketed_apply(ds, ["user_id"], pair_counts)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["src", "dst"], as_index=False, sort=False)
                .agg(n=("n", "sum")))

    return bucketed_apply(pairs, ["src"], lambda g: finish(combine(g)),
                          combine=combine)


def sql_transitions() -> str:
    return (
        "WITH o AS (SELECT event_type, LEAD(event_type) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS nxt "
        "FROM events), "
        "c AS (SELECT event_type AS src, nxt AS dst, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM o "
        "WHERE nxt IS NOT NULL GROUP BY 1, 2) "
        "SELECT src, dst, n, CAST(n AS DOUBLE) / "
        "CAST(SUM(n) OVER (PARTITION BY src) AS DOUBLE) AS p FROM c"
    )


QUERIES["transitions"] = q_transitions
ORACLES["transitions"] = sql_transitions()


# ------------------------------------------------ interval merge
#
# Overlap-based interval stitching (the complement of gap-based
# sessionize): each event carries a deterministic duration
# (60s * (1 + event_id % 30)); per user, overlapping-or-touching
# [ts, ts + dur) intervals merge into maximal covered spans.  The
# classic sweep: sort by start, a new span begins where start exceeds
# the running max of prior ends — vectorized as a per-user shifted
# cummax inside one user-keyed exchange bucket.  All timestamps are
# epoch-microsecond int64 end to end (cross-engine exactness).

IVM_DUR_US = 60_000_000  # one duration unit = 60 s in microseconds


def q_interval_merge(sf_dir: str):
    """(user_id, span_start, span_end, n_events) merged spans."""
    import ray

    from ..stages.shuffle import bucketed_apply

    def spans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        start = g["ts"].astype("datetime64[us]").astype("int64")
        dur = (1 + g["event_id"].astype("int64") % 30) * IVM_DUR_US
        end = start + dur
        run_end = end.groupby(g["user_id"]).cummax()
        prev_end = run_end.groupby(g["user_id"]).shift(1)
        new = (start > prev_end).fillna(True).astype("int64")
        sid = new.groupby(g["user_id"]).cumsum()
        out = (pd.DataFrame({
            "user_id": g["user_id"].to_numpy(),
            "sid": sid.to_numpy(),
            "start": start.to_numpy(),
            "end": end.to_numpy()})
            .groupby(["user_id", "sid"], as_index=False)
            .agg(span_start=("start", "min"), span_end=("end", "max"),
                 n_events=("start", "size")))
        return out.drop(columns=["sid"])

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"])
    return bucketed_apply(ds, ["user_id"], spans)


def sql_interval_merge() -> str:
    return (
        "WITH iv AS (SELECT user_id, epoch_us(ts) AS s, "
        f"epoch_us(ts) + (1 + event_id % 30) * {IVM_DUR_US} AS e, "
        "event_id FROM events), "
        "m AS (SELECT user_id, s, e, "
        "CASE WHEN MAX(e) OVER w IS NULL OR s > MAX(e) OVER w "
        "THEN 1 ELSE 0 END AS brk FROM iv "
        "WINDOW w AS (PARTITION BY user_id ORDER BY s, event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)), "
        "t AS (SELECT user_id, s, e, SUM(brk) OVER (PARTITION BY "
        "user_id ORDER BY s, e ROWS UNBOUNDED PRECEDING) AS sid "
        "FROM m) "
        "SELECT user_id, MIN(s) AS span_start, MAX(e) AS span_end, "
        "CAST(COUNT(*) AS BIGINT) AS n_events "
        "FROM t GROUP BY user_id, sid"
    )


QUERIES["interval_merge"] = q_interval_merge
ORACLES["interval_merge"] = sql_interval_merge()


# ---------------------- peak concurrency (distributed prefix scan)
#
# Treat each event as a CONC_DUR_US-long session interval and report
# the PEAK number of simultaneously-active intervals — the capacity-
# planning scalar every event pipeline publishes.  This is the
# classic sweep: +1/-1 deltas sorted by (t, d) (ends before starts at
# ties, so instant-adjacent intervals don't overlap), prefix-sum,
# max.  The distributed shape is a PREFIX SCAN: Ray range-sorts the
# delta stream, each sorted block reduces to TWO scalars (block sum,
# block max-prefix), and the driver folds O(blocks) partials —
# max(offset_b + M_b) — the same order-blocks-by-min pattern as the
# exact-quantiles pipeline.  Tie groups share a sign, so group-end
# maxima equal row-level prefix maxima (proved in the test), matching
# the oracle's RANGE-frame window.

CONC_DUR_US = 300_000_000  # 5-minute sessions


def _conc_block_partial(block: pa.Table):
    """(sort keys, delta sum, running peak) of one sorted delta block."""
    if block.num_rows == 0:
        return None
    t = block.column("t").to_numpy()
    d = block.column("d").to_numpy()
    c = np.cumsum(d)
    # first AND last sort keys: blocks sharing a first key (a tie group
    # split across blocks) order by where they END
    return ((int(t[0]), int(d[0]), int(t[-1]), int(d[-1])),
            int(c[-1]), int(c.max()))


def q_max_concurrency(sf_dir: str):
    """One row: (n_events, peak) over CONC_DUR_US event intervals."""
    import ray
    import ray.data

    def deltas(b: pa.Table) -> pa.Table:
        ts = b.column("ts").cast(pa.int64()).to_numpy()
        return pa.table({
            "t": np.concatenate([ts, ts + CONC_DUR_US]),
            "d": np.concatenate([
                np.ones(len(ts), np.int64),
                np.full(len(ts), -1, np.int64)]),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts"])
    n_events = ds.count()
    dl = ds.map_batches(deltas, batch_format="pyarrow") \
        .sort(["t", "d"]).materialize()

    refs = [r for bu in dl.iter_internal_ref_bundles()
            for r in bu.block_refs]
    parts = ray.get([remote(_conc_block_partial).remote(r) for r in refs])
    parts = sorted((p for p in parts if p is not None),
                   key=lambda p: p[0])
    peak, offset = 0, 0
    for _k, s, m in parts:
        peak = max(peak, offset + m)
        offset += s
    return ray.data.from_arrow(pa.table({
        "n_events": pa.array([n_events], pa.int64()),
        "peak": pa.array([peak], pa.int64())}))


def sql_max_concurrency() -> str:
    return (
        "WITH d AS (SELECT CAST(ts AS TIMESTAMP) AS t, 1 AS dd "
        "FROM events UNION ALL "
        "SELECT ts + INTERVAL 300 SECOND, -1 FROM events), "
        "r AS (SELECT SUM(dd) OVER (ORDER BY t, dd) AS c FROM d) "
        "SELECT CAST((SELECT COUNT(*) FROM events) AS BIGINT) "
        "AS n_events, CAST(MAX(c) AS BIGINT) AS peak FROM r"
    )


QUERIES["max_concurrency"] = q_max_concurrency
ORACLES["max_concurrency"] = sql_max_concurrency()


# ------------------- daily-series lag-1 autocorrelation (fixed-order)
#
# Pearson correlation between consecutive DAYS' event counts — the
# "is traffic momentum real?" scalar of every event dashboard.  The
# daily series comes from one map-side-combined day-count exchange
# (O(days) rows); consecutive pairs materialize by routing each day's
# count to itself AND day+1 (the as-of trick, no sort), per-bucket
# integer moment partials, Python-int driver combine, fixed-order
# float finale — hash-exact DOUBLE vs the HUGEINT -> DOUBLE oracle.
# Days absent from the data are genuinely missing (not zero-filled):
# only adjacent CALENDAR days present in the data form a pair, the
# same contract as the SQL self-join oracle.

def q_lag_corr(sf_dir: str):
    """One row: (n_days, n_pairs, lag_corr) for daily event counts."""
    import math

    import ray
    import ray.data

    from ..stages.shuffle import bucketed_apply, grouped_agg

    US_PER_DAY = 86_400_000_000

    def per_batch(b: pa.Table) -> pa.Table:
        ts = b.column("ts").cast(pa.int64()).to_numpy()
        day = ts // US_PER_DAY
        vals, cnt = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(vals),
                         "c": pa.array(cnt.astype(np.int64))})

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts"])
    days = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["day"], {"c": ("c", "sum")})

    def fan(b: pa.Table) -> pa.Table:
        d = b.column("day").to_numpy().astype(np.int64)
        c = b.column("c").to_numpy().astype(np.int64)
        return pa.table({
            "k": np.concatenate([d, d + 1]),
            "kind": np.concatenate([np.zeros(len(d), np.int8),
                                    np.ones(len(d), np.int8)]),
            "c": np.tile(c, 2)})

    def pair_moments(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["kind"] == 0]          # day k's own count (y)
        p = df[df["kind"] == 1]          # day k-1's count (x)
        m = p.merge(s, on="k", suffixes=("_x", "_y"))
        x = m["c_x"].to_numpy(np.int64)
        y = m["c_y"].to_numpy(np.int64)
        return pd.DataFrame({
            "nd": [np.int64(len(s))], "np_": [np.int64(len(m))],
            "sx": [x.sum()], "sy": [y.sum()], "sxy": [(x * y).sum()],
            "sxx": [(x * x).sum()], "syy": [(y * y).sum()]})

    parts = bucketed_apply(
        days.map_batches(fan, batch_format="pyarrow"),
        ["k"], pair_moments).to_pandas()
    nd = int(parts["nd"].sum())
    n = int(parts["np_"].sum())
    sx, sy = int(parts["sx"].sum()), int(parts["sy"].sum())
    sxy = int(parts["sxy"].sum())
    sxx, syy = int(parts["sxx"].sum()), int(parts["syy"].sum())
    num = n * sxy - sx * sy
    dx = n * sxx - sx * sx
    dy = n * syy - sy * sy
    r = float(num) / math.sqrt(float(dx * dy)) if dx and dy else None
    return ray.data.from_arrow(pa.table({
        "n_days": pa.array([nd], pa.int64()),
        "n_pairs": pa.array([n], pa.int64()),
        "lag_corr": pa.array([r], pa.float64())}))


def sql_lag_corr() -> str:
    return (
        "WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) "
        "AS day, CAST(COUNT(*) AS HUGEINT) AS c FROM events "
        "GROUP BY 1), "
        "p AS (SELECT a.c AS x, b.c AS y FROM d a "
        "JOIN d b ON b.day = a.day + 1), "
        "m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx, "
        "SUM(y) AS sy, SUM(x*y) AS sxy, SUM(x*x) AS sxx, "
        "SUM(y*y) AS syy FROM p), "
        "t AS (SELECT CAST(COUNT(*) AS BIGINT) AS nd FROM d) "
        "SELECT nd AS n_days, CAST(n AS BIGINT) AS n_pairs, "
        "CASE WHEN n*sxx - sx*sx = 0 OR n*syy - sy*sy = 0 THEN NULL "
        "ELSE CAST(n*sxy - sx*sy AS DOUBLE) / "
        "sqrt(CAST((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE)) END "
        "AS lag_corr FROM m, t"
    )


QUERIES["lag_corr"] = q_lag_corr
ORACLES["lag_corr"] = sql_lag_corr()


# --------------------- Mann-Kendall trend test on the daily series
#
# Is daily event volume trending?  The nonparametric Mann-Kendall
# statistic over the day-ordered daily counts: S = sum over day pairs
# i < j of sign(c_j - c_i), the tie-corrected variance
# 18*var = n(n-1)(2n+5) - sum_t t(t-1)(2t+5), and the continuity-
# corrected z — S and var exact integers, z the usual fixed-order
# float.  Day counts come from the O(days) exchange; the pairwise S
# runs in ONE finishing bucket over the day series (bounded by the
# corpus'  calendar span — a merge-count decomposition replaces it if
# the span ever exceeds a bucket).

def q_mann_kendall(sf_dir: str):
    """One row: (n_days, s_stat, var18, z_stat)."""
    import math

    import ray
    import ray.data

    from ..stages.shuffle import bucketed_apply, grouped_agg

    US_PER_DAY = 86_400_000_000

    def per_batch(b: pa.Table) -> pa.Table:
        ts = b.column("ts").cast(pa.int64()).to_numpy()
        day = ts // US_PER_DAY
        vals, cnt = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(vals),
                         "c": pa.array(cnt.astype(np.int64))})

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts"])
    days = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["day"], {"c": ("c", "sum")})

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("k", pa.array(
            np.zeros(b.num_rows, np.int64)))

    def series_stats(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):   # bucketed_apply visits every bucket
            return pd.DataFrame({"n": pd.Series(dtype=np.int64),
                                 "s": pd.Series(dtype=np.int64),
                                 "var18": pd.Series(dtype=np.int64)})
        g = g.sort_values("day", kind="stable")
        c = g["c"].to_numpy(np.int64)
        n = len(c)
        diff = np.sign(c[None, :] - c[:, None])
        sv = int(np.triu(diff, k=1).sum())
        _, tcnt = np.unique(c, return_counts=True)
        tie = sum(int(t) * (int(t) - 1) * (2 * int(t) + 5)
                  for t in tcnt if t > 1)
        return pd.DataFrame({
            "n": [np.int64(n)], "s": [np.int64(sv)],
            "var18": [np.int64(n * (n - 1) * (2 * n + 5) - tie)]})

    st = bucketed_apply(
        days.map_batches(tag, batch_format="pyarrow"),
        ["k"], series_stats).to_pandas()
    n = int(st["n"].sum())
    s = int(st["s"].sum())
    var18 = int(st["var18"].sum())
    if var18 > 0 and s != 0:
        v = float(var18) / 18.0
        z = (s - (1 if s > 0 else -1)) / math.sqrt(v)
    elif var18 > 0:
        z = 0.0
    else:
        z = None
    return ray.data.from_arrow(pa.table({
        "n_days": pa.array([n], pa.int64()),
        "s_stat": pa.array([s], pa.int64()),
        "var18": pa.array([var18], pa.int64()),
        "z_stat": pa.array([z], pa.float64())}))


def sql_mann_kendall() -> str:
    return (
        "WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) "
        "AS day, CAST(COUNT(*) AS HUGEINT) AS c FROM events "
        "GROUP BY 1), "
        "s AS (SELECT COALESCE(SUM(CASE WHEN b.c > a.c THEN 1 "
        "WHEN b.c < a.c THEN -1 ELSE 0 END), 0) AS s FROM d a "
        "JOIN d b ON b.day > a.day), "
        "n AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n FROM d), "
        "tie AS (SELECT COALESCE(SUM(t*(t-1)*(2*t+5)), 0) AS tie FROM "
        "(SELECT CAST(COUNT(*) AS HUGEINT) AS t FROM d GROUP BY c) "
        "WHERE t > 1), "
        "v AS (SELECT n*(n-1)*(2*n+5) - tie AS var18 FROM n, tie) "
        "SELECT CAST(n AS BIGINT) AS n_days, CAST(s AS BIGINT) "
        "AS s_stat, CAST(var18 AS BIGINT) AS var18, "
        "CASE WHEN var18 <= 0 THEN NULL WHEN s = 0 THEN 0.0 ELSE "
        "(CAST(s AS DOUBLE) - CASE WHEN s > 0 THEN 1 ELSE -1 END) "
        "/ sqrt(CAST(var18 AS DOUBLE)/18.0) END AS z_stat "
        "FROM s, n, v"
    )


QUERIES["mann_kendall"] = q_mann_kendall
ORACLES["mann_kendall"] = sql_mann_kendall()


# ------------------ Wald-Wolfowitz runs test on the daily series
#
# Randomness check on daily volumes: dichotomize each day as above /
# below the series' LOWER MEDIAN (days equal to it are dropped, the
# standard treatment), count runs R of consecutive same-side days,
# and compare with the exact conditional moments
#
#   mu  = 2*n1*n2/(n1+n2) + 1
#   var = 2*n1*n2*(2*n1*n2 - n1 - n2) / ((n1+n2)^2 * (n1+n2-1))
#
# — n1/n2/R exact integers from the same O(days) exchange + finishing
# bucket as mann_kendall; z = (R - mu)/sqrt(var) is the fixed-order
# float finale the oracle replays with HUGEINT -> DOUBLE casts.

def q_runs_test(sf_dir: str):
    """One row: (n_above, n_below, n_runs, z_stat)."""
    import math

    import ray
    import ray.data

    from ..stages.shuffle import bucketed_apply, grouped_agg

    US_PER_DAY = 86_400_000_000

    def per_batch(b: pa.Table) -> pa.Table:
        ts = b.column("ts").cast(pa.int64()).to_numpy()
        day = ts // US_PER_DAY
        vals, cnt = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(vals),
                         "c": pa.array(cnt.astype(np.int64))})

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts"])
    days = grouped_agg(
        ds.map_batches(per_batch, batch_format="pyarrow"),
        ["day"], {"c": ("c", "sum")})

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("k", pa.array(
            np.zeros(b.num_rows, np.int64)))

    def series_stats(g: pd.DataFrame) -> pd.DataFrame:
        cols = {"n1": np.int64, "n2": np.int64, "r": np.int64}
        if not len(g):
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in cols.items()})
        g = g.sort_values("day", kind="stable")
        c = g["c"].to_numpy(np.int64)
        med = int(np.sort(c)[(len(c) - 1) // 2])  # lower median
        keep = c != med
        side = (c[keep] > med)
        n1 = int(side.sum())
        n2 = int((~side).sum())
        r = (1 + int((side[1:] != side[:-1]).sum())) if len(side) \
            else 0
        return pd.DataFrame({"n1": [np.int64(n1)], "n2": [np.int64(n2)],
                             "r": [np.int64(r)]})

    st = bucketed_apply(
        days.map_batches(tag, batch_format="pyarrow"),
        ["k"], series_stats).to_pandas()
    n1 = int(st["n1"].sum())
    n2 = int(st["n2"].sum())
    r = int(st["r"].sum())
    if n1 > 0 and n2 > 0 and n1 + n2 > 1:
        mu = float(2 * n1 * n2) / float(n1 + n2) + 1.0
        var = float(2 * n1 * n2 * (2 * n1 * n2 - n1 - n2)) \
            / float((n1 + n2) * (n1 + n2) * (n1 + n2 - 1))
        z = (float(r) - mu) / math.sqrt(var)
    else:
        z = None
    return ray.data.from_arrow(pa.table({
        "n_above": pa.array([n1], pa.int64()),
        "n_below": pa.array([n2], pa.int64()),
        "n_runs": pa.array([r], pa.int64()),
        "z_stat": pa.array([z], pa.float64())}))


def sql_runs_test() -> str:
    return (
        "WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) "
        "AS day, CAST(COUNT(*) AS HUGEINT) AS c FROM events "
        "GROUP BY 1), "
        "md AS (SELECT c AS med FROM (SELECT c, ROW_NUMBER() OVER "
        "(ORDER BY c) AS rn, COUNT(*) OVER () AS n FROM d) "
        "WHERE rn = (n - 1) // 2 + 1), "
        "f AS (SELECT day, c > med AS side FROM d, md WHERE c <> med), "
        "runs AS (SELECT side, LAG(side) OVER (ORDER BY day) AS prev "
        "FROM f), "
        "agg AS (SELECT CAST(SUM(CASE WHEN side THEN 1 ELSE 0 END) "
        "AS HUGEINT) AS n1, "
        "CAST(SUM(CASE WHEN side THEN 0 ELSE 1 END) AS HUGEINT) AS n2, "
        "CAST(1 + SUM(CASE WHEN prev IS NOT NULL AND side <> prev "
        "THEN 1 ELSE 0 END) AS HUGEINT) AS r FROM runs) "
        "SELECT CAST(n1 AS BIGINT) AS n_above, "
        "CAST(n2 AS BIGINT) AS n_below, CAST(r AS BIGINT) AS n_runs, "
        "CASE WHEN n1 = 0 OR n2 = 0 OR n1 + n2 <= 1 THEN NULL ELSE "
        "(CAST(r AS DOUBLE) - (CAST(2*n1*n2 AS DOUBLE)"
        "/CAST(n1 + n2 AS DOUBLE) + 1.0)) / "
        "sqrt(CAST(2*n1*n2*(2*n1*n2 - n1 - n2) AS DOUBLE) "
        "/ CAST((n1 + n2)*(n1 + n2)*(n1 + n2 - 1) AS DOUBLE)) END "
        "AS z_stat FROM agg"
    )


QUERIES["runs_test"] = q_runs_test
ORACLES["runs_test"] = sql_runs_test()
