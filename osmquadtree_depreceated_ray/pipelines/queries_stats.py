"""Distributed order statistics, join-pruning and shuffle-diagnostics
operators.

Operators a large-scale pipeline needs that neither the reference
nor the earlier query modules cover (plus ``skew_stats``, the
measurement side of the explicit-skew-handling contract — see its
section below):

``quantiles``
    EXACT distributed quantiles (no sampling, no t-digest error bar)
    over an unbounded ``double`` column.  Shape: per-batch value counts
    (map-side combine) -> one bucketed exchange building the distinct-
    value histogram (O(distinct) rows, never O(rows)) -> distributed
    sort of the histogram -> per-block (min, total) metadata on the
    driver (O(blocks) state) -> prefix sums locate each target rank's
    block -> one remote pick task per hit block.  The full corpus is
    never collected anywhere; driver state is O(blocks + quantiles).

``bloom_semijoin``
    Semi-join where the probe side never shuffles: the build side's
    keys are folded into a Bloom bitmap via MERGEABLE partials
    (per-block bitmaps, tree-reduced with pairwise OR tasks — the
    same mergeable-sketch shape as the HLL registers), the 128 KB
    bitmap is broadcast (``ray.put`` once), and every probe batch
    prunes map-side.  Bloom false positives are removed by an exact
    membership recheck over the SURVIVORS only (broadcast key array
    here; at 10^12 rows the recheck would be a bucketed join over the
    pruned remainder — the bitmap's job is making that join small).
    Result is therefore exact, and the DuckDB oracle is the plain
    semi-join.

The reference has no analogue (its joins are the qt zip-joins of
calcqts/); these follow the task brief's training-data-pipeline list.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd  # noqa: F401  (kept for parity with sibling modules)
import pyarrow as pa

from ..functions.lookup import sorted_lookup
from ..stages.exchange import remote

# --------------------------------------------------------------- quantiles

QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

def _block_meta_impl(block: pa.Table):
    """(min value, total multiset count) of one sorted-histogram block."""
    if block.num_rows == 0:
        return (None, 0)
    v = block.column("value").to_numpy(zero_copy_only=False)
    c = block.column("cnt").to_numpy(zero_copy_only=False)
    return (float(v[0]), int(c.sum()))


def _block_pick_impl(block: pa.Table, offset: int, targets: list):
    """Select the histogram values whose global-rank window covers each
    (q, rank) target; ranks are 1-based over the value-sorted multiset."""
    v = block.column("value").to_numpy(zero_copy_only=False)
    cum = np.cumsum(block.column("cnt").to_numpy(zero_copy_only=False))
    qs, rks, vals = [], [], []
    for q, rk in targets:
        idx = int(np.searchsorted(cum, rk - offset, side="left"))
        qs.append(q)
        rks.append(rk)
        vals.append(float(v[idx]))
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "rk": pa.array(rks, pa.int64()),
        "value": pa.array(vals, pa.float64()),
    })


def q_quantiles(sf_dir: str):
    import ray

    from ..stages.shuffle import grouped_agg

    def partial(b: pa.Table) -> pa.Table:
        uniq, cnt = np.unique(
            b.column("value").to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({"value": pa.array(uniq, pa.float64()),
                         "cnt": pa.array(cnt.astype(np.int64))})

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["value"])
    hist = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["value"], {"cnt": ("cnt", "sum")},
    ).sort("value")
    refs = [r for bu in hist.iter_internal_ref_bundles()
            for r in bu.block_refs]
    meta = ray.get([remote(_block_meta_impl).remote(r) for r in refs])
    # sorted blocks hold disjoint value ranges and the histogram's
    # values are distinct, so ordering blocks by min IS the global
    # order; empty blocks drop out
    order = sorted((i for i in range(len(refs)) if meta[i][0] is not None),
                   key=lambda i: meta[i][0])
    totals = [meta[i][1] for i in order]
    n = int(sum(totals))
    # both sides compute ceil(q * n) in IEEE double (the oracle CASTs
    # its quantile literals to DOUBLE — DuckDB would otherwise run the
    # multiply in exact DECIMAL and disagree with this ceil)
    targets = [(q, int(math.ceil(q * n))) for q in QUANTILES]
    if n == 0:
        return pa.table({"q": pa.array([], pa.float64()),
                         "rk": pa.array([], pa.int64()),
                         "value": pa.array([], pa.float64())})
    picks, offset = [], 0
    for pos, i in enumerate(order):
        hit = [(q, rk) for q, rk in targets
               if offset < rk <= offset + totals[pos]]
        if hit:
            picks.append(remote(_block_pick_impl).remote(refs[i], offset, hit))
        offset += totals[pos]
    out = pa.concat_tables(ray.get(picks)).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values("q", kind="stable"), preserve_index=False)


def sql_quantiles() -> str:
    vals = ", ".join(f"(CAST({q} AS DOUBLE))" for q in QUANTILES)
    return (
        "WITH s AS (SELECT value, row_number() OVER (ORDER BY value) "
        "AS rn FROM events), "
        "n AS (SELECT COUNT(*) AS c FROM events), "
        f"qs(q) AS (VALUES {vals}) "
        "SELECT qs.q AS q, CAST(CEIL(qs.q * n.c) AS BIGINT) AS rk, "
        "s.value AS value "
        "FROM qs, n, s WHERE s.rn = CAST(CEIL(qs.q * n.c) AS BIGINT) "
        "ORDER BY q"
    )


# ----------------------------------------------------------- bloom semijoin

BLOOM_BITS = 1 << 20  # 128 KB bitmap
BLOOM_K = 4
_BLOOM_PRIORITY = "1-URGENT"


def _bloom_positions(keys: np.ndarray) -> np.ndarray:
    """(len(keys), BLOOM_K) bit positions via splitmix64 double hashing."""
    x = keys.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x.copy()
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        h1 = z
        z = x ^ np.uint64(0xD6E8FEB86659FD93)
        z ^= z >> np.uint64(32)
        z *= np.uint64(0xFF51AFD7ED558CCD)
        z ^= z >> np.uint64(33)
        h2 = z | np.uint64(1)
        pos = np.empty((len(keys), BLOOM_K), np.uint64)
        for i in range(BLOOM_K):
            pos[:, i] = (h1 + np.uint64(i) * h2) % np.uint64(BLOOM_BITS)
    return pos


def _bloom_bitmap(keys: np.ndarray) -> np.ndarray:
    bits = np.zeros(BLOOM_BITS // 8, np.uint8)
    pos = _bloom_positions(keys).ravel()
    np.bitwise_or.at(bits, pos >> np.uint64(3),
                     np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
    return bits


def _bloom_test(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    pos = _bloom_positions(keys)
    hit = np.ones(len(keys), bool)
    for i in range(BLOOM_K):
        p = pos[:, i]
        hit &= (bits[p >> np.uint64(3)]
                & (np.uint8(1) << (p & np.uint64(7)).astype(np.uint8))) != 0
    return hit


def _bloom_or_impl(*parts):
    """Mergeable OR of bitmap partials (tree-reduce node); leaves are
    the bitmap-partial BLOCKS (list<uint8> column), inner nodes plain
    uint8 arrays — driver never downloads a partial."""
    out = None
    for p in parts:
        arrs = ([np.asarray(r, np.uint8)
                 for r in p.column("bits").to_pylist()]
                if isinstance(p, pa.Table) else [p])
        for a in arrs:
            out = a.copy() if out is None else np.bitwise_or(out, a, out=out)
    return out


def _bloom_keys_impl(*blocks):
    """Sorted build-key vector from the bitmap-partial blocks."""
    ks = [np.asarray(r, np.int64)
          for b in blocks for r in b.column("keys").to_pylist()]
    return np.sort(np.concatenate(ks)) if ks else np.empty(0, np.int64)


def q_bloom_semijoin(sf_dir: str):
    import ray

    from ..stages.shuffle import grouped_agg

    import pyarrow.dataset as pds

    build = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey"],
        filter=pds.field("o_orderpriority") == _BLOOM_PRIORITY,
    )

    def bitmap_partial(b: pa.Table) -> pa.Table:
        keys = b.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "bits": pa.array([_bloom_bitmap(keys)], pa.list_(pa.uint8())),
            "keys": pa.array([keys.astype(np.int64)],
                             pa.list_(pa.int64())),
        })

    empty = pa.table({"l_returnflag": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "sum_qty": pa.array([], pa.int64())})

    # materialize once (O(blocks x 128 KB) in the OBJECT STORE, refs on
    # the driver), then tree-reduce the partial blocks with OR tasks,
    # fan-in 8 per node — the driver never downloads a bitmap
    parts = build.map_batches(
        bitmap_partial, batch_format="pyarrow").materialize()
    block_refs = [r for bu in parts.iter_internal_ref_bundles()
                  for r in bu.block_refs]
    if not block_refs:
        return ray.data.from_arrow(empty)
    refs = block_refs
    while True:
        # first pass also converts leaf blocks into plain uint8 bitmaps
        refs = [remote(_bloom_or_impl).remote(*refs[i:i + 8])
                for i in range(0, len(refs), 8)]
        if len(refs) == 1:
            break
    bits_ref = refs[0]
    # exact key set for the survivor recheck (build side is the small
    # side by construction; at scale this becomes a bucketed join over
    # the bloom-pruned remainder) — concatenated remotely, ref-broadcast
    keys_ref = remote(_bloom_keys_impl).remote(*block_refs)

    def probe(b: pa.Table) -> pa.Table:
        bits, keys = ray.get(bits_ref), ray.get(keys_ref)
        k = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        mask = _bloom_test(bits, k)
        # exact recheck over bloom survivors only
        idx = np.flatnonzero(mask)
        if len(idx) == 0 or len(keys) == 0:
            return empty
        keep = idx[sorted_lookup(keys, k[idx])[0]]
        t = b.take(pa.array(keep, pa.int64()))
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        df = (pd.DataFrame({"l_returnflag": t.column("l_returnflag")
                            .to_pylist(),
                            "n": np.ones(len(qty), np.int64),
                            "sum_qty": qty.astype(np.int64)})
              .groupby("l_returnflag", as_index=False).sum())
        out = pa.Table.from_pandas(df, preserve_index=False)
        return out.cast(empty.schema) if len(df) else empty

    probe_ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity", "l_returnflag"],
    ).map_batches(probe, batch_format="pyarrow")
    return grouped_agg(probe_ds, ["l_returnflag"],
                       {"n": ("n", "sum"), "sum_qty": ("sum_qty", "sum")})


def sql_bloom_semijoin() -> str:
    return (
        "SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n, "
        "CAST(SUM(l_quantity) AS BIGINT) AS sum_qty "
        "FROM lineitem WHERE l_orderkey IN "
        "(SELECT o_orderkey FROM orders "
        f"WHERE o_orderpriority = '{_BLOOM_PRIORITY}') "
        "GROUP BY l_returnflag"
    )


QUERIES = {
    "quantiles": q_quantiles,
    "bloom_semijoin": q_bloom_semijoin,
}

ORACLES = {
    "quantiles": sql_quantiles(),
    "bloom_semijoin": sql_bloom_semijoin(),
}


# partition-skew diagnostics --------------------------------------------------
#
# The north rule demands EXPLICIT skew handling; this operator is the
# measurement side of that contract: given a prospective shuffle key it
# reports, per hash bucket, the row load and distinct-key count the
# exchange would see, plus each bucket's single heaviest key — exactly
# the evidence needed to decide between a plain bucketed exchange and
# the salted two-phase aggregation in stages/shuffle.py.  Shape: one
# map-side pre-aggregated exchange over (bucket, key) — O(distinct keys)
# rows, never O(rows); the report itself is O(buckets).

SKEW_BUCKETS = 32


def q_skew_stats(sf_dir: str):
    """Per-bucket shuffle-load report for hash-partitioning lineitem by
    l_suppkey into SKEW_BUCKETS buckets: (bucket, n_rows, n_keys,
    max_key_rows), ordered by bucket."""
    import ray

    from .queries_text import _md5_lower64
    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"])

    def keyed(b: pa.Table) -> pa.Table:
        k = b.column("l_suppkey").to_numpy()
        uniq, cnt = np.unique(k, return_counts=True)
        bucket = (_md5_lower64(np.char.mod("%d", uniq))
                  % np.uint64(SKEW_BUCKETS)).astype(np.int64)
        return pa.table({"bucket": pa.array(bucket),
                         "key": pa.array(uniq.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    per_key = grouped_agg(
        ds.map_batches(keyed, batch_format="pyarrow"),
        ["bucket", "key"], {"n": ("n", "sum")})

    def report(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("bucket", as_index=False, sort=False).agg(
            n_rows=("n", "sum"), n_keys=("key", "size"),
            max_key_rows=("n", "max"))
        for c in out.columns:
            out[c] = out[c].astype(np.int64)
        return out

    out = bucketed_apply(per_key, ["bucket"], report).to_pandas()
    out = out.sort_values("bucket", kind="stable")
    return pa.Table.from_pandas(
        out[["bucket", "n_rows", "n_keys", "max_key_rows"]],
        preserve_index=False)


def sql_skew_stats() -> str:
    return (
        "WITH k AS (SELECT l_suppkey AS key, COUNT(*) AS n FROM lineitem "
        "GROUP BY 1), "
        "b AS (SELECT CAST(md5_number_lower(CAST(key AS VARCHAR)) % "
        f"{SKEW_BUCKETS} AS BIGINT) AS bucket, key, n FROM k) "
        "SELECT bucket, CAST(SUM(n) AS BIGINT) AS n_rows, "
        "CAST(COUNT(*) AS BIGINT) AS n_keys, "
        "CAST(MAX(n) AS BIGINT) AS max_key_rows "
        "FROM b GROUP BY bucket ORDER BY bucket"
    )


QUERIES["skew_stats"] = q_skew_stats
ORACLES["skew_stats"] = sql_skew_stats()


# ----------------------------------------------------- KLL quantile sketch

# Mergeable streaming quantiles: the scale path that replaces the exact
# distinct-value-histogram quantiles when O(distinct values) itself is
# too large to exchange.  Per-block KLL partials (functions/sketch.py)
# tree-reduce with fan-in 8 — the driver receives ONE sketch of
# O(k log n) items, never the corpus.  The sketch is deterministic
# (counted compaction offsets, fixed read fan-out, fixed merge tree)
# and SELF-CERTIFYING: it carries its exact worst-case rank-error
# budget, and this query closes the loop by measuring every estimate's
# TRUE rank with one distributed counting pass and asserting it inside
# the certificate — an executable invariant in the rows-only oracle
# tier (the kmeans/tile_split pattern; a sketch whose output depends
# on compaction order is not SQL-expressible).

KLL_K = 256
KLL_FRACS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
KLL_BLOCKS = 32  # fixed fan-out => deterministic partials + merge tree


def _kll_merge_impl(*parts):
    import pickle

    sks = []
    for p in parts:
        if isinstance(p, pa.Table):
            sks.extend(pickle.loads(x)
                       for x in p.column("sk").to_pylist())
        else:
            sks.append(p)
    base = sks[0]
    for s in sks[1:]:
        base.merge(s)
    return base


def q_kll_quantiles(sf_dir: str):
    """(frac_q2, est, rank_lt, rank_le, n, err_bound) for KLL_FRACS
    over documents.n_chars, with the certificate asserted in-query:
    frac*n must lie within [rank_lt - err_bound, rank_le + err_bound]."""
    import pickle

    import ray
    import ray.data

    from ..functions.sketch import KLL


    def partial(t: pa.Table) -> pa.Table:
        sk = KLL(KLL_K)
        if "n_chars" in t.column_names:
            sk.add(t.column("n_chars").to_numpy(zero_copy_only=False))
        return pa.table({"sk": pa.array([pickle.dumps(sk)],
                                        pa.binary())})

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"],
        override_num_blocks=KLL_BLOCKS)
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None).materialize()
    refs = [r for bu in parts.iter_internal_ref_bundles()
            for r in bu.block_refs]
    if not refs:
        return ray.data.from_arrow(pa.table({
            "frac_q2": pa.array([], pa.int64()),
            "est": pa.array([], pa.float64()),
            "rank_lt": pa.array([], pa.int64()),
            "rank_le": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "err_bound": pa.array([], pa.int64())}))
    while len(refs) > 1:
        refs = [remote(_kll_merge_impl).remote(*refs[i:i + 8])
                for i in range(0, len(refs), 8)]
    sk = ray.get(remote(_kll_merge_impl).remote(refs[0]))
    fr = np.asarray(KLL_FRACS)
    est, bound = sk.quantiles(fr)

    # one distributed counting pass measures every estimate's true rank
    def ranks(t: pa.Table) -> pa.Table:
        if "n_chars" not in t.column_names:
            z = np.zeros(len(fr), np.int64)
            lt = le = z
        else:
            v = t.column("n_chars").to_numpy(
                zero_copy_only=False).astype(np.float64)
            lt = (v[:, None] < est[None, :]).sum(axis=0)
            le = (v[:, None] <= est[None, :]).sum(axis=0)
        return pa.table({
            "i": pa.array(np.arange(len(fr), dtype=np.int64)),
            "lt": pa.array(lt.astype(np.int64)),
            "le": pa.array(le.astype(np.int64))})

    # O(blocks x len(fracs)) rows to the driver
    rk = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"]) \
        .map_batches(ranks, batch_format="pyarrow").to_pandas()
    agg = rk.groupby("i").sum()
    lt = agg["lt"].reindex(range(len(fr)), fill_value=0).to_numpy()
    le = agg["le"].reindex(range(len(fr)), fill_value=0).to_numpy()
    target = fr * sk.n
    ok = (target >= lt - bound) & (target <= le + bound)
    assert ok.all(), \
        f"KLL certificate violated: {list(zip(fr, lt, le))} bound={bound}"
    return ray.data.from_arrow(pa.table({
        "frac_q2": pa.array((fr * 100 + 0.5).astype(np.int64)),
        "est": pa.array(est),
        "rank_lt": pa.array(lt.astype(np.int64)),
        "rank_le": pa.array(le.astype(np.int64)),
        "n": pa.array(np.full(len(fr), sk.n, np.int64)),
        "err_bound": pa.array(np.full(len(fr), bound, np.int64))}))


QUERIES["kll_quantiles"] = q_kll_quantiles
# rows-only by design: the sketch's output depends on its deterministic
# compaction schedule, which SQL cannot replay; the in-query certificate
# assert + the exact-rank columns are the executable invariant


# ---------------------- grouped OLS regression + Pearson correlation
#
# Per-language least-squares fit of n_chars (y) on word count (x) plus
# the Pearson r — the profiling statistic every corpus report carries.
# The distributed shape is the textbook one: the five cross-moments
# (n, Σx, Σy, Σxy, Σx², Σy²) are ASSOCIATIVE integer sums, so batches
# pre-aggregate and the exchange carries O(groups) rows; the driver
# never sees a data row.  All moment arithmetic stays exact (int64 in
# batches, Python ints in the finish — the n·Σxy − ΣxΣy combinations
# overflow int64 long before the inputs do), and the only float ops
# are the final cast-divide / cast-sqrt in a FIXED order the DuckDB
# oracle replays with HUGEINT → DOUBLE — hash-exact, no float-sum
# order dependence anywhere.

def q_regress_corr(sf_dir: str):
    """(lang, n, slope, intercept, corr) of n_chars ~ words."""
    import ray

    from ..stages.shuffle import grouped_agg

    def partials(b: pa.Table) -> pa.Table:
        lang = b.column("lang").to_pandas()
        x = (b.column("text").to_pandas().str.count(" ") + 1) \
            .to_numpy(np.int64)
        y = b.column("n_chars").to_numpy().astype(np.int64)
        df = pd.DataFrame({
            "lang": lang, "n": 1, "sx": x, "sy": y,
            "sxy": x * y, "sxx": x * x, "syy": y * y})
        return pa.Table.from_pandas(
            df.groupby("lang", as_index=False, sort=False).sum(),
            preserve_index=False)

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["lang", "text", "n_chars"])
    agg = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["lang"],
        {c: (c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")})

    def finish(b: pa.Table) -> pa.Table:
        import math

        t = b.to_pandas()
        slope, inter, corr = [], [], []
        for _, r in t.iterrows():
            # Python ints: the moment combinations overflow int64
            n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
            sxy, sxx, syy = int(r["sxy"]), int(r["sxx"]), int(r["syy"])
            num = n * sxy - sx * sy
            dx = n * sxx - sx * sx
            dy = n * syy - sy * sy
            s = float(num) / float(dx)
            slope.append(s)
            inter.append((float(sy) - s * float(sx)) / float(n))
            corr.append(float(num) / math.sqrt(float(dx * dy)))
        return pa.table({
            "lang": pa.array(t["lang"].tolist(), pa.string()),
            "n": pa.array(t["n"].to_numpy(np.int64)),
            "slope": pa.array(slope, pa.float64()),
            "intercept": pa.array(inter, pa.float64()),
            "corr": pa.array(corr, pa.float64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_regress_corr() -> str:
    return (
        "WITH t AS (SELECT lang, "
        "CAST(len(string_split(text, ' ')) AS HUGEINT) AS x, "
        "CAST(n_chars AS HUGEINT) AS y FROM documents), "
        "m AS (SELECT lang, CAST(COUNT(*) AS HUGEINT) AS n, "
        "SUM(x) AS sx, SUM(y) AS sy, SUM(x*y) AS sxy, "
        "SUM(x*x) AS sxx, SUM(y*y) AS syy FROM t GROUP BY lang), "
        "f AS (SELECT lang, n, sx, sy, "
        "CAST(n*sxy - sx*sy AS DOUBLE) "
        "/ CAST(n*sxx - sx*sx AS DOUBLE) AS slope, "
        "CAST(n*sxy - sx*sy AS DOUBLE) "
        "/ sqrt(CAST((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE)) "
        "AS corr FROM m) "
        "SELECT lang, CAST(n AS BIGINT) AS n, slope, "
        "(CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE)) "
        "/ CAST(n AS DOUBLE) AS intercept, corr FROM f"
    )


QUERIES["regress_corr"] = q_regress_corr
ORACLES["regress_corr"] = sql_regress_corr()


# ----------------------- per-group winsorization (exact order stats)
#
# Clip n_chars to each language's exact [p10, p90] order statistics —
# the standard outlier-capping cleanup before statistics/training.
# The group quantile is the (floor((n-1)*q) + 1)-th smallest value
# (0-based floor((n-1)*q)), computed WITHOUT sorting rows: one
# map-side-combined (lang, value) count exchange (O(distinct values)),
# per-lang cumulative pick inside the lang bucket, and a tiny
# (n_groups x 2) bound table broadcast for the clip pass.  Group count
# is bounded (languages), so the driver-side bounds table is O(groups)
# by contract.

WINSOR_LO_NUM, WINSOR_LO_DEN = 1, 10    # p10
WINSOR_HI_NUM, WINSOR_HI_DEN = 9, 10    # p90


def q_winsorize(sf_dir: str):
    """(doc_id, lang, n_chars, clipped) with clipped = n_chars bounded
    to the lang's exact p10/p90 order statistics."""
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"])

    def val_counts(b: pa.Table) -> pa.Table:
        df = (pd.DataFrame({"lang": b.column("lang").to_pandas(),
                            "v": b.column("n_chars").to_numpy()})
              .groupby(["lang", "v"], sort=False).size()
              .reset_index(name="c"))
        df["c"] = df["c"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    counts = grouped_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        ["lang", "v"], {"c": ("c", "sum")})

    def bounds(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lang, gg in g.groupby("lang", sort=False):
            gg = gg.sort_values("v", kind="stable")
            c = gg["c"].to_numpy(np.int64)
            v = gg["v"].to_numpy(np.int64)
            n = int(c.sum())
            cum = np.cumsum(c)
            i_lo = (n - 1) * WINSOR_LO_NUM // WINSOR_LO_DEN
            i_hi = (n - 1) * WINSOR_HI_NUM // WINSOR_HI_DEN
            lo = v[np.searchsorted(cum, i_lo + 1)]
            hi = v[np.searchsorted(cum, i_hi + 1)]
            out.append((lang, int(lo), int(hi)))
        return pd.DataFrame(out, columns=["lang", "lo", "hi"])

    bt = bucketed_apply(counts, ["lang"], bounds).to_pandas()
    ref = ray.put({r["lang"]: (r["lo"], r["hi"])
                   for _, r in bt.iterrows()})

    def clip(b: pa.Table) -> pa.Table:
        lut = ray.get(ref)
        lang = b.column("lang").to_pandas()
        v = b.column("n_chars").to_numpy().astype(np.int64)
        lo = lang.map({k: a for k, (a, _b) in lut.items()}) \
            .to_numpy(np.int64)
        hi = lang.map({k: b2 for k, (_a, b2) in lut.items()}) \
            .to_numpy(np.int64)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "lang": b.column("lang"),
            "n_chars": b.column("n_chars"),
            "clipped": pa.array(np.minimum(np.maximum(v, lo), hi))})

    return ds.map_batches(clip, batch_format="pyarrow")


def sql_winsorize() -> str:
    ln, ld = WINSOR_LO_NUM, WINSOR_LO_DEN
    hn, hd = WINSOR_HI_NUM, WINSOR_HI_DEN
    return (
        "WITH r AS (SELECT lang, n_chars, ROW_NUMBER() OVER "
        "(PARTITION BY lang ORDER BY n_chars, doc_id) AS rn, "
        "COUNT(*) OVER (PARTITION BY lang) AS n FROM documents), "
        "q AS (SELECT lang, "
        f"MAX(CASE WHEN rn = (n-1)*{ln}//{ld} + 1 THEN n_chars END) "
        "AS lo, "
        f"MAX(CASE WHEN rn = (n-1)*{hn}//{hd} + 1 THEN n_chars END) "
        "AS hi FROM r GROUP BY lang) "
        "SELECT d.doc_id, d.lang, d.n_chars, "
        "CAST(LEAST(GREATEST(d.n_chars, q.lo), q.hi) AS BIGINT) "
        "AS clipped FROM documents d JOIN q USING (lang)"
    )


QUERIES["winsorize"] = q_winsorize
ORACLES["winsorize"] = sql_winsorize()


# ----------------------------------------- grouped mode (argmax count)
#
# Most frequent n_chars value per language, ties -> smallest value:
# the modal statistic over a grouped count exchange.  Same O(distinct
# (group, value)) shape as winsorize's pass 1; the argmax runs inside
# the group's bucket.

def q_mode_by(sf_dir: str):
    """(lang, mode, n_mode): modal n_chars per language."""
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])

    def val_counts(b: pa.Table) -> pa.Table:
        df = (pd.DataFrame({"lang": b.column("lang").to_pandas(),
                            "v": b.column("n_chars").to_numpy()})
              .groupby(["lang", "v"], sort=False).size()
              .reset_index(name="c"))
        df["c"] = df["c"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    counts = grouped_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        ["lang", "v"], {"c": ("c", "sum")})

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        top = (g.sort_values(["lang", "c", "v"],
                             ascending=[True, False, True],
                             kind="stable")
               .drop_duplicates("lang"))
        return pd.DataFrame({
            "lang": top["lang"].to_numpy(),
            "mode": top["v"].to_numpy(np.int64),
            "n_mode": top["c"].to_numpy(np.int64)})

    return bucketed_apply(counts, ["lang"], pick)


def sql_mode_by() -> str:
    return (
        "WITH c AS (SELECT lang, n_chars AS v, "
        "CAST(COUNT(*) AS BIGINT) AS c FROM documents "
        "GROUP BY lang, n_chars), "
        "r AS (SELECT lang, v, c, ROW_NUMBER() OVER "
        "(PARTITION BY lang ORDER BY c DESC, v) AS rn FROM c) "
        "SELECT lang, CAST(v AS BIGINT) AS mode, c AS n_mode "
        "FROM r WHERE rn = 1"
    )


QUERIES["mode_by"] = q_mode_by
ORACLES["mode_by"] = sql_mode_by()


# ------------------------- grouped Spearman rank correlation (exact)
#
# Per-language Spearman rho between n_chars and the word count — the
# nonparametric companion to regress_corr's Pearson r, robust to the
# heavy-tailed length distributions web corpora actually have.  Ranks
# are AVERAGE ranks over ties, carried as exact integers (2*avgrank =
# 2*rank_before + c + 1), so the whole computation is the regress_corr
# integer-moment shape applied to a distributed RANK TRANSFORM:
#
# 1. one map-side-combined count exchange over (lang, var, value) —
#    O(distinct values), never a data row;
# 2. per-lang cumulative rank inside the lang bucket -> a (lang, var,
#    value, 2r) lookup table, broadcast via ray.put (document corpus:
#    O(distinct lengths); a bucketed join replaces the broadcast above
#    a size threshold, same contract as winsorize);
# 3. one moment pass: batches merge the LUT, emit six int64 partial
#    sums per lang; driver-side finish in Python int + the fixed-order
#    float finale — rho is hash-exact vs the HUGEINT->DOUBLE oracle.

def q_spearman(sf_dir: str):
    """(lang, n, rho): per-language Spearman rank correlation of
    n_chars vs word count."""
    import math

    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["lang", "text", "n_chars"])

    def _xy(b: pa.Table) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": b.column("lang").to_pandas(),
            "x": b.column("n_chars").to_numpy().astype(np.int64),
            "y": (b.column("text").to_pandas().str.count(" ") + 1)
            .to_numpy(np.int64),
        })

    def val_counts(b: pa.Table) -> pa.Table:
        df = _xy(b)
        long = pd.concat([
            df[["lang", "x"]].rename(columns={"x": "v"}).assign(var=0),
            df[["lang", "y"]].rename(columns={"y": "v"}).assign(var=1),
        ])
        out = (long.groupby(["lang", "var", "v"], sort=False).size()
               .reset_index(name="c"))
        out["c"] = out["c"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = grouped_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        ["lang", "var", "v"], {"c": ("c", "sum")})

    def ranks(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for (lang, var), gg in g.groupby(["lang", "var"], sort=False):
            gg = gg.sort_values("v", kind="stable")
            c = gg["c"].to_numpy(np.int64)
            before = np.concatenate([[0], np.cumsum(c)[:-1]])
            out.append(pd.DataFrame({
                "lang": lang, "var": var,
                "v": gg["v"].to_numpy(np.int64),
                "r2": 2 * before + c + 1,
            }))
        return (pd.concat(out) if out else
                pd.DataFrame({"lang": pd.Series(dtype=object),
                              "var": pd.Series(dtype=np.int64),
                              "v": pd.Series(dtype=np.int64),
                              "r2": pd.Series(dtype=np.int64)}))

    lut = bucketed_apply(counts, ["lang"], ranks).to_pandas()
    lx = lut[lut["var"] == 0][["lang", "v", "r2"]]
    ly = lut[lut["var"] == 1][["lang", "v", "r2"]]
    ref = ray.put((lx, ly))

    def moments(b: pa.Table) -> pa.Table:
        rx_t, ry_t = ray.get(ref)
        df = _xy(b)
        df = df.merge(rx_t.rename(columns={"v": "x", "r2": "rx"}),
                      on=["lang", "x"])
        df = df.merge(ry_t.rename(columns={"v": "y", "r2": "ry"}),
                      on=["lang", "y"])
        rx = df["rx"].to_numpy(np.int64)
        ry = df["ry"].to_numpy(np.int64)
        out = (pd.DataFrame({
            "lang": df["lang"], "n": 1, "sx": rx, "sy": ry,
            "sxy": rx * ry, "sxx": rx * rx, "syy": ry * ry})
            .groupby("lang", as_index=False, sort=False).sum())
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = grouped_agg(
        ds.map_batches(moments, batch_format="pyarrow"),
        ["lang"],
        {c: (c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")})

    def finish(b: pa.Table) -> pa.Table:
        t = b.to_pandas()
        rho = []
        for _, r in t.iterrows():
            n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
            sxy, sxx, syy = int(r["sxy"]), int(r["sxx"]), int(r["syy"])
            num = n * sxy - sx * sy
            dx = n * sxx - sx * sx
            dy = n * syy - sy * sy
            rho.append(float(num) / math.sqrt(float(dx * dy))
                       if dx and dy else None)
        return pa.table({
            "lang": pa.array(t["lang"].tolist(), pa.string()),
            "n": pa.array(t["n"].to_numpy(np.int64)),
            "rho": pa.array(rho, pa.float64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_spearman() -> str:
    return (
        "WITH t AS (SELECT lang, CAST(n_chars AS BIGINT) AS x, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS y "
        "FROM documents), "
        "r AS (SELECT lang, "
        "CAST(2*RANK() OVER (PARTITION BY lang ORDER BY x) "
        "+ COUNT(*) OVER (PARTITION BY lang, x) - 1 AS HUGEINT) AS rx, "
        "CAST(2*RANK() OVER (PARTITION BY lang ORDER BY y) "
        "+ COUNT(*) OVER (PARTITION BY lang, y) - 1 AS HUGEINT) AS ry "
        "FROM t), "
        "m AS (SELECT lang, CAST(COUNT(*) AS HUGEINT) AS n, "
        "SUM(rx) AS sx, SUM(ry) AS sy, SUM(rx*ry) AS sxy, "
        "SUM(rx*rx) AS sxx, SUM(ry*ry) AS syy FROM r GROUP BY lang) "
        "SELECT lang, CAST(n AS BIGINT) AS n, "
        "CASE WHEN n*sxx - sx*sx = 0 OR n*syy - sy*sy = 0 THEN NULL "
        "ELSE CAST(n*sxy - sx*sy AS DOUBLE) / "
        "sqrt(CAST((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE)) "
        "END AS rho FROM m"
    )


QUERIES["spearman"] = q_spearman
ORACLES["spearman"] = sql_spearman()


# ----------------------------------- skyline (Pareto frontier, 2D)
#
# The documents whose (length, word density) pair is Pareto-optimal —
# no other document is >= in both and > in one (density = words per
# 100k chars, an int; length and density trade off, so the frontier
# is a real multi-point curve, not a single max).  The skyline operator
# is the textbook example of an ASSOCIATIVE, IDEMPOTENT combiner that
# plain SQL aggregates can't express but a distributed engine handles
# in one tree: every batch reduces to its local frontier (expected
# O(log n) points for independent dims), local frontiers union, and
# one final pass re-reduces — no shuffle, no driver scan; the
# intermediate never exceeds the sum of tiny local frontiers.

def _skyline_2d(df: pd.DataFrame) -> pd.DataFrame:
    """Rows whose (x, y) are non-dominated: y = max y at their x, and
    strictly above every y at larger x.  Duplicate (x, y) pairs all
    survive (neither strictly dominates the other) — matches the SQL
    NOT EXISTS contract."""
    if not len(df):
        return df
    per_x = df.groupby("x")["y"].max().sort_index(ascending=False)
    # M(x) = max y over strictly-larger x (exclusive running max)
    m = per_x.cummax().shift(1, fill_value=np.iinfo(np.int64).min)
    keep_x = per_x[per_x > m]
    key = df["x"].map(keep_x)
    return df[df["y"] == key]


def q_skyline(sf_dir: str):
    """(doc_id, n_chars, density): the Pareto frontier maximizing
    both length and word density (words per 100k chars)."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "n_chars"])

    def local(b: pa.Table) -> pa.Table:
        x = b.column("n_chars").to_numpy().astype(np.int64)
        w = (b.column("text").to_pandas().str.count(" ") + 1) \
            .to_numpy(np.int64)
        df = pd.DataFrame({
            "doc_id": b.column("doc_id").to_numpy().astype(np.int64),
            "x": x,
            "y": w * 100000 // x,
        })
        return pa.Table.from_pandas(_skyline_2d(df),
                                    preserve_index=False)

    def final(b: pa.Table) -> pa.Table:
        sk = _skyline_2d(b.to_pandas())
        return pa.table({
            "doc_id": pa.array(sk["doc_id"].to_numpy(np.int64)),
            "n_chars": pa.array(sk["x"].to_numpy(np.int64)),
            "density": pa.array(sk["y"].to_numpy(np.int64))})

    return (ds.map_batches(local, batch_format="pyarrow")
            .repartition(1)
            .map_batches(final, batch_format="pyarrow",
                         batch_size=None))


def sql_skyline() -> str:
    return (
        "WITH t AS (SELECT doc_id, CAST(n_chars AS BIGINT) AS x, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) * 100000 "
        "// CAST(n_chars AS BIGINT) AS y "
        "FROM documents) "
        "SELECT a.doc_id, a.x AS n_chars, a.y AS density FROM t a "
        "WHERE NOT EXISTS (SELECT 1 FROM t b "
        "WHERE b.x >= a.x AND b.y >= a.y "
        "AND (b.x > a.x OR b.y > a.y))"
    )


QUERIES["skyline"] = q_skyline
ORACLES["skyline"] = sql_skyline()


# --------------------------------- per-group Gini coefficient (exact)
#
# Gini of the n_chars distribution per language — the inequality
# profile of document lengths (0 = all equal, ->1 = one giant doc).
# With the values of a group sorted ascending x_(1)..x_(n):
#
#   G = (2 * sum_i i*x_(i) - (n+1) * sum_i x_i) / (n * sum_i x_i)
#
# The rank-weighted sum is computed WITHOUT sorting rows: the same
# O(distinct values) count exchange as winsorize/spearman, and inside
# the group's bucket the c copies of value v occupy ranks
# before+1..before+c, so sum(i*x) += v * (c*before + c*(c+1)/2) —
# all exact integers, Python-int finish, quantized floor-half at 1e12.

def q_gini(sf_dir: str):
    """(lang, n, gini_q12) per language over n_chars."""
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])

    def val_counts(b: pa.Table) -> pa.Table:
        df = (pd.DataFrame({"lang": b.column("lang").to_pandas(),
                            "v": b.column("n_chars").to_numpy()})
              .groupby(["lang", "v"], sort=False).size()
              .reset_index(name="c"))
        df["c"] = df["c"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    counts = grouped_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        ["lang", "v"], {"c": ("c", "sum")})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lang, gg in g.groupby("lang", sort=False):
            gg = gg.sort_values("v", kind="stable")
            v = [int(x) for x in gg["v"].tolist()]
            c = [int(x) for x in gg["c"].tolist()]
            n = sum(c)
            s = sum(vi * ci for vi, ci in zip(v, c))
            before = 0
            ws = 0
            for vi, ci in zip(v, c):
                ws += vi * (ci * before + ci * (ci + 1) // 2)
                before += ci
            num = 2 * ws - (n + 1) * s
            den = n * s
            q = ((2 * num * 10 ** 12 + den) // (2 * den)) if den \
                else None
            out.append((lang, n, q))
        return pd.DataFrame(out, columns=["lang", "n", "gini_q12"])

    return bucketed_apply(counts, ["lang"], finish)


def sql_gini() -> str:
    return (
        "WITH r AS (SELECT lang, CAST(n_chars AS HUGEINT) AS x, "
        "CAST(ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n_chars) "
        "AS HUGEINT) AS i FROM documents), "
        "m AS (SELECT lang, CAST(COUNT(*) AS HUGEINT) AS n, "
        "SUM(x) AS s, SUM(i*x) AS ws FROM r GROUP BY lang) "
        "SELECT lang, CAST(n AS BIGINT) AS n, "
        "CASE WHEN n*s = 0 THEN NULL ELSE "
        "CAST((2*(2*ws - (n+1)*s)*1000000000000 + n*s) // (2*n*s) "
        "AS BIGINT) END AS gini_q12 FROM m"
    )


QUERIES["gini"] = q_gini
ORACLES["gini"] = sql_gini()


# ------------------------- per-group Lorenz deciles (exact NTILE(10))
#
# The Lorenz curve behind the gini scalar: per language, split the
# length-sorted documents into 10 NTILE deciles and report each
# decile's row count, char mass, and the CUMULATIVE share of total
# chars (quantized floor-half at 1e12).  Exact without sorting rows:
# inside the lang bucket, each distinct value's c copies occupy the
# rank interval (before, before+c]; NTILE boundaries are pure
# integer arithmetic (first n%10 tiles take n//10+1 rows), and tied
# copies are interchangeable, so per-tile sums are exact regardless
# of how a tie straddles a boundary — matching SQL NTILE semantics.

LORENZ_TILES = 10


def q_lorenz(sf_dir: str):
    """(lang, decile, n_rows, sum_chars, cum_share_q12), 10 rows per
    language."""
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])

    def val_counts(b: pa.Table) -> pa.Table:
        df = (pd.DataFrame({"lang": b.column("lang").to_pandas(),
                            "v": b.column("n_chars").to_numpy()})
              .groupby(["lang", "v"], sort=False).size()
              .reset_index(name="c"))
        df["c"] = df["c"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    counts = grouped_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        ["lang", "v"], {"c": ("c", "sum")})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lang, gg in g.groupby("lang", sort=False):
            gg = gg.sort_values("v", kind="stable")
            vs = [int(x) for x in gg["v"].tolist()]
            cs = [int(x) for x in gg["c"].tolist()]
            n = sum(cs)
            t = LORENZ_TILES
            base, rem = divmod(n, t)
            # tile k (1-based) covers ranks (bound[k-1], bound[k]]
            bounds = [0]
            for k in range(1, t + 1):
                bounds.append(bounds[-1] + base + (1 if k <= rem else 0))
            rows = [0] * t
            mass = [0] * t
            before = 0
            k = 1
            for v, c in zip(vs, cs):
                lo, hi = before, before + c
                while lo < hi:
                    while bounds[k] <= lo:
                        k += 1
                    take = min(hi, bounds[k]) - lo
                    rows[k - 1] += take
                    mass[k - 1] += take * v
                    lo += take
                before += c
            total = sum(mass)
            cum = 0
            for d in range(t):
                cum += mass[d]
                q = ((2 * cum * 10 ** 12 + total) // (2 * total)
                     if total else None)
                out.append((lang, d + 1, rows[d], mass[d], q))
        return pd.DataFrame(out, columns=[
            "lang", "decile", "n_rows", "sum_chars", "cum_share_q12"])

    return bucketed_apply(counts, ["lang"], finish)


def sql_lorenz() -> str:
    t = LORENZ_TILES
    return (
        "WITH r AS (SELECT lang, CAST(n_chars AS HUGEINT) AS x, "
        f"NTILE({t}) OVER (PARTITION BY lang ORDER BY n_chars) "
        "AS decile FROM documents), "
        "d AS (SELECT lang, decile, CAST(COUNT(*) AS BIGINT) AS n_rows, "
        "SUM(x) AS sum_chars FROM r GROUP BY lang, decile), "
        "c AS (SELECT lang, decile, n_rows, sum_chars, "
        "SUM(sum_chars) OVER (PARTITION BY lang ORDER BY decile) AS cum, "
        "SUM(sum_chars) OVER (PARTITION BY lang) AS total FROM d) "
        "SELECT lang, decile, n_rows, "
        "CAST(sum_chars AS BIGINT) AS sum_chars, "
        "CASE WHEN total = 0 THEN NULL ELSE "
        "CAST((2*cum*1000000000000 + total) // (2*total) AS BIGINT) END "
        "AS cum_share_q12 FROM c"
    )


QUERIES["lorenz"] = q_lorenz
ORACLES["lorenz"] = sql_lorenz()


# ---------------- per-source two-sample KS statistic (exact rational)
#
# Which SOURCE has an anomalous length distribution?  For every
# source s, the two-sample Kolmogorov-Smirnov statistic between s's
# n_chars CDF and the complement corpus's:
#
#   D_s = max over distinct v of |F_s(v) - F_rest(v)|
#       = max |cum_s*(N - n_s) - (cum_all - cum_s)*n_s| / (n_s*(N-n_s))
#
# — EXACT on the integer counts (no empirical-CDF floats), quantized
# floor-half at 1e12.  Shape: the (value, source) count exchange
# (O(distinct x sources) rows), then ONE finishing bucket pivots and
# cumsums the dense value x source matrix — bounded by the value
# domain times the source enum, the same O(distinct) finishing
# contract as winsorize/gini (a per-source-partition exchange with a
# broadcast all-corpus CDF replaces it if the value domain explodes).

def q_ks_test(sf_dir: str):
    """(source, n, ks_q12) per source vs the rest of the corpus."""
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

    def val_counts(b: pa.Table) -> pa.Table:
        df = (pd.DataFrame({"source": b.column("source").to_pandas(),
                            "v": b.column("n_chars").to_numpy()})
              .groupby(["source", "v"], sort=False).size()
              .reset_index(name="c"))
        df["c"] = df["c"].astype(np.int64)
        df["k"] = np.int64(0)  # single finishing bucket
        return pa.Table.from_pandas(df, preserve_index=False)

    counts = grouped_agg(
        ds.map_batches(val_counts, batch_format="pyarrow"),
        ["k", "source", "v"], {"c": ("c", "sum")})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        piv = (g.pivot_table(index="v", columns="source", values="c",
                             aggfunc="sum", fill_value=0)
               .sort_index())
        cum = piv.cumsum()
        ns = piv.sum()
        nt = int(ns.sum())
        call = cum.sum(axis=1).to_numpy(np.int64)
        out = []
        for src in sorted(ns.index):
            n_s = int(ns[src])
            cs = cum[src].to_numpy(np.int64)
            num = np.abs(cs.astype(object) * (nt - n_s)
                         - (call - cs).astype(object) * n_s)
            d = int(num.max())
            den = n_s * (nt - n_s)
            q = ((2 * d * 10 ** 12 + den) // (2 * den)) if den else None
            out.append((src, n_s, q))
        return pd.DataFrame(out, columns=["source", "n", "ks_q12"])

    return bucketed_apply(counts, ["k"], finish)


def sql_ks_test() -> str:
    return (
        "WITH c AS (SELECT source, CAST(n_chars AS HUGEINT) AS v, "
        "CAST(COUNT(*) AS HUGEINT) AS c FROM documents GROUP BY 1, 2), "
        "vals AS (SELECT DISTINCT v FROM c), "
        "srcs AS (SELECT source, SUM(c) AS ns FROM c GROUP BY 1), "
        "n AS (SELECT SUM(c) AS nt FROM c), "
        "grid AS (SELECT s.source, s.ns, va.v FROM srcs s "
        "CROSS JOIN vals va), "
        "cum AS (SELECT g.source, g.ns, g.v, "
        "COALESCE(SUM(c.c), 0) AS cs FROM grid g LEFT JOIN c "
        "ON c.source = g.source AND c.v <= g.v "
        "GROUP BY g.source, g.ns, g.v), "
        "ca AS (SELECT v, SUM(cs) AS call FROM cum GROUP BY v), "
        "d AS (SELECT cum.source, cum.ns, "
        "MAX(abs(cum.cs*(n.nt - cum.ns) "
        "- (ca.call - cum.cs)*cum.ns)) AS dmax, "
        "MAX(cum.ns*(n.nt - cum.ns)) AS den FROM cum "
        "JOIN ca USING (v), n GROUP BY cum.source, cum.ns) "
        "SELECT source, CAST(ns AS BIGINT) AS n, "
        "CASE WHEN den = 0 THEN NULL ELSE "
        "CAST((2*dmax*1000000000000 + den) // (2*den) AS BIGINT) END "
        "AS ks_q12 FROM d"
    )


QUERIES["ks_test"] = q_ks_test
ORACLES["ks_test"] = sql_ks_test()


# ----------------- Welch's t between source cohorts (fixed-order)
#
# For every source, Welch's unequal-variance t statistic comparing
# its n_chars mean against the complement corpus — the significance
# companion to ks_test's distribution-shape score.  Integer moments
# (n, sum, sum-of-squares) per source plus the global pair come from
# ONE map-side-combined exchange; the driver-side finish is exact
# Python int until the single fixed-order float chain
#
#   t = (ma - mb) / sqrt(va/na + vb/nb)
#
# with ma = float(sa)/float(na), va = float(na*qa - sa*sa) /
# (float(na)*float(na-1)) — replayed verbatim by the oracle's
# HUGEINT -> DOUBLE casts, so the DOUBLE output hash-matches.

def q_welch_t(sf_dir: str):
    """(source, n, t_stat) per source vs the rest of the corpus."""
    import math

    import ray

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

    def moments(b: pa.Table) -> pa.Table:
        v = b.column("n_chars").to_numpy().astype(np.int64)
        df = pd.DataFrame({"source": b.column("source").to_pandas(),
                           "n": 1, "s": v, "q": v * v})
        return pa.Table.from_pandas(
            df.groupby("source", as_index=False, sort=False).sum(),
            preserve_index=False)

    agg = grouped_agg(
        ds.map_batches(moments, batch_format="pyarrow"),
        ["source"], {c: (c, "sum") for c in ("n", "s", "q")}).to_pandas()
    nt = int(agg["n"].sum())
    st = int(agg["s"].sum())
    qt = int(agg["q"].sum())

    out = []
    for _, r in agg.sort_values("source").iterrows():
        na, sa, qa = int(r["n"]), int(r["s"]), int(r["q"])
        nb, sb, qb = nt - na, st - sa, qt - qa
        if na < 2 or nb < 2:
            out.append((r["source"], na, None))
            continue
        ma = float(sa) / float(na)
        mb = float(sb) / float(nb)
        va = float(na * qa - sa * sa) / (float(na) * float(na - 1))
        vb = float(nb * qb - sb * sb) / (float(nb) * float(nb - 1))
        t = (ma - mb) / math.sqrt(va / float(na) + vb / float(nb))
        out.append((r["source"], na, t))
    import ray.data

    return ray.data.from_arrow(pa.table({
        "source": pa.array([o[0] for o in out], pa.string()),
        "n": pa.array([o[1] for o in out], pa.int64()),
        "t_stat": pa.array([o[2] for o in out], pa.float64())}))


def sql_welch_t() -> str:
    return (
        "WITH m AS (SELECT source, CAST(COUNT(*) AS HUGEINT) AS na, "
        "SUM(CAST(n_chars AS HUGEINT)) AS sa, "
        "SUM(CAST(n_chars AS HUGEINT)*CAST(n_chars AS HUGEINT)) AS qa "
        "FROM documents GROUP BY source), "
        "g AS (SELECT SUM(na) AS nt, SUM(sa) AS st, SUM(qa) AS qt "
        "FROM m), "
        "f AS (SELECT source, na, nt - na AS nb, sa, st - sa AS sb, "
        "qa, qt - qa AS qb FROM m, g) "
        "SELECT source, CAST(na AS BIGINT) AS n, "
        "CASE WHEN na < 2 OR nb < 2 THEN NULL ELSE "
        "(CAST(sa AS DOUBLE)/CAST(na AS DOUBLE) "
        "- CAST(sb AS DOUBLE)/CAST(nb AS DOUBLE)) / "
        "sqrt(CAST(na*qa - sa*sa AS DOUBLE)"
        "/(CAST(na AS DOUBLE)*CAST(na - 1 AS DOUBLE))/CAST(na AS DOUBLE)"
        " + CAST(nb*qb - sb*sb AS DOUBLE)"
        "/(CAST(nb AS DOUBLE)*CAST(nb - 1 AS DOUBLE))/CAST(nb AS DOUBLE)"
        ") END AS t_stat FROM f"
    )


QUERIES["welch_t"] = q_welch_t
ORACLES["welch_t"] = sql_welch_t()


# ------------------------- Benford first-digit profile (shared table)
#
# First-significant-digit distribution of n_chars vs Benford's law —
# the fabricated-data / synthetic-corpus smoke alarm.  The nine
# Benford probabilities are a FIXED quantized constant table (q12,
# precomputed once) shared verbatim by engine and oracle, so the
# expectation column is pure integer arithmetic (floor-half) — no
# runtime log10 whose last ulp could differ between numpy and DuckDB.
# One 9-row count exchange; excess_q12 = observed/N - benford, signed.

BENFORD_Q12 = {1: 301029995664, 2: 176091259056, 3: 124938736608,
               4: 96910013008, 5: 79181246048, 6: 66946789631,
               7: 57991946978, 8: 51152522447, 9: 45757490561}


def q_benford(sf_dir: str):
    """(digit, n_obs, benford_q12, obs_q12, excess_q12), 9 rows."""
    import ray
    import ray.data

    from ..stages.shuffle import grouped_agg

    def digits(b: pa.Table) -> pa.Table:
        v = b.column("n_chars").to_numpy().astype(np.int64)
        v = v[v > 0]
        while_div = v.copy()
        # vectorized leading digit: divide by 10 until < 10
        for _ in range(18):
            big = while_div >= 10
            if not big.any():
                break
            while_div = np.where(big, while_div // 10, while_div)
        vals, cnt = np.unique(while_div, return_counts=True)
        return pa.table({"digit": pa.array(vals),
                         "c": pa.array(cnt.astype(np.int64))})

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"])
    agg = grouped_agg(
        ds.map_batches(digits, batch_format="pyarrow"),
        ["digit"], {"c": ("c", "sum")}).to_pandas()
    by_d = {int(r["digit"]): int(r["c"]) for _, r in agg.iterrows()}
    n = sum(by_d.values())
    rows = []
    for d in range(1, 10):
        o = by_d.get(d, 0)
        obs = (2 * o * 10 ** 12 + n) // (2 * n) if n else None
        rows.append((d, o, BENFORD_Q12[d],
                     obs, obs - BENFORD_Q12[d] if n else None))
    return ray.data.from_arrow(pa.table({
        "digit": pa.array([r[0] for r in rows], pa.int64()),
        "n_obs": pa.array([r[1] for r in rows], pa.int64()),
        "benford_q12": pa.array([r[2] for r in rows], pa.int64()),
        "obs_q12": pa.array([r[3] for r in rows], pa.int64()),
        "excess_q12": pa.array([r[4] for r in rows], pa.int64())}))


def sql_benford() -> str:
    bt = ", ".join(f"({d}, {q})" for d, q in BENFORD_Q12.items())
    return (
        "WITH v AS (SELECT CAST(n_chars AS HUGEINT) AS x "
        "FROM documents WHERE n_chars > 0), "
        "d AS (SELECT CAST(substr(CAST(x AS VARCHAR), 1, 1) "
        "AS BIGINT) AS digit FROM v), "
        "c AS (SELECT digit, CAST(COUNT(*) AS HUGEINT) AS o FROM d "
        "GROUP BY digit), "
        "n AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nt FROM v), "
        f"b(digit, bq) AS (VALUES {bt}) "
        "SELECT b.digit::BIGINT AS digit, "
        "CAST(COALESCE(c.o, 0) AS BIGINT) AS n_obs, "
        "b.bq::BIGINT AS benford_q12, "
        "CASE WHEN nt = 0 THEN NULL ELSE "
        "CAST((2*COALESCE(c.o, 0)*1000000000000 + nt) // (2*nt) "
        "AS BIGINT) END AS obs_q12, "
        "CASE WHEN nt = 0 THEN NULL ELSE "
        "CAST((2*COALESCE(c.o, 0)*1000000000000 + nt) // (2*nt) "
        "- b.bq AS BIGINT) END AS excess_q12 "
        "FROM b LEFT JOIN c ON c.digit = b.digit, n"
    )


QUERIES["benford"] = q_benford
ORACLES["benford"] = sql_benford()
