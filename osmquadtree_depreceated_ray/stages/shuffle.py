"""Explicit hash-partitioned grouped aggregation.

Ray Data's sort-based ``groupby(...)`` carries a large constant overhead
(sample + range-partition + merge passes) that this engine's workloads
never need: hash-bucket boundaries are known a priori, so the shuffle
reduces to ONE raw exchange — exactly the pattern ``write_tiles.py``
uses for the tile writer, and what the reference's AllocBlockStore
shuffle is (/root/reference/blocksort/blocksort.go:63-98 — the shuffle
IS the allocator-keyed exchange, not a sort):

    1. split tasks: each takes a group of input blocks, hashes the key
       columns, and returns ``num_returns=n_buckets`` pieces
    2. one reduce task per bucket concats its pieces and runs the
       caller's VECTORIZED pandas fn once over the whole bucket
    3. the reduce results are re-wrapped as a Dataset
       (``ray.data.from_arrow_refs``) so pipelines keep chaining

This keeps the all-to-all exchange at n_buckets granularity (not
per-key), handles arbitrarily many distinct keys, and the per-bucket
aggregation runs at C speed.  Buckets are the unit of parallelism —
size ``n_buckets`` >= cluster cores for full width; skewed keys can be
salted (``salted_agg``).

Contract for ``fn``: it must group by the key columns itself
(vectorized), must not depend on bucket boundaries beyond key
co-location, and must accept an EMPTY correctly-typed DataFrame
(returning a correctly-typed empty result) — empty buckets receive
zero-row frames carrying the input schema.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa


def default_buckets(floor: int = 8, cap: int = 4096) -> int:
    """Exchange fan-out derived from the CLUSTER size: ~one bucket per
    CPU so every reducer slot stays busy on an N-node cluster, bounded
    below (enough key-splitting on tiny clusters) and above (the
    object count per exchange is O(split_tasks x n_buckets)).  Falls
    back to the local CPU count when Ray isn't up yet."""
    cpus = 0
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        cpus = 0
    if cpus <= 0:
        cpus = os.cpu_count() or 8
    return max(floor, min(cap, cpus))


def _stable_bucket(df: pd.DataFrame, keys: list[str], n_buckets: int) -> np.ndarray:
    """Dtype-insensitive hash routing.  pandas hashing is dtype-
    sensitive, and an int64 Arrow column containing a NULL arrives as
    float64 after to_pandas while a NULL-free block of the SAME column
    stays int64 — the same key value would route to different buckets
    depending on which block it sat in.  Canonicalize numeric/bool key
    columns to float64 before hashing (routing needs consistency, not
    injectivity, so the 2^53 mantissa limit only costs collisions)."""
    df = df[list(keys)]
    num = df.select_dtypes(include=["number", "bool"]).columns
    if len(num):
        df = df.copy()
        for c in num:
            df[c] = df[c].astype("float64")
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return (h % np.uint64(n_buckets)).astype(np.int64)


# ---------------------------------------------------------------- raw exchange

def _split_impl(keys, n_buckets, combine, *blocks):
    tbls = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
            for b in blocks]
    # unions can emit schema-less zero-row blocks; drop them (a zero-row
    # block WITH the key columns is kept so empty buckets stay typed)
    live = [t for t in tbls
            if t.num_rows or all(k in t.column_names for k in keys)]
    if not live:
        # no block carries the key columns (Ray's pandas map_batches
        # skips the UDF on zero-row blocks, so computed keys never
        # materialize on an empty stream) — emit explicitly schema-less
        # empties; the reduce treats an all-schema-less bucket as
        # zero rows without calling fn
        empty = pa.table({})
        return tuple(empty for _ in range(n_buckets)) if n_buckets > 1 else empty
    block = live[0] if len(live) == 1 else pa.concat_tables(
        live, promote_options="default")
    if combine is not None:
        # map-side combiner: shrink per-key BEFORE the exchange (the
        # classic partial-aggregation pattern — exchange volume becomes
        # O(distinct keys per split task), not O(rows))
        block = pa.Table.from_pandas(
            combine(block.to_pandas()),
            preserve_index=False).replace_schema_metadata(None)
    df = block.select(list(keys)).to_pandas()
    bk = _stable_bucket(df, list(keys), n_buckets)
    outs = []
    for i in range(n_buckets):
        m = bk == i
        # zero-row slices keep the schema so empty buckets still see
        # correctly-typed frames
        outs.append(block.filter(pa.array(m)) if m.any() else block.slice(0, 0))
    return tuple(outs) if n_buckets > 1 else outs[0]


def _reduce_impl(fn, *pieces):
    live = [p for p in pieces if p.num_columns]
    if not live:
        # every split task saw only schema-less empty blocks: the
        # keyed input is empty, and fn's contract (a frame carrying
        # the key columns) cannot be met — a keyed aggregate/apply
        # over an empty relation is empty
        return pa.table({}), 0
    tbl = pa.concat_tables(live, promote_options="default")
    out = fn(tbl.to_pandas())
    if not isinstance(out, pa.Table):
        # strip the pandas schema metadata: it would round-trip
        # extension dtypes (Int64) back out of to_pandas(), making
        # result dtypes depend on which code path produced a block
        out = pa.Table.from_pandas(
            out, preserve_index=False).replace_schema_metadata(None)
    # second return: row count, so the driver can drop empty blocks
    # (an empty pandas frame infers null-typed columns — unioning those
    # into the result dataset triggers schema-mismatch hazards)
    return out, out.num_rows


_split = None
_reduce = None


def _get_remote_fns():
    """Export the exchange's remote functions once per session (defining
    them per call re-pickles + re-registers them — measured fixed cost)."""
    global _split, _reduce
    if _split is None:
        import ray

        _split = ray.remote(_split_impl)
        _reduce = ray.remote(_reduce_impl)
    return _split, _reduce


def bucketed_apply(
    ds,
    keys: list[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    n_buckets: int | None = None,
    combine: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
):
    """Apply ``fn`` to each hash bucket (a pandas DataFrame containing
    every row of every key hashed there).  See module docstring for the
    ``fn`` contract.  ``combine``, if given, is a per-key shrink applied
    inside each split task before the exchange (must be safe on partial
    per-key data, e.g. a partial aggregation).  ``n_buckets`` defaults
    to the cluster-derived :func:`default_buckets`.  Returns a Dataset
    of the concatenated results."""
    if n_buckets is None:
        n_buckets = default_buckets()

    import ray
    import ray.data

    split, reduce_ = _get_remote_fns()
    block_refs = [
        ref
        for bundle in ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    if not block_refs:
        # empty input: run fn driver-side on an empty typed frame
        return ds.map_batches(
            lambda df: fn(df), batch_format="pandas", batch_size=None)
    # bound the exchange's object count at ~n_tasks x n_buckets: group
    # input blocks so there are about n_buckets split tasks
    n_tasks = max(1, min(len(block_refs), n_buckets))
    groups = [block_refs[i::n_tasks] for i in range(n_tasks)]
    pieces = [
        split.options(num_returns=n_buckets).remote(
            tuple(keys), n_buckets, combine, *g)
        for g in groups if g
    ]
    if n_buckets == 1:
        pieces = [[p] for p in pieces]
    outs = [
        reduce_.options(num_returns=2).remote(
            fn, *[pieces[t][b] for t in range(len(pieces))])
        for b in range(n_buckets)
    ]
    counts = ray.get([c for _, c in outs])
    keep = [t for (t, _), c in zip(outs, counts) if c > 0]
    if not keep:
        keep = [outs[0][0]]
    return ray.data.from_arrow_refs(keep)


_SALT_MERGE = {"sum": "sum", "min": "min", "max": "max", "size": "sum",
               "count": "sum", "first": "first"}

# aggs where partial-then-merge is order-independent ('first' is
# excluded: split-task piece order would become the result)
_COMBINABLE = {"sum", "min", "max", "size", "count"}


def _agg_apply(g: pd.DataFrame, keys, spec) -> pd.DataFrame:
    """groupby-agg with SQL NULL-key grouping and an object-dtype
    MIN/MAX fallback: pandas cannot order str vs None, so groups mixing
    strings and NULLs raise TypeError on the cython path — retry those
    specs with a null-skipping per-group callable (numeric and
    null-free string columns keep the fast path)."""
    gb = g.groupby(list(keys), as_index=False, sort=False, dropna=False)
    try:
        return gb.agg(**spec)
    except TypeError:
        safe = {}
        for out, (col, how) in spec.items():
            if how in ("min", "max"):
                safe[out] = (col, (lambda s, _h=how:
                                   (getattr(s.dropna(), _h)()
                                    if s.notna().any() else None)))
            else:
                safe[out] = (col, how)
        return gb.agg(**safe)


def grouped_agg(
    ds,
    keys: list[str],
    agg_spec: dict[str, tuple[str, str]],
    n_buckets: int | None = None,
):
    """Exact distributed grouped aggregation.

    agg_spec: out_col -> (in_col, how) with pandas named-agg semantics
    ('sum', 'min', 'max', 'size', 'first', ...).  When every agg is
    associative the split tasks pre-aggregate (map-side combine) so the
    exchange moves O(distinct keys), not O(rows).
    """

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False inside: SQL groups NULL keys together (a key
        # that is NULL in every engine-visible sense — None/NaN — forms
        # its own group; pandas silently drops it by default)
        return _agg_apply(g, keys, dict(agg_spec))

    if all(how in _COMBINABLE for _, how in agg_spec.values()):
        merge_spec = {
            out: (out, _SALT_MERGE[how]) for out, (_, how) in agg_spec.items()
        }

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            return _agg_apply(g, keys, merge_spec)

        return bucketed_apply(ds, keys, merge, n_buckets, combine=agg)
    return bucketed_apply(ds, keys, agg, n_buckets)


def salted_agg(
    ds,
    keys: list[str],
    agg_spec: dict[str, tuple[str, str]],
    n_salts: int = 16,
    n_buckets: int | None = None,
):
    """Skew-immune grouped aggregation for ASSOCIATIVE aggregates
    (sum/min/max/size/count/first).

    A key receiving a large share of all rows turns the plain
    hash-bucket shuffle into one straggler bucket.  Phase 1 groups by
    (keys + salt) — the hot key's rows spread across ``n_salts``
    partial groups that land in different buckets; phase 2 is a second
    (tiny) grouped_agg over the partials.  Exchange volume for phase 2
    is O(distinct keys x n_salts), independent of row skew."""
    unsupported = [h for _, (_, h) in agg_spec.items()
                   if h not in _SALT_MERGE]
    if unsupported:
        raise ValueError(f"non-associative aggs cannot be salted: "
                         f"{unsupported}")

    def add_salt(b: pa.Table) -> pa.Table:
        # deterministic, uniform within every batch
        salt = np.arange(b.num_rows, dtype=np.int64) % n_salts
        return b.append_column("__salt", pa.array(salt))

    phase1 = grouped_agg(
        ds.map_batches(add_salt, batch_format="pyarrow"),
        list(keys) + ["__salt"], agg_spec, n_buckets,
    )
    merge_spec = {
        out: (out, _SALT_MERGE[how]) for out, (_, how) in agg_spec.items()
    }
    return grouped_agg(phase1, list(keys), merge_spec, n_buckets)


def distinct(ds, keys: list[str], n_buckets: int | None = None):
    """Exact distributed distinct over ``keys`` (map-side project +
    pre-dedup fused into the split tasks, per-bucket final dedup)."""

    int_cols = [n for n, t in zip(ds.schema().names, ds.schema().types)
                if n in keys and isinstance(t, pa.DataType)
                and pa.types.is_integer(t)]

    def _restore(g: pd.DataFrame) -> pd.DataFrame:
        # a NULL-bearing int column comes back float64 from the pandas
        # round trip; pin the declared integer type (nullable Int64) so
        # every block carries the same schema
        for c in int_cols:
            if g[c].dtype.kind == "f":
                g = g.assign(**{c: g[c].astype("Int64")})
        return g

    def pre(g: pd.DataFrame) -> pd.DataFrame:
        return _restore(g[list(keys)].drop_duplicates())

    def dd(g: pd.DataFrame) -> pd.DataFrame:
        return _restore(g.drop_duplicates())

    return bucketed_apply(ds, keys, dd, n_buckets, combine=pre)
