"""Corpus-curation operators for a training-data pipeline: dedup
clustering (connected components over the MinHash-LSH candidate graph),
exact distributed heavy hitters, per-stratum deterministic sampling,
PII-style redaction, and TF-IDF top terms.

These extend the engine beyond the reference's own surface (the task
brief's "operations a large-scale training-data pipeline would need");
the distributed shapes run on the bucketed exchange of
``stages/exchange.py`` (directly, or through ``stages/shuffle.py``).
``tfidf_top`` broadcasts its document-frequency table up to the single
cap ``stages.shuffle.BROADCAST_MAX`` rows and cogroups it above.
All numeric outputs are exact-integer or correctly-rounded IEEE
doubles so the DuckDB oracles hash-match.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.lookup import sorted_lookup
from ..stages.exchange import block_groups, exchange, route
from ..stages.shuffle import BROADCAST_MAX
from .queries_text import _md5_lower64

# ------------------------------------------------------------ shared helpers


def _md5(s: str) -> str:
    return hashlib.md5(s.encode()).hexdigest()


def _explode_words(b: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(doc_id repeated per word, word) arrays for a documents batch,
    whitespace-split — the same tokenization every text query uses.

    One global split of the space-joined batch (a single C call, no
    per-row list objects — measured 1.4x the per-row split+concat) with
    per-doc lengths from the vectorized space count."""
    texts = b.column("text").to_pylist()
    doc = b.column("doc_id").to_numpy()
    if not texts:
        return doc[:0], np.asarray([], dtype=object)
    words = np.asarray(" ".join(texts).split(" "), dtype=object)
    lens = (pd.Series(texts).str.count(" ") + 1).to_numpy()
    return np.repeat(doc, lens), words


# ---------------------------------------------------- 1. dedup clustering
#
# Connected components over the MinHash-LSH candidate-pair graph: the
# step a real dedup pipeline runs AFTER pair generation — near-dup pairs
# are transitive in practice, and the keep/drop decision needs one
# canonical representative per CLUSTER, not per pair.
#
# Algorithm: hash-min label propagation with REPLACING shortcut
# shards, run as a raw two-wave exchange per round (the one place the
# Dataset API genuinely doesn't fit: an iterative fixpoint pays full
# pipeline planning several times per round; kmeans makes the same
# call).  State is hash-sharded by node into _cc_buckets() shards
# (original edges by src, labels by node) and stays in the object
# store between rounds; the driver holds only object refs and one
# changed-count int per round.
#
#   scatter (per bucket): join local original edges AND the current
#     shortcut shard to local labels -> candidate (dst, label(src))
#     rows, plus next round's shortcut (label(v), v) for every
#     non-root v, all hash-routed into _cc_buckets() pieces
#   gather (per bucket): min-merge candidates into the local labels,
#     collect incoming shortcuts as the next round's shard,
#     return (sc, labels, n_changed)
#
# Shortcuts make every round relax label(label(v)) as well as the
# neighbour labels — pointer jumping, so rounds = O(log diameter)
# instead of O(diameter).  Labels only decrease and always hold an id
# from the own component, so sum(changed) == 0 is an exact fixpoint
# witness.  DELTA propagation: an edge fires only when its src label
# changed last round (resending an unchanged value is redundant in the
# min semiring), except that a jump edge fires unconditionally on its
# first round (the registration-time parent label must be delivered
# once even if the parent never changes again).  Jump edges accumulate
# bounded by the total number of label changes (O(nodes log diameter));
# the original edge shards never change.

CC_MAX_ROUNDS = 64


def _cc_buckets() -> int:
    """Label-propagation shard count, derived from the cluster size
    (one shard per CPU, floor 16 so small boxes still split hot keys)."""
    from ..stages.shuffle import default_buckets

    return default_buckets(floor=16)


def _cc_route(node: np.ndarray, n: int) -> np.ndarray:
    return (node.astype(np.uint64) % np.uint64(n)).astype(np.int64)


def _cc_init_split_impl(n, kind, *blocks):
    """Hash-shard pair blocks (kind='edges': emit both directions,
    keyed by src) or doc_id blocks (kind='labels') into n buckets."""
    need = ("a", "b") if kind == "edges" else ("doc_id",)
    tbls = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
            for b in blocks]
    # schema-less zero-row blocks (Ray skips UDFs on empty blocks) are
    # zero rows of the right shape
    tbls = [t for t in tbls
            if all(c in t.column_names for c in need)]
    if not tbls:
        df = pd.DataFrame({c: pd.Series([], dtype="int64") for c in need})
    else:
        df = pa.concat_tables(tbls, promote_options="default").to_pandas()
    if kind == "edges":
        a, b_ = df["a"].to_numpy(np.int64), df["b"].to_numpy(np.int64)
        out = pd.DataFrame({"src": np.concatenate([a, b_]),
                            "dst": np.concatenate([b_, a])})
        key = out["src"].to_numpy()
    else:
        ids = df["doc_id"].to_numpy(np.int64)
        # chg=1: every node is "freshly changed" at round 0, so the
        # first scatter fires every edge (delta propagation after that)
        out = pd.DataFrame({"node": ids, "label": ids,
                            "chg": np.ones(len(ids), np.int8)})
        key = ids
    return route(_cc_route(key, n), n,
                 pa.Table.from_pandas(out, preserve_index=False))


def _cc_concat_impl(*pieces):
    return pa.concat_tables(pieces, promote_options="default")


def _cc_scatter_impl(n, edges, sc, labels):
    """One bucket's scatter: candidate labels for the targets of this
    bucket's ORIGINAL edges and of the CURRENT shortcut edges, plus the
    next round's shortcuts, all hash-routed home.  Output rows:
    (node, dst, label) — dst >= 0 marks a shortcut (src=node), label
    >= 0 marks a candidate.

    Every edge src lives in this bucket by construction, so the
    src->label join is one searchsorted against the bucket's sorted
    node array.  DELTA propagation: only edges whose src label CHANGED
    last round fire (an unchanged label's candidate was already
    min-merged — resending is redundant in the min semiring), and only
    freshly-changed non-roots register a jump edge (label(v), v) at
    their parent's bucket.  Jump edges accumulate in the sc shard (a
    stale parent can only send a dominated candidate; min-merge
    ignores it), bounded by the total number of label changes."""
    nodes = labels.column("node").to_numpy().astype(np.int64)
    labs = labels.column("label").to_numpy().astype(np.int64)
    chg = labels.column("chg").to_numpy().astype(np.int8)
    e_src = edges.column("src").to_numpy().astype(np.int64)
    src = np.concatenate([
        e_src, sc.column("src").to_numpy().astype(np.int64)])
    dst_e = np.concatenate([
        edges.column("dst").to_numpy().astype(np.int64),
        sc.column("dst").to_numpy().astype(np.int64)])
    # a jump edge fires unconditionally on its FIRST round (its parent's
    # label may be final already — the registration-time value must
    # still be delivered once), then by delta like the original edges
    force = np.concatenate([
        np.zeros(len(e_src), np.int8),
        sc.column("fresh").to_numpy().astype(np.int8)])
    if len(nodes):
        order = np.argsort(nodes, kind="stable")
        ns, ls = nodes[order], labs[order]
        cs = chg[order]
        pos = np.searchsorted(ns, src)
        pos[pos >= len(ns)] = 0
        ok = (ns[pos] == src) & ((cs[pos] == 1) | (force == 1))
        cand_node = dst_e[ok]
        cand_label = ls[pos[ok]]
    else:
        cand_node = np.zeros(0, np.int64)
        cand_label = np.zeros(0, np.int64)
    nr = (nodes != labs) & (chg == 1)
    sc_src = labs[nr]
    sc_dst = nodes[nr]
    node = np.concatenate([cand_node, sc_src])
    dst = np.concatenate([np.full(len(cand_node), -1, np.int64), sc_dst])
    label = np.concatenate([cand_label,
                            np.full(len(sc_src), -1, np.int64)])
    return route(_cc_route(node, n), n,
                 {"node": node, "dst": dst, "label": label})


def _cc_gather_impl(labels, sc, *pieces):
    """One bucket's gather: min-merge candidates into the local labels
    (sort + minimum.reduceat + searchsorted — pure numpy), mark which
    labels changed (next round's frontier), and append the incoming
    jump edges to the persistent sc shard."""
    inc_node = np.concatenate([
        p.column("node").to_numpy().astype(np.int64) for p in pieces])
    inc_dst = np.concatenate([
        p.column("dst").to_numpy().astype(np.int64) for p in pieces])
    inc_label = np.concatenate([
        p.column("label").to_numpy().astype(np.int64) for p in pieces])
    nodes = labels.column("node").to_numpy().astype(np.int64)
    labs = labels.column("label").to_numpy().astype(np.int64).copy()
    chg = np.zeros(len(nodes), np.int8)
    changed = 0
    cmask = inc_label >= 0
    if cmask.any() and len(nodes):
        cn, cl = inc_node[cmask], inc_label[cmask]
        order = np.lexsort((cl, cn))
        cn, cl = cn[order], cl[order]
        starts = np.flatnonzero(np.r_[True, cn[1:] != cn[:-1]])
        uniq = cn[starts]
        mins = np.minimum.reduceat(cl, starts)
        norder = np.argsort(nodes, kind="stable")
        ns = nodes[norder]
        pos = np.searchsorted(ns, uniq)
        pos[pos >= len(ns)] = 0
        ok = ns[pos] == uniq
        tgt = norder[pos[ok]]
        new = np.minimum(labs[tgt], mins[ok])
        hit = new < labs[tgt]
        changed = int(hit.sum())
        labs[tgt] = new
        chg[tgt[hit]] = 1
    smask = inc_dst >= 0
    n_old = sc.num_rows
    sc_src = np.concatenate([
        sc.column("src").to_numpy().astype(np.int64), inc_node[smask]])
    sc_dst = np.concatenate([
        sc.column("dst").to_numpy().astype(np.int64), inc_dst[smask]])
    fresh = np.zeros(len(sc_src), np.int8)
    fresh[n_old:] = 1
    return (pa.table({"src": sc_src, "dst": sc_dst, "fresh": fresh}),
            pa.table({"node": nodes, "label": labs,
                      "chg": chg}),
            changed)


def cc_label_refs(pairs_ds, ids_ds):
    """Run the pointer-doubling label propagation over an undirected
    pair Dataset (columns a, b) and a node Dataset (column doc_id);
    returns the per-bucket (node, label) Arrow table refs at fixpoint.
    Labels hold the minimum reachable node id.  Shared by the LSH
    dedup clustering and spatial DBSCAN."""
    import ray

    n = _cc_buckets()

    def shard(ds, kind):
        groups = block_groups(ds, n)
        if not groups:
            empty = pa.table({"node": pa.array([], pa.int64()),
                              "label": pa.array([], pa.int64()),
                              "chg": pa.array([], pa.int8())})
            if kind == "edges":
                empty = pa.table({"src": pa.array([], pa.int64()),
                                  "dst": pa.array([], pa.int64())})
            return [ray.put(empty) for _ in range(n)]
        return exchange(_cc_init_split_impl, [(n, kind, *g) for g in groups],
                        _cc_concat_impl, [()] * n, n)

    edges = shard(pairs_ds, "edges")
    labels = shard(ids_ds, "labels")
    empty_sc = pa.table({"src": pa.array([], pa.int64()),
                         "dst": pa.array([], pa.int64()),
                         "fresh": pa.array([], pa.int8())})
    sc = [ray.put(empty_sc) for _ in range(n)]
    for _ in range(CC_MAX_ROUNDS):
        gathered = exchange(
            _cc_scatter_impl, [(n, edges[b], sc[b], labels[b])
                               for b in range(n)],
            _cc_gather_impl, [(labels[b], sc[b]) for b in range(n)],
            n, returns=3)
        sc = [g[0] for g in gathered]
        labels = [g[1] for g in gathered]
        if sum(ray.get([g[2] for g in gathered])) == 0:
            break
    return labels


def q_dedup_components(sf_dir: str):
    import ray

    from .queries_text import q_minhash_pairs

    labels = cc_label_refs(
        q_minhash_pairs(sf_dir),
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id"]))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["node"].to_numpy(),
                "component": df["label"].to_numpy(),
                "is_canonical": (df["node"] == df["label"]).astype(np.int64),
            }
        )

    return ray.data.from_arrow_refs(labels).map_batches(
        finish, batch_format="pandas")



def sql_dedup_components() -> str:
    from .queries_text import sql_minhash_pairs

    # min-reachable-id via recursive closure over the same LSH pairs the
    # engine clusters (full-chain oracle: pair generation included)
    return (
        f"WITH RECURSIVE pairs AS ({sql_minhash_pairs()}), "
        "e AS (SELECT a AS src, b AS dst FROM pairs "
        "UNION ALL SELECT b, a FROM pairs), "
        "walk(node, lab) AS ("
        "SELECT doc_id, doc_id FROM documents "
        "UNION "
        "SELECT e.dst, w.lab FROM walk w JOIN e ON e.src = w.node) "
        "SELECT node AS doc_id, MIN(lab) AS component, "
        "CAST(node = MIN(lab) AS BIGINT) AS is_canonical "
        "FROM walk GROUP BY node"
    )


# ------------------------------------------------- 2. exact heavy hitters
#
# Exact distributed top-K tokens with BOUNDED exchange: phase 1 keeps
# only each task's local top-M words (plus one residual-bound row), so
# candidate volume is O(M x tasks) regardless of corpus size; phase 2
# exactly recounts the candidate set alone (broadcast membership
# filter).  Certificate: a word absent from every task's top-M has
# global count <= sum of per-task dropped maxima — asserted against the
# K-th candidate count, so the returned top-K is provably exact (the
# classic distributed Misra-Gries + recount construction).

HH_K = 10
HH_M = 64
_HH_RESIDUAL = "\x00residual"


def q_heavy_hitters(sf_dir: str):
    import ray

    from ..stages.shuffle import grouped_agg

    def partial_top(b: pa.Table) -> pa.Table:
        _, words = _explode_words(b)
        uniq, cnt = np.unique(words, return_counts=True)
        if len(uniq) > HH_M:
            order = np.argsort(-cnt, kind="stable")
            keep, drop = order[:HH_M], order[HH_M:]
            dropped_max = int(cnt[drop].max())
            uniq, cnt = uniq[keep], cnt[keep]
        else:
            dropped_max = 0
        return pa.table(
            {
                "word": pa.array(
                    list(uniq) + [_HH_RESIDUAL], pa.string()),
                "cnt": pa.array(
                    np.concatenate([cnt, [dropped_max]]), pa.int64()),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    phase1 = grouped_agg(
        ds.map_batches(partial_top, batch_format="pyarrow"),
        ["word"], {"cnt": ("cnt", "sum")},
    ).to_pandas()  # O(M x tasks) rows — bounded, driver-safe by design
    residual_bound = int(
        phase1.loc[phase1["word"] == _HH_RESIDUAL, "cnt"].sum())
    cand_arr = np.sort(
        phase1.loc[phase1["word"] != _HH_RESIDUAL, "word"]
        .to_numpy(dtype=object))
    cand_ref = ray.put(cand_arr)

    def recount(b: pa.Table) -> pa.Table:
        # vectorized membership: unique the batch words once, then one
        # sorted-array searchsorted against the broadcast candidates —
        # no per-word Python loop over the corpus
        _, words = _explode_words(b)
        uniq, cnt = np.unique(words, return_counts=True)
        keep, _ = sorted_lookup(ray.get(cand_ref), uniq)
        uniq, cnt = uniq[keep], cnt[keep]
        return pa.table(
            {"word": pa.array(list(uniq), pa.string()),
             "cnt": pa.array(cnt, pa.int64())}
        )

    exact = grouped_agg(
        ds.map_batches(recount, batch_format="pyarrow"),
        ["word"], {"cnt": ("cnt", "sum")},
    ).to_pandas()  # candidate-set-sized
    exact = exact.sort_values(
        ["cnt", "word"], ascending=[False, True], kind="stable"
    ).head(HH_K).reset_index(drop=True)
    kth = int(exact["cnt"].iloc[-1]) if len(exact) else 0
    # exactness certificate: nothing outside the candidate set can reach
    # the K-th candidate (a tie at the bound could lose to a smaller
    # lexicographic outsider, so strict unless nothing was dropped)
    assert residual_bound == 0 or kth > residual_bound, (kth, residual_bound)
    exact["rank"] = np.arange(1, len(exact) + 1, dtype=np.int64)
    return pa.Table.from_pandas(exact[["rank", "word", "cnt"]],
                                preserve_index=False)


def sql_heavy_hitters() -> str:
    return (
        "WITH w AS (SELECT unnest(string_split(text, ' ')) AS word "
        "FROM documents), "
        "c AS (SELECT word, COUNT(*) AS cnt FROM w GROUP BY word) "
        "SELECT CAST(row_number() OVER (ORDER BY cnt DESC, word) AS BIGINT) "
        "AS rank, word, CAST(cnt AS BIGINT) AS cnt FROM c "
        f"ORDER BY cnt DESC, word LIMIT {HH_K}"
    )


# -------------------------------------- 3. stratified deterministic sample
#
# Exact per-stratum sample: the N docs with the smallest
# md5(str(doc_id)) per language.  Hash-rank sampling is reproducible
# across runs/machines and composable (a later run with larger N is a
# superset); per-split top-N is associative, so the combiner bounds the
# exchange at O(N x strata) per split task.

STRAT_N = 20


def q_stratified_sample(sf_dir: str):
    import ray

    from ..stages.shuffle import bucketed_apply

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": df["lang"].to_numpy(),
                "doc_id": df["doc_id"].to_numpy(),
                "h": [_md5(str(i)) for i in df["doc_id"].to_numpy()],
            }
        )

    def topn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["lang", "h", "doc_id"], kind="stable")
        return g.groupby("lang", sort=False).head(STRAT_N)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["lang", "h", "doc_id"], kind="stable")
        g = g.groupby("lang", sort=False).head(STRAT_N).copy()
        g["rk"] = g.groupby("lang", sort=False).cumcount() + 1
        return g[["lang", "doc_id", "rk"]]

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return bucketed_apply(
        ds.map_batches(keyed, batch_format="pandas"),
        ["lang"], finish, n_buckets=16, combine=topn,
    )


def sql_stratified_sample() -> str:
    return (
        "SELECT lang, doc_id, CAST(rk AS BIGINT) AS rk FROM ("
        "SELECT lang, doc_id, row_number() OVER (PARTITION BY lang "
        "ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rk "
        f"FROM documents) t WHERE rk <= {STRAT_N}"
    )


# --------------------------------------------------- 4. PII-style redaction
#
# Redact digit runs in the events payload column (the stand-in for
# email/phone/SSN scrubbing — the container has no PII corpus, and the
# digit-run pattern is the regex-dialect-safe common denominator between
# Python re and DuckDB RE2).  Pure map_batches: embarrassingly parallel,
# compiled pattern, vectorized pandas str kernels.

_NUM_PAT = re.compile(r"[0-9]+")


def q_pii_redact(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        p = b.column("props").to_pandas()
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "redacted": pa.array(
                    p.str.replace(_NUM_PAT, "<NUM>", regex=True), pa.string()),
                "n_redacted": pa.array(
                    p.str.count(_NUM_PAT.pattern).astype("int64")),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_pii_redact() -> str:
    return (
        "SELECT event_id, "
        "regexp_replace(props, '[0-9]+', '<NUM>', 'g') AS redacted, "
        "CAST(len(regexp_extract_all(props, '[0-9]+')) AS BIGINT) "
        "AS n_redacted FROM events"
    )


# ------------------------------------------------------ 5. TF-IDF top terms
#
# Top-3 terms per document by tf/df score.  The document-frequency
# table is vocabulary-sized (Heaps' law: << corpus), built with one
# map-side-combined exchange, then BROADCAST (``broadcast_table`` keyed
# by the word's md5-low64, read once per worker) into a per-batch
# vectorized scoring pass — the canonical small-side pattern, no second
# shuffle.  Above ``BROADCAST_MAX`` terms (at 100 TB the vocabulary is
# hundreds of millions of terms) scoring becomes a word cogroup
# instead.  Scores are single correctly-
# rounded IEEE divisions (tf, df exact ints), so DuckDB reproduces them
# bit-exactly; ties break on word ASC.

TFIDF_TOP = 3


def _doc_tf(b: pa.Table) -> pa.Table:
    """(doc_id, word, tf) exact per-doc term frequencies — exact
    because a document's text lives in one batch row."""
    doc, words = _explode_words(b)
    t = (
        pd.DataFrame({"doc_id": doc, "word": words})
        .groupby(["doc_id", "word"], sort=False).size()
        .reset_index(name="tf")
    )
    t["tf"] = t["tf"].astype(np.int64)
    return pa.Table.from_pandas(t, preserve_index=False)


def _tfidf_topn(t: pd.DataFrame) -> pd.DataFrame:
    """score + per-doc top-N over a frame that has doc_id/word/tf/df_docs."""
    t = t.copy()
    t["score"] = t["tf"].to_numpy().astype(np.float64) / t[
        "df_docs"].to_numpy().astype(np.float64)
    t = t.sort_values(
        ["doc_id", "score", "word"], ascending=[True, False, True],
        kind="stable")
    t = t.groupby("doc_id", sort=False).head(TFIDF_TOP)
    t["tf"] = t["tf"].astype(np.int64)
    t["df_docs"] = t["df_docs"].astype(np.int64)
    return t[["doc_id", "word", "tf", "df_docs", "score"]]


def q_tfidf_top(sf_dir: str, broadcast_max: int = BROADCAST_MAX):
    import ray

    from ..stages.shuffle import (
        broadcast_table, bucketed_apply, grouped_agg,
    )

    def doc_word_partials(b: pa.Table) -> pa.Table:
        doc, words = _explode_words(b)
        dw = pd.DataFrame({"d": doc, "word": words}).drop_duplicates()
        per = dw.groupby("word", sort=False).size()
        return pa.table(
            {"word": pa.array(per.index.to_numpy(), pa.string()),
             "n": pa.array(per.to_numpy().astype(np.int64))}
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    df_ds = grouped_agg(
        ds.map_batches(doc_word_partials, batch_format="pyarrow"),
        ["word"], {"df_docs": ("n", "sum")},
    )
    # under the cap the broadcast copy is keyed by md5-low64, so it
    # holds no strings: one hash per vocabulary term, on the driver
    vocab = broadcast_table(
        df_ds, "word", broadcast_max,
        key_fn=lambda w: _md5_lower64(w).view(np.int64))
    if vocab is None:
        # --- scale path: word cogroup, vocabulary never leaves the
        # object store.  tf rows and df rows meet per word bucket; the
        # joined scores re-bucket on doc_id for the top-N.
        def join_df(tfs: pd.DataFrame, dfs: pd.DataFrame) -> pd.DataFrame:
            lut = pd.Series(dfs["df_docs"].to_numpy(),
                            index=dfs["word"].to_numpy())
            return tfs.assign(df_docs=tfs["word"].map(lut).astype(np.int64))

        joined = bucketed_apply(
            (ds.map_batches(_doc_tf, batch_format="pyarrow"), df_ds),
            ["word"], join_df)
        return bucketed_apply(joined, ["doc_id"], _tfidf_topn)

    def score(b: pa.Table) -> pa.Table:
        t = _doc_tf(b).to_pandas()
        # md5 once per unique word in the batch, then one sorted lookup
        codes, uniq = pd.factorize(t["word"], sort=False)
        _, (df_docs,) = vocab.lookup(
            _md5_lower64(uniq).view(np.int64), "df_docs")
        t["df_docs"] = df_docs[codes]
        return pa.Table.from_pandas(_tfidf_topn(t), preserve_index=False)

    return ds.map_batches(score, batch_format="pyarrow")


def sql_tfidf_top() -> str:
    return (
        "WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word "
        "FROM documents), "
        "tf AS (SELECT doc_id, word, COUNT(*) AS tf FROM w "
        "GROUP BY doc_id, word), "
        "df AS (SELECT word, COUNT(DISTINCT doc_id) AS df_docs FROM w "
        "GROUP BY word), "
        "s AS (SELECT tf.doc_id, tf.word, tf.tf, df.df_docs, "
        "CAST(tf.tf AS DOUBLE) / df.df_docs AS score, "
        "row_number() OVER (PARTITION BY tf.doc_id "
        "ORDER BY CAST(tf.tf AS DOUBLE) / df.df_docs DESC, tf.word) AS rk "
        "FROM tf JOIN df USING (word)) "
        "SELECT doc_id, word, CAST(tf AS BIGINT) AS tf, "
        "CAST(df_docs AS BIGINT) AS df_docs, score FROM s "
        f"WHERE rk <= {TFIDF_TOP}"
    )


QUERIES = {
    "dedup_components": q_dedup_components,
    "heavy_hitters": q_heavy_hitters,
    "stratified_sample": q_stratified_sample,
    "pii_redact": q_pii_redact,
    "tfidf_top": q_tfidf_top,
}

ORACLES = {
    "dedup_components": sql_dedup_components,
    "heavy_hitters": sql_heavy_hitters(),
    "stratified_sample": sql_stratified_sample(),
    "pii_redact": sql_pii_redact(),
    "tfidf_top": sql_tfidf_top(),
}


# --------------------------------------------------- robust outliers

# Per-language robust outlier detection on document length: the classic
# median / MAD (median absolute deviation) screen used in corpus
# quality control — |x - median| > K * MAD flags documents whose length
# is anomalous FOR THEIR LANGUAGE (a z-score screen would be wrecked by
# the very outliers it hunts; the median/MAD pair has a 50% breakdown
# point).  MAD = 0 (over half the group at the median) degenerates to
# "any deviation flags", the standard convention.
#
# Distributed shape: medians are not map-combinable, so the group's
# rows ride one bucketed exchange hashed on lang (the documented
# exact-median pattern, same as the MEDIAN SQL aggregate); everything
# inside the bucket is vectorized pandas.  Languages are few and heavy
# — the exchange is skewed by construction, but each group reduces to
# O(1) rows of driver-visible output, and the per-bucket work is a
# linear scan + two sorts.

OUTLIER_K = 3.0


def q_outliers_mad(sf_dir: str):
    """Per-document robust-outlier annotation: (doc_id, lang, n_chars,
    med_q12, mad_q12, is_outlier) where is_outlier flags |n_chars -
    median| > OUTLIER_K * MAD within the document's language."""
    import ray.data

    from ..stages.shuffle import bucketed_apply

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _lang, grp in g.groupby("lang", sort=False, dropna=False):
            x = grp["n_chars"].to_numpy(np.float64)
            med = float(np.median(x))
            mad = float(np.median(np.abs(x - med)))
            sub = grp[["doc_id", "lang", "n_chars"]].copy()
            sub["med_q12"] = np.int64(np.floor(med * 1e12 + 0.5))
            sub["mad_q12"] = np.int64(np.floor(mad * 1e12 + 0.5))
            sub["is_outlier"] = (np.abs(x - med)
                                 > OUTLIER_K * mad).astype(np.int64)
            outs.append(sub)
        if not outs:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "lang": pd.Series([], dtype="string"),
                "n_chars": pd.Series([], dtype="int64"),
                "med_q12": pd.Series([], dtype="int64"),
                "mad_q12": pd.Series([], dtype="int64"),
                "is_outlier": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    return bucketed_apply(ds, ["lang"], flag)


def sql_outliers_mad() -> str:
    """DuckDB oracle: group medians via window MEDIAN (interpolated,
    matching numpy), MAD in a second layer, quantized q12."""
    return f"""
WITH med AS (
  SELECT doc_id, lang, n_chars,
         MEDIAN(n_chars) OVER (PARTITION BY lang) AS med
  FROM documents
), mad AS (
  SELECT doc_id, lang, n_chars, med,
         MEDIAN(ABS(n_chars - med)) OVER (PARTITION BY lang) AS mad
  FROM med
)
SELECT doc_id, lang, n_chars,
       CAST(FLOOR(med * 1e12 + 0.5) AS BIGINT) AS med_q12,
       CAST(FLOOR(mad * 1e12 + 0.5) AS BIGINT) AS mad_q12,
       CAST(CASE WHEN ABS(n_chars - med) > {OUTLIER_K} * mad
            THEN 1 ELSE 0 END AS BIGINT) AS is_outlier
FROM mad
"""


QUERIES["outliers_mad"] = q_outliers_mad
ORACLES["outliers_mad"] = sql_outliers_mad()


# --------------------------------------------------- 7. corpus mixing
#
# Data-mixture weighting: every LLM pretraining pipeline resamples its
# sources toward target proportions (e.g. The Pile's mixture table,
# Gao et al. 2021; DoReMi's domain weights, Xie et al. 2023).  Given
# target weights over ``documents.source``, the budget is the largest
# total that every source can serve at its weight:
#
#     B       = min_s floor(n_s / p_s)
#     quota_s = floor(p_s * B)
#
# then each source keeps its quota_s lowest-hash documents (md5 rank —
# deterministic, order-free, and identical in DuckDB).  Two stages:
# one map-side-combined count exchange (O(sources) rows) to fix the
# quotas, then the stratified top-N machinery with a PER-SOURCE quota.
# The exchange moves O(sum quota_s per split task), never the corpus.

MIX_WEIGHTS = {"src0": 0.4, "src1": 0.3, "src2": 0.2, "src3": 0.1}
# exact integer permille weights: float floor-division on the weights
# is representation-sensitive (250 // 0.4 -> 624 in float64, 625 in
# exact arithmetic — DuckDB parses 0.4 as DECIMAL, caught by an sf0.1
# sweep), so the budget/quota math runs in integers on both engine
# and oracle
MIX_PERMILLE = {s: round(w * 1000) for s, w in MIX_WEIGHTS.items()}


def q_mix_quota(sf_dir: str):
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])

    counts = grouped_agg(
        ds.map_batches(
            lambda b: pa.table({
                "source": b.column("source"),
                "n": pa.array(np.ones(b.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["source"], {"n": ("n", "sum")}).to_pandas()
    cmap = dict(zip(counts["source"], counts["n"].astype(np.int64)))
    known = {s: pm for s, pm in MIX_PERMILLE.items() if s in cmap}
    if not known:
        return pa.table({"source": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64()),
                         "rk": pa.array([], pa.int64())})
    budget = min(int(cmap[s]) * 1000 // pm for s, pm in known.items())
    quotas = {s: pm * budget // 1000 for s, pm in known.items()}

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"].to_numpy(),
            "doc_id": df["doc_id"].to_numpy(),
            "h": [_md5(str(i)) for i in df["doc_id"].to_numpy()],
        })

    def head_quota(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "h", "doc_id"], kind="stable")
        q = g["source"].map(quotas).fillna(0).to_numpy(np.int64)
        pos = g.groupby("source", sort=False).cumcount().to_numpy()
        return g[pos < q]

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = head_quota(g).copy()
        g["rk"] = g.groupby("source", sort=False).cumcount() + 1
        return g[["source", "doc_id", "rk"]]

    out = bucketed_apply(
        ds.map_batches(keyed, batch_format="pandas"),
        ["source"], finish, combine=head_quota)
    return out.map_batches(
        lambda b: pa.table({
            "source": b.column("source"),
            "doc_id": pa.compute.cast(b.column("doc_id"), pa.int64()),
            "rk": pa.compute.cast(b.column("rk"), pa.int64()),
        }), batch_format="pyarrow")


def sql_mix_quota() -> str:
    w_rows = ", ".join(f"('{s}', {pm})" for s, pm in MIX_PERMILLE.items())
    return (
        f"WITH tw(source, pm) AS (VALUES {w_rows}), "
        "n AS (SELECT d.source, COUNT(*) AS n_s, ANY_VALUE(pm) AS pm "
        "FROM documents d JOIN tw ON d.source = tw.source "
        "GROUP BY d.source), "
        "b AS (SELECT MIN(CAST(n_s * 1000 // pm AS BIGINT)) "
        "AS budget FROM n), "
        "q AS (SELECT source, CAST(pm * budget // 1000 AS BIGINT) "
        "AS quota FROM n, b), "
        "r AS (SELECT d.source, doc_id, row_number() OVER ("
        "PARTITION BY d.source ORDER BY md5(CAST(doc_id AS VARCHAR)), "
        "doc_id) AS rk FROM documents d JOIN q ON d.source = q.source) "
        "SELECT r.source, doc_id, CAST(rk AS BIGINT) AS rk "
        "FROM r JOIN q ON r.source = q.source WHERE rk <= quota"
    )


QUERIES["mix_quota"] = q_mix_quota
ORACLES["mix_quota"] = sql_mix_quota()
