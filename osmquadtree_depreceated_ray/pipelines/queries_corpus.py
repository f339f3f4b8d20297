"""Corpus-index / sketch operators for a training-data pipeline:
count-min-sketch frequency estimation, inverted-index posting lists,
bigram collocation statistics, weight-proportional priority sampling,
and a distributed BPE vocabulary learner.

These extend the engine beyond the reference's own surface (the task
brief's "operations a large-scale training-data pipeline would need"),
like ``queries_curate.py``; distributed shapes reuse the
bucketed-exchange primitives of ``stages/shuffle.py``.  All numeric
outputs are exact-integer or correctly-rounded IEEE doubles so the
DuckDB oracles hash-match (the collocation score is emitted as an exact
integer numerator/denominator pair for the same reason
``dsir_weights`` uses a linear ratio).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.lookup import sorted_lookup
from .queries_curate import _explode_words
from .queries_text import _doc_bigram_stream, _md5_lower64


def _word_count_table(b: pa.Table, col: str = "cnt") -> pa.Table:
    """Per-batch unigram counts (word, <col>) — the shared map-side
    kernel of cms_topk / collocations / bpe_merges."""
    _, words = _explode_words(b)
    uniq, cnt = np.unique(words, return_counts=True)
    return pa.table({"word": pa.array(list(uniq), pa.string()),
                     col: pa.array(cnt, pa.int64())})

# ------------------------------------------------- 1. count-min sketch
#
# Mergeable frequency sketch (Cormode & Muthukrishnan 2005): a d x w
# counter matrix where every occurrence of a word increments one bucket
# per row; the estimate is the MIN over rows, always >= the true count.
# Map-side each task emits its batch's (row, bucket, count) partials;
# one map-side-combined exchange sums them, so the shuffle moves
# O(d*w x tasks) fixed-size rows however large the corpus — the same
# bounded-exchange argument as the HLL registers in queries.py.
#
# The d row-hashes are d disjoint 10-bit windows of ONE
# md5_number_lower per unique word (bits [10d, 10d+10)) — md5 bits are
# uniform and the windows are independent in practice, and this keeps
# the kernel one-md5-per-word and trivially SQL-expressible
# (``(hv >> 10*d) & 1023``), like the odd-multiply salts of the
# minhash kernel in queries_text.py.

CMS_D = 4      # sketch rows
CMS_W = 1024   # buckets per row (10-bit windows below assume this)
CMS_K = 20     # report the exact top-K words with their estimates


def _cms_buckets(base: np.ndarray) -> np.ndarray:
    """(d, n) bucket index per word-hash: disjoint 10-bit md5 windows."""
    d = np.arange(CMS_D, dtype=np.uint64)[:, None]
    return ((base[None, :] >> (np.uint64(10) * d))
            & np.uint64(CMS_W - 1)).astype(np.int64)


def q_cms_topk(sf_dir: str):
    """Count-min sketch over the documents word stream: build the
    (d x w) sketch with one bounded exchange, take the exact top-K
    words (exact counts from a map-side-combined word-count exchange,
    per-block top-K, driver finish over O(K x blocks) rows), and report
    each word's sketch estimate next to its true count.  The
    ``overestimate`` column is the CMS error, provably >= 0."""
    import ray

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sketch_partial(b: pa.Table) -> pa.Table:
        _, words = _explode_words(b)
        uniq, cnt = np.unique(words, return_counts=True)
        if not len(uniq):
            e = pa.array([], pa.int64())
            return pa.table({"d": e, "bucket": e, "c": e})
        buckets = _cms_buckets(_md5_lower64(uniq))
        ds_, bs_, cs_ = [], [], []
        for d in range(CMS_D):
            bc = np.bincount(buckets[d], weights=cnt, minlength=CMS_W)
            nz = np.nonzero(bc)[0]
            ds_.append(np.full(len(nz), d, np.int64))
            bs_.append(nz.astype(np.int64))
            cs_.append(bc[nz].astype(np.int64))
        return pa.table({"d": pa.array(np.concatenate(ds_)),
                         "bucket": pa.array(np.concatenate(bs_)),
                         "c": pa.array(np.concatenate(cs_))})

    counted = ds.map_batches(_word_count_table, batch_format="pyarrow")
    exact = grouped_agg(counted, ["word"], {"cnt": ("cnt", "sum")})

    def block_topk(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(
            ["cnt", "word"], ascending=[False, True], kind="stable")
        return pa.Table.from_pandas(df.head(CMS_K), preserve_index=False)

    # each word appears in exactly one grouped_agg output block, so a
    # per-block top-K then a driver top-K over O(K x blocks) rows is
    # exact — the corpus-wide count table never lands on the driver
    top = (exact.map_batches(block_topk, batch_format="pyarrow")
           .to_pandas()
           .sort_values(["cnt", "word"], ascending=[False, True],
                        kind="stable")
           .head(CMS_K)
           .reset_index(drop=True))

    sketch = grouped_agg(
        ds.map_batches(sketch_partial, batch_format="pyarrow"),
        ["d", "bucket"], {"c": ("c", "sum")},
    ).to_pandas()  # <= d*w = 4096 rows — driver-small by construction
    mat = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    mat[sketch["d"].to_numpy(), sketch["bucket"].to_numpy()] = \
        sketch["c"].to_numpy()

    probe = _cms_buckets(_md5_lower64(top["word"].to_numpy(dtype=object)))
    est = mat[np.arange(CMS_D)[:, None], probe].min(axis=0)
    cnt = top["cnt"].to_numpy()
    return pa.table({
        "word": pa.array(top["word"].to_numpy(dtype=object), pa.string()),
        "cnt": pa.array(cnt, pa.int64()),
        "cms_est": pa.array(est, pa.int64()),
        "overestimate": pa.array(est - cnt, pa.int64()),
    })


def sql_cms_topk() -> str:
    return (
        "WITH w AS (SELECT unnest(string_split(text, ' ')) AS word "
        "FROM documents), "
        "cnts AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS cnt FROM w "
        "GROUP BY word), "
        "h AS (SELECT word, cnt, md5_number_lower(word) AS hv FROM cnts), "
        f"sk AS (SELECT d, CAST((hv >> CAST(10*d AS UBIGINT)) "
        f"& {CMS_W - 1} AS BIGINT) AS bucket, "
        "CAST(SUM(cnt) AS BIGINT) AS c "
        f"FROM h CROSS JOIN range(0, {CMS_D}) t(d) GROUP BY 1, 2), "
        f"top AS (SELECT word, cnt, hv FROM h "
        f"ORDER BY cnt DESC, word LIMIT {CMS_K}), "
        "est AS (SELECT top.word, top.cnt, MIN(sk.c) AS cms_est "
        f"FROM top CROSS JOIN range(0, {CMS_D}) t(d) "
        "JOIN sk ON sk.d = t.d AND sk.bucket = "
        f"CAST((top.hv >> CAST(10*t.d AS UBIGINT)) & {CMS_W - 1} AS BIGINT) "
        "GROUP BY 1, 2) "
        "SELECT word, cnt, cms_est, cms_est - cnt AS overestimate "
        "FROM est ORDER BY cnt DESC, word"
    )


# ---------------------------------------------- 2. inverted index
#
# The classic search-engine build: word -> ordered posting list of the
# documents containing it, plus the document frequency.  A document is
# one input row, so per-batch (doc_id, word) dedup is already globally
# distinct; the exchange then hash-partitions pairs by word and each
# bucket emits its words' complete postings.  The shuffle moves
# O(distinct (doc, word) pairs) — that IS the output size, so no
# combine can shrink it; posting lists stay bucket-local and never
# concatenate on the driver.

POST_MIN_DF = 8   # emit words appearing in at least this many docs


def q_postings(sf_dir: str):
    """Inverted index over documents: (word, df, postings) with the
    posting list as the comma-joined ascending doc_id sequence, for
    words with document frequency >= POST_MIN_DF."""
    import ray

    from ..stages.shuffle import bucketed_apply

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def doc_word_pairs(b: pa.Table) -> pd.DataFrame:
        doc, words = _explode_words(b)
        return pd.DataFrame(
            {"doc_id": doc.astype(np.int64), "word": words}
        ).drop_duplicates()

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["word", "doc_id"], kind="stable")
        out = g.groupby("word", as_index=False, sort=False).agg(
            df=("doc_id", "size"),
            postings=("doc_id", lambda s: ",".join(map(str, s.to_numpy()))),
        )
        out = out[out["df"] >= POST_MIN_DF]
        out["df"] = out["df"].astype(np.int64)
        return out[["word", "df", "postings"]]

    return bucketed_apply(
        ds.map_batches(doc_word_pairs, batch_format="pyarrow"),
        ["word"], finish)


def sql_postings() -> str:
    return (
        "WITH p AS (SELECT DISTINCT doc_id, word FROM (SELECT doc_id, "
        "unnest(string_split(text, ' ')) AS word FROM documents)) "
        "SELECT word, CAST(COUNT(*) AS BIGINT) AS df, "
        "string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) "
        "AS postings FROM p GROUP BY word "
        f"HAVING COUNT(*) >= {POST_MIN_DF} ORDER BY word"
    )


# ---------------------------------------------- 3. bigram collocations
#
# PMI-style association mining: for every adjacent word pair occurring
# >= COLL_MIN times, report the pair count, each word's unigram count
# and the PMI ratio as an EXACT integer numerator/denominator pair
# (pmi = log(num/den); the log is monotone in the rational, and
# emitting the rational keeps the result hash-exact — the same
# determinism call as dsir_weights' linear likelihood ratio).
#
# Shape: bigram counts via one map-side-combined exchange, survivors
# (>= COLL_MIN) are driver-small; their unigram counts come from a
# broadcast-membership filter over the unigram-count dataset
# (sorted-array searchsorted per batch — the tfidf_top pattern), so the
# full unigram table never lands on the driver.

COLL_MIN = 5


def q_collocations(sf_dir: str):
    """(w1, w2, cnt_xy, cnt_x, cnt_y, pmi_num=cnt_xy*N,
    pmi_den=cnt_x*cnt_y) for adjacent pairs with cnt_xy >= COLL_MIN,
    ordered by (w1, w2)."""
    import ray

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bigram_counts(b: pa.Table) -> pa.Table:
        _, grams = _doc_bigram_stream(b)
        uniq, cnt = np.unique(grams, return_counts=True)
        return pa.table({"g": pa.array(list(uniq), pa.string()),
                         "cnt": pa.array(cnt, pa.int64())})

    # the corpus token total rides the SAME unigram exchange as one
    # extra row per task, keyed OUT OF BAND by the is_total column (a
    # real token can never collide with it), so no second pass / no
    # second execution of the aggregate lineage is needed for N
    def word_counts(b: pa.Table) -> pa.Table:
        t = _word_count_table(b)
        n = t.num_rows
        return pa.table({
            "word": pa.concat_arrays(
                [t.column("word").combine_chunks(), pa.array([""])]),
            "cnt": pa.concat_arrays(
                [t.column("cnt").combine_chunks(),
                 pa.array([int(pa.compute.sum(t.column("cnt")).as_py() or 0)],
                          pa.int64())]),
            "is_total": pa.array(
                np.concatenate([np.zeros(n, np.int8), [1]]), pa.int8()),
        })

    big = grouped_agg(
        ds.map_batches(bigram_counts, batch_format="pyarrow"),
        ["g"], {"cnt": ("cnt", "sum")})

    def survivors(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.greater_equal(b.column("cnt"), COLL_MIN))

    surv = big.map_batches(survivors, batch_format="pyarrow").to_pandas()
    parts = surv["g"].str.split(" ", n=1, expand=True)
    if len(surv):
        surv["w1"], surv["w2"] = parts[0], parts[1]
    else:
        surv["w1"] = surv["w2"] = pd.Series([], dtype=object)

    uni = grouped_agg(
        ds.map_batches(word_counts, batch_format="pyarrow"),
        ["word", "is_total"], {"cnt": ("cnt", "sum")})

    need = np.unique(np.concatenate([
        surv["w1"].to_numpy(dtype=object),
        surv["w2"].to_numpy(dtype=object)]))
    need_ref = ray.put(np.sort(need))

    def member(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w = b.column("word").to_numpy(zero_copy_only=False)
        tot = b.column("is_total").to_numpy() == 1
        keep, _ = sorted_lookup(ray.get(need_ref), w)
        return b.filter(pa.array(keep | tot))

    uc = uni.map_batches(member, batch_format="pyarrow").to_pandas()
    n_total = int(uc.loc[uc["is_total"] == 1, "cnt"].sum())
    uc = uc[uc["is_total"] == 0]
    ucm = dict(zip(uc["word"], uc["cnt"]))  # O(survivor words) — small
    cx = surv["w1"].map(ucm).to_numpy(dtype=np.int64)
    cy = surv["w2"].map(ucm).to_numpy(dtype=np.int64)
    cxy = surv["cnt"].to_numpy(dtype=np.int64)
    # numpy int64 multiplication wraps silently; the SQL oracle (BIGINT)
    # would error instead — fail loudly at the same boundary
    if len(cxy) and (
            (n_total and int(cxy.max()) > (2**63 - 1) // max(n_total, 1))
            or int(cx.max()) > (2**63 - 1) // max(int(cy.max()), 1)):
        raise OverflowError("collocations: pmi_num/pmi_den exceed int64")
    out = pd.DataFrame({
        "w1": surv["w1"].to_numpy(dtype=object),
        "w2": surv["w2"].to_numpy(dtype=object),
        "cnt_xy": cxy, "cnt_x": cx, "cnt_y": cy,
        "pmi_num": cxy * n_total, "pmi_den": cx * cy,
    }).sort_values(["w1", "w2"], kind="stable")
    return pa.Table.from_pandas(out, preserve_index=False)


def sql_collocations() -> str:
    return (
        "WITH tok AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "u AS (SELECT unnest(ws) AS word FROM tok), "
        "uni AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS c FROM u "
        "GROUP BY word), "
        "n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM u), "
        "b AS (SELECT unnest(list_transform(range(1, len(ws)), "
        "i -> struct_pack(w1 := ws[i], w2 := ws[i+1]))) AS s FROM tok), "
        "bg AS (SELECT s.w1 AS w1, s.w2 AS w2, "
        "CAST(COUNT(*) AS BIGINT) AS cnt_xy FROM b GROUP BY 1, 2 "
        f"HAVING COUNT(*) >= {COLL_MIN}) "
        "SELECT bg.w1, bg.w2, bg.cnt_xy, ux.c AS cnt_x, uy.c AS cnt_y, "
        "bg.cnt_xy * n.n AS pmi_num, ux.c * uy.c AS pmi_den "
        "FROM bg, n "
        "JOIN uni ux ON ux.word = bg.w1 "
        "JOIN uni uy ON uy.word = bg.w2 "
        "ORDER BY bg.w1, bg.w2"
    )


# ---------------------------------------------- 4. priority sampling
#
# Weight-proportional sampling without replacement (Duffield, Lund &
# Thorup 2007): each row gets priority weight/u for a uniform u, and
# the sample is the top-N priorities.  u is the deterministic
# md5-derived uniform ((hash+1)/2^64) so the sample is reproducible and
# SQL-checkable; every float op (uint64->double cast, +1.0, divide) is
# a single correctly-rounded IEEE operation, identical in numpy and
# DuckDB.  Shape: per-split-task top-N combine, single-bucket finish —
# the exchange moves O(N x tasks) rows (the stratified_sample
# combiner, with a constant stratum).

PRI_N = 50


def q_priority_sample(sf_dir: str):
    """Top-PRI_N documents by priority = n_chars / u(doc_id):
    (rk, doc_id, weight, priority), ordered by rank."""
    import ray

    from ..stages.shuffle import bucketed_apply

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def keyed(b: pa.Table) -> pd.DataFrame:
        doc = b.column("doc_id").to_numpy()
        w = b.column("n_chars").to_numpy()
        u = _md5_lower64(
            np.char.mod("%d", doc)).astype(np.float64) + 1.0
        return pd.DataFrame({
            "k": np.zeros(len(doc), np.int64),
            "doc_id": doc.astype(np.int64),
            "weight": w.astype(np.int64),
            "priority": w.astype(np.float64) / u,
        })

    def topn(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(
            ["priority", "doc_id"], ascending=[False, True], kind="stable"
        ).head(PRI_N)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = topn(g).copy()
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["rk", "doc_id", "weight", "priority"]]

    return bucketed_apply(
        ds.map_batches(keyed, batch_format="pyarrow"),
        ["k"], finish, combine=topn)


def sql_priority_sample() -> str:
    return (
        "SELECT CAST(rk AS BIGINT) AS rk, doc_id, "
        "CAST(n_chars AS BIGINT) AS weight, priority FROM ("
        "SELECT doc_id, n_chars, CAST(n_chars AS DOUBLE) / "
        "(CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) AS DOUBLE) + 1.0) "
        "AS priority, row_number() OVER (ORDER BY CAST(n_chars AS DOUBLE) / "
        "(CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) AS DOUBLE) + 1.0) "
        "DESC, doc_id) AS rk FROM documents) "
        f"WHERE rk <= {PRI_N} ORDER BY rk"
    )


QUERIES = {
    "cms_topk": q_cms_topk,
    "postings": q_postings,
    "collocations": q_collocations,
    "priority_sample": q_priority_sample,
}

ORACLES = {
    "cms_topk": sql_cms_topk(),
    "postings": sql_postings(),
    "collocations": sql_collocations(),
    "priority_sample": sql_priority_sample(),
}


# ---------------------------------------------- 5. BPE vocabulary learner
#
# Distributed byte-pair-encoding merge learning (Sennrich et al. 2016):
# the tokenizer-training step of an LLM data pipeline.  BPE is
# inherently iterative (argmax pair -> merge -> recount), so like
# kmeans/dedup_components it drops to raw Ray below the Dataset API:
#
#   * ONE exchange builds the distinct-word frequency table (the corpus
#     is never touched again — classic BPE trains on word TYPES
#     weighted by frequency, O(distinct words) state);
#   * the word table is sharded across stateful BpeShard ACTORS that
#     hold their symbol sequences in process memory between rounds
#     (zero re-shipping; the per-round traffic is each shard's
#     pre-aggregated pair-count table, O(live pairs));
#   * per round the driver merges the partials (bounded by the live
#     pair vocabulary), picks argmax with a deterministic
#     (cnt desc, left, right) tiebreak, and broadcasts one (left,
#     right) merge rule back.
#
# Invariant (asserted in-query): chosen merge counts are non-increasing
# — any pair created by a merge occurs at most as often as the merge
# itself did.  Full-loop exactness is pinned by a pure-Python
# reference BPE in tests; round-1 pair counts carry a SQL oracle
# (``bpe_pairs1``), the kmeans_iter1 pattern.

BPE_MERGES = 20
BPE_SHARDS = 8


def _bpe_pair_counts(syms: np.ndarray, wid: np.ndarray,
                     wfreq: np.ndarray) -> pd.DataFrame:
    """Adjacent-pair counts weighted by word frequency (vectorized)."""
    if len(syms) < 2:
        return pd.DataFrame({"l": pd.Series([], dtype=object),
                             "r": pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype=np.int64)})
    m = wid[:-1] == wid[1:]
    return (pd.DataFrame({
        "l": syms[:-1][m], "r": syms[1:][m],
        "cnt": wfreq[wid[:-1][m]]})
        .groupby(["l", "r"], as_index=False)["cnt"].sum())


def _bpe_apply(syms: np.ndarray, wid: np.ndarray, left: str,
               right: str) -> tuple[np.ndarray, np.ndarray]:
    """Greedy leftmost non-overlapping merge of (left, right), fully
    vectorized: overlap conflicts (only possible when left == right)
    are runs of consecutive match positions — keep alternating."""
    if len(syms) < 2:
        return syms, wid
    m = (syms[:-1] == left) & (syms[1:] == right) & (wid[:-1] == wid[1:])
    p = np.nonzero(m)[0]
    if not len(p):
        return syms, wid
    idx = np.arange(len(p))
    run_start = np.concatenate([[True], np.diff(p) != 1])
    run_id = np.cumsum(run_start) - 1
    pos_in_run = idx - idx[run_start][run_id]
    p = p[pos_in_run % 2 == 0]
    out = syms.copy()
    out[p] = left + right
    keep = np.ones(len(syms), bool)
    keep[p + 1] = False
    return out[keep], wid[keep]


def _bpe_apply_delta(syms: np.ndarray, wid: np.ndarray,
                     freq: np.ndarray, left: str, right: str):
    """Merge (left, right) and return (new_syms, new_wid, delta).

    before/after recounts run on the affected-word segment only.
    Boolean masking keeps each word's symbols contiguous and ordered,
    so cross-word pairs can't appear (wid equality gates every pair)
    and splicing unaffected + rewritten segments back together is
    order-safe.  delta is the exact (l, r, cnt-change) table."""
    empty = _bpe_pair_counts(
        np.asarray([], dtype=object), np.asarray([], np.int64), freq)
    if len(syms) < 2:
        return syms, wid, empty
    m = ((syms[:-1] == left) & (syms[1:] == right)
         & (wid[:-1] == wid[1:]))
    p = np.nonzero(m)[0]
    if not len(p):
        return syms, wid, empty
    mask = np.isin(wid, np.unique(wid[p]))
    seg_s, seg_w = syms[mask], wid[mask]
    before = _bpe_pair_counts(seg_s, seg_w, freq)
    new_s, new_w = _bpe_apply(seg_s, seg_w, left, right)
    after = _bpe_pair_counts(new_s, new_w, freq)
    syms = np.concatenate([syms[~mask], new_s])
    wid = np.concatenate([wid[~mask], new_w])
    d = (after.set_index(["l", "r"])["cnt"]
         .sub(before.set_index(["l", "r"])["cnt"], fill_value=0)
         .astype(np.int64))
    d = d[d != 0].reset_index()
    d.columns = ["l", "r", "cnt"]
    return syms, wid, d


def q_bpe_merges(sf_dir: str, n_merges: int = BPE_MERGES):
    """Learned BPE merge table over the documents word stream:
    (rank, left, right, cnt), rank 1..n_merges in learn order."""
    import ray

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    wc = grouped_agg(
        ds.map_batches(lambda b: _word_count_table(b, "freq"),
                       batch_format="pyarrow"),
        ["word"], {"freq": ("freq", "sum")})

    @ray.remote
    class BpeShard:
        """Holds one shard of the word table as flattened symbol
        sequences; state never leaves the actor between rounds.

        Rounds after the first are INCREMENTAL: ``apply_delta``
        recounts pairs only over the words the merge touched and
        returns the (l, r, cnt-change) delta table — per-round work
        and traffic drop from O(all symbols)/O(live pairs) to
        O(affected words)/O(changed pairs), which shrinks fast as
        merges specialize (the classic pair-cache BPE optimization,
        Sennrich et al. 2016 §3)."""

        def __init__(self, words: list, freq: np.ndarray):
            chars = [list(w) for w in words]
            lens = np.asarray([len(c) for c in chars], np.int64)
            self.syms = np.asarray(
                [s for cs in chars for s in cs], dtype=object)
            self.wid = np.repeat(np.arange(len(words)), lens)
            self.freq = np.asarray(freq, np.int64)

        def pair_counts(self) -> pd.DataFrame:
            return _bpe_pair_counts(self.syms, self.wid, self.freq)

        def apply_delta(self, left: str, right: str) -> pd.DataFrame:
            """Merge (left, right); return the exact pair-count delta
            (:func:`_bpe_apply_delta` — affected-word recount only)."""
            self.syms, self.wid, d = _bpe_apply_delta(
                self.syms, self.wid, self.freq, left, right)
            return d

    # shard the word table by word hash: deterministic, balanced
    wtab = wc.to_pandas()  # O(distinct words) — the BPE training set
    h = _md5_lower64(wtab["word"].to_numpy(dtype=object)) \
        % np.uint64(BPE_SHARDS)
    shards = []
    for s in range(BPE_SHARDS):
        part = wtab[h == s]
        shards.append(BpeShard.remote(
            part["word"].tolist(), part["freq"].to_numpy()))

    ranks, lefts, rights, cnts = [], [], [], []
    prev_cnt = None
    # round 1 pays the one full count; the driver then owns the live
    # pair table and folds in per-round shard deltas (O(changed pairs))
    partials = ray.get([sh.pair_counts.remote() for sh in shards])
    live = (pd.concat(partials, ignore_index=True)
            .groupby(["l", "r"])["cnt"].sum())
    for rank in range(1, n_merges + 1):
        live = live[live > 0]
        if live.empty:
            break
        tot = live.reset_index().sort_values(
            ["cnt", "l", "r"], ascending=[False, True, True],
            kind="stable")
        left, right, cnt = (tot.iloc[0]["l"], tot.iloc[0]["r"],
                            int(tot.iloc[0]["cnt"]))
        # merge counts are non-increasing: a pair created by a merge
        # occurs at most as often as the merge itself did
        assert prev_cnt is None or cnt <= prev_cnt, (cnt, prev_cnt)
        prev_cnt = cnt
        deltas = ray.get(
            [sh.apply_delta.remote(left, right) for sh in shards])
        dser = (pd.concat(deltas, ignore_index=True)
                .groupby(["l", "r"])["cnt"].sum())
        live = live.add(dser, fill_value=0).astype(np.int64)
        ranks.append(rank)
        lefts.append(left)
        rights.append(right)
        cnts.append(cnt)
    return pa.table({
        "rank": pa.array(np.asarray(ranks, np.int64)),
        "left": pa.array(lefts, pa.string()),
        "right": pa.array(rights, pa.string()),
        "cnt": pa.array(np.asarray(cnts, np.int64)),
    })


def q_bpe_pairs1(sf_dir: str):
    """Round-1 BPE pair counts (character bigrams within words,
    weighted by word frequency) — the SQL-checkable first iteration,
    like ``kmeans_iter1``."""
    import ray

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pairs(b: pa.Table) -> pa.Table:
        _, words = _explode_words(b)
        uniq, cnt = np.unique(words, return_counts=True)
        syms = np.asarray(
            [c for w in uniq for c in w], dtype=object)
        lens = np.asarray([len(w) for w in uniq], np.int64)
        wid = np.repeat(np.arange(len(uniq)), lens)
        df = _bpe_pair_counts(syms, wid, cnt)
        return pa.Table.from_pandas(df, preserve_index=False)

    out = grouped_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["l", "r"], {"cnt": ("cnt", "sum")}).to_pandas()
    out = out.sort_values(["l", "r"], kind="stable")
    out["cnt"] = out["cnt"].astype(np.int64)
    return pa.Table.from_pandas(
        out[["l", "r", "cnt"]], preserve_index=False)


def sql_bpe_pairs1() -> str:
    return (
        "WITH w AS (SELECT unnest(string_split(text, ' ')) AS word "
        "FROM documents), "
        "wc AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS f FROM w "
        "GROUP BY word), "
        "p AS (SELECT unnest(list_transform(range(1, length(word)), "
        "i -> struct_pack(l := word[i], r := word[i+1]))) AS s, f "
        "FROM wc) "
        "SELECT s.l AS l, s.r AS r, CAST(SUM(f) AS BIGINT) AS cnt FROM p "
        "GROUP BY 1, 2 ORDER BY 1, 2"
    )


QUERIES["bpe_merges"] = q_bpe_merges
QUERIES["bpe_pairs1"] = q_bpe_pairs1
ORACLES["bpe_pairs1"] = sql_bpe_pairs1()


# ---------------------------------------------- 6. BPE tokenizer encode
#
# The other half of the tokenizer story: APPLY a fixed merge table (a
# pretrained tokenizer is a fixed artifact — this one was learned once
# by q_bpe_merges on the sf0.01 corpus and frozen).  Semantics: merges
# applied in RANK ORDER, each exhaustively, greedy leftmost
# non-overlapping within words (exactly ``_bpe_apply``); merges never
# cross word boundaries.  This sequential-exhaustive contract is what
# makes a FULL hash-exact SQL oracle possible: each merge is one
# left-to-right non-overlapping REPLACE over a separator-delimited
# symbol string ('_l__r_' -> '_lr_'), whose scan-resume-after-
# replacement behaviour is provably identical to the greedy merge.
#
# Distributed shape: stateless map_batches; the BPE loop runs on the
# batch's UNIQUE words only (the classic word-type memoization — the
# corpus re-join back to docs is a vectorized take + grouped concat).
# At 100-TB scale this becomes an actor-pool stage with an LRU word
# cache in __init__; the per-batch unique-word dedup already removes
# the Zipf bulk.

BPE_ENCODE_MERGES = [
    ("e", "r"), ("i", "n"), ("o", "w"), ("o", "r"), ("s", "t"),
    ("m", "er"), ("a", "t"), ("l", "u"), ("a", "r"), ("p", "ar"),
    ("j", "o"), ("jo", "in"), ("a", "s"), ("as", "h"), ("h", "ash"),
    ("r", "ow"), ("at", "c"), ("atc", "h"), ("b", "atch"), ("a", "n"),
]


def _bpe_encode_words(uniq: np.ndarray) -> np.ndarray:
    """Space-joined token strings for an array of unique words."""
    chars = [list(w) for w in uniq]
    lens = np.asarray([len(c) for c in chars], np.int64)
    syms = np.asarray([s for cs in chars for s in cs], dtype=object)
    wid = np.repeat(np.arange(len(uniq)), lens)
    for left, right in BPE_ENCODE_MERGES:
        syms, wid = _bpe_apply(syms, wid, left, right)
    out = np.full(len(uniq), "", dtype=object)
    if len(syms):
        joined = (pd.DataFrame({"wid": wid, "s": syms})
                  .groupby("wid", sort=True)["s"].agg(" ".join))
        out[joined.index.to_numpy()] = joined.to_numpy()
    return out


def q_bpe_encode(sf_dir: str):
    """Tokenize every document with the frozen merge table:
    (doc_id, tokens, n_tokens), tokens space-joined in word order."""
    import ray

    def fn(b: pa.Table) -> pa.Table:
        doc = b.column("doc_id").to_numpy()
        texts = b.column("text").to_pylist()
        if not texts:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "tokens": pa.array([], pa.string()),
                             "n_tokens": pa.array([], pa.int64())})
        words = np.asarray(" ".join(texts).split(" "), dtype=object)
        lens = (pd.Series(texts).str.count(" ") + 1).to_numpy()
        uniq, inv = np.unique(words, return_inverse=True)
        wt = _bpe_encode_words(uniq)[inv]
        per_doc = (pd.DataFrame(
            {"d": np.repeat(np.arange(len(texts)), lens), "t": wt})
            .groupby("d", sort=True)["t"].agg(" ".join).str.strip())
        tokens = np.full(len(texts), "", dtype=object)
        tokens[per_doc.index.to_numpy()] = per_doc.to_numpy()
        ntok = np.where(
            tokens == "", 0,
            np.char.count(tokens.astype(str), " ") + 1).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(doc),
            "tokens": pa.array(tokens, pa.string()),
            "n_tokens": pa.array(ntok),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_bpe_encode() -> str:
    """The merge chain as chained REPLACEs over '_'-delimited symbols:
    '_' separates symbols inside a word, '_ _' marks a word boundary (a
    merge pattern needs exactly '__' between its sides, so it can never
    cross).  Valid for this corpus's [a-z ] charset (the char-split
    step enumerates the alphabet)."""
    expr = "text"
    for c in "abcdefghijklmnopqrstuvwxyz":
        expr = f"replace({expr}, '{c}', '_{c}_')"
    parts = [f"t0 AS (SELECT doc_id, '_' || {expr} || '_' AS t "
             "FROM documents)"]
    prev = "t0"
    for i, (left, right) in enumerate(BPE_ENCODE_MERGES, 1):
        parts.append(
            f"t{i} AS (SELECT doc_id, "
            f"replace(t, '_{left}__{right}_', '_{left}{right}_') AS t "
            f"FROM {prev})")
        prev = f"t{i}"
    fin = "trim(replace(replace(t, '_ _', '__'), '__', ' '), '_ ')"
    parts.append(f"sel AS (SELECT doc_id, {fin} AS tokens FROM {prev})")
    return ("WITH " + ", ".join(parts)
            + " SELECT doc_id, tokens, "
            "CAST(CASE WHEN tokens = '' THEN 0 ELSE "
            "length(tokens) - length(replace(tokens, ' ', '')) + 1 "
            "END AS BIGINT) AS n_tokens FROM sel")


QUERIES["bpe_encode"] = q_bpe_encode
ORACLES["bpe_encode"] = sql_bpe_encode()


# ---------------------------------------------- 7. BM25 ranked retrieval
#
# The retrieval step a search/eval pipeline runs over the inverted
# index: score every document against a fixed query-term set with
# Okapi BM25 (Robertson & Sparck Jones probabilistic relevance
# framework; k1 = 1.2, b = 0.75).  Two determinism divergences from
# the textbook form, both monotone and both in this repo's established
# style:
#   * the idf factor is the LINEAR rational (2N - 2df + 1)/(2df + 1)
#     instead of its log (same count pair; same call as dsir_weights'
#     linear likelihood ratio and the collocations PMI rational);
#   * per-(doc, term) contributions are floor-quantized to
#     BM25_SCALE before the per-doc sum, so the summed score is an
#     EXACT integer (floats only appear in the final score_i / SCALE
#     display division, identical in both engines).
# With k1 = 6/5 and b = 3/4, multiplying the tf saturation term
# through by 10L (L = total corpus tokens, N = docs, dl = doc length)
# gives an all-integer contribution:
#
#   contrib = SCALE * 22*L*tf * (2N - 2df + 1)
#             // ((10*L*tf + 3*L + 9*dl*N) * (2df + 1))
#
# Shape: pass 1 is ONE map-side-combined exchange producing the tiny
# (term, df) table plus the (N, L) totals (a doc lives entirely in one
# batch row, so per-batch distinct (doc, term) pairs are globally
# distinct — the postings argument); the driver holds O(|terms|)
# state.  Pass 2 rescans with the terms broadcast and scores each
# batch vectorized; the numerator product exceeds int64 at planet
# scale, so the final contrib arithmetic over the matched
# (doc, term) rows — O(docs x |terms|), tiny next to tokenization —
# runs in exact Python ints (the regress_corr "Python-int finish").

BM25_TERMS = ("spark", "stream", "dup", "vector", "slow")
BM25_SCALE = 100_000


def _bm25_contribs(tf, df, dl, n_docs: int, n_tok: int) -> np.ndarray:
    """Exact integer BM25 contributions (object ndarray of Python
    ints) for parallel tf/df/dl arrays."""
    out = np.empty(len(tf), dtype=object)
    for i, (t, d, ln) in enumerate(zip(tf.tolist(), df.tolist(),
                                       dl.tolist())):
        num = BM25_SCALE * 22 * n_tok * t * (2 * n_docs - 2 * d + 1)
        den = (10 * n_tok * t + 3 * n_tok + 9 * ln * n_docs) * (2 * d + 1)
        out[i] = num // den
    return out


def q_bm25(sf_dir: str):
    """BM25-scored retrieval: (doc_id, n_match, score_i, score) for
    every document containing at least one BM25_TERMS term;
    score_i is the exact integer sum of floor-quantized per-term
    contributions, score = score_i / BM25_SCALE."""
    import ray

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    terms = np.asarray(BM25_TERMS, dtype=object)

    def partials(b: pa.Table) -> pa.Table:
        doc, words = _explode_words(b)
        m = np.isin(words, terms)
        pairs = (pd.DataFrame({"term": words[m], "doc": doc[m]})
                 .drop_duplicates())
        if len(pairs):
            t, dfc = np.unique(pairs["term"].to_numpy(), return_counts=True)
        else:
            t, dfc = np.asarray([], dtype=object), np.asarray([], np.int64)
        return pa.table({
            "term": pa.array(["\x00totals"] + list(t), pa.string()),
            "df": pa.array(np.concatenate([[0], dfc]).astype(np.int64)),
            "n": pa.array(np.concatenate(
                [[b.num_rows], np.zeros(len(t))]).astype(np.int64)),
            "l": pa.array(np.concatenate(
                [[len(words)], np.zeros(len(t))]).astype(np.int64)),
        })

    stats = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["term"], {"df": ("df", "sum"), "n": ("n", "sum"),
                   "l": ("l", "sum")},
    ).to_pandas()  # O(|terms| + 1) rows
    tot = stats[stats["term"] == "\x00totals"]
    n_docs = int(tot["n"].iloc[0])
    n_tok = int(tot["l"].iloc[0])
    per_term = stats[stats["term"] != "\x00totals"]
    df_terms = per_term["term"].to_numpy()
    df_order = np.argsort(df_terms, kind="stable")
    df_sorted_terms = df_terms[df_order]
    df_sorted = per_term["df"].to_numpy(np.int64)[df_order]

    def probe(b: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_match": pa.array([], pa.int64()),
                          "score_i": pa.array([], pa.int64()),
                          "score": pa.array([], pa.float64())})
        doc, words = _explode_words(b)
        if not len(words):
            return empty
        ids = b.column("doc_id").to_numpy()
        dl_per_doc = pd.Series(doc).groupby(doc, sort=False).size()
        m = np.isin(words, terms)
        if not m.any():
            return empty
        tf_tab = (pd.DataFrame({"doc": doc[m], "term": words[m]})
                  .groupby(["doc", "term"], sort=False).size()
                  .reset_index(name="tf"))
        dfl = df_sorted[np.searchsorted(
            df_sorted_terms, tf_tab["term"].to_numpy())]
        dll = dl_per_doc.loc[tf_tab["doc"]].to_numpy(np.int64)
        contrib = _bm25_contribs(
            tf_tab["tf"].to_numpy(np.int64), dfl, dll, n_docs, n_tok)
        per = pd.DataFrame({"doc_id": tf_tab["doc"].to_numpy(np.int64),
                            "c": contrib})
        out = per.groupby("doc_id", sort=False).agg(
            n_match=("c", "size"), score_i=("c", "sum")).reset_index()
        score_i = np.asarray([int(v) for v in out["score_i"]], np.int64)
        return pa.table({
            "doc_id": pa.array(out["doc_id"].to_numpy(np.int64)),
            "n_match": pa.array(out["n_match"].to_numpy(np.int64)),
            "score_i": pa.array(score_i),
            "score": pa.array(score_i / float(BM25_SCALE)),
        })

    return ds.map_batches(probe, batch_format="pyarrow")


def sql_bm25() -> str:
    vals = ", ".join(f"('{t}')" for t in BM25_TERMS)
    s = BM25_SCALE
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "dl AS (SELECT doc_id, len(ws) AS dl FROM w), "
        "tok AS (SELECT doc_id, unnest(ws) AS word FROM w), "
        "tot AS (SELECT (SELECT COUNT(*) FROM documents) AS n, "
        "(SELECT COUNT(*) FROM tok) AS l), "
        f"qt AS (SELECT * FROM (VALUES {vals}) AS q(term)), "
        "df AS (SELECT word AS term, COUNT(DISTINCT tok.doc_id) AS df "
        "FROM tok JOIN qt ON tok.word = qt.term GROUP BY word), "
        "tf AS (SELECT doc_id, word AS term, COUNT(*) AS tf "
        "FROM tok JOIN qt ON tok.word = qt.term GROUP BY doc_id, word), "
        f"c AS (SELECT tf.doc_id, CAST({s} AS HUGEINT) * 22 * tot.l "
        "* tf.tf * (2*tot.n - 2*df.df + 1) // "
        "((CAST(10 AS HUGEINT)*tot.l*tf.tf + 3*tot.l + 9*dl.dl*tot.n) "
        "* (2*df.df + 1)) AS contrib "
        "FROM tf JOIN df USING (term) "
        "JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN tot) "
        "SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_match, "
        "CAST(SUM(contrib) AS BIGINT) AS score_i, "
        f"CAST(CAST(SUM(contrib) AS BIGINT) AS DOUBLE) / {s} AS score "
        "FROM c GROUP BY doc_id"
    )


QUERIES["bm25"] = q_bm25
ORACLES["bm25"] = sql_bm25()
