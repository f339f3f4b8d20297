"""Training-data packing & corpus-hygiene operators (task brief:
"operations a large-scale training-data pipeline would need").

Three operators over the documents table, each with a DuckDB oracle:

- ``seq_pack``   : token-budget sequence packing — assign every document
  to a fixed-token-budget training bin within its shard (``source``),
  the overflow-packing strategy (a doc may straddle a bin boundary; the
  trainer reads bins sequentially).  One window cumsum per shard.
- ``chunk_dedup``: C4-style duplicate-span removal signals — split every
  doc into consecutive 8-word chunks (the fixture corpus has no
  newlines, so fixed word windows stand in for lines), count how many
  DISTINCT docs each chunk appears in, and report per doc how much of
  it is corpus-duplicated text.  (C4 discarded any line occurring
  more than once in the corpus; RefinedWeb/CCNet do the same per line.)
- ``repetition`` : Gopher-style repetition signal — the fraction of a
  doc's word-bigrams taken by its single most-frequent bigram (Rae et
  al. 2021 use top-2/3/4-gram fractions as quality filters).

Scale notes (100 TB): ``seq_pack`` shuffles only (source, doc_id,
n_tokens) — O(rows) tiny fixed-width rows bucketed by shard, each
shard's group sorted locally; ``chunk_dedup``'s duplicated-chunk set is
collected and broadcast (``stages.shuffle.broadcast_table``: sorted
int64 hashes probed with ``sorted_lookup``, the bloom_semijoin recheck
shape) because real corpora duplicate a tiny fraction of spans — above
the single cap ``stages.shuffle.BROADCAST_MAX`` the probe becomes a
cogroup on the chunk hash (``bucketed_apply`` over two inputs; the same
rule serves decontaminate, dup_spans, dedup_rewrite, span_rewrite and
``tfidf_top``); ``repetition`` is embarrassingly parallel per batch.

Reference analogue: the reference has no text curation; these extend
the engine the way SURVEY.md §2's brief directs.  Hash basis is
md5-low64 over the chunk string (collision odds negligible; the oracle
groups by the chunk STRING, unaffected by the internal key repr —
same argument as queries_text.q_ngram_jaccard).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.shuffle import BROADCAST_MAX
from .queries_text import _md5_lower64

PACK_BUDGET = 256          # tokens per training bin
CHUNK_W = 8                # words per dedup chunk (line stand-in)


# ------------------------------------------------- 1. sequence packing

def _doc_tokens(b: pa.Table) -> pa.Table:
    t = b.column("text").to_pandas()
    n = (t.str.count(" ") + 1).astype("int64")
    return pa.table(
        {
            "source": b.column("source"),
            "doc_id": b.column("doc_id"),
            "n_tokens": pa.array(n.to_numpy()),
        }
    )


def q_seq_pack(sf_dir: str):
    """Documents -> (source, doc_id, n_tokens, bin, bin_off): overflow
    packing into PACK_BUDGET-token bins per shard, docs in doc_id order.

    bin     = exclusive-prefix-sum(n_tokens) // PACK_BUDGET
    bin_off = that prefix sum modulo PACK_BUDGET

    The text column is projected away before the exchange: only the
    3-int rows move.  Each shard (source) lands in one bucket; the
    per-shard cumsum is a local vectorized pass.  At 100 TB the shard
    is the natural unit a trainer consumes, so per-shard grouping is
    the partitioning the whole pipeline already uses."""
    import ray

    from ..stages.shuffle import bucketed_apply

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "doc_id"], kind="stable")
        n = g["n_tokens"].to_numpy()
        csum = g.groupby("source", sort=False)["n_tokens"].cumsum().to_numpy() - n
        b = csum // PACK_BUDGET
        return pd.DataFrame(
            {
                "source": g["source"].to_numpy(),
                "doc_id": g["doc_id"].to_numpy(),
                "n_tokens": n,
                "bin": b,
                "bin_off": csum - b * PACK_BUDGET,
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    ).map_batches(_doc_tokens, batch_format="pyarrow")
    return bucketed_apply(ds, ["source"], pack)


def sql_seq_pack() -> str:
    return (
        "WITH t AS (SELECT source, doc_id, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens "
        "FROM documents), "
        "c AS (SELECT source, doc_id, n_tokens, "
        "CAST(COALESCE(SUM(n_tokens) OVER (PARTITION BY source "
        "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
        "1 PRECEDING), 0) AS BIGINT) AS csum FROM t) "
        "SELECT source, doc_id, n_tokens, "
        f"CAST(csum // {PACK_BUDGET} AS BIGINT) AS bin, "
        f"CAST(csum % {PACK_BUDGET} AS BIGINT) AS bin_off FROM c"
    )


def q_pack_export(sf_dir: str):
    """Materialized packed sequences — the trainer-facing artifact:
    one row per (source, bin) with the bin's doc count, token sum and
    the md5 of the packed text (docs joined by ' ' in doc_id order).

    This is an ORDERED group-concat: the full text moves through the
    exchange because it IS the output payload (packing cannot avoid
    shipping the corpus once — same as the reference's tiled write).
    One bucketed exchange keyed by shard; the per-bin join is the
    packing work itself, not avoidable bookkeeping."""
    import hashlib

    import ray

    from ..stages.shuffle import bucketed_apply

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "doc_id"], kind="stable")
        n = (g["text"].str.count(" ") + 1).to_numpy().astype(np.int64)
        csum = (pd.Series(n).groupby(g["source"].to_numpy()).cumsum()
                .to_numpy() - n)
        g = g.assign(n_tokens=n, bin=csum // PACK_BUDGET)
        md5 = hashlib.md5
        out = g.groupby(["source", "bin"], as_index=False, sort=False).agg(
            n_docs=("doc_id", "size"),
            tok_sum=("n_tokens", "sum"),
            pack_md5=("text", lambda s: md5(" ".join(s).encode()).hexdigest()),
        )
        return out

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])
    return bucketed_apply(ds, ["source"], pack)


def sql_pack_export() -> str:
    return (
        "WITH t AS (SELECT source, doc_id, text, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens "
        "FROM documents), "
        "c AS (SELECT source, doc_id, text, n_tokens, "
        "CAST(COALESCE(SUM(n_tokens) OVER (PARTITION BY source "
        "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
        "1 PRECEDING), 0) AS BIGINT) AS csum FROM t) "
        f"SELECT source, CAST(csum // {PACK_BUDGET} AS BIGINT) AS bin, "
        "COUNT(*) AS n_docs, CAST(SUM(n_tokens) AS BIGINT) AS tok_sum, "
        "md5(string_agg(text, ' ' ORDER BY doc_id)) AS pack_md5 "
        f"FROM c GROUP BY source, csum // {PACK_BUDGET}"
    )


# ---------------- shared bucketed semi-count (the above-cap path)

def _bucketed_hit_counts(occ_ds, set_ds, totals_ds, names):
    """Per-doc membership counting WITHOUT collecting the probe set:
    the scale path for chunk_dedup / decontaminate when the
    duplicated-chunk / eval-gram set is above the broadcast cap.

    occ_ds:    (doc_id, gh, cnt)  — per-doc hash occurrence counts
    set_ds:    (gh)               — the membership set, as a Dataset
    totals_ds: (doc_id, total)    — per-doc denominators (map-side)

    Two cogroup exchanges, no driver-side set: (1) occ and set rows
    meet per gh bucket and hit partials aggregate per doc; (2) partials
    meet totals per doc_id bucket.  Returns a Dataset (doc_id, total,
    hits, hits / total) under ``names`` for the last three."""
    from ..stages.shuffle import bucketed_apply

    def hit(occ: pd.DataFrame, mem: pd.DataFrame) -> pd.DataFrame:
        occ = occ[occ["gh"].isin(mem["gh"])]
        per = occ.groupby("doc_id", sort=False)["cnt"].sum()
        return pd.DataFrame({"doc_id": per.index.to_numpy(np.int64),
                             "hits": per.to_numpy(np.int64)})

    hits = bucketed_apply((occ_ds, set_ds), ["gh"], hit)

    def fin(h: pd.DataFrame, tot: pd.DataFrame) -> pd.DataFrame:
        # every doc has one totals row; hit partials may be several
        per = h.groupby("doc_id", sort=False)["hits"].sum()
        total = tot["total"].to_numpy(np.int64)
        n_hit = tot["doc_id"].map(per).fillna(0).to_numpy(np.int64)
        return pd.DataFrame({"doc_id": tot["doc_id"].to_numpy(np.int64),
                             names[0]: total, names[1]: n_hit,
                             names[2]: n_hit / total})

    return bucketed_apply((hits, totals_ds), ["doc_id"], fin)


# ------------------------------------- 2. duplicate-chunk removal (C4)

def _doc_chunks(b: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(doc_id_per_chunk, chunk_string) — every consecutive CHUNK_W-word
    window (last one partial) of every doc, vectorized: one global
    split, one object-matrix scatter, CHUNK_W-1 vector concats."""
    doc_id = b.column("doc_id").to_numpy()
    t = b.column("text").to_pandas()
    nw = (t.str.count(" ") + 1).to_numpy().astype(np.int64)
    n = len(t)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, object)
    words = np.asarray(" ".join(t.tolist()).split(" "), dtype=object)
    row = np.repeat(np.arange(n, dtype=np.int64), nw)
    pos = np.arange(len(words), dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(nw)[:-1]]), nw)
    nchunks = (nw + CHUNK_W - 1) // CHUNK_W
    chunk_base = np.concatenate([[0], np.cumsum(nchunks)[:-1]])
    cid = chunk_base[row] + pos // CHUNK_W
    total = int(nchunks.sum())
    mat = np.full((total, CHUNK_W), "", dtype=object)
    mat[cid, pos % CHUNK_W] = words
    # padding cells are identified by POSITION (a chunk's length),
    # never by cell value — a genuine "" token (consecutive spaces in
    # the text) is a real word and must stay in the joined chunk,
    # exactly as the oracle's array_to_string does
    chunk_len = np.full(total, CHUNK_W, dtype=np.int64)
    last_idx = chunk_base + nchunks - 1
    chunk_len[last_idx] = nw - (nchunks - 1) * CHUNK_W
    s = mat[:, 0]
    for j in range(1, CHUNK_W):
        s = np.where(j < chunk_len, s + " " + mat[:, j], s)
    chunk_doc = np.repeat(doc_id.astype(np.int64), nchunks)
    return chunk_doc, s


def _doc_chunk_hashes(b: pa.Table):
    """(doc_id_per_chunk, chunk_string, md5-low64 chunk hash) — the
    :func:`_doc_chunks` windows, each distinct string hashed once."""
    d, s = _doc_chunks(b)
    codes, uniq = pd.factorize(pd.Series(s), sort=False)
    return d, s, _md5_lower64(uniq).view(np.int64)[codes]


def q_chunk_dedup(sf_dir: str, broadcast_max: int = BROADCAST_MAX):
    """Per-doc duplicated-span stats: (doc_id, n_chunks, n_dup, dup_frac)
    where a chunk is "dup" iff its exact text occurs in >= 2 distinct
    docs anywhere in the corpus.

    Two passes: (1) distinct (doc, chunk-hash) pairs -> map-side-combined
    count per hash -> the small duplicated-hash set, broadcast sorted;
    (2) per-batch membership recount.  Above ``broadcast_max`` the probe
    instead runs through :func:`_bucketed_hit_counts` — two cogroup
    exchanges, the dup set never collects to the driver."""
    import ray

    from ..stages.shuffle import broadcast_table, grouped_agg

    def pairs(b: pa.Table) -> pa.Table:
        d, s = _doc_chunks(b)
        df = pd.DataFrame({"doc_id": d, "g": s}).drop_duplicates()
        codes, uniq = pd.factorize(df["g"], sort=False)
        gh = _md5_lower64(uniq).view(np.int64)[codes]
        return pa.table({"gh": pa.array(gh),
                         "one": pa.array(np.ones(len(df), np.int64))})

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    counts = grouped_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["gh"], {"n_docs": ("one", "sum")},
    )
    dup_ds = counts.filter(expr="n_docs >= 2").select_columns(
        ["gh"]).materialize()  # count() + consume = ONE pass-1 execution
    dup = broadcast_table(dup_ds, "gh", broadcast_max)
    if dup is None:
        # scale path: bucketed semi-count, no driver-side set
        def occ(b: pa.Table) -> pa.Table:
            d, _s, gh = _doc_chunk_hashes(b)
            per = (pd.DataFrame({"doc_id": d, "gh": gh})
                   .groupby(["doc_id", "gh"], sort=False).size()
                   .reset_index(name="cnt"))
            return pa.Table.from_pandas(per, preserve_index=False)

        def totals(b: pa.Table) -> pa.Table:
            d, _s = _doc_chunks(b)
            docs, n = np.unique(d, return_counts=True)
            return pa.table({"doc_id": pa.array(docs),
                             "total": pa.array(n.astype(np.int64))})

        return _bucketed_hit_counts(
            ds.map_batches(occ, batch_format="pyarrow"), dup_ds,
            ds.map_batches(totals, batch_format="pyarrow"),
            ("n_chunks", "n_dup", "dup_frac"))

    def recount(b: pa.Table) -> pa.Table:
        d, _s, gh = _doc_chunk_hashes(b)
        isdup, _ = dup.lookup(gh)
        docs, n_all = np.unique(d, return_counts=True)
        n_all = n_all.astype(np.int64)
        n_dup = np.bincount(
            np.searchsorted(docs, d), weights=isdup.astype(np.float64),
            minlength=len(docs)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(docs),
                "n_chunks": pa.array(n_all),
                "n_dup": pa.array(n_dup),
                "dup_frac": pa.array(n_dup / n_all),
            }
        )

    return ds.map_batches(recount, batch_format="pyarrow")


def sql_chunk_dedup() -> str:
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "c AS (SELECT doc_id, unnest(list_transform("
        f"range(0, CAST(ceil(len(ws) / {CHUNK_W}.0) AS BIGINT)), "
        f"i -> array_to_string(list_slice(ws, i * {CHUNK_W} + 1, "
        f"i * {CHUNK_W} + {CHUNK_W}), ' '))) AS chunk FROM w), "
        "d AS (SELECT chunk FROM c GROUP BY chunk "
        "HAVING COUNT(DISTINCT doc_id) >= 2) "
        "SELECT c.doc_id, COUNT(*) AS n_chunks, "
        "CAST(SUM(CASE WHEN d.chunk IS NOT NULL THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_dup, "
        "CAST(SUM(CASE WHEN d.chunk IS NOT NULL THEN 1 ELSE 0 END) "
        "AS DOUBLE) / COUNT(*) AS dup_frac "
        "FROM c LEFT JOIN d ON c.chunk = d.chunk GROUP BY c.doc_id"
    )


# ------------------------------------ 3. decontamination screening

NGRAM_W = 8            # sliding n-gram width (GPT-3 used 13-grams,
# Llama 2 used token 8-grams; whitespace 8-grams here)
EVAL_MOD = 10          # fixture stand-in for the benchmark set:
# docs with doc_id % EVAL_MOD == 0 play the held-out eval corpus


def _doc_gram_hashes(b: pa.Table, width: int = NGRAM_W):
    """(row_index, gram_hash) for every sliding ``width``-gram — see
    :func:`_doc_gram_scan`."""
    rows, _pos, gh = _doc_gram_scan(b, width)
    return rows, gh


def _doc_gram_hashes_pos(b: pa.Table, width: int = NGRAM_W):
    """(row_index, 1-based start-word position, gram_hash) per sliding
    ``width``-gram — the hashing replacement for
    ``_doc_ngrams_pos`` + ``_md5_lower64`` at every consumer that only
    needs the gram's md5 identity, not the string."""
    return _doc_gram_scan(b, width)


def _doc_word_counts(b: pa.Table) -> np.ndarray:
    """Words per row (split-on-single-space semantics) from one
    vectorized space scan over the Arrow text buffer — no gram
    strings, no hashes."""
    col = b.column("text")
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    outs = []
    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        odt = (np.int64 if pa.types.is_large_string(chunk.type)
               else np.int32)
        bufs = chunk.buffers()
        offs = np.frombuffer(
            bufs[1], dtype=odt, count=n + 1,
            offset=chunk.offset * np.dtype(odt).itemsize).astype(np.int64)
        data = np.frombuffer(bufs[2], dtype=np.uint8)
        sp = np.flatnonzero(data[offs[0]:offs[-1]] == 32) + offs[0]
        row_of_sp = np.searchsorted(offs, sp, side="right") - 1
        outs.append(np.bincount(row_of_sp, minlength=n)[:n] + 1)
    if not outs:
        return np.empty(0, np.int64)
    return np.concatenate(outs).astype(np.int64)


def _doc_gram_scan(b: pa.Table, width: int = NGRAM_W):
    """(row_index, pos, gram_hash) for every sliding ``width``-gram,
    hashing byte SLICES of the original text instead of materializing
    gram strings.  Exact because ``" ".join(s.split(" ")) == s`` for
    any s: the gram joining words i..i+w-1 with single spaces IS the
    byte span from the start of word i to the end of word i+w-1, so
    md5(slice) == md5(" ".join(words)) byte for byte (empty words from
    repeated spaces included).  Replaces the w-1 pandas concat passes
    (one new Python string per gram per pass) with one vectorized space
    scan + one md5 per gram over a zero-copy memoryview — the 8M-doc
    decontaminate probe measured 35.4 s -> 8.5 s at 32 cpus once every
    gram consumer (dup_spans / span_rewrite / winnow / dedup paths)
    switched to it."""
    import hashlib

    col = b.column("text")
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    md5 = hashlib.md5
    rows_out: list[np.ndarray] = []
    pos_out: list[np.ndarray] = []
    ghs_out: list[np.ndarray] = []
    row_base = 0
    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        if chunk.null_count:
            raise ValueError("null text")
        odt = (np.int64 if pa.types.is_large_string(chunk.type)
               else np.int32)
        bufs = chunk.buffers()
        offs = np.frombuffer(
            bufs[1], dtype=odt, count=n + 1,
            offset=chunk.offset * np.dtype(odt).itemsize).astype(np.int64)
        data = np.frombuffer(bufs[2], dtype=np.uint8)
        mv = memoryview(bufs[2])
        # every space byte position inside this chunk's rows
        sp = np.flatnonzero(data[offs[0]:offs[-1]] == 32) + offs[0]
        row_of_sp = np.searchsorted(offs, sp, side="right") - 1
        n_words = np.bincount(row_of_sp - 0, minlength=n)[:n] + 1
        # word START byte offsets, grouped by row: row start + each
        # space position + 1;  word END offsets: each space + row end
        starts = np.empty(int(n_words.sum()), np.int64)
        ends = np.empty_like(starts)
        # rows are contiguous: word k of row r lives at word_base[r]+k
        word_base = np.concatenate([[0], np.cumsum(n_words)])
        starts[word_base[:-1]] = offs[:-1]
        ends[word_base[1:] - 1] = offs[1:]
        # spaces fill the rest, in order (sp is sorted; within a row the
        # j-th space ends word j and starts word j+1).  spaces before
        # row r = words before r - r, so the within-row rank is the
        # global space index minus that.
        sp_rank = np.arange(len(sp)) - (word_base[row_of_sp] - row_of_sp)
        starts[word_base[row_of_sp] + sp_rank + 1] = sp + 1
        ends[word_base[row_of_sp] + sp_rank] = sp
        n_grams = np.maximum(n_words - (width - 1), 0)
        tot = int(n_grams.sum())
        if tot == 0:
            row_base += n
            continue
        gram_rows = np.repeat(np.arange(n, dtype=np.int64), n_grams)
        gram_base = np.concatenate([[0], np.cumsum(n_grams)])
        gram_rank = np.arange(tot, dtype=np.int64) - gram_base[gram_rows]
        gi = word_base[gram_rows] + gram_rank
        g_start = starts[gi]
        g_end = ends[gi + (width - 1)]
        gh = np.fromiter(
            (int.from_bytes(md5(mv[s:e]).digest()[8:16], "little")
             for s, e in zip(g_start.tolist(), g_end.tolist())),
            dtype=np.uint64, count=tot)
        rows_out.append(gram_rows + row_base)
        pos_out.append(gram_rank + 1)
        ghs_out.append(gh.view(np.int64))
        row_base += n
    if not rows_out:
        e = np.empty(0, np.int64)
        return e, e, e
    return (np.concatenate(rows_out), np.concatenate(pos_out),
            np.concatenate(ghs_out))


def q_decontaminate(sf_dir: str, broadcast_max: int = BROADCAST_MAX):
    """Benchmark-overlap screening: flag how much of every corpus doc
    is covered by sliding 8-grams that also occur in the eval set
    (docs with doc_id % EVAL_MOD == 0 stand in for the benchmark).
    Output per corpus doc: (doc_id, n_grams, n_contam, contam_frac).

    The eval-set gram table is the SMALL side (benchmarks are tiny
    next to a training corpus): its distinct gram hashes are broadcast
    sorted and probed per batch — the bloom_semijoin recheck shape.
    Above ``broadcast_max`` the probe becomes a bucketed semi-join on
    the gram hash (same fallback contract as chunk_dedup)."""
    import ray

    from ..stages.shuffle import broadcast_table, distinct

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def eval_grams(b: pa.Table) -> pa.Table:
        keep = np.flatnonzero(
            b.column("doc_id").to_numpy() % EVAL_MOD == 0)
        sub = b.take(pa.array(keep, pa.int64()))
        _rows, gh = _doc_gram_hashes(sub)
        return pa.table({"gh": pa.array(np.unique(gh))})

    def corpus_grams(b: pa.Table):
        keep = np.flatnonzero(
            b.column("doc_id").to_numpy() % EVAL_MOD != 0)
        sub = b.take(pa.array(keep, pa.int64()))
        rows, gh = _doc_gram_hashes(sub)
        return sub.column("doc_id").to_numpy().astype(np.int64)[rows], gh

    ev_ds = distinct(
        ds.map_batches(eval_grams, batch_format="pyarrow"),
        ["gh"]).materialize()  # count() + consume = ONE pass-1 execution
    ev = broadcast_table(ev_ds, "gh", broadcast_max)
    if ev is None:
        # scale path: bucketed semi-count against the eval-gram set
        def occ(b: pa.Table) -> pa.Table:
            d, gh = corpus_grams(b)
            per = (pd.DataFrame({"doc_id": d, "gh": gh})
                   .groupby(["doc_id", "gh"], sort=False).size()
                   .reset_index(name="cnt"))
            return pa.Table.from_pandas(per, preserve_index=False)

        def totals(b: pa.Table) -> pa.Table:
            docs, n = np.unique(corpus_grams(b)[0], return_counts=True)
            return pa.table(
                {"doc_id": pa.array(docs.astype(np.int64)),
                 "total": pa.array(n.astype(np.int64))})

        return _bucketed_hit_counts(
            ds.map_batches(occ, batch_format="pyarrow"), ev_ds,
            ds.map_batches(totals, batch_format="pyarrow"),
            ("n_grams", "n_contam", "contam_frac"))

    def probe(b: pa.Table) -> pa.Table:
        d, gh = corpus_grams(b)
        if not len(d):
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_grams": pa.array([], pa.int64()),
                 "n_contam": pa.array([], pa.int64()),
                 "contam_frac": pa.array([], pa.float64())})
        hit, _ = ev.lookup(gh)
        docs = np.unique(d)
        idx = np.searchsorted(docs, d)
        n_all = np.bincount(idx, minlength=len(docs)).astype(np.int64)
        n_hit = np.bincount(
            idx, weights=hit.astype(np.float64),
            minlength=len(docs)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(docs),
                "n_grams": pa.array(n_all),
                "n_contam": pa.array(n_hit),
                "contam_frac": pa.array(n_hit / n_all),
            }
        )

    return ds.map_batches(probe, batch_format="pyarrow")


def sql_decontaminate() -> str:
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "g AS (SELECT doc_id, unnest(list_transform("
        f"range(1, len(ws) - {NGRAM_W - 2}), "
        f"i -> array_to_string(list_slice(ws, i, i + {NGRAM_W - 1}), "
        "' '))) AS gram FROM w), "
        f"ev AS (SELECT DISTINCT gram FROM g WHERE doc_id % {EVAL_MOD} = 0) "
        "SELECT g.doc_id, COUNT(*) AS n_grams, "
        "CAST(SUM(CASE WHEN ev.gram IS NOT NULL THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_contam, "
        "CAST(SUM(CASE WHEN ev.gram IS NOT NULL THEN 1 ELSE 0 END) "
        "AS DOUBLE) / COUNT(*) AS contam_frac "
        "FROM g LEFT JOIN ev ON g.gram = ev.gram "
        f"WHERE g.doc_id % {EVAL_MOD} != 0 GROUP BY g.doc_id"
    )


# --------------------------------- 4. repetition signal (Gopher-style)

def q_repetition(sf_dir: str):
    """Per-doc top-bigram fraction: (doc_id, n_big, top_big_n,
    top_big_frac).  Docs with fewer than 2 words yield no bigrams and
    are omitted (the oracle's unnest does the same).  Pure map_batches:
    factorize bigrams once per batch, count (doc, bigram) pairs with one
    np.unique, per-doc max via maximum.reduceat — no Python loop."""
    import ray

    def fn(b: pa.Table) -> pa.Table:
        doc_id = b.column("doc_id").to_numpy()
        t = b.column("text").to_pandas()
        ex = t.str.split(" ").explode()
        nxt = ex.groupby(level=0).shift(-1)
        big = (ex + " " + nxt).dropna()
        if not len(big):
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_big": pa.array([], pa.int64()),
                 "top_big_n": pa.array([], pa.int64()),
                 "top_big_frac": pa.array([], pa.float64())})
        row = big.index.to_numpy().astype(np.int64)
        codes, uniq = pd.factorize(big, sort=False)
        k = np.int64(max(len(uniq), 1))
        pair, cnt = np.unique(row * k + codes, return_counts=True)
        prow = (pair // k).astype(np.int64)
        starts = np.concatenate(
            [[0], np.flatnonzero(prow[1:] != prow[:-1]) + 1])
        docs_rows = prow[starts]
        top = np.maximum.reduceat(cnt, starts).astype(np.int64)
        n_big = np.add.reduceat(cnt, starts).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc_id[docs_rows].astype(np.int64)),
                "n_big": pa.array(n_big),
                "top_big_n": pa.array(top),
                "top_big_frac": pa.array(top / n_big),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_repetition() -> str:
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "b AS (SELECT doc_id, unnest(list_transform(range(1, len(ws)), "
        "i -> ws[i] || ' ' || ws[i+1])) AS g FROM w), "
        "cnt AS (SELECT doc_id, g, COUNT(*) AS n FROM b "
        "GROUP BY doc_id, g) "
        "SELECT doc_id, CAST(SUM(n) AS BIGINT) AS n_big, "
        "CAST(MAX(n) AS BIGINT) AS top_big_n, "
        "CAST(MAX(n) AS DOUBLE) / SUM(n) AS top_big_frac "
        "FROM cnt GROUP BY doc_id"
    )


# --------------------------- 5. end-to-end curation flagship

CUR_MIN_WORDS = 30
CUR_STOP_DEN = 20            # lowstop iff stop_n * CUR_STOP_DEN < n_tokens
CUR_LANGS = ("en", "de", "fr", "es")


def q_curate_e2e(sf_dir: str):
    """The text-side flagship: one call running the whole curation
    chain a training-data pipeline needs — exact-dup canonicalization
    (first-two-words prefix key, same key as ``dedup_exact``) ->
    quality rules (length, stopword ratio) -> language filter ->
    token-budget bin packing of the survivors (seq_pack semantics).

    Output one row per document: (doc_id, source, lang, n_tokens,
    keep, reason, bin) with reason in {dup, short, lowstop, lang, ok}
    by that precedence and bin = -1 for dropped docs.

    Two exchanges total: one bucketed by the dedup key (per-key min),
    one bucketed by shard for the packing cumsum; every per-doc rule is
    vectorized inside map_batches.  At 100 TB both exchanges move only
    fixed-width metadata rows (the text never shuffles)."""
    import ray

    from ..stages.shuffle import bucketed_apply
    from .queries_text import STOPWORDS

    def stage1(b: pa.Table) -> pa.Table:
        t = b.column("text").to_pandas()
        n = len(t)
        nw = (t.str.count(" ") + 1).to_numpy().astype(np.int64)
        if n:
            doc_idx = np.repeat(np.arange(n, dtype=np.int64), nw)
            words = np.asarray(" ".join(t.tolist()).split(" "), dtype=object)
            stop_mask = pd.Series(words).isin(STOPWORDS).to_numpy()
            stop_n = np.bincount(
                doc_idx[stop_mask], minlength=n).astype(np.int64)
        else:
            stop_n = nw
        prefix = t.str.extract(r"^(\S*(?: \S*)?)", expand=False)
        codes, uniq = pd.factorize(prefix)
        if n:
            base = _md5_lower64(uniq.astype(object)).view(np.int64) \
                if len(uniq) else np.zeros(1, np.int64)
            kh = base[codes]
            # NULL text factorizes to code -1 (would alias the last
            # unique prefix); SQL groups NULLs together — reserve 0
            kh[codes == -1] = np.int64(0)
        else:
            kh = np.empty(0, np.int64)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "source": b.column("source"),
                "lang": b.column("lang"),
                "kh": pa.array(kh),
                "n_tokens": pa.array(nw),
                "stop_n": pa.array(stop_n),
            }
        )

    def canon(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("kh", sort=False)["doc_id"].transform("min")
        nw = g["n_tokens"].to_numpy()
        reason = np.select(
            [
                (g["doc_id"] != m).to_numpy(),
                nw < CUR_MIN_WORDS,
                g["stop_n"].to_numpy() * CUR_STOP_DEN < nw,
                ~g["lang"].isin(CUR_LANGS).to_numpy(),
            ],
            ["dup", "short", "lowstop", "lang"],
            default="ok",
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "source": g["source"].to_numpy(),
                "lang": g["lang"].to_numpy(),
                "n_tokens": nw,
                "keep": (reason == "ok").astype(np.int64),
                "reason": reason,
            }
        )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "doc_id"], kind="stable")
        masked = np.where(g["keep"].to_numpy() == 1,
                          g["n_tokens"].to_numpy(), 0)
        csum = (pd.Series(masked).groupby(g["source"].to_numpy()).cumsum()
                .to_numpy() - masked)
        b = np.where(g["keep"].to_numpy() == 1,
                     csum // PACK_BUDGET, -1).astype(np.int64)
        return g.assign(bin=b)

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    ).map_batches(stage1, batch_format="pyarrow")
    flagged = bucketed_apply(ds, ["kh"], canon)
    return bucketed_apply(flagged, ["source"], pack)


def sql_curate_e2e() -> str:
    from .queries_text import STOPWORDS

    stops = ", ".join(f"'{w}'" for w in STOPWORDS)
    langs = ", ".join(f"'{w}'" for w in CUR_LANGS)
    return (
        "WITH t AS (SELECT doc_id, source, lang, "
        "array_to_string(list_slice(string_split(text, ' '), 1, 2), ' ') "
        "AS kh, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens, "
        "CAST(len(list_filter(string_split(text, ' '), "
        f"w -> w IN ({stops}))) AS BIGINT) AS stop_n FROM documents), "
        "c AS (SELECT *, MIN(doc_id) OVER (PARTITION BY kh) AS canon "
        "FROM t), "
        "r AS (SELECT doc_id, source, lang, n_tokens, "
        "CASE WHEN doc_id != canon THEN 'dup' "
        f"WHEN n_tokens < {CUR_MIN_WORDS} THEN 'short' "
        f"WHEN stop_n * {CUR_STOP_DEN} < n_tokens THEN 'lowstop' "
        f"WHEN lang NOT IN ({langs}) THEN 'lang' "
        "ELSE 'ok' END AS reason FROM c), "
        "k AS (SELECT *, "
        "CASE WHEN reason = 'ok' THEN 1 ELSE 0 END AS keep, "
        "CAST(COALESCE(SUM(CASE WHEN reason = 'ok' THEN n_tokens "
        "ELSE 0 END) OVER (PARTITION BY source ORDER BY doc_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
        "AS BIGINT) AS csum FROM r) "
        "SELECT doc_id, source, lang, n_tokens, "
        "CAST(keep AS BIGINT) AS keep, reason, "
        f"CASE WHEN keep = 1 THEN CAST(csum // {PACK_BUDGET} AS BIGINT) "
        "ELSE -1 END AS bin FROM k"
    )


# ------------------- 6. duplicated-substring spans (Lee et al. 2022)
#
# "Deduplicating Training Data Makes Language Models Better" removes
# EXACT substrings (>= 50 tokens) shared between documents, found with
# a suffix array.  The distributed equivalent here: slide NGRAM_W-word
# windows over every doc, mark windows whose text occurs in >= 2
# distinct docs, and report per doc the duplicated-window count AND the
# LONGEST CONSECUTIVE RUN of duplicated windows (max_run + NGRAM_W - 1
# words = the longest shared substring, the paper's removal criterion).
# A suffix array is driver-hostile at 100 TB; the sliding-window
# run-length view is the standard shuffle-friendly reformulation (same
# family as the chunk_dedup / decontaminate operators above, plus the
# positional run statistic).

def _doc_ngrams_pos(b: pa.Table, width: int = NGRAM_W):
    """(row, pos, gram) sliding whitespace ``width``-grams per doc with
    1-based within-doc positions, in document order (explode preserves
    element order; a doc's grams are contiguous)."""
    t = b.column("text").to_pandas()
    ex = t.str.split(" ").explode()
    g = ex.groupby(level=0)
    pos = g.cumcount().to_numpy()
    s = ex
    for j in range(1, width):
        s = s + " " + g.shift(-j)
    mask = s.notna().to_numpy()
    return (s.index.to_numpy()[mask].astype(np.int64),
            pos[mask].astype(np.int64) + 1,
            s.to_numpy()[mask])


def _run_stats(row: np.ndarray, isdup: np.ndarray):
    """Per contiguous row group: (rows, n_grams, n_dup, max_run) where
    max_run is the longest consecutive True run.  One pass, no Python
    loop: run starts are True positions not continuing a same-row True,
    run lengths come from one bincount over run ids."""
    docs = np.unique(row)
    idx = np.searchsorted(docs, row)
    n_grams = np.bincount(idx, minlength=len(docs)).astype(np.int64)
    n_dup = np.bincount(
        idx, weights=isdup.astype(np.float64),
        minlength=len(docs)).astype(np.int64)
    prev_same = np.concatenate(
        [[False], isdup[:-1] & (row[1:] == row[:-1])])
    starts = isdup & ~prev_same
    max_run = np.zeros(len(docs), np.int64)
    n_runs = int(starts.sum())
    if n_runs:
        run_id = np.cumsum(starts) - 1
        run_len = np.bincount(run_id[isdup], minlength=n_runs)
        np.maximum.at(max_run, idx[starts], run_len)
    return docs, n_grams, n_dup, max_run


def q_dup_spans(sf_dir: str, broadcast_max: int = BROADCAST_MAX):
    """Per-doc duplicated-substring stats: (doc_id, n_grams, n_dup,
    max_run) over sliding NGRAM_W-word windows, where a window is "dup"
    iff its exact text occurs in >= 2 distinct docs and max_run is the
    longest consecutive duplicated-window run (Lee et al.'s longest
    shared substring, in window units).

    Pass 1 = distinct (doc, gram-hash) pairs -> map-side-combined count
    per hash -> the duplicated-hash set (tiny for real corpora),
    broadcast sorted; pass 2 = per-batch membership + one vectorized
    run-length pass (:func:`_run_stats`).  Above ``broadcast_max`` the
    probe instead runs as two cogroup exchanges carrying (doc_id, pos)
    hit rows — positions, not counts, because the run statistic needs
    them — and the dup set never collects to the driver."""
    import ray

    from ..stages.shuffle import (
        broadcast_table, bucketed_apply, grouped_agg,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    counts = grouped_agg(
        ds.map_batches(_gram_doc_pairs, batch_format="pyarrow"),
        ["gh"], {"n_docs": ("one", "sum")})
    dup_ds = counts.filter(expr="n_docs >= 2").select_columns(
        ["gh"]).materialize()  # count() + consume = ONE pass-1 execution
    dup = broadcast_table(dup_ds, "gh", broadcast_max)

    if dup is None:
        # scale path: position-carrying bucketed semi-join, then a
        # per-doc exchange computing the run statistic from positions
        hits = bucketed_apply(
            (ds.map_batches(_gram_occurrences, batch_format="pyarrow"),
             dup_ds), ["gh"], _dup_positions)

        def totals(b: pa.Table) -> pa.Table:
            n_grams = np.maximum(
                _doc_word_counts(b) - (NGRAM_W - 1), 0)
            r = np.flatnonzero(n_grams)
            doc = b.column("doc_id").to_numpy()[r].astype(np.int64)
            return pa.table({"doc_id": pa.array(doc),
                             "tot": pa.array(n_grams[r])})

        def fin(h: pd.DataFrame, tot: pd.DataFrame) -> pd.DataFrame:
            h = h.sort_values(["doc_id", "pos"], kind="stable")
            d = h["doc_id"].to_numpy(np.int64)
            p = h["pos"].to_numpy(np.int64)
            docs = tot["doc_id"].to_numpy(np.int64)
            order = np.argsort(docs, kind="stable")
            docs = docs[order]
            idx = np.searchsorted(docs, d)
            n_dup = np.bincount(idx, minlength=len(docs)).astype(np.int64)
            # positions are sorted per doc: a run continues while the
            # next position is prev+1 within the same doc
            starts = np.ones(len(d), bool)
            starts[1:] = (d[1:] != d[:-1]) | (p[1:] != p[:-1] + 1)
            max_run = np.zeros(len(docs), np.int64)
            np.maximum.at(max_run, idx[starts], np.bincount(
                np.cumsum(starts) - 1, minlength=int(starts.sum())))
            return pd.DataFrame({
                "doc_id": docs,
                "n_grams": tot["tot"].to_numpy(np.int64)[order],
                "n_dup": n_dup, "max_run": max_run})

        return bucketed_apply(
            (hits, ds.map_batches(totals, batch_format="pyarrow")),
            ["doc_id"], fin)

    def probe(b: pa.Table) -> pa.Table:
        row, gh = _doc_gram_hashes(b)
        if not len(row):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_grams": pa.array([], pa.int64()),
                             "n_dup": pa.array([], pa.int64()),
                             "max_run": pa.array([], pa.int64())})
        isdup, _ = dup.lookup(gh)
        rows, n_grams, n_dup, max_run = _run_stats(row, isdup)
        doc = b.column("doc_id").to_numpy()[rows].astype(np.int64)
        return pa.table({"doc_id": pa.array(doc),
                         "n_grams": pa.array(n_grams),
                         "n_dup": pa.array(n_dup),
                         "max_run": pa.array(max_run)})

    return ds.map_batches(probe, batch_format="pyarrow")


def _gram_doc_pairs(b: pa.Table) -> pa.Table:
    """(gh, one) per distinct (doc, gram hash) of a batch: summed per
    gh, the number of docs a gram occurs in."""
    _row, gh = _doc_gram_hashes(b)
    df = pd.DataFrame({"r": _row, "gh": gh}).drop_duplicates()
    return pa.table({"gh": pa.array(df["gh"].to_numpy(np.int64)),
                     "one": pa.array(np.ones(len(df), np.int64))})


def _gram_occurrences(b: pa.Table) -> pa.Table:
    """(doc_id, pos, gh) for every sliding NGRAM_W-gram of a batch."""
    row, pos, gh = _doc_gram_hashes_pos(b)
    doc = b.column("doc_id").to_numpy()[row].astype(np.int64)
    return pa.table({"doc_id": pa.array(doc),
                     "pos": pa.array(pos),
                     "gh": pa.array(gh)})


def _dup_positions(occ: pd.DataFrame, dup: pd.DataFrame) -> pd.DataFrame:
    """One gh bucket: the (doc_id, pos) of every occurrence whose gram
    hash is in the duplicated set."""
    o = occ[occ["gh"].isin(dup["gh"])]
    return pd.DataFrame({"doc_id": o["doc_id"].to_numpy(np.int64),
                         "pos": o["pos"].to_numpy(np.int64)})


def sql_dup_spans() -> str:
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "g AS (SELECT doc_id, unnest(list_transform("
        f"range(1, len(ws) - {NGRAM_W - 2}), "
        "i -> struct_pack(pos := i, gram := array_to_string("
        f"list_slice(ws, i, i + {NGRAM_W - 1}), ' '))), "
        "recursive := true) FROM w), "
        "d AS (SELECT gram FROM g GROUP BY gram "
        "HAVING COUNT(DISTINCT doc_id) >= 2), "
        "h AS (SELECT g.doc_id, g.pos, d.gram IS NOT NULL AS isdup "
        "FROM g LEFT JOIN d ON g.gram = d.gram), "
        "runs AS (SELECT doc_id, isdup, pos - ROW_NUMBER() OVER "
        "(PARTITION BY doc_id, isdup ORDER BY pos) AS grp FROM h), "
        "mr AS (SELECT doc_id, CAST(MAX(c) AS BIGINT) AS max_run FROM "
        "(SELECT doc_id, grp, COUNT(*) AS c FROM runs WHERE isdup "
        "GROUP BY doc_id, grp) t GROUP BY doc_id), "
        "tot AS (SELECT doc_id, COUNT(*) AS n_grams, "
        "CAST(SUM(CASE WHEN isdup THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_dup FROM h GROUP BY doc_id) "
        "SELECT tot.doc_id, tot.n_grams, tot.n_dup, "
        "COALESCE(mr.max_run, CAST(0 AS BIGINT)) AS max_run "
        "FROM tot LEFT JOIN mr ON tot.doc_id = mr.doc_id"
    )


QUERIES = {
    "seq_pack": q_seq_pack,
    "pack_export": q_pack_export,
    "chunk_dedup": q_chunk_dedup,
    "decontaminate": q_decontaminate,
    "repetition": q_repetition,
    "curate_e2e": q_curate_e2e,
    "dup_spans": q_dup_spans,
}

ORACLES = {
    "dup_spans": sql_dup_spans(),
    "seq_pack": sql_seq_pack(),
    "pack_export": sql_pack_export(),
    "chunk_dedup": sql_chunk_dedup(),
    "decontaminate": sql_decontaminate(),
    "repetition": sql_repetition(),
    "curate_e2e": sql_curate_e2e(),
}


# ------------------------------------------------ 6. RAG-style chunker
#
# Overlapping fixed-size text chunking — the retrieval/embedding
# pipeline's segmentation stage (every RAG corpus build runs one).
# Chunk k of a document covers words [k*STRIDE, k*STRIDE + RAG_CHUNK_W);
# chunks exist for every start < n_words, so consecutive chunks share
# RAG_CHUNK_W - STRIDE words of context.  Embarrassingly parallel
# map_batches (documents are single rows — no exchange): word
# boundaries come from ONE pass over the batch's concatenated UTF-8
# bytes (space positions via np.flatnonzero, per-doc ranges via
# searchsorted — byte slicing at space/doc boundaries is codepoint-safe
# because the delimiters are single-byte), chunk extraction is the
# output materialization.  At scale chunks stream straight to a
# partitioned sink; nothing aggregates.

RAG_CHUNK_W = 32      # words per RAG chunk (distinct from chunk_dedup's CHUNK_W)
RAG_CHUNK_STRIDE = 24


def chunk_words(texts, ids) -> pd.DataFrame:
    """Vectorized overlapping chunker over a batch of documents."""
    texts = list(texts)
    byte_lens = np.asarray([len(t.encode()) for t in texts], np.int64)
    # doc i occupies [st[i], en[i]) in the NUL-joined byte buffer
    en = np.cumsum(byte_lens + 1) - 1
    st = en - byte_lens
    buf = "\x00".join(texts).encode()
    b = np.frombuffer(buf, np.uint8)
    sp = np.flatnonzero(b == 32).astype(np.int64)  # global space positions
    off = np.searchsorted(sp, st)                  # first space of doc i
    n_words = np.searchsorted(sp, en) - off + 1
    m_chunks = (n_words - 1) // RAG_CHUNK_STRIDE + 1
    # per-chunk doc index + chunk ordinal
    doc_ix = np.repeat(np.arange(len(texts)), m_chunks)
    k = np.arange(int(m_chunks.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(m_chunks) - m_chunks, m_chunks)
    s = k * RAG_CHUNK_STRIDE
    e = np.minimum(s + RAG_CHUNK_W, n_words[doc_ix])
    # byte span: word j of doc i starts after boundary j-1 (a space) or
    # at the doc start; ends at boundary j (a space) or the doc end
    a = np.where(s == 0, st[doc_ix], sp[np.clip(
        off[doc_ix] + s - 1, 0, max(len(sp) - 1, 0))] + 1)
    z = np.where(e == n_words[doc_ix], en[doc_ix], sp[np.clip(
        off[doc_ix] + e - 1, 0, max(len(sp) - 1, 0))])
    chunks = [buf[ai:zi].decode() for ai, zi in zip(a, z)]
    return pd.DataFrame({
        "doc_id": np.asarray(ids)[doc_ix],
        "chunk_id": k,
        "start_word": s,
        "n_words": (e - s).astype(np.int64),
        "chunk": chunks,
    })


def q_chunk_text(sf_dir: str):
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        out = chunk_words(
            batch.column("text").to_pylist(),
            batch.column("doc_id").to_numpy())
        return pa.Table.from_pandas(out, preserve_index=False)

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_chunk_text() -> str:
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "k AS (SELECT doc_id, ws, unnest(range(0, "
        f"CAST((len(ws) - 1) // {RAG_CHUNK_STRIDE} AS BIGINT) + 1)) AS ck "
        "FROM w) "
        "SELECT doc_id, CAST(ck AS BIGINT) AS chunk_id, "
        f"CAST(ck * {RAG_CHUNK_STRIDE} AS BIGINT) AS start_word, "
        f"CAST(LEAST(ck * {RAG_CHUNK_STRIDE} + {RAG_CHUNK_W}, len(ws)) "
        f"- ck * {RAG_CHUNK_STRIDE} AS BIGINT) AS n_words, "
        f"array_to_string(ws[ck * {RAG_CHUNK_STRIDE} + 1 : "
        f"LEAST(ck * {RAG_CHUNK_STRIDE} + {RAG_CHUNK_W}, len(ws))], ' ') "
        "AS chunk FROM k"
    )


QUERIES["chunk_text"] = q_chunk_text
ORACLES["chunk_text"] = sql_chunk_text()


# ------------------------- 7. winnowing fingerprints (Schleimer 2003)
#
# "Winnowing: Local Algorithms for Document Fingerprinting" (MOSS) —
# the standard position-robust document fingerprint: hash every
# WINNOW_K-gram, then in every window of WINNOW_W consecutive gram
# hashes keep the minimum (rightmost occurrence on ties).  The selected
# (pos, hash) set is the doc's fingerprint; any shared substring of
# >= W + K - 1 words between two docs is guaranteed to share at least
# one fingerprint — the copy-detection primitive the dup_spans /
# chunk_dedup family builds on.  Embarrassingly parallel map_batches
# (the window never crosses a document): no exchange at any scale.
# Docs with 1 <= g < W grams get one window covering all g grams
# (the sentinel padding realizes this for free).

WINNOW_K = 4   # fingerprint k-gram width (words)
WINNOW_W = 5   # winnowing window (grams); guarantee = W + K - 1 words


def winnow_batch(b: pa.Table) -> pa.Table:
    """Vectorized robust winnowing over one batch of documents.

    Per-doc gram hash sequences are scattered into one buffer with
    WINNOW_W - 1 uint64-max sentinels after each doc, so a single
    ``sliding_window_view`` yields every window without crossing doc
    boundaries (sentinels only ever pad a short doc's single window,
    where they lose every min).  Rightmost-min tie rule = argmin over
    the reversed window.  Selection dedup (one window can re-pick the
    fingerprint its predecessor picked) is one np.unique over packed
    (doc, pos) keys.  Min-selection orders UNSIGNED hashes; the emitted
    ``gh`` is the signed int64 view (what the oracle reconstructs)."""
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "pos": pa.array([], pa.int64()),
                      "gh": pa.array([], pa.int64())})
    row, _pos, gh_s = _doc_gram_hashes_pos(b, width=WINNOW_K)
    if not len(row):
        return empty
    h = gh_s.view(np.uint64)
    docs, starts, cnts = np.unique(
        row, return_index=True, return_counts=True)
    P = WINNOW_W - 1
    nd = len(docs)
    idx = np.repeat(np.arange(nd), cnts)
    padded = np.full(len(h) + P * nd,
                     np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64)
    padded[np.arange(len(h)) + P * idx] = h
    m = np.maximum(cnts - WINNOW_W + 1, 1)           # windows per doc
    base = starts + P * np.arange(nd)                # padded doc offset
    widx = np.repeat(np.arange(nd), m)
    t = np.arange(int(m.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(m) - m, m)
    a = base[widx] + t
    win = np.lib.stride_tricks.sliding_window_view(padded, WINNOW_W)[a]
    mh = win.min(axis=1)
    ridx = WINNOW_W - 1 - np.argmin(win[:, ::-1], axis=1)
    fpos = t + ridx + 1                              # 1-based gram pos
    _, first = np.unique(widx * np.int64(1) * (1 << 32) + fpos,
                         return_index=True)
    did = b.column("doc_id").to_numpy()[docs]
    return pa.table({
        "doc_id": pa.array(did[widx[first]].astype(np.int64)),
        "pos": pa.array(fpos[first]),
        "gh": pa.array(mh[first].view(np.int64)),
    })


def q_winnow(sf_dir: str):
    """Winnowing fingerprint set: (doc_id, pos, gh) — pos is the
    1-based k-gram position, gh the signed-int64 view of the md5-low64
    gram hash.  Pure map_batches; at 100 TB this streams straight to a
    partitioned sink keyed by gh for the downstream all-pairs probe."""
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(winnow_batch, batch_format="pyarrow")


def _sql_winnow_ctes() -> str:
    """Shared WITH-prefix ending at ``sel`` (the selected fingerprint
    occurrences): window start i selects the rightmost pos in
    [i, i+W-1] achieving the window's UNSIGNED min; short docs (n < W)
    get one window."""
    K, W = WINNOW_K, WINNOW_W
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "g AS (SELECT doc_id, unnest(list_transform("
        f"range(1, len(ws) - {K - 2}), "
        "i -> struct_pack(pos := i, gram := array_to_string("
        f"list_slice(ws, i, i + {K - 1}), ' '))), "
        "recursive := true) FROM w), "
        "h AS (SELECT doc_id, pos, md5_number_lower(gram) AS hv, "
        "COUNT(*) OVER (PARTITION BY doc_id) AS n FROM g), "
        "m AS (SELECT doc_id, pos AS i, n, MIN(hv) OVER "
        "(PARTITION BY doc_id ORDER BY pos "
        f"ROWS BETWEEN CURRENT ROW AND {W - 1} FOLLOWING) AS mh FROM h), "
        f"v AS (SELECT * FROM m WHERE i <= GREATEST(n - {W - 1}, 1)), "
        "sel AS (SELECT v.doc_id, v.i, MAX(h2.pos) AS pos, v.mh AS hv "
        "FROM v JOIN h h2 ON h2.doc_id = v.doc_id "
        f"AND h2.pos BETWEEN v.i AND v.i + {W - 1} AND h2.hv = v.mh "
        "GROUP BY v.doc_id, v.i, v.mh)"
    )


def sql_winnow() -> str:
    two63 = "9223372036854775808"
    two64 = "18446744073709551616"
    return (
        _sql_winnow_ctes()
        + " SELECT DISTINCT doc_id, CAST(pos AS BIGINT) AS pos, "
        f"CAST(CASE WHEN hv >= {two63} THEN CAST(hv AS HUGEINT) - {two64} "
        "ELSE CAST(hv AS HUGEINT) END AS BIGINT) AS gh FROM sel"
    )


QUERIES["winnow"] = q_winnow
ORACLES["winnow"] = sql_winnow()


# --------------------- 8. duplicate-chunk REMOVAL rewrite (C4 / Lee+)
#
# The transform the chunk_dedup stats feed: actually REMOVE duplicated
# chunks from each document, first-occurrence-wins — a chunk occurrence
# is dropped iff its exact text appears in >= 2 distinct docs AND this
# doc is not the minimum doc_id containing it; the surviving chunks
# re-join (in order) into the cleaned text.  This is the materializing
# half of the dedup family (the reference's change-apply lattice is the
# analogous "apply the decision" stage, update.py); at 100 TB the
# rewrite streams straight to a partitioned sink.

def _run_ordinal(d: np.ndarray) -> np.ndarray:
    """Within-run ordinal over a contiguous-runs array (each doc's
    chunks form one run, but runs arrive in arbitrary doc order)."""
    n = len(d)
    if n == 0:
        return np.empty(0, np.int64)
    newrun = np.concatenate([[True], d[1:] != d[:-1]])
    run_start = np.flatnonzero(newrun)
    return np.arange(n, dtype=np.int64) - run_start[np.cumsum(newrun) - 1]


def q_dedup_rewrite(sf_dir: str, broadcast_max: int = BROADCAST_MAX):
    """Cleaned documents after duplicate-chunk removal: (doc_id,
    clean_text, n_kept, n_removed).  clean_text is NULL when every
    chunk of the doc was removed (the oracle's FILTERed string_agg
    yields NULL there too).

    Pass 1 = distinct (doc, chunk-hash) pairs -> map-side-combined
    (owner=min doc, n_docs) per hash -> the duplicated-hash removal
    table, broadcast gh-sorted with its owner column; pass 2 =
    per-batch membership + owner check + per-doc rejoin.  Above
    ``broadcast_max`` the removal table instead meets chunk occurrences
    in a gh cogroup (flags only — text never enters that exchange) and
    flags meet the docs in a doc_id cogroup where the rewrite
    happens."""
    import ray

    from ..stages.shuffle import (
        broadcast_table, bucketed_apply, grouped_agg,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pairs(b: pa.Table) -> pa.Table:
        d, s = _doc_chunks(b)
        df = pd.DataFrame({"doc_id": d, "g": s}).drop_duplicates()
        codes, uniq = pd.factorize(df["g"], sort=False)
        gh = _md5_lower64(uniq).view(np.int64)[codes]
        return pa.table({"gh": pa.array(gh),
                         "doc_id": pa.array(
                             df["doc_id"].to_numpy(np.int64)),
                         "one": pa.array(np.ones(len(df), np.int64))})

    own = grouped_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["gh"], {"owner": ("doc_id", "min"), "n_docs": ("one", "sum")})
    rm_ds = own.filter(expr="n_docs >= 2").select_columns(
        ["gh", "owner"]).materialize()  # count() + consume = ONE execution
    rm = broadcast_table(rm_ds, "gh", broadcast_max)

    def rebuild(doc: np.ndarray, s: np.ndarray, keep: np.ndarray,
                all_docs: np.ndarray) -> pd.DataFrame:
        """Join kept chunks per doc (order preserved: chunks are
        contiguous per doc); docs with zero kept chunks -> NULL."""
        kept = pd.Series(s[keep]).groupby(doc[keep]).agg(" ".join)
        per = pd.DataFrame({
            "doc_id": all_docs,
            "n_kept": np.bincount(
                np.searchsorted(all_docs, doc[keep]),
                minlength=len(all_docs)).astype(np.int64),
            "n_removed": np.bincount(
                np.searchsorted(all_docs, doc[~keep]),
                minlength=len(all_docs)).astype(np.int64),
        })
        per["clean_text"] = per["doc_id"].map(kept)
        per["clean_text"] = per["clean_text"].astype(object).where(
            per["clean_text"].notna(), None)
        return per[["doc_id", "clean_text", "n_kept", "n_removed"]]

    if rm is None:
        # scale path: flags through a gh cogroup, rewrite in a doc_id
        # cogroup — the removal table never collects
        def occ(b: pa.Table) -> pa.Table:
            d, _s, gh = _doc_chunk_hashes(b)
            return pa.table({"doc_id": pa.array(d),
                             "cid": pa.array(_run_ordinal(d)),
                             "gh": pa.array(gh)})

        def flag(o: pd.DataFrame, own: pd.DataFrame) -> pd.DataFrame:
            o = o.merge(own, on="gh", how="inner")
            o = o[o["doc_id"] != o["owner"]]
            return pd.DataFrame({
                "doc_id": o["doc_id"].to_numpy(np.int64),
                "cid": o["cid"].to_numpy(np.int64)})

        flags = bucketed_apply(
            (ds.map_batches(occ, batch_format="pyarrow"), rm_ds),
            ["gh"], flag)

        def rewrite(fl: pd.DataFrame, docs_df: pd.DataFrame) -> pd.DataFrame:
            b = pa.table({
                "doc_id": pa.array(
                    docs_df["doc_id"].to_numpy(np.int64)),
                "text": pa.array(docs_df["text"].tolist(),
                                 pa.large_string())})
            d, s, _gh = _doc_chunk_hashes(b)
            docs = np.unique(d)
            cid = _run_ordinal(d)
            rm_keys = set(zip(fl["doc_id"].tolist(), fl["cid"].tolist()))
            if rm_keys:
                key = pd.MultiIndex.from_arrays([d, cid])
                keep = np.asarray(~key.isin(rm_keys))
            else:
                keep = np.ones(len(d), bool)
            return rebuild(d, s, keep, docs)

        return bucketed_apply((flags, ds), ["doc_id"], rewrite)

    def probe(b: pa.Table) -> pa.Table:
        d, s, gh = _doc_chunk_hashes(b)
        if not len(d):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "clean_text": pa.array([], pa.large_string()),
                             "n_kept": pa.array([], pa.int64()),
                             "n_removed": pa.array([], pa.int64())})
        hit, (owner,) = rm.lookup(gh, "owner")
        keep = ~hit | (owner == d)
        docs = np.unique(d)
        out = rebuild(d, s, keep, docs)
        return pa.Table.from_pandas(out, preserve_index=False).cast(
            pa.schema([("doc_id", pa.int64()),
                       ("clean_text", pa.large_string()),
                       ("n_kept", pa.int64()),
                       ("n_removed", pa.int64())]))

    return ds.map_batches(probe, batch_format="pyarrow")


def sql_dedup_rewrite() -> str:
    CW = CHUNK_W
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "c AS (SELECT doc_id, ws, unnest(range(0, "
        f"CAST((len(ws) + {CW - 1}) // {CW} AS BIGINT))) AS cid FROM w), "
        "ch AS (SELECT doc_id, cid, array_to_string(list_slice(ws, "
        f"cid * {CW} + 1, LEAST((cid + 1) * {CW}, len(ws))), ' ') "
        "AS chunk FROM c), "
        "own AS (SELECT chunk, MIN(doc_id) AS owner, "
        "COUNT(DISTINCT doc_id) AS nd FROM ch GROUP BY chunk), "
        "k AS (SELECT ch.doc_id, ch.cid, ch.chunk, "
        "(own.nd >= 2 AND ch.doc_id != own.owner) AS rm "
        "FROM ch JOIN own USING (chunk)) "
        "SELECT doc_id, string_agg(chunk, ' ' ORDER BY cid) "
        "FILTER (WHERE NOT rm) AS clean_text, "
        "CAST(COUNT(*) FILTER (WHERE NOT rm) AS BIGINT) AS n_kept, "
        "CAST(COUNT(*) FILTER (WHERE rm) AS BIGINT) AS n_removed "
        "FROM k GROUP BY doc_id"
    )


QUERIES["dedup_rewrite"] = q_dedup_rewrite
ORACLES["dedup_rewrite"] = sql_dedup_rewrite()


# -------------------- winnow-based candidate pairs (the MOSS matcher)
#
# The match step winnowing exists for: two docs are copy candidates
# when their fingerprint SETS share >= WINNOW_MIN_SHARED hashes.
# Ultra-common fingerprints (boilerplate shared by > WINNOW_MAX_DF
# docs) are dropped before pairing — MOSS's own noise rule, and the
# skew guard that keeps the per-hash pair blowup bounded at H^2 with
# H <= WINNOW_MAX_DF.  A hash lives entirely in one bucket, so the df
# cap is exact inside the bucket; pair partials map-side combine into
# the final (a, b) exchange.

WINNOW_MAX_DF = 50      # drop fingerprints shared by more docs
WINNOW_MIN_SHARED = 2   # report pairs sharing at least this many


def q_winnow_pairs(sf_dir: str):
    """(a, b, n_shared): doc pairs sharing >= WINNOW_MIN_SHARED
    winnowing fingerprints, boilerplate hashes (df > WINNOW_MAX_DF)
    excluded."""
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    def fp_sets(b: pa.Table) -> pa.Table:
        t = winnow_batch(b)
        df = pd.DataFrame({"doc_id": t.column("doc_id").to_numpy(),
                           "gh": t.column("gh").to_numpy()})
        df = df.drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def pair_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        sz = g.groupby("gh", sort=False)["doc_id"].transform("size")
        g = g[sz <= WINNOW_MAX_DF]
        m = g.merge(g, on="gh", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        out = (m.groupby(["doc_id_a", "doc_id_b"], sort=False).size()
               .reset_index(name="n"))
        return out.rename(columns={"doc_id_a": "a", "doc_id_b": "b"})

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    partial = bucketed_apply(
        ds.map_batches(fp_sets, batch_format="pyarrow"),
        ["gh"], pair_partials)
    tot = grouped_agg(partial, ["a", "b"], {"n_shared": ("n", "sum")})
    return tot.filter(expr=f"n_shared >= {WINNOW_MIN_SHARED}")


def sql_winnow_pairs() -> str:
    return (
        _sql_winnow_ctes()
        + ", fp AS (SELECT DISTINCT doc_id, hv FROM sel), "
        "ok AS (SELECT hv FROM fp GROUP BY hv "
        f"HAVING COUNT(*) <= {WINNOW_MAX_DF}), "
        "fp2 AS (SELECT fp.doc_id, fp.hv FROM fp JOIN ok USING (hv)) "
        "SELECT x.doc_id AS a, y.doc_id AS b, "
        "CAST(COUNT(*) AS BIGINT) AS n_shared "
        "FROM fp2 x JOIN fp2 y ON x.hv = y.hv AND x.doc_id < y.doc_id "
        f"GROUP BY 1, 2 HAVING COUNT(*) >= {WINNOW_MIN_SHARED}"
    )


QUERIES["winnow_pairs"] = q_winnow_pairs
ORACLES["winnow_pairs"] = sql_winnow_pairs()


# ---------------- 9. duplicated-substring REMOVAL rewrite (Lee et al.)
#
# The transform dup_spans' statistics feed: remove EVERY occurrence of
# a duplicated substring of >= SPAN_MIN_RUN consecutive duplicated
# windows (= SPAN_MIN_RUN + NGRAM_W - 1 shared words) — Lee et al.
# 2022 drop all copies, so no ownership pass is needed (contrast
# dedup_rewrite's first-occurrence-wins chunks).  Word-level interval
# painting is one delta-array cumsum over the batch's global word
# stream; the rebuild joins surviving words per doc.

SPAN_MIN_RUN = 3   # dup-window run length that triggers removal


def q_span_rewrite(sf_dir: str, broadcast_max: int = BROADCAST_MAX):
    """(doc_id, clean_text, n_words, n_removed): documents with every
    >= SPAN_MIN_RUN-window duplicated run excised (all copies).
    clean_text is NULL when the whole doc was covered.  Pass 1 = the
    dup_spans duplicated-hash set (broadcast, materialized once);
    pass 2 = per-batch run detection + interval paint + rejoin.
    Above ``broadcast_max`` the dup set instead meets window
    occurrences in a gh cogroup (dup_spans' position-carrying shape)
    and the (doc, pos) flags meet the documents in a doc_id cogroup
    where the paint + rewrite run — the dup set never collects to the
    driver."""
    import ray

    from ..stages.shuffle import (
        broadcast_table, bucketed_apply, grouped_agg,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    counts = grouped_agg(
        ds.map_batches(_gram_doc_pairs, batch_format="pyarrow"),
        ["gh"], {"n_docs": ("one", "sum")})
    dup_ds = counts.filter(expr="n_docs >= 2").select_columns(
        ["gh"]).materialize()
    dup = broadcast_table(dup_ds, "gh", broadcast_max)

    if dup is None:
        # scale path: (doc, pos) flags through a gh cogroup, then the
        # paint + rewrite per doc_id bucket
        flags = bucketed_apply(
            (ds.map_batches(_gram_occurrences, batch_format="pyarrow"),
             dup_ds), ["gh"], _dup_positions)

        def rewrite(fl: pd.DataFrame, docs: pd.DataFrame) -> pd.DataFrame:
            docs = docs.sort_values("doc_id", kind="stable")
            doc_ids = docs["doc_id"].to_numpy(np.int64)
            fl = fl.sort_values(["doc_id", "pos"], kind="stable")
            fd = fl["doc_id"].to_numpy(np.int64)
            fp = fl["pos"].to_numpy(np.int64)
            # runs over sorted (doc, pos): consecutive positions
            starts = np.ones(len(fd), bool)
            starts[1:] = (fd[1:] != fd[:-1]) | (fp[1:] != fp[:-1] + 1)
            run_len = np.bincount(np.cumsum(starts) - 1,
                                  minlength=int(starts.sum()))
            return _excise(docs["text"].tolist(), doc_ids,
                           np.searchsorted(doc_ids, fd[starts]),
                           fp[starts], run_len)

        return bucketed_apply((flags, ds), ["doc_id"], rewrite)

    def rewrite(b: pa.Table) -> pa.Table:
        row, pos, gh = _doc_gram_hashes_pos(b)
        isdup, _ = dup.lookup(gh)
        # a run starts at a dup window not continuing one in its row
        starts = isdup.copy()
        starts[1:] &= ~(isdup[:-1] & (row[1:] == row[:-1]))
        run_len = np.bincount((np.cumsum(starts) - 1)[isdup],
                              minlength=int(starts.sum()))
        out = _excise(b.column("text").to_pylist(),
                      b.column("doc_id").to_numpy().astype(np.int64),
                      row[starts], pos[starts], run_len)
        return pa.Table.from_pandas(out, preserve_index=False).cast(
            pa.schema([("doc_id", pa.int64()),
                       ("clean_text", pa.large_string()),
                       ("n_words", pa.int64()),
                       ("n_removed", pa.int64())]))

    return ds.map_batches(rewrite, batch_format="pyarrow")


def _excise(texts: list, doc_ids: np.ndarray, r_row: np.ndarray,
            r_pos: np.ndarray, run_len: np.ndarray) -> pd.DataFrame:
    """(doc_id, clean_text, n_words, n_removed) for the docs ``texts``
    after removing every word a run of >= SPAN_MIN_RUN duplicated
    windows covers; run i starts at window ``r_pos[i]`` (1-based) of
    doc ``r_row[i]`` and spans ``run_len[i]`` windows."""
    nb = len(texts)
    if nb == 0:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                             "clean_text": pd.Series(dtype=object),
                             "n_words": pd.Series(dtype=np.int64),
                             "n_removed": pd.Series(dtype=np.int64)})
    # global word stream (doc word counts; per-doc offsets)
    nw = (pd.Series(texts).str.count(" ") + 1).to_numpy(np.int64)
    w_off = np.concatenate([[0], np.cumsum(nw)[:-1]])
    removed = np.zeros(int(nw.sum()) + 1, np.int64)  # delta array
    keep_m = run_len >= SPAN_MIN_RUN
    # covered words: [p0, p0 + len + W - 2] (1-based)
    g0 = w_off[r_row[keep_m]] + r_pos[keep_m] - 1
    np.add.at(removed, g0, 1)
    np.add.at(removed, g0 + run_len[keep_m] + NGRAM_W - 1, -1)
    covered = np.cumsum(removed[:-1]) > 0
    words = np.asarray(" ".join(texts).split(" "), dtype=object)
    wdoc = np.repeat(np.arange(nb, dtype=np.int64), nw)
    kept_txt = (pd.Series(words[~covered])
                .groupby(wdoc[~covered]).agg(" ".join))
    out = pd.DataFrame({
        "doc_id": doc_ids, "n_words": nw,
        "n_removed": np.bincount(wdoc[covered],
                                 minlength=nb).astype(np.int64)})
    out["clean_text"] = pd.Series(np.arange(nb)).map(kept_txt)
    out["clean_text"] = out["clean_text"].astype(object).where(
        out["clean_text"].notna(), None)
    return out[["doc_id", "clean_text", "n_words", "n_removed"]]


def sql_span_rewrite() -> str:
    K, R = NGRAM_W, SPAN_MIN_RUN
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "g AS (SELECT doc_id, unnest(list_transform("
        f"range(1, len(ws) - {K - 2}), "
        "i -> struct_pack(pos := i, gram := array_to_string("
        f"list_slice(ws, i, i + {K - 1}), ' '))), "
        "recursive := true) FROM w), "
        "d AS (SELECT gram FROM g GROUP BY gram "
        "HAVING COUNT(DISTINCT doc_id) >= 2), "
        "h AS (SELECT g.doc_id, g.pos FROM g "
        "JOIN d ON g.gram = d.gram), "
        "runs AS (SELECT doc_id, pos, pos - ROW_NUMBER() OVER "
        "(PARTITION BY doc_id ORDER BY pos) AS grp FROM h), "
        "rl AS (SELECT doc_id, MIN(pos) AS p0, COUNT(*) AS n FROM runs "
        f"GROUP BY doc_id, grp HAVING COUNT(*) >= {R}), "
        "cov AS (SELECT DISTINCT doc_id, unnest(range(p0, "
        f"p0 + n + {K - 1})) AS wp FROM rl), "
        "wx AS (SELECT doc_id, unnest(list_transform("
        "range(1, len(ws) + 1), "
        "i -> struct_pack(wp := i, word := ws[i])), recursive := true) "
        "FROM w), "
        "k AS (SELECT wx.doc_id, wx.wp, wx.word, "
        "cov.wp IS NOT NULL AS rm FROM wx "
        "LEFT JOIN cov ON cov.doc_id = wx.doc_id AND cov.wp = wx.wp) "
        "SELECT doc_id, string_agg(word, ' ' ORDER BY wp) "
        "FILTER (WHERE NOT rm) AS clean_text, "
        "CAST(COUNT(*) AS BIGINT) AS n_words, "
        "CAST(COUNT(*) FILTER (WHERE rm) AS BIGINT) AS n_removed "
        "FROM k GROUP BY doc_id"
    )


QUERIES["span_rewrite"] = q_span_rewrite
ORACLES["span_rewrite"] = sql_span_rewrite()
