"""Text-analysis + deduplication queries over the documents table — the
training-data-pipeline operators (task brief): exact dedup, MinHash+LSH
candidate pairs, language-ID scoring, token counting, quality scoring,
SimHash + rolling-hash fingerprints (the last two oracle-less, pinned by
unit goldens instead).

Hash choices are md5 hex strings so Python (hashlib) and DuckDB (md5())
produce identical values; all ratios are returned as exact integer
numerators/denominators or exactly-divided doubles.

``lm_score`` and ``dsir_weights`` join every bigram occurrence with a
corpus count table: broadcast (``stages.shuffle.broadcast_table``) up to
the single cap ``stages.shuffle.BROADCAST_MAX`` rows, a cogroup
(``bucketed_apply`` over two inputs) above it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.shuffle import BROADCAST_MAX

N_HASHES = 8
N_BANDS = 4  # bands of 2 hashes each


def _md5(s: str) -> str:
    return hashlib.md5(s.encode()).hexdigest()


# 12. text stats ------------------------------------------------------------

def q_text_stats(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        # no split at all: n_words == count(' ')+1 for single-space
        # tokenization, and the token-equality count is one
        # non-overlapping regex pass (the lookahead keeps adjacent
        # matches countable) — measured 1.3x the split+lambda version
        t = b.column("text").to_pandas()
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_chars_calc": pa.array(t.str.len().astype("int64")),
                "n_words": pa.array((t.str.count(" ") + 1).astype("int64")),
                "n_the": pa.array(
                    t.str.count(r"(?:^| )the(?= |$)").astype("int64")
                ),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_text_stats() -> str:
    return (
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars_calc, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words, "
        "CAST(len(list_filter(string_split(text, ' '), w -> w = 'the')) AS BIGINT) "
        "AS n_the FROM documents"
    )


# 13. language-ID scoring (n-gram/stopword heuristic mechanism) -------------

LANG_MARKERS = [("en", "the"), ("agg", "agg"), ("data", "data")]


def q_lang_score(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        t = b.column("text").to_pandas()
        # whole-token marker counts as ONE C-speed regex pass per
        # marker: pad with spaces, count non-consuming lookaheads of
        # " marker " (handles adjacent repeats) — exact token-equality
        # semantics, no per-row Python
        padded = " " + t + " "
        counts = {
            label: padded.str.count(f"(?= {marker} )").astype("int64")
            for label, marker in LANG_MARKERS
        }
        c_en, c_agg, c_data = counts["en"], counts["agg"], counts["data"]
        guess = np.where(
            (c_en >= c_agg) & (c_en >= c_data), "en",
            np.where(c_agg >= c_data, "agg", "data"),
        )
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "c_en": pa.array(c_en),
                "c_agg": pa.array(c_agg),
                "c_data": pa.array(c_data),
                "guess": pa.array(guess.astype(object), pa.string()),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_lang_score() -> str:
    c = {
        lab: f"CAST(len(list_filter(string_split(text, ' '), w -> w = '{m}')) AS BIGINT)"
        for lab, m in LANG_MARKERS
    }
    return (
        f"SELECT doc_id, {c['en']} AS c_en, {c['agg']} AS c_agg, "
        f"{c['data']} AS c_data, "
        f"CASE WHEN {c['en']} >= {c['agg']} AND {c['en']} >= {c['data']} THEN 'en' "
        f"WHEN {c['agg']} >= {c['data']} THEN 'agg' ELSE 'data' END AS guess "
        "FROM documents"
    )


# 14. token counting --------------------------------------------------------

def q_token_count(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        # vectorized: whitespace tokens = space count + 1; regex tokens
        # = one C-speed str.count pass (2x the findall-lambda version)
        t = b.column("text").to_pandas()
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_ws_tokens": pa.array((t.str.count(" ") + 1).astype("int64")),
                "n_re_tokens": pa.array(
                    t.str.count("[a-z0-9]+").astype("int64")
                ),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_token_count() -> str:
    return (
        "SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_ws_tokens, "
        "CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT) AS n_re_tokens "
        "FROM documents"
    )


# 15. exact dedup (hash-partition + per-group min) --------------------------

def q_dedup_exact(sf_dir: str):
    import ray
    from ray.data.aggregate import Count, Min

    def keyed(b: pa.Table) -> pa.Table:
        t = b.column("text").to_pandas()
        # first-two-words prefix as ONE vectorized regex extract
        # (identical to ' '.join(split(' ')[:2]) incl. empty/degenerate
        # tokens), then md5 once per UNIQUE prefix — dedup keys repeat
        # heavily by construction
        prefix = t.str.extract(r"^(\S*(?: \S*)?)", expand=False)
        codes, uniq = pd.factorize(prefix)
        key = np.asarray([_md5(s) for s in uniq] or [None],
                         dtype=object)[codes]
        # factorize codes NULL text as -1, which would otherwise alias
        # the LAST unique prefix's hash; SQL groups NULLs together
        # (md5(NULL) IS NULL), so give them one reserved key instead
        key[codes == -1] = "__null__"
        return pa.table(
            {"key_hash": pa.array(key, pa.string()), "doc_id": b.column("doc_id")}
        )

    from ..stages.shuffle import grouped_agg

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return grouped_agg(
        ds.map_batches(keyed, batch_format="pyarrow"),
        ["key_hash"], {"keep_id": ("doc_id", "min"), "n": ("doc_id", "size")},
    )


def sql_dedup_exact() -> str:
    return (
        "SELECT md5(array_to_string(list_slice(string_split(text, ' '), 1, 2), ' ')) "
        "AS key_hash, MIN(doc_id) AS keep_id, COUNT(*) AS n "
        "FROM documents GROUP BY 1"
    )


# 16. MinHash + LSH candidate pairs ----------------------------------------

def _md5_lower64(strings) -> np.ndarray:
    """uint64 base hash per string == DuckDB ``md5_number_lower``:
    little-endian bytes 8..16 of the md5 digest — the shared integer
    hash basis that makes the minhash kernel SQL-checkable without
    per-salt string hashing."""
    md5 = hashlib.md5
    return np.fromiter(
        (int.from_bytes(md5(s.encode()).digest()[8:16], "little")
         for s in strings),
        dtype=np.uint64, count=len(strings),
    )


def _doc_bigrams(b: pa.Table) -> pd.DataFrame:
    """Vectorized distinct word-bigrams per doc: explode words, shift
    within doc, concat — no Python loop over rows."""
    doc_id = b.column("doc_id").to_numpy()
    t = b.column("text").to_pandas()
    words = t.str.split(" ")
    ex = words.explode()
    nxt = ex.groupby(level=0).shift(-1)
    big = (ex + " " + nxt).dropna()
    out = pd.DataFrame({"row": big.index.to_numpy(), "g": big.to_numpy()})
    out = out.drop_duplicates()
    # docs with a single word fall back to the whole text as shingle
    missing = np.setdiff1d(np.arange(len(t)), out["row"].to_numpy())
    if len(missing):
        out = pd.concat(
            [out, pd.DataFrame({"row": missing, "g": t.iloc[missing].to_numpy()})],
            ignore_index=True,
        )
    out["doc_id"] = doc_id[out["row"].to_numpy()]
    return out[["doc_id", "g"]]


def q_minhash_pairs(sf_dir: str):
    import ray

    def signatures(b: pa.Table) -> pa.Table:
        sh = _doc_bigrams(b)
        codes, uniq = pd.factorize(sh["g"], sort=False)
        base = _md5_lower64(uniq)           # md5 ONCE per unique shingle
        h = base[codes]
        doc = sh["doc_id"].to_numpy()
        # per-doc per-salt minima, all salts vectorized: salted values
        # wrap-multiply the base hash by a distinct odd constant
        mins = np.empty((N_HASHES, len(h)), dtype=np.uint64)
        for salt in range(N_HASHES):
            mins[salt] = h * np.uint64(2 * salt + 3)
        df = pd.DataFrame({"doc_id": doc})
        for salt in range(N_HASHES):
            df[f"m{salt}"] = mins[salt]
        gm = df.groupby("doc_id", sort=False).min()
        doc_ids = gm.index.to_numpy()
        out_doc = np.repeat(doc_ids, N_BANDS)
        out_band = np.tile(np.arange(N_BANDS, dtype=np.int64), len(doc_ids))
        bh = np.empty((len(doc_ids), N_BANDS), dtype=np.uint64)
        for band in range(N_BANDS):
            m0 = gm[f"m{2 * band}"].to_numpy().astype(np.uint64)
            m1 = gm[f"m{2 * band + 1}"].to_numpy().astype(np.uint64)
            bh[:, band] = m0 * np.uint64(1000003) + m1
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "band": pa.array(out_band, pa.int64()),
                "band_hash": pa.array(bh.reshape(-1).view(np.int64)),
            }
        )

    def band_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized within one band: self-merge on band_hash, keep a < b
        g = g[["doc_id", "band_hash"]].drop_duplicates()
        m = g.merge(g, on="band_hash", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        out = m.rename(columns={"doc_id_a": "a", "doc_id_b": "b"})[["a", "b"]]
        return out.drop_duplicates()

    from ..stages.shuffle import bucketed_apply, distinct

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    cand = bucketed_apply(
        ds.map_batches(signatures, batch_format="pyarrow"),
        ["band", "band_hash"], band_pairs, n_buckets=16,
    )
    # distinct pairs (a pair can match in several bands)
    return distinct(cand, ["a", "b"])


def sql_minhash_pairs() -> str:
    # Same integer kernel as the engine: base = md5_number_lower(w)
    # (little-endian low half of the md5 digest), salted minima via
    # wrap-multiply by odd constants mod 2^64, band hash = m0*1000003+m1.
    two64 = "18446744073709551616"
    return (
        "WITH w AS (SELECT doc_id, list_distinct(list_transform("
        "range(1, len(string_split(text, ' '))), "
        "i -> string_split(text, ' ')[i] || ' ' || string_split(text, ' ')[i+1])) AS ws "
        "FROM documents), "
        "mh AS (SELECT doc_id, salt, "
        f"MIN(CAST((CAST(md5_number_lower(wrd) AS HUGEINT) * (2 * salt + 3)) "
        f"% {two64} AS UBIGINT)) AS h "
        "FROM w, UNNEST(ws) AS u(wrd), UNNEST(range(0, 8)) AS s(salt) "
        "GROUP BY doc_id, salt), "
        "bands AS (SELECT x.doc_id, x.salt // 2 AS band, "
        f"CAST((CAST(x.h AS HUGEINT) * 1000003 + y.h) % {two64} AS UBIGINT) "
        "AS band_hash "
        "FROM mh x JOIN mh y ON x.doc_id = y.doc_id AND y.salt = x.salt + 1 "
        "WHERE x.salt % 2 = 0) "
        "SELECT DISTINCT p.doc_id AS a, q.doc_id AS b FROM bands p "
        "JOIN bands q ON p.band = q.band AND p.band_hash = q.band_hash "
        "AND p.doc_id < q.doc_id"
    )


# 17. quality scoring -------------------------------------------------------

STOPWORDS = ("the", "a", "value")


def q_quality(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        t = b.column("text").to_pandas()
        n = len(t)
        n_words = (t.str.count(" ") + 1).astype("int64")
        # distinct/stopword counts over ONE global split (a single C
        # call), factorized to int codes: per-doc distinct = unique
        # (doc, code) pairs via one np.unique; stopword hits = isin mask
        # bincounted by doc — no per-row set() / Python loop
        nw = n_words.to_numpy()
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), nw)
        words = np.asarray(" ".join(t.tolist()).split(" "), dtype=object) \
            if n else np.asarray([], dtype=object)
        codes, uniq = pd.factorize(pd.Series(words))
        k = max(len(uniq), 1)
        pairs = np.unique(doc_idx * np.int64(k) + codes)
        n_distinct = pd.Series(
            np.bincount(pairs // np.int64(k), minlength=n).astype(np.int64))
        stop_mask = pd.Series(words).isin(STOPWORDS).to_numpy()
        stop_n = pd.Series(
            np.bincount(doc_idx[stop_mask], minlength=n).astype(np.int64))
        n_chars = t.str.len().astype("int64")
        mean_wlen = (n_chars - (n_words - 1)) / n_words
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_words": pa.array(n_words),
                "n_distinct": pa.array(n_distinct),
                "stop_n": pa.array(stop_n),
                "mean_wlen": pa.array(mean_wlen.astype("float64")),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_quality() -> str:
    stops = ", ".join(f"'{w}'" for w in STOPWORDS)
    return (
        "SELECT doc_id, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words, "
        "CAST(len(list_distinct(string_split(text, ' '))) AS BIGINT) AS n_distinct, "
        f"CAST(len(list_filter(string_split(text, ' '), w -> w IN ({stops}))) AS BIGINT) "
        "AS stop_n, "
        "CAST(length(text) - (len(string_split(text, ' ')) - 1) AS DOUBLE) / "
        "len(string_split(text, ' ')) AS mean_wlen "
        "FROM documents"
    )


# 18. n-gram Jaccard between neighbouring docs ------------------------------

# cogroup keys of the pair-statistics inputs: intersection partials by
# pair, doc set sizes by the pair they lead (a = doc_id) and trail
# (a = doc_id - 1)
_PAIR_KEYS = (["a"], ["doc_id"], ["prev"])


def _ngram_pair_inputs(sf_dir: str):
    """Shared pair-statistics inputs for the bigram-set similarity
    family (jaccard / containment), cogrouped on ``_PAIR_KEYS``:
    per-pair intersection partials (a, inter) and the map-side doc set
    sizes (doc_id, prev, n), once as each pair's lead and once as its
    trail.  One gram-hash exchange + the map-side size pass; finishes
    differ only in the per-pair formula."""
    import ray

    def grams(b: pa.Table) -> pa.Table:
        # shuffle int64 gram hashes, not the gram strings (~4x fewer
        # exchange bytes); md5-low64 collisions are negligible and the
        # oracle's string-set intersection is unaffected by the key repr
        sh = _doc_bigrams(b)
        codes, uniq = pd.factorize(sh["g"], sort=False)
        gh = _md5_lower64(uniq).view(np.int64)[codes]
        return pa.table(
            {"doc_id": pa.array(sh["doc_id"].to_numpy().astype(np.int64)),
             "gh": pa.array(gh)}
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    g = ds.map_batches(grams, batch_format="pyarrow")

    # hash join on (left.doc_id == right.doc_id - 1, gram equality):
    # implemented as a groupby on the gram hash then pair aggregation
    def pair_counts(gdf: pd.DataFrame) -> pd.DataFrame:
        # vectorized across grams in the bucket: a gram shared by (d, d+1)
        m = gdf.merge(
            gdf.assign(doc_id=gdf["doc_id"] - 1), on=["gh", "doc_id"], how="inner"
        )
        out = m.groupby("doc_id", as_index=False).size()
        return out.rename(columns={"doc_id": "a", "size": "inter"})

    from ..stages.shuffle import bucketed_apply

    inter = bucketed_apply(g, ["gh"], pair_counts)

    # distributed finish in ONE more bucketed stage: intersection
    # partials (summed per pair) cogrouped with doc sizes computed
    # MAP-SIDE from the documents pass (a doc's grams never split across
    # batches); materialized once, read as both lead and trail input
    def doc_sizes(b: pa.Table) -> pa.Table:
        counts = _doc_bigrams(b).groupby("doc_id", sort=False).size()
        d = counts.index.to_numpy().astype(np.int64)
        return pa.table({"doc_id": pa.array(d), "prev": pa.array(d - 1),
                         "n": pa.array(counts.to_numpy().astype(np.int64))})

    sizes = ds.map_batches(doc_sizes, batch_format="pyarrow").materialize()
    return inter, sizes, sizes


def _pair_pivot(inter: pd.DataFrame, lead: pd.DataFrame,
                trail: pd.DataFrame):
    """(a, inter, len_a, len_b) arrays from one finish bucket, or None
    when the bucket holds no complete pair."""
    iv = inter.groupby("a")["inter"].sum()
    la = lead.groupby("doc_id")["n"].sum()
    lb = trail.groupby("prev")["n"].sum()
    a = np.sort(iv.index.intersection(la.index).intersection(lb.index)
                .to_numpy().astype(np.int64))
    if not len(a):
        return None
    return a, iv.loc[a].to_numpy(np.int64), la.loc[a].to_numpy(np.int64), \
        lb.loc[a].to_numpy(np.int64)


def q_ngram_jaccard(sf_dir: str):
    """Jaccard similarity of word-bigram sets for (doc_id, doc_id+1) pairs."""
    from ..stages.shuffle import bucketed_apply

    def finish(*frames: pd.DataFrame) -> pd.DataFrame:
        got = _pair_pivot(*frames)
        if got is None:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64),
                                 "inter_n": pd.Series(dtype=np.int64),
                                 "union_n": pd.Series(dtype=np.int64),
                                 "jaccard": pd.Series(dtype=np.float64)})
        a, iv, la, lb = got
        union = la + lb - iv
        return pd.DataFrame({
            "a": a, "b": a + 1, "inter_n": iv, "union_n": union,
            "jaccard": iv / union,
        })

    return bucketed_apply(_ngram_pair_inputs(sf_dir), _PAIR_KEYS, finish,
                          n_buckets=8)


def sql_ngram_jaccard() -> str:
    return (
        "WITH g AS (SELECT doc_id, list_distinct(list_transform("
        "range(1, len(string_split(text, ' '))), "
        "i -> string_split(text, ' ')[i] || ' ' || string_split(text, ' ')[i+1])) AS gs "
        "FROM documents), "
        "j AS (SELECT x.doc_id AS a, y.doc_id AS b, "
        "CAST(len(list_intersect(x.gs, y.gs)) AS BIGINT) AS inter_n, "
        "CAST(len(x.gs) + len(y.gs) - len(list_intersect(x.gs, y.gs)) AS BIGINT) "
        "AS union_n FROM g x JOIN g y ON y.doc_id = x.doc_id + 1) "
        "SELECT a, b, inter_n, union_n, "
        "CAST(inter_n AS DOUBLE) / union_n AS jaccard FROM j "
        "WHERE inter_n > 0"
    )


# 19/20. SimHash + rolling-hash fingerprints (no SQL oracle: rows-only) -----

def simhash64(words: list[str]) -> int:
    """64-bit SimHash over the word multiset; hash basis is
    md5_number_lower (little-endian low half of the md5 digest) so the
    DuckDB oracle can reproduce it exactly."""
    if not words:
        return 0
    h = _md5_lower64(words)
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    out = int(((acc > 0).astype(np.uint64) << shifts).sum(dtype=np.uint64))
    return out - (1 << 64) if out >= (1 << 63) else out  # two's complement


def rolling_fingerprint(text: str, base: int = 257, mod: int = (1 << 61) - 1) -> int:
    h = 0
    for ch in text.encode():
        h = (h * base + ch) % mod
    return h


def simhash64_batch(texts: list[str]) -> np.ndarray:
    """Vectorized SimHash over a batch: explode all words with doc
    segments, md5 ONCE per unique word (factorize), per-bit +-1 sums via
    ``add.reduceat`` over the doc segments.  Matches ``simhash64`` per
    doc exactly."""
    # NB: ''.split(' ') == [''] — empty texts hash the empty word, same
    # as the scalar kernel and DuckDB's string_split
    words_per_doc = [t.split(" ") for t in texts]
    lens = np.fromiter((len(w) for w in words_per_doc), np.int64,
                       count=len(texts))
    flat = [w for ws in words_per_doc for w in ws]
    out = np.zeros(len(texts), np.int64)
    if not flat:
        return out
    codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
    h = _md5_lower64(uniq)[codes]
    nz = lens > 0
    starts = (np.cumsum(lens) - lens)[nz]
    # per-bit pass keeps peak memory at one words-length vector (the
    # full words x 64 bit matrix is ~64x larger and dominates wall)
    u = np.zeros(int(nz.sum()), np.uint64)
    seglens = lens[nz]
    for b in range(64):
        bit = ((h >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
        acc = 2 * np.add.reduceat(bit, starts) - seglens
        u |= (acc > 0).astype(np.uint64) << np.uint64(b)
    out[nz] = u.astype(np.int64)  # two's complement reinterpret
    return out


_FP_MOD = np.uint64((1 << 61) - 1)
_FP_MASK53 = np.uint64((1 << 53) - 1)


def rolling_fingerprint_batch(texts: list[str]) -> np.ndarray:
    """Vectorized Horner fold h = (h*257 + byte) mod 2^61-1 over a
    padded byte matrix.  The multiply is split so every intermediate
    fits uint64 (Mersenne-prime reduction: 2^61 == 1 mod M):
    h*256 mod M == (h>>53) + ((h & (2^53-1)) << 8)."""
    enc = [t.encode() for t in texts]
    n = len(enc)
    lens = np.fromiter((len(e) for e in enc), np.int64, count=n)
    h = np.zeros(n, np.uint64)
    if n == 0 or lens.max(initial=0) == 0:
        return h.astype(np.int64)
    maxlen = int(lens.max())
    buf = np.zeros((n, maxlen), np.uint8)
    flat = np.frombuffer(b"".join(enc), np.uint8)
    rowidx = np.repeat(np.arange(n), lens)
    colidx = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
    buf[rowidx, colidx] = flat
    M, MASK53 = _FP_MOD, _FP_MASK53
    for j in range(maxlen):
        live = lens > j
        if not live.any():
            break
        hj = h[live]
        t = (hj >> np.uint64(53)) + ((hj & MASK53) << np.uint64(8))
        t = (t & M) + (t >> np.uint64(61))
        h2 = t + hj + buf[live, j].astype(np.uint64)
        h2 = (h2 & M) + (h2 >> np.uint64(61))
        h2 = np.where(h2 >= M, h2 - M, h2)
        h[live] = h2
    return h.astype(np.int64)


def q_simhash(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "simhash": pa.array(simhash64_batch(texts), pa.int64()),
                "fingerprint": pa.array(
                    rolling_fingerprint_batch(texts), pa.int64()),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_simhash() -> str:
    """Exact DuckDB oracle for SimHash + rolling fingerprint: the same
    md5_number_lower word hashes, per-bit +-1 accumulation, and a
    list_reduce Horner fold over the text's code points (ASCII fixture:
    unicode(char) == byte value, matching the engine's .encode())."""
    one = "CAST(1 AS HUGEINT)"
    mod = str((1 << 61) - 1)
    fp = (
        "CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT), "
        "list_transform(range(1, length(text) + 1), "
        "i -> CAST(unicode(substr(text, i, 1)) AS HUGEINT))), "
        f"(a, b) -> (a * 257 + b) % {mod}) AS BIGINT)"
    )
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "h AS (SELECT doc_id, md5_number_lower(wrd) AS h "
        "FROM w, UNNEST(ws) AS u(wrd)), "
        "bits AS (SELECT doc_id, bit, "
        "SUM(CASE WHEN (h >> CAST(bit AS UBIGINT)) & 1 = 1 THEN 1 ELSE -1 END) AS acc "
        "FROM h, UNNEST(range(0, 64)) AS b(bit) GROUP BY doc_id, bit), "
        f"s AS (SELECT doc_id, SUM(CASE WHEN acc > 0 THEN ({one} << CAST(bit AS INTEGER)) "
        "ELSE 0 END) AS u FROM bits GROUP BY doc_id) "
        "SELECT d.doc_id, "
        f"CAST(CASE WHEN s.u >= ({one} << 63) THEN s.u - ({one} << 64) "
        "ELSE s.u END AS BIGINT) AS simhash, "
        f"{fp} AS fingerprint "
        "FROM documents d JOIN s ON d.doc_id = s.doc_id"
    )


# --------------------- corpus-LM familiarity score (CCNet-style filter)
#
# CCNet (Wenzek et al. 2020) ranks documents by the perplexity of a
# language model trained on a trusted corpus; the cheap self-supervised
# analogue is "how familiar are this document's bigrams to the corpus
# itself".  Floating log-prob sums are NOT reproducible across engines
# (summation order), so the oracle-exact formulation keeps integer
# arithmetic until one final division: familiarity = (sum over the
# doc's bigram slots of that bigram's CORPUS count) / n_bigrams, plus
# n_rare = bigram slots whose corpus count is 1 (hapax — occurs nowhere
# else).  Low familiarity / high rare-rate = gibberish or boilerplate-
# free unique text; the downstream filter thresholds exactly like a
# perplexity cut.


def _doc_bigram_stream(b: pa.Table):
    """(doc_id_per_bigram, bigram_string) in document order."""
    doc_id = b.column("doc_id").to_numpy()
    t = b.column("text").to_pandas()
    ex = t.str.split(" ").explode()
    big = (ex + " " + ex.groupby(level=0).shift(-1)).dropna()
    row = big.index.to_numpy().astype(np.int64)
    return doc_id[row].astype(np.int64), big.to_numpy()


def _bigram_hashes(b: pa.Table):
    """(doc_id_per_bigram, md5-low64 bigram hash) in document order."""
    d, g = _doc_bigram_stream(b)
    codes, uniq = pd.factorize(pd.Series(g), sort=False)
    return d, _md5_lower64(uniq).view(np.int64)[codes]


def _bigram_occurrences(b: pa.Table) -> pa.Table:
    """(doc_id, gh, mult): each doc's distinct bigram hashes with their
    multiplicity — the probe side of the lm_score / dsir_weights
    cogroup."""
    d, gh = _bigram_hashes(b)
    per = (pd.DataFrame({"doc_id": d, "gh": gh})
           .groupby(["doc_id", "gh"], sort=False).size()
           .reset_index(name="mult"))
    return pa.table({"doc_id": pa.array(per["doc_id"].to_numpy(np.int64)),
                     "gh": pa.array(per["gh"].to_numpy(np.int64)),
                     "mult": pa.array(per["mult"].to_numpy(np.int64))})


def q_lm_score(sf_dir: str, broadcast_max: int = BROADCAST_MAX):
    """Per-doc corpus-bigram familiarity: (doc_id, n_big, sum_freq,
    n_rare, familiarity).  Pass 1 builds the corpus bigram-count table
    with one map-side-combined exchange; pass 2 broadcasts it as a
    sorted (hash, count) table (~16 B/bigram, binary-search probe — no
    dict, no per-row Python) and scores each batch vectorized.  Above
    ``broadcast_max`` the table never leaves the object store: scoring
    runs as a cogroup hash-join plus a per-doc partial-sum exchange."""
    import ray

    from ..stages.shuffle import (
        broadcast_table, bucketed_apply, grouped_agg,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partials(b: pa.Table) -> pa.Table:
        h, n = np.unique(_bigram_hashes(b)[1], return_counts=True)
        return pa.table({"gh": pa.array(h, pa.int64()),
                         "n": pa.array(n.astype(np.int64))})

    cnt_ds = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["gh"], {"c": ("n", "sum")}
    ).materialize()  # count() + consume = ONE pass-1 execution
    cnt = broadcast_table(cnt_ds, "gh", broadcast_max)

    if cnt is None:
        # scale path: (doc, bigram, multiplicity) rows meet the count
        # rows per hash bucket, partials re-bucket per doc
        def join_cnt(o: pd.DataFrame, cnts: pd.DataFrame) -> pd.DataFrame:
            lut = pd.Series(cnts["c"].to_numpy(),
                            index=cnts["gh"].to_numpy())
            c = o["gh"].map(lut).to_numpy(np.int64)
            m = o["mult"].to_numpy(np.int64)
            per = pd.DataFrame(
                {"doc_id": o["doc_id"].to_numpy(np.int64),
                 "n_big": m, "sum_freq": m * c,
                 "n_rare": m * (c == 1)})
            out = per.groupby("doc_id", as_index=False, sort=False).sum()
            return out.astype(np.int64)

        parts = bucketed_apply(
            (ds.map_batches(_bigram_occurrences, batch_format="pyarrow"),
             cnt_ds), ["gh"], join_cnt)

        def fin(g: pd.DataFrame) -> pd.DataFrame:
            out = g.groupby("doc_id", as_index=False, sort=False).sum()
            out = out.astype(np.int64)
            out["familiarity"] = (
                out["sum_freq"].to_numpy(np.float64)
                / out["n_big"].to_numpy(np.float64))
            return out

        return bucketed_apply(parts, ["doc_id"], fin)

    def probe(b: pa.Table) -> pa.Table:
        d, gh = _bigram_hashes(b)
        if not len(gh):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_big": pa.array([], pa.int64()),
                             "sum_freq": pa.array([], pa.int64()),
                             "n_rare": pa.array([], pa.int64()),
                             "familiarity": pa.array([], pa.float64())})
        # every bigram is in the corpus table by construction
        _, (c,) = cnt.lookup(gh, "c")
        docs = np.unique(d)
        idx = np.searchsorted(docs, d)
        n_big = np.bincount(idx, minlength=len(docs)).astype(np.int64)
        sum_freq = np.bincount(
            idx, weights=c.astype(np.float64),
            minlength=len(docs)).astype(np.int64)
        n_rare = np.bincount(
            idx, weights=(c == 1).astype(np.float64),
            minlength=len(docs)).astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(docs),
             "n_big": pa.array(n_big),
             "sum_freq": pa.array(sum_freq),
             "n_rare": pa.array(n_rare),
             "familiarity": pa.array(sum_freq / n_big)})

    return ds.map_batches(probe, batch_format="pyarrow")


def sql_lm_score() -> str:
    return (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "b AS (SELECT doc_id, unnest(list_transform(range(1, len(ws)), "
        "i -> ws[i] || ' ' || ws[i+1])) AS g FROM w), "
        "cnt AS (SELECT g, COUNT(*) AS c FROM b GROUP BY g) "
        "SELECT b.doc_id, COUNT(*) AS n_big, "
        "CAST(SUM(cnt.c) AS BIGINT) AS sum_freq, "
        "CAST(SUM(CASE WHEN cnt.c = 1 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_rare, "
        "CAST(SUM(cnt.c) AS DOUBLE) / COUNT(*) AS familiarity "
        "FROM b JOIN cnt ON b.g = cnt.g GROUP BY b.doc_id"
    )


QUERIES = {
    "text_stats": q_text_stats,
    "lang_score": q_lang_score,
    "token_count": q_token_count,
    "dedup_exact": q_dedup_exact,
    "minhash_pairs": q_minhash_pairs,
    "quality": q_quality,
    "ngram_jaccard": q_ngram_jaccard,
    "simhash": q_simhash,
    "lm_score": q_lm_score,
}

ORACLES = {
    "lm_score": sql_lm_score(),
    "text_stats": sql_text_stats(),
    "lang_score": sql_lang_score(),
    "token_count": sql_token_count(),
    "dedup_exact": sql_dedup_exact(),
    "minhash_pairs": sql_minhash_pairs(),
    "quality": sql_quality(),
    "ngram_jaccard": sql_ngram_jaccard(),
    "simhash": sql_simhash(),
}


# ------------------- 9. DSIR-style importance weights
#
# Data Selection via Importance Resampling (Xie et al. 2023,
# arXiv:2302.03169) scores raw documents by how target-like their
# hashed-ngram distribution is, then resamples by the importance
# weight.  This is the distributed scoring pass with a LINEAR (not
# log) likelihood ratio so every value stays a deterministic rational
# of exact integer counts (documented divergence — the selection
# ORDERING is what the resampler consumes, and x -> (x+1)/(y+1) is
# monotone in the same count pair the paper's log-ratio uses
# feature-wise); the resampling step itself is ``stratified_sample``.
# Target domain here: the lang='en' slice of the corpus.

DSIR_TARGET_LANG = "en"


def q_dsir_weights(sf_dir: str, broadcast_max: int = BROADCAST_MAX):
    """Per-doc DSIR importance weight: (doc_id, n_big, t_freq, c_freq,
    w) with t_freq / c_freq = the doc's bigram-occurrence mass under
    the target-slice / whole-corpus count tables and
    w = (t_freq+1)/(c_freq+1).

    ONE pass builds both count tables (the target sum is a masked
    second aggregate of the same exchange rows, not a second scan);
    the probe broadcasts them as one sorted (hash, c_all, c_tgt) table
    (~24 B/bigram) under the same cap as ``lm_score`` — above it,
    that query's cogroup-join shape."""
    import ray

    from ..stages.shuffle import (
        broadcast_table, bucketed_apply, grouped_agg,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def partials(b: pa.Table) -> pa.Table:
        d, gh = _bigram_hashes(b)
        lang = b.column("lang").to_numpy()
        doc_ids = b.column("doc_id").to_numpy()
        # map each bigram's doc id back to its batch row (ids unique
        # per batch but not necessarily sorted)
        o = np.argsort(doc_ids, kind="stable")
        pos = o[np.searchsorted(doc_ids[o], d)]
        is_tgt = (lang == DSIR_TARGET_LANG)[pos]
        hs, inv = np.unique(gh, return_inverse=True)
        n_all = np.bincount(inv, minlength=len(hs)).astype(np.int64)
        n_tgt = np.bincount(inv, weights=is_tgt.astype(np.float64),
                            minlength=len(hs)).astype(np.int64)
        return pa.table({"gh": pa.array(hs, pa.int64()),
                         "n_all": pa.array(n_all),
                         "n_tgt": pa.array(n_tgt)})

    cnt_ds = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["gh"], {"c_all": ("n_all", "sum"), "c_tgt": ("n_tgt", "sum")},
    ).materialize()  # count() + consume = ONE pass-1 execution
    cnt = broadcast_table(cnt_ds, "gh", broadcast_max)

    if cnt is None:
        # scale path (lm_score's cogroup shape): the count table never
        # leaves the object store — (doc, gh, mult) occurrence rows meet
        # the (gh, c_all, c_tgt) count rows per hash bucket, partials
        # re-bucket per doc
        def join_cnt(o: pd.DataFrame, cnts: pd.DataFrame) -> pd.DataFrame:
            lut = cnts.set_index("gh")
            ca = o["gh"].map(lut["c_all"]).to_numpy(np.int64)
            ct = o["gh"].map(lut["c_tgt"]).to_numpy(np.int64)
            m = o["mult"].to_numpy(np.int64)
            per = pd.DataFrame(
                {"doc_id": o["doc_id"].to_numpy(np.int64),
                 "n_big": m, "t_freq": m * ct, "c_freq": m * ca})
            return per.groupby(
                "doc_id", as_index=False, sort=False).sum().astype(np.int64)

        parts = bucketed_apply(
            (ds.map_batches(_bigram_occurrences, batch_format="pyarrow"),
             cnt_ds), ["gh"], join_cnt)

        def fin(g: pd.DataFrame) -> pd.DataFrame:
            out = (g.groupby("doc_id", as_index=False, sort=False)
                   .sum().astype(np.int64))
            out["w"] = ((out["t_freq"].to_numpy(np.int64) + 1)
                        .astype(np.float64)
                        / (out["c_freq"].to_numpy(np.int64) + 1)
                        .astype(np.float64))
            return out

        return bucketed_apply(parts, ["doc_id"], fin)

    def probe(b: pa.Table) -> pa.Table:
        d, gh = _bigram_hashes(b)
        if not len(gh):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_big": pa.array([], pa.int64()),
                             "t_freq": pa.array([], pa.int64()),
                             "c_freq": pa.array([], pa.int64()),
                             "w": pa.array([], pa.float64())})
        # every gram present by construction
        _, (ca, ct) = cnt.lookup(gh, "c_all", "c_tgt")
        docs = np.unique(d)
        idx = np.searchsorted(docs, d)
        n_big = np.bincount(idx, minlength=len(docs)).astype(np.int64)
        t_freq = np.bincount(idx, weights=ct.astype(np.float64),
                             minlength=len(docs)).astype(np.int64)
        c_freq = np.bincount(idx, weights=ca.astype(np.float64),
                             minlength=len(docs)).astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(docs),
             "n_big": pa.array(n_big),
             "t_freq": pa.array(t_freq),
             "c_freq": pa.array(c_freq),
             "w": pa.array((t_freq + 1).astype(np.float64)
                           / (c_freq + 1).astype(np.float64))})

    return ds.map_batches(probe, batch_format="pyarrow")


def sql_dsir_weights() -> str:
    return (
        "WITH w AS (SELECT doc_id, lang, string_split(text, ' ') AS ws "
        "FROM documents), "
        "b AS (SELECT doc_id, lang, unnest(list_transform(range(1, "
        "len(ws)), i -> ws[i] || ' ' || ws[i+1])) AS g FROM w), "
        "cnt AS (SELECT g, COUNT(*) AS c_all, "
        f"SUM(CASE WHEN lang = '{DSIR_TARGET_LANG}' THEN 1 ELSE 0 END) "
        "AS c_tgt FROM b GROUP BY g) "
        "SELECT b.doc_id, COUNT(*) AS n_big, "
        "CAST(SUM(cnt.c_tgt) AS BIGINT) AS t_freq, "
        "CAST(SUM(cnt.c_all) AS BIGINT) AS c_freq, "
        "CAST(CAST(SUM(cnt.c_tgt) AS BIGINT) + 1 AS DOUBLE) / "
        "CAST(CAST(SUM(cnt.c_all) AS BIGINT) + 1 AS DOUBLE) AS w "
        "FROM b JOIN cnt ON b.g = cnt.g GROUP BY b.doc_id"
    )


QUERIES["dsir_weights"] = q_dsir_weights
ORACLES["dsir_weights"] = sql_dsir_weights()


# ----------------------------------------- near-dup candidate verification
#
# The verification step real dedup pipelines run AFTER LSH candidate
# generation: candidates are cheap-but-noisy; an edit-similarity check
# decides which pairs are true near-duplicates.  Shape: the candidate
# stream (tiny relative to the corpus) is hash-joined to the documents
# table twice through the bucketed exchange (one side per join — text
# never broadcasts), then each bucket computes Levenshtein on its own
# pairs.  The per-pair DP is a numpy row recurrence (O(len) vector ops
# per character, minimum.accumulate resolves the insertion chain) —
# per-PAIR iteration is the right granularity here because candidate
# pairs are O(duplicates), not O(corpus).

NEARDUP_MAX_RATIO = 5  # is_dup iff ratio * dist <= max(len_a, len_b)


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost Levenshtein, identical to DuckDB's levenshtein()."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    ca = np.frombuffer(a.encode(), dtype=np.uint8)
    cb = np.frombuffer(b.encode(), dtype=np.uint8)
    n = len(ca)
    idx = np.arange(n + 1)
    prev = idx.copy()
    for i in range(len(cb)):
        t = np.empty(n + 1, np.int64)
        t[0] = i + 1
        np.minimum(prev[:-1] + (ca != cb[i]), prev[1:] + 1, out=t[1:])
        # cur[j] = min_k<=j (t[k] + j - k): insertion chain in one pass
        prev = np.minimum.accumulate(t - idx) + idx
    return int(prev[-1])


def _levenshtein_batch(ta: list, tb: list) -> np.ndarray:
    """Unit-cost Levenshtein for a BATCH of string pairs: one padded
    (pairs x len) DP advanced row-by-row, vectorized across every pair
    in the block at once (the per-pair row recurrence only vectorizes
    over one string's length — batching multiplies the vector width by
    the block's pair count).  Pad symbols are chosen so they can never
    match; each pair's distance is captured the moment its own last
    row completes, and later (padded) rows cannot corrupt columns at or
    left of that pair's length."""
    n = len(ta)
    if n == 0:
        return np.zeros(0, np.int64)
    la = np.fromiter((len(x) for x in ta), np.int64, n)
    lb = np.fromiter((len(y) for y in tb), np.int64, n)
    ml_a, ml_b = int(la.max()), int(lb.max())
    if ml_a == 0 or ml_b == 0:
        return np.where(la == 0, lb, la)
    # int16 codepoint planes with distinct negative pads (never equal)
    a_mat = np.full((n, ml_a), -1, np.int16)
    b_mat = np.full((n, ml_b), -2, np.int16)
    for i, x in enumerate(ta):
        if x:
            a_mat[i, :len(x)] = np.frombuffer(x.encode(), np.uint8)
    for i, y in enumerate(tb):
        if y:
            b_mat[i, :len(y)] = np.frombuffer(y.encode(), np.uint8)
    idx = np.arange(ml_a + 1, dtype=np.int32)
    prev = np.tile(idx, (n, 1))
    out = la.astype(np.int64).copy()  # lb == 0 pairs: distance = la
    rows = np.arange(n)
    t = np.empty_like(prev)
    for i in range(ml_b):
        ci = b_mat[:, i:i + 1]
        t[:, 0] = i + 1
        np.minimum(prev[:, :-1] + (a_mat != ci),
                   prev[:, 1:] + 1, out=t[:, 1:])
        prev = np.minimum.accumulate(t - idx, axis=1) + idx
        done = lb == i + 1
        if done.any():
            out[done] = prev[rows[done], la[done]]
    return out


def q_neardup_verify(sf_dir: str):
    """Edit-distance verification of the MinHash-LSH candidate pairs:
    (a, b, dist, len_a, len_b, is_dup) with is_dup an all-integer
    ratio test (NEARDUP_MAX_RATIO * dist <= max(len))."""
    import ray

    from .sqlparse import _join_on

    pairs = q_minhash_pairs(sf_dir)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def ren(suffix):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([f"doc{suffix}", f"text{suffix}"])
        return fn

    da = docs.map_batches(ren("_a"), batch_format="pyarrow")
    db = docs.map_batches(ren("_b"), batch_format="pyarrow")
    j = _join_on(pairs, da, "a", "doc_a")
    j = _join_on(j, db, "b", "doc_b")
    # the DP dominates end-to-end cost: spread it over the cluster
    # (the join emits a handful of bucket blocks) — candidate pairs
    # are small rows, so this repartition is cheap
    from ..stages.shuffle import default_buckets

    j = j.repartition(4 * default_buckets(floor=8))

    def verify(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy()
        b = t.column("b").to_numpy()
        ta = t.column("text_a").to_pylist()
        tb = t.column("text_b").to_pylist()
        # length-bucket the batch (4 chunks of the length-sorted
        # order) so short pairs don't pay the longest pair's padding
        order = np.argsort(np.maximum(
            np.fromiter((len(x) for x in ta), np.int64, len(ta)),
            np.fromiter((len(y) for y in tb), np.int64, len(tb))),
            kind="stable")
        dist = np.empty(len(ta), np.int64)
        for chunk in np.array_split(order, min(4, max(1, len(order)))):
            dist[chunk] = _levenshtein_batch(
                [ta[i] for i in chunk], [tb[i] for i in chunk])
        la = np.fromiter((len(x) for x in ta), np.int64, len(ta))
        lb = np.fromiter((len(y) for y in tb), np.int64, len(tb))
        return pa.table({
            "a": a, "b": b, "dist": dist, "len_a": la, "len_b": lb,
            "is_dup": (NEARDUP_MAX_RATIO * dist
                       <= np.maximum(la, lb)).astype(np.int64),
        })

    return j.map_batches(verify, batch_format="pyarrow")


def sql_neardup_verify() -> str:
    return (
        f"WITH pairs AS ({sql_minhash_pairs()}), "
        "j AS (SELECT p.a, p.b, da.text AS ta, db.text AS tb "
        "FROM pairs p JOIN documents da ON da.doc_id = p.a "
        "JOIN documents db ON db.doc_id = p.b) "
        "SELECT a, b, CAST(levenshtein(ta, tb) AS BIGINT) AS dist, "
        "CAST(length(ta) AS BIGINT) AS len_a, "
        "CAST(length(tb) AS BIGINT) AS len_b, "
        f"CAST(CASE WHEN {NEARDUP_MAX_RATIO} * levenshtein(ta, tb) <= "
        "GREATEST(length(ta), length(tb)) THEN 1 ELSE 0 END AS BIGINT) "
        "AS is_dup FROM j"
    )


QUERIES["neardup_verify"] = q_neardup_verify
ORACLES["neardup_verify"] = sql_neardup_verify()


# ------------------------------------------------ blocklist screening
#
# C4-style banned-term filtering: a categorized term list, word-
# boundary matched; a page is blocked when any category's hit count
# reaches its threshold.  Output is the per-(doc, category) hit table
# for matched docs plus the doc-level verdict — the audit artifact a
# filtering pipeline keeps (the drop itself is then a trivial
# anti-join).  Pure map_batches: each term is one compiled-regex C
# count pass per batch (at a real blocklist's size the per-actor state
# is one Aho-Corasick/alternation automaton compiled in __init__; the
# plumbing — per-category counts, thresholds, verdict — is identical).
# The DuckDB oracle recounts with its own RE2 regexp_extract_all on
# identical strings.

BLOCKLIST = (
    # (category, term, threshold)
    ("perf", "slow", 3),
    ("dupes", "dup", 1),
    ("hype", "big", 4),
)


def q_blocklist(sf_dir: str):
    """(doc_id, category, n_hits, blocked) for every doc x category
    with n_hits > 0; blocked = 1 iff n_hits >= the category threshold."""
    import ray

    def fn(b: pa.Table) -> pa.Table:
        k = b.column("doc_id").to_numpy().astype(np.int64)
        text = b.column("text").to_pandas().astype(str)
        ids, cats, hits, blocked = [], [], [], []
        for cat, term, thr in BLOCKLIST:
            c = text.str.count(r"\b" + term + r"\b").to_numpy(np.int64)
            m = c > 0
            ids.append(k[m])
            cats.append(np.full(int(m.sum()), cat, dtype=object))
            hits.append(c[m])
            blocked.append((c[m] >= thr).astype(np.int64))
        return pa.table({
            "doc_id": pa.array(np.concatenate(ids)),
            "category": pa.array(np.concatenate(cats), pa.string()),
            "n_hits": pa.array(np.concatenate(hits)),
            "blocked": pa.array(np.concatenate(blocked)),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_blocklist() -> str:
    selects = []
    for cat, term, thr in BLOCKLIST:
        n = f"len(regexp_extract_all(text, '\\b{term}\\b'))"
        selects.append(
            f"SELECT doc_id, '{cat}' AS category, "
            f"CAST({n} AS BIGINT) AS n_hits, "
            f"CAST(CASE WHEN {n} >= {thr} THEN 1 ELSE 0 END AS BIGINT) "
            f"AS blocked FROM documents WHERE {n} > 0"
        )
    return " UNION ALL ".join(selects)


QUERIES["blocklist"] = q_blocklist
ORACLES["blocklist"] = sql_blocklist()


# --- asymmetric n-gram containment (short-inside-long duplicates) -----------
#
# Jaccard under-scores a short document wholly embedded in a long one
# (|A∩B|/|A∪B| is dragged down by the long side); the CONTAINMENT
# score c(A in B) = |A∩B| / |A| is the standard complement (Broder's
# resemblance vs containment).  Same pair-statistics stream as
# ngram_jaccard — only the finish formula differs.

def q_containment(sf_dir: str):
    """Bigram-set containment for (doc_id, doc_id+1) pairs:
    (a, b, inter_n, len_a, len_b, c_a_in_b, c_b_in_a, c_max)."""
    from ..stages.shuffle import bucketed_apply

    def finish(*frames: pd.DataFrame) -> pd.DataFrame:
        got = _pair_pivot(*frames)
        if got is None:
            return pd.DataFrame({
                "a": pd.Series(dtype=np.int64),
                "b": pd.Series(dtype=np.int64),
                "inter_n": pd.Series(dtype=np.int64),
                "len_a": pd.Series(dtype=np.int64),
                "len_b": pd.Series(dtype=np.int64),
                "c_a_in_b": pd.Series(dtype=np.float64),
                "c_b_in_a": pd.Series(dtype=np.float64),
                "c_max": pd.Series(dtype=np.float64)})
        a, iv, la, lb = got
        keep = iv > 0
        a, iv, la, lb = a[keep], iv[keep], la[keep], lb[keep]
        return pd.DataFrame({
            "a": a, "b": a + 1, "inter_n": iv,
            "len_a": la, "len_b": lb,
            "c_a_in_b": iv / la,
            "c_b_in_a": iv / lb,
            "c_max": iv / np.minimum(la, lb),
        })

    return bucketed_apply(_ngram_pair_inputs(sf_dir), _PAIR_KEYS, finish,
                          n_buckets=8)


def sql_containment() -> str:
    return (
        "WITH g AS (SELECT doc_id, list_distinct(list_transform("
        "range(1, len(string_split(text, ' '))), "
        "i -> string_split(text, ' ')[i] || ' ' || "
        "string_split(text, ' ')[i+1])) AS gs FROM documents), "
        "j AS (SELECT x.doc_id AS a, y.doc_id AS b, "
        "CAST(len(list_intersect(x.gs, y.gs)) AS BIGINT) AS inter_n, "
        "CAST(len(x.gs) AS BIGINT) AS len_a, "
        "CAST(len(y.gs) AS BIGINT) AS len_b "
        "FROM g x JOIN g y ON y.doc_id = x.doc_id + 1) "
        "SELECT a, b, inter_n, len_a, len_b, "
        "CAST(inter_n AS DOUBLE) / len_a AS c_a_in_b, "
        "CAST(inter_n AS DOUBLE) / len_b AS c_b_in_a, "
        "CAST(inter_n AS DOUBLE) / LEAST(len_a, len_b) AS c_max "
        "FROM j WHERE inter_n > 0"
    )


QUERIES["containment"] = q_containment
ORACLES["containment"] = sql_containment()


# ------------------------------- type-token ratio per language (exact)
#
# TTR = distinct words / total words per language — the standard
# lexical-diversity profile of a corpus slice.  Distinct counting is
# the map-side pre-deduped (lang, word) exchange (each bucket counts
# its own distinct words — no global set), token totals ride the same
# partials; exact integers, ratio quantized floor-half at 1e12.

def q_ttr(sf_dir: str):
    """(lang, n_tokens, n_types, ttr_q12) per language."""
    import ray

    from ..stages.shuffle import bucketed_apply, grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def pairs(b: pa.Table) -> pa.Table:
        lang = b.column("lang").to_pandas()
        words = b.column("text").to_pandas().str.split(" ")
        df = pd.DataFrame({"lang": lang, "word": words}).explode("word")
        out = (df.groupby(["lang", "word"], sort=False).size()
               .reset_index(name="c"))
        out["c"] = out["c"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = grouped_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["lang", "word"], {"c": ("c", "sum")})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lang, gg in g.groupby("lang", sort=False):
            tok = int(gg["c"].sum())
            typ = len(gg)
            q = (2 * typ * 10 ** 12 + tok) // (2 * tok) if tok else None
            out.append((lang, tok, typ, q))
        return pd.DataFrame(
            out, columns=["lang", "n_tokens", "n_types", "ttr_q12"])

    return bucketed_apply(counts, ["lang"], finish)


def sql_ttr() -> str:
    return (
        "WITH w AS (SELECT lang, UNNEST(string_split(text, ' ')) "
        "AS word FROM documents), "
        "m AS (SELECT lang, CAST(COUNT(*) AS HUGEINT) AS tok, "
        "CAST(COUNT(DISTINCT word) AS HUGEINT) AS typ FROM w "
        "GROUP BY lang) "
        "SELECT lang, CAST(tok AS BIGINT) AS n_tokens, "
        "CAST(typ AS BIGINT) AS n_types, "
        "CASE WHEN tok = 0 THEN NULL ELSE "
        "CAST((2*typ*1000000000000 + tok) // (2*tok) AS BIGINT) END "
        "AS ttr_q12 FROM m"
    )


QUERIES["ttr"] = q_ttr
ORACLES["ttr"] = sql_ttr()
