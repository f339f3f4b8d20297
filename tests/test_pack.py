"""Packing & corpus-hygiene operator tests: sequence packing,
duplicate-chunk stats, repetition signal.

Each check recomputes the expected result independently with plain
pandas / Counter on sf0.001 — the DuckDB hash-exact gate runs
separately via tools/check_oracles.py."""

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(f"{SF}/documents.parquet").to_pandas()


def _chunks(text: str, w: int):
    ws = text.split(" ")
    return [" ".join(ws[i:i + w]) for i in range(0, len(ws), w)]


def test_seq_pack_vs_pandas(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        PACK_BUDGET,
        q_seq_pack,
    )

    got = (q_seq_pack(SF).to_pandas()
           .sort_values(["source", "doc_id"]).reset_index(drop=True))
    d = docs.sort_values(["source", "doc_id"]).reset_index(drop=True)
    n = d["text"].str.count(" ").to_numpy() + 1
    csum = (pd.Series(n).groupby(d["source"].to_numpy()).cumsum()
            .to_numpy() - n)
    assert (got["n_tokens"].to_numpy() == n).all()
    assert (got["bin"].to_numpy() == csum // PACK_BUDGET).all()
    assert (got["bin_off"].to_numpy() == csum % PACK_BUDGET).all()
    # packing invariant: within a shard, bins are contiguous from 0 and
    # bin_off strictly increases within a bin
    for _, g in got.groupby("source"):
        b = g.sort_values("doc_id")["bin"].to_numpy()
        assert b[0] == 0 and (np.diff(b) >= 0).all()


def test_pack_export_vs_pandas(ray_session, docs):
    import hashlib

    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        PACK_BUDGET,
        q_pack_export,
    )

    got = (q_pack_export(SF).to_pandas()
           .sort_values(["source", "bin"]).reset_index(drop=True))
    d = docs.sort_values(["source", "doc_id"]).reset_index(drop=True)
    n = d["text"].str.count(" ").to_numpy() + 1
    csum = (pd.Series(n).groupby(d["source"].to_numpy()).cumsum()
            .to_numpy() - n)
    d = d.assign(n_tokens=n, bin=csum // PACK_BUDGET)
    exp = (d.groupby(["source", "bin"], as_index=False).agg(
        n_docs=("doc_id", "size"),
        tok_sum=("n_tokens", "sum"),
        pack_md5=("text", lambda s: hashlib.md5(
            " ".join(s).encode()).hexdigest()),
    ).sort_values(["source", "bin"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["source", "bin", "n_docs", "tok_sum", "pack_md5"]].astype(
            {"n_docs": "int64", "tok_sum": "int64", "bin": "int64"}),
        exp.astype({"n_docs": "int64", "tok_sum": "int64", "bin": "int64"}))


def test_chunk_dedup_vs_counter(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        CHUNK_W,
        q_chunk_dedup,
    )

    got = q_chunk_dedup(SF).to_pandas().sort_values("doc_id")
    per_doc = {int(r.doc_id): _chunks(r.text, CHUNK_W)
               for r in docs.itertuples(index=False)}
    ndocs = Counter()
    for d, cs in per_doc.items():
        for c in set(cs):
            ndocs[c] += 1
    dup = {c for c, k in ndocs.items() if k >= 2}
    exp = pd.DataFrame(
        [(d, len(cs), sum(c in dup for c in cs)) for d, cs in per_doc.items()],
        columns=["doc_id", "n_chunks", "n_dup"],
    ).sort_values("doc_id")
    assert (got["n_chunks"].to_numpy() == exp["n_chunks"].to_numpy()).all()
    assert (got["n_dup"].to_numpy() == exp["n_dup"].to_numpy()).all()
    assert np.allclose(
        got["dup_frac"].to_numpy(),
        exp["n_dup"].to_numpy() / exp["n_chunks"].to_numpy())


def test_doc_chunks_empty_tokens_preserved():
    """Padding cells are identified by position, not value: a genuine
    empty token (consecutive spaces) stays in the joined chunk, exactly
    as the oracle's array_to_string does."""
    import pyarrow as pa

    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        CHUNK_W,
        _doc_chunks,
    )

    texts = ["a  b c", " ".join(f"w{i}" for i in range(2 * CHUNK_W + 3))]
    b = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(texts)})
    d, s = _doc_chunks(b)
    exp = [(i, " ".join(t.split(" ")[j:j + CHUNK_W]))
           for i, t in enumerate(texts)
           for j in range(0, len(t.split(" ")), CHUNK_W)]
    assert list(zip(d.tolist(), s.tolist())) == exp


def test_run_stats_kernel():
    """_run_stats: longest consecutive True run per contiguous row
    group, against a tiny hand-computed case incl. runs that touch the
    row boundary (a run must NOT continue across docs)."""
    import numpy as np

    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        _run_stats,
    )

    row = np.array([0, 0, 0, 0, 1, 1, 1, 3, 3], np.int64)
    dup = np.array([1, 1, 0, 1, 1, 1, 1, 0, 0], bool)
    docs, n_grams, n_dup, max_run = _run_stats(row, dup)
    assert docs.tolist() == [0, 1, 3]
    assert n_grams.tolist() == [4, 3, 2]
    assert n_dup.tolist() == [3, 3, 0]
    assert max_run.tolist() == [2, 3, 0]
    # boundary: trailing True in doc 0 + leading True in doc 1 stay
    # separate runs even though adjacent in the flat arrays
    row2 = np.array([0, 0, 1, 1], np.int64)
    dup2 = np.array([0, 1, 1, 1], bool)
    _d, _n, _nd, mr2 = _run_stats(row2, dup2)
    assert mr2.tolist() == [1, 2]


def test_decontaminate_vs_sets(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        EVAL_MOD,
        NGRAM_W,
        q_decontaminate,
    )

    got = q_decontaminate(SF).to_pandas().sort_values("doc_id")

    def grams(text):
        ws = text.split(" ")
        return [" ".join(ws[i:i + NGRAM_W])
                for i in range(len(ws) - NGRAM_W + 1)]

    ev = set()
    for r in docs.itertuples(index=False):
        if int(r.doc_id) % EVAL_MOD == 0:
            ev.update(grams(r.text))
    rows = []
    for r in docs.itertuples(index=False):
        if int(r.doc_id) % EVAL_MOD == 0:
            continue
        gs = grams(r.text)
        if gs:
            rows.append((int(r.doc_id), len(gs),
                         sum(g in ev for g in gs)))
    exp = pd.DataFrame(
        rows, columns=["doc_id", "n_grams", "n_contam"]).sort_values("doc_id")
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    assert (got["n_grams"].to_numpy() == exp["n_grams"].to_numpy()).all()
    assert (got["n_contam"].to_numpy() == exp["n_contam"].to_numpy()).all()
    # no eval doc leaks into the screened output
    assert (got["doc_id"].to_numpy() % EVAL_MOD != 0).all()


def test_curate_e2e_vs_pandas(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        CUR_LANGS,
        CUR_MIN_WORDS,
        CUR_STOP_DEN,
        PACK_BUDGET,
        q_curate_e2e,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_text import STOPWORDS

    got = (q_curate_e2e(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    d = docs.sort_values("doc_id").reset_index(drop=True)
    key = d["text"].str.split(" ").str[:2].str.join(" ")
    canon = d.groupby(key.to_numpy())["doc_id"].transform("min")
    nw = d["text"].str.count(" ").to_numpy() + 1
    stop_n = d["text"].apply(
        lambda t: sum(w in STOPWORDS for w in t.split(" "))).to_numpy()
    reasons = []
    for i in range(len(d)):
        if d["doc_id"].iloc[i] != canon.iloc[i]:
            reasons.append("dup")
        elif nw[i] < CUR_MIN_WORDS:
            reasons.append("short")
        elif stop_n[i] * CUR_STOP_DEN < nw[i]:
            reasons.append("lowstop")
        elif d["lang"].iloc[i] not in CUR_LANGS:
            reasons.append("lang")
        else:
            reasons.append("ok")
    exp = d.assign(reason=reasons, n_tokens=nw,
                   keep=(np.array(reasons) == "ok").astype(np.int64))
    exp = exp.sort_values(["source", "doc_id"], kind="stable")
    masked = np.where(exp["keep"] == 1, exp["n_tokens"], 0)
    csum = (pd.Series(masked).groupby(exp["source"].to_numpy()).cumsum()
            .to_numpy() - masked)
    exp = exp.assign(
        bin=np.where(exp["keep"] == 1, csum // PACK_BUDGET, -1)
    ).sort_values("doc_id").reset_index(drop=True)
    for col in ("n_tokens", "keep", "reason", "bin"):
        assert (got[col].to_numpy() == exp[col].to_numpy()).all(), col
    # every kept doc's tokens are conserved into bins; dropped docs never
    # occupy a bin
    assert (got.loc[got["keep"] == 0, "bin"] == -1).all()


def test_repetition_vs_counter(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        q_repetition,
    )

    got = q_repetition(SF).to_pandas().sort_values("doc_id")
    rows = []
    for r in docs.itertuples(index=False):
        ws = r.text.split(" ")
        bigs = Counter(
            f"{a} {b}" for a, b in zip(ws, ws[1:]))
        if bigs:
            rows.append((int(r.doc_id), sum(bigs.values()),
                         max(bigs.values())))
    exp = pd.DataFrame(
        rows, columns=["doc_id", "n_big", "top_big_n"]).sort_values("doc_id")
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    assert (got["n_big"].to_numpy() == exp["n_big"].to_numpy()).all()
    assert (got["top_big_n"].to_numpy() == exp["top_big_n"].to_numpy()).all()
    assert np.allclose(
        got["top_big_frac"].to_numpy(),
        exp["top_big_n"].to_numpy() / exp["n_big"].to_numpy())


def test_chunk_words_invariants():
    """Chunker kernel: coverage, overlap, reconstruction, unicode."""
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        RAG_CHUNK_STRIDE as CHUNK_STRIDE,
        RAG_CHUNK_W as CHUNK_W,
        chunk_words,
    )

    texts = [
        " ".join(f"w{i}" for i in range(75)),
        "single",
        "",
        " ".join(f"héllo{i} ✓" for i in range(40)),  # multibyte UTF-8
        "a b",
    ]
    out = chunk_words(texts, np.arange(len(texts)))
    for d, t in enumerate(texts):
        words = t.split(" ")
        sub = out[out["doc_id"] == d].sort_values("chunk_id")
        # chunk count rule: one chunk per stride start below n
        assert len(sub) == (len(words) - 1) // CHUNK_STRIDE + 1
        for _, r in sub.iterrows():
            s, e = r["start_word"], r["start_word"] + r["n_words"]
            assert r["chunk"] == " ".join(words[s:e])
            assert r["n_words"] <= CHUNK_W
        # every word is covered by at least one chunk
        covered = set()
        for _, r in sub.iterrows():
            covered.update(range(r["start_word"],
                                 r["start_word"] + r["n_words"]))
        assert covered == set(range(len(words)))
        # consecutive chunks overlap by CHUNK_W - CHUNK_STRIDE words
        # (except possibly the tail)
        full = sub[sub["n_words"] == CHUNK_W]
        if len(full) > 1:
            assert (np.diff(full["start_word"].to_numpy())
                    == CHUNK_STRIDE).all()


def _winnow_brute(doc_id, text):
    """Literal Schleimer et al. Fig. 5 semantics: per window of W gram
    hashes keep the rightmost minimum."""
    import hashlib

    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        WINNOW_K,
        WINNOW_W,
    )

    ws = text.split(" ")
    grams = [" ".join(ws[i:i + WINNOW_K])
             for i in range(len(ws) - WINNOW_K + 1)]
    h = [int.from_bytes(hashlib.md5(g.encode()).digest()[8:16], "little")
         for g in grams]
    out = set()
    for i in range(max(len(h) - WINNOW_W + 1, 1) if h else 0):
        wnd = h[i:i + WINNOW_W]
        mh = min(wnd)
        j = max(k for k, v in enumerate(wnd) if v == mh)
        out.add((doc_id, i + j + 1, mh if mh < 2**63 else mh - 2**64))
    return out


def test_winnow_vs_brute(ray_session, docs):
    import pyarrow as pa

    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        winnow_batch,
    )

    d = docs.head(80)
    # tie/short-doc stress rows: heavy repetition, < W grams, < K words
    extra = pd.DataFrame({
        "doc_id": [900001, 900002, 900003, 900004],
        "text": ["aa aa aa aa aa aa aa aa aa aa",
                 "aa bb cc dd ee", "aa bb cc dd", "aa bb"],
    })
    d = pd.concat([d[["doc_id", "text"]], extra], ignore_index=True)
    b = pa.table({"doc_id": pa.array(d["doc_id"], pa.int64()),
                  "text": pa.array(d["text"])})
    got = winnow_batch(b)
    gs = set(zip(got.column("doc_id").to_pylist(),
                 got.column("pos").to_pylist(),
                 got.column("gh").to_pylist()))
    exp = set()
    for did, txt in zip(d["doc_id"], d["text"]):
        exp |= _winnow_brute(int(did), txt)
    assert gs == exp


def test_winnow_guarantee(ray_session):
    """Any shared run of >= W + K - 1 words shares a fingerprint hash
    (the paper's coverage guarantee)."""
    import pyarrow as pa

    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        WINNOW_K,
        WINNOW_W,
        winnow_batch,
    )

    shared = " ".join(f"s{i}" for i in range(WINNOW_W + WINNOW_K - 1))
    b = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([f"x1 x2 x3 {shared} x4",
                          f"y1 {shared} y2 y3 y4 y5"]),
    })
    t = winnow_batch(b).to_pandas()
    h1 = set(t.loc[t["doc_id"] == 1, "gh"])
    h2 = set(t.loc[t["doc_id"] == 2, "gh"])
    assert h1 & h2


def test_dedup_rewrite_vs_pandas(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        CHUNK_W,
        q_dedup_rewrite,
    )

    got = (q_dedup_rewrite(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # independent recompute: chunk every doc, owner = min doc_id per
    # chunk text, drop non-owner occurrences of multi-doc chunks
    rows = []
    for did, txt in zip(docs["doc_id"], docs["text"]):
        for cid, ch in enumerate(_chunks(txt, CHUNK_W)):
            rows.append((int(did), cid, ch))
    df = pd.DataFrame(rows, columns=["doc_id", "cid", "chunk"])
    own = df.groupby("chunk")["doc_id"].agg(["min", "nunique"])
    m = df.join(own, on="chunk")
    m["rm"] = (m["nunique"] >= 2) & (m["doc_id"] != m["min"])
    exp = m.groupby("doc_id").apply(
        lambda g: pd.Series({
            "clean_text": " ".join(g.loc[~g["rm"], "chunk"])
            if (~g["rm"]).any() else None,
            "n_kept": int((~g["rm"]).sum()),
            "n_removed": int(g["rm"].sum()),
        })).reset_index().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    assert (got["n_kept"].to_numpy()
            == exp["n_kept"].to_numpy().astype(int)).all()
    assert (got["n_removed"].to_numpy()
            == exp["n_removed"].to_numpy().astype(int)).all()
    ga = got["clean_text"].astype(object).where(
        got["clean_text"].notna(), None)
    ea = exp["clean_text"].astype(object).where(
        exp["clean_text"].notna(), None)
    assert ga.tolist() == ea.tolist()


def test_winnow_pairs_vs_brute(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        WINNOW_MAX_DF,
        WINNOW_MIN_SHARED,
        q_winnow_pairs,
    )

    got = (q_winnow_pairs(SF).to_pandas()
           .sort_values(["a", "b"]).reset_index(drop=True))
    # independent: brute winnow per doc -> fp sets -> df cap -> pairs
    from collections import Counter, defaultdict

    sets = {}
    for did, txt in zip(docs["doc_id"], docs["text"]):
        sets[int(did)] = {gh for _, _, gh in _winnow_brute(int(did), txt)}
    df = Counter(gh for s in sets.values() for gh in s)
    pair_n = defaultdict(int)
    by_gh = defaultdict(list)
    for did, s in sets.items():
        for gh in s:
            if df[gh] <= WINNOW_MAX_DF:
                by_gh[gh].append(did)
    for gh, ds_ in by_gh.items():
        ds_ = sorted(ds_)
        for i in range(len(ds_)):
            for j in range(i + 1, len(ds_)):
                pair_n[(ds_[i], ds_[j])] += 1
    exp = sorted((a, b, n) for (a, b), n in pair_n.items()
                 if n >= WINNOW_MIN_SHARED)
    gl = list(zip(got["a"], got["b"], got["n_shared"]))
    assert gl == exp


def test_span_rewrite_vs_brute(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        NGRAM_W,
        SPAN_MIN_RUN,
        q_span_rewrite,
    )

    got = (q_span_rewrite(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # brute: grams per doc, dup set by >= 2 distinct docs, runs >= R,
    # covered word interval painting
    from collections import defaultdict

    grams = {}
    owner = defaultdict(set)
    for did, txt in zip(docs["doc_id"], docs["text"]):
        ws = txt.split(" ")
        gs = [" ".join(ws[i:i + NGRAM_W])
              for i in range(len(ws) - NGRAM_W + 1)]
        grams[int(did)] = (ws, gs)
        for g in gs:
            owner[g].add(int(did))
    dup = {g for g, ds_ in owner.items() if len(ds_) >= 2}
    rows = []
    for did, (ws, gs) in grams.items():
        isdup = [g in dup for g in gs]
        covered = [False] * len(ws)
        i = 0
        while i < len(gs):
            if isdup[i]:
                j = i
                while j < len(gs) and isdup[j]:
                    j += 1
                if j - i >= SPAN_MIN_RUN:
                    for p in range(i, j + NGRAM_W - 1):
                        covered[p] = True
                i = j
            else:
                i += 1
        kept = [w for w, c in zip(ws, covered) if not c]
        rows.append((did, " ".join(kept) if kept else None,
                     len(ws), sum(covered)))
    exp = (pd.DataFrame(rows, columns=["doc_id", "clean_text",
                                       "n_words", "n_removed"])
           .sort_values("doc_id").reset_index(drop=True))
    assert len(got) == len(exp)
    for c in ["doc_id", "n_words", "n_removed"]:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    ga = got["clean_text"].astype(object).where(
        got["clean_text"].notna(), None)
    assert ga.tolist() == exp["clean_text"].tolist()
    # the fixture actually removes something
    assert got["n_removed"].sum() > 0


def test_doc_gram_scan_matches_string_path():
    """The byte-slice gram hasher must equal the string-materializing
    reference (_doc_ngrams_pos + _md5_lower64) for every edge case:
    double spaces (empty words), leading/trailing spaces, short docs,
    empty docs, multibyte UTF-8, chunked columns."""
    import numpy as np
    import pyarrow as pa

    from osmquadtree_depreceated_ray.pipelines.queries_pack import (
        _doc_gram_hashes_pos, _doc_ngrams_pos, _doc_word_counts, NGRAM_W,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_text import (
        _md5_lower64,
    )

    texts = [
        "a b c d e f g h i j",
        "one two three four five six seven eight",
        "short words only",
        "",
        "x  y z  q a b c d e",
        " lead sp a b c d e f g",
        "tail a b c d e f g h ",
        "wörd ünï c d e f g h i",
    ]
    for width in (2, NGRAM_W):
        b = pa.table({"doc_id": pa.array(
            np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts)})
        rows, pos, gh = _doc_gram_hashes_pos(b, width)
        r_ref, p_ref, s_ref = _doc_ngrams_pos(b, width)
        assert rows.tolist() == r_ref.tolist()
        assert pos.tolist() == p_ref.tolist()
        assert gh.tolist() == _md5_lower64(
            s_ref).view(np.int64).tolist()
    # chunked column + word counts
    b2 = pa.table({"doc_id": pa.array([0, 1]), "text": pa.chunked_array(
        [pa.array(texts[:1]), pa.array(texts[4:5])])})
    r2, _p2, _g2 = _doc_gram_hashes_pos(b2, 3)
    assert len(r2) == 8 + 9  # 10 and 11 words (empty words count)
    wc = _doc_word_counts(pa.table({"text": pa.array(texts)}))
    assert wc.tolist() == [len(t.split(" ")) for t in texts]


@pytest.mark.parametrize("module,name", [
    ("queries_pack", "chunk_dedup"),
    ("queries_pack", "decontaminate"),
    ("queries_pack", "dup_spans"),
    ("queries_pack", "dedup_rewrite"),
    ("queries_pack", "span_rewrite"),
    ("queries_text", "lm_score"),
    ("queries_text", "dsir_weights"),
    ("queries_curate", "tfidf_top"),
])
def test_forced_cogroup_matches_broadcast(ray_session, monkeypatch,
                                          module, name):
    """broadcast_max=0 sends the lookup table through the cogroup path
    (a tuple-input bucketed_apply) and the default run broadcasts it
    (no tuple input); both return the identical frame, column order and
    dtypes included."""
    import importlib

    from osmquadtree_depreceated_ray.stages import shuffle

    fn = getattr(importlib.import_module(
        f"osmquadtree_depreceated_ray.pipelines.{module}"), f"q_{name}")
    cogroups = []
    real = shuffle.bucketed_apply

    def spy(ds, *args, **kwargs):
        cogroups.append(isinstance(ds, tuple))
        return real(ds, *args, **kwargs)

    monkeypatch.setattr(shuffle, "bucketed_apply", spy)
    key = ["doc_id", "word"] if name == "tfidf_top" else ["doc_id"]
    a = fn(SF).to_pandas().sort_values(key).reset_index(drop=True)
    assert cogroups and not any(cogroups)
    del cogroups[:]
    b = (fn(SF, broadcast_max=0).to_pandas().sort_values(key)
         .reset_index(drop=True))
    assert cogroups.count(True) >= 1
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)
    if name == "dsir_weights":
        assert ((a["w"] > 0) & (a["w"] <= 1.0)).all()
