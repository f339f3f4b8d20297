"""Curation-operator tests: connected-component dedup clustering,
exact heavy hitters, stratified hash sampling, redaction, TF-IDF.

Each check recomputes the expected result independently (union-find,
collections.Counter, plain pandas) on sf0.001 — the DuckDB hash-exact
gate runs separately via tools/check_oracles.py."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(f"{SF}/documents.parquet").to_pandas()


def test_dedup_components_vs_union_find(ray_session):
    from osmquadtree_depreceated_ray.pipelines.queries_curate import (
        q_dedup_components,
    )
    from osmquadtree_depreceated_ray.pipelines.queries_text import (
        q_minhash_pairs,
    )

    pairs = q_minhash_pairs(SF).to_pandas()
    got = q_dedup_components(SF).to_pandas().sort_values("doc_id")

    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs.itertuples(index=False):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    docs_ids = got["doc_id"].to_numpy()
    expect = np.array([find(int(i)) for i in docs_ids])
    # union-find roots are component minima because unions always point
    # the larger root at the smaller
    assert (got["component"].to_numpy() == expect).all()
    assert (got["is_canonical"].to_numpy()
            == (docs_ids == expect).astype(np.int64)).all()
    # every component's canonical row exists exactly once
    canon = got[got["is_canonical"] == 1]
    assert set(canon["doc_id"]) == set(got["component"].unique())


def test_heavy_hitters_exact(ray_session, docs):
    from collections import Counter

    from osmquadtree_depreceated_ray.pipelines.queries_curate import (
        HH_K,
        q_heavy_hitters,
    )

    got = q_heavy_hitters(SF).to_pandas()
    cnt = Counter(w for t in docs["text"] for w in t.split(" "))
    expect = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:HH_K]
    assert list(zip(got["word"], got["cnt"])) == expect
    assert list(got["rank"]) == list(range(1, len(expect) + 1))


def test_stratified_sample_exact(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_curate import (
        STRAT_N,
        q_stratified_sample,
    )

    got = (
        q_stratified_sample(SF)
        .to_pandas()
        .sort_values(["lang", "rk"])
        .reset_index(drop=True)
    )
    d = docs[["doc_id", "lang"]].copy()
    d["h"] = [hashlib.md5(str(i).encode()).hexdigest() for i in d["doc_id"]]
    d = d.sort_values(["lang", "h", "doc_id"], kind="stable")
    d = d.groupby("lang", sort=True).head(STRAT_N).copy()
    d["rk"] = d.groupby("lang", sort=False).cumcount() + 1
    expect = d[["lang", "doc_id", "rk"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["lang", "doc_id", "rk"]].astype({"rk": np.int64}),
        expect.astype({"rk": np.int64}),
    )
    # per-stratum size bound
    assert (got.groupby("lang").size() <= STRAT_N).all()


def test_pii_redact(ray_session):
    from osmquadtree_depreceated_ray.pipelines.queries_curate import (
        q_pii_redact,
    )

    got = q_pii_redact(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "props"]).to_pandas()
    m = got.merge(ev, on="event_id")
    import re

    pat = re.compile(r"[0-9]+")
    assert (m["redacted"] == m["props"].map(
        lambda s: pat.sub("<NUM>", s))).all()
    assert (m["n_redacted"] == m["props"].map(
        lambda s: len(pat.findall(s)))).all()
    # no digits survive
    assert not got["redacted"].str.contains(r"[0-9]").any()


def test_tfidf_top(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_curate import (
        TFIDF_TOP,
        q_tfidf_top,
    )

    got = q_tfidf_top(SF).to_pandas()
    w = (
        docs[["doc_id", "text"]]
        .assign(word=docs["text"].str.split(" "))
        .explode("word")
    )
    tf = w.groupby(["doc_id", "word"]).size().reset_index(name="tf")
    df_docs = (
        w.drop_duplicates(["doc_id", "word"])
        .groupby("word").size().rename("df_docs").reset_index()
    )
    s = tf.merge(df_docs, on="word")
    s["score"] = s["tf"].astype(np.float64) / s["df_docs"].astype(np.float64)
    s = s.sort_values(["doc_id", "score", "word"],
                      ascending=[True, False, True], kind="stable")
    expect = s.groupby("doc_id", sort=True).head(TFIDF_TOP)
    got_s = got.sort_values(["doc_id", "word"]).reset_index(drop=True)
    exp_s = expect.sort_values(["doc_id", "word"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_s[["doc_id", "word", "tf", "df_docs", "score"]].astype(
            {"tf": np.int64, "df_docs": np.int64}),
        exp_s[["doc_id", "word", "tf", "df_docs", "score"]].astype(
            {"tf": np.int64, "df_docs": np.int64}),
    )
    assert (got.groupby("doc_id").size() <= TFIDF_TOP).all()



def test_lm_score_vs_counter(ray_session, docs):
    """lm_score against a plain-Python recomputation (Counter over all
    corpus bigrams)."""
    from collections import Counter

    from osmquadtree_depreceated_ray.pipelines.queries_text import (
        q_lm_score,
    )

    corpus = Counter()
    per_doc = {}
    for _i, r in docs.iterrows():
        ws = r["text"].split(" ")
        bigs = [f"{a} {b}" for a, b in zip(ws, ws[1:])]
        per_doc[r["doc_id"]] = bigs
        corpus.update(bigs)

    got = (q_lm_score(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    exp_rows = []
    for did, bigs in sorted(per_doc.items()):
        if not bigs:
            continue
        freqs = [corpus[g] for g in bigs]
        exp_rows.append({
            "doc_id": did, "n_big": len(bigs),
            "sum_freq": sum(freqs),
            "n_rare": sum(1 for f in freqs if f == 1),
            "familiarity": sum(freqs) / len(bigs)})
    exp = pd.DataFrame(exp_rows)
    pd.testing.assert_frame_equal(
        got.astype({"n_big": np.int64}), exp.astype({"n_big": np.int64}))



def test_outliers_mad_vs_pandas(ray_session, docs):
    from osmquadtree_depreceated_ray.pipelines.queries_curate import (
        OUTLIER_K,
        q_outliers_mad,
    )

    got = (q_outliers_mad(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert len(got) == len(docs)
    for lang, grp in got.groupby("lang"):
        x = docs.loc[docs["lang"] == lang, "n_chars"].to_numpy(float)
        med = float(np.median(x))
        mad = float(np.median(np.abs(x - med)))
        assert (grp["med_q12"] == np.int64(np.floor(med * 1e12 + 0.5))).all()
        assert (grp["mad_q12"] == np.int64(np.floor(mad * 1e12 + 0.5))).all()
        gx = grp["n_chars"].to_numpy(float)
        assert (grp["is_outlier"].to_numpy()
                == (np.abs(gx - med) > OUTLIER_K * mad).astype(np.int64)).all()


@pytest.mark.parametrize("seed,n_nodes,n_edges", [
    (1, 200, 50), (2, 500, 400), (3, 300, 900),
    (4, 64, 63), (5, 1000, 150),
])
def test_cc_label_refs_vs_union_find(ray_session, seed, n_nodes, n_edges):
    """Randomized stress of the delta-frontier label propagation
    (chain/dense/sparse regimes) against a plain union-find."""
    import ray

    from osmquadtree_depreceated_ray.pipelines.queries_curate import (
        cc_label_refs,
    )

    rng = np.random.default_rng(seed)
    ids = np.unique(rng.integers(0, 100_000, n_nodes).astype(np.int64))
    if seed == 4:
        # worst-case diameter: one long path in DESCENDING id order so
        # the min label must travel the whole chain
        ids = np.sort(ids)
        a = ids[1:]
        b = ids[:-1]
    else:
        a = rng.choice(ids, n_edges)
        b = rng.choice(ids, n_edges)
        keep = a != b
        a, b = a[keep], b[keep]
    parent = {v: v for v in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    # canonical min-id labels
    want = {}
    for v in ids:
        r = find(v)
        want.setdefault(r, []).append(v)
    want_label = {v: min(vs) for r, vs in want.items() for v in vs}

    pairs = ray.data.from_arrow(pa.table({
        "a": pa.array(np.minimum(a, b)),
        "b": pa.array(np.maximum(a, b))}))
    nodes = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    labels = ray.get(cc_label_refs(pairs, nodes))
    got = pa.concat_tables(labels).to_pandas()
    assert len(got) == len(ids)
    for v, lbl in zip(got["node"], got["label"]):
        assert want_label[v] == lbl, (v, lbl, want_label[v])


def test_mix_quota_proportions(ray_session):
    """Budget/quota arithmetic and per-source hash-rank membership vs a
    pandas recompute; kept set honors the mixture weights exactly."""
    import hashlib

    import pyarrow.parquet as pq

    from osmquadtree_depreceated_ray.pipelines.queries_curate import (
        MIX_PERMILLE,
        q_mix_quota,
    )

    sf = "/root/testdata/sf0.001"
    got = q_mix_quota(sf).to_pandas()
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    n_s = docs["source"].value_counts()
    known = {s: pm for s, pm in MIX_PERMILLE.items() if s in n_s.index}
    budget = min(int(n_s[s]) * 1000 // pm for s, pm in known.items())
    quotas = {s: pm * budget // 1000 for s, pm in known.items()}
    # exact per-source sizes
    sizes = got.groupby("source")["doc_id"].count().to_dict()
    assert sizes == {s: q for s, q in quotas.items() if q > 0}
    # membership = lowest-md5 docs per source
    for s, q in quotas.items():
        sub = docs[docs["source"] == s].copy()
        sub["h"] = [hashlib.md5(str(i).encode()).hexdigest()
                    for i in sub["doc_id"]]
        want = set(sub.sort_values(["h", "doc_id"])
                   .head(q)["doc_id"])
        assert set(got.loc[got["source"] == s, "doc_id"]) == want
