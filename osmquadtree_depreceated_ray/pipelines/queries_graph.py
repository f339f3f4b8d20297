"""Link-graph centrality: distributed PageRank over a web link graph.

Common-Crawl-scale curation ranks pages by link centrality (harmonic /
PageRank) before quality filtering; this module adds that operator to
the engine.  The documents table carries no link column, so the graph
is SYNTHESISED deterministically from doc_ids (a stand-in for a real
``links(src, dst)`` table — the operator itself never assumes anything
beyond an edge list): each page emits :data:`PR_LINKS` candidate
out-links ``dst = (src*48271 + j*11113 + 1) mod (max_id+1)``,
self-loops dropped, duplicates deduped, and candidates pointing at
non-existent pages removed by a distributed existence semi-join (so
gappy id spaces produce dangling pages, handled with the standard
teleport redistribution).

Distributed shape (waves of the raw bucketed exchange of
``stages/exchange.py``, which the connected-components operator in
``queries_curate.py`` runs too — an iterative fixpoint is the one place
the Dataset API genuinely doesn't fit):

* doc_ids are hash-sharded once into ``node`` buckets; edges are
  generated FROM each node shard (edge src lives in its own bucket by
  construction, no routing wave), existence-checked against the dst's
  home bucket, and returned to the src bucket — two exchange waves,
  once, at init.
* each iteration is one scatter/gather exchange: scatter joins the
  local edge shard to the local rank state, MAP-SIDE COMBINES
  contributions by dst (``groupby dst sum`` before routing — the
  exchange carries at most one row per (bucket, dst), not one per
  edge), and emits the bucket's dangling-rank sum as a scalar side
  output; gather sums incoming contributions and applies the teleport
  + dangling terms.  The driver holds only object refs, one float per
  bucket per round, and the two global counts (N pages, max id).
* state is O(nodes/bucket) per bucket and never concentrates on the
  driver; rounds are a fixed ``PR_ITERS``, so the whole run is
  ``2 + PR_ITERS`` exchange waves.

Ranks are emitted quantized (``floor(r * 1e12 + 0.5)`` as BIGINT, the
repo-wide convention for hash-stable float oracles) and the DuckDB
oracle replays the FULL chain — synthesis, semi-join, out-degrees,
dangling mass, and all PR_ITERS power iterations as chained CTEs.

Reference analogue: osmquadtree's iterative relation round
(calcqts/calculatequadtrees.go's 5-round relation qt resolution) has
the same fixpoint-over-exchange shape; no PageRank exists in the
reference — this extends the engine for the web-corpus payload.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.exchange import (
    block_groups, exchange, gather, remote, route, scatter,
)
from .queries_curate import _cc_concat_impl, _cc_route

PR_LINKS = 4
PR_DAMPING = 0.85
PR_ITERS = 3
PR_QUANT = 1e12
_A, _B, _C = 48271, 11113, 1


def _pr_buckets() -> int:
    from ..stages.shuffle import default_buckets

    return default_buckets(floor=16)


def _doc_ids(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])


def _pr_split_nodes_impl(n, *blocks):
    """Hash-shard doc_id blocks into n node buckets."""
    tbls = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
            for b in blocks]
    # a zero-row parquet read can emit a schema-less block (Ray skips
    # UDFs on empty blocks) — treat it as zero ids
    arrs = [t.column("doc_id").to_numpy().astype(np.int64)
            for t in tbls if "doc_id" in t.column_names]
    ids = (np.concatenate(arrs) if arrs
           else np.zeros(0, np.int64))
    return route(_cc_route(ids, n), n, {"node": ids})


def _pr_stats_impl(shard):
    """(count, max_id) of one node shard — two ints to the driver."""
    ids = shard.column("node").to_numpy()
    return (len(ids), int(ids.max()) if len(ids) else -1)


def _pr_cand_impl(n, mod, shard):
    """Generate candidate out-links for this bucket's nodes and route
    them to the DST's home bucket for the existence check."""
    src = np.repeat(shard.column("node").to_numpy().astype(np.int64),
                    PR_LINKS)
    j = np.tile(np.arange(PR_LINKS, dtype=np.int64), len(shard))
    dst = (src * _A + j * _B + _C) % mod
    keep = dst != src
    src, dst = src[keep], dst[keep]
    return route(_cc_route(dst, n), n, {"src": src, "dst": dst})


def _pr_filter_impl(n, nodes, *pieces):
    """Existence semi-join: keep candidates whose dst is a real page in
    this bucket, dedupe, and route survivors home to the SRC bucket."""
    t = pa.concat_tables(pieces, promote_options="default")
    src = t.column("src").to_numpy().astype(np.int64)
    dst = t.column("dst").to_numpy().astype(np.int64)
    have = np.sort(nodes.column("node").to_numpy().astype(np.int64))
    if len(have):
        pos = np.searchsorted(have, dst)
        # a clamped pos (dst > max) can never equal have[0]: dst > all
        pos[pos == len(have)] = 0
        keep = have[pos] == dst
    else:
        keep = np.zeros(len(dst), bool)
    src, dst = src[keep], dst[keep]
    df = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
    return route(_cc_route(df["src"].to_numpy(), n), n,
                 pa.Table.from_pandas(df, preserve_index=False))


def _pr_state_impl(nodes, inv_n, *pieces):
    """Build one bucket's (edges, state): out-degree per local node
    (0 = dangling) and the uniform initial rank 1/N."""
    e = pa.concat_tables(
        pieces, promote_options="default").to_pandas().drop_duplicates()
    node = nodes.column("node").to_numpy().astype(np.int64)
    deg = e.groupby("src", sort=False).size()
    outdeg = pd.Series(node).map(deg).fillna(0).to_numpy(np.int64)
    state = pa.table({
        "node": node,
        "outdeg": outdeg,
        "rank": np.full(len(node), inv_n, np.float64),
    })
    return pa.Table.from_pandas(e, preserve_index=False), state


def _pr_scatter_impl(n, edges, state):
    """One bucket's scatter: per-edge contribution rank/outdeg, map-side
    combined by dst, routed to the dst's home bucket; the bucket's
    dangling-rank sum rides first, as a scalar side output."""
    e = edges.to_pandas()
    s = state.to_pandas()
    m = e.merge(s, left_on="src", right_on="node", how="inner")
    w = m["rank"].to_numpy() / m["outdeg"].to_numpy()
    contrib = (pd.DataFrame({"dst": m["dst"].to_numpy(np.int64), "s": w})
               .groupby("dst", sort=False, as_index=False)["s"].sum())
    dangling = float(s.loc[s["outdeg"] == 0, "rank"].sum())
    return (dangling,) + route(
        _cc_route(contrib["dst"].to_numpy(), n), n,
        pa.Table.from_pandas(contrib, preserve_index=False))


def _pr_gather_impl(state, inv_n, dang_total, *pieces):
    """One bucket's gather: teleport + damped (incoming + dangling/N)."""
    inc = pa.concat_tables(pieces, promote_options="default").to_pandas()
    s = state.to_pandas()
    summed = inc.groupby("dst", sort=False)["s"].sum()
    base = s["node"].map(summed).fillna(0.0).to_numpy(np.float64)
    r = ((1.0 - PR_DAMPING) * inv_n
         + PR_DAMPING * (base + dang_total * inv_n))
    return pa.table({
        "node": s["node"].to_numpy(np.int64),
        "outdeg": s["outdeg"].to_numpy(np.int64),
        "rank": r,
    })


def _directed_shards(ds, cand=_pr_cand_impl):
    """Node shards + DIRECTED edge/state shards of a doc_id Dataset's
    synthetic link graph (the PageRank init waves; ``cand`` synthesises
    the candidate links).  Returns (n, nodes, edges, state, inv_n);
    edges and state are None for an empty table."""
    import ray

    n = _pr_buckets()
    groups = block_groups(ds, n)
    if not groups:
        return n, None, None, None, 0.0
    nodes = exchange(_pr_split_nodes_impl, [(n, *g) for g in groups],
                     _cc_concat_impl, [()] * n, n)
    stats = ray.get([remote(_pr_stats_impl).remote(v) for v in nodes])
    n_docs = sum(c for c, _ in stats)
    if n_docs == 0:
        return n, nodes, None, None, 0.0
    mod = max(m for _, m in stats) + 1
    inv_n = 1.0 / n_docs
    _, cands = scatter(cand, [(n, mod, v) for v in nodes], n)
    _, kept = scatter(_pr_filter_impl, [(n, v) for v in nodes], n,
                      grid=cands)
    built = gather(_pr_state_impl, [(v, inv_n) for v in nodes], kept,
                   returns=2)
    return n, nodes, [b[0] for b in built], [b[1] for b in built], inv_n


def _rank_rounds(n, edges, state, gather_fn, inv, iters=PR_ITERS):
    """``iters`` scatter/gather rounds of a PageRank-style power
    iteration; ``gather_fn(state, inv, dangling total, *pieces)``
    applies the teleport."""
    import ray

    for _ in range(iters):
        sides, contrib = scatter(_pr_scatter_impl,
                                 [(n, e, s) for e, s in zip(edges, state)],
                                 n, side=1)
        dang_total = sum(ray.get([d for d, in sides]))
        state = gather(gather_fn, [(s, inv, dang_total) for s in state],
                       contrib)
    return state


def pagerank(doc_ids_ds, iters: int = PR_ITERS):
    """Distributed PageRank over the synthetic link graph of a doc_id
    Dataset.  Returns a Dataset (doc_id, out_links, pagerank_q12)."""
    import ray.data

    n, _nodes, edges, state, inv_n = _directed_shards(doc_ids_ds)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "out_links": pa.array([], pa.int64()),
            "pagerank_q12": pa.array([], pa.int64())}))
    state = _rank_rounds(n, edges, state, _pr_gather_impl, inv_n, iters)

    def finish(t: pa.Table) -> pa.Table:
        r = t.column("rank").to_numpy()
        return pa.table({
            "doc_id": t.column("node"),
            "out_links": t.column("outdeg"),
            "pagerank_q12": np.floor(r * PR_QUANT + 0.5).astype(np.int64),
        })

    return ray.data.from_arrow_refs(state).map_batches(
        finish, batch_format="pyarrow")


def q_pagerank(sf_dir: str):
    return pagerank(_doc_ids(sf_dir))


def sql_pagerank() -> str:
    """Full-chain oracle: edge synthesis, existence semi-join,
    out-degrees, dangling mass and every power iteration, as chained
    CTEs (one d/c/r triple per iteration)."""
    d = "CAST(0.85 AS DOUBLE)"
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    parts = [
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md, "
        "CAST(COUNT(*) AS DOUBLE) AS n FROM documents)",
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j))",
        "e AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src)",
        "outd AS (SELECT dd.doc_id AS v, COUNT(e.src) AS c "
        "FROM documents dd LEFT JOIN e ON e.src = dd.doc_id "
        "GROUP BY dd.doc_id)",
        "r0 AS (SELECT dd.doc_id AS v, 1.0/m.n AS r "
        "FROM documents dd CROSS JOIN m)",
    ]
    prev = "r0"
    for t in range(1, PR_ITERS + 1):
        parts.append(
            f"d{t} AS (SELECT COALESCE(SUM(p.r), 0.0) AS dm FROM {prev} p "
            f"JOIN outd o ON o.v = p.v WHERE o.c = 0)")
        parts.append(
            f"c{t} AS (SELECT e.dst AS v, SUM(p.r / o.c) AS s FROM e "
            f"JOIN {prev} p ON p.v = e.src JOIN outd o ON o.v = e.src "
            f"GROUP BY e.dst)")
        parts.append(
            f"r{t} AS (SELECT p.v, (1.0 - {d})/m.n + {d}*"
            f"(COALESCE(c{t}.s, 0.0) + d{t}.dm/m.n) AS r "
            f"FROM {prev} p CROSS JOIN m CROSS JOIN d{t} "
            f"LEFT JOIN c{t} ON c{t}.v = p.v)")
        prev = f"r{t}"
    parts.append(
        f"sel AS (SELECT p.v AS doc_id, o.c AS out_links, "
        f"CAST(FLOOR(p.r * 1e12 + 0.5) AS BIGINT) AS pagerank_q12 "
        f"FROM {prev} p JOIN outd o ON o.v = p.v)")
    return ", ".join(parts) + " SELECT * FROM sel"


QUERIES = {"pagerank": q_pagerank}
ORACLES = {"pagerank": sql_pagerank()}


# ------------------------------------------------- triangle counting
#
# Per-page triangle participation over the undirected link graph (the
# canonical graph-analytics companion to PageRank: triangle density
# feeds clustering-coefficient/spam-farm signals in web curation).
# Shape: node-sharded like PageRank; wedges (a,b,c) with b<c are
# generated per a-bucket by a self-merge of the local adjacency shard
# (pairs of neighbors — O(d^2)/node, bounded here by the fixed
# out-degree; at scale orient edges toward the higher-degree endpoint
# first to cap hub blowup), routed to bucket(b), and closed by an
# existence semi-join against that bucket's local edges.  Triangle
# corners route home as (node, 1) rows and sum per node.

def _pr_undirect_impl(*pieces):
    """Concat + dedupe directed edge pieces: reciprocal links (a->b AND
    b->a both synthesised) would otherwise appear twice in a bucket
    after the reverse wave and inflate wedge counts."""
    return pa.Table.from_pandas(
        pa.concat_tables(pieces, promote_options="default")
        .to_pandas().drop_duplicates(),
        preserve_index=False)


def _tri_wedges_impl(n, edges):
    """Canonical a<b edges of this bucket -> wedges (a, b, c), b < c,
    routed by bucket(b) for closure."""
    e = edges.to_pandas()
    e = e[e["src"] < e["dst"]]
    w = e.merge(e, on="src", suffixes=("_1", "_2"))
    w = w[w["dst_1"] < w["dst_2"]]
    a = w["src"].to_numpy(np.int64)
    b = w["dst_1"].to_numpy(np.int64)
    c = w["dst_2"].to_numpy(np.int64)
    return route(_cc_route(b, n), n, {"a": a, "b": b, "c": c})


def _tri_close_impl(n, edges, *pieces):
    """Close wedges against this bucket's local (b, c) edges; emit each
    triangle's three corners as (node, 1) partials, pre-summed per
    node, routed home."""
    w = pa.concat_tables(pieces, promote_options="default").to_pandas()
    e = edges.to_pandas()
    e = e[e["src"] < e["dst"]].rename(columns={"src": "b", "dst": "c"})
    t = w.merge(e, on=["b", "c"], how="inner")
    corners = np.concatenate([t["a"].to_numpy(np.int64),
                              t["b"].to_numpy(np.int64),
                              t["c"].to_numpy(np.int64)])
    cnt = (pd.DataFrame({"node": corners})
           .groupby("node", sort=False).size().reset_index(name="n"))
    return route(_cc_route(cnt["node"].to_numpy(), n), n,
                 pa.Table.from_pandas(cnt, preserve_index=False))


def _tri_finish_impl(nodes, *pieces):
    inc = pa.concat_tables(pieces, promote_options="default").to_pandas()
    node = nodes.column("node").to_numpy().astype(np.int64)
    summed = inc.groupby("node", sort=False)["n"].sum()
    out = pd.Series(node).map(summed).fillna(0).to_numpy(np.int64)
    return pa.table({"doc_id": node, "n_tri": out})


def _graph_shards(sf_dir: str, cand=_pr_cand_impl):
    """Node + UNDIRECTED edge shards of the synthetic link graph:
    the PageRank init waves (shard, synthesise, existence-semi-join)
    plus one reverse wave and a dedup, shared by every undirected
    graph operator.  Returns (n, nodes, edges); edges is None for an
    empty documents table."""
    n, nodes, fwd, _state, _inv_n = _directed_shards(_doc_ids(sf_dir), cand)
    if fwd is None:
        return n, nodes, None
    edges = exchange(_pr_reverse_impl, [(n, e) for e in fwd],
                     _pr_undirect_impl, [(e,) for e in fwd], n)
    return n, nodes, edges


def _triangle_corners(n, edges):
    """The wedge and close waves: per split task, the (node, n)
    triangle-corner pieces bound for each node's home bucket."""
    _, wedges = scatter(_tri_wedges_impl, [(n, e) for e in edges], n)
    _, corners = scatter(_tri_close_impl, [(n, e) for e in edges], n,
                         grid=wedges)
    return corners


def q_triangles(sf_dir: str):
    """Per-document triangle count over the synthetic link graph:
    (doc_id, n_tri), zero-filled for triangle-free pages."""
    import ray.data

    n, nodes, edges = _graph_shards(sf_dir)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_tri": pa.array([], pa.int64())}))
    return ray.data.from_arrow_refs(gather(
        _tri_finish_impl, [(v,) for v in nodes],
        _triangle_corners(n, edges)))


def _pr_reverse_impl(n, edges):
    """(src, dst) -> (dst, src) rows routed to bucket(dst)."""
    src = edges.column("src").to_numpy().astype(np.int64)
    dst = edges.column("dst").to_numpy().astype(np.int64)
    return route(_cc_route(dst, n), n, {"src": dst, "dst": src})


def sql_triangles() -> str:
    """Oracle: the PageRank edge CTEs (same synthesis + semi-join),
    undirected-deduped, then the textbook a<b<c three-way join."""
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    return (
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents), "
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j)), "
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src), "
        "u AS (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0), "
        "w AS (SELECT u1.a, u1.b, u2.b AS c FROM u u1 "
        "JOIN u u2 ON u2.a = u1.a AND u2.b > u1.b), "
        "t AS (SELECT w.a, w.b, w.c FROM w "
        "JOIN u ON u.a = w.b AND u.b = w.c), "
        "corners AS (SELECT a AS v FROM t UNION ALL "
        "SELECT b FROM t UNION ALL SELECT c FROM t), "
        "pc AS (SELECT v, COUNT(*) AS n FROM corners GROUP BY v) "
        "SELECT dd.doc_id, CAST(COALESCE(pc.n, 0) AS BIGINT) AS n_tri "
        "FROM documents dd LEFT JOIN pc ON pc.v = dd.doc_id"
    )


QUERIES["triangles"] = q_triangles
ORACLES["triangles"] = sql_triangles()


# -------------------------------------------- link prediction (CN score)
#
# Common-neighbors link prediction over the undirected graph: for every
# non-edge pair (b, c) the score is the number of shared neighbors a
# (the classic CN baseline; at web scale this is the "people also link"
# candidate generator).  Reuses the triangle wedge stream: a wedge
# (a, b, c) is one common-neighbor witness for the pair (b, c), and all
# wedges of a pair route to bucket(b) — so the per-bucket (b, c) count
# IS the global count (single-owner aggregation, no second exchange),
# followed by a local anti-join against bucket(b)'s edges to drop
# existing links.  Pairs below MIN_COMMON are suppressed (the CN tail
# is quadratic; the threshold keeps output O(strong candidates)).

LP_MIN_COMMON = 2


def _lp_wedges_impl(n, edges):
    """FULL-adjacency wedges for CN scoring: every common neighbor a of
    a pair (b, c) is a witness, whatever its id order (triangles use
    the a<b<c form instead, which counts each triangle exactly once).
    Wedges route by bucket(b), b < c."""
    e = edges.to_pandas()
    w = e.merge(e, on="src", suffixes=("_1", "_2"))
    w = w[w["dst_1"] < w["dst_2"]]
    b = w["dst_1"].to_numpy(np.int64)
    c = w["dst_2"].to_numpy(np.int64)
    return route(_cc_route(b, n), n, {"b": b, "c": c})


def _lp_close_impl(edges, *pieces):
    """One bucket's finish: count wedge witnesses per (b, c), drop
    pairs that are already edges, keep count >= LP_MIN_COMMON."""
    w = pa.concat_tables(pieces, promote_options="default").to_pandas()
    cnt = (w.groupby(["b", "c"], sort=False).size()
           .reset_index(name="common"))
    e = edges.to_pandas()
    e = e[e["src"] < e["dst"]].rename(columns={"src": "b", "dst": "c"})
    m = cnt.merge(e.assign(_e=1), on=["b", "c"], how="left")
    out = m[m["_e"].isna() & (m["common"] >= LP_MIN_COMMON)]
    return pa.table({
        "src": out["b"].to_numpy(np.int64),
        "dst": out["c"].to_numpy(np.int64),
        "common": out["common"].to_numpy(np.int64),
    })


def q_link_predict(sf_dir: str):
    """Common-neighbor link-prediction candidates over the synthetic
    link graph: (src, dst, common) for src < dst non-edges with at
    least LP_MIN_COMMON shared neighbors."""
    import ray.data

    n, nodes, edges = _graph_shards(sf_dir)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "src": pa.array([], pa.int64()),
            "dst": pa.array([], pa.int64()),
            "common": pa.array([], pa.int64())}))
    return ray.data.from_arrow_refs(exchange(
        _lp_wedges_impl, [(n, e) for e in edges],
        _lp_close_impl, [(e,) for e in edges], n))


def sql_link_predict() -> str:
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    return (
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents), "
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j)), "
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src), "
        "u AS (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0), "
        "adj AS (SELECT a AS v, b AS w FROM u "
        "UNION ALL SELECT b, a FROM u), "
        "wg AS (SELECT a1.v AS via, a1.w AS p, a2.w AS q FROM adj a1 "
        "JOIN adj a2 ON a2.v = a1.v AND a2.w > a1.w), "
        "cn AS (SELECT p, q, COUNT(*) AS common FROM wg GROUP BY p, q) "
        "SELECT cn.p AS src, cn.q AS dst, "
        "CAST(cn.common AS BIGINT) AS common FROM cn "
        "LEFT JOIN u ON u.a = cn.p AND u.b = cn.q "
        f"WHERE u.a IS NULL AND cn.common >= {LP_MIN_COMMON}"
    )


QUERIES["link_predict"] = q_link_predict
ORACLES["link_predict"] = sql_link_predict()


# --------------------------------------------- local clustering coefficient
#
# coef(v) = 2 * triangles(v) / (deg(v) * (deg(v) - 1)) — the standard
# local transitivity signal (near-1 cliques are link farms, near-0 hubs
# are portals).  One extra column on the triangle finish: the degree is
# each bucket's local neighbor count, the ratio is a single IEEE
# division of exact ints (identical in both engines), quantized q12.

def _coef_finish_impl(nodes, edges, *pieces):
    inc = pa.concat_tables(pieces, promote_options="default").to_pandas()
    node = nodes.column("node").to_numpy().astype(np.int64)
    tri = pd.Series(node).map(
        inc.groupby("node", sort=False)["n"].sum()).fillna(0) \
        .to_numpy(np.int64)
    e = edges.to_pandas()
    deg = pd.Series(node).map(
        e.groupby("src", sort=False).size()).fillna(0).to_numpy(np.int64)
    denom = deg * (deg - 1)
    coef = np.where(deg >= 2, 2.0 * tri / np.maximum(denom, 1), 0.0)
    return pa.table({
        "doc_id": node,
        "degree": deg,
        "n_tri": tri,
        "coef_q12": np.floor(coef * PR_QUANT + 0.5).astype(np.int64),
    })


def q_clustering(sf_dir: str):
    """Per-document local clustering coefficient over the synthetic
    link graph: (doc_id, degree, n_tri, coef_q12)."""
    import ray.data

    n, nodes, edges = _graph_shards(sf_dir)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "degree": pa.array([], pa.int64()),
            "n_tri": pa.array([], pa.int64()),
            "coef_q12": pa.array([], pa.int64())}))
    return ray.data.from_arrow_refs(gather(
        _coef_finish_impl, list(zip(nodes, edges)),
        _triangle_corners(n, edges)))


def sql_clustering() -> str:
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    return (
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents), "
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j)), "
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src), "
        "u AS (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0), "
        "adj AS (SELECT a AS v, b AS w FROM u "
        "UNION ALL SELECT b, a FROM u), "
        "dg AS (SELECT v, COUNT(*) AS c FROM adj GROUP BY v), "
        "w AS (SELECT u1.a, u1.b, u2.b AS c FROM u u1 "
        "JOIN u u2 ON u2.a = u1.a AND u2.b > u1.b), "
        "t AS (SELECT w.a, w.b, w.c FROM w "
        "JOIN u ON u.a = w.b AND u.b = w.c), "
        "corners AS (SELECT a AS v FROM t UNION ALL "
        "SELECT b FROM t UNION ALL SELECT c FROM t), "
        "pc AS (SELECT v, COUNT(*) AS n FROM corners GROUP BY v) "
        "SELECT dd.doc_id, "
        "CAST(COALESCE(dg.c, 0) AS BIGINT) AS degree, "
        "CAST(COALESCE(pc.n, 0) AS BIGINT) AS n_tri, "
        "CAST(FLOOR(CASE WHEN COALESCE(dg.c, 0) >= 2 THEN "
        "2.0 * COALESCE(pc.n, 0) / (dg.c * (dg.c - 1)) ELSE 0.0 END "
        "* 1e12 + 0.5) AS BIGINT) AS coef_q12 "
        "FROM documents dd "
        "LEFT JOIN dg ON dg.v = dd.doc_id "
        "LEFT JOIN pc ON pc.v = dd.doc_id"
    )


QUERIES["clustering_coef"] = q_clustering
ORACLES["clustering_coef"] = sql_clustering()


# ------------------------------------------------------------- TrustRank
#
# Seed-restricted PageRank (Gyongyi et al. 2004): teleport and dangling
# mass flow ONLY to a trusted seed set, so trust decays with link
# distance from the seeds — the classic link-spam demotion signal.
# Seeds here are the deterministic doc_id % TRUST_SEED_MOD == 0 slice
# (a stand-in for a curated whitelist).  Same scatter as PageRank
# (contributions don't care about the teleport vector); only the gather
# and the initial state differ.

TRUST_SEED_MOD = 25


def _tr_seed_impl(state, n_seeds):
    """Re-initialise a PageRank state shard for TrustRank: rank =
    seed indicator / n_seeds; the indicator rides as a column."""
    node = state.column("node").to_numpy().astype(np.int64)
    seed = (node % TRUST_SEED_MOD == 0).astype(np.int64)
    return pa.table({
        "node": node,
        "outdeg": state.column("outdeg"),
        "seed": seed,
        "rank": seed.astype(np.float64) / n_seeds,
    })


def _tr_gather_impl(state, inv_s, dang_total, *pieces):
    """Gather with the seed teleport vector: non-seeds receive only
    damped in-link mass."""
    inc = pa.concat_tables(pieces, promote_options="default").to_pandas()
    s = state.to_pandas()
    summed = inc.groupby("dst", sort=False)["s"].sum()
    base = s["node"].map(summed).fillna(0.0).to_numpy(np.float64)
    sv = s["seed"].to_numpy(np.float64) * inv_s
    r = (1.0 - PR_DAMPING) * sv + PR_DAMPING * (base + dang_total * sv)
    return pa.table({
        "node": s["node"].to_numpy(np.int64),
        "outdeg": s["outdeg"].to_numpy(np.int64),
        "seed": s["seed"].to_numpy(np.int64),
        "rank": r,
    })


def q_trustrank(sf_dir: str):
    """TrustRank scores over the synthetic link graph:
    (doc_id, is_seed, trust_q12) after PR_ITERS iterations."""
    import ray
    import ray.data

    n, nodes, edges, base_state, _inv_n = _directed_shards(_doc_ids(sf_dir))
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "is_seed": pa.array([], pa.int64()),
            "trust_q12": pa.array([], pa.int64())}))

    # global seed count: one int per bucket
    n_seeds = sum(ray.get([remote(_seed_count_impl).remote(v)
                           for v in nodes]))
    if n_seeds == 0:
        raise ValueError(
            f"TrustRank needs at least one seed "
            f"(doc_id % {TRUST_SEED_MOD} == 0)")
    inv_s = 1.0 / n_seeds
    state = [remote(_tr_seed_impl).remote(s, n_seeds) for s in base_state]
    state = _rank_rounds(n, edges, state, _tr_gather_impl, inv_s)

    def finish(t: pa.Table) -> pa.Table:
        r = t.column("rank").to_numpy()
        return pa.table({
            "doc_id": t.column("node"),
            "is_seed": t.column("seed"),
            "trust_q12": np.floor(r * PR_QUANT + 0.5).astype(np.int64),
        })

    return ray.data.from_arrow_refs(state).map_batches(
        finish, batch_format="pyarrow")


def _seed_count_impl(nodes):
    node = nodes.column("node").to_numpy().astype(np.int64)
    return int((node % TRUST_SEED_MOD == 0).sum())


def sql_trustrank() -> str:
    """Oracle: the PageRank chain with the seed teleport vector."""
    d = "CAST(0.85 AS DOUBLE)"
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    parts = [
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents)",
        f"ns AS (SELECT CAST(COUNT(*) AS DOUBLE) AS k FROM documents "
        f"WHERE doc_id % {TRUST_SEED_MOD} = 0)",
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j))",
        "e AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src)",
        "outd AS (SELECT dd.doc_id AS v, COUNT(e.src) AS c "
        "FROM documents dd LEFT JOIN e ON e.src = dd.doc_id "
        "GROUP BY dd.doc_id)",
        f"sv AS (SELECT dd.doc_id AS v, CASE WHEN dd.doc_id % "
        f"{TRUST_SEED_MOD} = 0 THEN 1.0/ns.k ELSE 0.0 END AS w "
        "FROM documents dd CROSS JOIN ns)",
        "r0 AS (SELECT v, w AS r FROM sv)",
    ]
    prev = "r0"
    for t in range(1, PR_ITERS + 1):
        parts.append(
            f"d{t} AS (SELECT COALESCE(SUM(p.r), 0.0) AS dm FROM {prev} p "
            f"JOIN outd o ON o.v = p.v WHERE o.c = 0)")
        parts.append(
            f"c{t} AS (SELECT e.dst AS v, SUM(p.r / o.c) AS s FROM e "
            f"JOIN {prev} p ON p.v = e.src JOIN outd o ON o.v = e.src "
            f"GROUP BY e.dst)")
        parts.append(
            f"r{t} AS (SELECT p.v, (1.0 - {d})*sv.w + {d}*"
            f"(COALESCE(c{t}.s, 0.0) + d{t}.dm*sv.w) AS r "
            f"FROM {prev} p CROSS JOIN d{t} "
            f"JOIN sv ON sv.v = p.v "
            f"LEFT JOIN c{t} ON c{t}.v = p.v)")
        prev = f"r{t}"
    parts.append(
        f"sel AS (SELECT p.v AS doc_id, "
        f"CAST(CASE WHEN p.v % {TRUST_SEED_MOD} = 0 THEN 1 ELSE 0 END "
        f"AS BIGINT) AS is_seed, "
        f"CAST(FLOOR(p.r * 1e12 + 0.5) AS BIGINT) AS trust_q12 "
        f"FROM {prev} p)")
    return ", ".join(parts) + " SELECT * FROM sel"


QUERIES["trustrank"] = q_trustrank
ORACLES["trustrank"] = sql_trustrank()


# ----------------------------------------------------------------- HITS

# Kleinberg's HITS (hubs and authorities) over the same directed link
# graph, run UNNORMALIZED: h0 = 1, then each round computes
# a_t(v) = sum of h_{t-1}(u) over in-edges (u -> v) followed by
# h_t(u) = sum of a_t(v) over out-edges (u -> v).  The canonical
# algorithm L2-normalizes every round; normalization is a positive
# scalar, so the RANKING is identical and skipping it keeps every score
# an exact int64 — the oracle is hash-exact instead of quantized (same
# documented-divergence convention as DSIR's linear likelihood ratio).
# With PR_LINKS out-links per page, scores grow like deg^(2*iters),
# far below 2^63 at HITS_ITERS=3.
#
# Distributed shape: the PageRank scatter/gather exchange run in BOTH
# directions — the a-step scatters h along forward edge shards (keyed
# by src bucket, built by _directed_shards), the h-step scatters a
# along reverse shards (keyed by dst bucket, built once at init with
# one extra routing wave).  Each step's exchange carries at most one
# combined row per (bucket, endpoint), never one per edge.

HITS_ITERS = 3


def _hits_ones_impl(nodes):
    node = nodes.column("node").to_numpy().astype(np.int64)
    return pa.table({"node": node, "v": np.ones(len(node), np.int64)})


def _hits_scatter_impl(n, edges, vals):
    """Per-edge contribution vals[src], map-side combined by dst,
    routed to the dst's home bucket."""
    e = edges.to_pandas()
    s = vals.to_pandas()
    m = e.merge(s, left_on="src", right_on="node", how="inner")
    contrib = (m.groupby("dst", sort=False, as_index=False)["v"].sum()
               .rename(columns={"dst": "to"}))
    return route(_cc_route(contrib["to"].to_numpy(np.int64), n), n,
                 pa.Table.from_pandas(contrib, preserve_index=False))


def _hits_gather_impl(nodes, *pieces):
    inc = pa.concat_tables(pieces, promote_options="default").to_pandas()
    node = nodes.column("node").to_numpy().astype(np.int64)
    summed = inc.groupby("to", sort=False)["v"].sum()
    v = pd.Series(node).map(summed).fillna(0).to_numpy(np.int64)
    return pa.table({"node": node, "v": v})


def _hits_finish_impl(h, a):
    hd = h.to_pandas().rename(columns={"v": "hub_score"})
    ad = a.to_pandas().rename(columns={"v": "auth_score"})
    out = hd.merge(ad, on="node")
    return pa.table({
        "doc_id": out["node"].to_numpy(np.int64),
        "hub_score": out["hub_score"].to_numpy(np.int64),
        "auth_score": out["auth_score"].to_numpy(np.int64)})


def q_hits(sf_dir: str):
    """(doc_id, hub_score, auth_score) after HITS_ITERS unnormalized
    rounds over the synthetic link graph."""
    import ray
    import ray.data

    n, nodes, edges, _state, _inv_n = _directed_shards(_doc_ids(sf_dir))
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "hub_score": pa.array([], pa.int64()),
            "auth_score": pa.array([], pa.int64())}))

    redges = exchange(_pr_reverse_impl, [(n, e) for e in edges],
                      _cc_concat_impl, [()] * n, n)
    per_node = [(v,) for v in nodes]
    h = [remote(_hits_ones_impl).remote(v) for v in nodes]
    a = None
    for _ in range(HITS_ITERS):
        a = exchange(_hits_scatter_impl,
                     [(n, e, x) for e, x in zip(edges, h)],
                     _hits_gather_impl, per_node, n)
        h = exchange(_hits_scatter_impl,
                     [(n, e, x) for e, x in zip(redges, a)],
                     _hits_gather_impl, per_node, n)
    fin = [remote(_hits_finish_impl).remote(x, y) for x, y in zip(h, a)]
    return ray.data.from_arrow_refs(fin)


def sql_hits() -> str:
    """Full-chain integer oracle: edge synthesis + every (a, h) round
    as chained CTEs — all BIGINT, hash-exact."""
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    parts = [
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents)",
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j))",
        "e AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src)",
        "h0 AS (SELECT doc_id AS v, CAST(1 AS BIGINT) AS x "
        "FROM documents)",
    ]
    prev_h = "h0"
    for t in range(1, HITS_ITERS + 1):
        parts.append(
            f"a{t} AS (SELECT dd.doc_id AS v, "
            f"CAST(COALESCE(SUM(p.x), 0) AS BIGINT) AS x "
            f"FROM documents dd LEFT JOIN e ON e.dst = dd.doc_id "
            f"LEFT JOIN {prev_h} p ON p.v = e.src GROUP BY dd.doc_id)")
        parts.append(
            f"h{t} AS (SELECT dd.doc_id AS v, "
            f"CAST(COALESCE(SUM(q.x), 0) AS BIGINT) AS x "
            f"FROM documents dd LEFT JOIN e ON e.src = dd.doc_id "
            f"LEFT JOIN a{t} q ON q.v = e.dst GROUP BY dd.doc_id)")
        prev_h = f"h{t}"
    parts.append(
        f"sel AS (SELECT h.v AS doc_id, h.x AS hub_score, "
        f"q.x AS auth_score FROM h{HITS_ITERS} h "
        f"JOIN a{HITS_ITERS} q ON q.v = h.v)")
    return ", ".join(parts) + " SELECT * FROM sel"


QUERIES["hits"] = q_hits
ORACLES["hits"] = sql_hits()


# ---------------------------------- label-propagation communities (LPA)
#
# Synchronous deterministic label propagation (Raghavan et al. 2007,
# made order-free): label_0(v) = v; each round every node adopts the
# most frequent label among its neighbors, ties -> smallest label,
# isolated nodes keep their label.  LPA_ITERS fixed rounds (the
# deterministic synchronous variant — the classic async sweep is
# order-dependent and unreproducible across cluster sizes).
#
# Shape per round = ONE scatter/gather exchange on the shared
# undirected shards: each bucket joins its local labels to its local
# edges, MAP-SIDE COMBINES (dst, lab) counts before routing (the wire
# carries one row per distinct (dst, neighbor-label), not one per
# edge), and the gather picks argmax-with-min-tie per node.  Driver
# holds only refs; state is O(nodes/bucket).

LPA_ITERS = 3


def _lpa_init_impl(nodes):
    v = nodes.column("node").to_numpy().astype(np.int64)
    return pa.table({"v": pa.array(v), "lab": pa.array(v)})


def _lpa_scatter_impl(n, edges, labels):
    """Emit this bucket's neighbor-label count partials, routed by
    bucket(dst)."""
    src = edges.column("src").to_numpy().astype(np.int64)
    dst = edges.column("dst").to_numpy().astype(np.int64)
    v = labels.column("v").to_numpy().astype(np.int64)
    lab = labels.column("lab").to_numpy().astype(np.int64)
    order = np.argsort(v)
    slab = lab[order][np.searchsorted(v[order], src)]
    df = (pd.DataFrame({"dst": dst, "lab": slab})
          .groupby(["dst", "lab"], sort=False).size()
          .reset_index(name="c"))
    return route(_cc_route(df["dst"].to_numpy(np.int64), n), n,
                 pa.Table.from_pandas(df, preserve_index=False))


def _lpa_gather_impl(labels, *pieces):
    """Sum count partials, adopt argmax label (ties -> min), keep the
    old label where no neighbor row arrived."""
    v = labels.column("v").to_numpy().astype(np.int64)
    lab = labels.column("lab").to_numpy().astype(np.int64)
    inc = pa.concat_tables(pieces, promote_options="default").to_pandas()
    if inc.empty:
        return pa.table({"v": pa.array(v), "lab": pa.array(lab)})
    cnt = (inc.groupby(["dst", "lab"], sort=False)["c"].sum()
           .reset_index())
    pick = (cnt.sort_values(["dst", "c", "lab"],
                            ascending=[True, False, True], kind="stable")
            .drop_duplicates("dst").set_index("dst")["lab"])
    new = pd.Series(v).map(pick)
    out = np.where(new.notna(), new.fillna(0).to_numpy(np.int64), lab)
    return pa.table({"v": pa.array(v), "lab": pa.array(out)})


def q_label_prop(sf_dir: str):
    """LPA communities over the synthetic link graph: (doc_id,
    community) after LPA_ITERS synchronous rounds."""
    import ray
    import ray.data

    n, nodes, edges = _graph_shards(sf_dir)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "community": pa.array([], pa.int64())}))
    labels = [remote(_lpa_init_impl).remote(v) for v in nodes]
    for _ in range(LPA_ITERS):
        labels = exchange(_lpa_scatter_impl,
                          [(n, e, lab) for e, lab in zip(edges, labels)],
                          _lpa_gather_impl, [(lab,) for lab in labels], n)
    out = [remote(_lpa_out_impl).remote(lab) for lab in labels]
    return ray.data.from_arrow_refs(out)


def _lpa_out_impl(labels):
    return pa.table({"doc_id": labels.column("v"),
                     "community": labels.column("lab")})


def sql_label_prop() -> str:
    """Full-chain oracle: synthesis + existence semi-join + undirected
    dedup, then LPA_ITERS rounds as chained CTEs (count -> ROW_NUMBER
    argmax with min-label ties -> COALESCE keep)."""
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    parts = [
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents)",
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j))",
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src)",
        "u AS (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0)",
        "e AS (SELECT a AS s, b AS d FROM u "
        "UNION ALL SELECT b, a FROM u)",
        "l0 AS (SELECT doc_id AS v, doc_id AS lab FROM documents)",
    ]
    for t in range(1, LPA_ITERS + 1):
        p = t - 1
        parts.append(
            f"c{t} AS (SELECT e.d AS v, l{p}.lab, COUNT(*) AS c "
            f"FROM e JOIN l{p} ON l{p}.v = e.s GROUP BY 1, 2)")
        parts.append(
            f"p{t} AS (SELECT v, lab FROM (SELECT v, lab, ROW_NUMBER() "
            "OVER (PARTITION BY v ORDER BY c DESC, lab) AS rn "
            f"FROM c{t}) WHERE rn = 1)")
        parts.append(
            f"l{t} AS (SELECT l{p}.v, COALESCE(p{t}.lab, l{p}.lab) "
            f"AS lab FROM l{p} LEFT JOIN p{t} ON p{t}.v = l{p}.v)")
    return (", ".join(parts)
            + f" SELECT v AS doc_id, CAST(lab AS BIGINT) AS community "
              f"FROM l{LPA_ITERS}")


QUERIES["label_prop"] = q_label_prop
ORACLES["label_prop"] = sql_label_prop()


# ------------------------------------ multi-source BFS hop distance
#
# Distance (in hops) from the nearest seed page over the undirected
# link graph, BFS_ROUNDS bounded — the curation primitive behind
# "within k clicks of a trusted seed" filters (the seed-proximity
# cousin of TrustRank's teleport restriction).  Each round scatters
# ONLY the current frontier (nodes first labeled last round) along
# local edge shards — per-round traffic is O(frontier edges), the
# textbook distributed BFS — and the gather labels still-unreached
# nodes.  Unreached after BFS_ROUNDS -> dist = -1.

BFS_ROUNDS = 4
BFS_SEED_MOD = 97     # seeds: doc_id % BFS_SEED_MOD == 0


def _bfs_init_impl(nodes):
    v = nodes.column("node").to_numpy().astype(np.int64)
    dist = np.where(v % BFS_SEED_MOD == 0, 0, -1).astype(np.int64)
    return pa.table({"v": pa.array(v), "dist": pa.array(dist)})


def _bfs_scatter_impl(n, rnd, edges, state):
    """Route (dst) frontier expansions: only edges whose src was first
    labeled in round rnd-1 fire."""
    src = edges.column("src").to_numpy().astype(np.int64)
    dst = edges.column("dst").to_numpy().astype(np.int64)
    v = state.column("v").to_numpy().astype(np.int64)
    dist = state.column("dist").to_numpy().astype(np.int64)
    order = np.argsort(v)
    sdist = dist[order][np.searchsorted(v[order], src)]
    hit = np.unique(dst[sdist == rnd - 1])
    return route(_cc_route(hit, n), n, {"dst": hit})


def _bfs_gather_impl(rnd, state, *pieces):
    v = state.column("v").to_numpy().astype(np.int64)
    dist = state.column("dist").to_numpy().astype(np.int64)
    inc = pa.concat_tables(pieces, promote_options="default")
    if inc.num_rows:
        reached = np.unique(inc.column("dst").to_numpy().astype(np.int64))
        # bucket node order is arbitrary — membership via isin
        m = np.isin(v, reached) & (dist == -1)
        dist = np.where(m, rnd, dist)
    return pa.table({"v": pa.array(v), "dist": pa.array(dist)})


def q_bfs_dist(sf_dir: str):
    """(doc_id, dist): hop distance to the nearest seed page
    (doc_id % BFS_SEED_MOD == 0) within BFS_ROUNDS, else -1."""
    import ray
    import ray.data

    n, nodes, edges = _graph_shards(sf_dir)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int64())}))
    state = [remote(_bfs_init_impl).remote(v) for v in nodes]
    for rnd in range(1, BFS_ROUNDS + 1):
        state = exchange(_bfs_scatter_impl,
                         [(n, rnd, e, st) for e, st in zip(edges, state)],
                         _bfs_gather_impl, [(rnd, st) for st in state], n)
    out = [remote(_bfs_out_impl).remote(st) for st in state]
    return ray.data.from_arrow_refs(out)


def _bfs_out_impl(state):
    return pa.table({"doc_id": state.column("v"),
                     "dist": state.column("dist")})


def sql_bfs_dist() -> str:
    """Chained-CTE oracle: d0 = seeds, each round labels unreached
    nodes adjacent to the previous frontier."""
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    parts = [
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents)",
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j))",
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src)",
        "u AS (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0)",
        "e AS (SELECT a AS s, b AS d FROM u "
        "UNION ALL SELECT b, a FROM u)",
        "d0 AS (SELECT doc_id AS v, CASE WHEN doc_id % "
        f"{BFS_SEED_MOD} = 0 THEN 0 END AS dist FROM documents)",
    ]
    for t in range(1, BFS_ROUNDS + 1):
        p = t - 1
        parts.append(
            f"f{t} AS (SELECT DISTINCT e.d AS v FROM e "
            f"JOIN d{p} ON d{p}.v = e.s WHERE d{p}.dist = {p})")
        parts.append(
            f"d{t} AS (SELECT d{p}.v, COALESCE(d{p}.dist, "
            f"CASE WHEN f{t}.v IS NOT NULL THEN {t} END) AS dist "
            f"FROM d{p} LEFT JOIN f{t} ON f{t}.v = d{p}.v)")
    return (", ".join(parts)
            + " SELECT v AS doc_id, CAST(COALESCE(dist, -1) AS BIGINT) "
              f"AS dist FROM d{BFS_ROUNDS}")


QUERIES["bfs_dist"] = q_bfs_dist
ORACLES["bfs_dist"] = sql_bfs_dist()


# ------------------------- weakly-connected components (pointer doubling)
#
# WCC of the synthetic link graph via the shared pointer-doubling CC
# machinery (queries_curate.cc_label_refs — the same engine the LSH
# dedup clustering and DBSCAN run on): O(log diameter) rounds, labels
# hold the minimum reachable doc_id.  This exercises the reusable CC
# helper on a THIRD edge source and gives the link graph its component
# catalog (the "which crawl islands exist" question).

def q_graph_cc(sf_dir: str):
    """(doc_id, component, is_canonical) over the link graph."""
    import ray
    import ray.data

    from .queries_curate import cc_label_refs

    _n, _nodes, edges = _graph_shards(sf_dir)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64()),
            "is_canonical": pa.array([], pa.int64())}))
    pairs_ds = ray.data.from_arrow_refs(
        [remote(_cc_canon_impl).remote(e) for e in edges])
    label_refs = cc_label_refs(pairs_ds, _doc_ids(sf_dir))
    out = [remote(_cc_out_impl).remote(r) for r in label_refs]
    return ray.data.from_arrow_refs(out)


def _cc_canon_impl(edges):
    """Bucket edges -> canonical a < b pairs (dedup per bucket; the
    reverse direction lives in another bucket and dedups there)."""
    src = edges.column("src").to_numpy().astype(np.int64)
    dst = edges.column("dst").to_numpy().astype(np.int64)
    m = src < dst
    df = pd.DataFrame({"a": src[m], "b": dst[m]}).drop_duplicates()
    return pa.Table.from_pandas(df, preserve_index=False)


def _cc_out_impl(labels):
    node = labels.column("node").to_numpy().astype(np.int64)
    lab = labels.column("label").to_numpy().astype(np.int64)
    return pa.table({"doc_id": pa.array(node),
                     "component": pa.array(lab),
                     "is_canonical": pa.array(
                         (node == lab).astype(np.int64))})


def sql_graph_cc() -> str:
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    return (
        "WITH RECURSIVE m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) "
        "AS md FROM documents), "
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j)), "
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src), "
        "e AS (SELECT src, dst FROM e0 "
        "UNION SELECT dst, src FROM e0), "
        "walk(node, lab) AS ("
        "SELECT doc_id, doc_id FROM documents "
        "UNION "
        "SELECT e.dst, w.lab FROM walk w JOIN e ON e.src = w.node) "
        "SELECT node AS doc_id, MIN(lab) AS component, "
        "CAST(node = MIN(lab) AS BIGINT) AS is_canonical "
        "FROM walk GROUP BY node"
    )


QUERIES["graph_cc"] = q_graph_cc
ORACLES["graph_cc"] = sql_graph_cc()


# ------------------------------------------------ k-core decomposition
#
# The k-core (the maximal subgraph where every node keeps degree >= K)
# is the standard graph-level spam/quality screen for web corpora: link
# farms and isolated boilerplate clusters peel off, the densely
# interlinked "core web" survives.  Computed by synchronous peeling:
# each round removes EVERY node whose degree in the surviving subgraph
# is < K, KCORE_ROUNDS rounds (the reference's bounded iterative shape,
# calcqts/resortwaynodes.go:767-824's fixed relation rounds; semantics
# are exactly "after R synchronous rounds", which the oracle replays as
# chained CTEs round for round).
#
# The near-regular PR_LINKS graph has a degenerate cascade (everything
# is degree ~8), so the k-core graph uses a VARIABLE out-degree
# synthesis: node src emits 1 + (src % 7) candidate links — degree
# spread 3..13, a 4-round cascade to a 442-node 5-core at sf0.01.
#
# Distributed shape: one exchange wave per round, O(edges of peeled
# nodes) traffic — when node v dies, its home bucket ships one (w, v)
# tombstone per surviving edge to w's bucket; buckets keep the
# invariant "edge shard == edges of the CURRENT alive subgraph", so
# per-round degree recount is a local groupby.  Driver holds only
# object refs.

KCORE_K = 5
KCORE_ROUNDS = 4
KC_LINKS = 7   # j < 1 + src % KC_LINKS


def _kc_cand_impl(n, mod, shard):
    """Variable-out-degree candidates: node src emits links for
    j in [0, 1 + src % KC_LINKS), routed to the dst's home bucket."""
    node = shard.column("node").to_numpy().astype(np.int64)
    reps = (1 + node % KC_LINKS).astype(np.int64)
    src = np.repeat(node, reps)
    # j index within each node's run: arange minus run start offsets
    ends = np.cumsum(reps)
    starts = ends - reps
    j = np.arange(int(ends[-1]) if len(ends) else 0,
                  dtype=np.int64) - np.repeat(starts, reps)
    dst = (src * _A + j * _B + _C) % mod
    keep = dst != src
    src, dst = src[keep], dst[keep]
    return route(_cc_route(dst, n), n, {"src": src, "dst": dst})


def _kc_init_impl(nodes):
    """alive starts as the full node shard, in the peel schema."""
    return pa.table({"v": nodes.column("node")})


def _kc_peel_impl(n, k, edges, alive):
    """One peel round for one bucket: find local nodes whose current
    degree is < k, drop their rows, and ship (w, v) tombstones to each
    surviving neighbour w's bucket.  Returns (new_alive, new_edges,
    n_dead, tombstones x n)."""
    v = alive.column("v").to_numpy().astype(np.int64)
    src = edges.column("src").to_numpy().astype(np.int64)
    dst = edges.column("dst").to_numpy().astype(np.int64)
    deg = pd.Series(src).value_counts()
    dv = pd.Series(v).map(deg).fillna(0).to_numpy(np.int64)
    dead_mask = dv < k
    dead = v[dead_mask]
    sdead = np.sort(dead)
    # rows whose src died leave this shard; their dst get tombstones
    pos = np.searchsorted(sdead, src)
    pos[pos == len(sdead)] = 0
    edge_dead = (len(sdead) > 0) & (sdead[pos] == src) \
        if len(sdead) else np.zeros(len(src), bool)
    tomb_w, tomb_v = dst[edge_dead], src[edge_dead]
    new_alive = pa.table({"v": v[~dead_mask]})
    new_edges = pa.table({"src": src[~edge_dead], "dst": dst[~edge_dead]})
    return (new_alive, new_edges, int(dead_mask.sum())) + route(
        _cc_route(tomb_w, n), n, {"w": tomb_w, "v": tomb_v})


def _kc_prune_impl(edges, *tombs):
    """Apply incoming tombstones: drop rows (src=w, dst=v)."""
    t = pa.concat_tables(tombs, promote_options="default")
    if t.num_rows == 0:
        return edges
    src = edges.column("src").to_numpy().astype(np.int64)
    dst = edges.column("dst").to_numpy().astype(np.int64)
    w = t.column("w").to_numpy().astype(np.int64)
    v = t.column("v").to_numpy().astype(np.int64)
    # pair membership via a single int128-free composite: both ids are
    # node ids < 2^31 here, but stay safe with a structured sort
    key_e = pd.MultiIndex.from_arrays([src, dst])
    key_t = pd.MultiIndex.from_arrays([w, v])
    drop = key_e.isin(key_t)
    return pa.table({"src": src[~drop], "dst": dst[~drop]})


def _kc_out_impl(edges, alive):
    """Survivors with their induced degree after the final round."""
    v = alive.column("v").to_numpy().astype(np.int64)
    src = edges.column("src").to_numpy().astype(np.int64)
    deg = pd.Series(src).value_counts()
    dv = pd.Series(v).map(deg).fillna(0).to_numpy(np.int64)
    return pa.table({"doc_id": pa.array(v), "core_deg": pa.array(dv)})


def q_kcore(sf_dir: str):
    """Nodes surviving KCORE_ROUNDS synchronous peel rounds at
    K=KCORE_K over the variable-degree link graph, with their induced
    degree: (doc_id, core_deg)."""
    import ray
    import ray.data

    n, nodes, edges = _graph_shards(sf_dir, cand=_kc_cand_impl)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "core_deg": pa.array([], pa.int64())}))
    alive = [remote(_kc_init_impl).remote(v) for v in nodes]
    for _ in range(KCORE_ROUNDS):
        sides, tombs = scatter(
            _kc_peel_impl,
            [(n, KCORE_K, e, al) for e, al in zip(edges, alive)], n, side=3)
        alive = [sd[0] for sd in sides]
        edges = gather(_kc_prune_impl, [(sd[1],) for sd in sides], tombs)
    out = [remote(_kc_out_impl).remote(e, al)
           for e, al in zip(edges, alive)]
    return ray.data.from_arrow_refs(out)


def sql_kcore() -> str:
    """Full-chain oracle: variable-degree synthesis + existence
    semi-join + undirected dedup, then KCORE_ROUNDS peel rounds as
    chained CTEs (alive_t = nodes with induced degree >= K)."""
    js = ", ".join(f"({j})" for j in range(KC_LINKS))
    parts = [
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents)",
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j) "
        f"WHERE j.j < 1 + dd.doc_id % {KC_LINKS})",
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src)",
        "u AS (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0)",
        "e AS (SELECT a AS s, b AS d FROM u "
        "UNION ALL SELECT b, a FROM u)",
        "a0 AS (SELECT doc_id AS v FROM documents)",
    ]
    for t in range(1, KCORE_ROUNDS + 1):
        p = t - 1
        parts.append(
            f"d{t} AS (SELECT e.s AS v, COUNT(*) AS c FROM e "
            f"JOIN a{p} x ON x.v = e.s JOIN a{p} y ON y.v = e.d "
            f"GROUP BY e.s)")
        parts.append(
            f"a{t} AS (SELECT v FROM d{t} WHERE c >= {KCORE_K})")
    r = KCORE_ROUNDS
    return (
        ", ".join(parts)
        + f", df AS (SELECT e.s AS v, COUNT(*) AS c FROM e "
          f"JOIN a{r} x ON x.v = e.s JOIN a{r} y ON y.v = e.d "
          f"GROUP BY e.s) "
          f"SELECT a.v AS doc_id, CAST(COALESCE(df.c, 0) AS BIGINT) "
          f"AS core_deg FROM a{r} a LEFT JOIN df ON df.v = a.v"
    )


QUERIES["kcore"] = q_kcore
ORACLES["kcore"] = sql_kcore()


# ------------------------------------------------ anchor-text rollup
#
# Per-target inlink anchor aggregation — the classic web-graph signal
# (anchor text is the strongest external label a page gets; search and
# curation pipelines aggregate it per target before quality scoring).
# Anchors derive deterministically from the edge itself
# (VOCAB[(src*3 + dst) % 16]) so the DuckDB oracle rebuilds identical
# strings.  Shape: the directed edge shards (already existence-checked
# and deduped) -> per-batch anchor derivation -> ONE exchange keyed by
# dst with (dst, anchor) map-side count combine, so the shuffle moves
# O(distinct (dst, anchor)) rows; the reduce emits per-target inlink
# count, distinct-anchor count and the modal anchor (min-string ties).

ANCHOR_VOCAB = (
    "home", "news", "blog", "docs", "about", "shop", "wiki", "forum",
    "login", "search", "images", "video", "maps", "mail", "code",
    "data",
)


def q_anchor_agg(sf_dir: str):
    """(doc_id, n_inlinks, n_anchors, top_anchor) for every page with
    at least one inlink."""
    import ray
    import ray.data

    from ..stages.shuffle import bucketed_apply

    _n, _nodes, fwd, _state, _inv_n = _directed_shards(_doc_ids(sf_dir))
    if fwd is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_inlinks": pa.array([], pa.int64()),
            "n_anchors": pa.array([], pa.int64()),
            "top_anchor": pa.array([], pa.string())}))
    vocab = np.asarray(ANCHOR_VOCAB, dtype=object)

    def add_anchor(b: pa.Table) -> pa.Table:
        src = b.column("src").to_numpy().astype(np.int64)
        dst = b.column("dst").to_numpy().astype(np.int64)
        anchor = vocab[(src * 3 + dst) % len(vocab)]
        return pa.table({"dst": pa.array(dst),
                         "anchor": pa.array(anchor, pa.string())})

    pairs = ray.data.from_arrow_refs(fwd).map_batches(
        add_anchor, batch_format="pyarrow")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["dst", "anchor"], sort=False, as_index=False)
                .size().rename(columns={"size": "c"}))

    def reduce_fn(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (g.groupby(["dst", "anchor"], sort=False, as_index=False)
               ["c"].sum())
        tot = cnt.groupby("dst", as_index=False).agg(
            n_inlinks=("c", "sum"), n_anchors=("anchor", "size"))
        top = (cnt.sort_values(["dst", "c", "anchor"],
                               ascending=[True, False, True],
                               kind="stable")
               .drop_duplicates("dst")[["dst", "anchor"]]
               .rename(columns={"anchor": "top_anchor"}))
        return tot.merge(top, on="dst")

    out = bucketed_apply(pairs, ["dst"], reduce_fn, combine=combine)
    return out.map_batches(
        lambda b: pa.table({
            "doc_id": pa.compute.cast(b.column("dst"), pa.int64()),
            "n_inlinks": pa.compute.cast(b.column("n_inlinks"),
                                         pa.int64()),
            "n_anchors": pa.compute.cast(b.column("n_anchors"),
                                         pa.int64()),
            "top_anchor": b.column("top_anchor"),
        }), batch_format="pyarrow")


def sql_anchor_agg() -> str:
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    vocab = ", ".join(f"'{w}'" for w in ANCHOR_VOCAB)
    return (
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents), "
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j)), "
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src), "
        f"a AS (SELECT dst, [{vocab}]"
        f"[CAST((src*3 + dst) % {len(ANCHOR_VOCAB)} AS BIGINT) + 1] "
        "AS anchor FROM e0), "
        "g AS (SELECT dst, anchor, COUNT(*) AS c FROM a GROUP BY 1, 2), "
        "r AS (SELECT dst, anchor, ROW_NUMBER() OVER (PARTITION BY dst "
        "ORDER BY c DESC, anchor) AS rn FROM g), "
        "s AS (SELECT dst, CAST(SUM(c) AS BIGINT) AS n_inlinks, "
        "CAST(COUNT(*) AS BIGINT) AS n_anchors FROM g GROUP BY dst) "
        "SELECT s.dst AS doc_id, s.n_inlinks, s.n_anchors, "
        "r.anchor AS top_anchor FROM s JOIN r ON r.dst = s.dst "
        "AND r.rn = 1"
    )


QUERIES["anchor_agg"] = q_anchor_agg
ORACLES["anchor_agg"] = sql_anchor_agg()


# ------------------------------------------------ random-walk sampling
#
# DeepWalk/node2vec-style walk corpus generation — the sampling
# primitive behind graph embeddings.  Walks are DETERMINISTIC: from
# node v at step t the walker moves to the neighbour u minimizing
# md5_number_lower(v || ':' || t || ':' || u) (min-hash choice — an
# unbiased pseudo-random pick both engines can replay exactly; ties
# break by min u).  One scatter/gather exchange per step, O(frontier
# edges) traffic: walk states route to the current node's home bucket,
# join the LOCAL edge shard, argmin per walk, route to the next node's
# bucket.  Dead-end walks (isolated seeds) simply stop.  Output is the
# walk corpus (start, step, node), steps 0..WALK_STEPS.

WALK_STEPS = 4
WALK_SEED_MOD = 25


def _rw_seed_impl(nodes):
    v = nodes.column("node").to_numpy().astype(np.int64)
    s = v[v % WALK_SEED_MOD == 0]
    return pa.table({"start": pa.array(s), "cur": pa.array(s)})


def _rw_seed_out_impl(walks):
    return pa.table({
        "start": walks.column("start"),
        "step": pa.array(np.zeros(walks.num_rows, np.int64)),
        "node": walks.column("cur")})


def _rw_step_impl(n, t, edges, walks):
    """One walk step for one bucket: candidates = local edges from each
    walk's cur node; pick the min-hash neighbour per walk; route the
    advanced state to bucket(next).  Returns (out_rows, states x n)."""
    src = edges.column("src").to_numpy().astype(np.int64)
    dst = edges.column("dst").to_numpy().astype(np.int64)
    start = walks.column("start").to_numpy().astype(np.int64)
    cur = walks.column("cur").to_numpy().astype(np.int64)
    e = pd.DataFrame({"cur": src, "nxt": dst})
    w = pd.DataFrame({"start": start, "cur": cur})
    cand = w.merge(e, on="cur", how="inner")
    if len(cand):
        key = (cand["cur"].astype(str) + ":" + str(t) + ":"
               + cand["nxt"].astype(str))
        codes, uniq = pd.factorize(key, sort=False)
        from .queries_text import _md5_lower64

        cand = cand.assign(h=_md5_lower64(list(uniq))[codes])
        pick = (cand.sort_values(["start", "h", "nxt"], kind="stable")
                .drop_duplicates("start"))
    else:
        pick = cand.assign(h=np.zeros(0, np.uint64))
    out = pa.table({
        "start": pa.array(pick["start"].to_numpy(np.int64)),
        "step": pa.array(np.full(len(pick), t, np.int64)),
        "node": pa.array(pick["nxt"].to_numpy(np.int64))})
    nxt = pick["nxt"].to_numpy(np.int64)
    st = pick["start"].to_numpy(np.int64)
    return (out,) + route(_cc_route(nxt, n), n, {"start": st, "cur": nxt})


def q_random_walks(sf_dir: str):
    """Deterministic min-hash walk corpus: (start, step, node)."""
    import ray
    import ray.data

    n, nodes, edges = _graph_shards(sf_dir)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "start": pa.array([], pa.int64()),
            "step": pa.array([], pa.int64()),
            "node": pa.array([], pa.int64())}))
    walks = [remote(_rw_seed_impl).remote(v) for v in nodes]
    outs = [remote(_rw_seed_out_impl).remote(w) for w in walks]
    for t in range(1, WALK_STEPS + 1):
        rows, walks = exchange(
            _rw_step_impl, [(n, t, e, w) for e, w in zip(edges, walks)],
            _cc_concat_impl, [()] * n, n, side=1)
        outs.extend(r for r, in rows)
    return ray.data.from_arrow_refs(outs)


def sql_random_walks() -> str:
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    parts = [
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents)",
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j))",
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src)",
        "u AS (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0)",
        "e AS (SELECT a AS s, b AS d FROM u "
        "UNION ALL SELECT b, a FROM u)",
        "w0 AS (SELECT doc_id AS start, CAST(doc_id AS BIGINT) AS cur "
        f"FROM documents WHERE doc_id % {WALK_SEED_MOD} = 0)",
    ]
    for t in range(1, WALK_STEPS + 1):
        p = t - 1
        parts.append(
            f"c{t} AS (SELECT w.start, e.d AS nxt, md5_number_lower("
            f"CAST(w.cur AS VARCHAR) || ':{t}:' || "
            f"CAST(e.d AS VARCHAR)) AS h "
            f"FROM w{p} w JOIN e ON e.s = w.cur)")
        parts.append(
            f"w{t} AS (SELECT start, nxt AS cur FROM (SELECT start, "
            f"nxt, ROW_NUMBER() OVER (PARTITION BY start "
            f"ORDER BY h, nxt) AS rn FROM c{t}) WHERE rn = 1)")
    steps = ["SELECT start, 0 AS step, cur AS node FROM w0"] + [
        f"SELECT start, {t} AS step, cur AS node FROM w{t}"
        for t in range(1, WALK_STEPS + 1)]
    return (", ".join(parts) + " SELECT start, CAST(step AS BIGINT) "
            "AS step, node FROM (" + " UNION ALL ".join(steps) + ")")


QUERIES["random_walks"] = q_random_walks
ORACLES["random_walks"] = sql_random_walks()


# ------------------------- weighted SSSP (frontier-relaxed Bellman-Ford)
#
# Weighted shortest-path distance from the nearest seed page over the
# undirected link graph — the weighted generalization of ``bfs_dist``
# (hop counts become integer edge costs; think crawl-latency or
# link-trust costs).  Each undirected edge {a, b} (a < b) carries the
# deterministic integer weight ``1 + (a*31 + b*17) % SSSP_WMOD`` so the
# whole computation is int64-exact.  ``SSSP_ROUNDS`` synchronous
# Bellman-Ford rounds compute the exact minimum over all paths of at
# most SSSP_ROUNDS edges (the bounded-round contract, same as
# ``bfs_dist``/``label_prop``); unreached after that -> dist = -1.
#
# Distributed shape (delta-stepping's core optimization on the shared
# scatter/gather exchange): each round scatters ONLY the frontier —
# nodes whose distance IMPROVED last round — along local edge shards,
# MAP-SIDE COMBINES candidate distances by dst (min per dst before
# routing), and the gather keeps the elementwise min and recomputes
# the improved mask.  Skipping non-improved nodes is lossless: a
# node's previous relaxations used the same (unchanged) distance, and
# min() accumulates.  Per-round traffic is O(frontier edges), state
# is O(nodes/bucket), the driver holds only object refs.

SSSP_ROUNDS = 4
SSSP_SEED_MOD = 89        # seeds: doc_id % SSSP_SEED_MOD == 0
SSSP_WMOD = 9             # edge weights 1..SSSP_WMOD
SSSP_INF = np.int64(2) ** 62


def _sssp_weight(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic undirected edge weight in 1..SSSP_WMOD (endpoint
    order-free: keyed on (min, max))."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return 1 + (lo * 31 + hi * 17) % SSSP_WMOD


def _sssp_init_impl(nodes):
    v = nodes.column("node").to_numpy().astype(np.int64)
    seed = v % SSSP_SEED_MOD == 0
    dist = np.where(seed, 0, SSSP_INF).astype(np.int64)
    return pa.table({"v": pa.array(v), "dist": pa.array(dist),
                     "live": pa.array(seed)})


def _sssp_scatter_impl(n, edges, state):
    """Relax this bucket's frontier (live) nodes along local edges:
    candidate dist[src] + w(src, dst), min-combined per dst, routed to
    the dst's home bucket."""
    src = edges.column("src").to_numpy().astype(np.int64)
    dst = edges.column("dst").to_numpy().astype(np.int64)
    v = state.column("v").to_numpy().astype(np.int64)
    dist = state.column("dist").to_numpy().astype(np.int64)
    live = state.column("live").to_numpy()
    order = np.argsort(v)
    pos = np.searchsorted(v[order], src)
    sdist = dist[order][pos]
    slive = live[order][pos]
    fire = slive
    if not fire.any():
        return tuple(pa.table({"dst": pa.array([], pa.int64()),
                               "nd": pa.array([], pa.int64())})
                     for _ in range(n))
    d = dst[fire]
    nd = sdist[fire] + _sssp_weight(src[fire], d)
    comb = (pd.DataFrame({"dst": d, "nd": nd})
            .groupby("dst", sort=False, as_index=False)["nd"].min())
    return route(_cc_route(comb["dst"].to_numpy(), n), n,
                 pa.Table.from_pandas(comb, preserve_index=False))


def _sssp_gather_impl(state, *pieces):
    v = state.column("v").to_numpy().astype(np.int64)
    dist = state.column("dist").to_numpy().astype(np.int64)
    inc = pa.concat_tables(
        [p for p in pieces if p.num_rows], promote_options="default") \
        if any(p.num_rows for p in pieces) else None
    new = dist.copy()
    if inc is not None:
        comb = (inc.to_pandas()
                .groupby("dst", sort=False, as_index=False)["nd"].min())
        order = np.argsort(v)
        sv = v[order]
        cd = comb["dst"].to_numpy(np.int64)
        pos = np.searchsorted(sv, cd)
        # every routed dst exists in this bucket by construction
        idx = order[pos]
        np.minimum.at(new, idx, comb["nd"].to_numpy(np.int64))
    return pa.table({"v": pa.array(v), "dist": pa.array(new),
                     "live": pa.array(new < dist)})


def _sssp_out_impl(state):
    dist = state.column("dist").to_numpy().astype(np.int64)
    return pa.table({
        "doc_id": state.column("v"),
        "dist": pa.array(np.where(dist >= SSSP_INF, -1, dist)),
    })


def q_sssp(sf_dir: str):
    """(doc_id, dist): weighted shortest-path cost to the nearest seed
    page (doc_id % SSSP_SEED_MOD == 0) over paths of at most
    SSSP_ROUNDS edges, else -1."""
    import ray
    import ray.data

    n, nodes, edges = _graph_shards(sf_dir)
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int64())}))
    state = [remote(_sssp_init_impl).remote(v) for v in nodes]
    for _ in range(SSSP_ROUNDS):
        state = exchange(_sssp_scatter_impl,
                         [(n, e, st) for e, st in zip(edges, state)],
                         _sssp_gather_impl, [(st,) for st in state], n)
    out = [remote(_sssp_out_impl).remote(st) for st in state]
    return ray.data.from_arrow_refs(out)


def sql_sssp() -> str:
    """Chained-CTE Bellman-Ford oracle: d0 = seeds at 0, each round
    d_t = min(d_{t-1}, min over edges d_{t-1}[src] + w)."""
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    parts = [
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents)",
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j))",
        "e0 AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src)",
        "u AS (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0)",
        f"uw AS (SELECT a, b, 1 + (a*31 + b*17) % {SSSP_WMOD} AS w "
        "FROM u)",
        "e AS (SELECT a AS s, b AS d, w FROM uw "
        "UNION ALL SELECT b, a, w FROM uw)",
        "d0 AS (SELECT doc_id AS v, CASE WHEN doc_id % "
        f"{SSSP_SEED_MOD} = 0 THEN 0 END AS dist FROM documents)",
    ]
    for t in range(1, SSSP_ROUNDS + 1):
        p = t - 1
        parts.append(
            f"c{t} AS (SELECT e.d AS v, MIN(d{p}.dist + e.w) AS nd "
            f"FROM e JOIN d{p} ON d{p}.v = e.s "
            f"WHERE d{p}.dist IS NOT NULL GROUP BY 1)")
        parts.append(
            f"d{t} AS (SELECT d{p}.v, CASE "
            f"WHEN d{p}.dist IS NULL THEN c{t}.nd "
            f"WHEN c{t}.nd < d{p}.dist THEN c{t}.nd "
            f"ELSE d{p}.dist END AS dist "
            f"FROM d{p} LEFT JOIN c{t} ON c{t}.v = d{p}.v)")
    return (", ".join(parts)
            + " SELECT v AS doc_id, CAST(COALESCE(dist, -1) AS BIGINT) "
              f"AS dist FROM d{SSSP_ROUNDS}")


QUERIES["sssp"] = q_sssp
ORACLES["sssp"] = sql_sssp()


# ------------------------------------- degree assortativity (out->in)
#
# Newman's degree assortativity over the DIRECTED link graph: the
# Pearson correlation, across edges (u, v), of x = outdeg(u) with
# y = indeg(v) — the one-scalar "do hubs link to hubs?" diagnostic of
# web-graph structure (spam farms push it positive, broadcast hubs
# negative).  Distributed shape reuses the PageRank init shards: the
# src bucket owns every edge of its nodes so outdeg attaches locally
# with zero routing, then ONE exchange wave routes (dst, x) rows to the
# dst's home bucket where indeg is complete by construction; each
# bucket emits six scalar int64 moment partials and the driver
# combines them in Python int (the n*sxy - sx*sy combinations overflow
# int64 long before the inputs do) with the repo's fixed-order float
# finale — hash-exact vs the HUGEINT -> DOUBLE oracle.

def _assort_attach_impl(n, edges):
    """Attach x = outdeg(src) to this src bucket's edges and route
    each (dst, x) row to bucket(dst)."""
    e = edges.to_pandas()
    if not len(e):
        return tuple(pa.table({"dst": pa.array([], pa.int64()),
                               "x": pa.array([], pa.int64())})
                     for _ in range(n))
    x = e.groupby("src", sort=False)["dst"].transform("size") \
        .to_numpy(np.int64)
    dst = e["dst"].to_numpy(np.int64)
    return route(_cc_route(dst, n), n, {"dst": dst, "x": x})


def _assort_moments_impl(*pieces):
    """One row of six int64 moment partials for this dst bucket
    (indeg is complete here: every edge into a local dst arrives)."""
    t = pa.concat_tables(pieces, promote_options="default").to_pandas()
    if not len(t):
        return pa.table({c: pa.array([0], pa.int64()) for c in
                         ("n", "sx", "sy", "sxy", "sxx", "syy")})
    x = t["x"].to_numpy(np.int64)
    y = t.groupby("dst", sort=False)["x"].transform("size") \
        .to_numpy(np.int64)
    return pa.table({
        "n": pa.array([len(t)], pa.int64()),
        "sx": pa.array([int(x.sum())], pa.int64()),
        "sy": pa.array([int(y.sum())], pa.int64()),
        "sxy": pa.array([int((x * y).sum())], pa.int64()),
        "sxx": pa.array([int((x * x).sum())], pa.int64()),
        "syy": pa.array([int((y * y).sum())], pa.int64()),
    })


def q_assortativity(sf_dir: str):
    """One row: (n_edges, assort) — directed out->in degree
    assortativity of the synthetic link graph."""
    import math

    import ray
    import ray.data

    n, _nodes, edges, _state, _inv_n = _directed_shards(_doc_ids(sf_dir))
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "n_edges": pa.array([0], pa.int64()),
            "assort": pa.array([None], pa.float64())}))
    parts = ray.get(exchange(_assort_attach_impl, [(n, e) for e in edges],
                             _assort_moments_impl, [()] * n, n))
    tot = {c: sum(int(p.column(c)[0].as_py()) for p in parts)
           for c in ("n", "sx", "sy", "sxy", "sxx", "syy")}
    ne = tot["n"]
    num = ne * tot["sxy"] - tot["sx"] * tot["sy"]
    dx = ne * tot["sxx"] - tot["sx"] * tot["sx"]
    dy = ne * tot["syy"] - tot["sy"] * tot["sy"]
    r = float(num) / math.sqrt(float(dx * dy)) if dx and dy else None
    return ray.data.from_arrow(pa.table({
        "n_edges": pa.array([ne], pa.int64()),
        "assort": pa.array([r], pa.float64())}))


def sql_assortativity() -> str:
    """Full-chain oracle: pagerank's synthesis/semi-join CTEs, then
    out/in degree joins and the exact-HUGEINT moment finish."""
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    return (
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents), "
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j)), "
        "e AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src), "
        "xo AS (SELECT src, CAST(COUNT(*) AS HUGEINT) AS c "
        "FROM e GROUP BY src), "
        "yi AS (SELECT dst, CAST(COUNT(*) AS HUGEINT) AS c "
        "FROM e GROUP BY dst), "
        "t AS (SELECT xo.c AS x, yi.c AS y FROM e "
        "JOIN xo ON xo.src = e.src JOIN yi ON yi.dst = e.dst), "
        "mm AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx, "
        "SUM(y) AS sy, SUM(x*y) AS sxy, SUM(x*x) AS sxx, "
        "SUM(y*y) AS syy FROM t) "
        "SELECT CAST(n AS BIGINT) AS n_edges, "
        "CASE WHEN n*sxx - sx*sx = 0 OR n*syy - sy*sy = 0 THEN NULL "
        "ELSE CAST(n*sxy - sx*sy AS DOUBLE) / "
        "sqrt(CAST((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE)) "
        "END AS assort FROM mm"
    )


QUERIES["assortativity"] = q_assortativity
ORACLES["assortativity"] = sql_assortativity()


# ------------------------------------------------ edge reciprocity
#
# Fraction of directed edges (u, v) whose reverse (v, u) also exists —
# the classic "is linking mutual?" web-graph scalar.  One exchange
# wave: each src bucket routes its edges keyed by the UNORDERED pair's
# min endpoint; inside the key's bucket both directions of a pair
# land together, so the reciprocated count is an exact local
# drop_duplicates + duplicated() scan.  Emitted as exact integers
# plus the quantized ratio (floor-half at 1e12).

def _recip_route_impl(n, edges):
    e = edges.to_pandas()
    if not len(e):
        return tuple(pa.table({"a": pa.array([], pa.int64()),
                               "b": pa.array([], pa.int64())})
                     for _ in range(n))
    s = e["src"].to_numpy(np.int64)
    d = e["dst"].to_numpy(np.int64)
    a = np.minimum(s, d)
    b = np.maximum(s, d)
    fwd = (s < d)  # orientation flag rides along via column order
    return route(_cc_route(a, n), n, {"a": a, "b": b, "fwd": fwd})


def _recip_count_impl(*pieces):
    t = pa.concat_tables(pieces, promote_options="default").to_pandas()
    if not len(t):
        return pa.table({"n_edges": pa.array([0], pa.int64()),
                         "n_recip": pa.array([0], pa.int64())})
    # a pair is reciprocated iff BOTH orientations arrived
    g = t.groupby(["a", "b"])["fwd"].agg(["min", "max", "count"])
    recip = int(((~g["min"]) & g["max"]).sum())
    return pa.table({
        "n_edges": pa.array([len(t)], pa.int64()),
        "n_recip": pa.array([2 * recip], pa.int64())})


def q_reciprocity(sf_dir: str):
    """One row: (n_edges, n_recip, recip_q12) over the synthetic
    directed link graph."""
    import ray
    import ray.data

    n, _nodes, edges, _state, _inv_n = _directed_shards(_doc_ids(sf_dir))
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "n_edges": pa.array([0], pa.int64()),
            "n_recip": pa.array([0], pa.int64()),
            "recip_q12": pa.array([None], pa.int64())}))
    parts = ray.get(exchange(_recip_route_impl, [(n, e) for e in edges],
                             _recip_count_impl, [()] * n, n))
    ne = sum(int(p.column("n_edges")[0].as_py()) for p in parts)
    nr = sum(int(p.column("n_recip")[0].as_py()) for p in parts)
    q = ((2 * nr * PR_QUANT_INT + ne) // (2 * ne)) if ne else None
    return ray.data.from_arrow(pa.table({
        "n_edges": pa.array([ne], pa.int64()),
        "n_recip": pa.array([nr], pa.int64()),
        "recip_q12": pa.array([q], pa.int64())}))


PR_QUANT_INT = 10 ** 12


def sql_reciprocity() -> str:
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    qv = PR_QUANT_INT
    return (
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents), "
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j)), "
        "e AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src), "
        "r AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nr FROM e a "
        "JOIN e b ON b.src = a.dst AND b.dst = a.src), "
        "n AS (SELECT CAST(COUNT(*) AS HUGEINT) AS ne FROM e) "
        "SELECT CAST(ne AS BIGINT) AS n_edges, "
        "CAST(nr AS BIGINT) AS n_recip, "
        "CASE WHEN ne = 0 THEN NULL ELSE "
        f"CAST((2*nr*{qv} + ne) // (2*ne) AS BIGINT) END AS recip_q12 "
        "FROM n, r"
    )


QUERIES["reciprocity"] = q_reciprocity
ORACLES["reciprocity"] = sql_reciprocity()


# ------------------------------------- two-hop neighborhood (distinct)
#
# |N2(v)|: how many distinct pages are exactly reachable in <= 2
# out-hops (excluding v itself) — the friend-of-follower expansion
# factor behind crawl-frontier and influence estimates.  Shape: the
# directed shards give bucket(u) BOTH u's out-edges (by construction)
# and, after ONE routing wave, every edge ARRIVING at u — the
# wedge join (a -> u -> w) therefore runs entirely bucket-locally,
# pre-dedupes (a, w) map-side, and one second wave routes the pairs
# home to bucket(a) for the exact distinct count.  The wedge volume
# is O(E * avg_deg) — identical to the triangle counter's bound, with
# the same orient-toward-higher-degree mitigation at hub scale.

def _twohop_join_impl(n, edges, *incoming):
    """Join arriving edges (a -> u, reversed: src = u, dst = a) with
    local out-edges (u -> w); emit map-side-deduped (a, w) pairs routed
    to bucket(a).  One-hop neighbors join in too (a -> u counts as
    reach), w == a dropped."""
    inc = pa.concat_tables(incoming, promote_options="default") \
        .to_pandas().rename(columns={"src": "u", "dst": "a"})
    out = edges.to_pandas().rename(columns={"src": "u", "dst": "w"})
    two = inc.merge(out, on="u")[["a", "w"]]
    one = inc.rename(columns={"u": "w"})[["a", "w"]]
    pairs = pd.concat([two, one])
    pairs = pairs[pairs["a"] != pairs["w"]].drop_duplicates()
    return route(_cc_route(pairs["a"].to_numpy(np.int64), n), n,
                 pa.Table.from_pandas(pairs, preserve_index=False))


def _twohop_count_impl(nodes, *pieces):
    t = pa.concat_tables(pieces, promote_options="default").to_pandas()
    node = nodes.column("node").to_numpy().astype(np.int64)
    cnt = (t.drop_duplicates().groupby("a", sort=False).size()
           if len(t) else pd.Series(dtype=np.int64))
    out = pd.Series(node).map(cnt).fillna(0).to_numpy(np.int64)
    return pa.table({"doc_id": node, "n_2hop": out})


def q_two_hop(sf_dir: str):
    """(doc_id, n_2hop) — distinct pages within two out-hops."""
    import ray
    import ray.data

    n, nodes, edges, _state, _inv_n = _directed_shards(_doc_ids(sf_dir))
    if edges is None:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_2hop": pa.array([], pa.int64())}))
    # the wedge midpoint u owns the join: route every edge to bucket(dst)
    _, inc = scatter(_pr_reverse_impl, [(n, e) for e in edges], n)
    _, pairs = scatter(_twohop_join_impl, [(n, e) for e in edges], n,
                       grid=inc)
    return ray.data.from_arrow_refs(gather(
        _twohop_count_impl, [(v,) for v in nodes], pairs))


def sql_two_hop() -> str:
    js = ", ".join(f"({j})" for j in range(PR_LINKS))
    return (
        "WITH m AS (SELECT CAST(MAX(doc_id)+1 AS BIGINT) AS md "
        "FROM documents), "
        f"cand AS (SELECT dd.doc_id AS src, "
        f"(dd.doc_id*{_A} + j.j*{_B} + {_C}) % m.md AS dst "
        f"FROM documents dd CROSS JOIN m CROSS JOIN (VALUES {js}) j(j)), "
        "e AS (SELECT DISTINCT c.src, c.dst FROM cand c "
        "JOIN documents t ON t.doc_id = c.dst WHERE c.dst <> c.src), "
        "reach AS (SELECT src AS a, dst AS w FROM e "
        "UNION SELECT e1.src, e2.dst FROM e e1 "
        "JOIN e e2 ON e2.src = e1.dst WHERE e2.dst <> e1.src), "
        "r AS (SELECT a, CAST(COUNT(*) AS BIGINT) AS c FROM reach "
        "GROUP BY a) "
        "SELECT dd.doc_id, COALESCE(r.c, 0) AS n_2hop "
        "FROM documents dd LEFT JOIN r ON r.a = dd.doc_id"
    )


QUERIES["two_hop"] = q_two_hop
ORACLES["two_hop"] = sql_two_hop()
