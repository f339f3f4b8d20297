"""SQL string front-end (pipelines/sqlparse.py): every grammar construct
is checked against DuckDB running the IDENTICAL SQL string over the same
table (the reference's Parse entry, sqlselect/altlex.go:501-509)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql


@pytest.fixture(scope="module")
def t1():
    rng = np.random.default_rng(7)
    n = 500
    return pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.integers(-50, 50, n).astype(np.int64)),
        "s": pa.array([f"name_{i % 7}" for i in range(n)]),
        "f": pa.array(rng.normal(size=n).round(3)),
    })


@pytest.fixture(scope="module")
def t2():
    return pa.table({
        "g": pa.array(np.arange(7, dtype=np.int64)),
        "label": pa.array([f"grp{j}" for j in range(7)]),
        "gkey": pa.array([f"name_{j}" for j in range(7)]),
    })


@pytest.fixture(scope="module")
def t3():
    # partial key coverage: LEFT JOINs against t3 produce unmatched rows
    return pa.table({
        "h": pa.array(np.arange(3, dtype=np.int64)),
        "tag": pa.array([f"tag{j}" for j in range(3)]),
        "hkey": pa.array([f"name_{j}" for j in range(3)]),
    })


def _run_both(sql, tabs, arrow_tabs, broadcast_threshold=1_000_000):
    import ray

    ds_tabs = {k: ray.data.from_arrow(v) for k, v in arrow_tabs.items()}
    got = parse_sql(sql, ds_tabs, broadcast_threshold).to_pandas()
    con = duckdb.connect()
    for name, tbl in arrow_tabs.items():
        con.register(name, tbl)
    want = con.execute(sql).df()
    if len(got) == 0 and len(want) == 0:
        # Ray's to_pandas() on an all-empty Dataset drops the schema, so
        # column comparison is meaningless here — 0 == 0 rows is the check
        return
    g = got[sorted(got.columns)].sort_values(
        sorted(got.columns), kind="stable").reset_index(drop=True)
    w = want[sorted(want.columns)].sort_values(
        sorted(want.columns), kind="stable").reset_index(drop=True)
    assert list(g.columns) == list(w.columns), (g.columns, w.columns)
    assert len(g) == len(w), (len(g), len(w), sql)
    for c in g.columns:
        assert g[c].dtype == w[c].dtype, (c, g[c].dtype, w[c].dtype, sql)
        if g[c].dtype.kind == "f":
            assert np.allclose(g[c], w[c], equal_nan=True), (c, sql)
        else:
            assert (g[c].to_numpy() == w[c].to_numpy()).all(), (c, sql)


CASES = [
    "SELECT k, v + 10 AS v10, v * 2 AS v2 FROM t1 WHERE v >= 0",
    "SELECT s, bool_and(v > 0) AS ba, bool_or(v > 40) AS bo "
    "FROM t1 GROUP BY s ORDER BY s",
    "SELECT k, greatest(v, k, 10) AS g, least(v, f) AS l FROM t1 "
    "WHERE k < 30",
    # NULLS FIRST/LAST made observable through LIMIT (the comparator
    # re-sorts rows, so placement only shows in which rows survive)
    "SELECT k, nullif(s, 'name_0') AS sx FROM t1 "
    "ORDER BY sx NULLS FIRST, k LIMIT 40",
    "SELECT k, nullif(s, 'name_6') AS sx FROM t1 "
    "ORDER BY sx DESC NULLS LAST, k LIMIT 40",
    "SELECT k, nullif(v, 23) AS vx FROM t1 "
    "ORDER BY vx NULLS LAST, k DESC LIMIT 60",
    # nulls/first/last stay unreserved (matched contextually)
    "SELECT k AS first, v AS last, s AS nulls FROM t1 WHERE k < 5",
    "SELECT k FROM t1 WHERE s LIKE 'name_3' AND v BETWEEN -10 AND 10",
    "SELECT k, s FROM t1 WHERE s IN ('name_1', 'name_2') ORDER BY k LIMIT 25",
    "SELECT k, CASE WHEN v > 0 THEN 'pos' WHEN v < 0 THEN 'neg' "
    "ELSE 'zero' END AS sign FROM t1",
    "SELECT k, substr(s, 1, 4) AS pre, length(s) AS ln, "
    "replace(s, 'name', 'n') AS rep, s || '!' AS bang FROM t1 WHERE k < 50",
    "SELECT k, coalesce(nullif(s, 'name_0'), 'zero') AS cz FROM t1 "
    "WHERE k < 30",
    "SELECT k FROM t1 WHERE v > 40 UNION ALL SELECT k FROM t1 WHERE v < -40",
    "SELECT DISTINCT s FROM t1",
    "SELECT k, s, label FROM t1 JOIN t2 ON s = gkey WHERE v > 20 "
    "ORDER BY k LIMIT 40",
    "SELECT k FROM t1 WHERE NOT (v > 0) AND f IS NOT NULL ORDER BY k DESC "
    "LIMIT 10",
    # GROUP BY + aggregates (+ CAST to pin the sum dtype on both engines)
    "SELECT s, CAST(SUM(v) AS BIGINT) AS sv, COUNT(*) AS n FROM t1 "
    "GROUP BY s ORDER BY s",
    "SELECT s, MIN(v) AS mn, MAX(v) AS mx, AVG(f) AS af FROM t1 "
    "WHERE k < 300 GROUP BY s",
    "SELECT s, CAST(SUM(v) + COUNT(*) AS BIGINT) AS tot, COUNT(k) AS nk "
    "FROM t1 GROUP BY s",
    "SELECT s, label, CAST(SUM(v) AS BIGINT) AS sv FROM t1 "
    "JOIN t2 ON s = gkey GROUP BY s, label ORDER BY s",
    # pushdown mix: left-only (v), right-only (label), and cross-side
    # residual (k + g) conjuncts in one WHERE
    "SELECT k, s, label FROM t1 JOIN t2 ON s = gkey "
    "WHERE v > 0 AND label LIKE 'grp%' AND k + g < 400 ORDER BY k",
    # HAVING: aggregate appearing only in the predicate, and one shared
    # with the SELECT list
    "SELECT s, CAST(SUM(v) AS BIGINT) AS sv FROM t1 GROUP BY s "
    "HAVING COUNT(*) > 60 AND SUM(v) < 500 ORDER BY s",
    # mixed per-column sort directions
    "SELECT k, v, s FROM t1 WHERE k < 60 ORDER BY s ASC, v DESC, k LIMIT 30",
    # HAVING aggregate over a column that appears nowhere else — the
    # join projection pushdown must keep it (regression)
    "SELECT s, CAST(SUM(v) AS BIGINT) AS sv FROM t1 JOIN t2 ON s = gkey "
    "GROUP BY s HAVING MAX(g) >= 0 ORDER BY s",
    # UNION without ALL deduplicates (sqlselect/sql.go grammar)
    "SELECT s FROM t1 WHERE v > 0 UNION SELECT s FROM t1 WHERE v < 0",
    # mixed UNION / UNION ALL, left-associative
    "SELECT s FROM t1 WHERE v > 25 UNION SELECT s FROM t1 WHERE v < -25 "
    "UNION ALL SELECT s FROM t1 WHERE k = 0",
    # IN (subquery): the value set comes from another select
    "SELECT k, v FROM t1 WHERE s IN (SELECT gkey FROM t2 WHERE g < 3) "
    "ORDER BY k",
    # modulo operator
    "SELECT k FROM t1 WHERE k % 7 = 3 ORDER BY k",
    # derived table: outer select + filter over an inner projection
    "SELECT k, v10 FROM (SELECT k, v + 10 AS v10 FROM t1 WHERE v > 0) d "
    "WHERE v10 > 40 ORDER BY k LIMIT 20",
    # derived table with aggregation inside, outer filter on the agg
    "SELECT s, sv FROM (SELECT s, CAST(SUM(v) AS BIGINT) AS sv FROM t1 "
    "GROUP BY s) AS agg WHERE sv > 0 ORDER BY s",
    # aggregate OVER a derived table (re-grouping a projection)
    "SELECT sign, COUNT(*) AS n FROM (SELECT CASE WHEN v >= 0 THEN 'p' "
    "ELSE 'n' END AS sign FROM t1) d GROUP BY sign ORDER BY sign",
    # union inside a derived table
    "SELECT COUNT(*) AS n FROM (SELECT k FROM t1 WHERE v > 40 "
    "UNION ALL SELECT k FROM t1 WHERE v < -40) u",
    # global aggregate (no GROUP BY)
    "SELECT CAST(SUM(v) AS BIGINT) AS sv, COUNT(*) AS n, MIN(k) AS mk "
    "FROM t1 WHERE v > 0",
    # postfix negated conditions (sql.y NOT IN / NOT LIKE / NOT BETWEEN)
    "SELECT k FROM t1 WHERE k NOT IN (1, 2, 3) AND k < 9 ORDER BY k",
    "SELECT k FROM t1 WHERE s NOT LIKE 'name_1%' AND k < 20 ORDER BY k",
    "SELECT k FROM t1 WHERE k NOT BETWEEN 5 AND 495 ORDER BY k",
    # DISTINCT aggregates (sql.y sql_id '(' DISTINCT ... ')')
    "SELECT s, COUNT(DISTINCT v) AS n FROM t1 GROUP BY s ORDER BY s",
    "SELECT s, CAST(SUM(DISTINCT v) AS BIGINT) AS sv FROM t1 "
    "GROUP BY s ORDER BY s",
    "SELECT COUNT(DISTINCT s) AS n FROM t1",
    # bitwise operators ('&', BR, '~', shifts)
    "SELECT k, k & 12 AS ba, k | 3 AS bo, ~k AS bn, k << 2 AS sl, "
    "k >> 1 AS sr FROM t1 WHERE k < 16 ORDER BY k",
    # literal VALUES table ('(' VALUES tuple_list ')' as_opt column_list)
    "SELECT a, b FROM (VALUES (1,'x'),(2,'y'),(-3,'z')) AS t(a, b) "
    "ORDER BY a",
    "SELECT col0 FROM (VALUES (4),(5)) AS t ORDER BY col0",
    # schema-qualified table name (ID '.' ID -> pickTable($3))
    "SELECT k FROM main.t1 WHERE k < 5 ORDER BY k",
    # alias-qualified columns everywhere (t.k), incl. reversed JOIN ON
    "SELECT t1.k, t1.v FROM t1 WHERE t1.v > 40 ORDER BY t1.k LIMIT 10",
    "SELECT s, label FROM t1 JOIN t2 ON t2.gkey = t1.s "
    "WHERE v > 45 ORDER BY s, label",
    # negative literals in IN lists
    "SELECT k FROM t1 WHERE v IN (-1, -2, 0) ORDER BY k LIMIT 20",
    # three-valued NOT IN: a NULL in the list/subquery -> no row matches
    "SELECT k FROM t1 WHERE k NOT IN (1, NULL)",
    "SELECT k FROM t1 WHERE k NOT IN "
    "(SELECT CASE WHEN v > 48 THEN NULL ELSE k END AS x FROM t1)",
    # IN with a NULL member still matches real members
    "SELECT k FROM t1 WHERE k IN (3, NULL, 5) ORDER BY k",
    # SELECT DISTINCT over an aggregated select
    "SELECT DISTINCT CAST(SUM(v) AS BIGINT) AS sv FROM t1 "
    "GROUP BY s ORDER BY sv",
    # global aggregate over an empty filter: SQL's mandatory single row
    "SELECT COUNT(*) AS n FROM t1 WHERE v > 999",
    # table aliases, [AS] optional (sql.y as_opt)
    "SELECT d.k, d.v FROM t1 AS d WHERE d.v > 40 ORDER BY d.k LIMIT 5",
    "SELECT a.k, label FROM t1 a JOIN t2 b ON a.s = b.gkey "
    "WHERE a.v > 45 ORDER BY a.k LIMIT 10",
    # ---- window functions: fn() OVER (PARTITION BY ... ORDER BY ...)
    "SELECT k, v, ROW_NUMBER() OVER (PARTITION BY s ORDER BY k) AS rn "
    "FROM t1 WHERE v > 0 ORDER BY k LIMIT 50",
    # rank/dense_rank with real ties (v repeats within each s group)
    "SELECT k, RANK() OVER (PARTITION BY s ORDER BY v) AS r, "
    "DENSE_RANK() OVER (PARTITION BY s ORDER BY v) AS dr "
    "FROM t1 ORDER BY k LIMIT 60",
    # cumulative sum, unique order key (ROWS == RANGE)
    "SELECT k, CAST(SUM(v) OVER (PARTITION BY s ORDER BY k) AS BIGINT) "
    "AS rsum FROM t1 ORDER BY k LIMIT 80",
    # cumulative sum with TIES on the order column — RANGE frame: peers
    # share their group's total
    "SELECT k, CAST(SUM(k) OVER (PARTITION BY s ORDER BY v) AS BIGINT) "
    "AS rs FROM t1 ORDER BY k LIMIT 80",
    # whole-partition aggregates (no ORDER BY in the window)
    "SELECT k, AVG(f) OVER (PARTITION BY s) AS am, "
    "COUNT(*) OVER (PARTITION BY s) AS n, "
    "MIN(v) OVER (PARTITION BY s) AS mn FROM t1 ORDER BY k LIMIT 40",
    # cumulative count/min/max/avg with ORDER BY
    "SELECT k, COUNT(*) OVER (PARTITION BY s ORDER BY k) AS rc, "
    "MAX(v) OVER (PARTITION BY s ORDER BY k) AS rmx, "
    "AVG(v) OVER (PARTITION BY s ORDER BY k) AS rav "
    "FROM t1 ORDER BY k LIMIT 60",
    # lag / lead with offset; first_value
    # lag stays float64 on both engines (NULL at each partition head);
    # lead is wrapped so the dtype doesn't depend on which NULLs survive
    # the LIMIT (DuckDB infers int64/float64 from the final result)
    "SELECT k, LAG(v) OVER (PARTITION BY s ORDER BY k) AS pv, "
    "CAST(COALESCE(LEAD(v, 2) OVER (PARTITION BY s ORDER BY k), -1) "
    "AS BIGINT) AS nv, "
    "FIRST_VALUE(v) OVER (PARTITION BY s ORDER BY k) AS fv "
    "FROM t1 ORDER BY k LIMIT 60",
    # global window (no PARTITION BY): total order, single bucket
    "SELECT k, ROW_NUMBER() OVER (ORDER BY v DESC, k) AS rn FROM t1 "
    "ORDER BY k LIMIT 20",
    # window over an expression argument; DESC order inside the window
    "SELECT k, CAST(SUM(v + 1) OVER (PARTITION BY s ORDER BY k DESC) "
    "AS BIGINT) AS ds FROM t1 ORDER BY k LIMIT 40",
    # window result consumed by an outer aggregation (derived table)
    "SELECT s, CAST(SUM(rn) AS BIGINT) AS srn FROM (SELECT s, "
    "ROW_NUMBER() OVER (PARTITION BY s ORDER BY k) AS rn FROM t1) d "
    "GROUP BY s ORDER BY s",
    # ---- [NOT] EXISTS correlated subqueries (semi/anti probe)
    "SELECT k FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE gkey = s "
    "AND g < 3) ORDER BY k LIMIT 30",
    "SELECT k, s FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 "
    "WHERE gkey = s AND g < 3) ORDER BY k LIMIT 30",
    # uncorrelated EXISTS: constant truth
    "SELECT k FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE g > 100) "
    "ORDER BY k LIMIT 5",
    "SELECT k FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE g > 100) "
    "ORDER BY k LIMIT 5",
    # scalar subquery in a comparison and in the projection
    "SELECT k FROM t1 WHERE f > (SELECT AVG(f) FROM t1) ORDER BY k "
    "LIMIT 30",
    "SELECT k, (SELECT MAX(g) FROM t2) AS mg FROM t1 ORDER BY k LIMIT 5",
    # ---- LEFT [OUTER] JOIN (t3 covers only name_0..2, so rows go
    # unmatched); string columns keep None, int columns go float64 via
    # Arrow null-promotion on BOTH engines
    "SELECT k, s, tag FROM t1 LEFT JOIN t3 ON s = hkey "
    "ORDER BY k LIMIT 40",
    "SELECT k, s, h FROM t1 LEFT OUTER JOIN t3 ON s = hkey "
    "WHERE v > 30 ORDER BY k LIMIT 40",
    # WHERE on the right side of a LEFT join must NOT push below it
    "SELECT k, s, tag FROM t1 LEFT JOIN t3 ON s = hkey "
    "WHERE tag IS NULL ORDER BY k LIMIT 30",
    # INNER keyword accepted; identical to plain JOIN
    "SELECT k, s, label FROM t1 INNER JOIN t2 ON s = gkey "
    "WHERE v > 40 ORDER BY k LIMIT 20",
    # aggregation over a LEFT join (COUNT skips nulls on both engines)
    "SELECT s, COUNT(h) AS nh, COUNT(*) AS n FROM t1 LEFT JOIN t3 "
    "ON s = hkey GROUP BY s ORDER BY s",
    # ---- rank-family extensions: ntile / percent_rank / cume_dist
    "SELECT k, NTILE(4) OVER (PARTITION BY s ORDER BY k) AS q4, "
    "NTILE(3) OVER (ORDER BY k) AS q3 FROM t1 ORDER BY k LIMIT 60",
    # percent_rank/cume_dist with ties on the order column
    "SELECT k, PERCENT_RANK() OVER (PARTITION BY s ORDER BY v) AS pr, "
    "CUME_DIST() OVER (PARTITION BY s ORDER BY v) AS cd "
    "FROM t1 ORDER BY k LIMIT 60",
    # ---- explicit ROWS frames: moving aggregates
    "SELECT k, AVG(v) OVER (PARTITION BY s ORDER BY k "
    "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS mavg, "
    "CAST(SUM(v) OVER (PARTITION BY s ORDER BY k "
    "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS msum "
    "FROM t1 ORDER BY k LIMIT 60",
    "SELECT k, MIN(v) OVER (PARTITION BY s ORDER BY k "
    "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW) AS mmin, "
    "COUNT(*) OVER (PARTITION BY s ORDER BY k "
    "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW) AS mcnt "
    "FROM t1 ORDER BY k LIMIT 60",
    # ROWS UNBOUNDED PRECEDING (physical-row cumulative; unique order
    # key — with ties the physical order is engine-dependent in SQL)
    "SELECT k, CAST(SUM(v) OVER (PARTITION BY s ORDER BY k "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) AS rs "
    "FROM t1 ORDER BY k LIMIT 60",
    # ---- GROUP BY expressions
    "SELECT k % 10 AS bucket, COUNT(*) AS n, "
    "CAST(SUM(v) AS BIGINT) AS sv FROM t1 GROUP BY k % 10 ORDER BY bucket",
    "SELECT substr(s, 1, 6) AS pre, COUNT(*) AS n FROM t1 "
    "GROUP BY substr(s, 1, 6) ORDER BY pre",
    # GROUP BY a SELECT alias; group expr also inside an agg argument
    "SELECT k % 7 AS m7, CAST(SUM(v + k % 7) AS BIGINT) AS sv FROM t1 "
    "GROUP BY m7 ORDER BY m7",
    # mixed plain column + expression keys, HAVING over the groups
    "SELECT s, k % 2 AS par, COUNT(*) AS n FROM t1 GROUP BY s, k % 2 "
    "HAVING COUNT(*) > 30 ORDER BY s, par",
    # CASE expression as a group key
    "SELECT CASE WHEN v >= 0 THEN 'p' ELSE 'n' END AS sgn, "
    "COUNT(*) AS n FROM t1 GROUP BY CASE WHEN v >= 0 THEN 'p' "
    "ELSE 'n' END ORDER BY sgn",
    # ---- ORDER BY expressions (synthetic sort columns, dropped after)
    "SELECT k, v FROM t1 WHERE k < 40 ORDER BY v + k DESC, k LIMIT 20",
    "SELECT k, v FROM t1 WHERE k < 30 ORDER BY v * v, k LIMIT 15",
    "SELECT k, s FROM t1 WHERE k < 25 "
    "ORDER BY substr(s, 6, 2) DESC, k LIMIT 12",
    # ---- scalar function widening: string case/trim, math
    "SELECT k, UPPER(s) AS us, LOWER(UPPER(s)) AS ls, REVERSE(s) AS rs "
    "FROM t1 WHERE k < 15 ORDER BY k",
    "SELECT k, ABS(v) AS av, SIGN(v) AS sg, "
    "CAST(FLOOR(f) AS BIGINT) AS ff, CAST(CEIL(f) AS BIGINT) AS cf "
    "FROM t1 WHERE k < 40 ORDER BY k",
    "SELECT k, ROUND(f, 1) AS r1, ROUND(f) AS r0, "
    "SQRT(ABS(v)) AS sq FROM t1 WHERE k < 40 ORDER BY k",
    "SELECT k, TRIM(concat('  ', s, ' ')) AS ts FROM t1 WHERE k < 10 "
    "ORDER BY k",
    # ---- adversarial combinations of the round-3 additions
    # window over a join (pushdown must keep partition/order columns)
    "SELECT k, label, ROW_NUMBER() OVER (PARTITION BY label ORDER BY k) "
    "AS rn FROM t1 JOIN t2 ON s = gkey WHERE v > 0 ORDER BY k LIMIT 40",
    # top-N-per-group: window in a derived table, outer filter on it
    "SELECT k, rn FROM (SELECT k, s, ROW_NUMBER() OVER (PARTITION BY s "
    "ORDER BY v DESC, k) AS rn FROM t1) d WHERE rn <= 3 ORDER BY k",
    # EXISTS with alias-qualified correlation on both sides
    "SELECT a.k FROM t1 a WHERE EXISTS (SELECT 1 FROM t2 b "
    "WHERE b.gkey = a.s AND b.g < 2) ORDER BY a.k LIMIT 20",
    # EXISTS under OR (disjunctive rewrite)
    "SELECT k FROM t1 WHERE v > 45 OR EXISTS (SELECT 1 FROM t2 "
    "WHERE gkey = s AND g < 1) ORDER BY k LIMIT 40",
    # GROUP BY expression over a join (pushdown must keep g)
    "SELECT g % 2 AS gp, COUNT(*) AS n FROM t1 JOIN t2 ON s = gkey "
    "GROUP BY g % 2 ORDER BY gp",
    # scalar subquery inside projection arithmetic
    "SELECT k, v - (SELECT AVG(v) FROM t1) AS dv FROM t1 "
    "ORDER BY k LIMIT 10",
    # DISTINCT over a window result
    "SELECT DISTINCT s, COUNT(*) OVER (PARTITION BY s) AS n FROM t1 "
    "ORDER BY s",
    # window over a LEFT JOIN with unmatched rows in the partition key
    "SELECT k, tag, ROW_NUMBER() OVER (PARTITION BY tag ORDER BY k) "
    "AS rn FROM t1 LEFT JOIN t3 ON s = hkey WHERE k < 60 "
    "ORDER BY k LIMIT 40",
    # ---- RIGHT / FULL OUTER JOIN (shuffle path; broadcast impossible)
    # RIGHT: the preserved side is t1 (every t1 row appears)
    "SELECT k, tag FROM t3 RIGHT JOIN t1 ON hkey = s "
    "WHERE k < 30 ORDER BY k",
    # FULL with genuinely-unmatched rows on BOTH sides
    "SELECT k, s2, tag FROM (SELECT k, s AS s2 FROM t1 "
    "WHERE s IN ('name_3', 'name_4') AND k < 40) d "
    "FULL JOIN t3 ON s2 = hkey ORDER BY k, tag",
    "SELECT k, s2, h FROM (SELECT k, s AS s2 FROM t1 "
    "WHERE s IN ('name_3', 'name_4') AND k < 40) d "
    "FULL OUTER JOIN t3 ON s2 = hkey ORDER BY k, h",
    # NULL join keys: never match, but outer joins still surface them
    "SELECT k, sk, tag FROM (SELECT k, CASE WHEN k % 5 = 0 THEN NULL "
    "ELSE s END AS sk FROM t1 WHERE k < 30) d LEFT JOIN t3 "
    "ON sk = hkey ORDER BY k",
    "SELECT k, sk, tag FROM (SELECT k, CASE WHEN k % 5 = 0 THEN NULL "
    "ELSE s END AS sk FROM t1 WHERE k < 30) d JOIN t3 "
    "ON sk = hkey ORDER BY k",
    # ---- chained joins (two and three tables)
    "SELECT k, label, tag FROM t1 JOIN t2 ON s = gkey "
    "JOIN t3 ON s = hkey WHERE k < 60 ORDER BY k",
    "SELECT k, label, tag FROM t1 JOIN t2 ON s = gkey "
    "LEFT JOIN t3 ON s = hkey WHERE k < 40 ORDER BY k",
    # chain + aggregation
    "SELECT label, COUNT(tag) AS nt, COUNT(*) AS n FROM t1 "
    "JOIN t2 ON s = gkey LEFT JOIN t3 ON s = hkey "
    "GROUP BY label ORDER BY label",
]


def test_bitxor_matches_numpy(ray_session, t1):
    # '#' (Postgres xor) has no DuckDB spelling, so check against numpy
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    got = parse_sql("SELECT k, k # 12 AS x FROM t1 ORDER BY k",
                    {"t1": ray.data.from_arrow(t1)}).to_pandas()
    k = t1.column("k").to_numpy()
    assert (got["x"].to_numpy() == np.bitwise_xor(np.sort(k), 12)).all()


@pytest.mark.parametrize("sql", CASES)
def test_sql_parse_matches_duckdb(ray_session, t1, t2, t3, sql):
    _run_both(sql, None, {"t1": t1, "t2": t2, "t3": t3})


def test_join_using(ray_session, t1):
    """JOIN ... USING (col) — the reference grammar's join form — against
    DuckDB on the identical string (shared column appears once)."""
    t3 = pa.table({
        "s": pa.array([f"name_{j}" for j in range(7)]),
        "label3": pa.array([f"L{j}" for j in range(7)]),
    })
    _run_both(
        "SELECT k, v, s, label3 FROM t1 JOIN t3 USING (s) WHERE v > 25",
        None, {"t1": t1, "t3": t3},
    )


def test_pushdown_overlap_column_uses_left_values(ray_session):
    """A conjunct mixing an overlap column with a right-only column must
    NOT be pushed to the right side (where the shared name would bind to
    right values); join output carries LEFT values for shared names."""
    import ray

    a = pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "c": pa.array([10, 20, 30], pa.int64()),
    })
    b = pa.table({
        "bk": pa.array([1, 2, 3], pa.int64()),
        "g": pa.array([0, 0, 0], pa.int64()),
        "c": pa.array([100, 100, 0], pa.int64()),  # right c differs
    })
    tabs = {"a": ray.data.from_arrow(a), "b": ray.data.from_arrow(b)}
    got = parse_sql(
        "SELECT k, c, g FROM a JOIN b ON k = bk WHERE g + c < 25",
        tabs).to_pandas().sort_values("k").reset_index(drop=True)
    # left c values are 10,20,30; g=0 -> keep k=1 (10) and k=2 (20).
    # If the predicate were wrongly pushed right (c=100,100,0) only k=3
    # would survive.
    assert got["k"].tolist() == [1, 2]
    assert got["c"].tolist() == [10, 20]


def test_join_shuffle_and_broadcast_paths_agree(ray_session, t1, t2):
    """The planner picks broadcast for small build sides; force the
    bucketed shuffle join (broadcast_threshold=0) and check both paths
    produce the identical join result."""
    import ray

    sql = ("SELECT k, v, s, label FROM t1 JOIN t2 ON s = gkey "
           "WHERE v > 10")
    tabs = {"t1": ray.data.from_arrow(t1), "t2": ray.data.from_arrow(t2)}
    bc = parse_sql(sql, tabs).to_pandas()
    tabs = {"t1": ray.data.from_arrow(t1), "t2": ray.data.from_arrow(t2)}
    sh = parse_sql(sql, tabs, broadcast_threshold=0).to_pandas()
    key = ["k"]
    bc = bc.sort_values(key).reset_index(drop=True)
    sh = sh.sort_values(key).reset_index(drop=True)
    assert list(bc.columns) == list(sh.columns)
    pd.testing.assert_frame_equal(bc, sh)


def test_left_join_shuffle_matches_duckdb(ray_session, t1, t3):
    """Force the bucketed-exchange LEFT join (broadcast_threshold=0) and
    check it against DuckDB: unmatched rows surface with nulls, int
    columns arrive float64 via Arrow null-promotion on both engines."""
    import ray

    sql = ("SELECT k, s, h, tag FROM t1 LEFT JOIN t3 ON s = hkey "
           "WHERE v > 20 ORDER BY k")
    tabs = {"t1": ray.data.from_arrow(t1), "t3": ray.data.from_arrow(t3)}
    got = parse_sql(sql, tabs, broadcast_threshold=0).to_pandas()
    con = duckdb.connect()
    con.register("t1", t1)
    con.register("t3", t3)
    want = con.execute(sql).df()
    got = got.sort_values(["k"]).reset_index(drop=True)
    want = want.sort_values(["k"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert got["h"].dtype == want["h"].dtype == np.float64
    for c in want.columns:
        gv, wv = got[c], want[c]
        if gv.dtype.kind == "f":
            assert np.allclose(gv, wv, equal_nan=True), c
        else:
            assert (gv.isna() == wv.isna()).all(), c
            assert (gv.dropna() == wv.dropna()).all(), c


def test_temporal_functions_match_duckdb(ray_session):
    """EXTRACT / year..second / date_trunc vs DuckDB on the identical
    string (timestamps at us precision so dtypes line up)."""
    import ray

    n = 200
    base = np.datetime64("2025-01-01T00:00:00", "us")
    ts = base + (np.arange(n, dtype=np.int64) * 3_654_321_017
                 ).astype("timedelta64[us]")
    t = pa.table({
        "ev": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    for sql in [
        "SELECT ev, EXTRACT(hour FROM ts) AS h, EXTRACT(dow FROM ts) "
        "AS d, EXTRACT(year FROM ts) AS y FROM t ORDER BY ev LIMIT 60",
        "SELECT ev, year(ts) AS y, month(ts) AS mo, day(ts) AS dd, "
        "hour(ts) AS hh, minute(ts) AS mi, second(ts) AS ss FROM t "
        "ORDER BY ev LIMIT 60",
        "SELECT ev, date_trunc('hour', ts) AS th, "
        "date_trunc('day', ts) AS td, date_trunc('month', ts) AS tm "
        "FROM t ORDER BY ev LIMIT 60",
        # group events per calendar day through the exchange
        "SELECT date_trunc('day', ts) AS d, COUNT(*) AS n FROM t "
        "GROUP BY date_trunc('day', ts) ORDER BY d",
    ]:
        _run_both(sql, None, {"t": t})


def test_statistical_aggregates_match_duckdb(ray_session, t1):
    """STDDEV/VAR/MEDIAN (non-associative -> full-row exchange, exact
    per-group compute) vs DuckDB; float compare via allclose."""
    for sql in [
        "SELECT s, STDDEV(v) AS sd, VAR_POP(v) AS vp FROM t1 "
        "GROUP BY s ORDER BY s",
        "SELECT s, STDDEV_POP(f) AS sp, VAR_SAMP(f) AS vs, "
        "MEDIAN(f) AS md FROM t1 GROUP BY s ORDER BY s",
        "SELECT STDDEV(f) AS sd, VARIANCE(v) AS vr, MEDIAN(v) AS md "
        "FROM t1 WHERE k < 100",
        # single-row groups: sample stddev/var are NULL on both engines
        "SELECT k, STDDEV(v) AS sd FROM t1 WHERE k < 5 GROUP BY k "
        "ORDER BY k",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_quantile_aggregates_match_duckdb(ray_session, t1):
    """quantile_cont / quantile_disc (DuckDB two-arg form): exact
    per-group compute through the full-row exchange, like MEDIAN."""
    for sql in [
        "SELECT s, quantile_cont(v, 0.25) AS q1, "
        "quantile_cont(v, 0.9) AS q9 FROM t1 GROUP BY s ORDER BY s",
        "SELECT s, quantile_disc(v, 0.5) AS qm FROM t1 "
        "GROUP BY s ORDER BY s",
        "SELECT quantile_cont(f, 0.5) AS med, "
        "quantile_disc(k, 0.75) AS k75 FROM t1",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_range_frames_match_duckdb(ray_session, t1):
    """RANGE BETWEEN n PRECEDING AND CURRENT ROW: value-based window
    (peers included on the right), SUM/COUNT/AVG; integer inputs keep
    the comparison exact."""
    for sql in [
        "SELECT k, CAST(SUM(v) OVER (ORDER BY k "
        "RANGE BETWEEN 10 PRECEDING AND CURRENT ROW) AS BIGINT) AS sv "
        "FROM t1 ORDER BY k",
        "SELECT s, k, COUNT(*) OVER (PARTITION BY s ORDER BY k "
        "RANGE BETWEEN 7 PRECEDING AND CURRENT ROW) AS c "
        "FROM t1 ORDER BY s, k",
        # duplicate order keys: CURRENT ROW includes all peers
        "SELECT k % 10 AS m, CAST(SUM(v) OVER (ORDER BY k % 10 "
        "RANGE BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS sv "
        "FROM t1 WHERE k < 50 ORDER BY m, sv",
        "SELECT s, k, AVG(v) OVER (PARTITION BY s ORDER BY k "
        "RANGE BETWEEN 15 PRECEDING AND CURRENT ROW) AS av "
        "FROM t1 WHERE k < 60 ORDER BY s, k",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_string_agg_matches_duckdb(ray_session, t1):
    """string_agg(x, sep ORDER BY x): exact ordered group-concat; the
    unordered form is rejected (nondeterministic in any engine)."""
    import ray

    for sql in [
        "SELECT s, string_agg(CAST(k AS VARCHAR), ',' "
        "ORDER BY CAST(k AS VARCHAR)) AS ks FROM t1 "
        "WHERE k < 40 GROUP BY s ORDER BY s",
        "SELECT s, string_agg(CAST(k AS VARCHAR), '|' "
        "ORDER BY CAST(k AS VARCHAR) DESC) AS ks FROM t1 "
        "WHERE k < 30 GROUP BY s ORDER BY s",
    ]:
        _run_both(sql, None, {"t1": t1})
    with pytest.raises(ValueError, match="string_agg"):
        parse_sql(
            "SELECT s, string_agg(CAST(k AS VARCHAR), ',') AS ks "
            "FROM t1 GROUP BY s",
            {"t1": ray.data.from_arrow(t1)})


def test_correlated_scalar_subqueries_match_duckdb(ray_session, t1, t2, t3):
    """Correlated scalar subqueries decorrelate into per-key aggregate
    LEFT joins; missing keys surface as SQL NULL."""
    for sql in [
        # in WHERE: per-group average from another table
        "SELECT k, v FROM t1 WHERE v > (SELECT AVG(g) FROM t2 "
        "WHERE gkey = s) ORDER BY k LIMIT 40",
        # in the projection, with unmatched keys -> NULL (t3 covers
        # only name_0..2); pin dtype via COALESCE+CAST
        "SELECT k, CAST(COALESCE((SELECT MAX(h) FROM t3 "
        "WHERE hkey = s), -1) AS BIGINT) AS mh FROM t1 "
        "ORDER BY k LIMIT 30",
        # inner-only filter + correlation together
        "SELECT k FROM t1 WHERE k < 100 AND v > (SELECT AVG(g) FROM t2 "
        "WHERE gkey = s AND g < 5) ORDER BY k LIMIT 30",
        # two independent correlated scalars in one select
        "SELECT k, CAST(COALESCE((SELECT COUNT(*) FROM t3 "
        "WHERE hkey = s), 0) AS BIGINT) AS nh, "
        "CAST(COALESCE((SELECT MIN(g) FROM t2 WHERE gkey = s), -1) "
        "AS BIGINT) AS mg FROM t1 ORDER BY k LIMIT 30",
    ]:
        _run_both(sql, None, {"t1": t1, "t2": t2, "t3": t3})


def test_following_frames_match_duckdb(ray_session, t1):
    """ROWS BETWEEN a PRECEDING AND b FOLLOWING (centered / leading
    moving aggregates) vs DuckDB — exact at partition tails."""
    for sql in [
        "SELECT k, CAST(SUM(v) OVER (PARTITION BY s ORDER BY k "
        "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS BIGINT) AS cs, "
        "AVG(v) OVER (PARTITION BY s ORDER BY k "
        "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS ca "
        "FROM t1 ORDER BY k LIMIT 60",
        "SELECT k, MIN(v) OVER (PARTITION BY s ORDER BY k "
        "ROWS BETWEEN 1 PRECEDING AND 3 FOLLOWING) AS mn, "
        "MAX(v) OVER (PARTITION BY s ORDER BY k "
        "ROWS BETWEEN 1 PRECEDING AND 3 FOLLOWING) AS mx, "
        "COUNT(*) OVER (PARTITION BY s ORDER BY k "
        "ROWS BETWEEN 1 PRECEDING AND 3 FOLLOWING) AS n "
        "FROM t1 ORDER BY k LIMIT 60",
        # UNBOUNDED PRECEDING with a FOLLOWING end
        "SELECT k, CAST(SUM(v) OVER (PARTITION BY s ORDER BY k "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 FOLLOWING) AS BIGINT) "
        "AS us FROM t1 ORDER BY k LIMIT 60",
        # 0 PRECEDING AND m FOLLOWING (purely leading window)
        "SELECT k, MIN(f) OVER (PARTITION BY s ORDER BY k "
        "ROWS BETWEEN 0 PRECEDING AND 2 FOLLOWING) AS lm "
        "FROM t1 ORDER BY k LIMIT 60",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_filter_clause_and_offset_match_duckdb(ray_session, t1):
    """agg FILTER (WHERE ..) and LIMIT .. OFFSET vs DuckDB."""
    for sql in [
        "SELECT s, COUNT(*) FILTER (WHERE v > 0) AS np, "
        "CAST(SUM(v) FILTER (WHERE v > 0) AS BIGINT) AS sp, "
        "COUNT(*) AS n FROM t1 GROUP BY s ORDER BY s",
        "SELECT COUNT(*) FILTER (WHERE v % 2 = 0) AS ne, "
        "COUNT(DISTINCT s) FILTER (WHERE v > 25) AS ds FROM t1",
        "SELECT k, v FROM t1 ORDER BY k LIMIT 10 OFFSET 20",
        "SELECT k FROM t1 WHERE v > 0 ORDER BY k DESC LIMIT 7 OFFSET 3",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_string_predicates_match_duckdb(ray_session, t1):
    """starts_with/ends_with/contains/strpos/left/right/repeat."""
    for sql in [
        "SELECT k FROM t1 WHERE starts_with(s, 'name_1') ORDER BY k "
        "LIMIT 20",
        "SELECT k, contains(s, 'me_3') AS c3, ends_with(s, '_5') AS e5 "
        "FROM t1 WHERE k < 20 ORDER BY k",
        "SELECT k, strpos(s, 'e_2') AS p FROM t1 WHERE k < 15 "
        "ORDER BY k",
        "SELECT k, left(s, 4) AS l4, right(s, 3) AS r3, "
        "right(s, 99) AS rall, repeat(s, 2) AS dbl FROM t1 "
        "WHERE k < 10 ORDER BY k",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_simple_case_and_is_distinct_from(ray_session, t1):
    """Simple-form CASE and null-safe IS [NOT] DISTINCT FROM."""
    for sql in [
        "SELECT k, CASE s WHEN 'name_0' THEN 'zero' WHEN 'name_1' "
        "THEN 'one' ELSE 'many' END AS w FROM t1 WHERE k < 30 "
        "ORDER BY k",
        # nullif injects NULLs; IS DISTINCT FROM is never NULL itself
        "SELECT k FROM t1 WHERE nullif(s, 'name_0') IS DISTINCT FROM "
        "nullif(s, 'name_1') ORDER BY k LIMIT 30",
        "SELECT k FROM t1 WHERE nullif(s, 'name_0') IS NOT DISTINCT "
        "FROM nullif(s, 'name_0') AND k < 40 ORDER BY k",
        "SELECT k FROM t1 WHERE v IS DISTINCT FROM 10 AND k < 20 "
        "ORDER BY k",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_windows_over_group_by_match_duckdb(ray_session, t1):
    """Windows over GROUP BY results (two-phase: aggregate exchange,
    then window over the aggregated table) and window ORDER BY
    expressions."""
    for sql in [
        # the top-N-groups idiom
        "SELECT s, CAST(SUM(v) AS BIGINT) AS sv, "
        "RANK() OVER (ORDER BY SUM(v) DESC) AS r FROM t1 "
        "GROUP BY s ORDER BY s",
        "SELECT s, COUNT(*) AS n, "
        "ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, s) AS rn FROM t1 "
        "GROUP BY s ORDER BY s",
        # PARTITION BY a group key, window-ordered by an aggregate
        "SELECT s, k % 2 AS par, CAST(SUM(v) AS BIGINT) AS sv, "
        "RANK() OVER (PARTITION BY s ORDER BY SUM(v) DESC) AS r "
        "FROM t1 GROUP BY s, k % 2 ORDER BY s, par",
        # HAVING applies before the window
        "SELECT s, COUNT(*) AS n, "
        "RANK() OVER (ORDER BY COUNT(*) DESC, s) AS r FROM t1 "
        "GROUP BY s HAVING COUNT(*) > 60 ORDER BY s",
        # window ORDER BY expression without GROUP BY
        "SELECT k, ROW_NUMBER() OVER (PARTITION BY s "
        "ORDER BY v * v DESC, k) AS rn FROM t1 ORDER BY k LIMIT 40",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_qualify_matches_duckdb(ray_session, t1):
    """QUALIFY (filter on window results) incl. alias references and
    the grouped two-phase path."""
    for sql in [
        # window only in QUALIFY: top-3 rows per group in ONE select
        "SELECT k, v, s FROM t1 QUALIFY ROW_NUMBER() OVER "
        "(PARTITION BY s ORDER BY v DESC, k) <= 3 ORDER BY k",
        # QUALIFY referencing the SELECT alias of a window item
        "SELECT k, ROW_NUMBER() OVER (PARTITION BY s ORDER BY k) AS rn "
        "FROM t1 QUALIFY rn <= 2 ORDER BY k",
        # grouped two-phase: top-2 groups by count
        "SELECT s, COUNT(*) AS n FROM t1 GROUP BY s "
        "QUALIFY RANK() OVER (ORDER BY COUNT(*) DESC, s) <= 2 "
        "ORDER BY s",
        # QUALIFY combined with WHERE
        "SELECT k, s FROM t1 WHERE v > 0 QUALIFY ROW_NUMBER() OVER "
        "(PARTITION BY s ORDER BY k) = 1 ORDER BY k",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_set_operations_match_duckdb(ray_session, t1):
    """INTERSECT / EXCEPT distinct set semantics vs DuckDB."""
    for sql in [
        "SELECT s FROM t1 WHERE v > 0 INTERSECT SELECT s FROM t1 "
        "WHERE v < 0",
        "SELECT s FROM t1 WHERE v > 40 EXCEPT SELECT s FROM t1 "
        "WHERE v < -40",
        "SELECT k % 5 AS m FROM t1 WHERE v > 0 INTERSECT "
        "SELECT k % 5 AS m FROM t1 WHERE v < -30 ORDER BY m",
        # multi-column rows
        "SELECT s, k % 2 AS p FROM t1 WHERE v > 10 EXCEPT "
        "SELECT s, k % 2 AS p FROM t1 WHERE v > 45 ORDER BY s, p",
        # chained with UNION (left-associative on both engines when
        # written left-to-right without mixing precedence levels)
        "SELECT s FROM t1 WHERE v > 45 UNION ALL SELECT s FROM t1 "
        "WHERE v < -45",
        # bag (ALL) forms keep multiplicities: min(l,r) / max(0,l-r)
        # copies per distinct row — s repeats ~71x per value in t1
        "SELECT s FROM t1 WHERE v > 0 INTERSECT ALL SELECT s FROM t1 "
        "WHERE v < 0",
        "SELECT s FROM t1 WHERE v > 0 EXCEPT ALL SELECT s FROM t1 "
        "WHERE v < 0",
        "SELECT k % 5 AS m FROM t1 WHERE v > 0 INTERSECT ALL "
        "SELECT k % 7 AS m FROM t1 WHERE v < 0 ORDER BY m",
        "SELECT s, k % 2 AS p FROM t1 WHERE v > 10 EXCEPT ALL "
        "SELECT s, k % 2 AS p FROM t1 WHERE v > 25 ORDER BY s, p",
        # explicit DISTINCT keyword is the default
        "SELECT s FROM t1 WHERE v > 0 INTERSECT DISTINCT SELECT s "
        "FROM t1 WHERE v < 0",
        "SELECT s FROM t1 WHERE v > 40 EXCEPT DISTINCT SELECT s "
        "FROM t1 WHERE v < -40",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_rollup_matches_duckdb(ray_session, t1):
    """GROUP BY ROLLUP subtotal levels vs DuckDB (string and int keys;
    COUNT pins the row multiset, CAST pins sum dtypes)."""
    for sql in [
        # no ORDER BY: the harness canonicalizes row order itself, and
        # a global sort over a nullable string key is a separate concern
        "SELECT s, COUNT(*) AS n, CAST(SUM(v) AS BIGINT) AS sv FROM t1 "
        "GROUP BY ROLLUP (s)",
        "SELECT s, k % 2 AS par, COUNT(*) AS n FROM t1 "
        "GROUP BY ROLLUP (s, k % 2)",
        # aggregates whose ARGUMENT is a rolled-up key: subtotal rows
        # must aggregate the real values, not the NULL substitution
        "SELECT s, COUNT(s) AS cs, CAST(SUM(k) AS BIGINT) AS sk FROM t1 "
        "GROUP BY ROLLUP (s)",
        # HAVING over a rolled-up level
        "SELECT s, COUNT(*) AS n FROM t1 GROUP BY ROLLUP (s) "
        "HAVING COUNT(*) > 10",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_cube_matches_duckdb(ray_session, t1):
    """GROUP BY CUBE: all key-subset levels."""
    _run_both(
        "SELECT s, k % 2 AS par, COUNT(*) AS n, "
        "CAST(SUM(v) AS BIGINT) AS sv FROM t1 "
        "GROUP BY CUBE (s, k % 2)",
        None, {"t1": t1})
    # aggregate over a cubed key (regression: NULL substitution must
    # not reach aggregate arguments)
    _run_both(
        "SELECT s, CAST(SUM(k) AS BIGINT) AS sk, COUNT(s) AS cs FROM t1 "
        "GROUP BY CUBE (s)",
        None, {"t1": t1})


def test_grouping_sets_matches_duckdb(ray_session, t1):
    """GROUP BY GROUPING SETS: explicit user-chosen aggregation levels
    (each set one grouped-exchange pass, unioned; unused keys NULL)."""
    for sql in [
        # classic rollup-equivalent spelled explicitly, incl. grand total
        "SELECT s, k % 2 AS par, COUNT(*) AS n, "
        "CAST(SUM(v) AS BIGINT) AS sv FROM t1 "
        "GROUP BY GROUPING SETS ((s, k % 2), (s), ())",
        # disjoint single-key sets — each level nulls a DIFFERENT key,
        # so the union schema must promote null-typed columns per column
        "SELECT s, k % 2 AS par, COUNT(*) AS n FROM t1 "
        "GROUP BY GROUPING SETS ((s), (k % 2))",
        # bare (unparenthesized) expr as a one-key set
        "SELECT s, COUNT(*) AS n FROM t1 GROUP BY GROUPING SETS (s, ())",
        # aggregate whose argument is a grouped key: NULL substitution
        # must not reach aggregate arguments
        "SELECT s, COUNT(s) AS cs, CAST(SUM(k) AS BIGINT) AS sk FROM t1 "
        "GROUP BY GROUPING SETS ((s), ())",
        # HAVING applies per level
        "SELECT s, k % 2 AS par, COUNT(*) AS n FROM t1 "
        "GROUP BY GROUPING SETS ((s), (k % 2), ()) HAVING COUNT(*) > 60",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_grouping_function_matches_duckdb(ray_session, t1):
    """GROUPING(key...) literal per level: 1 when the key is rolled up,
    multi-arg = bitmask with the leftmost argument most significant."""
    for sql in [
        "SELECT s, COUNT(*) AS n, GROUPING(s) AS gs FROM t1 "
        "GROUP BY ROLLUP (s)",
        "SELECT s, k % 2 AS par, COUNT(*) AS n, "
        "GROUPING(s, k % 2) AS gm FROM t1 GROUP BY CUBE (s, k % 2)",
        "SELECT s, k % 2 AS par, GROUPING(s) AS gs, "
        "GROUPING(k % 2) AS gp, COUNT(*) AS n FROM t1 "
        "GROUP BY GROUPING SETS ((s), (k % 2), ())",
        # GROUPING inside an expression (the subtotal-row label idiom)
        "SELECT CASE WHEN GROUPING(s) = 1 THEN 'total' ELSE s END "
        "AS lbl, COUNT(*) AS n FROM t1 GROUP BY ROLLUP (s)",
        # HAVING on GROUPING: keep only the subtotal levels
        "SELECT s, k % 2 AS par, COUNT(*) AS n FROM t1 "
        "GROUP BY CUBE (s, k % 2) HAVING GROUPING(s, k % 2) > 0",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_grouping_function_non_key_raises(ray_session, t1):
    import ray

    with pytest.raises(ValueError, match="GROUPING"):
        parse_sql(
            "SELECT s, GROUPING(v) AS g, COUNT(*) AS n FROM t1 "
            "GROUP BY ROLLUP (s)",
            {"t1": ray.data.from_arrow(t1)})


def test_rollup_with_window_raises(ray_session, t1):
    """ROLLUP/CUBE + window functions/QUALIFY: explicit error, not a
    silent degrade to plain GROUP BY."""
    import ray

    with pytest.raises(ValueError, match="ROLLUP/CUBE"):
        parse_sql(
            "SELECT s, COUNT(*) AS n, ROW_NUMBER() OVER (ORDER BY s) AS rn "
            "FROM t1 GROUP BY ROLLUP (s)",
            {"t1": ray.data.from_arrow(t1)})


def test_lag_lead_default_matches_duckdb(ray_session, t1):
    """LAG/LEAD third (default) argument fills out-of-window rows."""
    for sql in [
        "SELECT k, LAG(v, 1, 0) OVER (PARTITION BY s ORDER BY k) AS pv "
        "FROM t1 WHERE k < 60",
        "SELECT k, LEAD(v, 2, -1) OVER (PARTITION BY s ORDER BY k) AS nv "
        "FROM t1 WHERE k < 60",
        "SELECT k, LAG(s, 1, 'none') OVER (ORDER BY k) AS ps "
        "FROM t1 WHERE k < 20",
    ]:
        _run_both(sql, None, {"t1": t1})


def test_set_op_positional_alignment(ray_session, t1, t2):
    """INTERSECT/EXCEPT/UNION align columns by POSITION (SQL), even
    when the two sides' output names differ."""
    for sql in [
        "SELECT s FROM t1 INTERSECT SELECT gkey FROM t2",
        "SELECT s FROM t1 EXCEPT SELECT gkey FROM t2",
        "SELECT s FROM t1 WHERE k < 5 UNION SELECT gkey FROM t2",
        "SELECT s FROM t1 WHERE k < 3 UNION ALL SELECT gkey FROM t2",
    ]:
        _run_both(sql, None, {"t1": t1, "t2": t2})


def test_semi_join_fallback_large_value_sets(ray_session, t1, t2, t3):
    """IN (subquery) / [NOT] EXISTS beyond the broadcast cap take the
    bucketed semi-join (value set never collects to the driver) —
    results must stay identical to the broadcast path and to DuckDB."""
    for sql in [
        # IN (subquery), set size 3 > threshold 1
        "SELECT k, v FROM t1 WHERE s IN (SELECT gkey FROM t2 WHERE g < 3) "
        "ORDER BY k LIMIT 30",
        # NOT IN (no NULLs in the set)
        "SELECT k FROM t1 WHERE s NOT IN (SELECT gkey FROM t2 WHERE g < 5) "
        "ORDER BY k LIMIT 30",
        # correlated EXISTS / NOT EXISTS
        "SELECT k FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE gkey = s "
        "AND g < 4) ORDER BY k LIMIT 30",
        "SELECT k, s FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 "
        "WHERE gkey = s AND g < 4) ORDER BY k LIMIT 30",
        # EXISTS against the partial-coverage table
        "SELECT k FROM t1 WHERE EXISTS (SELECT 1 FROM t3 WHERE hkey = s) "
        "ORDER BY k LIMIT 30",
        # SELECT *: synthetic marker columns must not surface
        "SELECT * FROM t1 WHERE s IN (SELECT gkey FROM t2 WHERE g < 2) "
        "ORDER BY k LIMIT 10",
        # IN combined with a user join (pending entry appended after it)
        "SELECT k, label FROM t1 JOIN t2 ON s = gkey WHERE "
        "s IN (SELECT hkey FROM t3) ORDER BY k LIMIT 20",
        # EXISTS alongside an aggregate
        "SELECT s, COUNT(*) AS n FROM t1 WHERE EXISTS "
        "(SELECT 1 FROM t2 WHERE gkey = s AND g < 3) GROUP BY s",
    ]:
        _run_both(sql, None, {"t1": t1, "t2": t2, "t3": t3},
                  broadcast_threshold=1)


def test_semi_join_fallback_not_in_null_set(ray_session, t1):
    """NOT IN against a large set containing NULL: 3VL — never TRUE."""
    tn = pa.table({"gkey": pa.array(["name_1", None, "name_2", "name_3"])})
    sql = "SELECT k FROM t1 WHERE s NOT IN (SELECT gkey FROM tn)"
    _run_both(sql, None, {"t1": t1, "tn": tn}, broadcast_threshold=1)


def test_numchar_maxwidth_reference_scalars(ray_session):
    """numchar/maxwidth (reference sqlselect/functions.go:52-94) against
    DuckDB-equivalent expressions (DuckDB has no such builtins — the
    oracle uses replace-arithmetic and list_max over string_split)."""
    import ray

    t = pa.table({
        "k": pa.array(np.arange(6, dtype=np.int64)),
        "s": pa.array(["a,bb,ccc", "x", "", "no-sep-here", "aa,aa,aa",
                       None]),
    })
    ds = {"t": ray.data.from_arrow(t)}
    got = parse_sql(
        "SELECT k, numchar(s, 'a') AS nc, maxwidth(s, ',') AS mw "
        "FROM t ORDER BY k", ds).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT k, CAST((strlen(s) - strlen(replace(s, 'a', ''))) "
        "/ strlen('a') AS BIGINT) AS nc, "
        "list_max(list_transform(string_split(s, ','), x -> strlen(x))) "
        "AS mw FROM t ORDER BY k").df()
    assert got["nc"].fillna(-1).tolist() == want["nc"].fillna(-1).tolist()
    assert got["mw"].fillna(-1).tolist() == want["mw"].fillna(-1).tolist()

    # default separator is newline (reference functions.go:75)
    got2 = parse_sql("SELECT maxwidth(s) AS mw FROM t2",
                     {"t2": ray.data.from_arrow(pa.table(
                         {"s": ["ab\nc\ndefg", "qq"]}))}).to_pandas()
    assert got2["mw"].tolist() == [4, 2]


CTE_CASES = [
    # single CTE feeding an aggregate
    "WITH pos AS (SELECT k, v, s FROM t1 WHERE v > 0) "
    "SELECT s, COUNT(*) AS n, CAST(SUM(v) AS BIGINT) AS sv FROM pos GROUP BY s",
    # two CTEs, the second referencing the first
    "WITH pos AS (SELECT k, v, s FROM t1 WHERE v > 0), "
    "agg AS (SELECT s, CAST(SUM(v) AS BIGINT) AS sv FROM pos GROUP BY s) "
    "SELECT s, sv FROM agg WHERE sv > 50",
    # CTE joined against a base table
    "WITH agg AS (SELECT s, COUNT(*) AS n FROM t1 GROUP BY s) "
    "SELECT t2.label, agg.n FROM agg JOIN t2 ON agg.s = t2.gkey",
    # CTE referenced twice in one query (set op over the same CTE)
    "WITH big AS (SELECT k, v FROM t1 WHERE v >= 25) "
    "SELECT k FROM big WHERE v >= 40 UNION ALL SELECT k FROM big "
    "WHERE v < 30",
    # CTE with window function consumed downstream
    "WITH r AS (SELECT k, s, v, row_number() OVER "
    "(PARTITION BY s ORDER BY v DESC, k) AS rk FROM t1) "
    "SELECT s, k, v FROM r WHERE rk <= 2",
]


@pytest.mark.parametrize("sql", CTE_CASES)
def test_cte_matches_duckdb(ray_session, t1, t2, sql):
    _run_both(sql, None, {"t1": t1, "t2": t2})


RECURSIVE_CASES = [
    # transitive closure of the floor(k/7) parent chain, re-aggregated
    "WITH RECURSIVE p AS (SELECT k, CAST(floor(k / 7) AS BIGINT) AS pk "
    "FROM t1 WHERE k > 0), "
    "anc AS (SELECT k, k AS root FROM p WHERE pk = 0 "
    "UNION ALL SELECT p.k, a.root FROM p JOIN anc a ON p.pk = a.k) "
    "SELECT root, COUNT(*) AS n, CAST(SUM(k) AS BIGINT) AS sk "
    "FROM anc GROUP BY root",
    # cyclic step relation: UNION (distinct) terminates at the fixpoint
    "WITH RECURSIVE r AS (SELECT k FROM t1 WHERE k = 1 "
    "UNION SELECT (r.k * 3) % 10 AS k FROM r) SELECT k FROM r",
    # CTE column list renames positionally; step sees the new names
    "WITH RECURSIVE c (n, tot) AS ("
    "SELECT k AS x, k AS y FROM t1 WHERE k = 1 "
    "UNION ALL SELECT n + 1, tot + n + 1 FROM c WHERE n < 10) "
    "SELECT n, tot FROM c",
    # RECURSIVE keyword with a non-self-referencing CTE = plain CTE
    "WITH RECURSIVE c AS (SELECT k, v FROM t1 WHERE k < 50) "
    "SELECT COUNT(*) AS n, CAST(SUM(v) AS BIGINT) AS sv FROM c",
]


@pytest.mark.parametrize("sql", RECURSIVE_CASES)
def test_recursive_cte_matches_duckdb(ray_session, t1, sql):
    _run_both(sql, None, {"t1": t1})


def test_recursive_step_only_in_final_arm(ray_session, t1):
    import ray

    with pytest.raises(ValueError, match="final UNION arm"):
        parse_sql(
            "WITH RECURSIVE r AS (SELECT k FROM r UNION ALL "
            "SELECT k FROM t1 WHERE k = 1) SELECT * FROM r",
            {"t1": ray.data.from_arrow(t1)})


def test_recursive_rejects_setops_and_order(ray_session, t1):
    import ray

    tabs = {"t1": ray.data.from_arrow(t1)}
    with pytest.raises(ValueError, match="UNION"):
        parse_sql(
            "WITH RECURSIVE r AS (SELECT k FROM t1 WHERE k = 1 "
            "INTERSECT SELECT k + 1 AS k FROM r) SELECT * FROM r", tabs)
    with pytest.raises(ValueError, match="ORDER BY / LIMIT"):
        parse_sql(
            "WITH RECURSIVE r AS (SELECT k FROM t1 WHERE k = 1 "
            "UNION ALL SELECT k + 1 AS k FROM r WHERE k < 5 "
            "ORDER BY k LIMIT 3) SELECT * FROM r", tabs)


def test_recursive_depth_limit(ray_session, t1, monkeypatch):
    import ray

    from osmquadtree_depreceated_ray.pipelines import sqlparse as sp

    monkeypatch.setattr(sp, "RECURSIVE_MAX_ROUNDS", 4)
    with pytest.raises(ValueError, match="4 rounds"):
        parse_sql(
            "WITH RECURSIVE r AS (SELECT k FROM t1 WHERE k = 1 "
            "UNION ALL SELECT k + 1 AS k FROM r) SELECT * FROM r",
            {"t1": ray.data.from_arrow(t1)})


def test_cte_does_not_mutate_table_map(ray_session, t1):
    import ray

    tabs = {"t1": ray.data.from_arrow(t1)}
    parse_sql("WITH c AS (SELECT k FROM t1 WHERE k < 5) "
              "SELECT COUNT(*) AS n FROM c", tabs)
    assert set(tabs) == {"t1"}


def test_lag_default_preserves_genuine_nulls(ray_session):
    """LAG/LEAD default fills ONLY out-of-window rows; a genuinely NULL
    lagged value stays NULL (SQL semantics, vs fillna which conflates
    the two NaN sources)."""
    import ray

    t = pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "v": pa.array([None, 5, 7], pa.int64()),
    })
    sql = ("SELECT k, LAG(v, 1, 0) OVER (ORDER BY k) AS lg, "
           "LEAD(v, 1, -1) OVER (ORDER BY k) AS ld FROM t ORDER BY k")
    got = parse_sql(sql, {"t": ray.data.from_arrow(t)}).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(sql).df()
    assert got["lg"].fillna(-99).tolist() == want["lg"].fillna(-99).tolist()
    assert got["ld"].fillna(-99).tolist() == want["ld"].fillna(-99).tolist()


def test_in_subquery_expression_probe_collects(ray_session, t1, t2):
    """An EXPRESSION probe (upper(s) IN (subquery)) cannot take the
    bucketed semi-join; above the broadcast cap it must keep the
    broadcast path and still return correct results, not raise."""
    sql = ("SELECT k FROM t1 WHERE upper(s) IN "
           "(SELECT upper(gkey) FROM t2 WHERE g < 3) ORDER BY k LIMIT 40")
    _run_both(sql, None, {"t1": t1, "t2": t2}, broadcast_threshold=0)


def test_string_hash_regex_functions(ray_session):
    """md5 / regexp_extract / regexp_replace / split_part / lpad / rpad
    against DuckDB on the identical string (null propagation included)."""
    import ray

    t = pa.table({
        "k": pa.array([0, 1, 2, 3], pa.int64()),
        "s": pa.array(["abc-123", "no digits", "x-7", None]),
    })
    sql = ("SELECT k, md5(s) AS h, "
           "regexp_extract(s, '[0-9]+') AS d, "
           "regexp_replace(s, '[0-9]', '#') AS r1, "
           "regexp_replace(s, '[0-9]', '#', 'g') AS rg, "
           "split_part(s, '-', 2) AS p2, "
           "lpad(s, 5, '_') AS lp, rpad(s, 5, '_') AS rp "
           "FROM t ORDER BY k")
    got = parse_sql(sql, {"t": ray.data.from_arrow(t)}).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(sql).df()
    for c in ("h", "d", "r1", "rg", "p2", "lp", "rp"):
        assert got[c].fillna("<N>").tolist() == \
            want[c].fillna("<N>").tolist(), (c, got[c], want[c])


def test_self_correlation_same_name_rejected(ray_session, t1):
    """i.s = outer.s over the same column name must raise loudly (the
    parser collapses qualifiers, so silently it would be a tautology);
    the documented workaround is aliasing in a derived table."""
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    tabs = {"t1": ray.data.from_arrow(t1)}
    with pytest.raises(ValueError, match="self-correlation"):
        parse_sql(
            "SELECT k FROM t1 WHERE EXISTS "
            "(SELECT 1 FROM t1 i WHERE i.s = t1.s AND i.v > 40)", tabs)
    # workaround: alias the inner column through a CTE
    sql = ("WITH i2 AS (SELECT s AS s2, v AS v2 FROM t1) "
           "SELECT k FROM t1 WHERE EXISTS "
           "(SELECT 1 FROM i2 WHERE i2.s2 = t1.s AND i2.v2 > 45) "
           "ORDER BY k")
    got = parse_sql(sql, tabs).to_pandas()
    con = duckdb.connect()
    con.register("t1", t1)
    want = con.execute(sql).df()
    assert list(got["k"]) == list(want["k"])


def test_unnest_explode_matches_duckdb(ray_session):
    """UNNEST(string_split(..)) explode: repeated scalar columns, NULL
    list drops the row, empty string splits to one '' element (DuckDB
    semantics, verified against the identical string)."""
    import duckdb
    import pyarrow as pa
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    t = pa.table({
        "k": [1, 2, 3, 4],
        "s": ["a b c", "", "b b", None],
    })
    sql = ("SELECT k, k * 10 AS k10, unnest(string_split(s, ' ')) AS w "
           "FROM t WHERE k <> 99")
    got = parse_sql(sql, {"t": ray.data.from_arrow(t)}).to_pandas() \
        .sort_values(["k", "w"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(sql).df().sort_values(["k", "w"]) \
        .reset_index(drop=True)
    assert got.equals(want), (got, want)
    assert 4 not in got["k"].tolist()  # NULL list dropped


def test_unnest_under_group_by_subquery(ray_session):
    """The explode feeding a GROUP BY through a derived table."""
    import duckdb
    import pyarrow as pa
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    t = pa.table({"k": [1, 2], "s": ["x y x", "y"]})
    sql = ("SELECT w, COUNT(*) AS n FROM "
           "(SELECT unnest(string_split(s, ' ')) AS w FROM t) q "
           "GROUP BY w ORDER BY n DESC, w")
    got = parse_sql(sql, {"t": ray.data.from_arrow(t)}).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(sql).df()
    assert got.reset_index(drop=True).equals(want), (got, want)


def test_unnest_restrictions(ray_session):
    import pyarrow as pa
    import pytest as _pytest
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    t = pa.table({"k": [1], "s": ["a b"]})
    tabs = {"t": ray.data.from_arrow(t)}
    with _pytest.raises(ValueError, match="UNNEST"):
        parse_sql("SELECT unnest(string_split(s, ' ')) AS a, "
                  "unnest(string_split(s, ' ')) AS b FROM t", tabs)
    with _pytest.raises(ValueError, match="UNNEST"):
        parse_sql("SELECT unnest(string_split(s, ' ')) || '!' AS a "
                  "FROM t", tabs)


@pytest.fixture(scope="module")
def tq():
    """Nullable integer pair for quantified/inequality subquery tests."""
    rng = np.random.default_rng(41)
    m = rng.integers(-9, 10, 20).astype(object)
    m[4] = None
    m[11] = None
    return pa.table({
        "m": pa.array(list(m), pa.int64()),
        "w": pa.array(rng.integers(0, 100, 20), pa.int64()),
    })


QUANT_CASES = [
    "SELECT k, v FROM t1 WHERE v > ANY (SELECT m FROM u) ORDER BY k",
    "SELECT k, v FROM t1 WHERE v > ALL (SELECT m FROM u) ORDER BY k",
    "SELECT k, v FROM t1 WHERE NOT (v >= ANY (SELECT m FROM u)) ORDER BY k",
    "SELECT k, v FROM t1 WHERE v <= ALL (SELECT m FROM u WHERE m IS "
    "NOT NULL) ORDER BY k",
    "SELECT k, v FROM t1 WHERE v = ANY (SELECT m FROM u) ORDER BY k",
    "SELECT k, v FROM t1 WHERE v <> ALL (SELECT m FROM u WHERE m IS "
    "NOT NULL) ORDER BY k",
    "SELECT k, v FROM t1 WHERE v = ALL (SELECT m FROM u WHERE m = 5) "
    "ORDER BY k",
    "SELECT k, v FROM t1 WHERE v <> ANY (SELECT m FROM u) ORDER BY k",
    "SELECT k, v FROM t1 WHERE v > SOME (SELECT m FROM u WHERE w > 90) "
    "ORDER BY k",
    "SELECT k, v FROM t1 WHERE v > ALL (SELECT m FROM u WHERE 1 = 2) "
    "ORDER BY k",
    "SELECT k, v FROM t1 WHERE v < ANY (SELECT m FROM u WHERE 1 = 2) "
    "ORDER BY k",
    "SELECT k, v FROM t1 WHERE v <= ALL (SELECT m FROM u WHERE m IS "
    "NULL) ORDER BY k",
    "SELECT k, v, CAST((CASE WHEN v > ANY (SELECT m FROM u) THEN 1 "
    "ELSE 0 END) AS BIGINT) AS f FROM t1 ORDER BY k",
]


@pytest.mark.parametrize("sql", QUANT_CASES)
def test_quantified_comparisons(ray_session, t1, tq, sql):
    """x op ANY/ALL/SOME (subquery) — lowered from four subquery-side
    scalars with full 3VL (NULL elements / NULL probes), vs DuckDB on
    the identical string."""
    _run_both(sql, None, {"t1": t1, "u": tq})


INEQ_CORR_CASES = [
    "SELECT k, v FROM t1 WHERE EXISTS (SELECT 1 FROM u WHERE u.m > t1.v) "
    "ORDER BY k",
    "SELECT k, v FROM t1 WHERE NOT EXISTS (SELECT 1 FROM u WHERE "
    "u.m <= t1.v AND u.w > 50) ORDER BY k",
    "SELECT k, CAST((SELECT SUM(w) FROM u WHERE u.m > t1.v) AS BIGINT) "
    "AS sq FROM t1 ORDER BY k",
    "SELECT k, (SELECT COUNT(*) FROM u WHERE u.m >= t1.v) AS sq FROM t1 "
    "ORDER BY k",
    "SELECT k, CAST((SELECT MIN(w) FROM u WHERE u.m < t1.v) AS BIGINT) "
    "AS sq FROM t1 ORDER BY k",
    "SELECT k, CAST((SELECT MAX(w) FROM u WHERE u.m <= t1.v AND u.w > 30)"
    " AS BIGINT) AS sq FROM t1 ORDER BY k",
    "SELECT k, (SELECT AVG(w) FROM u WHERE u.m <= t1.v) AS sq FROM t1 "
    "ORDER BY k",
]


@pytest.mark.parametrize("sql", INEQ_CORR_CASES)
def test_inequality_correlated_subqueries(ray_session, t1, tq, sql):
    """Inequality-correlated EXISTS (extreme-value witness) and scalar
    aggregates (sorted cumulative probe) vs DuckDB."""
    _run_both(sql, None, {"t1": t1, "u": tq})


CORR_COUNT_CASES = [
    "SELECT g, (SELECT COUNT(*) FROM t3 WHERE t3.h = t2.g) AS c "
    "FROM t2 ORDER BY g",
    "SELECT g, (SELECT COUNT(tag) FROM t3 WHERE t3.h = t2.g) AS c "
    "FROM t2 ORDER BY g",
    "SELECT g, CAST((SELECT COUNT(*) + COALESCE(SUM(h), 0) FROM t3 "
    "WHERE t3.h = t2.g) AS BIGINT) AS c FROM t2 ORDER BY g",
]


@pytest.mark.parametrize("sql", CORR_COUNT_CASES)
def test_correlated_count_zero_for_unmatched(ray_session, t2, t3, sql):
    """A correlated scalar COUNT over an empty match set is 0, not NULL
    (the left-join decorrelation coalesces count-kind aggregates)."""
    _run_both(sql, None, {"t2": t2, "t3": t3})


def test_case_null_condition_falls_through(ray_session):
    import ray

    t = pa.table({"j": pa.array([1, None, 5], pa.int64())})
    sql = ("SELECT j, CAST((CASE WHEN j > 3 THEN 1 ELSE 0 END) "
           "AS BIGINT) AS f FROM t")
    _run_both(sql, None, {"t": t})


SUBSTR_EDGE_CASES = [
    "SELECT k, SUBSTR(s, -3, 2) AS a FROM t1 ORDER BY k LIMIT 20",
    "SELECT k, SUBSTR(s, 0, 3) AS a FROM t1 ORDER BY k LIMIT 20",
    "SELECT k, SUBSTR(s, -7, 8) AS a FROM t1 ORDER BY k LIMIT 20",
    "SELECT k, LEFT(s, -2) AS a FROM t1 ORDER BY k LIMIT 20",
    "SELECT k, RIGHT(s, -3) AS a FROM t1 ORDER BY k LIMIT 20",
]


@pytest.mark.parametrize("sql", SUBSTR_EDGE_CASES)
def test_substr_edge_semantics(ray_session, t1, sql):
    """Negative/zero start positions follow DuckDB's from-the-end
    anchoring; LEFT/RIGHT accept negative lengths."""
    _run_both(sql, None, {"t1": t1})


NOT_POLARITY_BUCKETED = [
    # NULL probe + NULL member under NOT(...): the marker-join lowering
    # must yield genuine NULLs (not FALSE) for the undetermined rows
    "SELECT w, m FROM u WHERE NOT (m IN (SELECT m FROM u WHERE "
    "w > 50)) ORDER BY w",
    "SELECT w, m FROM u WHERE NOT (m IN (SELECT m FROM u WHERE "
    "m IS NOT NULL)) ORDER BY w",
    "SELECT w, m FROM u WHERE NOT (m NOT IN (SELECT m FROM u WHERE "
    "m IS NOT NULL)) ORDER BY w",
    "SELECT w, m FROM u WHERE NOT (m NOT IN (SELECT m FROM u WHERE "
    "m IS NOT NULL AND w > 50)) ORDER BY w",
]


@pytest.mark.parametrize("sql", NOT_POLARITY_BUCKETED)
def test_semi_join_fallback_not_polarity(ray_session, tq, sql):
    """The bucketed marker-join IN/NOT IN lowering keeps full 3VL in
    every polarity (NOT-wrapped probes, NULL members, NULL probes)."""
    _run_both(sql, None, {"u": tq}, broadcast_threshold=0)


# ------------------------------------------------------------------ joins v2:
# composite keys, theta residuals, CROSS JOIN, derived join RHS


@pytest.fixture(scope="module")
def ja():
    return pa.table({
        "k": pa.array([1, 2, 2, 3, None, 4], pa.int64()),
        "g": pa.array([10, 10, 20, 20, 30, None], pa.int64()),
        "v": pa.array([1.0, 2, 3, 4, 5, 6]),
    })


@pytest.fixture(scope="module")
def jb():
    return pa.table({
        "k": pa.array([1, 2, 2, None, 5], pa.int64()),
        "g": pa.array([10, 20, 20, 40, 50], pa.int64()),
        "w": pa.array([100.0, 200, 300, 400, 500]),
    })


JOIN_V2_CASES = [
    # composite-key joins in every direction, incl. NULL-key rows on
    # both sides (SQL: a null in ANY key never matches; outer joins
    # still surface those rows)
    "SELECT ja.k, ja.g, v, w FROM ja JOIN jb ON ja.k = jb.k "
    "AND ja.g = jb.g",
    "SELECT ja.k AS ak, ja.g AS ag, v, w FROM ja LEFT JOIN jb "
    "ON ja.k = jb.k AND ja.g = jb.g",
    "SELECT v, w FROM ja RIGHT JOIN jb ON ja.k = jb.k AND ja.g = jb.g",
    "SELECT ja.k AS ak, v, w FROM ja FULL JOIN jb ON ja.k = jb.k "
    "AND ja.g = jb.g",
    # USING with a column list
    "SELECT v, w FROM ja JOIN jb USING (k, g)",
    # theta residual riding on an equi key (INNER only)
    "SELECT ja.k, v, w FROM ja JOIN jb ON ja.k = jb.k AND w > 150",
    "SELECT ja.k, v, w FROM ja JOIN jb ON ja.k = jb.k AND w > v * 50 "
    "AND v < 5",
    # expression equality falls to the residual (still correct)
    "SELECT v, w FROM ja JOIN jb ON w = v * 100",
    # pure theta -> bounded cartesian + filter
    "SELECT v, w FROM ja JOIN jb ON v * 100 < w",
    # OR at the top level of ON -> single residual, no equi keys
    # (unambiguous column names only; shared names raise, see
    # test_join_residual_ambiguous_raises)
    "SELECT v, w FROM ja JOIN jb ON w = v * 100 OR v + w > 502",
    # CROSS JOIN
    "SELECT v, w FROM ja CROSS JOIN jb WHERE w = 100",
    # derived table as join RHS (null group key promotes k to float on
    # the build side — dtype harmonization must absorb it)
    "SELECT v, mw FROM ja JOIN (SELECT k, MAX(w) AS mw FROM jb "
    "GROUP BY k) m ON ja.k = m.k",
]


@pytest.mark.parametrize("sql", JOIN_V2_CASES)
def test_join_v2(ray_session, ja, jb, sql):
    _run_both(sql, None, {"ja": ja, "jb": jb})


@pytest.mark.parametrize("sql", [
    # same cases through the SHUFFLE join path (broadcast disabled)
    "SELECT ja.k, ja.g, v, w FROM ja JOIN jb ON ja.k = jb.k "
    "AND ja.g = jb.g",
    "SELECT ja.k AS ak, v, w FROM ja FULL JOIN jb ON ja.k = jb.k "
    "AND ja.g = jb.g",
    "SELECT v, mw FROM ja JOIN (SELECT k, MAX(w) AS mw FROM jb "
    "GROUP BY k) m ON ja.k = m.k",
])
def test_join_v2_shuffle_path(ray_session, ja, jb, monkeypatch, sql):
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    ds_tabs = {"ja": ray.data.from_arrow(ja), "jb": ray.data.from_arrow(jb)}
    got = parse_sql(sql, ds_tabs, broadcast_threshold=0).to_pandas()
    con = duckdb.connect()
    con.register("ja", ja)
    con.register("jb", jb)
    want = con.execute(sql).df()
    cols = sorted(want.columns)
    g = got[cols].astype("float64").sort_values(cols).reset_index(drop=True)
    w = want[cols].astype("float64").sort_values(cols).reset_index(drop=True)
    assert len(g) == len(w), sql
    for c in cols:
        assert np.allclose(g[c], w[c], equal_nan=True), (c, sql)


def test_join_residual_outer_raises(ray_session, ja, jb):
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    ds_tabs = {"ja": ray.data.from_arrow(ja), "jb": ray.data.from_arrow(jb)}
    with pytest.raises(ValueError, match="INNER/CROSS"):
        parse_sql("SELECT v, w FROM ja LEFT JOIN jb ON ja.k = jb.k "
                  "AND w > 150", ds_tabs)


def test_join_residual_ambiguous_raises(ray_session, ja, jb):
    """A theta conjunct naming a column that exists on BOTH sides would
    silently compare left values with themselves (qualifiers collapse
    at parse time) — the engine must refuse instead."""
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    ds_tabs = {"ja": ray.data.from_arrow(ja), "jb": ray.data.from_arrow(jb)}
    with pytest.raises(ValueError, match="ambiguous column"):
        parse_sql("SELECT v, w FROM ja JOIN jb ON ja.k = jb.k "
                  "OR w = v * 100", ds_tabs)
    with pytest.raises(ValueError, match="ambiguous column"):
        parse_sql("SELECT v, w FROM ja JOIN jb ON ja.k = jb.k "
                  "AND ja.g > jb.g", ds_tabs)


def test_cross_join_threshold_guard(ray_session, ja, jb):
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    ds_tabs = {"ja": ray.data.from_arrow(ja), "jb": ray.data.from_arrow(jb)}
    with pytest.raises(ValueError, match="CROSS JOIN right side"):
        parse_sql("SELECT v, w FROM ja CROSS JOIN jb", ds_tabs,
                  broadcast_threshold=2).to_pandas()


WINDOW_LAST_NTH_CASES = [
    # last_value's default-frame gotcha: value of the current row's
    # LAST PEER, not the partition tail
    "SELECT k, v, LAST_VALUE(v) OVER (PARTITION BY s ORDER BY v) AS lv "
    "FROM t1 WHERE k < 60",
    "SELECT k, LAST_VALUE(s) OVER (PARTITION BY v % 3 ORDER BY k) AS ls "
    "FROM t1 WHERE k < 60",
    "SELECT k, NTH_VALUE(v, 2) OVER (PARTITION BY s ORDER BY k) AS nv "
    "FROM t1 WHERE k < 60",
    "SELECT k, NTH_VALUE(s, 3) OVER (ORDER BY k) AS ns FROM t1 "
    "WHERE k < 20",
]


@pytest.mark.parametrize("sql", WINDOW_LAST_NTH_CASES)
def test_window_last_nth_value(ray_session, t1, sql):
    _run_both(sql, None, {"t1": t1})


def test_grouped_minmax_nullable_strings(ray_session):
    """MIN/MAX over object columns whose groups mix strings and NULLs
    (pandas raises TypeError on the cython path; the exchange retries
    null-skipping)."""
    import duckdb
    import pyarrow as pa
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    s = ["b", None, "a", "cc", "", None, "a", "d"]
    t = pa.table({"k": pa.array(list(range(8)), pa.int64()),
                  "g": pa.array([x % 2 for x in range(8)], pa.int64()),
                  "s": pa.array(s, pa.string())})
    sql = ("SELECT g, MIN(s) AS a, MAX(s) AS b, COUNT(s) AS c, "
           "COUNT(DISTINCT s) AS d FROM t GROUP BY g ORDER BY g")
    got = parse_sql(sql, {"t": ray.data.from_arrow(t)}).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(sql).df()
    assert got["a"].tolist() == want["a"].tolist()
    assert got["b"].tolist() == want["b"].tolist()
    assert got["c"].tolist() == want["c"].tolist()
    assert got["d"].tolist() == want["d"].tolist()


def test_having_alias_orderby_agg_comma_join(ray_session):
    """DuckDB-parity conveniences: HAVING over a SELECT alias, ORDER BY
    an aggregate expression, and SQL-89 comma joins."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    rng = np.random.default_rng(5)
    t = pa.table({"k": pa.array(np.arange(12), pa.int64()),
                  "i": pa.array(rng.integers(-5, 5, 12), pa.int64())})
    u = pa.table({"m": pa.array([0, 1, 2, 2], pa.int64()),
                  "v": pa.array([10, 20, 30, 40], pa.int64())})
    con = duckdb.connect()
    con.register("t", t)
    con.register("u", u)
    tabs = {"t": ray.data.from_arrow(t), "u": ray.data.from_arrow(u)}
    for sql in [
        "SELECT (i % 3) AS g, COUNT(*) AS n FROM t GROUP BY 1 "
        "HAVING n > 2 ORDER BY g",
        "SELECT (i % 3) AS g, COUNT(*) AS n FROM t GROUP BY 1 "
        "ORDER BY COUNT(*) DESC, g",
        "SELECT k, v FROM t, u WHERE (k % 3) = u.m ORDER BY k, v",
        # (self-joins through comma syntax inherit the engine's
        # documented qualifier-collapse limitation, same as explicit
        # CROSS JOIN of a table with itself)
        "SELECT k, i, m, v FROM t, u WHERE (k % 4) = u.m "
        "AND v > 15 ORDER BY k, v",
    ]:
        got = parse_sql(sql, tabs).to_pandas()
        want = con.execute(sql).df()
        assert len(got) == len(want), sql
        for c in want.columns:
            assert got[c].tolist() == want[c].tolist(), (sql, c)
    # an aggregate NOT in the select list refuses loudly
    import pytest

    with pytest.raises(ValueError, match="SELECT list"):
        parse_sql("SELECT (i % 3) AS g FROM t GROUP BY 1 "
                  "ORDER BY COUNT(*)", tabs)


def test_group_by_without_aggregates(ray_session):
    """GROUP BY with zero aggregates anywhere == DISTINCT over the
    group keys (pandas .agg(**{}) raises without the hidden column)."""
    import duckdb
    import pyarrow as pa
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    t = pa.table({"i": pa.array([1, 2, 2, 4, 4, 4], pa.int64())})
    sql = "SELECT (i % 3) AS g FROM t GROUP BY 1 ORDER BY g"
    got = parse_sql(sql, {"t": ray.data.from_arrow(t)}).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(sql).df()
    assert got["g"].tolist() == want["g"].tolist()


def test_extract_epoch(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    rng = np.random.default_rng(5)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    t = pa.table({"k": pa.array(np.arange(10), pa.int64()),
                  "ts": pa.array(base + rng.integers(0, 10**6, 10)
                                 .astype("timedelta64[s]"))})
    con = duckdb.connect()
    con.register("t", t)
    sql = "SELECT k, EXTRACT(epoch FROM ts) AS e FROM t ORDER BY k"
    got = parse_sql(sql, {"t": ray.data.from_arrow(t)}).to_pandas()
    want = con.execute(sql).df()
    assert got["e"].tolist() == want["e"].tolist()


def test_order_by_unprojected_column(ray_session):
    """SQL sorts before projecting: ORDER BY over a column absent from
    the SELECT list."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    t = pa.table({"k": pa.array(np.arange(8), pa.int64()),
                  "s": pa.array(["b", "a", None, "cc", "", "d", "a",
                                 "x"], pa.string()),
                  "i": pa.array([3, -1, 0, 5, 2, -4, 1, 7], pa.int64())})
    con = duckdb.connect()
    con.register("t", t)
    for sql in ["SELECT upper(s) || lower(s) AS u FROM t ORDER BY k",
                "SELECT i FROM t ORDER BY s NULLS LAST, k",
                "SELECT s FROM t WHERE i > 0 ORDER BY i DESC LIMIT 3"]:
        got = parse_sql(sql, {"t": ray.data.from_arrow(t)}).to_pandas()
        want = con.execute(sql).df()
        for c in want.columns:
            ga = got[c].where(got[c].notna(), None).tolist()
            wa = want[c].where(want[c].notna(), None).tolist()
            assert ga == wa, (sql, c)
        assert list(got.columns) == list(want.columns), sql


LATERAL_CASES = [
    # inner top-n per outer row (duplicated outer keys share the key's
    # subquery result under pure-equality correlation)
    "SELECT g, label, k, v FROM t2 JOIN LATERAL ("
    "SELECT k, v FROM t1 WHERE s = gkey ORDER BY v DESC, k LIMIT 2"
    ") x ON TRUE",
    # LEFT keeps outer rows with an empty subquery result
    "SELECT g, label, k FROM t2 LEFT JOIN LATERAL ("
    "SELECT k FROM t1 WHERE s = gkey AND v > 48 ORDER BY k LIMIT 1"
    ") x ON TRUE",
    # CROSS JOIN LATERAL == INNER when correlated
    "SELECT h, tag, k FROM t3 CROSS JOIN LATERAL ("
    "SELECT k FROM t1 WHERE s = hkey ORDER BY k LIMIT 3) x",
    # projection expressions + alias; extra inner-local filter
    "SELECT g, vv FROM t2 JOIN LATERAL ("
    "SELECT v * 10 AS vv FROM t1 WHERE s = gkey AND k < 100 "
    "ORDER BY v, k LIMIT 2) x ON TRUE",
    # SELECT * subquery; correlation col rides through visibly
    "SELECT g, k, v FROM t2 JOIN LATERAL ("
    "SELECT * FROM t1 WHERE s = gkey ORDER BY v, k LIMIT 1) x ON TRUE",
    # no LIMIT: plain correlated join
    "SELECT h, k FROM t3 JOIN LATERAL ("
    "SELECT k FROM t1 WHERE s = hkey AND v >= 0) x ON TRUE",
]


@pytest.mark.parametrize("sql", LATERAL_CASES)
def test_lateral_matches_duckdb(ray_session, t1, t2, t3, sql):
    _run_both(sql, None, {"t1": t1, "t2": t2, "t3": t3})


def test_lateral_errors(ray_session, t1, t2):
    import ray

    tabs = {"t1": ray.data.from_arrow(t1), "t2": ray.data.from_arrow(t2)}
    with pytest.raises(ValueError, match="ON TRUE"):
        parse_sql("SELECT g FROM t2 JOIN LATERAL (SELECT k FROM t1 "
                  "WHERE s = gkey) x ON g = k", tabs)
    with pytest.raises(ValueError, match="self-correlation"):
        parse_sql("SELECT g FROM t2 JOIN LATERAL (SELECT k AS kk "
                  "FROM t1 WHERE k = k) x ON TRUE", tabs)
    with pytest.raises(ValueError, match="outer column"):
        parse_sql("SELECT g FROM t2 JOIN LATERAL (SELECT k, label "
                  "FROM t1 WHERE s = gkey) x ON TRUE", tabs)
    with pytest.raises(ValueError, match="collide"):
        parse_sql("SELECT g FROM t2 JOIN LATERAL (SELECT k AS label "
                  "FROM t1 WHERE s = gkey) x ON TRUE", tabs)
    with pytest.raises(ValueError, match="not valid SQL"):
        parse_sql("SELECT g FROM t2 RIGHT JOIN LATERAL (SELECT k "
                  "FROM t1 WHERE s = gkey) x ON TRUE", tabs)
    with pytest.raises(ValueError, match="derived table"):
        parse_sql("SELECT g FROM t2 CROSS JOIN LATERAL (SELECT k "
                  "FROM t1 ORDER BY k LIMIT 2) x", tabs)


# ------------------------------------------------------------------ semi-join:
# one primitive, two physical paths (broadcast array / bucketed marker join)


@pytest.fixture(scope="module")
def sj_tabs():
    # probes: members, non-members and NULLs; value sets by tag — one
    # with a NULL member, one empty (tag 'none' matches no row), one of
    # many duplicates
    po = pa.table({
        "w": pa.array(np.arange(12, dtype=np.int64)),
        "x": pa.array([1, 2, 3, 4, 5, None, 1, 3, None, 7, 4, 9],
                      pa.int64()),
    })
    ys = [1, 2, None] + [3, 4] * 300 + [7]
    tags = ["null"] * 3 + ["dup"] * 600 + ["one"]
    vs = pa.table({"y": pa.array(ys, pa.int64()), "tag": pa.array(tags)})
    return {"po": po, "vs": vs}


SEMI_JOIN_FORMS = {
    "in": "SELECT w, x FROM po WHERE x IN "
          "(SELECT y FROM vs WHERE tag = '{t}')",
    "not_in": "SELECT w, x FROM po WHERE x NOT IN "
              "(SELECT y FROM vs WHERE tag = '{t}')",
    "exists": "SELECT w, x FROM po WHERE EXISTS "
              "(SELECT 1 FROM vs WHERE y = x AND tag = '{t}')",
    "not_exists": "SELECT w, x FROM po WHERE NOT EXISTS "
                  "(SELECT 1 FROM vs WHERE y = x AND tag = '{t}')",
}


@pytest.mark.parametrize("cap", [1_000_000, 0], ids=["broadcast", "bucketed"])
@pytest.mark.parametrize("tag", ["null", "none", "dup"])
@pytest.mark.parametrize("form", sorted(SEMI_JOIN_FORMS))
def test_semi_join_paths_match_duckdb(ray_session, sj_tabs, monkeypatch,
                                      form, tag, cap):
    """IN / NOT IN / EXISTS / NOT EXISTS over a value set with a NULL
    member, an empty set and a set of many duplicates, against NULL
    probes: the broadcast array path and the bucketed marker-join path
    both equal DuckDB, and the cap picks the path (an empty set is a
    constant on either side of it)."""
    from osmquadtree_depreceated_ray.pipelines import sqlparse as sp

    calls = []
    real = sp._pending_semi_join
    monkeypatch.setattr(sp, "_pending_semi_join",
                        lambda *a: calls.append(1) or real(*a))
    _run_both(SEMI_JOIN_FORMS[form].format(t=tag), None, sj_tabs,
              broadcast_threshold=cap)
    assert bool(calls) == (cap == 0 and tag != "none")


@pytest.mark.parametrize("cap", [1_000_000, 0], ids=["broadcast", "bucketed"])
def test_exists_same_table_correlation_rejected(ray_session, cap):
    """A correlated [NOT] EXISTS over the outer query's own table cannot
    tell ``f.entity_id = e.next_id`` from an inner filter once qualifiers
    collapse: it must raise, not return a wrong answer."""
    import ray

    ent = pa.table({
        "entity_id": pa.array([1, 2, 3, 4], pa.int64()),
        "next_id": pa.array([2, 3, 4, None], pa.int64()),
        "kind": pa.array(["city", "city", "peak", "city"]),
    })
    tabs = {"entities": ray.data.from_arrow(ent)}
    for neg in ("NOT ", ""):
        sql = ("SELECT kind, COUNT(*) AS n FROM entities e WHERE "
               f"{neg}EXISTS (SELECT 1 FROM entities f WHERE "
               "f.entity_id = e.next_id AND f.kind = 'city') GROUP BY kind")
        with pytest.raises(ValueError, match="ambiguous EXISTS"):
            parse_sql(sql, tabs, broadcast_threshold=cap)


def test_driver_read_small_sees_through_column_pruning(ray_session,
                                                       tmp_path):
    """The driver-side fast path reads a parquet Read under a columns-only
    Project (exactly the pruned columns, in order) and refuses a Project
    with renames or expressions, or a Read of more than 16 files."""
    import pyarrow.parquet as pq
    import ray
    from ray.data.expressions import col as rcol

    from osmquadtree_depreceated_ray.pipelines.sqlparse import (
        _driver_read_small,
    )

    t = pa.table({"a": pa.array([1, 2, 3], pa.int64()),
                  "b": pa.array(["x", "y", "z"]),
                  "c": pa.array([0.5, 1.5, 2.5])})
    one = tmp_path / "one.parquet"
    pq.write_table(t, one)
    ds = ray.data.read_parquet(str(one))
    assert _driver_read_small(ds).equals(t)
    got = _driver_read_small(ds.select_columns(["c", "a"]))
    assert got.equals(t.select(["c", "a"]))
    assert _driver_read_small(ds.rename_columns({"a": "z"})) is None
    assert _driver_read_small(ds.with_column("d", rcol("a") + 1)) is None
    assert _driver_read_small(
        ds.map_batches(lambda b: b, batch_format="pyarrow")) is None

    many = tmp_path / "many"
    many.mkdir()
    for i in range(17):
        pq.write_table(t, many / f"part-{i:02d}.parquet")
    wide = ray.data.read_parquet(str(many))
    assert _driver_read_small(wide) is None
    assert _driver_read_small(wide.select_columns(["a"])) is None
