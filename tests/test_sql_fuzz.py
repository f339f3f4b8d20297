"""Differential fuzzing of the SQL front-end against DuckDB: hypothesis
generates random (but dialect-portable) SELECTs over a fixed table and
both engines must agree row-for-row.

Scope is chosen to be exactly portable: small-integer arithmetic (no
division, bounded depth, no overflow), three-valued logic over a
nullable column, CASE, BETWEEN/IN/LIKE, string scalars.  Floats are
excluded on purpose (ulp-level formatting differences are not bugs).
derandomize=True keeps the suite deterministic run-to-run.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

ROWS = 40


def _table() -> pa.Table:
    rng = np.random.default_rng(31)
    j = rng.integers(-9, 10, ROWS).astype(object)
    for k in range(0, ROWS, 5):
        j[k] = None
    return pa.table({
        "k": pa.array(np.arange(ROWS, dtype=np.int64)),
        "i": pa.array(rng.integers(-20, 21, ROWS), pa.int64()),
        "j": pa.array(list(j), pa.int64()),
        "s": pa.array([
            "".join(rng.choice(list("abcx "), rng.integers(0, 8)))
            for _ in range(ROWS)], pa.string()),
    })


TABLE = _table()

# ---------------------------------------------------------- strategies

int_atom = st.sampled_from(["i", "j", "k", "0", "1", "2", "5", "-3"])
str_atom = st.sampled_from(["s", "'ab'", "'x'", "''"])


def int_expr(depth: int):
    if depth <= 0:
        return int_atom
    sub = st.deferred(lambda: int_expr(depth - 1))
    boolean = st.deferred(lambda: bool_expr(depth - 1))
    return st.one_of(
        int_atom,
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(boolean, sub, sub)
        .map(lambda t: f"(CASE WHEN {t[0]} THEN {t[1]} ELSE {t[2]} END)"),
        st.tuples(sub, sub).map(lambda t: f"GREATEST({t[0]}, {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"LEAST({t[0]}, {t[1]})"),
        sub.map(lambda e: f"ABS({e})"),
        st.tuples(sub, sub).map(lambda t: f"COALESCE({t[0]}, {t[1]})"),
    )


def str_expr(depth: int):
    if depth <= 0:
        return str_atom
    sub = st.deferred(lambda: str_expr(depth - 1))
    return st.one_of(
        str_atom,
        sub.map(lambda e: f"UPPER({e})"),
        sub.map(lambda e: f"LOWER({e})"),
        sub.map(lambda e: f"SUBSTR({e}, 1, 3)"),
        sub.map(lambda e: f"TRIM({e})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} || {t[1]})"),
        sub.map(lambda e: f"REVERSE({e})"),
    )


def bool_expr(depth: int):
    ie = int_expr(max(depth - 1, 0))
    se = str_expr(max(depth - 1, 0))
    base = st.one_of(
        st.tuples(ie, st.sampled_from(["<", "<=", "=", "<>", ">", ">="]),
                  ie).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(ie, ie, ie)
        .map(lambda t: f"({t[0]} BETWEEN {t[1]} AND {t[2]})"),
        ie.map(lambda e: f"({e} IN (0, 1, 5, 9))"),
        ie.map(lambda e: f"({e} IS NULL)"),
        ie.map(lambda e: f"({e} IS NOT NULL)"),
        se.map(lambda e: f"({e} LIKE 'a%')"),
        se.map(lambda e: f"({e} LIKE '%x%')"),
    )
    if depth <= 0:
        return base
    sub = st.deferred(lambda: bool_expr(depth - 1))
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda t: f"({t[0]} AND {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} OR {t[1]})"),
        sub.map(lambda e: f"(NOT {e})"),
    )


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        # engines disagree on int64-vs-float64 for nullable results and
        # on NULL ordering; compare as strings after a sentinel fill
        df[c] = df[c].map(
            lambda v: "<N>" if v is None or (isinstance(v, float)
                                             and np.isnan(v))
            else (str(int(v)) if isinstance(v, (int, np.integer, float))
                  and float(v) == int(v) else str(v)))
    return df.sort_values(list(df.columns), kind="stable") \
        .reset_index(drop=True)


def _run_both(ray_session, sql: str):
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    res = parse_sql(sql, {"t": ray.data.from_arrow(TABLE)})
    # concat arrow blocks rather than Dataset.to_pandas(): a zero-row
    # result must still carry the projected schema (Ray quirk)
    parts = ray.get(res.to_arrow_refs())
    got = (pa.concat_tables(parts, promote_options="default").to_pandas()
           if parts else pd.DataFrame())
    con = duckdb.connect()
    con.register("t", TABLE)
    want = con.execute(sql).df()
    assert len(got) == len(want), (sql, len(got), len(want))
    if len(want) == 0:
        return
    g, w = _canon(got), _canon(want)
    pd.testing.assert_frame_equal(g, w, check_dtype=False), sql


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e1=int_expr(3), e2=str_expr(2), w=bool_expr(2))
def test_fuzz_projection_filter(ray_session, e1, e2, w):
    sql = (f"SELECT k, {e1} AS e1, {e2} AS e2 FROM t "
           f"WHERE {w} ORDER BY k")
    _run_both(ray_session, sql)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(key=int_expr(2), agg=int_expr(2), w=bool_expr(1))
def test_fuzz_group_by(ray_session, key, agg, w):
    sql = (f"SELECT {key} AS g, COUNT(*) AS n, "
           f"CAST(SUM({agg}) AS BIGINT) AS sm, "
           f"MIN({agg}) AS mn, MAX({agg}) AS mx "
           f"FROM t WHERE {w} GROUP BY 1")
    _run_both(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e=int_expr(2), w=bool_expr(1), d=st.booleans())
def test_fuzz_distinct_order_limit(ray_session, e, w, d):
    dk = "DISTINCT " if d else ""
    sql = (f"SELECT {dk}{e} AS v FROM t WHERE {w} "
           f"ORDER BY v NULLS LAST LIMIT 25")
    _run_both(ray_session, sql)


# ------------------------------------------------- joins and windows

def _table_u() -> pa.Table:
    rng = np.random.default_rng(37)
    m = rng.integers(-9, 10, 15).astype(object)
    m[3] = None
    m[9] = None
    return pa.table({
        "m": pa.array(list(m), pa.int64()),
        "v": pa.array(rng.integers(0, 100, 15), pa.int64()),
    })


TABLE_U = _table_u()


def _run_both2(ray_session, sql: str, broadcast_threshold: int = 1_000_000):
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    res = parse_sql(sql, {"t": ray.data.from_arrow(TABLE),
                          "u": ray.data.from_arrow(TABLE_U)},
                    broadcast_threshold)
    parts = ray.get(res.to_arrow_refs())
    got = (pa.concat_tables(parts, promote_options="default").to_pandas()
           if parts else pd.DataFrame())
    con = duckdb.connect()
    con.register("t", TABLE)
    con.register("u", TABLE_U)
    want = con.execute(sql).df()
    assert len(got) == len(want), (sql, len(got), len(want))
    if len(want) == 0:
        return
    g, w = _canon(got), _canon(want)
    pd.testing.assert_frame_equal(g, w, check_dtype=False), sql


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(how=st.sampled_from(["JOIN", "LEFT JOIN"]),
       w=bool_expr(1), e=int_expr(2))
def test_fuzz_join(ray_session, how, w, e):
    """Equi-join with a nullable, duplicated key on both sides (NULL
    keys never match; LEFT preserves unmatched rows)."""
    sql = (f"SELECT k, m, v, {e} AS e FROM t {how} u ON j = m "
           f"WHERE {w}")
    _run_both2(ray_session, sql)


_WIN = [
    "ROW_NUMBER()",
    "RANK()",
    "DENSE_RANK()",
    "COUNT(*)",
    "SUM(i)",
    "MIN(i)",
    "MAX(i)",
    "AVG(k)",
    "LAG(i)",
    "LEAD(i)",
    "FIRST_VALUE(i)",
    "LAG(i, 2, 0)",
]


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fn=st.sampled_from(_WIN),
       part=st.sampled_from(["", "PARTITION BY (i % 3)",
                             "PARTITION BY (k % 4)"]),
       frame=st.sampled_from(["", " ROWS BETWEEN 2 PRECEDING AND "
                                  "CURRENT ROW",
                              " ROWS BETWEEN 1 PRECEDING AND "
                              "1 FOLLOWING"]))
def test_fuzz_window(ray_session, fn, part, frame):
    if frame and ("(" in fn.split("(")[0] or fn.split("(")[0]
                  not in ("COUNT", "SUM", "MIN", "MAX", "AVG")):
        frame = ""  # ranking/offset functions take no frame
    sql = (f"SELECT k, {fn} OVER ({part}{' ' if part else ''}"
           f"ORDER BY k{frame}) AS w FROM t ORDER BY k")
    _run_both2(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(op=st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]),
       w1=bool_expr(1), w2=bool_expr(1), e=int_expr(1))
def test_fuzz_set_ops(ray_session, op, w1, w2, e):
    sql = (f"SELECT i, {e} AS e FROM t WHERE {w1} "
           f"{op} SELECT j, k FROM t WHERE {w2}")
    _run_both(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(neg=st.sampled_from(["", "NOT "]),
       inner=st.sampled_from(["SELECT m FROM u",
                              "SELECT m FROM u WHERE v > 50",
                              "SELECT m FROM u WHERE m IS NOT NULL"]),
       w=bool_expr(1))
def test_fuzz_in_subquery(ray_session, neg, inner, w):
    """IN/NOT IN over a subquery whose value set may contain NULL —
    the three-valued trap (x NOT IN (...NULL...) matches nothing)."""
    sql = (f"SELECT k, i FROM t WHERE (i {neg}IN ({inner})) "
           f"AND {w} ORDER BY k")
    _run_both2(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(key=int_expr(1), w=bool_expr(1),
       hv=st.sampled_from(["COUNT(*) > 2", "SUM(i) > 0",
                           "MIN(i) < 0 AND COUNT(*) >= 1",
                           "CAST(SUM(j) AS BIGINT) IS NULL"]))
def test_fuzz_having(ray_session, key, w, hv):
    sql = (f"SELECT {key} AS g, COUNT(*) AS n FROM t WHERE {w} "
           f"GROUP BY 1 HAVING {hv}")
    _run_both(ray_session, sql)


def _table_ts() -> pa.Table:
    rng = np.random.default_rng(43)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    offs = rng.integers(0, 400 * 24 * 3600, 30).astype("timedelta64[s]")
    return pa.table({
        "k": pa.array(np.arange(30, dtype=np.int64)),
        "ts": pa.array(base + offs),
        "i": pa.array(rng.integers(-5, 6, 30), pa.int64()),
    })


TABLE_TS = _table_ts()

_TEMPORAL = [
    "YEAR(ts)", "MONTH(ts)", "DAY(ts)", "HOUR(ts)", "MINUTE(ts)",
    "EXTRACT(dow FROM ts)", "EXTRACT(month FROM ts)",
    "date_trunc('day', ts)", "date_trunc('month', ts)",
    "date_trunc('hour', ts)",
]


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(f1=st.sampled_from(_TEMPORAL), f2=st.sampled_from(_TEMPORAL),
       w=st.sampled_from(["i > 0", "i <= 0", "k % 2 = 0", "1 = 1"]))
def test_fuzz_temporal(ray_session, f1, f2, w):
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    sql = (f"SELECT k, {f1} AS a, {f2} AS b FROM ts WHERE {w} "
           f"ORDER BY k")
    res = parse_sql(sql, {"ts": ray.data.from_arrow(TABLE_TS)})
    parts = ray.get(res.to_arrow_refs())
    got = (pa.concat_tables(parts, promote_options="default").to_pandas()
           if parts else pd.DataFrame())
    con = duckdb.connect()
    con.register("ts", TABLE_TS)
    want = con.execute(sql).df()
    g, w_ = _canon(got), _canon(want)
    pd.testing.assert_frame_equal(g, w_, check_dtype=False), sql


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(start=st.integers(-3, 6), length=st.integers(0, 6),
       fn=st.sampled_from(["SUBSTR", "LEFT", "RIGHT"]))
def test_fuzz_string_edges(ray_session, start, length, fn):
    """SUBSTR/LEFT/RIGHT with edge positions (zero, negative,
    past-the-end) — classic dialect-divergence territory."""
    if fn == "SUBSTR":
        expr = f"SUBSTR(s, {start}, {length})"
    else:
        expr = f"{fn}(s, {start})"
    sql = f"SELECT k, {expr} AS e FROM t ORDER BY k"
    _run_both(ray_session, sql)


# ------------------------------------ nesting, subtotals, aggregates

@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e=int_expr(2), w1=bool_expr(1), w2=bool_expr(1))
def test_fuzz_derived_table(ray_session, e, w1, w2):
    """Aliased derived table: the inner projection/filter must be
    resolved before the outer one sees its columns."""
    w2 = (w2.replace("i", "n").replace("j", "n").replace("k", "g")
          .replace("s", "'a'"))
    sql = (f"SELECT g, n FROM (SELECT (i % 4) AS g, {e} AS n FROM t "
           f"WHERE {w1}) sub WHERE {w2} "
           f"ORDER BY g NULLS LAST, n NULLS LAST")
    _run_both(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e=int_expr(2), w=bool_expr(1), reuse=st.booleans())
def test_fuzz_cte(ray_session, e, w, reuse):
    """WITH chains; optionally the same CTE consumed twice via a
    self-union."""
    body = f"SELECT k, i, j, {e} AS e FROM t WHERE {w}"
    tail = ("SELECT e, COUNT(*) AS n FROM c GROUP BY 1 "
            "UNION ALL SELECT e, 0 FROM c WHERE e > 3" if reuse
            else "SELECT e, COUNT(*) AS n FROM c GROUP BY 1")
    sql = f"WITH c AS ({body}) {tail}"
    _run_both(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(form=st.sampled_from([
    "ROLLUP ((i % 3), (j % 2))",
    "CUBE ((i % 3), (j % 2))",
    "GROUPING SETS (((i % 3)), ((j % 2)), ())",
    "GROUPING SETS (((i % 3), (j % 2)), ())",
]), w=bool_expr(1), agg=st.sampled_from(["SUM(k)", "COUNT(*)", "MIN(i)",
                                         "SUM(j)", "COUNT(j)"]))
def test_fuzz_rollup(ray_session, form, w, agg):
    """Subtotal levels: aggregate arguments must NOT be NULLed on
    rolled-up rows, and GROUPING() must track the level bitmask."""
    sql = (f"SELECT (i % 3) AS a, (j % 2) AS b, "
           f"CAST({agg} AS BIGINT) AS v, "
           f"GROUPING((i % 3)) AS ga, GROUPING((j % 2)) AS gb "
           f"FROM t WHERE {w} GROUP BY {form}")
    _run_both(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e=int_expr(1), w=bool_expr(1),
       fw=st.sampled_from(["i > 0", "j IS NOT NULL", "k % 2 = 0"]))
def test_fuzz_distinct_agg_filter(ray_session, e, w, fw):
    """DISTINCT aggregates and the FILTER clause, together and apart."""
    sql = (f"SELECT (k % 3) AS g, COUNT(DISTINCT {e}) AS cd, "
           f"CAST(SUM({e}) FILTER (WHERE {fw}) AS BIGINT) AS sf, "
           f"COUNT(*) FILTER (WHERE {fw}) AS cf "
           f"FROM t WHERE {w} GROUP BY 1")
    _run_both(ray_session, sql)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(neg=st.sampled_from(["", "NOT "]),
       cmp_=st.sampled_from(["u.m = t.j", "u.m = t.j AND u.v > 40",
                             "u.m > t.i"]),
       w=bool_expr(1))
def test_fuzz_exists(ray_session, neg, cmp_, w):
    """[NOT] EXISTS with a correlated predicate (decorrelated into a
    per-key aggregate join by the planner)."""
    sql = (f"SELECT k, i, j FROM t WHERE {neg}EXISTS "
           f"(SELECT 1 FROM u WHERE {cmp_}) AND {w} ORDER BY k")
    _run_both2(ray_session, sql)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(inner=st.sampled_from([
    "(SELECT MAX(v) FROM u WHERE u.m = t.j)",
    "(SELECT COUNT(*) FROM u WHERE u.m = t.j)",
    "(SELECT MIN(v) FROM u)",
    "(SELECT SUM(v) FROM u WHERE u.m > t.i)",
]), w=bool_expr(1))
def test_fuzz_scalar_subquery(ray_session, inner, w):
    """Scalar subqueries in the projection — correlated (per-key and
    inequality) and uncorrelated."""
    sql = (f"SELECT k, CAST({inner} AS BIGINT) AS sq FROM t "
           f"WHERE {w} ORDER BY k")
    _run_both2(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(k1=st.sampled_from(["i", "j", "(i % 3)", "s"]),
       d1=st.sampled_from(["ASC", "DESC"]),
       n1=st.sampled_from(["NULLS FIRST", "NULLS LAST"]),
       d2=st.sampled_from(["ASC", "DESC"]),
       off=st.integers(0, 45), lim=st.integers(1, 45))
def test_fuzz_order_offset(ray_session, k1, d1, n1, d2, off, lim):
    """Multi-key ORDER BY with NULLS FIRST/LAST and LIMIT..OFFSET.
    k is a unique tiebreak so the prefix order is total."""
    sql = (f"SELECT k, i, j, s FROM t ORDER BY {k1} {d1} {n1}, "
           f"k {d2} LIMIT {lim} OFFSET {off}")
    _run_both(ray_session, sql)


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(op=st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
       quant=st.sampled_from(["ANY", "ALL", "SOME"]),
       inner=st.sampled_from(["SELECT m FROM u",
                              "SELECT m FROM u WHERE v > 50",
                              "SELECT m FROM u WHERE m IS NOT NULL",
                              "SELECT m FROM u WHERE m IS NULL",
                              "SELECT m FROM u WHERE 1 = 2"]),
       probe=st.sampled_from(["i", "j"]), neg=st.booleans())
def test_fuzz_quantified(ray_session, op, quant, inner, probe, neg):
    """x op ANY/ALL/SOME (subquery) with NULL elements, NULL probes,
    all-NULL and empty sets — full 3VL vs DuckDB."""
    pred = f"{probe} {op} {quant} ({inner})"
    if neg:
        pred = f"NOT ({pred})"
    sql = f"SELECT k, i, j FROM t WHERE {pred} ORDER BY k"
    _run_both2(ray_session, sql)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e1=int_expr(1), e2=int_expr(1), w1=bool_expr(1),
       w2=st.sampled_from(["x > 0", "y <= 2", "x + y < 5", "1 = 1"]),
       w3=st.sampled_from(["x >= 0", "x % 2 = 0", "1 = 1"]))
def test_fuzz_nested_derived(ray_session, e1, e2, w1, w2, w3):
    """Two levels of derived tables, each with its own filter."""
    sql = (f"SELECT x, y FROM (SELECT x, (x % 3) AS y FROM "
           f"(SELECT ({e1} + {e2}) AS x FROM t WHERE {w1}) s1 "
           f"WHERE {w3}) s2 WHERE {w2} ORDER BY x NULLS LAST, y NULLS LAST")
    _run_both(ray_session, sql)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(hv=st.sampled_from([
    "COUNT(*) > (SELECT COUNT(*) FROM u WHERE v > 50)",
    "MIN(i) < (SELECT MIN(m) FROM u WHERE m IS NOT NULL)",
    "CAST(SUM(i) AS BIGINT) > COALESCE((SELECT MAX(m) FROM u), 0)",
]), key=st.sampled_from(["(i % 3)", "(k % 4)"]), w=bool_expr(1))
def test_fuzz_having_subquery(ray_session, hv, key, w):
    """Uncorrelated subqueries inside HAVING."""
    sql = (f"SELECT {key} AS g, COUNT(*) AS n FROM t WHERE {w} "
           f"GROUP BY 1 HAVING {hv}")
    _run_both2(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(pat=st.sampled_from(["a%", "%x", "_b%", "a_c%", "%_%", "___",
                            "", "%", "_", "ab", "a%c"]),
       neg=st.booleans())
def test_fuzz_like_wildcards(ray_session, pat, neg):
    """LIKE with both wildcard kinds and degenerate patterns."""
    n = "NOT " if neg else ""
    sql = f"SELECT k, s FROM t WHERE s {n}LIKE '{pat}' ORDER BY k"
    _run_both(ray_session, sql)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fn=st.sampled_from(["SUM(i)", "COUNT(*)", "AVG(i)",
                           "MIN(i)", "MAX(i)"]),
       n=st.integers(0, 5),
       part=st.sampled_from(["", "PARTITION BY (k % 3) "]))
def test_fuzz_window_range(ray_session, fn, n, part):
    """RANGE value frames over an integer ORDER BY key."""
    sql = (f"SELECT k, CAST({fn} OVER ({part}ORDER BY i "
           f"RANGE BETWEEN {n} PRECEDING AND CURRENT ROW) AS DOUBLE) "
           f"AS w FROM t ORDER BY k")
    _run_both(ray_session, sql)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e=int_expr(1), w=bool_expr(1),
       gs=st.sampled_from([
           "GROUPING SETS (((i % 2), (k % 3)), ((i % 2)), ())",
           "GROUPING SETS (((k % 3)), ((i % 2)))",
           "ROLLUP ((i % 2), (k % 3))",
       ]))
def test_fuzz_grouping_sets_expr(ray_session, e, w, gs):
    """GROUPING SETS / ROLLUP over expression keys with an expression
    aggregate argument."""
    sql = (f"SELECT (i % 2) AS a, (k % 3) AS b, "
           f"CAST(SUM({e}) AS BIGINT) AS v, COUNT(*) AS n "
           f"FROM t WHERE {w} GROUP BY {gs}")
    _run_both(ray_session, sql)


_INTERVALS = ["INTERVAL 1 DAY", "INTERVAL 36 HOUR", "INTERVAL 90 MINUTE",
              "INTERVAL '2 weeks'", "INTERVAL 45 SECOND"]
_TS_LITS = ["TIMESTAMP '2024-06-01 00:00:00'", "DATE '2024-03-15'",
            "TIMESTAMP '2024-12-31 23:59:59'"]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(iv=st.sampled_from(_INTERVALS), tl=st.sampled_from(_TS_LITS),
       op=st.sampled_from(["+", "-"]),
       cmp_=st.sampled_from(["<", ">=", ">"]))
def test_fuzz_interval_arith(ray_session, iv, tl, op, cmp_):
    """timestamp ± INTERVAL arithmetic and TIMESTAMP/DATE literals in
    filters and projections."""
    import ray

    from osmquadtree_depreceated_ray.pipelines.sqlparse import parse_sql

    sql = (f"SELECT k, ts {op} {iv} AS a FROM ts "
           f"WHERE ts {cmp_} {tl} {op} {iv} ORDER BY k")
    res = parse_sql(sql, {"ts": ray.data.from_arrow(TABLE_TS)})
    parts = ray.get(res.to_arrow_refs())
    got = (pa.concat_tables(parts, promote_options="default").to_pandas()
           if parts else pd.DataFrame())
    con = duckdb.connect()
    con.register("ts", TABLE_TS)
    want = con.execute(sql).df()
    assert len(got) == len(want), (sql, len(got), len(want))
    if len(want) == 0:
        return
    g, w = _canon(got), _canon(want)
    pd.testing.assert_frame_equal(g, w, check_dtype=False), sql


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(how=st.sampled_from(["JOIN", "LEFT JOIN", "RIGHT JOIN",
                            "FULL JOIN"]),
       w=bool_expr(1))
def test_fuzz_join_multikey(ray_session, how, w):
    """Composite-key joins in every direction over nullable duplicated
    keys: a null in ANY key column never matches, outer sides still
    surface their null-key rows.  At the default threshold INNER and
    LEFT take the broadcast join; at 0 every direction takes the
    bucketed one."""
    sql = (f"SELECT k, i, j, m, v FROM t {how} u ON j = m AND i = v "
           f"WHERE {w}")
    for threshold in (1_000_000, 0):
        _run_both2(ray_session, sql, threshold)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(theta=st.sampled_from(["v > i", "v + i < 50", "k <> v",
                              "v * 2 >= i + j"]),
       w=bool_expr(1))
def test_fuzz_join_theta_residual(ray_session, theta, w):
    """INNER equi key + non-equi residual conjunct (post-join filter)."""
    sql = (f"SELECT k, i, j, m, v FROM t JOIN u ON j = m AND {theta} "
           f"WHERE {w}")
    _run_both2(ray_session, sql)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e=int_expr(2), w=bool_expr(1),
       theta=st.sampled_from(["", " ON i < v", " ON i * v > k * 4"]))
def test_fuzz_cross_and_pure_theta(ray_session, e, w, theta):
    """CROSS JOIN and pure-theta ON (bounded cartesian + filter)."""
    join = f"JOIN u{theta}" if theta else "CROSS JOIN u"
    sql = f"SELECT k, m, v, {e} AS e FROM t {join} WHERE {w}"
    _run_both2(ray_session, sql)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(e=int_expr(2), c=st.sampled_from(["2", "3", "5", "-3", "7"]),
       op=st.sampled_from(["/", "//", "%"]), w=bool_expr(1),
       cast=st.booleans())
def test_fuzz_division(ray_session, e, c, op, w, cast):
    """Division family: '/' is float division (even on ints), '//' is
    Arrow-style type-preserving division, '%' truncates toward zero,
    CAST(DOUBLE AS BIGINT) rounds half to even.  Nonzero literal
    denominators only (x/0 semantics are engine-defined)."""
    expr = f"({e} {op} {c})"
    if cast:
        expr = f"CAST({expr} AS BIGINT)"
    _run_both(ray_session, f"SELECT k, {expr} AS v FROM t WHERE {w}")


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(probe=st.sampled_from(["i", "j", "(i + j)", "(j % 3)"]),
       v1=int_atom, v2=int_atom, els=st.sampled_from(["", "ELSE -9 "]),
       nf=int_atom, w=bool_expr(1))
def test_fuzz_simple_case_nullif(ray_session, probe, v1, v2, els, nf, w):
    """Simple CASE (NULL probe matches nothing, falls to ELSE/NULL),
    NULLIF and COALESCE composed — the 3VL fall-through surface."""
    expr = (f"COALESCE(CASE {probe} WHEN {v1} THEN 1 "
            f"WHEN {v2} THEN 2 {els}END, NULLIF({nf}, {v1}), -99)")
    _run_both(ray_session, f"SELECT k, {expr} AS v FROM t WHERE {w}")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fn=st.sampled_from(["lpad", "rpad"]),
       w_=st.integers(min_value=0, max_value=9),
       fill=st.sampled_from(["*", "xy", "abc"]),
       part=st.integers(min_value=1, max_value=4), e=str_expr(1))
def test_fuzz_pad_split(ray_session, fn, w_, fill, part, e):
    """Cyclic multi-char LPAD/RPAD (+ truncation) and out-of-range
    split_part, over composed string expressions."""
    expr = (f"{fn}({e}, {w_}, '{fill}') "
            f"|| split_part({e}, 'a', {part})")
    _run_both(ray_session, f"SELECT k, {expr} AS v FROM t")


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fn=st.sampled_from(["ROW_NUMBER()", "RANK()", "DENSE_RANK()",
                           "COUNT(*)", "SUM(i)", "LAG(i)",
                           "FIRST_VALUE(i)"]),
       key=st.sampled_from(["j", "i", "(j % 3)"]),
       dr=st.sampled_from(["ASC", "DESC"]),
       part=st.sampled_from(["", "PARTITION BY (k % 3) "]))
def test_fuzz_window_desc_nulls(ray_session, fn, key, dr, part):
    """Windows ordered DESC and/or by a NULLABLE key: peer grouping,
    default null placement and offset direction must all match.  k is
    appended as a unique tiebreak so frame contents are total."""
    sql = (f"SELECT k, {fn} OVER ({part}ORDER BY {key} {dr}, k) AS w "
           f"FROM t ORDER BY k")
    _run_both2(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fn=st.sampled_from(["RANK()", "DENSE_RANK()", "COUNT(*)",
                           "SUM(i)", "CUME_DIST()"]),
       key=st.sampled_from(["j", "(i % 3)", "(j % 2)"]),
       dr=st.sampled_from(["ASC", "DESC"]),
       part=st.sampled_from(["", "PARTITION BY (k % 2) "]))
def test_fuzz_window_peers(ray_session, fn, key, dr, part):
    """Tied ORDER BY keys WITHOUT a tiebreak: the default RANGE frame
    must include all peers and rank gaps must match (only peer-
    deterministic functions are comparable under ties)."""
    sql = (f"SELECT k, CAST({fn} OVER ({part}ORDER BY {key} {dr}) "
           f"AS DOUBLE) AS w FROM t ORDER BY k")
    _run_both2(ray_session, sql)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(how=st.sampled_from(["JOIN", "LEFT JOIN", "CROSS JOIN"]),
       d=st.booleans(), n=st.integers(1, 3),
       iw=st.sampled_from(["", "AND v % 2 = 0", "AND v > 30"]),
       w=bool_expr(1))
def test_fuzz_lateral(ray_session, how, d, n, iw, w):
    """Correlated LATERAL top-n: nullable duplicated correlation key
    (NULL never matches), inner-local filters, ASC/DESC limits, every
    join flavor; ties in the order key are value-identical rows so
    either pick canonicalizes equally."""
    on = "" if how == "CROSS JOIN" else " ON TRUE"
    sql = (f"SELECT k, i, v FROM t {how} LATERAL ("
           f"SELECT v FROM u WHERE m = j {iw} "
           f"ORDER BY v {'DESC' if d else 'ASC'} LIMIT {n}) x{on} "
           f"WHERE {w}")
    _run_both2(ray_session, sql)
