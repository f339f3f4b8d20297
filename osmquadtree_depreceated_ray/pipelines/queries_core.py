"""Relational / SQL-surface queries (reference sqlselect semantics,
SURVEY §2.7): filter+project, scalar functions, equi-join (broadcast
small side), union, sort+limit, distinct, grouped aggregation.

Money is aggregated in integer cents (floor(x*100+0.5), identical in
numpy and SQL) so sums are order-independent and hash-exact.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _cents(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


SQL_CENTS = "CAST(floor({col} * 100.0 + 0.5) AS BIGINT)"


# 1. filter + project + computed column ------------------------------------

def q_filter_project(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        qty = b.column("l_quantity")
        mask = pc.and_(
            pc.less(ship, pa.scalar(np.datetime64("1997-01-01", "us"))),
            pc.and_(pc.greater_equal(qty, 10.0), pc.less_equal(qty, 40.0)),
        )
        t = b.filter(mask)
        cents = _cents(t.column("l_extendedprice").to_numpy())
        disc = _cents(t.column("l_discount").to_numpy())
        rev_c = cents * (100 - disc)
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_linenumber": pc.cast(t.column("l_linenumber"), pa.int64()),
                "l_returnflag": t.column("l_returnflag"),
                "rev_c": pa.array(rev_c),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
                 "l_discount", "l_returnflag", "l_shipdate"],
    )
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_filter_project() -> str:
    rev = (
        f"({SQL_CENTS.format(col='l_extendedprice')} * "
        f"(100 - {SQL_CENTS.format(col='l_discount')}))"
    )
    return (
        "SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber, "
        f"l_returnflag, {rev} AS rev_c FROM lineitem "
        "WHERE l_shipdate < TIMESTAMP '1997-01-01' "
        "AND l_quantity >= 10.0 AND l_quantity <= 40.0"
    )


# 2. scalar function surface (coalesce/nullif/substr/replace/case/in/like) --

def q_scalar_funcs(sf_dir: str):
    import ray

    def fn(b: pa.Table) -> pa.Table:
        brand = b.column("p_brand")
        name = b.column("p_name")
        ptype = b.column("p_type")
        size = pc.cast(b.column("p_size"), pa.int64())
        nulled = pc.if_else(pc.equal(brand, "Brand#33"), pa.scalar(None, pa.string()), brand)
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "brand2": pc.coalesce(nulled, pa.scalar("NONE")),
                "was_brand33": pc.is_null(nulled),
                "name8": pc.utf8_slice_codeunits(name, 0, 8),
                "type_len": pc.cast(pc.utf8_length(ptype), pa.int64()),
                "type_u": pc.replace_substring(ptype, " ", "_"),
                "size_class": pc.if_else(
                    pc.less(size, 5),
                    pa.scalar("small"),
                    pc.if_else(pc.less_equal(size, 10), pa.scalar("mid"), pa.scalar("big")),
                ),
                "size_in": pc.is_in(size, value_set=pa.array([1, 5, 9], pa.int64())),
                "name_like": pc.match_substring(name, "green"),
                "adj_price": pc.add(b.column("p_retailprice"), 3.0),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_name", "p_type", "p_size", "p_retailprice"],
    )
    return ds.map_batches(fn, batch_format="pyarrow")


def sql_scalar_funcs() -> str:
    return (
        "SELECT p_partkey, "
        "coalesce(nullif(p_brand, 'Brand#33'), 'NONE') AS brand2, "
        "nullif(p_brand, 'Brand#33') IS NULL AS was_brand33, "
        "substr(p_name, 1, 8) AS name8, "
        "CAST(length(p_type) AS BIGINT) AS type_len, "
        "replace(p_type, ' ', '_') AS type_u, "
        "CASE WHEN p_size < 5 THEN 'small' WHEN p_size <= 10 THEN 'mid' "
        "ELSE 'big' END AS size_class, "
        "p_size IN (1, 5, 9) AS size_in, "
        "p_name LIKE '%green%' AS name_like, "
        "p_retailprice + 3.0 AS adj_price "
        "FROM part"
    )


# 3. equi-join with broadcast dimensions (J11, broadcast small side) --------

def q_join_agg(sf_dir: str):
    import ray

    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"])
    nmap = nation.set_index("n_nationkey")["n_name"]
    cust_to_nation = cust.set_index("c_custkey")["c_nationkey"].map(nmap)
    ref = ray.put(cust_to_nation)

    class JoinAgg:
        def __init__(self):
            self.map = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            ck = b.column("o_custkey").to_numpy()
            nname = self.map.reindex(ck).to_numpy(dtype=object)
            cents = _cents(b.column("o_totalprice").to_numpy())
            df = pd.DataFrame(
                {
                    "n_name": nname,
                    "o_orderpriority": b.column("o_orderpriority").to_pandas(),
                    "total_c": cents,
                }
            )
            g = (
                df.groupby(["n_name", "o_orderpriority"], as_index=False)
                .agg(total_c=("total_c", "sum"), n=("total_c", "size"))
            )
            return pa.Table.from_pandas(g, preserve_index=False)

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority", "o_totalprice"],
    )
    from ..stages.shuffle import grouped_agg

    from ..stages.spatial import worker_cached

    partial = ds.map_batches(
        worker_cached(("join_agg", ref.hex()), JoinAgg),
        batch_format="pyarrow")
    return grouped_agg(
        partial, ["n_name", "o_orderpriority"],
        {"total_c": ("total_c", "sum"), "n": ("n", "sum")},
    )


def sql_join_agg() -> str:
    cents = SQL_CENTS.format(col="o_totalprice")
    return (
        f"SELECT n_name, o_orderpriority, "
        f"CAST(SUM({cents}) AS BIGINT) AS total_c, "
        "COUNT(*) AS n FROM orders "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN nation ON c_nationkey = n_nationkey "
        "GROUP BY n_name, o_orderpriority"
    )


# 4. union ------------------------------------------------------------------

def q_union(sf_dir: str):
    import ray

    sup = ray.data.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_name"])
    cus = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_name"])
    sup = sup.map_batches(
        lambda b: pa.table({"name": b.column("s_name"),
                            "src": pa.array(["supplier"] * b.num_rows)}),
        batch_format="pyarrow",
    )
    cus = cus.map_batches(
        lambda b: pa.table({"name": b.column("c_name"),
                            "src": pa.array(["customer"] * b.num_rows)}),
        batch_format="pyarrow",
    )
    return sup.union(cus)


def sql_union() -> str:
    return (
        "SELECT s_name AS name, 'supplier' AS src FROM supplier "
        "UNION ALL SELECT c_name AS name, 'customer' AS src FROM customer"
    )


# 5. sort + limit (top-k) ---------------------------------------------------

def q_sort_limit(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "total_c": pa.array(_cents(b.column("o_totalprice").to_numpy())),
            }
        )

    return (
        ds.map_batches(to_cents, batch_format="pyarrow")
        .sort(["total_c", "o_orderkey"], descending=[True, False])
        .limit(20)
    )


def sql_sort_limit() -> str:
    cents = SQL_CENTS.format(col="o_totalprice")
    return (
        f"SELECT o_orderkey, {cents} AS total_c FROM orders "
        f"ORDER BY total_c DESC, o_orderkey LIMIT 20"
    )


# 6. distinct ---------------------------------------------------------------

def q_distinct(sf_dir: str):
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_linestatus"]
    )

    from ..stages.shuffle import distinct

    return distinct(ds, ["l_returnflag", "l_linestatus"], n_buckets=8)


def sql_distinct() -> str:
    return "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem"


# 7. grouped aggregation with map-side partials (A1-style) ------------------

def q_agg_group(sf_dir: str):
    import ray
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "l_returnflag": b.column("l_returnflag").to_pandas(),
                "l_linestatus": b.column("l_linestatus").to_pandas(),
                "qty": np.floor(b.column("l_quantity").to_numpy() + 0.5).astype(np.int64),
                "rev_c": _cents(b.column("l_extendedprice").to_numpy())
                * (100 - _cents(b.column("l_discount").to_numpy())),
            }
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("qty", "sum"), sum_rev_c=("rev_c", "sum"), n=("qty", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                 "l_discount"],
    )
    from ..stages.shuffle import grouped_agg

    return grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("sum_qty", "sum"), "sum_rev_c": ("sum_rev_c", "sum"),
         "n": ("n", "sum")},
        n_buckets=8,
    )


def sql_agg_group() -> str:
    rev = (
        f"({SQL_CENTS.format(col='l_extendedprice')} * "
        f"(100 - {SQL_CENTS.format(col='l_discount')}))"
    )
    return (
        "SELECT l_returnflag, l_linestatus, "
        "CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty, "
        f"CAST(SUM({rev}) AS BIGINT) AS sum_rev_c, COUNT(*) AS n "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus"
    )


QUERIES = {
    "sql_filter_project": q_filter_project,
    "sql_scalar_funcs": q_scalar_funcs,
    "sql_join_agg": q_join_agg,
    "sql_union": q_union,
    "sql_sort_limit": q_sort_limit,
    "sql_distinct": q_distinct,
    "sql_agg_group": q_agg_group,
}

ORACLES = {
    "sql_filter_project": sql_filter_project(),
    "sql_scalar_funcs": sql_scalar_funcs(),
    "sql_join_agg": sql_join_agg(),
    "sql_union": sql_union(),
    "sql_sort_limit": sql_sort_limit(),
    "sql_distinct": sql_distinct(),
    "sql_agg_group": sql_agg_group(),
}


# 8. the SQL-ish surface itself (sqlselect translator demo) -----------------

def q_sqlish_surface(sf_dir: str):
    """The reference's sqlselect semantics expressed through our Expr/Query
    translator (pipelines/sqlish.py) — WHERE + projection with the scalar
    function library + ORDER BY + LIMIT, compiled to pyarrow.compute."""
    import ray

    from .sqlish import Query, case_when, col, lit

    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_brand", "p_type", "p_size",
                 "p_retailprice"],
    )
    q = (
        Query(ds)
        .where(col("p_size").between(3, 40) & col("p_name").like("%o%"))
        .select(
            p_partkey=col("p_partkey"),
            label=col("p_brand").nullif("Brand#11").coalesce(lit("UNBRANDED"))
            .concat(lit(":"), col("p_type").replace(" ", "-").substr(1, 6)),
            klass=case_when(
                [(col("p_size") < 10, lit("small")),
                 (col("p_size") < 30, lit("mid"))],
                default=lit("big"),
            ),
            price_i=(col("p_retailprice") * 100.0).make_integer(),
            name_len=col("p_name").char_length(),
        )
        .order_by("p_partkey")
        .limit(500)
    )
    return q.run()


def sql_sqlish_surface() -> str:
    return (
        "SELECT p_partkey, "
        "coalesce(nullif(p_brand, 'Brand#11'), 'UNBRANDED') || ':' || "
        "substr(replace(p_type, ' ', '-'), 1, 6) AS label, "
        "CASE WHEN p_size < 10 THEN 'small' WHEN p_size < 30 THEN 'mid' "
        "ELSE 'big' END AS klass, "
        "CAST(p_retailprice * 100.0 AS BIGINT) AS price_i, "
        "CAST(length(p_name) AS BIGINT) AS name_len "
        "FROM part WHERE p_size >= 3 AND p_size <= 40 AND p_name LIKE '%o%' "
        "ORDER BY p_partkey LIMIT 500"
    )


QUERIES["sqlish_surface"] = q_sqlish_surface
ORACLES["sqlish_surface"] = sql_sqlish_surface()


# 9. native Dataset.join (hash-partitioned) ---------------------------------

def q_join_native(sf_dir: str):
    """J11 via Ray's native hash-partitioned Dataset.join (the non-
    broadcast path for when BOTH sides are large), followed by the
    bucketed grouped aggregation."""
    import ray

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    # Ray's hash-shuffle join reserves one CPU per aggregator actor by
    # default; on a 1-CPU cluster that starves the read and map tasks
    # the aggregators wait on, and the join never finishes
    joined = orders.join(
        cust, join_type="inner", on=("o_custkey",), right_on=("c_custkey",),
        num_partitions=8, aggregator_ray_remote_args={"num_cpus": 0},
    )

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_nationkey": pc.cast(b.column("c_nationkey"), pa.int64()),
                "total_c": pa.array(_cents(b.column("o_totalprice").to_numpy())),
            }
        )

    from ..stages.shuffle import grouped_agg

    return grouped_agg(
        joined.map_batches(to_cents, batch_format="pyarrow"),
        ["c_nationkey"],
        {"total_c": ("total_c", "sum"), "n": ("total_c", "size")},
        n_buckets=8,
    )


def sql_join_native() -> str:
    cents = SQL_CENTS.format(col="o_totalprice")
    return (
        f"SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, "
        f"CAST(SUM({cents}) AS BIGINT) AS total_c, COUNT(*) AS n "
        "FROM orders JOIN customer ON o_custkey = c_custkey "
        "GROUP BY c_nationkey"
    )


QUERIES["sql_join_native"] = q_join_native
ORACLES["sql_join_native"] = sql_join_native()
