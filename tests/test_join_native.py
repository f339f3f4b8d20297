"""sql_join_native on a one-CPU Ray cluster.

Ray's hash-shuffle join reserves a CPU per aggregator actor unless told
otherwise; at one cluster CPU the aggregators then wait for a CPU the
read tasks hold and the query never returns.  Run in a subprocess (its
own one-CPU cluster, bounded by a timeout) and compare with DuckDB."""

import os
import signal
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from osmquadtree_depreceated_ray.pipelines.queries_core import QUERIES
QUERIES["sql_join_native"](sys.argv[1]).to_pandas().to_parquet(sys.argv[2])
ray.shutdown()
"""


def test_join_native_one_cpu(tmp_path):
    import duckdb

    from osmquadtree_depreceated_ray.pipelines.queries_core import ORACLES

    rng = np.random.default_rng(5)
    pq.write_table(pa.table({
        "c_custkey": np.arange(1, 301, dtype=np.int64),
        "c_nationkey": rng.integers(0, 25, 300).astype(np.int32),
    }), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "o_custkey": rng.integers(1, 320, 3000).astype(np.int64),
        "o_totalprice": np.round(rng.uniform(1, 5000, 3000), 2),
    }), tmp_path / "orders.parquet")
    out = tmp_path / "got.parquet"
    env = dict(os.environ, PYTHONPATH=REPO)
    # own process group: a hung child's Ray processes die with it
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(tmp_path), str(out)],
        env=env, cwd=tmp_path, start_new_session=True)
    try:
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path / (t + '.parquet')}')")
    want = con.execute(ORACLES["sql_join_native"]).fetchdf()
    got = pd.read_parquet(out)
    key = ["c_nationkey"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[list(want.columns)],
        want.sort_values(key).reset_index(drop=True), check_dtype=False)
