"""Workload sizes, the operations of one round, and the SQL list.

Shared by the launcher (``run.py``, which must count operations a
crashed run never reached) and the workload process (``lb_child.py``).
"""

from __future__ import annotations

WORKLOADS = ("tile_build", "pip_join", "update_cycle", "sql_mix")

# pages -> ~2.5 mentions (entities) per page
TILE_PAGES = 24_000
TILE_TARGET = 1_000      # max-per-tile split rule: target rows per tile
TILE_MINIMUM = 50
N_BBOX = 8

PIP_PAGES = 8_000
N_POLYS = 2_000          # the pip_join polygon set
N_POLYS_FEW = 40         # kernel.pip_contains_few
PIP_SAMPLE = 1_500       # points checked against the reference

UPD_PAGES = 20_000
UPD_BATCHES = 4
UPD_FRAC = 0.005         # share of live entities each diff batch touches
SNAP_EVERY = 2           # read_snapshot after every SNAP_EVERY batches

SQL_PAGES = 6_000
SQL_ENTITIES = 60_000    # > the program's 50,000-value semi-join threshold
SQL_TILES = 256

QT_SAMPLE = 1_500        # rows whose qt is checked against the scalar reference
WARM_PAGES = 400
WARM_SEED = 0

SQL_QUERIES = {
    "join_agg": (
        "SELECT t.zone, p.lang, COUNT(*) AS n, CAST(SUM(e.lat) AS BIGINT) AS s "
        "FROM entities e JOIN pages p ON e.src_page = p.page_id "
        "JOIN tiles t ON e.tile_id = t.tile_id GROUP BY t.zone, p.lang"),
    "window": (
        "SELECT src_page, entity_id, lat, ROW_NUMBER() OVER "
        "(PARTITION BY src_page ORDER BY lat DESC, entity_id) AS rn "
        "FROM entities QUALIFY rn = 1"),
    "in_small": (
        "SELECT kind, COUNT(*) AS n FROM entities WHERE src_page IN "
        "(SELECT page_id FROM pages WHERE lang = 'de') GROUP BY kind"),
    "in_large": (
        "SELECT kind, COUNT(*) AS n FROM entities WHERE entity_id IN "
        "(SELECT entity_id FROM entities WHERE lat > -700000000) GROUP BY kind"),
    "exists_small": (
        "SELECT lang, COUNT(*) AS n FROM pages p WHERE EXISTS "
        "(SELECT 1 FROM entities e WHERE e.src_page = p.page_id AND e.kind = 'peak') "
        "GROUP BY lang"),
    "cte": (
        "WITH per_tile AS (SELECT tile_id, COUNT(*) AS n, MAX(lat) AS top "
        "FROM entities GROUP BY tile_id) "
        "SELECT t.zone, CAST(SUM(c.n) AS BIGINT) AS n, MAX(c.top) AS top "
        "FROM per_tile c JOIN tiles t ON c.tile_id = t.tile_id GROUP BY t.zone"),
    "order_limit": (
        "SELECT entity_id, lon, lat FROM entities WHERE kind = 'city' "
        "ORDER BY lat DESC, entity_id LIMIT 25"),
}


def update_ops() -> list[str]:
    ops = []
    for s in range(1, UPD_BATCHES + 1):
        ops.append(f"apply_{s}")
        if s % SNAP_EVERY == 0:
            ops.append(f"snapshot_{s}")
    return ops + ["compact", "final_read"]


ROUND_OPS = {
    "tile_build": ["tile_pages"] + [f"filter_{i}" for i in range(N_BBOX)],
    "pip_join": ["index_build", "pip_join"],
    "update_cycle": update_ops(),
    "sql_mix": [f"sql_{q}" for q in SQL_QUERIES],
}

# Rounds a run makes at least, even past --seconds: the run's lower
# quartile needs samples, and one round's time drifts by 15-50% on a
# shared host.  pip_join's round (~5 s, most of it the pure-Python index
# build) is the longest and drifts most, so it makes more rounds than
# --seconds alone would give it.
# Never below 2: the traced run needs an untraced and a traced round.
MIN_ROUNDS = {"tile_build": 3, "pip_join": 5, "update_cycle": 3, "sql_mix": 2}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "CPU-s", "driver_peak_rss_mb": "MB"}

_S = "s"
PER_LAYER = {
    "setup.ray_init_s": _S, "setup.warm_s": _S, "setup.base_store_s": _S,
    "tile.extract_self_s": _S, "tile.count_s": _S, "tile.split_s": _S,
    "tile.write_s": _S, "tile.manifest_s": _S, "tile.tiles": "count",
    "tile.rows_max_over_mean": "ratio", "tile.store_mb": "MB",
    "serve.filter_p50_s": _S, "serve.cache_hits": "count", "serve.cache_misses": "count",
    "kernel.extract_text_rows_per_s": "1/s", "kernel.extract_entities_rows_per_s": "1/s",
    "kernel.assign_cells_rows_per_s": "1/s", "kernel.calculate_point_rows_per_s": "1/s",
    "kernel.allocator_assign_rows_per_s": "1/s", "kernel.find_qt_groups_s": _S,
    "kernel.pip_contains_few_rows_per_s": "1/s", "kernel.pip_contains_many_rows_per_s": "1/s",
    "pip.index_build_s": _S, "pip.join_s": _S, "pip.pairs": "count",
    "update.apply_s": _S, "update.snapshot_s": _S, "update.compact_s": _S,
    "update.change_records": "count", "update.rewritten_tiles": "count",
    "exchange.calls": "count", "exchange.s": _S, "exchange.rows_out": "count",
    "sql.parse_s": _S, "sql.collect_s": _S,
    **{f"sql.{q}_s": _S for q in SQL_QUERIES},
    "trace.overhead_s": _S,
}
