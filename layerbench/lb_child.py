"""One workload run inside its own Ray session.

Started by ``run.py`` as the leader of a new process session, so every
Ray process it starts shares its session id: that is how its CPU time
is summed and how the launcher ends them all.  Its stdout and stderr go
to a log file (Ray writes there); results go, one JSON line per event,
to the ``--result`` file:

* ``setup``  — the time the timed region starts, set-up span times;
* ``round``  — one per round: its wall and CPU, each operation's outcome;
* ``done``   — peak RSS and, with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

import lb_check as ck
import lb_spec as spec
from lb_trace import Tracer


# ------------------------------------------------------------ process probes

def session_cpu() -> dict[str, float]:
    """Cumulative user+system CPU seconds per process of this session."""
    sid = str(os.getsid(0))
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as f:
                parts = f.read().rsplit(") ", 1)[1].split()
        except (OSError, IndexError):
            continue
        if parts[3] == sid:
            out[path] = (int(parts[11]) + int(parts[12])) / tick
    return out


def cpu_delta(a: dict, b: dict) -> float:
    return sum(v - a.get(k, 0.0) for k, v in b.items())


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def dir_mb(path: str) -> float:
    return sum(os.path.getsize(p) for p in glob.glob(f"{path}/**/*", recursive=True)
               if os.path.isfile(p)) / 1e6


def read_store(out_dir: str, columns=None) -> pd.DataFrame:
    """A tiled store's rows with the Hive ``tile`` key as int64."""
    df = pq.read_table(os.path.join(out_dir, "data"), columns=columns).to_pandas()
    df["tile"] = pd.to_numeric(df["tile"].astype(str)).astype(np.int64)
    return df


def read_manifest(out_dir: str) -> pd.DataFrame:
    return pq.read_table(os.path.join(out_dir, "manifest.parquet")).to_pandas()


def sample_idx(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 9])
    return np.sort(rng.choice(n, size=min(k, n), replace=False))


# ------------------------------------------------------------------ workloads

class Workload:
    """One workload: ``warm``/``base`` are set-up, ``round`` is timed,
    ``check`` turns a round's outputs into per-operation problems."""

    def __init__(self, inputs: str, warm: str, work: str, seed: int, tracer: Tracer):
        self.inputs, self.warm_dir, self.work, self.seed = inputs, warm, work, seed
        self.tr = tracer
        from osmquadtree_depreceated_ray.pipelines import tile as tile_mod

        self.tile_mod = tile_mod

    def inp(self, name: str) -> str:
        return os.path.join(self.inputs, f"{name}.parquet")

    def tile(self, pages: str, out: str) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        with self.tr.span("tile_pages"):
            res = self.tile_mod.tile_pages(pages, out, target=spec.TILE_TARGET,
                                           minimum=spec.TILE_MINIMUM, resume=False,
                                           checkpoint_entities=False)
        res.pop("entities_ds", None)
        return res

    def warm(self) -> None:
        self.tile(os.path.join(self.warm_dir, "pages.parquet"), os.path.join(self.work, "warm"))

    def base(self) -> None:
        pass

    def reset(self, i: int) -> None:
        pass

    def store_metrics(self, out: str) -> dict:
        man = read_manifest(out)
        c = man["count"].to_numpy()
        return {"tile.tiles": float(len(c)),
                "tile.rows_max_over_mean": float(c.max() / c.mean()),
                "tile.store_mb": dir_mb(os.path.join(out, "data"))}


class TileBuild(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.mentions = pd.read_parquet(self.inp("mentions"))
        with open(os.path.join(self.inputs, "bboxes.json")) as f:
            self.bboxes = [tuple(b) for b in json.load(f)]
        self.stats = {}

    def warm(self) -> None:
        super().warm()
        from osmquadtree_depreceated_ray.stages.serve import TileServer

        TileServer(os.path.join(self.work, "warm")).filter(bbox=self.bboxes[0])

    def out(self, i: int) -> str:
        return os.path.join(self.work, f"tb{i}")

    def reset(self, i: int) -> None:
        shutil.rmtree(self.out(i - 1), ignore_errors=True)

    def round(self, i: int, run_op) -> dict:
        from osmquadtree_depreceated_ray.stages import serve

        out = self.out(i)
        run_op("tile_pages", lambda: self.tile(self.inp("pages"), out))
        server = {}

        def filt(b):
            if "s" not in server:
                server["s"] = serve.TileServer(out)
            with self.tr.span("serve.filter"):
                return server["s"].filter(bbox=b, columns=["entity_id", "lon", "lat"])

        got = {}
        for k, b in enumerate(self.bboxes):
            got[k] = run_op(f"filter_{k}", lambda b=b: filt(b))
        if "s" in server:
            st = server["s"].stats()
            self.tr.add("serve.cache_hits", st["hits"])
            self.tr.add("serve.cache_misses", st["misses"])
        return {"out": out, "filters": got}

    def check(self, i: int, res: dict) -> dict[str, list[str]]:
        out = res["out"]
        store = read_store(out, ["entity_id", "lon", "lat", "qt", "tile"])
        store = store.sort_values("entity_id", ignore_index=True)
        probs = {"tile_pages": ck.check_store(
            store, read_manifest(out), self.mentions,
            sample_idx(len(store), spec.QT_SAMPLE, self.seed + i))}
        for k, b in enumerate(self.bboxes):
            t = res["filters"].get(k)
            if t is not None:
                probs[f"filter_{k}"] = ck.check_bbox(t.to_pandas(), self.mentions, b)
        self.stats = self.store_metrics(out)
        return probs


class PipJoin(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.polys = pq.read_table(self.inp("polys"))
        self.mentions = pd.read_parquet(self.inp("mentions"))
        self.store = os.path.join(self.work, "base")
        self.expected = None

    def warm(self) -> None:
        super().warm()
        import ray

        from osmquadtree_depreceated_ray.stages import spatial

        polys = pq.read_table(os.path.join(self.warm_dir, "polys.parquet"))
        ref = ray.put(spatial.PolygonIndex.from_table(polys))
        ray.data.read_parquet(os.path.join(self.work, "warm", "data")).map_batches(
            spatial.pip_map_fn(ref, ("entity_id",)), batch_format="pyarrow").count()

    def base(self) -> None:
        self.tile(self.inp("pages"), self.store)
        self.stats = self.store_metrics(self.store)

    def round(self, i: int, run_op) -> dict:
        import ray

        from osmquadtree_depreceated_ray.stages import spatial

        def build():
            with self.tr.span("pip.index_build"):
                return ray.put(spatial.PolygonIndex.from_table(self.polys))

        ref = run_op("index_build", build)

        def join():
            with self.tr.span("pip.join"):
                ds = ray.data.read_parquet(os.path.join(self.store, "data"),
                                           columns=["entity_id", "lon", "lat"])
                return ds.map_batches(spatial.pip_map_fn(ref, ("entity_id",)),
                                      batch_format="pyarrow").to_pandas()

        pairs = run_op("pip_join", join)
        if pairs is not None:
            self.tr.add("pip.pairs", len(pairs))
        return {"pairs": pairs}

    def check(self, i: int, res: dict) -> dict[str, list[str]]:
        if res["pairs"] is None:
            return {}
        m = self.mentions
        idx = sample_idx(len(m), spec.PIP_SAMPLE, self.seed)
        ids = m["entity_id"].to_numpy()[idx]
        if self.expected is None:
            self.expected = ck.ref_pip_pairs(ck.rings_from_table(self.polys), ids,
                                             m["lon"].to_numpy()[idx], m["lat"].to_numpy()[idx])
        return {"pip_join": ck.check_pip(res["pairs"], ids, self.expected)}


class UpdateCycle(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        from osmquadtree_depreceated_ray.pipelines import update

        self.update = update
        self.mentions = pd.read_parquet(self.inp("mentions"))
        self.diffs = pq.read_table(self.inp("diffs"))
        self.pristine = os.path.join(self.work, "pristine")
        self.replays = {}
        self.fresh_tiles = None

    def warm(self) -> None:
        super().warm()
        w = os.path.join(self.work, "warm")
        d = pq.read_table(os.path.join(self.warm_dir, "diffs.parquet"))
        for s in (1, 2):
            self.update.apply_change_batch(w, d, s)
        self.update.read_snapshot(w).to_pandas()
        self.update.compact(w)

    def base(self) -> None:
        self.tile(self.inp("pages"), self.pristine)
        self.manifest = read_manifest(self.pristine)
        self.stats = self.store_metrics(self.pristine)

    def out(self, i: int) -> str:
        return os.path.join(self.work, f"up{i}")

    def reset(self, i: int) -> None:
        shutil.rmtree(self.out(i - 1), ignore_errors=True)
        shutil.copytree(self.pristine, self.out(i))

    def round(self, i: int, run_op) -> dict:
        up, out, snaps = self.update, self.out(i), {}

        def apply(s):
            with self.tr.span("update.apply"):
                r = up.apply_change_batch(out, self.diffs, s)
            self.tr.add("update.change_records", r["records"])
            return r

        def snapshot():
            with self.tr.span("update.snapshot"):
                return up.read_snapshot(out).to_pandas()

        def compact():
            with self.tr.span("update.compact"):
                r = up.compact(out)
            self.tr.add("update.rewritten_tiles", r["rewritten_tiles"])
            return r

        for s in range(1, spec.UPD_BATCHES + 1):
            run_op(f"apply_{s}", lambda s=s: apply(s))
            if s % spec.SNAP_EVERY == 0:
                snaps[s] = run_op(f"snapshot_{s}", snapshot)
        compacted = run_op("compact", compact)
        final = run_op("final_read", snapshot)
        return {"out": out, "snaps": snaps, "compacted": compacted, "final": final}

    def replay(self, s: int) -> pd.DataFrame:
        if s not in self.replays:
            self.replays[s] = ck.replay_diffs(self.mentions[["entity_id", "lon", "lat"]],
                                              self.diffs.to_pandas(), s)
        return self.replays[s]

    def fresh_tiling(self, rows: pd.DataFrame) -> pd.DataFrame:
        """The edited entity set tiled afresh by the program under the base
        store's allocator: the tile every entity must land in."""
        import ray

        from osmquadtree_depreceated_ray.functions.qttree import QtAllocator

        out = os.path.join(self.work, "fresh")
        shutil.rmtree(out, ignore_errors=True)
        ds = ray.data.from_pandas(rows[["entity_id", "lon", "lat", "qt"]])
        self.tile_mod.tile_entities(ds, out, spec.TILE_TARGET, spec.TILE_MINIMUM, resume=False,
                                    allocator=QtAllocator(self.manifest["tile"].to_numpy()))
        t = read_store(out, ["entity_id", "tile"])
        shutil.rmtree(out, ignore_errors=True)
        return t

    def check(self, i: int, res: dict) -> dict[str, list[str]]:
        probs = {}
        last = spec.UPD_BATCHES
        smp = None
        for s, snap in res["snaps"].items():
            if snap is None:
                continue
            snap = snap.sort_values("entity_id", ignore_index=True)
            smp = sample_idx(len(snap), spec.QT_SAMPLE, self.seed + s)
            probs[f"snapshot_{s}"] = ck.check_snapshot(
                snap, self.replay(s), self.manifest, smp, f"snapshot after batch {s}")
        final = res["final"]
        before = res["snaps"].get(last)
        if final is not None:
            p = []
            if before is not None:
                p += ck.frame_diff(final, before, ["entity_id", "lon", "lat", "qt", "tile"],
                                   "read after compact vs snapshot before it")
            p += ck.check_snapshot(final.sort_values("entity_id", ignore_index=True),
                                   self.replay(last), self.manifest,
                                   smp if smp is not None else [], "read after compact")
            probs["final_read"] = p
        if res["compacted"] is not None:
            store = read_store(res["out"], ["entity_id", "lon", "lat", "qt", "tile"])
            p = ck.frame_diff(store, self.replay(last), ["entity_id", "lon", "lat"],
                              "compacted store")
            if not p:
                if self.fresh_tiles is None:
                    self.fresh_tiles = self.fresh_tiling(store)
                p = ck.frame_diff(store, self.fresh_tiles, ["entity_id", "tile"],
                                  "compacted tiles vs a fresh tiling")
            probs["compact"] = p
        return probs


class SqlMix(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        from osmquadtree_depreceated_ray.pipelines import sqlparse

        self.sqlparse = sqlparse
        self.expected = {}

    def tables(self, warm: bool = False) -> dict:
        import ray

        if warm:
            return {n: ray.data.read_parquet(os.path.join(self.warm_dir, f"sql_{n}.parquet"))
                    for n in ("pages", "entities", "tiles")}
        return {n: ray.data.read_parquet(self.inp(n)) for n in ("pages", "entities", "tiles")}

    def warm(self) -> None:
        for sql in spec.SQL_QUERIES.values():
            self.sqlparse.parse_sql(sql, self.tables(warm=True)).to_pandas()

    def round(self, i: int, run_op) -> dict:
        def run(sql, name):
            with self.tr.span(f"sql.{name}"):
                with self.tr.span("sql.parse"):
                    ds = self.sqlparse.parse_sql(sql, self.tables())
                with self.tr.span("sql.collect"):
                    return ds.to_pandas()

        return {q: run_op(f"sql_{q}", lambda s=sql, q=q: run(s, q))
                for q, sql in spec.SQL_QUERIES.items()}

    def duckdb_rows(self, sql: str) -> list[tuple]:
        import duckdb

        con = duckdb.connect()
        try:
            for n in ("pages", "entities", "tiles"):
                con.execute(f"CREATE VIEW {n} AS SELECT * FROM read_parquet('{self.inp(n)}')")
            return ck.sql_rows(con.execute(sql).fetchdf())
        finally:
            con.close()

    def check(self, i: int, res: dict) -> dict[str, list[str]]:
        probs = {}
        for q, df in res.items():
            if df is None:
                continue
            if q not in self.expected:
                self.expected[q] = self.duckdb_rows(spec.SQL_QUERIES[q])
            probs[f"sql_{q}"] = ck.check_sql(df, self.expected[q], q)
        return probs


CLASSES = {"tile_build": TileBuild, "pip_join": PipJoin,
           "update_cycle": UpdateCycle, "sql_mix": SqlMix}


# ----------------------------------------------------------- per-layer trace

def median(xs, default=0.0) -> float:
    return float(statistics.median(xs)) if xs else default


def kernel_metrics(inputs_warm: str, inputs: str, seed: int) -> dict:
    """Per-batch kernel throughput in this process, no Ray: each kernel
    runs on a fixed seeded batch for ~0.3 s and reports its median."""
    import lb_gen

    from osmquadtree_depreceated_ray.functions import qttree, quadtree
    from osmquadtree_depreceated_ray.stages import assign, extract, spatial

    def rate(fn, rows, budget=0.3):
        ts, t_end = [], time.perf_counter() + budget
        while time.perf_counter() < t_end or len(ts) < 3:
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return rows / statistics.median(ts), statistics.median(ts)

    pages, _ = lb_gen.gen_pages(2_000, seed)
    text = extract.extract_text(pages)
    ents = extract.extract_entities(text)
    rng = np.random.default_rng([seed, 7])
    lon, lat = lb_gen._coords(100_000, rng)
    qts = quadtree.calculate_point(lon, lat)
    lv, cnt = np.unique(quadtree.qt_round(qts, 18), return_counts=True)
    gq, _ = qttree.find_qt_groups(lv, cnt, spec.TILE_TARGET, spec.TILE_MINIMUM,
                                  require_count=False)
    alloc = qttree.QtAllocator(gq)
    few = spatial.PolygonIndex.from_table(
        pq.read_table(os.path.join(inputs_warm, "polys.parquet")))
    plon, plat = lon[:5_000], lat[:5_000]
    m = {
        "kernel.extract_text_rows_per_s": rate(lambda: extract.extract_text(pages), pages.num_rows)[0],
        "kernel.extract_entities_rows_per_s": rate(lambda: extract.extract_entities(text), text.num_rows)[0],
        "kernel.assign_cells_rows_per_s": rate(lambda: assign.assign_cells(ents), ents.num_rows)[0],
        "kernel.calculate_point_rows_per_s": rate(lambda: quadtree.calculate_point(lon, lat), len(lon))[0],
        "kernel.allocator_assign_rows_per_s": rate(lambda: alloc.assign(qts), len(qts))[0],
        "kernel.find_qt_groups_s": rate(lambda: qttree.find_qt_groups(
            lv, cnt, spec.TILE_TARGET, spec.TILE_MINIMUM, require_count=False), 1)[1],
        "kernel.pip_contains_few_rows_per_s": rate(lambda: few.contains(plon, plat), len(plon))[0],
    }
    many = spatial.PolygonIndex.from_table(pq.read_table(os.path.join(inputs, "polys.parquet")))
    m["kernel.pip_contains_many_rows_per_s"] = rate(
        lambda: many.contains(plon, plat), len(plon), 1.0)[0]
    return m


def layer_metrics(tr: Tracer, rounds: list[dict], setup: dict, stats: dict) -> dict:
    """Per-layer numbers from the spans: medians over calls, except the
    exchange and SQL parse/collect times, which are totals per traced
    round.  ``tile_pages`` spans come from the timed rounds on
    tile_build and from the base-store build on the other workloads."""
    per = tr.durations
    n_traced = max(1, sum(r["traced"] for r in rounds))
    m = {k: 0.0 for k in spec.PER_LAYER}
    m.update(setup)
    m.update(stats)
    m["tile.extract_self_s"] = median(tr.self_times("tile_pages"))
    for k in ("count", "split", "write", "manifest"):
        m[f"tile.{k}_s"] = median(per(f"tile.{k}", "tile_pages"))
    m["serve.filter_p50_s"] = median(per("serve.filter"))
    m["pip.index_build_s"] = median(per("pip.index_build"))
    m["pip.join_s"] = median(per("pip.join"))
    for k in ("apply", "snapshot", "compact"):
        m[f"update.{k}_s"] = median(per(f"update.{k}"))
    for name, span in (("exchange.s", "exchange"), ("sql.parse_s", "sql.parse"),
                       ("sql.collect_s", "sql.collect")):
        m[name] = sum(per(span)) / n_traced
    for q in spec.SQL_QUERIES:
        m[f"sql.{q}_s"] = median(per(f"sql.{q}"))
    for k, v in tr.counts.items():
        m[k] = v / n_traced
    un = [r["wall"] for r in rounds if not r["traced"]]
    tw = [r["wall"] for r in rounds if r["traced"]]
    m["trace.overhead_s"] = median(tw) - median(un)
    return m


# ----------------------------------------------------------------------- main

def op_runner(ops: list):
    def run_op(name, fn):
        """Run one operation; record [name, ok, problem, kind]."""
        try:
            out = fn()
            ops.append([name, True, "", ""])
        except Exception as e:  # every failure is counted, never retried
            out = None
            ops.append([name, False, f"{type(e).__name__}: {e}", "error"])
            traceback.print_exc()
        return out

    return run_op


def check_ops(ops: list, check) -> None:
    """Mark each operation whose output ``check()`` finds wrong as failed."""
    try:
        probs = check()
    except Exception as e:
        traceback.print_exc()
        probs = {op[0]: [f"check raised {type(e).__name__}: {e}"] for op in ops if op[1]}
    for op in ops:
        if op[1] and probs.get(op[0]):
            op[1:4] = [False, "; ".join(probs[op[0]])[:500], "check"]


def pip_probe(tb: TileBuild, tr: Tracer, last: int):
    """The spatial-join layer on tile_build's traced run: pip_join's two
    operations over the last round's store, once to warm the workers,
    then traced and checked.  Returns the operations and the pair count."""
    pj = PipJoin(tb.inputs, tb.warm_dir, tb.work, tb.seed, tr)
    pj.store = tb.out(last)
    pj.round(0, op_runner([]))
    ops = []
    tr.enabled = True
    out = pj.round(1, op_runner(ops))
    tr.enabled = False
    check_ops(ops, lambda: pj.check(1, out))
    return ops, None if out["pairs"] is None else len(out["pairs"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--warm-inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--cpus", type=int, required=True)
    ap.add_argument("--result", required=True)
    a = ap.parse_args(argv)

    res_f = open(a.result, "a")

    def emit(rec):
        res_f.write(json.dumps(rec) + "\n")
        res_f.flush()

    tr = Tracer()
    if a.trace:
        tr.install()
    setup = {}
    import ray

    try:
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=a.cpus, include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", object_store_memory=400 * 1024 * 1024,
                 _temp_dir=a.ray_tmp)
        setup["setup.ray_init_s"] = time.perf_counter() - t0
        wl = CLASSES[a.workload](a.inputs, a.warm_inputs, a.work, a.seed, tr)
        t0 = time.perf_counter()
        wl.warm()
        setup["setup.warm_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        tr.enabled = bool(a.trace)
        wl.base()
        setup["setup.base_store_s"] = time.perf_counter() - t0
        tr.enabled = False
        emit({"event": "setup", "t_timed": time.time()})

        rounds = []
        t_start = time.perf_counter()
        i = 0
        while True:
            wl.reset(i)
            traced = bool(a.trace) and i % 2 == 1
            ops = []
            run_op = op_runner(ops)
            gc.collect()  # start every round from a clean heap (untimed)
            tr.enabled = traced
            c_round = session_cpu()
            t_round = time.perf_counter()
            out = wl.round(i, run_op)
            wall = time.perf_counter() - t_round
            cpu = cpu_delta(c_round, session_cpu())
            tr.enabled = False
            rss = peak_rss_mb()
            check_ops(ops, lambda: wl.check(i, out))
            rec = {"event": "round", "round": i, "traced": traced, "wall": wall,
                   "cpu": cpu, "rss_mb": rss, "ops": ops}
            rounds.append(rec)
            emit(rec)
            i += 1
            if time.perf_counter() - t_start >= a.seconds and i >= spec.MIN_ROUNDS[a.workload]:
                break

        pairs = None
        if a.trace and a.workload == "tile_build":
            ops, pairs = pip_probe(wl, tr, i - 1)
            emit({"event": "probe", "ops": ops})
        done = {"event": "done"}
        if a.trace:
            done["layers"] = layer_metrics(tr, rounds, setup, getattr(wl, "stats", {}))
            if pairs is not None:
                done["layers"]["pip.pairs"] = float(pairs)
            done["layers"].update(kernel_metrics(a.warm_inputs, a.inputs, a.seed))
            done["absent"] = tr.absent
        emit(done)
    finally:
        res_f.close()
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    sys.exit(main())
