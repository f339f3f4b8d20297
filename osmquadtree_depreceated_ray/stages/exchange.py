"""The engine's one all-to-all exchange over raw Ray tasks.

The reference has a single shuffle, blocksort's allocator-keyed
exchange (blocksort/blocksort.go:63-98): split tasks cut their input
into ``n`` pieces by a bucket id the caller computes, and one reduce
task per bucket takes piece ``b`` of every split task.  The grouped
aggregation (``shuffle.py``), the tile writer (``write_tiles.py``), the
tile-count descent (``pipelines/tile.py``) and the iterative graph and
connected-components operators all run that grid through this module,
which owns its shape:

* ``remote``: each task function is exported to the cluster once per
  process (defining it per call re-pickles and re-exports it, a
  measured fixed cost);
* ``block_groups``: a Dataset's blocks grouped ``refs[i::n_tasks]``;
* ``route``: one split task's rows cut into ``n`` Arrow pieces;
* ``scatter`` / ``gather`` / ``exchange``: the task grid, including
  split tasks' scalar side outputs and the one-bucket case.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa


@functools.cache
def remote(fn):
    """``ray.remote(fn)``, exported once per process.  ``fn`` must be a
    module-level function (the cache keeps every function it sees)."""
    import ray

    return ray.remote(fn)


@functools.cache
def _first(fn):
    # Ray stores a task's only return value as-is, so a split task with
    # one output must return the piece, not a 1-tuple
    def first(*args):
        return fn(*args)[0]

    return first


def block_groups(ds, n_tasks: int) -> list[list]:
    """A Dataset's block refs in at most ``n_tasks`` non-empty groups,
    ``refs[i::n_tasks]``; no groups for a Dataset without blocks."""
    refs = [r for bundle in ds.iter_internal_ref_bundles()
            for r in bundle.block_refs]
    n_tasks = max(1, min(len(refs), n_tasks))
    return [g for g in (refs[i::n_tasks] for i in range(n_tasks)) if g]


def route(bucket: np.ndarray, n: int, columns) -> tuple:
    """Cut ``columns`` (an Arrow table, or a dict of equal-length
    arrays) into ``n`` tables by ``bucket`` (ids in ``[0, n)``).  One
    stable argsort plus slices: rows keep their order within a bucket,
    and an empty bucket is a zero-row table with the full schema."""
    t = columns if isinstance(columns, pa.Table) else pa.table(columns)
    order = np.argsort(bucket, kind="stable")
    t = t.take(order)
    bounds = np.searchsorted(np.asarray(bucket)[order], np.arange(n + 1))
    return tuple(t.slice(bounds[i], bounds[i + 1] - bounds[i])
                 for i in range(n))


def scatter(split, split_args, n: int, side: int = 0, grid=None):
    """One ``split`` task per ``split_args`` tuple.  Each returns
    ``side`` scalars, then ``n`` pieces.  With ``grid`` (the pieces of
    an earlier wave, one bucket per task) task ``t`` also receives
    bucket ``t``'s pieces, so a reduce can split again.  Returns
    ``(sides, pieces)``: per task, its side refs and its ``n`` piece
    refs."""
    k = side + n
    fn = (remote(_first(split)) if k == 1
          else remote(split).options(num_returns=k))
    refs = [fn.remote(*a, *([g[t] for g in grid] if grid else ()))
            for t, a in enumerate(split_args)]
    if k == 1:
        refs = [[r] for r in refs]
    return [r[:side] for r in refs], [r[side:] for r in refs]


def gather(reduce, reduce_args, pieces, returns: int = 1) -> list:
    """One ``reduce`` task per bucket ``b``: ``reduce(*reduce_args[b],
    *piece b of every split task)``.  A task's result is one ref, or a
    list of ``returns`` refs."""
    fn = remote(reduce)
    if returns > 1:
        fn = fn.options(num_returns=returns)
    return [fn.remote(*a, *[p[b] for p in pieces])
            for b, a in enumerate(reduce_args)]


def exchange(split, split_args, reduce, reduce_args, n: int,
             side: int = 0, returns: int = 1):
    """``scatter`` then ``gather``: the n x n grid.  Returns the
    per-bucket reduce results, preceded by the split tasks' side refs
    when ``side`` is non-zero."""
    sides, pieces = scatter(split, split_args, n, side)
    outs = gather(reduce, reduce_args, pieces, returns)
    return (sides, outs) if side else outs
