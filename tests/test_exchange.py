"""The all-to-all grid of stages/exchange.py: the one-bucket case, an
input without blocks, split side outputs, per-bucket reduce args, a
chained wave, and ``route``'s order and empty-bucket rules."""

import sys

import numpy as np
import pyarrow as pa
import pytest
from ray import cloudpickle

from osmquadtree_depreceated_ray.stages.exchange import (
    block_groups, exchange, gather, route, scatter,
)

# the task functions below live in this test module, which Ray workers
# cannot import: ship them by value
cloudpickle.register_pickle_by_value(sys.modules[__name__])


def _mod_split(n, t):
    """Route rows by ``k % n``; the row count rides first as a side."""
    k = t.column("k").to_numpy()
    return (t.num_rows,) + route(k % n, n, t)


def _concat(*pieces):
    return pa.concat_tables(pieces)


def _tag(label, *pieces):
    return label, sum(p.num_rows for p in pieces)


def _table(ks):
    return pa.table({"k": pa.array(ks, pa.int64()),
                     "i": pa.array(np.arange(len(ks)), pa.int64())})


def test_route_keeps_order_and_typed_empty_buckets():
    t = _table([5, 2, 8, 3, 2, 7])
    pieces = route(t.column("k").to_numpy() % 4, 4, t)
    assert len(pieces) == 4
    assert [p.column("k").to_pylist() for p in pieces] == \
        [[8], [5], [2, 2], [3, 7]]
    # row order within a bucket is the input order
    assert pieces[2].column("i").to_pylist() == [1, 4]
    # dict input, and a bucket no row maps to keeps the schema
    d = route(np.array([0, 0]), 3, {"a": np.array([1.5, 2.5]),
                                      "b": np.array([1, 2])})
    assert [p.num_rows for p in d] == [2, 0, 0]
    assert d[1].schema == d[0].schema
    assert d[1].schema.field("a").type == pa.float64()


@pytest.mark.parametrize("n", [1, 3])
def test_exchange_grid_with_side_outputs(ray_session, n):
    import ray

    blocks = [ray.put(_table([0, 1, 2, 3])), ray.put(_table([4, 5]))]
    sides, outs = exchange(_mod_split, [(n, b) for b in blocks],
                           _concat, [()] * n, n, side=1)
    assert ray.get([s for s, in sides]) == [4, 2]
    got = ray.get(outs)
    assert len(got) == n
    for b, t in enumerate(got):
        # a reduce receives tables, never a 1-tuple, even at n == 1
        assert isinstance(t, pa.Table)
        assert all(k % n == b for k in t.column("k").to_pylist())
    assert sorted(k for t in got for k in t.column("k").to_pylist()) == \
        list(range(6))


def test_exchange_per_bucket_reduce_args(ray_session):
    import ray

    n = 3
    blocks = [ray.put(_table([0, 1, 2, 4]))]
    _, outs = exchange(_mod_split, [(n, b) for b in blocks],
                       _tag, [(f"bucket{b}",) for b in range(n)], n,
                       side=1, returns=2)
    got = [(ray.get(a), ray.get(c)) for a, c in outs]
    assert got == [("bucket0", 1), ("bucket1", 2), ("bucket2", 1)]


@pytest.mark.parametrize("n", [1, 3])
def test_scatter_chained_wave(ray_session, n):
    """A second split wave reads each bucket's pieces of the first."""
    import ray

    blocks = [ray.put(_table([0, 1, 2])), ray.put(_table([3, 4, 5]))]
    _, first = scatter(_mod_split, [(n, b) for b in blocks], n, side=1)
    sides, second = scatter(_resplit, [(n,)] * n, n, side=1, grid=first)
    assert sum(ray.get([s for s, in sides])) == 6
    out = ray.get(gather(_concat, [()] * n, second))
    assert sorted(k for t in out for k in t.column("k").to_pylist()) == \
        list(range(6))


def _resplit(n, *pieces):
    return _mod_split(n, pa.concat_tables(pieces))


def test_exchange_without_blocks(ray_session):
    import ray

    assert block_groups(ray.data.from_arrow_refs([]), 4) == []
    # no split tasks: every reduce still runs, over zero pieces
    assert ray.get(exchange(_mod_split, [], _tag, [(0,), (1,)], 2)) == \
        [(0, 0), (1, 0)]


def test_block_groups_stride(ray_session):
    import ray

    ds = ray.data.from_arrow([_table([i]) for i in range(5)])
    groups = block_groups(ds, 2)
    assert [len(g) for g in groups] == [3, 2]
    assert len(block_groups(ds, 16)) == 5
